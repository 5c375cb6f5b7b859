from __future__ import annotations

import json
import random

import pytest

from logsmith.templates import TemplateBody
from logsmith.whitebox import (
    GatewayConfig,
    PostProcessPolicy,
    build_prompt,
    invoke_gateway,
    parse_response,
    post_process,
)
from logsmith.whitebox.gateway import (
    GatewayTimeout,
    GatewayUnavailable,
    MockGateway,
    RetriesExhausted,
)
from logsmith.whitebox.postprocess import (
    REASON_ALL_WILDCARD,
    REASON_LOW_CONSTANT_TOKEN_RATIO,
    REASON_TOO_FEW_CONSTANT_CHARS,
    REASON_VERIFIER_REJECTED,
    constant_token_ratio,
    normalize_template,
)
from logsmith.whitebox.responses import ExtractedTemplate

from conftest import FIXTURES

CASES = json.loads((FIXTURES / "postprocess_cases.json").read_text())
DEFAULT = PostProcessPolicy()


def _record(template: str, level: str = "info", method: str = "A.m"):
    return ExtractedTemplate(method=method, template=template, level=level)


def test_case_file_shape():
    assert len(CASES) == 50
    assert sum(1 for c in CASES if c["expect"] == "accept") >= 25


@pytest.mark.parametrize("case", CASES, ids=lambda c: repr(c["template"]))
def test_fixture_case(case):
    record = _record(case["template"], case["level"], case["method"])
    accepted, rejected = post_process([record], DEFAULT)
    if case["expect"] == "accept":
        assert rejected == []
        assert len(accepted) == 1
        assert accepted[0].body.render() == case["normalized"]
        assert accepted[0].level == case["level"]
        assert accepted[0].methods == (case["method"],)
    else:
        assert accepted == []
        assert len(rejected) == 1
        assert rejected[0].reason == case["expect"]
        assert rejected[0].template == case["template"]
        assert rejected[0].method == case["method"]


def test_normalize_examples():
    assert normalize_template("read {} bytes").render() == "read <.*> bytes"
    assert normalize_template("  padded  ").render() == "padded"
    assert normalize_template("a {}<.*> b").render() == "a <.*> b"
    # interior spacing is preserved verbatim
    assert normalize_template("a  <.*>  b").render() == "a  <.*>  b"


def test_normalize_is_idempotent_on_random_inputs():
    rng = random.Random(20240819)
    pieces = ("x", "y_", " ", "{}", "<.*>", "req ", "", "id=", "  ")
    for _ in range(500):
        raw = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 8)))
        once = normalize_template(raw)
        again = normalize_template(once.render())
        assert once == again, raw


def test_constant_token_ratio_values():
    assert constant_token_ratio(TemplateBody.parse("connect <.*> failed")) == pytest.approx(2 / 3)
    assert constant_token_ratio(TemplateBody.parse("<.*>")) == 0.0
    assert constant_token_ratio(TemplateBody.parse("id=<.*>")) == 1.0
    assert constant_token_ratio(TemplateBody.parse("")) == 0.0


def test_wildcard_only_rejected_under_any_policy():
    rng = random.Random(7)
    for _ in range(50):
        policy = PostProcessPolicy(
            min_const_chars=rng.randint(1, 10),
            min_const_token_ratio=rng.random(),
        )
        accepted, rejected = post_process([_record("<.*>")], policy)
        assert accepted == []
        assert rejected[0].reason == REASON_ALL_WILDCARD


def test_policy_validation():
    with pytest.raises(ValueError):
        PostProcessPolicy(min_const_chars=0)
    with pytest.raises(ValueError):
        PostProcessPolicy(min_const_token_ratio=1.5)


def test_duplicates_merge_level_and_methods():
    records = [
        _record("sync done", level="error", method="com.a.Svc.run"),
        _record("  sync done", level="warn", method="com.a.Job.tick"),
        _record("sync done  ", level="fatal", method="com.a.Svc.run"),
    ]
    accepted, rejected = post_process(records, DEFAULT)
    assert rejected == []
    assert len(accepted) == 1
    merged = accepted[0]
    assert merged.body.render() == "sync done"
    assert merged.level == "warn"  # least severe level observed wins
    assert merged.methods == ("com.a.Job.tick", "com.a.Svc.run")


def test_accepted_order_is_first_occurrence():
    records = [_record("bravo done"), _record("alpha done"), _record("bravo done")]
    accepted, _ = post_process(records, DEFAULT)
    assert [t.body.render() for t in accepted] == ["bravo done", "alpha done"]


def test_verifier_requires_gateway():
    with pytest.raises(ValueError):
        post_process([_record("sync done")],
                     PostProcessPolicy(enable_verifier=True))


def test_verifier_round_trip():
    policy = PostProcessPolicy(enable_verifier=True)
    records = [_record("sync done"), _record("___<.*>")]
    accepted, rejected = post_process(records, policy, gateway=MockGateway())
    assert [t.body.render() for t in accepted] == ["sync done"]
    assert [r.reason for r in rejected] == [REASON_VERIFIER_REJECTED]
    assert rejected[0].template == "___<.*>"


class _Flaky(MockGateway):
    """The mock, except that its first ``failures`` sends fail in transport,
    each with an error of its own."""

    def __init__(self, failures: int, error=GatewayUnavailable):
        super().__init__()
        self.failures, self.error, self.sent, self.raised = failures, error, 0, []

    def send(self, prompt: str) -> str:
        self.sent += 1
        if self.sent <= self.failures:
            self.raised.append(self.error(f"unreachable, attempt {self.sent}"))
            raise self.raised[-1]
        return super().send(prompt)


def _extraction_call(gateway, config: GatewayConfig) -> list[str]:
    prompt = build_prompt('package p;\nclass A {\n  void f() { log.info("sync done"); }\n}\n',
                          "Extracted 1 log calls\n")
    return [record.template for record in parse_response(invoke_gateway(prompt, config, gateway))]


def _verifier_call(gateway, config: GatewayConfig) -> list[str]:
    accepted, _ = post_process([_record("sync done")], PostProcessPolicy(enable_verifier=True),
                               gateway, gateway_config=config)
    return [t.body.render() for t in accepted]


# Both calls go through invoke_gateway, so each test below runs each of them:
# one retry rule, whichever call fails.
CALLS = {"extraction": _extraction_call, "verifier": _verifier_call}
ERRORS = (GatewayUnavailable, GatewayTimeout)


@pytest.mark.parametrize("error", ERRORS)
def test_verifier_call_is_retried_after_a_transport_error(error):
    for call in CALLS.values():
        gateway = _Flaky(failures=2, error=error)
        assert call(gateway, GatewayConfig(max_retries=2)) == ["sync done"], call.__name__
        assert gateway.sent == 3, call.__name__


@pytest.mark.parametrize("attempts", [1, 3])
def test_verifier_call_raises_the_last_error_once_attempts_run_out(attempts):
    for call in CALLS.values():
        for error in ERRORS:
            gateway = _Flaky(failures=attempts, error=error)
            with pytest.raises(RetriesExhausted) as exhausted:
                call(gateway, GatewayConfig(max_retries=attempts - 1))
            assert exhausted.value.attempts == gateway.sent == attempts, call.__name__
            assert exhausted.value.last_error is gateway.raised[-1], call.__name__
            assert str(exhausted.value) == (
                f"gave up after {attempts} attempts: unreachable, attempt {attempts}")


def test_post_process_is_idempotent_on_accepted_set():
    records = [_record(case["template"], case["level"], case["method"])
               for case in CASES]
    accepted, _ = post_process(records, DEFAULT)
    replay = [ExtractedTemplate(method=t.methods[0] if t.methods else "",
                                template=t.body.render(), level=t.level)
              for t in accepted]
    again, rejected = post_process(replay, DEFAULT)
    assert rejected == []
    assert [t.body for t in again] == [t.body for t in accepted]


def test_normalization_never_adds_constants():
    rng = random.Random(99)
    for _ in range(200):
        raw = "".join(rng.choice(("a", "b ", "{}", "<.*>", " "))
                      for _ in range(rng.randint(1, 8)))
        body = normalize_template(raw)
        flat = "".join(body.constants)
        assert flat.strip() in raw.replace("{}", "").replace("<.*>", "").strip() or flat == ""


def test_reason_constants_are_distinct():
    reasons = {REASON_ALL_WILDCARD, REASON_TOO_FEW_CONSTANT_CHARS,
               REASON_LOW_CONSTANT_TOKEN_RATIO, REASON_VERIFIER_REJECTED}
    assert len(reasons) == 4
