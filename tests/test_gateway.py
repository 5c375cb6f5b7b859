from __future__ import annotations

import pytest
import requests

from logsmith.analyzer import build_call_graph, enumerate_paths, find_log_calls, paths
from logsmith.whitebox import (
    GatewayConfig,
    build_prompt,
    invoke_gateway,
    make_gateway,
    parse_response,
)
from logsmith.whitebox.extract import ProjectFile, extract_project
from logsmith.whitebox.gateway import (
    GatewayTimeout,
    GatewayUnavailable,
    HttpGateway,
    MockGateway,
    RetriesExhausted,
    build_verifier_prompt,
)
from logsmith.whitebox.responses import ExtractedTemplate, MalformedResponse, render_records

from conftest import EXAMPLE_PROJECT, parse_project

GOOD_RESPONSE = render_records([
    ExtractedTemplate(method="A.m", template="x_<.*>", level="info")])


def _example_prompt():
    java_code = ((EXAMPLE_PROJECT / "Foo.java").read_text()
                 + (EXAMPLE_PROJECT / "Bar.java").read_text())
    return build_prompt(java_code, "Extracted 2 log calls\n")


def test_config_validation():
    GatewayConfig()  # defaults are valid
    with pytest.raises(ValueError):
        GatewayConfig(temperature=3.0)
    with pytest.raises(ValueError):
        GatewayConfig(max_retries=-1)
    with pytest.raises(ValueError):
        GatewayConfig(timeout=0)


def test_make_gateway_dispatch():
    assert isinstance(make_gateway(GatewayConfig(endpoint="mock:")), MockGateway)
    assert isinstance(make_gateway(GatewayConfig(endpoint="https://api.test/v1")),
                      HttpGateway)


def test_mock_extracts_one_record_per_path():
    response = MockGateway().send(_example_prompt())
    records = parse_response(response)
    assert [(r.template, r.level) for r in records] == [
        ("User_<.*>_NotFound", "error"),
        ("Invalid_User_ID<.*>", "error"),
        ("Guest_<.*>", "fatal"),
        ("Unknown_<.*>", "fatal"),
    ]
    assert {r.method for r in records} == {"com.example.Foo.logSomething"}


def test_mock_reads_every_file_past_its_comments():
    header = "/*\n * Licensed to the ASF.\n * package org.apache.x;\n */\n"
    marker = "/*\n- static_analysis_report: see docs\n*/\n"
    java_code = (header + (EXAMPLE_PROJECT / "Foo.java").read_text()
                 + header + marker + (EXAMPLE_PROJECT / "Bar.java").read_text())
    prompt = build_prompt(java_code, "Extracted 2 log calls\n")
    assert MockGateway().send(prompt) == MockGateway().send(_example_prompt())


def test_mock_resolves_a_bare_call_in_the_unit_that_makes_it():
    # the prompt's units share one path; B's f does not take A's bare f(x)
    java_code = ('package p;\nimport q.B;\nclass A {\n'
                 '  String f(String a) { return "a"; }\n'
                 '  void run(String x) { log.info(f(x) + B.g(x)); }\n}\n'
                 'package q;\nclass B {\n'
                 '  String f(String a) { return "b"; }\n'
                 '  String g(String a) { return f(a); }\n}\n')
    records = parse_response(MockGateway().send(build_prompt(java_code, "")))
    assert [record.template for record in records] == ["ab"]


def test_mock_renders_no_path_steps(monkeypatch):
    # the mock reads only each path's template; the analysis that wrote the
    # prompt renders every step's call code and callee source
    rendered = []
    for name in ("expr_to_source", "method_to_source"):
        def counting(node, name=name, real=getattr(paths, name)):
            rendered.append(name)
            return real(node)
        monkeypatch.setattr(paths, name, counting)
    response = MockGateway().send(_example_prompt())
    assert rendered == []
    assert [r.template for r in parse_response(response)] == [
        "User_<.*>_NotFound", "Invalid_User_ID<.*>", "Guest_<.*>", "Unknown_<.*>"]

    units, _ = parse_project(EXAMPLE_PROJECT)
    graph = build_call_graph(units)
    for site in (site for unit in units for site in find_log_calls(unit)):
        enumerate_paths(site, graph)
    assert set(rendered) == {"expr_to_source", "method_to_source"}


@pytest.mark.parametrize("prompt", [
    "not a prompt",
    build_prompt("package p;\nclass X {\n", "Extracted 0 log calls\n"),
])
def test_mock_fails_a_prompt_it_cannot_read(prompt):
    with pytest.raises(GatewayUnavailable, match="mock could not parse the prompt's code"):
        MockGateway().send(prompt)


def test_mock_is_deterministic():
    prompt = _example_prompt()
    gateway = MockGateway()
    assert gateway.send(prompt) == gateway.send(prompt)


def test_mock_verifier_verdicts():
    gateway = MockGateway()
    assert gateway.send(build_verifier_prompt("connect <.*> failed")) == "yes"
    assert gateway.send(build_verifier_prompt("<.*>")) == "no"
    assert gateway.send(build_verifier_prompt("___<.*>")) == "no"
    assert gateway.send(build_verifier_prompt("x1<.*>")) == "yes"


class _FlakyGateway:
    def __init__(self, failures: int, response: str = GOOD_RESPONSE):
        self.failures = failures
        self.response = response
        self.calls = 0

    def send(self, prompt: str) -> str:
        self.calls += 1
        if self.calls <= self.failures:
            raise GatewayUnavailable("transient outage")
        return self.response


def _prompt():
    return build_prompt("package p;\nclass X {}\n", "Extracted 0 log calls\n")


def test_invoke_retries_transport_errors():
    gateway = _FlakyGateway(failures=2)
    config = GatewayConfig(max_retries=2)
    assert invoke_gateway(_prompt(), config, gateway) == GOOD_RESPONSE
    assert gateway.calls == 3


def test_invoke_retries_malformed_output():
    class Garbled:
        def __init__(self):
            self.calls = 0

        def send(self, prompt: str) -> str:
            self.calls += 1
            return "no array yet" if self.calls == 1 else GOOD_RESPONSE

    gateway = Garbled()
    assert invoke_gateway(_prompt(), GatewayConfig(max_retries=1), gateway) == GOOD_RESPONSE
    assert gateway.calls == 2


def test_invoke_exhausts_retries():
    gateway = _FlakyGateway(failures=10)
    with pytest.raises(RetriesExhausted) as error:
        invoke_gateway(_prompt(), GatewayConfig(max_retries=2), gateway)
    assert error.value.attempts == 3
    assert isinstance(error.value.last_error, GatewayUnavailable)
    assert gateway.calls == 3


def test_invoke_zero_retries_means_one_attempt():
    gateway = _FlakyGateway(failures=1)
    with pytest.raises(RetriesExhausted) as error:
        invoke_gateway(_prompt(), GatewayConfig(max_retries=0), gateway)
    assert error.value.attempts == 1


def test_deeply_nested_reply_fails_its_unit_only():
    reply = "[" * 2_000
    with pytest.raises(MalformedResponse):
        parse_response(reply)
    units, texts = parse_project(EXAMPLE_PROJECT)
    files = [ProjectFile(unit=unit, text=texts[unit.fqn]) for unit in units]
    gateway = _FlakyGateway(failures=0, response=reply)
    bar, foo = extract_project(files, gateway, gateway_config=GatewayConfig(max_retries=1))
    assert bar.error is None and bar.accepted == foo.accepted == []
    assert "gave up after 2 attempts" in foo.error
    assert gateway.calls == 2


def test_unit_without_log_calls_makes_no_gateway_call():
    units, texts = parse_project(EXAMPLE_PROJECT)
    files = [ProjectFile(unit=unit, text=texts[unit.fqn]) for unit in units]
    gateway = _FlakyGateway(failures=0)
    bar, foo = extract_project(files, gateway)
    assert gateway.calls == 1
    assert bar.report.enumerations == () and bar.accepted == [] and bar.error is None
    assert bar.report_text.startswith("Extracted 0 log calls")
    assert foo.accepted == [] and [r.template for r in foo.rejected] == ["x_<.*>"]


class _FakeResponse:
    def __init__(self, status_code: int = 200, payload=None):
        self.status_code = status_code
        self.payload = payload

    def json(self):
        if self.payload is None:
            raise ValueError("not json")
        return self.payload


def test_http_gateway_success(monkeypatch):
    seen = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        seen.update(url=url, json=json, headers=headers, timeout=timeout)
        return _FakeResponse(payload={
            "choices": [{"message": {"content": GOOD_RESPONSE}}]})

    monkeypatch.setattr(requests, "post", fake_post)
    monkeypatch.setenv("LOGSMITH_API_KEY", "secret-token")
    config = GatewayConfig(endpoint="https://api.test/v1", model="extractor-1",
                           temperature=0.5, timeout=12.0)
    assert HttpGateway(config).send("prompt text") == GOOD_RESPONSE
    assert seen["url"] == "https://api.test/v1"
    assert seen["timeout"] == 12.0
    assert seen["headers"] == {"Authorization": "Bearer secret-token"}
    assert seen["json"]["model"] == "extractor-1"
    assert seen["json"]["temperature"] == 0.5
    assert seen["json"]["messages"] == [{"role": "user", "content": "prompt text"}]


def test_http_gateway_no_key_no_auth_header(monkeypatch):
    seen = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        seen["headers"] = headers
        return _FakeResponse(payload={"choices": [{"message": {"content": "[]"}}]})

    monkeypatch.setattr(requests, "post", fake_post)
    monkeypatch.delenv("LOGSMITH_API_KEY", raising=False)
    HttpGateway(GatewayConfig(endpoint="https://api.test/v1")).send("p")
    assert seen["headers"] == {}


def test_http_gateway_error_mapping(monkeypatch):
    config = GatewayConfig(endpoint="https://api.test/v1")

    def raise_timeout(*args, **kwargs):
        raise requests.Timeout("deadline")

    monkeypatch.setattr(requests, "post", raise_timeout)
    with pytest.raises(GatewayTimeout):
        HttpGateway(config).send("p")

    def raise_connection(*args, **kwargs):
        raise requests.ConnectionError("refused")

    monkeypatch.setattr(requests, "post", raise_connection)
    with pytest.raises(GatewayUnavailable):
        HttpGateway(config).send("p")

    monkeypatch.setattr(requests, "post",
                        lambda *a, **k: _FakeResponse(status_code=503))
    with pytest.raises(GatewayUnavailable):
        HttpGateway(config).send("p")

    monkeypatch.setattr(requests, "post",
                        lambda *a, **k: _FakeResponse(payload={"unexpected": True}))
    with pytest.raises(GatewayUnavailable):
        HttpGateway(config).send("p")


@pytest.mark.parametrize("content", [None, [{"type": "text", "text": GOOD_RESPONSE}]])
def test_http_reply_without_string_content_fails_its_unit(monkeypatch, content):
    posts = []

    def fake_post(*args, **kwargs):
        posts.append(args)
        return _FakeResponse(payload={"choices": [{"message": {"content": content}}]})

    monkeypatch.setattr(requests, "post", fake_post)
    config = GatewayConfig(endpoint="https://api.test/v1", max_retries=1)
    with pytest.raises(GatewayUnavailable, match="unexpected response shape"):
        HttpGateway(config).send("p")
    units, texts = parse_project(EXAMPLE_PROJECT)
    files = [ProjectFile(unit=unit, text=texts[unit.fqn]) for unit in units]
    posts.clear()
    bar, foo = extract_project(files, HttpGateway(config), gateway_config=config)
    assert bar.error is None and bar.accepted == foo.accepted == []
    assert "gave up after 2 attempts: unexpected response shape" in foo.error
    assert len(posts) == 2
