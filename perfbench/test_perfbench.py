"""Tests of the benchmark itself: seeded inputs, output checks, smoke runs.

Run with ``python3 -m pytest perfbench`` from the root of the checkout.
"""

from __future__ import annotations

import copy
import dataclasses
import json

import pytest

import program

program.load()

import checks  # noqa: E402
from logsmith import TemplateBody  # noqa: E402
import inputs  # noqa: E402
import session  # noqa: E402

SMALL = {
    "extract-eval": dict(truth_target=30, stream_lines=300, input_sets=2),
    "parse-known": dict(truth_target=30, stream_lines=300, input_sets=2),
    "parse-novel": dict(truth_target=10, stream_lines=400, hidden_templates=20, input_sets=2),
}


def small(name: str) -> inputs.Workload:
    return dataclasses.replace(inputs.WORKLOADS[name], **SMALL[name])


def _files(directory):
    return {str(path.relative_to(directory)): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_inputs_are_a_function_of_the_seed(tmp_path, name):
    first = inputs.build(small(name), 7, tmp_path / "a")
    again = inputs.build(small(name), 7, tmp_path / "b")
    other = inputs.build(small(name), 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert first.plan == again.plan and first.truth == again.truth
    assert first.plan != other.plan
    assert len(first.truth) >= SMALL[name]["truth_target"]
    leading = sum(inputs.opens_with_variable(TemplateBody.parse(text)) for text in first.truth)
    wanted = round(SMALL[name]["truth_target"] * inputs.OPENS_WITH_VARIABLE)
    assert leading >= wanted and len(first.truth) - leading >= SMALL[name]["truth_target"] - wanted
    assert len(first.plan) == SMALL[name]["stream_lines"]


def test_routed_lines_share_no_word_with_the_corpus():
    generator = program.load()[0]
    vocabulary = (inputs.NOISE_WORDS + inputs.STATE_WORDS + inputs.COMPONENTS
                  + inputs.GLUED_PREFIX)
    assert not [word for word in vocabulary
                for literal in generator.WORDS if literal in word]


def test_zipf_counts_are_exact():
    counts = inputs.zipf_counts(1000, 7)
    assert sum(counts) == 1000
    assert counts == sorted(counts, reverse=True)


@pytest.fixture(scope="module")
def checked_run(tmp_path_factory):
    """One session of a small parse-known run, with its genuine outputs."""
    run = session.Run(small("parse-known"), 3, tmp_path_factory.mktemp("run"))
    run.session()
    assert run.problems == [] and run.sessions == 1
    return run


def test_repository_check_rejects_a_dropped_template(checked_run):
    lines = checked_run.repo_bytes.splitlines(keepends=True)
    with pytest.raises(checks.CheckFailed):
        checks.same_bytes("repository", checked_run.repo_bytes, b"".join(lines[1:]))


def test_eval_check_rejects_scores_of_another_repository(checked_run):
    payload = json.loads(checked_run.eval_json.read_text(encoding="utf-8"))
    stdout = "precision {:.3f}  recall {:.3f}  f1 {:.3f}\n".format(
        payload["precision"], payload["recall"], payload["f1"])
    parsed = [json.loads(line)["template"] for line in checked_run.repo_bytes.splitlines()]
    checks.check_eval(stdout, payload, parsed, checked_run.inputs.truth)
    with pytest.raises(checks.CheckFailed):
        checks.check_eval(stdout, payload, parsed[1:], checked_run.inputs.truth)
    with pytest.raises(checks.CheckFailed):
        checks.check_eval(stdout.replace("f1 1.000", "f1 0.999"), payload, parsed,
                          checked_run.inputs.truth)


def test_scores_count_canonical_bodies_as_a_multiset():
    assert checks.scores(["a <.*> <.*> b", "c"], ["a <.*> b", "a <.*> b"]) == (
        0.5, 0.5, 0.5)


def _parse_args(run):
    total, matched, routed, dropped = checks.planned_counts(run.inputs.plan)
    stdout = (f"{total} lines: {matched} matched, {routed} routed, "
              f"{dropped} dropped (match rate 0.000)\n")
    return stdout, copy.deepcopy(run.records)


def _check(run, stdout, records):
    checks.check_parse(stdout, records, run.inputs.plan, run.templates_by_id, run.matches)


def test_parse_check_accepts_the_genuine_output(checked_run):
    _check(checked_run, *_parse_args(checked_run))


def test_parse_check_rejects_a_wrong_template_id(checked_run):
    stdout, records = _parse_args(checked_run)
    hit = next(record for record in records if record["matched"])
    hit["template_id"] = (hit["template_id"] + 1) % len(checked_run.templates_by_id)
    with pytest.raises(checks.CheckFailed, match="template_id"):
        _check(checked_run, stdout, records)


def test_parse_check_rejects_a_miscounted_route(checked_run):
    stdout, records = _parse_args(checked_run)
    total, matched, routed, dropped = checks.planned_counts(checked_run.inputs.plan)
    wrong = stdout.replace(f"{routed} routed", f"{routed + 1} routed")
    with pytest.raises(checks.CheckFailed, match="planned"):
        _check(checked_run, wrong, records)
    miss = next(record for record in records if not record["matched"])
    miss["matched"] = True
    with pytest.raises(checks.CheckFailed, match="matched=True"):
        _check(checked_run, stdout, records)


def test_parse_check_rejects_a_route_that_a_template_accepts(checked_run):
    stdout, records = _parse_args(checked_run)
    hit = next(record for record in records if record["matched"])
    hit.update(matched=False, cluster_id=0)
    with pytest.raises(checks.CheckFailed, match="accepts"):
        _check(checked_run, stdout, records)


def test_parse_check_rejects_a_line_its_template_does_not_accept(checked_run):
    stdout, records = _parse_args(checked_run)
    position, hit = next((i, record) for i, record in enumerate(records)
                         if record["matched"])
    survivors = [entry for entry in checked_run.inputs.plan
                 if entry[0] != inputs.DROPPED]
    plan = list(checked_run.inputs.plan)
    corrupted = "kernel quota"
    plan[plan.index(survivors[position])] = (inputs.MATCHED, corrupted)
    hit["line"] = corrupted
    with pytest.raises(checks.CheckFailed, match="not accepted"):
        checks.check_parse(stdout, records, plan, checked_run.templates_by_id,
                           checked_run.matches)


def test_outcome_check_rejects_a_different_cluster(checked_run):
    records = copy.deepcopy(checked_run.records)
    miss = next(record for record in records if not record["matched"])
    miss["cluster_id"] += 1
    results = [type("Result", (), {"matched": r["matched"],
                                   "template_id": r.get("template_id"),
                                   "cluster_id": r.get("cluster_id")})()
               for r in checked_run.records]
    checks.check_same_outcomes(checked_run.records, results)
    with pytest.raises(checks.CheckFailed):
        checks.check_same_outcomes(records, results)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke_run(tmp_path, name, trace):
    result = session.run_workload(small(name), 5, 0, trace, tmp_path / "run")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = session.PER_LAYER if trace else session.END_TO_END
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == expected
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    else:
        assert (tmp_path / f"trace-{name}-s5.jsonl").is_file()


def test_benchmark_file_lists_the_reported_metrics():
    declared = json.loads((program.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == session.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == session.PER_LAYER
    assert {w["name"] for w in declared["workloads"]} == set(inputs.WORKLOADS)
