"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every criterion re-derives its expectations from first principles (hand
computation, independent oracle, golden bytes) rather than from the code
under test; timing limits are asserted alongside the functional checks.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

from logsmith.analyzer import (
    PathBudget,
    build_call_graph,
    build_report,
    enumerate_paths,
    find_log_calls,
    parse_source,
    render_report,
)
from logsmith.blackbox import CLUSTER_WILDCARD, ClusterTree
from logsmith.evaluation import score
from logsmith.matcher import compile_repository, run_stream
from logsmith.templates import Template, TemplateBody, merge_templates
from logsmith.whitebox import PostProcessPolicy, post_process
from logsmith.whitebox.extract import ProjectFile, extract_project
from logsmith.whitebox.gateway import MockGateway
from logsmith.whitebox.responses import ExtractedTemplate

from conftest import EXAMPLE_PROJECT, FIXTURES, GOLDEN_REPORT, parse_project
from generator import generate_project
from oracle import check_agreement


def _verdict(capsys, number: int, title: str, run) -> None:
    start = time.perf_counter()
    try:
        run()
        failure = None
    except AssertionError as exc:
        failure = str(exc) or "assertion failed"
    elapsed = time.perf_counter() - start
    status = "PASS" if failure is None else "FAIL"
    with capsys.disabled():
        print(f"criterion {number} ({title}): {status} [{elapsed:.2f}s]")
    if failure is not None:
        pytest.fail(f"criterion {number} ({title}): {failure}")


def test_criterion_1_worked_example(capsys):
    def run():
        start = time.perf_counter()
        units, texts = parse_project(EXAMPLE_PROJECT)
        graph = build_call_graph(units)
        sites = sorted((s for u in units for s in find_log_calls(u)),
                       key=lambda s: (s.unit.path, s.line))
        enumerations = [enumerate_paths(site, graph) for site in sites]
        report = build_report(enumerations)
        assert report.call_count == 2, f"expected 2 log calls, saw {report.call_count}"
        assert report.total_paths == 4, f"expected 4 paths, saw {report.total_paths}"

        files = [ProjectFile(unit=unit, text=texts[unit.fqn]) for unit in units]
        templates = merge_templates(t for unit in extract_project(files, gateway=MockGateway())
                                    for t in unit.accepted)
        produced = {t.body.render(): t.level for t in templates}
        assert produced == {
            "User_<.*>_NotFound": "error",
            "Invalid_User_ID<.*>": "error",
            "Guest_<.*>": "fatal",
            "Unknown_<.*>": "fatal",
        }, f"template set mismatch: {produced}"
        assert time.perf_counter() - start < 1.0, "worked example exceeded 1 s"

    _verdict(capsys, 1, "worked-example fidelity", run)


def test_criterion_2_report_golden_file(capsys):
    def run():
        start = time.perf_counter()
        units, _ = parse_project(EXAMPLE_PROJECT)
        graph = build_call_graph(units)
        sites = sorted((s for u in units for s in find_log_calls(u)),
                       key=lambda s: (s.unit.path, s.line))
        rendered = render_report(build_report(
            [enumerate_paths(site, graph) for site in sites]))
        golden = GOLDEN_REPORT.read_text(encoding="utf-8")
        assert rendered == golden, "rendered report differs from the golden file"
        assert time.perf_counter() - start < 1.0, "report rendering exceeded 1 s"

    _verdict(capsys, 2, "report golden file", run)


def test_criterion_3_path_enumeration_oracle(capsys):
    def run():
        start = time.perf_counter()
        budget = PathBudget(max_call_depth=8, max_paths_per_site=4096)
        checked = 0
        for seed in range(24):
            sources = generate_project(seed)
            units = [parse_source(text, path) for path, text in sources]
            graph = build_call_graph(units)
            sites = [s for u in units for s in find_log_calls(u)]
            assert sites, f"seed {seed}: generated project has no log call"
            for site in sites:
                enumeration = enumerate_paths(site, graph, budget)
                assert not enumeration.truncated, f"seed {seed}: budget too small"
                problems = check_agreement(units, site, enumeration)
                assert not problems, f"seed {seed}: " + "; ".join(problems)
                checked += 1
        assert checked >= 20, f"only {checked} fixtures checked"
        assert time.perf_counter() - start < 30.0, "oracle agreement exceeded 30 s"

    _verdict(capsys, 3, "path-enumeration oracle", run)


def test_criterion_4_evaluator_arithmetic(capsys):
    corpora = [
        # (parsed, truth, expected precision, expected recall, expected f1)
        (["a <.*>", "b <.*>"], ["a <.*>", "b <.*>"], 1.0, 1.0, 1.0),
        (["a <.*>"], ["a <.*>", "b <.*>"], 1.0, 0.5, 2 / 3),
        (["a <.*>", "wrong"], ["a <.*>", "b <.*>"], 0.5, 0.5, 0.5),
        (["x", "y", "z"], ["x", "y"], 2 / 3, 1.0, 0.8),
        ([], ["a"], 0.0, 0.0, 0.0),
        (["a"], [], 0.0, 0.0, 0.0),
        (["a", "a"], ["a"], 0.5, 1.0, 2 / 3),
        (["a"], ["a", "a"], 1.0, 0.5, 2 / 3),
        (["m <.*> <.*> n"], ["m <.*> n"], 1.0, 1.0, 1.0),
        (["p <.*>", "q <.*>", "r <.*>", "s"], ["p <.*>", "q <.*>", "zz"],
         0.5, 2 / 3, 4 / 7),
        # nine of nine parsed exactly: 1.000 1.000 1.000
        ([f"stage {i} <.*> done" for i in range(9)],
         [f"stage {i} <.*> done" for i in range(9)], 1.0, 1.0, 1.0),
    ]

    def run():
        start = time.perf_counter()
        assert len(corpora) >= 10
        for parsed, truth, precision, recall, f1 in corpora:
            report = score([TemplateBody.parse(t) for t in parsed],
                           tuple(TemplateBody.parse(t) for t in truth))
            case = f"{parsed} vs {truth}"
            assert abs(report.precision - precision) <= 1e-9, f"precision off: {case}"
            assert abs(report.recall - recall) <= 1e-9, f"recall off: {case}"
            assert abs(report.f1 - f1) <= 1e-9, f"f1 off: {case}"
        assert time.perf_counter() - start < 1.0, "evaluator checks exceeded 1 s"

    _verdict(capsys, 4, "evaluator arithmetic", run)


def test_criterion_5_matcher_throughput(capsys):
    def run():
        start = time.perf_counter()
        templates = [
            Template(body=TemplateBody.parse(
                f"service s{i:02d} handled request <.*> in <.*> ms"))
            for i in range(100)
        ]
        repo = compile_repository(templates)
        rng = random.Random(20240825)
        lines = []
        for i in range(2000):
            if i % 10 == 9:
                lines.append(f"stray diagnostic {rng.randint(0, 999)} output\n")
            else:
                lines.append(f"service s{i % 100:02d} handled request "
                             f"{rng.randint(1, 9999)} in {rng.randint(1, 500)} ms\n")

        begin = time.perf_counter()
        _, counts = run_stream(repo, lines, ClusterTree())
        elapsed = time.perf_counter() - begin
        assert counts.total == 2000
        assert counts.matched == 1800, f"expected 1800 matches, saw {counts.matched}"
        assert elapsed <= 5.0, f"2000-line pass took {elapsed:.3f}s (> 5 s)"

        simulated_baseline = 2000 * 1.0  # one gateway round-trip per line
        speedup = simulated_baseline / elapsed
        assert speedup >= 1000.0, f"speedup only {speedup:.0f}x (< 1000x)"
        assert time.perf_counter() - start < 10.0, "throughput check exceeded 10 s"

    _verdict(capsys, 5, "matcher throughput", run)


def test_criterion_6_blackbox_properties(capsys):
    def run():
        start = time.perf_counter()
        words = ("alpha", "bravo", "carol", "delta", "echo", "17", "x9", "go")
        rng = random.Random(20240826)
        messages = [" ".join(rng.choice(words)
                             for _ in range(rng.randint(1, 8)))
                    for _ in range(1000)]

        tree = ClusterTree()
        assignments = [tree.ingest(m) for m in messages]

        replay = ClusterTree()
        assert [replay.ingest(m) for m in messages] == assignments, \
            "replay diverged: clustering is not deterministic"

        by_cluster_tokens: dict[int, int] = {}
        wildcard_positions: dict[int, set[int]] = {}
        check = ClusterTree()
        for message in messages:
            cluster_id, template = check.ingest(message)
            tokens = message.split()
            template_tokens = template.split()
            assert len(template_tokens) == len(tokens), \
                "cluster template crosses token counts"
            known = by_cluster_tokens.setdefault(cluster_id, len(tokens))
            assert known == len(tokens), "token-count partition violated"
            now = {i for i, tok in enumerate(template_tokens)
                   if tok == CLUSTER_WILDCARD}
            before = wildcard_positions.get(cluster_id, set())
            assert before <= now, "wildcard monotonicity violated"
            wildcard_positions[cluster_id] = now

        fixture = ClusterTree()
        fixture.ingest("connect to 10.0.0.1 failed")
        _, converged = fixture.ingest("connect to 10.0.0.2 failed")
        assert len(fixture.clusters) == 1, "connect-to fixture split clusters"
        assert converged == "connect to <*> failed", \
            f"converged to {converged!r}"
        assert converged.split().count(CLUSTER_WILDCARD) == 1
        assert time.perf_counter() - start < 30.0, "black-box suite exceeded 30 s"

    _verdict(capsys, 6, "black-box determinism and monotonicity", run)


def test_criterion_7_postprocessing_contracts(capsys):
    def run():
        start = time.perf_counter()
        cases = json.loads(
            (FIXTURES / "postprocess_cases.json").read_text(encoding="utf-8"))
        assert len(cases) == 50, f"fixture set has {len(cases)} cases, wanted 50"
        policy = PostProcessPolicy()
        for case in cases:
            record = ExtractedTemplate(method=case["method"],
                                       template=case["template"],
                                       level=case["level"])
            accepted, rejected = post_process([record], policy)
            if case["expect"] == "accept":
                assert not rejected, f"{case['template']!r} unexpectedly rejected"
                assert accepted[0].body.render() == case["normalized"], \
                    f"{case['template']!r} normalized wrong"
            else:
                assert not accepted, f"{case['template']!r} unexpectedly accepted"
                assert rejected[0].reason == case["expect"], \
                    f"{case['template']!r}: reason {rejected[0].reason}"

        # idempotence: re-processing the accepted set changes nothing
        records = [ExtractedTemplate(method=c["method"], template=c["template"],
                                     level=c["level"]) for c in cases]
        accepted, _ = post_process(records, policy)
        replay = [ExtractedTemplate(method=t.methods[0], template=t.body.render(),
                                    level=t.level) for t in accepted]
        again, rejected = post_process(replay, policy)
        assert not rejected and [t.body for t in again] == [t.body for t in accepted], \
            "post-processing is not idempotent on its own output"

        # the wildcard-only template never survives, whatever the policy
        rng = random.Random(3)
        for _ in range(25):
            tough = PostProcessPolicy(min_const_chars=rng.randint(1, 8),
                                      min_const_token_ratio=rng.random())
            only_wild = ExtractedTemplate(method="A.m", template="<.*>",
                                          level="info")
            survivors, _ = post_process([only_wild], tough)
            assert not survivors, "wildcard-only template slipped through"
        assert time.perf_counter() - start < 5.0, "post-processing suite exceeded 5 s"

    _verdict(capsys, 7, "post-processing contracts", run)


def test_criterion_8_nonreproducibility_statement(capsys):
    def run():
        readme = Path(__file__).resolve().parent.parent / "README.md"
        assert readme.exists(), "README.md is missing"
        text = readme.read_text(encoding="utf-8").lower()
        assert "not reproducible" in text, \
            "README lacks the explicit non-reproducibility statement"
        for phrase in ("proprietary", "hosted"):
            assert phrase in text, f"README statement does not mention {phrase!r}"

    _verdict(capsys, 8, "non-reproducibility statement", run)
