from __future__ import annotations

import pytest

from logsmith.analyzer import (
    StaticReport,
    build_call_graph,
    build_report,
    enumerate_paths,
    find_log_calls,
    parse_source,
    render_report,
)
from logsmith.analyzer.report import UNDEFINED_TEMPLATE

from conftest import GOLDEN_REPORT


def _example_report(example_sites, example_graph):
    enumerations = [enumerate_paths(site, example_graph) for site in example_sites]
    return build_report(enumerations)


def _report_for(source: str) -> StaticReport:
    unit = parse_source(source, "X.java")
    graph = build_call_graph([unit])
    enumerations = [enumerate_paths(site, graph) for site in find_log_calls(unit)]
    return build_report(enumerations)


def test_example_report_matches_golden_bytes(example_sites, example_graph):
    rendered = render_report(_example_report(example_sites, example_graph))
    assert rendered == GOLDEN_REPORT.read_text(encoding="utf-8")


def test_render_is_deterministic(example_sites, example_graph):
    first = render_report(_example_report(example_sites, example_graph))
    second = render_report(_example_report(example_sites, example_graph))
    assert first == second


def test_zero_call_report():
    report = _report_for("package p;\nclass X {\n  void f() { helper(); }\n"
                         "  void helper() { return; }\n}\n")
    assert report.call_count == 0
    assert render_report(report) == (
        "Extracted 0 log calls\n\n"
        "A total of 0 log calls, with 0 complete paths found.\n")


def test_literal_template_line():
    report = _report_for(
        'package p;\nclass X {\n  void f(String a) { log.warn("disk {} full", a); }\n}\n')
    call = report.to_dict()["calls"][0]
    assert call["initial_template"] == "disk {} full"
    assert call["level"] == "warn"
    rendered = render_report(report)
    assert "Template: disk {} full\n" in rendered
    assert UNDEFINED_TEMPLATE not in rendered


def test_unknown_method_kind_text():
    rendered = render_report(_report_for(
        "package p;\nclass X {\n  void f(String a) { log.error(mystery(a)); }\n}\n"))
    assert "     Callee information: unknown method\n" in rendered


def test_structured_report_twin(example_sites, example_graph):
    data = _example_report(example_sites, example_graph).to_dict()
    assert data["call_count"] == 2
    assert data["total_paths"] == 4
    first = data["calls"][0]
    assert first["line"] == 8
    assert first["level"] == "error"
    assert first["initial_template"] == UNDEFINED_TEMPLATE
    assert first["flags"] == {
        "involves_conditional": True,
        "involves_external_call": True,
        "placeholder_mismatch": False,
        "truncated": False,
        "cycles": [],
    }
    assert [p["yielded"] for p in first["paths"]] == [
        "User_<.*>_NotFound", "Invalid_User_ID<.*>"]
    steps = first["paths"][0]["steps"]
    assert [s["kind"] for s in steps] == ["log-invocation", "user-method", "built-in"]
    assert "source" in steps[1] and "source" not in steps[0]


def test_placeholder_mismatch_flag_in_structured_report_only():
    report = _report_for(
        'package p;\nclass X {\n  void f(String a) { log.warn("{} and {}", a); }\n}\n')
    assert report.to_dict()["calls"][0]["flags"]["placeholder_mismatch"] is True
    # the fixed textual layout has no slot for the flag
    assert "mismatch" not in render_report(report)


def test_multiline_callee_source_indentation():
    rendered = render_report(_report_for(
        "package p;\nclass X {\n"
        "  void f(String a) { log.error(g(a)); }\n"
        '  String g(String a) {\n    if (a.isEmpty()) {\n      return "A";\n'
        '    } else {\n      return "B_" + a;\n    }\n  }\n}\n'))
    assert ("     Callee information:\n"
            "       String g(String a) {\n"
            "         if (a.isEmpty()) {\n"
            '           return "A";\n'
            "         } else {\n"
            '           return "B_" + a;\n'
            "         }\n"
            "       }\n") in rendered


@pytest.mark.parametrize("literal, rendered", [
    ('"x\\fy"', '"x\\fy"'),
    ('"x\\by"', '"x\\by"'),
    ('"x\x0by"', '"x\x0by"'),
    ('"x\x85y"', '"x\x85y"'),
    ('"x\u2028y"', '"x\u2028y"'),
], ids=["form-feed", "backspace", "raw-vt", "raw-nel", "raw-line-separator"])
def test_callee_literal_stays_on_its_line(literal, rendered):
    report = _report_for(
        "package p;\nclass X {\n  void f(String a) { log.info(g(a)); }\n"
        f"  String g(String a) {{ return {literal} + a; }}\n}}\n")
    assert ("     Callee information:\n"
            "       String g(String a) {\n"
            f"         return {rendered} + a;\n"
            "       }\n") in render_report(report)


def test_report_ends_with_single_newline(example_sites, example_graph):
    rendered = render_report(_example_report(example_sites, example_graph))
    assert rendered.endswith("complete paths found.\n")
    assert not rendered.endswith("\n\n")
