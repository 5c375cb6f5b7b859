from __future__ import annotations

from logsmith.analyzer import build_call_graph, find_log_calls, parse_source
from logsmith.analyzer.logcalls import is_logger_call
from logsmith.analyzer.syntax import Call, Ident, StrLit


def _first_return_call(unit):
    return unit.methods[0].body[0].value


def test_example_project_graph(example_units, example_graph):
    keys = set(example_graph.methods)
    assert ("com.example.Foo", "logSomething", 1) in keys
    assert ("com.example.Bar", "getUserName", 1) in keys
    assert ("com.example.Bar", "getDisplayName", 1) in keys
    assert set(example_graph.units_by_fqn) == {"com.example.Foo", "com.example.Bar"}


def test_resolve_via_import(example_units, example_graph):
    foo = example_graph.units_by_fqn["com.example.Foo"]
    call = Call(receiver=Ident("Bar"), method="getUserName",
                args=(StrLit("0"),), line=8)
    target = example_graph.resolve_call(foo, call)
    assert target is not None
    assert target.unit.fqn == "com.example.Bar"
    assert target.method.name == "getUserName"
    assert target.key == ("com.example.Bar", "getUserName", 1)


def test_resolve_same_package_without_import():
    a = parse_source(
        'package p;\nclass A {\n  String f(String x) { return Helper.h(x); }\n}\n',
        "A.java")
    helper = parse_source(
        'package p;\nclass Helper {\n'
        '  static String h(String x) { return "h_" + x; }\n}\n', "Helper.java")
    graph = build_call_graph([a, helper])
    call = _first_return_call(a)
    target = graph.resolve_call(a, call)
    assert target is not None and target.unit.fqn == "p.Helper"


def test_unknown_class_receiver_unresolved():
    a = parse_source(
        'package p;\nclass A {\n  String f(String x) { return Missing.m(x); }\n}\n',
        "A.java")
    graph = build_call_graph([a])
    assert graph.resolve_call(a, _first_return_call(a)) is None


def test_arity_mismatch_unresolved():
    a = parse_source(
        'package p;\nclass A {\n'
        '  String f(String x) { return g(x, x); }\n'
        '  String g(String x) { return x; }\n}\n', "A.java")
    graph = build_call_graph([a])
    assert graph.resolve_call(a, _first_return_call(a)) is None


def test_bare_call_resolves_to_declaring_class():
    a = parse_source(
        'package p;\nclass A {\n'
        '  String f(String x) { return g(x); }\n'
        '  String g(String x) { return "g_" + x; }\n}\n', "A.java")
    graph = build_call_graph([a])
    target = graph.resolve_call(a, _first_return_call(a))
    assert target is not None and target.method.name == "g"


def test_value_receiver_never_resolves():
    # x.trim() calls a method on a parameter value, not a project class
    a = parse_source(
        'package p;\nclass A {\n  String f(String x) { return x.trim(); }\n}\n',
        "A.java")
    graph = build_call_graph([a])
    assert graph.resolve_call(a, _first_return_call(a)) is None


def test_resolve_class_precedence():
    a = parse_source(
        "package p;\nimport q.Helper;\nclass A {\n"
        '  String f(String x) { return Helper.h(x); }\n}\n', "A.java")
    local = parse_source(
        'package p;\nclass Helper {\n  static String h(String x) { return x; }\n}\n',
        "Helper.java")
    graph = build_call_graph([a, local])
    # the import wins over the same-package class of the same simple name
    assert graph.resolve_class(a, "Helper") == "q.Helper"
    assert graph.resolve_call(a, _first_return_call(a)) is None


def test_empty_project_graph():
    graph = build_call_graph([])
    assert graph.methods == {}
    assert graph.units_by_fqn == {}


def test_find_log_calls_example(example_units):
    foo = next(u for u in example_units if u.class_name == "Foo")
    sites = find_log_calls(foo)
    assert [(s.line, s.level, s.method.name) for s in sites] == [
        (8, "error", "logSomething"),
        (10, "fatal", "logSomething"),
    ]
    assert sites[0].method_fqn == "com.example.Foo.logSomething"
    assert sites[0].literal_format is None


def test_find_log_calls_literal_and_logger_alias():
    unit = parse_source(
        "package p;\nclass X {\n  void f(String a) {\n"
        '    logger.warn("disk {} full", a);\n'
        '    log.info("ready");\n  }\n}\n', "X.java")
    sites = find_log_calls(unit)
    assert [(s.level, s.literal_format) for s in sites] == [
        ("warn", "disk {} full"),
        ("info", "ready"),
    ]


def test_non_logger_calls_ignored():
    unit = parse_source(
        "package p;\nclass X {\n  void f(String a) {\n"
        "    helper.error(a);\n    log.record(a);\n  }\n}\n", "X.java")
    assert find_log_calls(unit) == []
    assert not is_logger_call(Ident("log"))


def test_is_logger_call_levels():
    good = Call(Ident("log"), "ERROR", (StrLit("x"),))
    bad = Call(Ident("log"), "println", (StrLit("x"),))
    assert is_logger_call(good)  # level match is case-insensitive
    assert not is_logger_call(bad)
