from __future__ import annotations

import pytest

from logsmith.analyzer import (
    KIND_USER,
    PathBudget,
    analyze_project,
    build_call_graph,
    enumerate_paths,
    find_log_calls,
    parse_source,
)
from logsmith.analyzer.parser import MAX_NESTING
from logsmith.analyzer.paths import KIND_BUILTIN, KIND_LOG, KIND_UNKNOWN, MAX_CALLS_PER_SITE

from generator import generate_project


def _single_site(*sources: str):
    units = [parse_source(text, f"U{i}.java") for i, text in enumerate(sources)]
    graph = build_call_graph(units)
    sites = [site for unit in units for site in find_log_calls(unit)]
    assert len(sites) == 1
    return sites[0], graph


def _rendered(enumeration) -> list[str]:
    return [path.yielded.render() for path in enumeration.paths]


def test_example_project_paths(example_sites, example_graph):
    error_site, fatal_site = example_sites
    error_paths = enumerate_paths(error_site, example_graph)
    fatal_paths = enumerate_paths(fatal_site, example_graph)
    assert _rendered(error_paths) == ["User_<.*>_NotFound", "Invalid_User_ID<.*>"]
    assert _rendered(fatal_paths) == ["Guest_<.*>", "Unknown_<.*>"]
    for enumeration in (error_paths, fatal_paths):
        assert not enumeration.truncated
        assert enumeration.cycles == ()
        assert enumeration.involves_conditional
        assert enumeration.involves_external_call
        assert not enumeration.placeholder_mismatch


def test_example_step_chain(example_sites, example_graph):
    enumeration = enumerate_paths(example_sites[0], example_graph)
    first = enumeration.paths[0]
    kinds = [step.callee_kind for step in first.steps]
    assert kinds == [KIND_LOG, KIND_USER, KIND_BUILTIN]
    log_step, user_step, builtin_step = first.steps
    assert log_step.class_fqn == "com.example.Foo"
    assert log_step.call_code == 'log.error(Bar.getUserName("0"))'
    assert user_step.class_fqn == "com.example.Bar"
    assert user_step.call_code == 'Bar.getUserName("0")'
    assert user_step.callee_source.startswith(
        "public static String getUserName(String uid) {")
    assert builtin_step.call_code == "uid.toUpperCase()"
    assert builtin_step.class_fqn == "java.lang.String"
    # the second path stays inside getUserName: no builtin step
    assert [s.callee_kind for s in enumeration.paths[1].steps] == [KIND_LOG, KIND_USER]


def test_literal_format_single_path():
    site, graph = _single_site(
        'package p;\nclass X {\n  void f() { log.error("fixed"); }\n}\n')
    enumeration = enumerate_paths(site, graph)
    assert _rendered(enumeration) == ["fixed"]
    assert len(enumeration.paths) == 1
    assert [s.callee_kind for s in enumeration.paths[0].steps] == [KIND_LOG]
    assert not enumeration.involves_conditional
    assert not enumeration.involves_external_call


def test_literal_placeholders_become_wildcards():
    site, graph = _single_site(
        "package p;\nclass X {\n  void f(String a, String b) {\n"
        '    log.info("read {} of {}", a, b);\n  }\n}\n')
    enumeration = enumerate_paths(site, graph)
    assert _rendered(enumeration) == ["read <.*> of <.*>"]
    assert not enumeration.placeholder_mismatch


def test_placeholder_count_mismatch_flagged():
    site, graph = _single_site(
        "package p;\nclass X {\n  void f(String a) {\n"
        '    log.warn("got {} and {}", a);\n  }\n}\n')
    enumeration = enumerate_paths(site, graph)
    assert enumeration.placeholder_mismatch
    # the template still treats every placeholder as a wildcard
    assert _rendered(enumeration) == ["got <.*> and <.*>"]


def test_identifier_argument_is_wildcard():
    site, graph = _single_site(
        "package p;\nclass X {\n  void f(String a) { log.debug(a); }\n}\n")
    assert _rendered(enumerate_paths(site, graph)) == ["<.*>"]


def test_builtin_vs_unknown_kinds():
    site, graph = _single_site(
        "package p;\nclass X {\n  void f(String a) {\n"
        '    log.error("x_" + a.trim() + mystery(a));\n  }\n}\n')
    enumeration = enumerate_paths(site, graph)
    # both calls are opaque; their adjacent wildcards collapse into one slot
    assert _rendered(enumeration) == ["x_<.*>"]
    kinds = [s.callee_kind for s in enumeration.paths[0].steps]
    assert kinds == [KIND_LOG, KIND_BUILTIN, KIND_UNKNOWN]
    assert enumeration.involves_external_call


def test_self_recursion_collapses_with_flag():
    site, graph = _single_site(
        "package p;\nclass X {\n"
        '  void f(String a) { log.error("x" + g(a)); }\n'
        '  String g(String a) { return g(a); }\n}\n')
    enumeration = enumerate_paths(site, graph)
    assert _rendered(enumeration) == ["x<.*>"]
    assert enumeration.cycles == (("p.X.g", "p.X.g"),)
    assert not enumeration.truncated


def test_mutual_recursion_records_chain():
    site, graph = _single_site(
        "package p;\nclass X {\n"
        "  void f(String a) { log.error(g(a)); }\n"
        "  String g(String a) { return h(a); }\n"
        "  String h(String a) { return g(a); }\n}\n")
    enumeration = enumerate_paths(site, graph)
    assert _rendered(enumeration) == ["<.*>"]
    assert enumeration.cycles == (("p.X.g", "p.X.h", "p.X.g"),)


def test_depth_budget_truncates():
    chain = "\n".join(
        f'  String g{i}(String a) {{ return "c{i}_" + g{i + 1}(a); }}'
        for i in range(4))
    source = ("package p;\nclass X {\n"
              "  void f(String a) { log.error(g0(a)); }\n"
              f"{chain}\n"
              '  String g4(String a) { return "end"; }\n}\n')
    site, graph = _single_site(source)
    deep = enumerate_paths(site, graph, PathBudget(max_call_depth=8))
    assert _rendered(deep) == ["c0_c1_c2_c3_end"]
    assert not deep.truncated

    shallow = enumerate_paths(site, graph, PathBudget(max_call_depth=2))
    assert shallow.truncated
    # tracing stops inside g1: its call to g2 collapses to a wildcard
    assert _rendered(shallow) == ["c0_c1_<.*>"]
    last = shallow.paths[0].steps[-1]
    assert last.callee_kind == KIND_USER and "g2" in last.call_code


def test_path_count_is_branch_product():
    # two helpers with three branches each: 3 * 3 = 9 paths
    helper = ('  static String {name}(String a) {{\n'
              '    if (a.isEmpty()) {{\n      return "{name}A_" + a;\n'
              '    }} else if (a.isBlank()) {{\n      return "{name}B";\n'
              '    }} else {{\n      return "{name}C_" + a.trim();\n    }}\n  }}')
    source = ("package p;\nclass X {\n"
              "  void f(String a) { log.error(p(a) + q(a)); }\n"
              f"{helper.format(name='p')}\n{helper.format(name='q')}\n}}\n")
    site, graph = _single_site(source)
    enumeration = enumerate_paths(site, graph)
    assert len(enumeration.paths) == 9
    assert enumeration.involves_conditional
    assert sorted(set(_rendered(enumeration))) == sorted(_rendered(enumeration))

    capped = enumerate_paths(site, graph, PathBudget(max_paths_per_site=4))
    assert len(capped.paths) == 4
    assert capped.truncated


def test_if_without_a_return_does_not_fork():
    # seven such ifs once forked into 128 identical paths, past the budget
    unreturning_if = ("    if (a.isEmpty()) {\n      a.trim();\n"
                      "    } else {\n      a.strip();\n    }\n")
    site, graph = _single_site(
        "package p;\nclass X {\n"
        "  void f(String a) { log.error(g(a)); }\n"
        f"  String g(String a) {{\n{unreturning_if * 7}"
        '    return "v_" + a;\n  }\n}\n')
    enumeration = enumerate_paths(site, graph)
    assert _rendered(enumeration) == ["v_<.*>"]
    assert not enumeration.truncated
    assert enumeration.involves_conditional


def test_helper_chain_nested_to_the_bound_enumerates():
    # every helper returns a "+" chain of 64 operands, and the default
    # budget traces through all of them
    helpers = PathBudget().max_call_depth
    padding = ' + "x"' * (MAX_NESTING - 1)
    methods = "".join(
        f"  String g{i}(String a) {{ return g{i + 1}(a){padding}; }}\n"
        for i in range(1, helpers))
    site, graph = _single_site(
        "package p;\nclass X {\n"
        "  void f(String a) { log.error(g1(a)); }\n"
        f'{methods}  String g{helpers}(String a) {{ return "end"{padding}; }}\n}}\n')
    enumeration = enumerate_paths(site, graph)
    assert _rendered(enumeration) == ["end" + "x" * (helpers * (MAX_NESTING - 1))]
    assert not enumeration.truncated
    assert len(enumeration.paths[0].steps) == helpers + 1


def test_a_chain_traces_each_part_again_per_combination_before_it():
    # as nested loops: b(a) is traced once per alternative of c(a), and
    # the paths come in the order of the product of the parts' alternatives
    site, graph = _single_site(
        "package p;\nclass X {\n"
        '  void f(String a) { log.error(c(a) + "-" + b(a) + c(a)); }\n'
        '  String b(String a) { if (a.isEmpty()) { return "0"; } return "1"; }\n'
        '  String c(String a) { if (a.isEmpty()) { return "x"; } return "y"; }\n}\n')
    enumeration = enumerate_paths(site, graph)
    assert _rendered(enumeration) == [f"{c1}-{b}{c2}" for c1 in "xy" for b in "01"
                                      for c2 in "xy"]
    assert [[step.call_code for step in path.steps[1:]] for path in enumeration.paths] \
        == [["c(a)", "b(a)", "c(a)"]] * 8
    assert not enumeration.truncated and enumeration.involves_conditional


def test_bare_return_contributes_nothing():
    site, graph = _single_site(
        "package p;\nclass X {\n"
        '  void f(String a) { log.error("pre" + g(a)); }\n'
        '  String g(String a) {\n    if (a.isEmpty()) {\n      return;\n'
        '    } else {\n      return "_tail";\n    }\n  }\n}\n')
    enumeration = enumerate_paths(site, graph)
    assert _rendered(enumeration) == ["pre", "pre_tail"]


def test_configurable_builtin_methods():
    source = ("package p;\nclass X {\n"
              '  void f(String a) { log.error("v_" + a.sanitize()); }\n}\n')
    site, graph = _single_site(source)
    default = enumerate_paths(site, graph)
    assert default.paths[0].steps[1].callee_kind == KIND_UNKNOWN
    custom = enumerate_paths(site, graph, builtin_methods=("sanitize",))
    assert custom.paths[0].steps[1].callee_kind == KIND_BUILTIN


def test_call_arguments_are_never_traced():
    # g ignores its argument entirely; the noisy argument must not add paths
    site, graph = _single_site(
        "package p;\nclass X {\n"
        "  void f(String a) { log.error(g(h(a) + a.trim())); }\n"
        '  String g(String x) { return "stable"; }\n'
        "  String h(String a) {\n    if (a.isEmpty()) {\n"
        '      return "A";\n    } else {\n      return "B";\n    }\n  }\n}\n')
    enumeration = enumerate_paths(site, graph)
    assert _rendered(enumeration) == ["stable"]


def fan_out_source(k: int) -> str:
    """Nine helpers, each returning the next one ``k`` times, and one log call:
    tracing it whole takes 1 + k + ... + k ** 8 calls."""
    helpers = [f"  static String g{i}(String a) {{ return "
               + " + ".join([f"g{i + 1}(a)"] * k) + "; }\n" for i in range(1, 9)]
    return ("package p;\nclass Fan {\n" + "".join(helpers)
            + '  static String g9(String a) { return "leaf" + a; }\n'
            + '  void run(String a) { log.info("x=" + g1(a)); }\n}\n')


@pytest.mark.parametrize("k, truncated", [(2, False), (5, True)])
def test_calls_traced_per_site_are_bounded(k, truncated):
    site, graph = _single_site(fan_out_source(k))
    budget = PathBudget(max_call_depth=9)  # deep enough to enter every helper
    enumeration = enumerate_paths(site, graph, budget)
    assert enumeration.truncated is truncated
    # the log step, then one step per call traced
    steps = [len(path.steps) for path in enumeration.paths]
    assert steps == [1 + min(sum(k ** level for level in range(9)), MAX_CALLS_PER_SITE)]
    # the gateway's mock traces without steps under the same bound
    bare = enumerate_paths(site, graph, budget, with_steps=False)
    assert (bare.truncated, _rendered(bare)) == (truncated, _rendered(enumeration))


def _generated_units(seeds):
    """Units of several generator projects, one package each, sorted by path."""
    units = []
    for seed in seeds:
        for name, text in generate_project(seed):
            text = text.replace("package com.gen;", f"package com.gen.s{seed};", 1)
            text = text.replace("import com.gen.", f"import com.gen.s{seed}.")
            units.append(parse_source(text, f"s{seed:03d}/{name}"))
    return units


def _summary(enumeration):
    site = enumeration.site
    return (site.unit.path, site.line, _rendered(enumeration),
            [path.steps for path in enumeration.paths], enumeration.truncated,
            enumeration.cycles, enumeration.involves_conditional,
            enumeration.involves_external_call, enumeration.placeholder_mismatch)


def test_analyze_project_agrees_with_per_site_enumeration():
    units = _generated_units(range(40))
    budget = PathBudget(max_call_depth=2, max_paths_per_site=3)
    builtins = ("trim", "valueOf")
    graph = build_call_graph(units)
    sites = sorted((site for unit in units for site in find_log_calls(unit)),
                   key=lambda site: (site.unit.path, site.line))
    expected = [_summary(enumerate_paths(site, graph, budget, builtins))
                for site in sites]
    analyses = list(analyze_project(units, budget, builtins))
    assert len(analyses) == len(units)
    assert [_summary(e) for enumerations in analyses for e in enumerations] == expected
    # the budget and the built-in names each reach the enumeration
    for other in (analyze_project(units, PathBudget(), builtins),
                  analyze_project(units, budget)):
        assert [_summary(e) for enumerations in other for e in enumerations] != expected


def test_analyze_project_gives_a_unit_without_log_calls_no_enumeration(example_units):
    assert [unit.class_name for unit in example_units] == ["Bar", "Foo"]
    bar, foo = analyze_project(example_units)
    assert bar == []
    assert [_rendered(e) for e in foo] == [["User_<.*>_NotFound", "Invalid_User_ID<.*>"],
                                          ["Guest_<.*>", "Unknown_<.*>"]]


def test_budget_validation():
    with pytest.raises(ValueError):
        PathBudget(max_call_depth=0)
    with pytest.raises(ValueError):
        PathBudget(max_paths_per_site=0)


def test_overloaded_enclosing_method_supplies_its_own_parameter_types():
    site, graph = _single_site(
        "package p;\n"
        "public class Main {\n"
        "  public void run(String a) {\n"
        "  }\n"
        "  public void run(Aux a, String b) {\n"
        '    log.info("two " + a.name());\n'
        "  }\n"
        "}\n",
        "package p;\n"
        "public class Aux {\n"
        "}\n")
    assert site.method.params == (("a", "Aux"), ("b", "String"))
    (path,) = enumerate_paths(site, graph).paths
    builtin_step = path.steps[-1]
    assert builtin_step.call_code == "a.name()"
    assert builtin_step.callee_kind == KIND_BUILTIN
    assert builtin_step.class_fqn == "p.Aux"


@pytest.mark.parametrize("budget", [PathBudget(), PathBudget(max_call_depth=2,
                                                              max_paths_per_site=3)])
def test_enumeration_without_steps_differs_only_in_its_steps(budget):
    units = _generated_units(range(40))
    graph = build_call_graph(units)
    for site in (site for unit in units for site in find_log_calls(unit)):
        full = _summary(enumerate_paths(site, graph, budget))
        bare = enumerate_paths(site, graph, budget, with_steps=False)
        assert all(path.steps == () for path in bare.paths)
        assert _summary(bare) == full[:3] + ([()] * len(bare.paths),) + full[4:]
