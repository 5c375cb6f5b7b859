"""Agreement between path enumeration and the brute-force interpreter.

Both constructions start from the same parsed trees but share no tracing
code: the enumerator manipulates template segments symbolically while the
interpreter executes branch assignments and produces concrete strings.
Any disagreement surfaces as a counterexample string.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from logsmith.analyzer import (
    PathBudget,
    build_call_graph,
    enumerate_paths,
    find_log_calls,
    parse_source,
)
from logsmith.whitebox.extract import ProjectFile, extract_project

from generator import generate_project
from oracle import Interpreter, check_agreement, matches

# generous budget so agreement is checked on the complete path set
ROOMY_BUDGET = PathBudget(max_call_depth=8, max_paths_per_site=4096)

AGREEMENT_SEEDS = range(40)


def _check_sources(sources: list[tuple[str, str]]) -> None:
    units = [parse_source(text, path) for path, text in sources]
    graph = build_call_graph(units)
    sites = [site for unit in units for site in find_log_calls(unit)]
    assert sites, "generated project must contain a log call"
    for site in sites:
        enumeration = enumerate_paths(site, graph, ROOMY_BUDGET)
        assert not enumeration.truncated, "agreement requires the full path set"
        problems = check_agreement(units, site, enumeration)
        assert problems == [], "\n".join(problems)


@pytest.mark.parametrize("seed", AGREEMENT_SEEDS)
def test_generated_project_agreement(seed):
    _check_sources(generate_project(seed))


def test_example_project_agreement(example_units, example_graph, example_sites):
    for site in example_sites:
        enumeration = enumerate_paths(site, example_graph, ROOMY_BUDGET)
        problems = check_agreement(example_units, site, enumeration)
        assert problems == [], "\n".join(problems)


OVERLOADS = ('package p;\nimport q.B;\nclass A {\n'
             '  String f(String a) { return "first"; }\n'
             '  String f(int b) { return "second"; }\n'
             '  void run(String x) { log.info("v=" + f(x)); }\n}\n')
OVERLOADS_CALLER = ('package q;\nimport p.A;\nclass B {\n'
                    '  void run(String x) { log.info("w=" + A.f(x)); }\n}\n')


def test_the_first_same_arity_overload_wins():
    # both constructions resolve a call by class, name and argument count,
    # taking the first method declared, for a bare call and a class receiver
    sources = [("p/A.java", OVERLOADS), ("q/B.java", OVERLOADS_CALLER)]
    _check_sources(sources)
    units = [parse_source(text, path) for path, text in sources]
    graph = build_call_graph(units)
    yielded = [path.yielded.render() for unit in units for site in find_log_calls(unit)
               for path in enumerate_paths(site, graph, ROOMY_BUDGET).paths]
    assert yielded == ["v=first", "w=first"]


def _one_class(value: str) -> str:
    return ('package p;\nclass A {\n'
            f'  String f(String a) {{ return "{value}"; }}\n'
            '  void run(String x) { log.info("v=" + f(x)); }\n}\n')


def test_a_bare_call_resolves_in_the_calling_file():
    # two files declare p.A; each file's bare call steps into its own f
    sources = [("a/A.java", _one_class("one")), ("b/A.java", _one_class("two"))]
    _check_sources(sources)
    units = [parse_source(text, path) for path, text in sources]
    graph = build_call_graph(units)
    paths = [path for unit in units for site in find_log_calls(unit)
             for path in enumerate_paths(site, graph, ROOMY_BUDGET).paths]
    assert [path.yielded.render() for path in paths] == ["v=one", "v=two"]
    assert ['return "one";' in paths[0].steps[1].callee_source,
            'return "two";' in paths[1].steps[1].callee_source] == [True, True]


def test_each_step_shows_the_source_of_its_own_file():
    # a/A.java's bare f(x) is its own f, A.f(x) the later file's f of the same key
    caller = _one_class("one").replace('log.info("v=" + f(x))',
                                       'log.info(f(x) + "|" + A.f(x))')
    sources = [("a/A.java", caller), ("b/A.java", _one_class("two"))]
    _check_sources(sources)
    units = [parse_source(text, path) for path, text in sources]
    (site,) = find_log_calls(units[0])
    (path,) = enumerate_paths(site, build_call_graph(units), ROOMY_BUDGET).paths
    assert path.yielded.render() == "one|two"
    assert ['return "one";' in path.steps[1].callee_source,
            'return "two";' in path.steps[2].callee_source] == [True, True]


def _report_extract_and_oracle(sources: list[tuple[str, str]]) -> list[str]:
    """The templates of every log call, in file order, after checking that
    ``report``'s paths, ``extract``'s accepted templates and the oracle agree
    and that no path closes a cycle."""
    _check_sources(sources)
    units = [parse_source(text, path) for path, text in sources]
    graph = build_call_graph(units)
    enumerations = [enumerate_paths(site, graph, ROOMY_BUDGET)
                    for unit in units for site in find_log_calls(unit)]
    assert [e.cycles for e in enumerations] == [()] * len(enumerations)
    reported = [path.yielded.render() for e in enumerations for path in e.paths]
    files = [ProjectFile(unit, text) for unit, (_, text) in zip(units, sources)]
    extracted = [template.body.render()
                 for result in extract_project(files, budget=ROOMY_BUDGET)
                 for template in result.accepted]
    assert extracted == reported
    return reported


def _a_class(*methods: str) -> str:
    return "package p;\nclass A {\n" + "".join(f"  {m}\n" for m in methods) + "}\n"


@pytest.mark.parametrize("logged, template", [
    ('"v=" + A.g(x) + "/" + A.f(x)', "v=<.*>/two"),
    ("A.g(x) + A.f(x)", "<.*>two"),
])
def test_a_class_name_means_only_the_later_file(logged, template):
    # b/A.java declares no g, so A.g(x) resolves nowhere, not in a/A.java
    sources = [("a/A.java", _a_class('static String f(String a) { return "one"; }',
                                     'static String g(String a) { return "gee"; }')),
               ("b/A.java", _a_class('static String f(String a) { return "two"; }')),
               ("c/C.java", f"package p;\nclass C {{\n"
                            f"  void run(String x) {{ log.info({logged}); }}\n}}\n")]
    assert _report_extract_and_oracle(sources) == [template]


def test_a_file_calling_its_own_class_name_means_the_later_file():
    # A.g(x) in p/a/A.java means p/b/A.java, which declares no g; the prompt
    # carries p/b/A.java, so extract does not resolve it to the caller's g
    sources = [("p/a/A.java", _a_class('static String g(String a) { return "gee"; }',
                                       'void run(String x) { log.info("value=" + A.g(x)); }')),
               ("p/b/A.java", _a_class('static String f(String a) { return "two"; }'))]
    assert _report_extract_and_oracle(sources) == ["value=<.*>"]


def test_a_call_into_the_other_file_of_a_class_is_no_cycle():
    # a/A.java's f calls the later file's f, which shares its class, name and arity
    sources = [("a/A.java", _a_class('String f(String a) { return A.f(a); }',
                                     'void run(String x) { log.info("v=" + f(x)); }')),
               ("b/A.java", _one_class("two"))]
    assert _report_extract_and_oracle(sources) == ["v=two", "v=two"]


def test_the_prompt_carries_each_file_a_path_enters():
    caller = _one_class("one").replace('log.info("v=" + f(x))',
                                       'log.info(f(x) + "|" + A.f(x))')
    sources = [("a/A.java", caller), ("b/A.java", _one_class("two"))]
    assert _report_extract_and_oracle(sources) == ["one|two", "v=two"]


def test_a_class_name_resolves_in_the_calling_package():
    # q/Aux.java comes later but is neither imported nor in Main's package
    aux = 'package {}; class Aux {{ static String f(String a) {{ return "{}"; }} }}\n'
    sources = [("p/Aux.java", aux.format("p", "p")),
               ("p/Main.java", 'package p;\nclass Main {\n'
                               '  void run(String x) { log.info("v=" + Aux.f(x)); }\n}\n'),
               ("q/Aux.java", aux.format("q", "q"))]
    assert _report_extract_and_oracle(sources) == ["v=p"]


def test_oracle_on_example_site(example_units, example_graph, example_sites):
    interpreter = Interpreter(example_units)
    strings = interpreter.run_site(example_sites[0])
    # uid.toUpperCase() is opaque, so the then-branch string carries a marker
    assert strings == {"User_val1_NotFound", "Invalid_User_IDval1"}


def test_oracle_detects_divergence(example_units, example_graph, example_sites):
    # sanity: the checker reports problems for a wrong enumeration
    enumeration = enumerate_paths(example_sites[0], example_graph, ROOMY_BUDGET)
    broken = enumerate_paths(example_sites[1], example_graph, ROOMY_BUDGET)
    problems = check_agreement(example_units, example_sites[0], broken)
    assert problems, "checker must flag templates from the wrong site"
    assert check_agreement(example_units, example_sites[0], enumeration) == []


def test_matches_uses_anchored_semantics():
    from logsmith.templates import TemplateBody

    body = TemplateBody.parse("User_<.*>_NotFound")
    assert matches(body, "User_ADMIN_NotFound")
    assert not matches(body, "prefix User_ADMIN_NotFound")
    assert not matches(body, "User__NotFound")  # inner wildcard needs content


def test_generator_is_deterministic_and_in_subset():
    for seed in (0, 7, 23):
        first = generate_project(seed)
        second = generate_project(seed)
        assert first == second
        for path, text in first:
            parse_source(text, path)


def test_oracle_loads_with_only_src_on_the_path(tmp_path):
    # the benchmark loads this file by path with only src/ importable, so a
    # stray import from tests/ would break it; pytest's own path hides that
    root = Path(__file__).resolve().parent.parent
    oracle_path = str(root / "tests" / "oracle.py")
    script = (
        "import importlib.util, sys\n"
        f"sys.path.insert(0, {str(root / 'src')!r})\n"
        f"spec = importlib.util.spec_from_file_location('oracle', {oracle_path!r})\n"
        "oracle = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(oracle)\n"
        "from logsmith import TemplateBody\n"
        "print(oracle.matches(TemplateBody.parse('User_<.*>_NotFound'), 'User_ADMIN_NotFound'))\n"
    )
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True\n"
