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
