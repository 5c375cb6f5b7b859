"""Agreement between commands, and across hash seeds.

The mock gateway answers an extraction prompt with one record per path of
the unit's log calls, re-derived from the files in the prompt. So for every
unit, its records must equal the paths ``report`` yields: a prompt that
lacks a file the paths entered, or carries a file they did not, shows up as
a difference. Projects come from ``tests/generator.py``: as generated;
with a later copy of one helper class that renames a helper and changes a
literal, so a class name there means the later file; with a cycle through
that class's helpers; and with the later copy and a log call in the earlier
file that calls the renamed helper by its class name.

Outputs must also be byte-identical whatever ``PYTHONHASHSEED`` is: every
command is run in a subprocess under two seeds and each file it writes is
compared.
"""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from logsmith import TemplateBody
from logsmith.analyzer import PathBudget, analyze_project, find_log_calls, parse_source
from logsmith.whitebox import parse_response
from logsmith.whitebox.extract import ProjectFile, extract_project
from logsmith.whitebox.gateway import VERIFIER_PREFIX, MockGateway

from generator import generate_project
from oracle import Interpreter

SRC = Path(__file__).resolve().parent.parent / "src"


def _with_later_copy(sources: list[tuple[str, str]]) -> list[tuple[str, str]] | None:
    """``sources`` plus ``zz/Aux.java``, a later copy of ``Aux.java`` whose
    first helper is renamed and whose first returned literal changes; None
    when the project has no helper in ``Aux``."""
    text = dict(sources).get("Aux.java", "")
    if "String h" not in text:
        return None
    copy = re.sub(r"String (h\d+)\(", r"String \1copy(", text, count=1)
    copy = re.sub(r'(return [^;]*?)"', r'\1"zz', copy, count=1)
    return sources + [("zz/Aux.java", copy)]


def _with_helper_cycle(sources: list[tuple[str, str]]) -> list[tuple[str, str]] | None:
    """``sources`` where each helper of ``Aux.java`` first returns through the
    next one, and the last through the first, so a path into Aux closes a
    cycle; None when the project has no helper in ``Aux``."""
    text = dict(sources).get("Aux.java", "")
    helpers = re.findall(r"String (h\d+)\(([^)]*)\)", text)
    if not helpers:
        return None
    names = [name for name, _ in helpers]
    calls = {name: f"{name}({', '.join('a' for _ in params.split(','))})"
             for name, params in helpers}
    ring = dict(zip(names, names[1:] + names[:1]))
    # every helper has a parameter a, and returns after its declaration
    text = re.sub(r"String (h\d+)\((?s:.*?)return ",
                  lambda match: f"{match[0]}{calls[ring[match[1]]]} + ", text)
    return [(path, text if path == "Aux.java" else source) for path, source in sources]


def _calling_the_renamed_helper(sources: list[tuple[str, str]]) -> list[tuple[str, str]] | None:
    """``_with_later_copy(sources)`` where ``Aux.java`` also logs its first
    helper called by the class name: the helper the later copy renames, so
    the call means ``zz/Aux.java`` and resolves nowhere; None when the
    project has no helper in ``Aux``."""
    copied = _with_later_copy(sources)
    if copied is None:
        return None
    text = dict(sources)["Aux.java"]
    name, params = re.search(r"String (h\d+)\(([^)]*)\)", text).groups()
    args = ", ".join(param.split()[-1] for param in params.split(","))
    logs = f'  public void logs({params}) {{ log.info("aux " + Aux.{name}({args})); }}\n'
    text = text[:text.rindex("}")] + logs + "}\n"
    return [(path, text if path == "Aux.java" else source) for path, source in copied]


_PROJECTS = [(f"{seed}", generate_project(seed)) for seed in range(60)] + [
    (f"{seed} {variant}", sources)
    for variant, vary in (("with a later copy", _with_later_copy),
                          ("with a helper cycle", _with_helper_cycle),
                          ("calling a renamed helper by class name",
                           _calling_the_renamed_helper))
    for seed in range(60) if (sources := vary(generate_project(seed))) is not None]


class _RecordingMock(MockGateway):
    """The mock gateway, keeping each extraction reply."""

    def __init__(self, budget: PathBudget):
        super().__init__(budget)
        self.replies: list[str] = []

    def send(self, prompt: str) -> str:
        reply = super().send(prompt)
        if not prompt.startswith(VERIFIER_PREFIX):
            self.replies.append(reply)
        return reply


@pytest.mark.parametrize("budget", [PathBudget(), PathBudget(max_paths_per_site=2,
                                                              max_call_depth=2)],
                         ids=["default budget", "small budget"])
def test_mock_records_are_the_reported_paths(budget):
    for name, sources in _PROJECTS:
        files = [ProjectFile(parse_source(text, path), text) for path, text in sources]
        gateway = _RecordingMock(budget)
        analyses = analyze_project([f.unit for f in files], budget)
        for result, enumerations in zip(extract_project(files, gateway, budget=budget),
                                        analyses):
            if not enumerations:
                continue
            reported = Counter((e.site.method_fqn, path.yielded.render(), e.site.level)
                               for e in enumerations for path in e.paths)
            answered = Counter((record.method, record.template, record.level)
                               for record in parse_response(gateway.replies.pop(0)))
            assert answered == reported, f"project {name}, {result.unit.path}"
        assert gateway.replies == []


# generated projects whose log call steps into Aux, and those given a later copy of it
_CROSS_FILE_SEEDS = (18, 22, 29, 36, 41, 42, 45, 47)
_COPIED_SEEDS = (22, 45)


def _write_inputs(root: Path) -> None:
    """A corpus of generated projects, each in its own package, two with a class
    declared twice; the oracle's templates as truth; and a log stream of lines
    filled from the truth, mixed with glued metrics lines that no template
    matches."""
    rng = random.Random(3)
    truth: set[str] = set()
    for seed in _CROSS_FILE_SEEDS:
        sources = generate_project(seed)
        if seed in _COPIED_SEEDS:
            sources = _with_later_copy(sources)
        units = []
        for path, text in sources:
            text = text.replace("com.gen", f"com.gen.s{seed}")
            target = root / "project" / f"s{seed}" / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text, encoding="utf-8")
            units.append(parse_source(text, path))
        interpreter = Interpreter(units)
        for site in (site for unit in units for site in find_log_calls(unit)):
            for text in interpreter.run_site(site):
                truth.add(TemplateBody.parse(re.sub(r"val\d+", "<.*>", text).strip()).render())
    truth = {template for template in truth if any(ch.isalnum() for ch in template)}
    (root / "truth.txt").write_text("".join(f"{t}\n" for t in sorted(truth)),
                                    encoding="utf-8")
    lines = [template.replace("<.*>", f"w{rng.randrange(100)}")
             for template in sorted(truth) for _ in range(3)]
    lines += [f"gauge pulse load={rng.randrange(10 ** 6)} q={rng.randrange(10 ** 6)}"
              for _ in range(40)]
    rng.shuffle(lines)
    (root / "stream.log").write_text("".join(f"{line}\n" for line in lines),
                                     encoding="utf-8")


_COMMANDS = [
    ["extract", "project", "--out", "repo.jsonl", "--report-dir", "reports"],
    ["report", "project", "--out", "report.txt", "--json", "report.json"],
    ["eval", "repo.jsonl", "truth.txt", "--out", "eval.json"],
    ["parse", "repo.jsonl", "stream.log", "--out", "parsed.jsonl", "--append-blackbox"],
]


def _outputs(root: Path, hash_seed: str) -> dict[str, bytes]:
    """Every file under ``root`` after the commands ran there in order."""
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
    for command in _COMMANDS:
        done = subprocess.run([sys.executable, "-m", "logsmith.cli", *command], cwd=root,
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "warning" not in done.stderr
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    runs = []
    for hash_seed in ("0", "1"):
        root = tmp_path / hash_seed
        _write_inputs(root)
        runs.append(_outputs(root, hash_seed))
    first, second = runs
    assert sorted(first) == sorted(second)
    assert {"repo.jsonl", "report.json", "eval.json", "parsed.jsonl"} <= set(first)
    assert [name for name in first if first[name] != second[name]] == []
