from __future__ import annotations

import argparse
import gc
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from logsmith import cli, evaluation, templates
from logsmith.analyzer import parse_source, paths
from logsmith.analyzer.parser import MAX_NESTING
from logsmith.analyzer.paths import MAX_CALL_DEPTH
from logsmith.cli import (
    EXIT_FATAL, EXIT_INTERRUPTED, EXIT_OK, EXIT_PARTIAL, _config_flags, _json_text,
    _load_config, _record_line, _write_file, build_parser, main)
from logsmith.evaluation import load_ground_truth, score
from logsmith.matcher import MatchResult
from logsmith.templates import load_repository
from logsmith.whitebox import extract, gateway
from logsmith.whitebox.gateway import (
    VERIFIER_PREFIX, GatewayTimeout, GatewayUnavailable, MockGateway)

from conftest import EXAMPLE_PROJECT, FIXTURES, GOLDEN_REPORT, load_config
from generator import generate_project
from oracle import result_record

SRC = Path(__file__).resolve().parent.parent / "src"

EXPECTED_TEMPLATES = {
    "User_<.*>_NotFound": "error",
    "Invalid_User_ID<.*>": "error",
    "Guest_<.*>": "fatal",
    "Unknown_<.*>": "fatal",
}


@pytest.fixture()
def extract_run(tmp_path, capsys):
    out = tmp_path / "repo.jsonl"
    code = main(["extract", str(EXAMPLE_PROJECT), "--out", str(out),
                 "--report-dir", str(tmp_path / "reports")])
    assert code == EXIT_OK
    return out, capsys.readouterr().out


@pytest.fixture()
def repo_path(extract_run):
    return extract_run[0]


def test_extract_example_project(extract_run, tmp_path):
    repo_path, out = extract_run
    templates = load_repository(repo_path)
    assert {t.body.render(): t.level for t in templates} == EXPECTED_TEMPLATES
    assert all(t.methods == ("com.example.Foo.logSomething",) for t in templates)
    assert all(t.source == "whitebox" for t in templates)

    reports = tmp_path / "reports"
    assert (reports / "Foo.report.txt").read_text(
        encoding="utf-8") == GOLDEN_REPORT.read_text(encoding="utf-8")
    assert (reports / "Bar.report.txt").read_text(
        encoding="utf-8").startswith("Extracted 0 log calls")
    structured = json.loads((reports / "Foo.report.json").read_text())
    assert structured["call_count"] == 2 and structured["total_paths"] == 4

    assert "2 log calls" in out and "4 paths" in out and "4 templates" in out


def test_extract_path_budget_reaches_the_mock_gateway(tmp_path, capsys):
    out = tmp_path / "repo.jsonl"
    assert main(["extract", str(EXAMPLE_PROJECT), "--out", str(out),
                 "--max-paths-per-site", "1"]) == EXIT_OK
    # one path per log call is analyzed, so one template per call is written
    assert "2 paths" in capsys.readouterr().out
    assert [t.body.render() for t in load_repository(out)] == [
        "User_<.*>_NotFound", "Guest_<.*>"]


def test_extract_default_report_dir(tmp_path):
    out = tmp_path / "repo.jsonl"
    assert main(["extract", str(EXAMPLE_PROJECT), "--out", str(out)]) == EXIT_OK
    assert (tmp_path / "repo.jsonl.reports" / "Foo.report.txt").exists()


def test_extract_empty_directory(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    out = tmp_path / "repo.jsonl"
    assert main(["extract", str(empty), "--out", str(out)]) == EXIT_OK
    assert load_repository(out) == []
    assert "no source files found" in capsys.readouterr().err


def test_extract_nothing_parsed(tmp_path, capsys):
    broken = tmp_path / "project"
    broken.mkdir()
    (broken / "Bad.java").write_text("this is not in the subset", encoding="utf-8")
    code = main(["extract", str(broken), "--out", str(tmp_path / "repo.jsonl")])
    assert code == EXIT_PARTIAL
    err = capsys.readouterr().err
    assert "skipped" in err and "no source file parsed" in err


def test_extract_partial_parse_is_ok(tmp_path, capsys):
    mixed = tmp_path / "project"
    shutil.copytree(EXAMPLE_PROJECT, mixed)
    (mixed / "Bad.java").write_text("not valid", encoding="utf-8")
    out = tmp_path / "repo.jsonl"
    assert main(["extract", str(mixed), "--out", str(out)]) == EXIT_OK
    assert "skipped" in capsys.readouterr().err
    assert len(load_repository(out)) == 4


def test_package_line_in_a_comment_is_read_as_a_comment(tmp_path, capsys):
    # the mock gateway parses its prompt's code with the lexer, which skips
    # the comment whole, so the "package" line inside it starts no file
    mixed = tmp_path / "project"
    shutil.copytree(EXAMPLE_PROJECT, mixed)
    (mixed / "Old.java").write_text(
        "/*\npackage old.name;\n*/\npackage com.x;\n\npublic class Old {\n"
        '  public void run(String id) {\n    log.info("moved " + id);\n  }\n}\n',
        encoding="utf-8")
    out = tmp_path / "repo.jsonl"
    assert main(["extract", str(mixed), "--out", str(out)]) == EXIT_OK
    assert "warning" not in capsys.readouterr().err
    assert {t.body.render() for t in load_repository(out)} == {
        *EXPECTED_TEMPLATES, "moved <.*>"}


_COMMENTS = {
    "licence header": "/*\n * Licensed to the Apache Software Foundation (ASF) under one\n"
                      " * or more contributor license agreements.\n */\n",
    "package line": "/*\npackage org.apache.old;\n */\n// package org.apache.older;\n",
    "report marker": "/*\n- static_analysis_report: see docs\n- java_code: none\n*/\n",
}


@pytest.mark.parametrize("place", ["file head", "after package line"])
@pytest.mark.parametrize("comment", sorted(_COMMENTS))
def test_comments_leave_the_repository_unchanged(tmp_path, capsys, comment, place):
    # projects whose prompts carry several files, each holding the comment
    plain = _generated_corpus(tmp_path / "plain", range(30))
    shutil.copytree(EXAMPLE_PROJECT, plain / "example")
    commented = tmp_path / "commented"
    shutil.copytree(plain, commented)
    for path in commented.rglob("*.java"):
        package_line, rest = path.read_text(encoding="utf-8").split("\n", 1)
        text = (_COMMENTS[comment] + package_line + "\n" + rest if place == "file head"
                else package_line + "\n" + _COMMENTS[comment] + rest)
        path.write_text(text, encoding="utf-8")
    repos = []
    for project in (plain, commented):
        out = tmp_path / f"{project.name}.jsonl"
        assert main(["extract", str(project), "--out", str(out),
                     "--report-dir", str(tmp_path / f"{project.name}.reports")]) == EXIT_OK
        repos.append(out.read_bytes())
    assert "warning" not in capsys.readouterr().err
    assert repos[0] and repos[1] == repos[0]


# Main's prompt holds Aux, which its path steps into, but not C, which only
# Aux.work's log call reaches; Aux's log call is answered from Aux's prompt
_MAIN_AUX_C = {
    "Main": 'public class Main {\n  public void run() {\n'
            '    log.info("start " + Aux.tag());\n  }\n}\n',
    "Aux": 'public class Aux {\n  public static String tag() {\n    return "aux";\n  }\n\n'
           '  public void work() {\n    log.warn("work " + C.name());\n  }\n}\n',
    "C": 'public class C {\n  public static String name() {\n    return "cee";\n  }\n}\n',
}


def test_mock_answers_only_for_the_file_its_prompt_is_for(tmp_path, capsys):
    project = tmp_path / "project"
    project.mkdir()
    for name, body in _MAIN_AUX_C.items():
        (project / f"{name}.java").write_text(f"package demo;\n\n{body}", encoding="utf-8")
    out = tmp_path / "repo.jsonl"
    assert main(["extract", str(project), "--out", str(out)]) == EXIT_OK
    assert "2 log calls, 2 paths, 2 accepted, 0 rejected, 2 templates" in (
        capsys.readouterr().out)
    assert sorted(t.body.render() for t in load_repository(out)) == ["start aux", "work cee"]


def test_mock_enumerates_only_the_log_calls_of_its_own_file(tmp_path, monkeypatch):
    # each log call is enumerated twice: by the analysis and by the mock
    # answering its own file's prompt, never by a prompt that only carries it
    enumerated = []
    real = paths.enumerate_paths

    def counting(site, *args, **kwargs):
        enumerated.append(site.method_fqn)
        return real(site, *args, **kwargs)

    monkeypatch.setattr(paths, "enumerate_paths", counting)
    monkeypatch.setattr(gateway, "enumerate_paths", counting)
    project = tmp_path / "project"
    project.mkdir()
    for name, body in _MAIN_AUX_C.items():
        (project / f"{name}.java").write_text(f"package demo;\n\n{body}", encoding="utf-8")
    assert main(["extract", str(project), "--out", str(tmp_path / "repo.jsonl")]) == EXIT_OK
    assert sorted(enumerated) == ["demo.Aux.work"] * 2 + ["demo.Main.run"] * 2


class _DownCall(MockGateway):
    """The mock, except that its calls of one kind, extraction or verifier,
    about a "down" message fail with ``error``: all of them, or the first
    ``failures``. ``sent`` counts the calls of that kind about it."""

    def __init__(self, verifier: bool, error, failures: float = float("inf")):
        super().__init__()
        self.verifier, self.error, self.failures, self.sent = verifier, error, failures, 0

    def send(self, prompt: str) -> str:
        if prompt.startswith(VERIFIER_PREFIX) == self.verifier and "down" in prompt:
            self.sent += 1
            if self.sent <= self.failures:
                raise self.error(f"call {self.sent} unreachable")
        return super().send(prompt)


# Both calls of a unit go through one retry rule, so each test below runs a
# failing extraction call and a failing verifier call, failing in each way.
DOWN_CALLS = [(verifier, error) for verifier in (False, True)
              for error in (GatewayUnavailable, GatewayTimeout)]


def _extract_up_and_down(directory: Path, monkeypatch, gateway, *flags) -> tuple[Path, list]:
    """``extract --enable-verifier`` through ``gateway`` of a project whose A
    logs "up and running" and whose B logs "going down now"; B's path and the
    repository's templates."""
    monkeypatch.setattr(extract, "make_gateway", lambda *args: gateway)
    project = directory / "project"
    project.mkdir(parents=True)
    for name, message in (("A", "up and running"), ("B", "going down now")):
        (project / f"{name}.java").write_text(
            f'package p;\nclass {name} {{\n  void f() {{ log.info("{message}"); }}\n}}\n',
            encoding="utf-8")
    out = directory / "repo.jsonl"
    assert main(["extract", str(project), "--out", str(out), "--enable-verifier",
                 *flags]) == EXIT_OK
    return project / "B.java", [t.body.render() for t in load_repository(out)]


def test_failed_verifier_call_fails_its_unit_only(tmp_path, capsys, monkeypatch):
    for verifier, error in DOWN_CALLS:
        gateway = _DownCall(verifier, error)
        b_path, kept = _extract_up_and_down(tmp_path / f"{verifier}-{error.__name__}",
                                            monkeypatch, gateway, "--max-retries", "1")
        err = capsys.readouterr().err
        assert (f"warning: gateway failed for {b_path}: "
                "gave up after 2 attempts: call 2 unreachable\n") in err, (verifier, error)
        assert kept == ["up and running"] and gateway.sent == 2, (verifier, error)


@pytest.mark.parametrize("failures, kept", [
    (2, ["up and running", "going down now"]),  # the second retry answers
    (3, ["up and running"]),                    # max_retries + 1 failures
])
def test_verifier_call_is_retried_max_retries_times(tmp_path, capsys, monkeypatch,
                                                     failures, kept):
    for verifier, error in DOWN_CALLS:
        gateway = _DownCall(verifier, error, failures)
        b_path, templates = _extract_up_and_down(
            tmp_path / f"{verifier}-{error.__name__}", monkeypatch, gateway,
            "--max-retries", "2")
        warning = (f"warning: gateway failed for {b_path}: "
                   "gave up after 3 attempts: call 3 unreachable\n")
        assert (warning in capsys.readouterr().err) == (len(kept) == 1), (verifier, error)
        assert templates == kept and gateway.sent == 3, (verifier, error)


def test_report_marker_in_a_log_literal_keeps_the_file(tmp_path, capsys):
    # the report writes the literal escaped, so the marker's line break stays
    # "\n" there and the mock's code slot still ends at the real marker
    project = tmp_path / "project"
    project.mkdir()
    (project / "Usage.java").write_text(
        "package com.x;\n\npublic class Usage {\n  public void help(String id) {\n"
        '    log.info("usage:\\n- static_analysis_report:\\n");\n'
        '    log.warn("no command " + id);\n  }\n}\n', encoding="utf-8")
    out = tmp_path / "repo.jsonl"
    assert main(["extract", str(project), "--out", str(out)]) == EXIT_OK
    assert "warning" not in capsys.readouterr().err
    assert [t.body.render() for t in load_repository(out)] == [
        "usage:\n- static_analysis_report:", "no command <.*>"]


_ELSE_IF_CHAIN = "".join(f'if (a.isEmpty()) {{ log.info("b{i}"); }} else '
                         for i in range(1_000)) + "{ }"
_DEEPLY_NESTED = {
    "parentheses": "log.info(" + "(" * 3_000 + "a" + ")" * 3_000 + ");",
    "else-if chain": _ELSE_IF_CHAIN,
    "plus chain": "log.info(" + " + ".join(["a"] * 2_000) + ");",
    "call chain": "log.info(a" + ".trim()" * 3_000 + ");",
}


@pytest.mark.parametrize("shape", sorted(_DEEPLY_NESTED))
@pytest.mark.parametrize("command", ["extract", "report"])
def test_deeply_nested_file_is_skipped(tmp_path, capsys, command, shape):
    mixed = tmp_path / "project"
    shutil.copytree(EXAMPLE_PROJECT, mixed)
    deep = mixed / "Deep.java"
    deep.write_text("package com.example;\nclass Deep {\n  void f(String a) {\n    "
                    f"{_DEEPLY_NESTED[shape]}\n  }}\n}}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, str(mixed), "--out", str(out)]) == EXIT_OK
    err = capsys.readouterr().err
    assert f"warning: skipped {deep}: line 4: source nested too deep" in err
    if command == "extract":
        assert len(load_repository(out)) == 4
    else:
        assert out.read_text(encoding="utf-8") == GOLDEN_REPORT.read_text(
            encoding="utf-8")


@pytest.mark.parametrize("command", ["extract", "report"])
def test_non_utf8_source_is_skipped(tmp_path, capsys, command):
    mixed = tmp_path / "project"
    shutil.copytree(EXAMPLE_PROJECT, mixed)
    latin = mixed / "Z.java"
    latin.write_bytes('package com.example;\nclass Z {\n  void f() { log.info("caf\xe9"); }\n}\n'
                      .encode("latin-1"))
    if command == "extract":
        outputs = _extract_outputs(mixed, tmp_path / "mixed", [])
        captured = capsys.readouterr()
        assert outputs == _extract_outputs(EXAMPLE_PROJECT, tmp_path / "plain", [])
        assert captured.out.startswith("2 of 3 files parsed, 2 log calls, 4 paths")
    else:
        out = tmp_path / "report.txt"
        assert main(["report", str(mixed), "--out", str(out)]) == EXIT_OK
        captured = capsys.readouterr()
        assert out.read_text(encoding="utf-8") == GOLDEN_REPORT.read_text(encoding="utf-8")
    assert (f"warning: skipped {latin}: 'utf-8' codec can't decode byte 0xe9"
            in captured.err)


# shape: (what helper i returns, nested to the parser's bound; the template)
_HELPER_CHAINS = {
    "plus chain": (lambda i: f"g{i + 1}(a)" + ' + "x"' * (MAX_NESTING - 1),
                   "end<.*>" + "x" * ((MAX_CALL_DEPTH - 1) * (MAX_NESTING - 1))),
    "call chain": (lambda i: f"g{i + 1}(a" + ".trim()" * (MAX_NESTING - 2) + ")",
                   "end<.*>"),
    "nested call arguments": (
        lambda i: f"g{i + 1}(" + "h(" * (MAX_NESTING - 2) + "a" + ")" * (MAX_NESTING - 1),
        "end<.*>"),
}


@pytest.mark.parametrize("shape", sorted(_HELPER_CHAINS))
@pytest.mark.parametrize("command", ["extract", "report"])
def test_helper_chain_at_the_call_depth_bound(tmp_path, capsys, command, shape):
    returned, template = _HELPER_CHAINS[shape]
    methods = "".join(f"  String g{i}(String a) {{ return {returned(i)}; }}\n"
                      for i in range(1, MAX_CALL_DEPTH))
    project = tmp_path / "project"
    project.mkdir()
    (project / "X.java").write_text(
        "package p;\nclass X {\n  void f(String a) { log.error(g1(a)); }\n"
        f'{methods}  String g{MAX_CALL_DEPTH}(String a) {{ return "end" + a; }}\n}}\n',
        encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, str(project), "--out", str(out),
                 "--max-call-depth", str(MAX_CALL_DEPTH)]) == EXIT_OK
    assert "warning" not in capsys.readouterr().err
    if command == "extract":
        assert [t.body.render() for t in load_repository(out)] == [template]
    else:
        text = out.read_text(encoding="utf-8")
        assert f"  {MAX_CALL_DEPTH + 1}. Class: p.X\n" in text
        assert text.endswith("A total of 1 log calls, with 1 complete paths found.\n")


@pytest.mark.parametrize("command", ["extract", "report"])
def test_call_depth_above_the_bound_is_a_config_error(tmp_path, capsys, command):
    code = main([command, str(EXAMPLE_PROJECT), "--out", str(tmp_path / "out"),
                 "--max-call-depth", str(MAX_CALL_DEPTH + 1)])
    assert code == EXIT_FATAL
    assert (f"error: max_call_depth must be at most {MAX_CALL_DEPTH}"
            in capsys.readouterr().err)


def test_extract_missing_directory(tmp_path, capsys):
    code = main(["extract", str(tmp_path / "nope"), "--out",
                 str(tmp_path / "repo.jsonl")])
    assert code == EXIT_FATAL
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["extract", "report"])
def test_directory_named_like_a_source_file_is_searched_not_read(tmp_path, capsys,
                                                                 command):
    project = tmp_path / "project"
    shutil.copytree(EXAMPLE_PROJECT, project)
    odd = project / "src" / "Odd.java"
    odd.mkdir(parents=True)
    (odd / "Inner.java").write_text(
        "package demo;\n\npublic class Inner {\n  void run() {\n"
        '    log.info("inner ready");\n  }\n}\n', encoding="utf-8")
    elsewhere = tmp_path / "Linked.java"
    elsewhere.write_text("package demo;\n\npublic class Linked {\n}\n", encoding="utf-8")
    (project / "Linked.java").symlink_to(elsewhere)
    (project / "lib.java").symlink_to(odd, target_is_directory=True)  # not followed
    assert [path.relative_to(project).as_posix() for path in cli._discover(str(project))] == [
        "Bar.java", "Foo.java", "Linked.java", "src/Odd.java/Inner.java"]
    if command == "extract":
        code = main(["extract", str(project), "--out", str(tmp_path / "repo.jsonl")])
    else:
        code = main(["report", str(project), "--out", str(tmp_path / "report.txt")])
    assert code == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    if command == "extract":
        assert out.startswith("4 of 4 files parsed, 3 log calls")
        assert "inner ready" in {t.body.render() for t in
                                 load_repository(tmp_path / "repo.jsonl")}


@pytest.mark.parametrize("command", ["extract", "report"])
def test_a_source_name_that_is_not_a_regular_file_is_skipped_unopened(tmp_path, command):
    # reading a FIFO blocks until a writer comes, so a run that opened one
    # would hang: it runs in a subprocess, and a hang fails the test on timeout
    project = tmp_path / "project"
    shutil.copytree(EXAMPLE_PROJECT, project)
    os.mkfifo(project / "Pipe.java")
    (project / "Gone.java").symlink_to(tmp_path / "missing.java")
    out = tmp_path / "out"
    done = subprocess.run([sys.executable, "-m", "logsmith.cli", command, str(project),
                           "--out", str(out)], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stderr == "".join(f"warning: skipped {project / name}: not a regular file\n"
                                  for name in ("Gone.java", "Pipe.java"))
    if command == "extract":
        assert done.stdout.startswith("2 of 4 files parsed, 2 log calls")
        assert len(load_repository(out)) == 4


def test_parse_stream(repo_path, tmp_path, capsys):
    log = tmp_path / "app.log"
    log.write_text(
        "User_ADMIN_NotFound\n"
        "Invalid_User_ID42\n"
        "Guest_g1\n"
        "connect to 10.0.0.1 failed\n"
        "connect to 10.0.0.2 failed\n"
        "\n",
        encoding="utf-8")
    results_path = tmp_path / "results.jsonl"
    code = main(["parse", str(repo_path), str(log), "--out", str(results_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "6 lines: 3 matched, 2 routed, 1 dropped" in out

    records = [json.loads(line) for line in
               results_path.read_text(encoding="utf-8").splitlines()]
    assert len(records) == 5
    matched = [r for r in records if r["matched"]]
    assert [r["template"] for r in matched] == [
        "User_<.*>_NotFound", "Invalid_User_ID<.*>", "Guest_<.*>"]
    assert matched[0]["captures"] == ["ADMIN"]
    routed = [r for r in records if not r["matched"]]
    assert routed[0]["cluster_id"] == routed[1]["cluster_id"]
    assert routed[1]["cluster_template"] == "connect to <*> failed"


def test_parse_append_blackbox(repo_path, tmp_path, capsys):
    log = tmp_path / "app.log"
    log.write_text("connect to 10.0.0.1 failed\nconnect to 10.0.0.2 failed\n",
                   encoding="utf-8")
    assert main(["parse", str(repo_path), str(log), "--append-blackbox"]) == EXIT_OK
    assert "appended 1 black-box templates" in capsys.readouterr().out
    templates = load_repository(repo_path)
    assert len(templates) == 5
    added = templates[-1]
    assert added.body.render() == "connect to <.*> failed"
    assert added.source == "blackbox"
    assert added.match_count == 2

    # the discovered template now matches the stream; nothing new is appended
    assert main(["parse", str(repo_path), str(log), "--append-blackbox"]) == EXIT_OK
    assert "appended 0 black-box templates" in capsys.readouterr().out
    assert len(load_repository(repo_path)) == 5


def test_append_blackbox_to_a_repository_without_a_final_newline(tmp_path, capsys,
                                                                monkeypatch):
    repo = tmp_path / "repo.jsonl"
    repo.write_bytes(b'{"template": "alpha <.*> done"}')
    log = tmp_path / "app.log"
    log.write_text("beta 1 gone\nbeta 2 gone\n", encoding="utf-8")
    loads = []

    def counting_load(path):
        loads.append(path)
        return load_repository(path)

    # the repository is decoded once: the append takes its bodies from the parse
    monkeypatch.setattr(cli, "load_repository", counting_load)
    monkeypatch.setattr(templates, "load_repository", counting_load)
    assert main(["parse", str(repo), str(log), "--append-blackbox"]) == EXIT_OK
    assert loads == [str(repo)]
    assert "appended 1 black-box templates" in capsys.readouterr().out
    assert repo.read_bytes().startswith(b'{"template": "alpha <.*> done"}\n{')
    assert main(["parse", str(repo), str(log)]) == EXIT_OK
    assert "2 lines: 2 matched" in capsys.readouterr().out


def test_parse_from_stdin(repo_path, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("User_ROOT_NotFound\n"))
    assert main(["parse", str(repo_path), "-"]) == EXIT_OK
    assert "1 lines: 1 matched" in capsys.readouterr().out


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_parse_replaces_invalid_bytes(repo_path, tmp_path, monkeypatch, capsys, source):
    log = tmp_path / "app.log"
    out = tmp_path / "out.jsonl"
    for data, warning in ((b"User_ROOT_NotFound\nplain\n", ""),
                          (b"a\xffb\nUser_ROOT_NotFound\nc\xfe\xfe\n", "2 lines")):
        if source == "file":
            log.write_bytes(data)
            argv = ["parse", str(repo_path), str(log), "--out", str(out)]
        else:
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
            argv = ["parse", str(repo_path), "-", "--out", str(out)]
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        if warning:
            assert captured.err == (f"warning: replaced invalid UTF-8 in {warning} "
                                    f"of {argv[2]}\n")
        else:
            assert captured.err == ""
        records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        matched = [r["line"] for r in records if r["matched"]]
        assert matched == ["User_ROOT_NotFound"]
    assert [r["line"] for r in records] == ["a\ufffdb", "User_ROOT_NotFound", "c\ufffd\ufffd"]
    assert "3 lines: 1 matched, 2 routed" in captured.out


def _three_template_repo(tmp_path):
    repo = tmp_path / "repo.jsonl"
    repo.write_text("".join(json.dumps({"template": t}) + "\n" for t in (
        "request <.*> served", "user <.*> logged in", "queue <.*> empty")),
        encoding="utf-8")
    return repo


def _stream_lines(count):
    kinds = ("request {} served", "user u{} logged in", "queue q{} empty",
             "connect to host{} failed")
    return [kinds[i % 4].format(i) for i in range(count)]


def test_parse_memory_does_not_grow_with_the_stream(tmp_path, capsys):
    repo = _three_template_repo(tmp_path)
    out = tmp_path / "out.jsonl"
    peaks = {}
    for count in (1_000, 1_000, 10_000):  # the first run warms caches
        log = tmp_path / f"{count}.log"
        log.write_text("\n".join(_stream_lines(count)) + "\n", encoding="utf-8")
        gc.collect()
        tracemalloc.start()
        try:
            assert main(["parse", str(repo), str(log), "--out", str(out)]) == EXIT_OK
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"{count} lines: {count * 3 // 4} matched" in capsys.readouterr().out
    assert abs(peaks[10_000] - peaks[1_000]) < 0.1 * peaks[1_000], peaks


def test_parse_missing_log_leaves_out_untouched(tmp_path, capsys):
    repo = _three_template_repo(tmp_path)
    out = tmp_path / "out.jsonl"
    out.write_bytes(b"earlier results\n")
    argv = ["parse", str(repo), str(tmp_path / "none.log"), "--out", str(out)]
    assert main(argv) == EXIT_FATAL
    assert "error:" in capsys.readouterr().err
    assert out.read_bytes() == b"earlier results\n"


def test_parse_reads_a_real_pipe(tmp_path, capsys):
    # stdin as the OS gives it: a pipe read through sys.stdin.buffer
    repo = _three_template_repo(tmp_path)
    data = (b"request 1 served\nuser \xff logged in\r\n"
            b"connect to a\xfe failed\n\nqueue q empty")
    piped, from_file = tmp_path / "piped.jsonl", tmp_path / "file.jsonl"
    argv = ["parse", str(repo), "-", "--out", str(piped)]
    done = subprocess.run([sys.executable, "-m", "logsmith.cli", *argv],
                          input=data, capture_output=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stderr == b"warning: replaced invalid UTF-8 in 2 lines of -\n"
    assert b"5 lines: 3 matched, 1 routed, 1 dropped" in done.stdout
    log = tmp_path / "app.log"
    log.write_bytes(data)
    assert main(["parse", str(repo), str(log), "--out", str(from_file)]) == EXIT_OK
    assert piped.read_bytes() == from_file.read_bytes()
    records = [json.loads(line) for line in piped.read_text(encoding="utf-8").splitlines()]
    assert records[1]["line"] == "user \ufffd logged in" and records[1]["matched"]


_LINE_BREAKERS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("source", ["file", "stdin bytes", "stdin text"])
@pytest.mark.parametrize("breaker", _LINE_BREAKERS)
def test_parse_ends_a_line_only_at_a_line_end(tmp_path, monkeypatch, capsys, source,
                                              breaker):
    # "\n", "\r\n" and "\r" end a line, as in eval's template files; the other
    # breaks str.splitlines knows are text inside the line
    repo = _three_template_repo(tmp_path)
    out = tmp_path / "out.jsonl"
    text = (f"user a{breaker}b logged in\r\nuser c{breaker}d logged in\r"
            f"request {breaker} served\n")
    if source == "file":
        log = tmp_path / "app.log"
        log.write_bytes(text.encode("utf-8"))
        argv = ["parse", str(repo), str(log), "--out", str(out)]
    else:
        stdin = (io.TextIOWrapper(io.BytesIO(text.encode("utf-8"))) if source == "stdin bytes"
                 else io.StringIO(text, newline="\n"))
        monkeypatch.setattr("sys.stdin", stdin)
        argv = ["parse", str(repo), "-", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert "3 lines: 3 matched, 0 routed" in capsys.readouterr().out
    records = [json.loads(line) for line in out.read_text(encoding="utf-8").split("\n")[:-1]]
    assert [r["captures"] for r in records] == [[f"a{breaker}b"], [f"c{breaker}d"], [breaker]]


@pytest.mark.parametrize("breaker", _LINE_BREAKERS)
def test_eval_log_file_ends_a_line_only_at_a_line_end(tmp_path, monkeypatch, capsys,
                                                      breaker):
    counted = []
    run_stream = evaluation.run_stream

    def recording_run_stream(repo, lines, tree=None, header_pattern=None):
        results, counts = run_stream(repo, lines, tree, header_pattern)
        counted.append((counts.total, counts.matched))
        return results, counts

    monkeypatch.setattr(evaluation, "run_stream", recording_run_stream)
    templates = tmp_path / "templates.txt"
    templates.write_text("user <.*> logged in\n", encoding="utf-8")
    log = tmp_path / "app.log"
    log.write_bytes(f"user a{breaker}b logged in\ruser c{breaker}d logged in\r\n"
                    .encode("utf-8"))
    assert main(["eval", str(templates), str(templates), "--log-file", str(log),
                 "--repetitions", "1"]) == EXIT_OK
    assert counted == [(2, 2)]


def test_parse_out_matches_golden_bytes(tmp_path, capsys):
    # quotes, backslashes, control characters, non-ASCII, empty captures, routed lines
    golden = FIXTURES / "parse_golden"
    out = tmp_path / "out.jsonl"
    argv = ["parse", str(golden / "repo.jsonl"), str(golden / "app.log"),
            "--allow-empty-inner", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert "15 lines: 8 matched, 5 routed, 2 dropped" in capsys.readouterr().out
    assert out.read_bytes() == (golden / "expected.jsonl").read_bytes()


def test_extract_matches_golden_bytes(tmp_path, monkeypatch, capsys):
    # the example project, two generated projects with their classes renamed
    # apart (reports are keyed by class name), and one file with CRLF line
    # ends, tabs, comments, escapes and trailing blanks; the expected files
    # were written before the lexer made one match per token
    golden = FIXTURES / "extract_golden"
    shutil.copytree(golden / "project", tmp_path / "project")
    shutil.copytree(EXAMPLE_PROJECT, tmp_path / "project" / "example")
    monkeypatch.chdir(tmp_path)
    assert main(["extract", "project", "--out", "repo.jsonl",
                 "--report-dir", "reports"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert out.rsplit(" (", 1)[0] + "\n" == (golden / "expected" / "stdout.txt").read_text()
    assert Path("repo.jsonl").read_bytes() == (golden / "expected" / "repo.jsonl").read_bytes()
    expected = {path.name: path.read_bytes()
                for path in (golden / "expected" / "reports").iterdir()}
    assert {path.name: path.read_bytes() for path in Path("reports").iterdir()} == expected


_RECORD_TEXT = st.text(st.one_of(
    st.characters(max_codepoint=0x7F),  # quotes, backslash, C0 controls, DEL
    st.sampled_from("\u0085\u2028\u2029\ufeffé日🚀"), st.characters()), max_size=8)
_MATCHED = st.builds(MatchResult, log_line=_RECORD_TEXT, matched=st.just(True),
                     template_id=st.integers(0, 10**9), template=_RECORD_TEXT,
                     captures=st.lists(_RECORD_TEXT, max_size=3).map(tuple))
_ROUTED = st.builds(MatchResult, log_line=_RECORD_TEXT, matched=st.just(False),
                    cluster_id=st.integers(0, 10**9), cluster_template=_RECORD_TEXT)
_UNCLUSTERED = st.builds(MatchResult, log_line=_RECORD_TEXT, matched=st.just(False))


@settings(max_examples=500, deadline=None)
@given(st.one_of(_MATCHED, _ROUTED, _UNCLUSTERED))
def test_record_line_is_the_reference_json(result):
    assert _record_line(result) == json.dumps(result_record(result), ensure_ascii=False)


@pytest.mark.parametrize("source", ["hard-link", "stdin", "repository"])
def test_parse_refuses_out_that_is_the_log(tmp_path, monkeypatch, capsys, source):
    repo = _three_template_repo(tmp_path)
    repo_data = repo.read_bytes()
    log = tmp_path / "app.log"
    data = "".join(line + "\n" for line in _stream_lines(8)).encode()
    log.write_bytes(data)
    if source == "stdin":
        stdin = open(log, encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        argv = ["parse", str(repo), "-", "--out", str(log)]
    elif source == "repository":
        os.link(repo, tmp_path / "alias.jsonl")
        argv = ["parse", str(repo), str(log), "--out", str(tmp_path / "alias.jsonl")]
    else:
        os.link(log, tmp_path / "alias.log")
        argv = ["parse", str(repo), str(log), "--out", str(tmp_path / "alias.log")]
    try:
        assert main(argv) == EXIT_FATAL
    finally:
        if source == "stdin":
            stdin.close()
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --out ") and captured.out == ""
    assert log.read_bytes() == data and repo.read_bytes() == repo_data
    # a device is not truncated by opening it, so it may be both
    assert main(["parse", str(repo), os.devnull, "--out", os.devnull]) == EXIT_OK


def test_parse_interrupt_prints_the_summary_so_far(tmp_path, monkeypatch, capsys):
    repo = _three_template_repo(tmp_path)
    before = repo.read_bytes()
    out = tmp_path / "out.jsonl"

    def follow():  # a followed log that the user ends with Ctrl-C after 5 lines
        yield from (line + "\n" for line in _stream_lines(5))
        raise KeyboardInterrupt

    monkeypatch.setattr("sys.stdin", follow())
    argv = ["parse", str(repo), "-", "--out", str(out), "--append-blackbox"]
    try:
        code = main(argv)
    except KeyboardInterrupt:
        pytest.fail("the interrupt escaped parse")
    assert code == EXIT_INTERRUPTED == 130
    captured = capsys.readouterr()
    assert captured.err == "interrupted\n"
    assert captured.out.startswith("5 lines: 4 matched, 1 routed, 0 dropped")
    assert "appended" not in captured.out and repo.read_bytes() == before
    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert [r["line"] for r in records] == _stream_lines(5)


@pytest.mark.parametrize("record", [
    '{"level": "info"}', "[1]", '"str"', '{"template": 5}',
    '{"template": "a <.*>", "methods": 7}', "[" * 100_000 + "]" * 100_000],
    ids=["no-template", "list", "string", "number-template", "number-methods",
         "too-deep"])
@pytest.mark.parametrize("command", ["parse", "eval"])
def test_malformed_repository_record_is_fatal(tmp_path, capsys, record, command):
    repo = tmp_path / "bad.jsonl"
    repo.write_text('{"template": "ok <.*>"}\n' + record + "\n", encoding="utf-8")
    other = tmp_path / "other.txt"
    other.write_text("ok <.*>\n", encoding="utf-8")
    assert main([command, str(repo), str(other)]) == EXIT_FATAL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{repo}: line 2: " in err


def test_parse_header_stripping(repo_path, tmp_path, capsys):
    log = tmp_path / "app.log"
    log.write_text("2024-03-01 12:00:00 INFO User_X_NotFound\n", encoding="utf-8")
    code = main(["parse", str(repo_path), str(log),
                 "--header-pattern", r"^\d{4}-\d{2}-\d{2} \S+ \w+ "])
    assert code == EXIT_OK
    assert "1 matched" in capsys.readouterr().out


def test_parse_duplicate_repository_is_fatal(tmp_path, capsys):
    repo = tmp_path / "repo.jsonl"
    record = {"template": "dup <.*>", "level": "info", "methods": [],
              "source": "whitebox"}
    repo.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n",
                    encoding="utf-8")
    log = tmp_path / "app.log"
    log.write_text("dup x\n", encoding="utf-8")
    assert main(["parse", str(repo), str(log)]) == EXIT_FATAL
    assert "duplicate template body" in capsys.readouterr().err


def test_parse_missing_repo_is_fatal(tmp_path, capsys):
    log = tmp_path / "app.log"
    log.write_text("x\n", encoding="utf-8")
    assert main(["parse", str(tmp_path / "none.jsonl"), str(log)]) == EXIT_FATAL


def test_eval_perfect_scores(tmp_path, capsys):
    parsed = tmp_path / "parsed.txt"
    truth = tmp_path / "truth.txt"
    parsed.write_text("a <.*> b\nqueue empty\n", encoding="utf-8")
    truth.write_text("a <.*> b\nqueue empty\n", encoding="utf-8")
    out = tmp_path / "eval.json"
    code = main(["eval", str(parsed), str(truth), "--out", str(out)])
    assert code == EXIT_OK
    assert "precision 1.000  recall 1.000  f1 1.000" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["precision"] == 1.0
    assert payload["f1"] == 1.0
    assert payload["timing"] is None


@pytest.mark.parametrize("breaker", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"])
def test_eval_reads_both_sides_by_the_same_line_rule(tmp_path, capsys, breaker):
    # a line ends only at "\n", on the parsed side as in the ground truth
    templates = tmp_path / "templates.txt"
    templates.write_text(f"a{breaker}b <.*>\nqueue empty\n", encoding="utf-8")
    assert main(["eval", str(templates), str(templates)]) == EXIT_OK
    assert "precision 1.000  recall 1.000  f1 1.000" in capsys.readouterr().out


def test_eval_repository_input(repo_path, tmp_path, capsys):
    truth = tmp_path / "truth.txt"
    truth.write_text("User_<.*>_NotFound\nInvalid_User_ID<.*>\n"
                     "Guest_<.*>\nUnknown_<.*>\n", encoding="utf-8")
    assert main(["eval", str(repo_path), str(truth)]) == EXIT_OK
    assert "precision 1.000  recall 1.000  f1 1.000" in capsys.readouterr().out


def test_eval_with_timing(repo_path, tmp_path, capsys):
    truth = tmp_path / "truth.txt"
    truth.write_text("User_<.*>_NotFound\n", encoding="utf-8")
    log = tmp_path / "app.log"
    log.write_text("User_A_NotFound\n" * 50, encoding="utf-8")
    code = main(["eval", str(repo_path), str(truth), "--log-file", str(log),
                 "--repetitions", "2"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "online parsing time" in out and "2 runs" in out


def test_eval_timing_runs_the_parse_workload(tmp_path, monkeypatch, capsys):
    # the timed pass strips the header as parse does, and runs against the
    # parsed templates deduplicated up to equality, first occurrence kept
    passes = []
    run_stream = evaluation.run_stream

    def recording_run_stream(repo, lines, tree=None, header_pattern=None):
        results, counts = run_stream(repo, lines, tree, header_pattern)
        passes.append(([e.template.body.render() for e in repo.entries], counts))
        return results, counts

    monkeypatch.setattr(evaluation, "run_stream", recording_run_stream)
    parsed = tmp_path / "parsed.txt"
    parsed.write_text("a <.*> <.*> b\nqueue empty\na <.*> b\nqueue empty\n",
                      encoding="utf-8")
    truth = tmp_path / "truth.txt"
    truth.write_text("a <.*> b\nqueue empty\n", encoding="utf-8")
    log = tmp_path / "app.log"
    log.write_text("2024-03-01 12:00:00 INFO a 1 2 b\n"
                   "2024-03-01 12:00:01 WARN queue empty\n", encoding="utf-8")
    code = main(["eval", str(parsed), str(truth), "--log-file", str(log),
                 "--repetitions", "2",
                 "--header-pattern", r"^\d{4}-\d{2}-\d{2} \S+ \w+ "])
    assert code == EXIT_OK
    assert len(passes) == 2
    for templates, counts in passes:
        assert sorted(templates) == ["a <.*> <.*> b", "queue empty"]
        assert counts.matched == 2 and counts.routed == 0


def test_eval_bad_truth_is_fatal(tmp_path, capsys):
    parsed = tmp_path / "parsed.txt"
    truth = tmp_path / "truth.txt"
    parsed.write_text("a <.*>\n", encoding="utf-8")
    truth.write_text("a <.*><.*>\n", encoding="utf-8")
    assert main(["eval", str(parsed), str(truth)]) == EXIT_FATAL
    assert "line 1" in capsys.readouterr().err


def test_eval_out_is_json_dumps_indent_2_of_the_report(repo_path, tmp_path, capsys):
    truth = tmp_path / "truth.txt"
    truth.write_text("Guest_<.*>\nUser_<.*>_NotFound\nnot extracted\n", encoding="utf-8")
    log = tmp_path / "app.log"
    log.write_text("User_A_NotFound\n", encoding="utf-8")
    out = tmp_path / "eval.json"
    assert main(["eval", str(repo_path), str(truth), "--log-file", str(log),
                 "--repetitions", "1", "--out", str(out)]) == EXIT_OK
    report = score([t.body for t in load_repository(repo_path)], load_ground_truth(truth))
    report.timing = json.loads(out.read_bytes())["timing"]  # the one measured field
    assert report.matched_pairs and report.timing > 0
    assert out.read_bytes() == (json.dumps(vars(report), indent=2) + "\n").encode()


# Strings with the characters json escapes in its own ways: quote, backslash,
# C0 controls, DEL, non-ASCII, U+2028, astral (a surrogate pair) and a lone
# surrogate.
_JSON_STRINGS = st.text(alphabet=st.one_of(
    st.characters(), st.sampled_from('"\\\x00\x1f\x7f\xe9\u2028\U0001f600\ud800')))
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _JSON_STRINGS),
    lambda children: st.one_of(st.lists(children), st.lists(children).map(tuple),
                               st.dictionaries(_JSON_STRINGS, children)),
    max_leaves=25)


@given(_JSON_VALUES)
def test_json_text_is_json_dumps_indent_2(value):
    assert _json_text(value) == json.dumps(value, indent=2)


def test_json_text_refuses_what_json_refuses():
    with pytest.raises(TypeError):
        _json_text({"a": [{1, 2}]})


def test_write_file_finishes_after_short_writes(tmp_path, monkeypatch):
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, bytes(data[:3])))
    path = tmp_path / "out.txt"
    path.write_bytes(b"an older and much longer content")
    _write_file(path, b"0123456789\n")
    assert path.read_bytes() == b"0123456789\n"


def test_write_file_writes_to_a_device(tmp_path, capsys):
    _write_file(os.devnull, b"0123456789\n")
    assert main(["report", str(EXAMPLE_PROJECT), "--out", os.devnull,
                 "--json", os.devnull]) == EXIT_OK


def test_report_stdout_matches_golden(capsys):
    assert main(["report", str(EXAMPLE_PROJECT)]) == EXIT_OK
    assert capsys.readouterr().out == GOLDEN_REPORT.read_text(encoding="utf-8")


def test_report_writes_files(tmp_path):
    text_out = tmp_path / "report.txt"
    json_out = tmp_path / "report.json"
    code = main(["report", str(EXAMPLE_PROJECT), "--out", str(text_out),
                 "--json", str(json_out)])
    assert code == EXIT_OK
    assert text_out.read_text(encoding="utf-8") == GOLDEN_REPORT.read_text(
        encoding="utf-8")
    structured = json.loads(json_out.read_text())
    assert structured["call_count"] == 2
    assert json_out.read_bytes() == (json.dumps(structured, indent=2) + "\n").encode()


def test_config_file_and_flag_override(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text("tree:\n  sim_threshold: 0.9\n", encoding="utf-8")
    out = tmp_path / "repo.jsonl"
    code = main(["extract", str(EXAMPLE_PROJECT), "--out", str(out),
                 "--config", str(config), "--max-paths-per-site", "1"])
    assert code == EXIT_OK
    # the budget override caps each site at one path
    assert "2 paths" in capsys.readouterr().out


def test_bad_config_is_fatal(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text("tree:\n  dept: 4\n", encoding="utf-8")
    code = main(["extract", str(EXAMPLE_PROJECT), "--out",
                 str(tmp_path / "repo.jsonl"), "--config", str(config)])
    assert code == EXIT_FATAL
    assert "dept" in capsys.readouterr().err


@pytest.mark.parametrize("command, body, key, message", [
    ("parse", "tree: {depth: 2.5}\n", "tree.depth", "must be an integer"),
    ("extract", "gateway: {max_retries: 1.5}\n", "gateway.max_retries", "must be an integer"),
    ("extract", "gateway: {endpoint: 5}\n", "gateway.endpoint", "must be a string"),
])
def test_config_value_of_the_wrong_type_is_fatal(repo_path, tmp_path, capsys,
                                                 command, body, key, message):
    config = tmp_path / "config.yaml"
    config.write_text(body, encoding="utf-8")
    log = tmp_path / "app.log"
    log.write_text("connect to 10.0.0.1 failed\n", encoding="utf-8")
    inputs = [str(repo_path), str(log)] if command == "parse" else [
        str(EXAMPLE_PROJECT), "--out", str(tmp_path / "out.jsonl")]
    assert main([command, *inputs, "--config", str(config)]) == EXIT_FATAL
    err = capsys.readouterr().err
    assert f"error: {key} {message}" in err and "Traceback" not in err


def test_bad_flag_value_is_fatal(tmp_path, capsys):
    code = main(["extract", str(EXAMPLE_PROJECT), "--out",
                 str(tmp_path / "repo.jsonl"), "--tree-depth", "1"])
    assert code == EXIT_FATAL


def test_conservation_across_parse(repo_path, tmp_path, capsys):
    log = tmp_path / "app.log"
    lines = (["User_%d_NotFound" % i for i in range(10)]
             + ["noise entry %d here" % i for i in range(5)]
             + ["", "   "])
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["parse", str(repo_path), str(log)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "17 lines: 10 matched, 5 routed, 2 dropped" in out


# Each override flag, the YAML key it overrides, a file value and a flag
# value that differ, and the Config field both must land on.
FLAG_CASES = [
    (["--endpoint", "https://flag.test/v1"], "gateway", "endpoint",
     "https://file.test/v1", "https://flag.test/v1", lambda c: c.gateway.endpoint),
    (["--model", "flag-model"], "gateway", "model", "file-model", "flag-model",
     lambda c: c.gateway.model),
    (["--temperature", "0.7"], "gateway", "temperature", 0.3, 0.7,
     lambda c: c.gateway.temperature),
    (["--timeout", "7.5"], "gateway", "timeout", 3.0, 7.5,
     lambda c: c.gateway.timeout),
    (["--max-retries", "5"], "gateway", "max_retries", 1, 5,
     lambda c: c.gateway.max_retries),
    (["--min-const-chars", "2"], "postprocess", "min_const_chars", 6, 2,
     lambda c: c.postprocess.min_const_chars),
    (["--min-const-token-ratio", "0.5"], "postprocess", "min_const_token_ratio",
     0.1, 0.5, lambda c: c.postprocess.min_const_token_ratio),
    (["--enable-verifier"], "postprocess", "enable_verifier", False, True,
     lambda c: c.postprocess.enable_verifier),
    (["--no-enable-verifier"], "postprocess", "enable_verifier", True, False,
     lambda c: c.postprocess.enable_verifier),
    (["--tree-depth", "6"], "tree", "depth", 3, 6, lambda c: c.tree_depth),
    (["--sim-threshold", "0.8"], "tree", "sim_threshold", 0.5, 0.8,
     lambda c: c.tree_sim_threshold),
    (["--max-children", "12"], "tree", "max_children", 30, 12,
     lambda c: c.tree_max_children),
    (["--max-call-depth", "3"], "paths", "max_call_depth", 5, 3,
     lambda c: c.budget.max_call_depth),
    (["--max-paths-per-site", "2"], "paths", "max_paths_per_site", 9, 2,
     lambda c: c.budget.max_paths_per_site),
    (["--header-pattern", "^flag "], "matching", "header_pattern", "^file ",
     "^flag ", lambda c: c.header_pattern),
    (["--allow-empty-inner"], "matching", "allow_empty_inner", False, True,
     lambda c: c.allow_empty_inner),
    (["--no-allow-empty-inner"], "matching", "allow_empty_inner", True, False,
     lambda c: c.allow_empty_inner),
    (["--builtin-methods", "trim, valueOf"], "analyzer", "builtin_methods",
     ["concat"], ["trim", "valueOf"], lambda c: tuple(c.builtin_methods)),
    (["--workers", "3"], None, "workers", 2, 3, lambda c: c.workers),
]


def _yaml_config(path, section, key, value):
    data = {key: value} if section is None else {section: {key: value}}
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


def _flag_config(argv):
    args = build_parser().parse_args(["report", str(EXAMPLE_PROJECT)] + argv)
    return _load_config(args)


def _field_value(value):
    return tuple(value) if isinstance(value, list) else value


def test_flag_cases_cover_every_override_flag():
    parser = argparse.ArgumentParser()
    _config_flags(parser)
    declared = {opt for action in parser._actions for opt in action.option_strings}
    assert declared - {"-h", "--help", "--config"} == {case[0][0] for case in FLAG_CASES}


@pytest.mark.parametrize(
    "argv,section,key,file_value,flag_value,field", FLAG_CASES,
    ids=[case[0][0] for case in FLAG_CASES])
def test_flag_sets_its_field_over_the_config_file(tmp_path, argv, section, key,
                                                  file_value, flag_value, field):
    config_file = _yaml_config(tmp_path / "file.yaml", section, key, file_value)
    assert field(load_config(config_file)) == _field_value(file_value)

    config = _flag_config(argv + ["--config", str(config_file)])
    assert field(config) == _field_value(flag_value)
    # the flag lands on the same field as the YAML key, and nowhere else
    same = load_config(_yaml_config(tmp_path / "same.yaml", section, key, flag_value))
    assert config == same
    assert _flag_config(argv) == same


# argv rows for the command-line parser: ``main`` builds the arguments of
# the command it dispatches to only, and must parse each row as the full
# parser does, with the same help and errors.
ARGV_ROWS = {
    "extract": ["extract", "proj", "--out", "r.jsonl", "--report-dir", "d",
                "--workers", "2", "--builtin-methods", "trim,valueOf"],
    "parse": ["parse", "r.jsonl", "-", "--out", "o.jsonl", "--append-blackbox",
              "--header-pattern", "^x ", "--config", "c.yaml"],
    "eval": ["eval", "p.txt", "t.txt", "--log-file", "l", "--repetitions", "3",
             "--out", "e.json", "--tree-depth", "5"],
    "report": ["report", "proj", "--json", "r.json", "--max-call-depth", "3"],
    "help before the command": ["-h", "eval"],
    "help after the command": ["eval", "-h"],
    "help after the positionals": ["report", "proj", "--help"],
    "no argv": [],
    "unknown command": ["evaluate", "p.txt", "t.txt"],
    "missing positional": ["eval", "p.txt"],
    "extra positional": ["eval", "p.txt", "t.txt", "u.txt"],
    "bad int": ["eval", "p.txt", "t.txt", "--workers", "x"],
    "unknown option": ["eval", "a", "b", "--bogus"],
    "unknown option before the command": ["--bogus", "eval", "p.txt", "t.txt"],
    "ambiguous option": ["parse", "r", "l", "--he", "x"],
    "abbreviated option": ["eval", "p.txt", "t.txt", "--rep", "3"],
    "option with equals": ["eval", "p.txt", "t.txt", "--out=x"],
    "negated flags": ["extract", "proj", "--out", "r", "--no-enable-verifier",
                      "--no-allow-empty-inner"],
    "double dash": ["eval", "--", "p.txt", "t.txt"],
    "double dash before the command": ["--", "eval", "p.txt", "t.txt"],
    "command name as a positional": ["report", "eval", "--out", "parse"],
    "missing required option": ["extract", "proj"],
}


@pytest.fixture
def handled(monkeypatch):
    """The namespaces the commands are called with, each command replaced by
    one that records its namespace and returns EXIT_OK."""
    seen = []
    for name in cli.COMMANDS:
        monkeypatch.setattr(cli, f"cmd_{name}",
                            lambda args: seen.append(args) or EXIT_OK)
    return seen


def _parse_outcome(parse, argv, capsys):
    """(namespace items or exit code, stdout, stderr) of ``parse(argv)``."""
    try:
        outcome = list(vars(parse(argv)).items())
    except SystemExit as exc:
        outcome = exc.code
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


@pytest.mark.parametrize("argv", ARGV_ROWS.values(), ids=ARGV_ROWS.keys())
def test_main_parses_as_the_full_parser(handled, capsys, argv):
    expected = _parse_outcome(lambda argv: build_parser().parse_args(argv), argv, capsys)
    assert _parse_outcome(lambda argv: main(argv) == EXIT_OK and handled.pop(),
                          argv, capsys) == expected
    assert handled == []


def test_main_reads_sys_argv_by_default(monkeypatch, handled):
    monkeypatch.setattr(sys, "argv", ["logsmith", "eval", "p.txt", "t.txt"])
    assert main() == EXIT_OK
    (args,) = handled
    assert (args.command, args.parsed, args.truth) == ("eval", "p.txt", "t.txt")
    assert args == build_parser().parse_args(sys.argv[1:])


def _generated_corpus(directory, seeds):
    """Generator projects, each moved into a package of its own."""
    for seed in seeds:
        package = f"com.gen.s{seed}"
        project = directory / f"p{seed:03d}"
        project.mkdir(parents=True)
        for name, text in generate_project(seed):
            text = text.replace("package com.gen;", f"package {package};", 1)
            text = text.replace("import com.gen.", f"import {package}.")
            (project / name).write_text(text, encoding="utf-8")
    return directory


def _extract_outputs(project_dir, out_dir, flags):
    out_dir.mkdir()
    out = out_dir / "repo.jsonl"
    reports = out_dir / "reports"
    assert main(["extract", str(project_dir), "--out", str(out),
                 "--report-dir", str(reports)] + flags) == EXIT_OK
    files = {path.name: path.read_bytes() for path in sorted(reports.iterdir())}
    return out.read_bytes(), files


@pytest.mark.parametrize("corpus", ["example", "generated"])
def test_extract_workers_match_serial_run(tmp_path, capsys, corpus):
    if corpus == "example":
        project_dir = EXAMPLE_PROJECT
    else:
        project_dir = _generated_corpus(tmp_path / "corpus", range(40))
    serial = _extract_outputs(project_dir, tmp_path / "serial", ["--workers", "1"])
    pooled = _extract_outputs(project_dir, tmp_path / "pooled", ["--workers", "3"])
    assert serial[0] and serial[1]
    assert pooled == serial


def _logging_project(directory: Path, names) -> Path:
    """One class per name, each with one log call of its own."""
    directory.mkdir()
    for name in names:
        (directory / f"{name}.java").write_text(
            f'package p;\nclass {name} {{\n  void f() {{ log.info("{name} ran"); }}\n}}\n',
            encoding="utf-8")
    return directory


class _RecordingGateway(MockGateway):
    """The mock, recording at each prompt the files then in ``report_dir``."""

    def __init__(self, report_dir: Path | None = None):
        super().__init__()
        self.report_dir = report_dir
        self.seen: list[set[str]] = []

    def send(self, prompt: str) -> str:
        present = self.report_dir is not None and self.report_dir.is_dir()
        self.seen.append(set(os.listdir(self.report_dir)) if present else set())
        return super().send(prompt)


@pytest.mark.parametrize("workers", [1, 3])
def test_extract_project_enumerates_and_sends_as_units_are_pulled(tmp_path, workers):
    names = [f"C{index:02d}" for index in range(12)]
    project = _logging_project(tmp_path / "project", names)
    files = [extract.ProjectFile(unit=parse_source(path.read_text(), str(path)),
                                 text=path.read_text())
             for path in sorted(project.glob("*.java"))]
    recording = _RecordingGateway()
    units = extract.extract_project(files, recording, workers=workers)
    assert recording.seen == []  # nothing runs before the first unit is pulled
    first = next(units)
    # one unit at a time, or a window of 2 * workers units in flight
    assert 1 <= len(recording.seen) <= (1 if workers == 1 else 2 * workers)
    rest = list(units)
    assert [unit.unit.class_name for unit in [first] + rest] == names
    assert len(recording.seen) == len(names)


def test_extract_writes_each_units_reports_before_the_next_prompt(tmp_path, monkeypatch):
    names = ["A", "B", "C", "D", "E"]
    project = _logging_project(tmp_path / "project", names)
    reports = tmp_path / "reports"
    recording = _RecordingGateway(reports)
    monkeypatch.setattr(extract, "make_gateway", lambda *args: recording)
    assert main(["extract", str(project), "--out", str(tmp_path / "repo.jsonl"),
                 "--report-dir", str(reports)]) == EXIT_OK
    assert len(recording.seen) == len(names)
    for done, (name, present) in enumerate(zip(names, recording.seen)):
        assert present == {f"{earlier}.report.{kind}" for earlier in names[:done]
                           for kind in ("txt", "json")}, name
