"""One scaling check per input shape: cost grows about linearly with size.

Each row builds one input at size n and at 4n, runs the command on it
in-process, and compares the CPU time (``time.process_time``) of the two
runs. A linear stage grows about 4x, so the bound of 6x needs no figure for
the host's speed, while a quadratic one grows about 16x. Each size takes the
least of a few runs, which keeps a stray pause from reading as growth.

The rows cover the source-file input slot: ``report`` parses every file,
traces each log call's paths and renders the textual and structured reports.
"""

from __future__ import annotations

import time

import pytest

from logsmith.cli import EXIT_OK, EXIT_PARTIAL, main

GROWTH_BOUND = 6.0
RUNS = 5


def _unit(body: str) -> str:
    return f"package p;\nclass X {{\n{body}\n}}\n"


def _chain(n: int) -> str:
    return " + ".join(["a", '"x"'] * (n // 2))


# shape: (the text of X.java at size n, size n, the exit code)
_SOURCE_FILE_ROWS = {
    "plus chain in a return": (
        lambda n: _unit("  String g(String a) { return " + _chain(n) + "; }\n"
                        '  void f(String a) { log.info("v=" + g(a)); }'),
        1_000, EXIT_OK),
    "plus chain in a log argument": (
        lambda n: _unit("  void f(String a) { log.info(" + _chain(n) + "); }"),
        1_000, EXIT_OK),
    "unterminated block comment": (
        lambda n: _unit("  /* " + "word " * n), 50_000, EXIT_PARTIAL),
    "unterminated string literal": (
        lambda n: _unit('  String g() { return "' + "x" * n), 200_000, EXIT_PARTIAL),
    "one-line logging methods": (
        lambda n: _unit("\n".join(f'  void m{i}(String a) {{ log.info("m{i} " + a); }}'
                                  for i in range(n))),
        250, EXIT_OK),
    "bare calls in one class": (
        lambda n: _unit("\n".join(f'  void m{i}(String a) {{ log.info("m{i} " + h(a)); }}'
                                  for i in range(n))
                        + "\n  String h(String a) { return a; }"),
        250, EXIT_OK),
}


def _cpu(tmp_path, capsys, text: str, code: int) -> float:
    project = tmp_path / "project"
    project.mkdir(exist_ok=True)
    (project / "X.java").write_text(text, encoding="utf-8")
    argv = ["report", str(project), "--out", str(tmp_path / "report.txt"),
            "--json", str(tmp_path / "report.json")]
    best = float("inf")
    for _ in range(RUNS):
        start = time.process_time()
        assert main(argv) == code
        best = min(best, time.process_time() - start)
    err = capsys.readouterr().err
    if code == EXIT_OK:
        assert err == ""
        assert '"truncated": true' not in (tmp_path / "report.json").read_text(encoding="utf-8")
    return best


@pytest.mark.parametrize("shape", sorted(_SOURCE_FILE_ROWS))
def test_source_file_cost_grows_linearly(tmp_path, capsys, shape):
    build, n, code = _SOURCE_FILE_ROWS[shape]
    small = _cpu(tmp_path, capsys, build(n), code)
    large = _cpu(tmp_path, capsys, build(4 * n), code)
    assert large <= GROWTH_BOUND * small, f"{shape}: {small:.4f}s -> {large:.4f}s"
