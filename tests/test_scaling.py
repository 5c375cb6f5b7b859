"""One scaling check per input shape: cost grows about linearly with size.

Each row builds one input at size n and at 4n, runs the command on it
in-process, and compares the CPU time (``time.process_time``) of the two
runs. A linear stage grows about 4x, so the bound of 6x needs no figure for
the host's speed, while a quadratic one grows about 16x. Each size takes the
least of a few runs, which keeps a stray pause from reading as growth.

The source-file rows run ``report``, which parses every file, traces each
log call's paths and renders the textual and structured reports. The
gateway-reply row runs ``parse_response`` on one reply, and the log-stream
row runs ``parse`` with an empty repository, so every line goes to the
black-box tree. The repository row runs ``parse`` of one line against a
repository of n templates, the truth-file row ``eval`` of n templates
against n truth lines, and the config row ``report`` of a small class with
a config naming n built-in methods. The repeated-template row runs
``extract`` on one file whose n methods log one template, and the
template-body row ``TemplateBody.from_segments`` on n adjacent constants.
"""

from __future__ import annotations

import time

import pytest

from logsmith.cli import EXIT_OK, EXIT_PARTIAL, main
from logsmith.templates import Template, TemplateBody, save_repository
from logsmith.whitebox.responses import MalformedResponse, parse_response

GROWTH_BOUND = 6.0
RUNS = 5


def _unit(body: str, imports: str = "") -> str:
    return f"package p;\n{imports}class X {{\n{body}\n}}\n"


def _chain(n: int) -> str:
    return " + ".join(["a", '"x"'] * (n // 2))


# shape: (the text of X.java at size n, size n, the exit code, whether a
# log call is truncated)
_SOURCE_FILE_ROWS = {
    "plus chain in a return": (
        lambda n: _unit("  String g(String a) { return " + _chain(n) + "; }\n"
                        '  void f(String a) { log.info("v=" + g(a)); }'),
        1_000, EXIT_OK, False),
    "plus chain in a log argument": (
        lambda n: _unit("  void f(String a) { log.info(" + _chain(n) + "); }"),
        1_000, EXIT_OK, False),
    "call chain in a return": (
        lambda n: _unit("  String g(String a) { return a" + ".trim()" * n + "; }\n"
                        '  void f(String a) { log.info("v=" + g(a)); }'),
        1_000, EXIT_OK, False),
    "call chain in a log argument": (
        lambda n: _unit('  void f(String a) { log.info("v=" + a' + ".trim()" * n + "); }"),
        1_000, EXIT_OK, False),
    "unterminated block comment": (
        lambda n: _unit("  /* " + "word " * n), 50_000, EXIT_PARTIAL, False),
    "unterminated string literal": (
        lambda n: _unit('  String g() { return "' + "x" * n), 200_000, EXIT_PARTIAL, False),
    "one-line logging methods": (
        lambda n: _unit("\n".join(f'  void m{i}(String a) {{ log.info("m{i} " + a); }}'
                                  for i in range(n))),
        250, EXIT_OK, False),
    "bare calls in one class": (
        lambda n: _unit("\n".join(f'  void m{i}(String a) {{ log.info("m{i} " + h(a)); }}'
                                  for i in range(n))
                        + "\n  String h(String a) { return a; }"),
        250, EXIT_OK, False),
    # each helper returns through the next by its class name, and every eighth
    # logs, so each class-name call is traced about once, to the call depth bound
    "class-name call chain": (
        lambda n: _unit("\n".join(
            f"  static String g{i}(String a) {{"
            + (f' log.info("g{i} " + X.g{i + 1}(a));' if i % 8 == 0 else "")
            + f' return X.g{i + 1}(a) + "x"; }}' for i in range(n))
            + f"\n  static String g{n}(String a) {{ return a; }}"),
        400, EXIT_OK, True),
    # each class name is found among the n imports, and names no project class
    "imports and class-name calls": (
        lambda n: _unit('  void f(String a) { log.info("v=" + '
                        + " + ".join(f"C{i}.f(a)" for i in range(n)) + "); }",
                        "".join(f"import q.C{i};\n" for i in range(n))),
        250, EXIT_OK, False),
    "parameters of one method": (
        lambda n: _unit("  void f(" + ", ".join(f"String a{i}" for i in range(n))
                        + ') { log.info("v=" + a0); }'),
        1_000, EXIT_OK, False),
}


def _least_cpu(run) -> float:
    """The least CPU time of ``RUNS`` calls of ``run``."""
    best = float("inf")
    for _ in range(RUNS):
        start = time.process_time()
        run()
        best = min(best, time.process_time() - start)
    return best


def _grows_linearly(shape: str, small: float, large: float) -> None:
    assert large <= GROWTH_BOUND * small, f"{shape}: {small:.4f}s -> {large:.4f}s"


def _main_cpu(argv: list[str], code: int = EXIT_OK) -> float:
    """The least CPU time of running ``main(argv)``, which must exit ``code``."""
    codes = []
    best = _least_cpu(lambda: codes.append(main(argv)))
    assert set(codes) == {code}
    return best


def _report_cpu(tmp_path, capsys, text: str, code: int, truncated: bool,
                *config: str) -> float:
    project = tmp_path / "project"
    project.mkdir(exist_ok=True)
    (project / "X.java").write_text(text, encoding="utf-8")
    best = _main_cpu(["report", str(project), "--out", str(tmp_path / "report.txt"),
                      "--json", str(tmp_path / "report.json"), *config], code)
    err = capsys.readouterr().err
    if code == EXIT_OK:
        assert err == ""
        report = (tmp_path / "report.json").read_text(encoding="utf-8")
        assert ('"truncated": true' in report) == truncated
    return best


@pytest.mark.parametrize("shape", sorted(_SOURCE_FILE_ROWS))
def test_source_file_cost_grows_linearly(tmp_path, capsys, shape):
    build, n, code, truncated = _SOURCE_FILE_ROWS[shape]
    small = _report_cpu(tmp_path, capsys, build(n), code, truncated)
    large = _report_cpu(tmp_path, capsys, build(4 * n), code, truncated)
    _grows_linearly(shape, small, large)


def _extract_cpu(tmp_path, capsys, n: int) -> float:
    project = tmp_path / "project"
    project.mkdir(exist_ok=True)
    (project / "X.java").write_text(
        _unit("\n".join(f'  void m{i}(String a) {{ log.info("done " + a); }}'
                         for i in range(n))), encoding="utf-8")
    best = _main_cpu(["extract", str(project), "--out", str(tmp_path / "repo.jsonl")])
    assert ", 1 templates -> " in capsys.readouterr().out
    return best


def test_repeated_template_cost_grows_linearly(tmp_path, capsys):
    # every method logs one template, so the merge unites n method names
    small, large = _extract_cpu(tmp_path, capsys, 500), _extract_cpu(tmp_path, capsys, 2_000)
    _grows_linearly("logging methods that share one template", small, large)


def test_adjacent_constants_cost_grows_linearly():
    small, large = (_least_cpu(lambda: TemplateBody.from_segments(["0123456789"] * n))
                    for n in (10_000, 40_000))
    _grows_linearly("adjacent constants of a template body", small, large)


def _unparsed_reply(reply: str) -> None:
    with pytest.raises(MalformedResponse):
        parse_response(reply)


def test_gateway_reply_cost_grows_linearly():
    # a reply of many "[" of which none opens a record array
    small, large = (_least_cpu(lambda: _unparsed_reply(reply))
                    for reply in ("[1," * 100_000, "[1," * 400_000))
    _grows_linearly("unclosed array of numbers", small, large)


def _parse_cpu(tmp_path, n: int) -> float:
    # glued key=value pairs make every line new, so each one starts a cluster
    repo, log = tmp_path / "repo.jsonl", tmp_path / "stream.log"
    repo.write_text("", encoding="utf-8")
    log.write_text("".join(f"gauge pulse load={i} q={i * 7} lag={i % 13}ms\n"
                           for i in range(n)), encoding="utf-8")
    return _main_cpu(["parse", str(repo), str(log), "--out", str(tmp_path / "parsed.jsonl")])


def test_log_stream_cost_grows_linearly(tmp_path, capsys):
    small, large = _parse_cpu(tmp_path, 2_500), _parse_cpu(tmp_path, 10_000)
    assert "routed" in capsys.readouterr().out
    _grows_linearly("glued metrics lines", small, large)


def _repository_cpu(tmp_path, n: int) -> float:
    repo, log = tmp_path / "repo.jsonl", tmp_path / "stream.log"
    save_repository([Template(TemplateBody.parse(f"job{i} took <.*> ms on node{i % 97}"))
                     for i in range(n)], repo)
    log.write_text("job7 took 12 ms on node7\n", encoding="utf-8")
    return _main_cpu(["parse", str(repo), str(log), "--out", str(tmp_path / "parsed.jsonl")])


def test_repository_cost_grows_linearly(tmp_path, capsys):
    # kept small: at 2,500 to 10,000 a busy host once read 6.7x, though each
    # stage of the profile, load and compile, grew about 4x
    small, large = _repository_cpu(tmp_path, 1_500), _repository_cpu(tmp_path, 6_000)
    assert "matched" in capsys.readouterr().out
    _grows_linearly("templates in the repository", small, large)


def _eval_cpu(tmp_path, n: int) -> float:
    # every other parsed template is in the truth file
    parsed, truth = tmp_path / "parsed.txt", tmp_path / "truth.txt"
    parsed.write_text("".join(f"job{i} took <.*> ms\n" for i in range(n)), encoding="utf-8")
    truth.write_text("".join(f"job{i} took <.*> {'ms' if i % 2 else 's'}\n"
                             for i in range(n)), encoding="utf-8")
    return _main_cpu(["eval", str(parsed), str(truth), "--out", str(tmp_path / "eval.json")])


def test_truth_file_cost_grows_linearly(tmp_path, capsys):
    small, large = _eval_cpu(tmp_path, 2_500), _eval_cpu(tmp_path, 10_000)
    assert "f1 0.500" in capsys.readouterr().out
    _grows_linearly("templates in the truth file", small, large)


def test_config_cost_grows_linearly(tmp_path, capsys):
    text = _unit('  void f(String a) { log.info("v=" + a.trim()); }')
    config = tmp_path / "config.yaml"

    def report_cpu(n: int) -> float:
        config.write_text("analyzer:\n  builtin_methods: ["
                          + ", ".join(f"m{i}" for i in range(n)) + ", trim]\n",
                          encoding="utf-8")
        return _report_cpu(tmp_path, capsys, text, EXIT_OK, False, "--config", str(config))

    _grows_linearly("built-in method names in the config", report_cpu(1_000),
                    report_cpu(4_000))
