"""Command-line interface: extract, parse, eval, report.

Exit codes: 0 on success (warnings allowed), 1 when inputs were present
but none were usable (e.g. no project file parsed), 2 on fatal errors
such as unreadable inputs or invalid configuration, 130 when ``parse``
is interrupted (SIGINT) after printing the summary of the lines so far.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import time
from contextlib import nullcontext
from json.encoder import encode_basestring as _quote
from json.encoder import encode_basestring_ascii as _quote_ascii
from pathlib import Path
from typing import Iterator

from .analyzer import (
    SourceSyntaxError,
    analyze_project,
    build_report,
    parse_source,
    render_report,
)
from .config import SECTIONS, Config, ConfigError, build_config, read_config
from .evaluation import (
    GroundTruthError,
    canonical,
    load_ground_truth,
    score,
    template_lines,
    time_online,
)
from .matcher import (
    DuplicateTemplate,
    MatchCounts,
    MatchResult,
    compile_repository,
    match_stream,
)
from .templates import (
    Template,
    TemplateBody,
    append_repository,
    load_repository,
    merge_templates,
    save_repository,
)
from .whitebox.extract import ProjectFile, extract_project

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_FATAL = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it


def _names(text: str) -> list[str]:
    return [name.strip() for name in text.split(",") if name.strip()]


def _config_flags(parser: argparse.ArgumentParser) -> None:
    """Override flags; each flag's dest is the config-file key it sets."""
    group = parser.add_argument_group("configuration overrides")
    group.add_argument("--config", metavar="FILE", help="YAML config file")
    group.add_argument("--endpoint", help="gateway endpoint URL (mock: for the mock)")
    group.add_argument("--model", help="gateway model identifier")
    group.add_argument("--temperature", type=float)
    group.add_argument("--timeout", type=float, help="gateway timeout in seconds")
    group.add_argument("--max-retries", type=int)
    group.add_argument("--min-const-chars", type=int)
    group.add_argument("--min-const-token-ratio", type=float)
    group.add_argument("--enable-verifier", action=argparse.BooleanOptionalAction,
                       default=None)
    group.add_argument("--tree-depth", dest="depth", metavar="TREE_DEPTH", type=int)
    group.add_argument("--sim-threshold", type=float)
    group.add_argument("--max-children", type=int)
    group.add_argument("--max-call-depth", type=int)
    group.add_argument("--max-paths-per-site", type=int)
    group.add_argument("--header-pattern", help="regex prefix stripped from log lines")
    group.add_argument("--allow-empty-inner", action=argparse.BooleanOptionalAction,
                       default=None, help="let inner wildcards match empty text")
    group.add_argument("--builtin-methods", type=_names,
                       help="comma-separated built-in method names")
    group.add_argument("--workers", type=int)


def _load_config(args: argparse.Namespace) -> Config:
    """The config file's mapping with every given flag laid over it."""
    data = {}
    if args.config:
        data = read_config(args.config)
        build_config(data)  # a bad file value is fatal even where a flag overrides it
    flags = vars(args)
    for name, keys in SECTIONS.items():
        given = {key: flags[key] for key in keys if flags[key] is not None}
        if given:
            data[name] = {**(data.get(name) or {}), **given}
    if args.workers is not None:
        data["workers"] = args.workers
    return build_config(data)


def _discover(project_dir: str) -> list[Path]:
    """The paths named ``*.java`` under ``project_dir``, sorted. A directory so
    named is searched, not listed, and a symlink to one is not followed; all
    else is listed, for ``_parse_files`` to skip what is not a regular file."""
    root = Path(project_dir)
    if not root.is_dir():
        raise OSError(f"not a directory: {project_dir}")
    return sorted(path for path in root.rglob("*.java") if not path.is_dir())


def _parse_files(paths: list[Path]) -> list[ProjectFile]:
    """The files that parse; each one that does not, or that is not a regular
    file (whose read could block, as a FIFO's does), is skipped with a warning."""
    files: list[ProjectFile] = []
    for path in paths:
        if not path.is_file():
            print(f"warning: skipped {path}: not a regular file", file=sys.stderr)
            continue
        try:
            text = path.read_text(encoding="utf-8")
            files.append(ProjectFile(unit=parse_source(text, str(path)), text=text))
        except (OSError, UnicodeDecodeError, SourceSyntaxError) as exc:
            print(f"warning: skipped {path}: {exc}", file=sys.stderr)
    return files


def cmd_extract(args: argparse.Namespace) -> int:
    config = _load_config(args)
    started = time.perf_counter()
    paths = _discover(args.project_dir)
    if not paths:
        print(f"warning: no source files found under {args.project_dir}",
              file=sys.stderr)
        save_repository([], args.out)
        print(f"0 files, 0 log calls, 0 paths, 0 templates -> {args.out}")
        return EXIT_OK
    files = _parse_files(paths)
    if not files:
        print("error: no source file parsed", file=sys.stderr)
        return EXIT_PARTIAL

    report_dir = Path(args.report_dir) if args.report_dir else Path(f"{args.out}.reports")
    report_dir.mkdir(parents=True, exist_ok=True)
    accepted: list[Template] = []
    calls = paths_found = rejected = 0
    directory = os.open(report_dir, os.O_RDONLY | os.O_DIRECTORY)
    try:  # a name opened in the open directory skips a path walk per file
        # units arrive one by one and are dropped once their reports are
        # written; only their accepted templates are kept, for the merge
        for unit_result in extract_project(
                files, gateway_config=config.gateway, policy=config.postprocess,
                budget=config.budget, builtin_methods=config.builtin_methods,
                workers=config.workers):
            name = unit_result.unit.class_name
            _write_file(f"{name}.report.txt", unit_result.report_text.encode("utf-8"),
                        directory)
            _write_file(f"{name}.report.json",
                        _json_bytes(unit_result.report.to_dict()), directory)
            if unit_result.error is not None:
                print(f"warning: gateway failed for {unit_result.unit.path}: "
                      f"{unit_result.error}", file=sys.stderr)
            calls += unit_result.report.call_count
            paths_found += unit_result.report.total_paths
            rejected += len(unit_result.rejected)
            accepted += unit_result.accepted
    finally:
        os.close(directory)

    templates = merge_templates(accepted)
    save_repository(templates, args.out)
    elapsed = time.perf_counter() - started
    print(f"{len(files)} of {len(paths)} files parsed, {calls} log calls, "
          f"{paths_found} paths, {len(accepted)} accepted, {rejected} rejected, "
          f"{len(templates)} templates -> {args.out} ({elapsed:.3f}s)")
    return EXIT_OK


def _json_text(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for str-keyed dicts, lists,
    tuples, str, int, float, bool and None. ``indent`` makes ``json`` fall back
    to its pure-Python encoder; this one quotes strings with the C function
    that encoder calls, at about half its cost."""
    if isinstance(value, str):
        return _quote_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{_quote_ascii(key)}: {_json_text(item, inner)}"
                 for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(value)  # a float, or json's TypeError for an unknown type


def _json_bytes(value) -> bytes:
    """A structured report file: ``json.dumps(value, indent=2)`` and a newline."""
    return (_json_text(value) + "\n").encode("ascii")


def _write_file(path, data: bytes, dir_fd: int | None = None) -> None:
    """Create or overwrite ``path`` (relative to ``dir_fd`` if given) to hold
    ``data``, with one open and one close. A regular file is cut to the new
    length after the writes, not emptied at open: emptying a file that holds
    data makes ext4 and XFS flush it at close, which made each of ``extract``'s
    report rewrites dearer and slowed the work between them."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666, dir_fd=dir_fd)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):  # a device or a pipe has no length
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _log_lines(source: str) -> Iterator[str]:
    """Lines of a log file (opened now, before any output) or of stdin for ``-``,
    as they arrive; a warning at the end counts lines whose bad UTF-8 became U+FFFD."""
    if source == "-" and not hasattr(sys.stdin, "buffer"):  # a text stream, no bytes
        return (line for text in sys.stdin for line in _split_line_ends(text))
    handle = nullcontext(sys.stdin.buffer) if source == "-" else open(source, "rb")
    return _decode_lines(handle, source)


def _decode_lines(handle, source: str) -> Iterator[str]:
    repaired = 0
    with handle as stream:
        for raw in stream:
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError:
                text = raw.decode("utf-8", errors="replace")
                repaired += 1
            yield from _split_line_ends(text)
    if repaired:
        print(f"warning: replaced invalid UTF-8 in {repaired} lines of {source}",
              file=sys.stderr)


def _split_line_ends(text: str) -> list[str]:
    r"""The log lines of a text whose only "\n", if any, ends it: a line ends at
    "\n", "\r\n" or "\r", as ``eval`` reads its template files, and not at
    the other breaks ``str.splitlines`` knows, such as "\x0c" or U+2028."""
    return text.removesuffix("\n").removesuffix("\r").split("\r")


def _record_line(result: MatchResult) -> str:
    """One match-results record, byte for byte what ``json.dumps(record,
    ensure_ascii=False)`` writes for its keys in this order, without a dict or
    an encoder per line: strings go through ``json``'s own quoting function."""
    head = f'{{"line": {_quote(result.log_line)}, "matched": '
    if result.matched:
        captures = ", ".join(map(_quote, result.captures))
        return (f'{head}true, "template_id": {result.template_id}, '
                f'"template": {_quote(result.template)}, "captures": [{captures}]}}')
    if result.cluster_id is None:
        return f"{head}false}}"
    return (f'{head}false, "cluster_id": {result.cluster_id}, '
            f'"cluster_template": {_quote(result.cluster_template)}}}')


def _refuse_out_is_input(out: str, repo: str, source: str) -> None:
    """Opening ``--out`` truncates it, so it must not be a regular file that
    ``parse`` reads, the repository or the log (a device such as /dev/null
    may be both)."""
    try:
        out_stat = os.stat(out)
    except OSError:  # no --out yet
        return
    for what, path in (("repository", repo), ("log input", source)):
        try:
            in_stat = os.fstat(sys.stdin.fileno()) if path == "-" else os.stat(path)
        except (AttributeError, OSError, ValueError):  # no stdin file
            continue
        if stat.S_ISREG(in_stat.st_mode) and os.path.samestat(out_stat, in_stat):
            raise ValueError(f"--out {out} is the {what} {path}")


def cmd_parse(args: argparse.Namespace) -> int:
    config = _load_config(args)
    compiled = compile_repository(load_repository(args.repo), config.allow_empty_inner)
    if args.out:
        _refuse_out_is_input(args.out, args.repo, args.log_input)
    lines = _log_lines(args.log_input)
    tree, counts = config.make_tree(), MatchCounts()
    results = match_stream(compiled, lines, counts, tree, config.header_pattern)
    interrupted = False
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext() as out:
        try:
            for result in results:
                if out is not None:
                    out.write(_record_line(result) + "\n")
        except KeyboardInterrupt:
            interrupted = True
    if args.append_blackbox and not interrupted:
        appended = append_repository(tree.export_templates(), args.repo,
                                     (entry.template.body for entry in compiled.entries))
        print(f"appended {appended} black-box templates to {args.repo}")

    print(f"{counts.total} lines: {counts.matched} matched, {counts.routed} routed, "
          f"{counts.dropped_empty} dropped (match rate {counts.match_rate:.3f})")
    by_count = sorted(counts.per_template.items(), key=lambda kv: (-kv[1], kv[0]))
    for template_id, count in by_count:
        print(f"  {count:8d}  {compiled.entries[template_id].text}")
    if interrupted:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    config = _load_config(args)
    parsed = ([template.body for template in load_repository(args.parsed)]
              if args.parsed.endswith(".jsonl")
              else [TemplateBody.parse(line) for _, line in template_lines(args.parsed)])
    truth = load_ground_truth(args.truth)
    report = score(parsed, truth)

    if args.log_file:
        unique: dict[TemplateBody, TemplateBody] = {}
        for body in parsed:
            unique.setdefault(canonical(body), body)
        compiled = compile_repository([Template(body=b) for b in unique.values()],
                                      config.allow_empty_inner)
        report.timing = time_online(compiled, list(_log_lines(args.log_file)),
                                    repetitions=args.repetitions,
                                    tree_factory=config.make_tree,
                                    header_pattern=config.header_pattern)

    print(f"precision {report.precision:.3f}  recall {report.recall:.3f}  "
          f"f1 {report.f1:.3f}")
    if report.timing is not None:
        print(f"online parsing time: {report.timing:.4f}s "
              f"(averaged over {args.repetitions} runs)")
    if args.out:
        # the report's own fields, in order; asdict would deep-copy every
        # matched pair, which takes about half as long as scoring them
        _write_file(args.out, _json_bytes(vars(report)))
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    config = _load_config(args)
    paths = _discover(args.project_dir)
    files = _parse_files(paths)
    if paths and not files:
        print("error: no source file parsed", file=sys.stderr)
        return EXIT_PARTIAL
    analyses = analyze_project([f.unit for f in files], config.budget,
                               config.builtin_methods)
    enumerations = sorted((e for unit_enums in analyses for e in unit_enums),
                          key=lambda e: (e.site.unit.path, e.site.line))
    report = build_report(enumerations)
    text = render_report(report)
    if args.out:
        _write_file(args.out, text.encode("utf-8"))
    else:
        print(text, end="")
    if args.json:
        _write_file(args.json, _json_bytes(report.to_dict()))
    return EXIT_OK


def _extract_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("project_dir")
    parser.add_argument("--out", required=True, metavar="REPO",
                        help="repository output file (JSON lines)")
    parser.add_argument("--report-dir", metavar="DIR",
                        help="directory for static reports (default: REPO.reports)")
    _config_flags(parser)
    parser.set_defaults(handler=cmd_extract)


def _parse_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("repo", help="template repository file")
    parser.add_argument("log_input", help="log file, or - for stdin")
    parser.add_argument("--out", metavar="FILE", help="write match results (JSON lines)")
    parser.add_argument("--append-blackbox", action="store_true",
                        help="append discovered black-box templates to the repository")
    _config_flags(parser)
    parser.set_defaults(handler=cmd_parse)


def _eval_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("parsed",
                        help="templates to score: one per line, or a .jsonl repository")
    parser.add_argument("truth", help="ground-truth templates, one per line")
    parser.add_argument("--log-file", metavar="FILE",
                        help="also time online parsing of this log file")
    parser.add_argument("--repetitions", type=int, default=10)
    parser.add_argument("--out", metavar="FILE", help="write the structured report")
    _config_flags(parser)
    parser.set_defaults(handler=cmd_eval)


def _report_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("project_dir")
    parser.add_argument("--out", metavar="FILE", help="write the textual report")
    parser.add_argument("--json", metavar="FILE", help="write the structured report")
    _config_flags(parser)
    parser.set_defaults(handler=cmd_report)


# Each command's help line and the function that adds its arguments: the one
# place a command's arguments are defined.
COMMANDS = {
    "extract": ("analyze a project and extract templates via the gateway",
                _extract_arguments),
    "parse": ("match a log stream against a repository", _parse_arguments),
    "eval": ("score parsed templates against ground truth", _eval_arguments),
    "report": ("print the static-analysis report for a project", _report_arguments),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser. Given a command name ``only``, the other
    commands' parsers get no arguments: argparse reads a command's arguments
    only when it dispatches to that command, and help and usage errors before
    the command read none of them."""
    parser = argparse.ArgumentParser(
        prog="logsmith",
        description="Extract log templates from source code and parse log streams.")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in COMMANDS.items():
        command = commands.add_parser(name, help=help_text)
        if only is None or only == name:
            add_arguments(command)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # no top-level option takes a value, so the first command name in argv is
    # the command argparse dispatches to, if it dispatches at all
    command = next((arg for arg in argv if arg in COMMANDS), None)
    args = build_parser(command).parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, GroundTruthError, DuplicateTemplate,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
