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
    root = Path(project_dir)
    if not root.is_dir():
        raise OSError(f"not a directory: {project_dir}")
    return sorted(root.rglob("*.java"))


def _parse_files(paths: list[Path]) -> tuple[list[ProjectFile], list[str]]:
    files: list[ProjectFile] = []
    failures: list[str] = []
    for path in paths:
        try:
            text = path.read_text(encoding="utf-8")
            files.append(ProjectFile(unit=parse_source(text, str(path)), text=text))
        except (OSError, UnicodeDecodeError, SourceSyntaxError) as exc:
            failures.append(f"{path}: {exc}")
    return files, failures


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
    files, failures = _parse_files(paths)
    for failure in failures:
        print(f"warning: skipped {failure}", file=sys.stderr)
    if not files:
        print("error: no source file parsed", file=sys.stderr)
        return EXIT_PARTIAL

    result = extract_project(
        files, gateway_config=config.gateway, policy=config.postprocess,
        budget=config.budget, builtin_methods=config.builtin_methods,
        workers=config.workers)
    for unit_result in result.failed_units:
        print(f"warning: gateway failed for {unit_result.unit.path}: "
              f"{unit_result.error}", file=sys.stderr)

    save_repository(result.templates, args.out)
    report_dir = Path(args.report_dir) if args.report_dir else Path(f"{args.out}.reports")
    report_dir.mkdir(parents=True, exist_ok=True)
    for unit_result in result.units:
        stem = report_dir / unit_result.unit.class_name
        stem.with_suffix(".report.txt").write_text(unit_result.report_text,
                                                   encoding="utf-8")
        stem.with_suffix(".report.json").write_text(
            json.dumps(unit_result.report.to_dict(), indent=2) + "\n",
            encoding="utf-8")

    calls = sum(len(u.enumerations) for u in result.units)
    paths_found = sum(len(e.paths) for u in result.units for e in u.enumerations)
    accepted = sum(len(u.accepted) for u in result.units)
    rejected = sum(len(u.rejected) for u in result.units)
    elapsed = time.perf_counter() - started
    print(f"{len(files)} of {len(paths)} files parsed, {calls} log calls, "
          f"{paths_found} paths, {accepted} accepted, {rejected} rejected, "
          f"{len(result.templates)} templates -> {args.out} ({elapsed:.3f}s)")
    return EXIT_OK


def _log_lines(source: str) -> Iterator[str]:
    """Lines of a log file (opened now, before any output) or of stdin for ``-``,
    as they arrive; a warning at the end counts lines whose bad UTF-8 became U+FFFD."""
    if source == "-" and not hasattr(sys.stdin, "buffer"):  # a text stream, no bytes
        return (line for text in sys.stdin for line in text.splitlines())
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
            yield from text.splitlines()
    if repaired:
        print(f"warning: replaced invalid UTF-8 in {repaired} lines of {source}",
              file=sys.stderr)


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
        appended = append_repository(tree.export_templates(), args.repo)
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


def _load_template_lines(path: str) -> list[TemplateBody]:
    if path.endswith(".jsonl"):
        return [template.body for template in load_repository(path)]
    bodies = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        if raw.strip():
            bodies.append(TemplateBody.parse(raw))
    return bodies


def cmd_eval(args: argparse.Namespace) -> int:
    config = _load_config(args)
    parsed = _load_template_lines(args.parsed)
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
        payload = {
            "precision": report.precision,
            "recall": report.recall,
            "f1": report.f1,
            "matched_pairs": report.matched_pairs,
            "timing": report.timing,
        }
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n",
                                  encoding="utf-8")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    config = _load_config(args)
    paths = _discover(args.project_dir)
    files, failures = _parse_files(paths)
    for failure in failures:
        print(f"warning: skipped {failure}", file=sys.stderr)
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
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    if args.json:
        Path(args.json).write_text(json.dumps(report.to_dict(), indent=2) + "\n",
                                   encoding="utf-8")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logsmith",
        description="Extract log templates from source code and parse log streams.")
    commands = parser.add_subparsers(dest="command", required=True)

    extract = commands.add_parser(
        "extract", help="analyze a project and extract templates via the gateway")
    extract.add_argument("project_dir")
    extract.add_argument("--out", required=True, metavar="REPO",
                         help="repository output file (JSON lines)")
    extract.add_argument("--report-dir", metavar="DIR",
                         help="directory for static reports (default: REPO.reports)")
    _config_flags(extract)
    extract.set_defaults(handler=cmd_extract)

    parse = commands.add_parser(
        "parse", help="match a log stream against a repository")
    parse.add_argument("repo", help="template repository file")
    parse.add_argument("log_input", help="log file, or - for stdin")
    parse.add_argument("--out", metavar="FILE", help="write match results (JSON lines)")
    parse.add_argument("--append-blackbox", action="store_true",
                       help="append discovered black-box templates to the repository")
    _config_flags(parse)
    parse.set_defaults(handler=cmd_parse)

    evaluate = commands.add_parser(
        "eval", help="score parsed templates against ground truth")
    evaluate.add_argument("parsed",
                          help="templates to score: one per line, or a .jsonl repository")
    evaluate.add_argument("truth", help="ground-truth templates, one per line")
    evaluate.add_argument("--log-file", metavar="FILE",
                          help="also time online parsing of this log file")
    evaluate.add_argument("--repetitions", type=int, default=10)
    evaluate.add_argument("--out", metavar="FILE", help="write the structured report")
    _config_flags(evaluate)
    evaluate.set_defaults(handler=cmd_eval)

    report = commands.add_parser(
        "report", help="print the static-analysis report for a project")
    report.add_argument("project_dir")
    report.add_argument("--out", metavar="FILE", help="write the textual report")
    report.add_argument("--json", metavar="FILE", help="write the structured report")
    _config_flags(report)
    report.set_defaults(handler=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, GroundTruthError, DuplicateTemplate,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
