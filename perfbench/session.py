"""One benchmark run: closed-loop user sessions, repeated until time is up.

A session runs the three commands in turn on one input set, each through
``logsmith.cli.main`` in this process and on one thread: ``extract`` over
the corpus, ``eval`` of the repository against the oracle truth, and
``parse`` of the stream against the repository (with ``--header-pattern``
and ``--out``). A direct ``run_stream`` pass then times every line: the
next line is pulled only after the previous one is served, and the gap
between pulls is that line's service time. The set-up of ``parse``
(``load_repository``, ``compile_repository``, tree creation) is then
timed on its own. Commands that take less than SAMPLE_SECONDS repeat
within the session until they add up to it. ``eval`` is short, so it runs
again after ``parse`` and at the end of the session.

A run draws several input sets from its seed and gives each the same
number of sessions, give or take one. Each metric is the median of a
set's samples (the line percentiles pool every line of the set's
sessions), averaged over the sets. Peak memory is taken after a set's first
session, in a pass of its own under ``tracemalloc``, on the workload's
first ``memory_sets`` sets.

Times are CPU time of this process, scaled by the host's speed: see
``clock`` below and ``hostspeed.py``. Every command starts from the same
state: a full garbage collection and an empty regex cache, as in a fresh
process. The inputs, built before the first session, are frozen out of
the collector's reach.

With tracing on, sessions on the first input set alternate between the
CLI and the traced pipeline of ``tracer.py``; the two must write
identical outputs, and the difference in their CPU time is the tracing
overhead. Per-layer times are not scaled.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import re
import shutil
import statistics
import sys
import time
import tracemalloc
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from logsmith.cli import main as cli_main
from logsmith.config import Config
from logsmith.matcher import compile_repository, run_stream
from logsmith.templates import load_repository

import inputs
import program
import tracer as tracing
from checks import CheckFailed, check_eval, check_parse, check_same_outcomes, same_bytes
from hostspeed import REFERENCE_SECONDS, reference_seconds

END_TO_END = {
    "extract_kb_per_s": "kB/s",
    "eval_s": "s",
    "f1": "ratio",
    "setup_s": "s",
    "parse_lines_per_s": "lines/s",
    "line_p50_us": "us",
    "line_p99_us": "us",
    "match_rate": "ratio",
    "peak_mem_mb": "MB",
}

PER_LAYER = {
    "analyzer.parser.busy_s": "s",
    "analyzer.parser.kb_per_s": "kB/s",
    "analyzer.parser.files": "count",
    "analyzer.callgraph.busy_s": "s",
    "analyzer.logcalls.busy_s": "s",
    "analyzer.logcalls.sites": "count",
    "analyzer.paths.busy_s": "s",
    "analyzer.paths.paths": "count",
    "analyzer.paths.distinct_ratio": "ratio",
    "analyzer.paths.truncated_sites": "count",
    "analyzer.report.busy_s": "s",
    "whitebox.prompt.busy_s": "s",
    "whitebox.prompt.kb": "kB",
    "whitebox.gateway.busy_s": "s",
    "whitebox.gateway.calls": "count",
    "whitebox.gateway.attempts": "count",
    "whitebox.gateway.call_p99_ms": "ms",
    "whitebox.responses.busy_s": "s",
    "whitebox.responses.records": "count",
    "whitebox.postprocess.busy_s": "s",
    "whitebox.postprocess.accept_ratio": "ratio",
    "templates.load_s": "s",
    "templates.save_s": "s",
    "cli.self_s": "s",
    "cli.report_files": "count",
    "evaluation.load_s": "s",
    "evaluation.score_s": "s",
    "evaluation.pairs": "count",
    "matcher.compile_s": "s",
    "matcher.busy_s": "s",
    "matcher.hit_ratio": "ratio",
    "matcher.candidates_per_line": "count",
    "blackbox.busy_s": "s",
    "blackbox.ingested": "count",
    "blackbox.clusters": "count",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

CONFIG = Config(header_pattern=inputs.HEADER_PATTERN)
# A cheap step repeats within a session until its samples add up to this,
# so a brief stall weighs on one sample of many rather than on the median.
SAMPLE_SECONDS = 0.25
# Every duration is this process's CPU time (user plus system), not wall time.
# On a shared virtual machine the hypervisor takes the vCPU away for tens of
# milliseconds at a time; wall time counts those gaps and CPU time does not.
# The program runs on this one thread and reads and writes only through the
# page cache, so on an idle host the two agree.
# Each step's time is then divided by the host's slowness around it (see
# Run.host and hostspeed.py), since CPU time too moves with the host.
clock = time.process_time
clock_ns = time.process_time_ns


def isolate() -> None:
    """Start a command from the state a fresh process would give it."""
    gc.collect()
    re.purge()


@dataclass
class Command:
    code: int
    seconds: float
    stdout: str
    stderr: str
    peak_bytes: int | None = None


def run_cli(argv: list[str], trace_memory: bool = False) -> Command:
    isolate()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if trace_memory:
            tracemalloc.start()
        try:
            start = clock()
            code = cli_main(argv)
            seconds = clock() - start
            peak = tracemalloc.get_traced_memory()[1] if trace_memory else None
        finally:
            if trace_memory:
                tracemalloc.stop()
    return Command(code, seconds, out.getvalue(), err.getvalue(), peak)


class TimedLines:
    """An iterator that stamps the clock each time the next line is pulled."""

    def __init__(self, lines: list[str]):
        self._lines = iter(lines)
        self.stamps: list[int] = []

    def __iter__(self):
        return self

    def __next__(self) -> str:
        self.stamps.append(clock_ns())
        return next(self._lines)


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class Run:
    """The state of one benchmark run: inputs, outputs, samples and failures."""

    def __init__(self, workload: inputs.Workload, seed: int, directory: Path):
        self.workload = workload
        self.dir = directory
        self.inputs = inputs.build(workload, seed, directory / "inputs")
        self.lines = self.inputs.stream_path.read_text(encoding="utf-8").splitlines()
        self.matches = program.load()[1].matches
        out = directory / "out"
        out.mkdir(parents=True)
        self.repo = out / "repo.jsonl"
        self.reports = out / "reports"
        self.eval_json = out / "eval.json"
        self.parse_out = out / "parse.jsonl"
        self.repo_bytes: bytes | None = None
        self.templates_by_id: list[str] = []
        self.records: list[dict] = []
        self.f1 = 0.0
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.sessions = 0
        self.service: list[float] = []  # per-line service times of every session, us
        self.reference = 0.0  # the latest reference time, see host()
        self.gaps = 0  # lines planned as matched whose template extract missed

    # -- bookkeeping ---------------------------------------------------------

    def attempt(self, what: str, operations: int, step) -> bool:
        """Run one command and its checks; a failure fails all its operations."""
        self.attempted += operations
        try:
            step()
        except CheckFailed as exc:
            problem = f"{what}: {exc}"
        except Exception:  # the program failed; count it and carry on
            problem = f"{what}: {traceback.format_exc()}"
        else:
            return True
        self.failed += operations
        self.problems.append(problem)
        return False

    def _argv(self, command: str) -> list[str]:
        if command == "extract":
            return ["extract", str(self.inputs.corpus_dir), "--out", str(self.repo),
                    "--report-dir", str(self.reports)]
        if command == "eval":
            return ["eval", str(self.repo), str(self.inputs.truth_path),
                    "--out", str(self.eval_json)]
        return ["parse", str(self.repo), str(self.inputs.stream_path),
                "--header-pattern", inputs.HEADER_PATTERN, "--out", str(self.parse_out)]

    def operations(self, command: str) -> int:
        return {"extract": self.inputs.files, "eval": 1, "parse": len(self.lines)}[command]

    # -- commands ------------------------------------------------------------

    def command(self, command: str, trace_memory: bool = False) -> Command | None:
        """Run one CLI command and check its outputs; None if either failed."""
        done: list[Command] = []

        def step():
            if command == "extract":
                shutil.rmtree(self.reports, ignore_errors=True)
            result = run_cli(self._argv(command), trace_memory)
            if result.code != 0:
                raise CheckFailed(f"exit code {result.code}: {result.stderr.strip()}")
            getattr(self, f"_check_{command}")(result)
            done.append(result)
        self.attempt(command, self.operations(command), step)
        return done[0] if done else None

    def _check_extract(self, result: Command) -> None:
        data = self.repo.read_bytes()
        if self.repo_bytes is None:
            self.repo_bytes = data
            compiled = compile_repository(load_repository(self.repo))
            self.templates_by_id = [entry.template.body.render()
                                    for entry in compiled.entries]
        same_bytes("repository", self.repo_bytes, data)

    def _check_eval(self, result: Command) -> None:
        payload = json.loads(self.eval_json.read_text(encoding="utf-8"))
        parsed = [json.loads(line)["template"] for line in self.repo_bytes.splitlines()]
        check_eval(result.stdout, payload, parsed, self.inputs.truth)
        self.f1 = payload["f1"]

    def _check_parse(self, result: Command) -> None:
        with open(self.parse_out, encoding="utf-8") as handle:
            self.records = [json.loads(line) for line in handle]
        self.gaps = check_parse(result.stdout, self.records, self.inputs.plan,
                                self.templates_by_id, self.matches)

    def host(self) -> float:
        """The host's slowness over the step just taken: the mean reference
        time just before and just after it, over REFERENCE_SECONDS."""
        before, self.reference = self.reference, reference_seconds()
        self.samples["reference_s"].append(self.reference)
        return (before + self.reference) / 2 / REFERENCE_SECONDS

    def setup(self):
        """Everything ``parse`` does before its first line, and its CPU time."""
        isolate()
        start = clock()
        compiled = compile_repository(load_repository(self.repo), CONFIG.allow_empty_inner)
        tree = CONFIG.make_tree()
        return compiled, tree, clock() - start

    def latency(self) -> None:
        """Per-line service time inside ``run_stream``, checked against the CLI.
        The stream repeats until its passes add up to SAMPLE_SECONDS."""
        def step():
            service: list[float] = []
            while sum(service) < SAMPLE_SECONDS * 1e6:
                compiled, tree, _ = self.setup()
                lines = TimedLines(self.lines)
                results, _ = run_stream(compiled, lines, tree, CONFIG.header_pattern)
                check_same_outcomes(self.records, results)
                stamps = lines.stamps
                service.extend((stamps[i + 1] - stamps[i]) / 1e3
                               for i in range(len(stamps) - 1))
            slowness = self.host()
            self.service.extend(microseconds / slowness for microseconds in service)
        self.attempt("latency", len(self.lines), step)

    def repeat(self, command: str) -> bool:
        """Run ``command`` until its runs add up to SAMPLE_SECONDS; False on failure."""
        times: list[float] = []
        while sum(times) < SAMPLE_SECONDS:
            result = self.command(command)
            if result is None:
                return False
            times.append(result.seconds)
        slowness = self.host()
        if command == "extract":
            self.samples["extract_kb_per_s"].extend(
                self.inputs.source_bytes / 1000 / seconds * slowness for seconds in times)
        else:
            self.samples["eval_s"].extend(seconds / slowness for seconds in times)
            self.samples["f1"].append(self.f1)
        return True

    def session(self) -> None:
        self.sessions += 1
        self.reference = reference_seconds()
        if not (self.repeat("extract") and self.repeat("eval")):
            return
        parse = self.command("parse")
        if parse is None:
            return
        self.samples["parse_lines_per_s"].append(len(self.lines) / parse.seconds
                                                 * self.host())
        matched = sum(1 for record in self.records if record["matched"])
        self.samples["match_rate"].append(matched / len(self.lines))
        self.repeat("eval")
        self.latency()
        times: list[float] = []
        while sum(times) < SAMPLE_SECONDS:
            times.append(self.setup()[2])
        slowness = self.host()
        self.samples["setup_s"].extend(seconds / slowness for seconds in times)
        self.repeat("eval")

    def memory(self) -> None:
        """Peak traced memory of the workload's own commands, in a pass of its own."""
        results = [self.command(command, trace_memory=True)
                   for command in self.workload.primary]
        if None not in results:
            self.samples["peak_mem_mb"].append(
                max(result.peak_bytes for result in results) / 1e6)


def run_metrics(run: Run) -> dict[str, float]:
    """One input set's metrics: medians of its samples, percentiles of its lines."""
    metrics = {name: statistics.median(run.samples[name])
               for name in END_TO_END if run.samples.get(name)}
    if run.service:
        metrics["line_p50_us"] = percentile(run.service, 0.50)
        metrics["line_p99_us"] = percentile(run.service, 0.99)
    return metrics


def measure(runs: list[Run], seconds: float) -> dict[str, float]:
    """Untraced sessions for about ``seconds``, spread evenly over the input
    sets; on the first ``memory_sets`` sets the memory pass follows the first
    session. A session starts only if one as long as the last still fits. A
    metric is the mean over the sets of each set's value."""
    deadline = time.perf_counter() + seconds
    for index, run in enumerate(runs):
        run.session()
        if index < run.workload.memory_sets:
            run.memory()
    last = 0.0
    while time.perf_counter() + last < deadline:
        start = time.perf_counter()
        min(runs, key=lambda run: run.sessions).session()
        last = time.perf_counter() - start
    per_set = [run_metrics(run) for run in runs]
    references = [value for run in runs for value in run.samples["reference_s"]]
    if references:
        print(f"reference task: median {statistics.median(references):.4f} s of CPU time; "
              f"times are scaled to {REFERENCE_SECONDS} s")
    return {name: statistics.fmean(values) for name in END_TO_END
            if (values := [metrics[name] for metrics in per_set if name in metrics])}


def measure_traced(run: Run, seconds: float, spans: Path) -> dict[str, float]:
    """Alternate CLI and traced sessions; per-layer metrics are medians of the traced.
    The last traced session's spans are written to ``spans``."""
    deadline = time.perf_counter() + seconds
    layers: dict[str, list[float]] = defaultdict(list)
    last = None
    took = 0.0
    while run.sessions < 1 or time.perf_counter() + took < deadline:
        start = time.perf_counter()
        run.sessions += 1
        untraced = 0.0
        for command in ("extract", "eval", "parse"):
            result = run.command(command)
            if result is None:
                break
            untraced += result.seconds
        else:
            tracer = tracing.Tracer()
            if run.attempt("traced", run.inputs.files + 1 + len(run.lines),
                           lambda: _traced_session(run, tracer)):
                traced = sum(tracer.durations("cli.extract") + tracer.durations("cli.eval")
                             + tracer.durations("cli.parse"))
                for name, value in layer_metrics(tracer, run).items():
                    layers[name].append(value)
                layers["trace.overhead_s"].append(traced - untraced)
                last = tracer
        took = time.perf_counter() - start
    if last is not None:
        last.write(spans)
        print(f"spans written to {spans}")
    return {name: statistics.median(values) for name, values in layers.items()}


def _traced_session(run: Run, tracer: tracing.Tracer) -> None:
    traced = run.dir / "traced"
    shutil.rmtree(traced, ignore_errors=True)
    traced.mkdir()
    isolate()
    tracing.traced_extract(tracer, run.inputs.corpus_dir, traced / "repo.jsonl",
                           traced / "reports", CONFIG)
    isolate()
    tracing.traced_eval(tracer, traced / "repo.jsonl", run.inputs.truth_path,
                        traced / "eval.json")
    isolate()
    tracing.traced_parse(tracer, traced / "repo.jsonl", run.inputs.stream_path,
                         traced / "parse.jsonl", CONFIG)
    for name, cli_path in (("repo.jsonl", run.repo), ("eval.json", run.eval_json),
                           ("parse.jsonl", run.parse_out)):
        same_bytes(f"traced {name}", cli_path.read_bytes(), (traced / name).read_bytes())
    if _tree_files(traced / "reports") != _tree_files(run.reports):
        raise CheckFailed("traced report files differ from the CLI's")


def _tree_files(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def layer_metrics(tracer: tracing.Tracer, run: Run) -> dict[str, float]:
    own = tracer.self_seconds()
    count = tracer.counts

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    gateway_ms = [seconds * 1e3 for seconds in tracer.durations("whitebox.gateway")]
    return {
        "analyzer.parser.busy_s": own["analyzer.parser"],
        "analyzer.parser.kb_per_s": ratio(count["analyzer.parser.bytes"] / 1000,
                                          own["analyzer.parser"]),
        "analyzer.parser.files": count["analyzer.parser.files"],
        "analyzer.callgraph.busy_s": own["analyzer.callgraph"],
        "analyzer.logcalls.busy_s": own["analyzer.logcalls"],
        "analyzer.logcalls.sites": count["analyzer.logcalls.sites"],
        "analyzer.paths.busy_s": own["analyzer.paths"],
        "analyzer.paths.paths": count["analyzer.paths.paths"],
        "analyzer.paths.distinct_ratio": ratio(count["analyzer.paths.distinct"],
                                               count["analyzer.paths.paths"]),
        "analyzer.paths.truncated_sites": count["analyzer.paths.truncated_sites"],
        "analyzer.report.busy_s": own["analyzer.report"],
        "whitebox.prompt.busy_s": own["whitebox.prompt"],
        "whitebox.prompt.kb": count["whitebox.prompt.chars"] / 1000,
        "whitebox.gateway.busy_s": own["whitebox.gateway"],
        "whitebox.gateway.calls": count["whitebox.gateway.calls"],
        "whitebox.gateway.attempts": count["whitebox.gateway.attempts"],
        "whitebox.gateway.call_p99_ms": percentile(gateway_ms, 0.99) if gateway_ms else 0.0,
        "whitebox.responses.busy_s": own["whitebox.responses"],
        "whitebox.responses.records": count["whitebox.responses.records"],
        "whitebox.postprocess.busy_s": own["whitebox.postprocess"],
        "whitebox.postprocess.accept_ratio": ratio(count["whitebox.postprocess.accepted"],
                                                   count["whitebox.responses.records"]),
        "templates.load_s": own["templates.load"],
        "templates.save_s": own["templates.save"],
        "cli.self_s": own["cli.extract"] + own["cli.eval"] + own["cli.parse"],
        "cli.report_files": len(list(run.reports.iterdir())),
        "evaluation.load_s": own["evaluation.load"],
        "evaluation.score_s": own["evaluation.score"],
        "evaluation.pairs": count["evaluation.pairs"],
        "matcher.compile_s": own["matcher.compile"],
        "matcher.busy_s": own["matcher"],
        "matcher.hit_ratio": ratio(count["matcher.hits"], count["matcher.lines"]),
        "matcher.candidates_per_line": ratio(count["matcher.candidates"],
                                             count["matcher.lines"]),
        "blackbox.busy_s": own["blackbox"],
        "blackbox.ingested": count["blackbox.ingested"],
        "blackbox.clusters": count["blackbox.clusters"],
        "trace.spans": len(tracer.spans),
    }


def run_workload(workload: inputs.Workload, seed: int, seconds: float, trace: bool,
                 directory: Path) -> dict:
    """One benchmark run in ``directory``; returns the result object.

    The run draws the workload's ``input_sets`` from ``seed``, so that its metrics
    average over several corpora and streams rather than rest on one. A
    traced run uses the first set only and leaves its spans next to
    ``directory``.
    """
    directory.mkdir(parents=True)
    runs = [Run(workload, seed * workload.input_sets + index, directory / f"set{index}")
            for index in range(1 if trace else workload.input_sets)]
    gc.freeze()
    try:
        if trace:
            spans = directory.parent / f"trace-{workload.name}-s{seed}.jsonl"
            metrics, units = measure_traced(runs[0], seconds, spans), PER_LAYER
        else:
            metrics, units = measure(runs, seconds), END_TO_END
    finally:
        gc.unfreeze()
    problems = [problem for run in runs for problem in run.problems]
    problems += [f"no value for {metric}" for metric in units if metric not in metrics]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for run in runs:
        print(f"{workload.name}: inputs {run.inputs.seed}, {run.sessions} sessions, "
              f"{run.inputs.files} files ({run.inputs.source_bytes / 1000:.1f} kB), "
              f"{len(run.inputs.truth)} truth templates, {len(run.lines)} stream lines, "
              f"{run.gaps} planned matches routed for want of their template")
    return {
        "correct": not problems,
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": {metric: {"value": metrics.get(metric, 0.0), "unit": unit}
                    for metric, unit in units.items()},
    }
