"""Seeded inputs: a source corpus, its oracle truth and a log stream.

Everything here is a pure function of the workload and the seed; the
program only ever sees the files written to disk.

* The corpus is built from ``tests/generator.py`` projects. Each project is
  moved into its own package ``com.gen.s<project seed>`` and keeps the simple
  class names ``Main``/``Aux``, so report files keyed by simple class name
  collide exactly as they would in a real multi-package tree.
* The truth is what the brute-force interpreter in ``tests/oracle.py`` emits
  for every log call, with its ``valN`` markers turned into ``<.*>``, edge
  whitespace trimmed and the README's default post-processing filter
  applied (at least 3 constant characters, constant-token ratio >= 0.25).
  Projects are added until the truth holds exactly ``truth_target`` distinct
  templates, stratified as ``build_corpus`` explains, so the repository
  does not drift with the seed. The truth file is shuffled, so its order
  owes nothing to the repository's and ``score()`` makes about n²/4
  comparisons; against sorted truth their count moved half again as much from
  seed to seed.
* The stream has a timestamp/level header on every line. Lines are planned
  one by one as matched (filled from a truth template), routed (noise or a
  hidden template, built from words no corpus literal contains) or dropped
  (header only), so the expected outcome of every line is known. The counts
  of each kind are exact, and hidden templates get exact Zipf shares of the
  routed lines, so the work a stream makes varies little with the seed.
  Every fourth rank, from the fourth on, is a ``key=value`` template: a
  quarter of the templates, and about a fifth of the routed lines.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

from logsmith import WILDCARD_TOKEN, TemplateBody
from logsmith.analyzer import find_log_calls, parse_source

import program

HEADER_PATTERN = r"\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2}\.\d{3} [A-Z]+ "
MATCHED, ROUTED, DROPPED = "matched", "routed", "dropped"
DROPPED_SHARE = 0.01  # header-only lines, which parse drops
# Share of truth templates that open with a variable: the mean over
# unstratified corpora of 500 and 1,500 templates is 0.36.
OPENS_WITH_VARIABLE = 0.36

# Words for noise lines, hidden templates and alphabetic variable values.
# None contains a corpus literal word, so no routed line can hold the
# constant text every repository template carries.
NOISE_WORDS = (
    "kernel", "quota", "heap", "thread", "socket", "buffer", "cache", "queue",
    "lease", "token", "shard", "replica", "batch", "epoch", "vertex", "cursor",
    "frame", "packet", "route", "pager", "tenant", "bucket", "ledger", "mirror",
    "vault", "beacon", "cipher", "digest", "gauge", "harvest", "journal",
    "kiosk", "lattice", "matrix", "nexus", "orbit", "pulse", "quartz", "radar",
    "signal", "tablet", "umbra", "vector", "widget", "zenith", "anchor",
    "bridge", "cluster", "daemon", "engine", "filter", "gossip", "handler",
    "ingest", "worker", "timer", "schema", "member", "region", "stream",
)
COMPONENTS = ("kernel", "quota", "heap", "thread", "socket", "buffer")
GLUED_PREFIX = ("gauge", "pulse")
STATE_WORDS = ("ready", "stale", "idle", "busy", "cold", "warm", "fresh", "dirty")
GLUE = ("=", ":", "#")
LEVEL_NAMES = ("INFO", "WARN", "DEBUG", "ERROR")
_MARKER = re.compile(r"val\d+")
_EPOCH = datetime(2026, 1, 1)


@dataclass(frozen=True)
class Workload:
    name: str
    truth_target: int          # distinct oracle templates the corpus must yield
    stream_lines: int
    routed_share: float        # lines that no repository template explains
    hidden_templates: int = 0  # 0: routed lines are free-form noise
    primary: tuple[str, ...] = ("parse",)  # commands whose peak memory is reported
    # Input sets per run, each a corpus, truth and stream of its own: one set
    # alone moved the timing metrics by a tenth or more from seed to seed.
    input_sets: int = 4
    # Input sets that also get a memory pass. It runs under tracemalloc and
    # costs 7-10 s on the 500-template corpus. The parse peaks barely move
    # with the inputs; extract's follows the corpus bytes.
    memory_sets: int = 1


# extract-eval: the analyzer, mock gateway, post-processing and scoring do
#   almost all the work; its short stream keeps the matcher minor.
# parse-known: the same corpus, so the same ~500-template repository, and a
#   stream whose lines mostly hit it: the linear regex scan dominates.
# parse-novel: a ~120-template repository and a stream from hidden templates:
#   the clusterer dominates, and its cluster lists grow with the stream.
WORKLOADS = {
    workload.name: workload for workload in (
        Workload(name="extract-eval", truth_target=500, stream_lines=2000,
                 routed_share=0.05, primary=("extract", "eval"), input_sets=2,
                 memory_sets=2),
        Workload(name="parse-known", truth_target=500, stream_lines=12000,
                 routed_share=0.05, input_sets=3),
        Workload(name="parse-novel", truth_target=120, stream_lines=6000,
                 routed_share=0.90, hidden_templates=300),
    )
}


@dataclass
class Inputs:
    seed: int
    corpus_dir: Path
    truth_path: Path
    stream_path: Path
    files: int
    source_bytes: int
    truth: list[str]
    plan: list[tuple[str, str]]   # (outcome, message after the header) per line


def build(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Write the corpus, truth file and stream for one workload and seed."""
    corpus_dir = directory / "corpus"
    files, source_bytes, truth = build_corpus(seed, workload.truth_target, corpus_dir)
    truth_path = directory / "truth.txt"
    random.Random(f"truth:{seed}").shuffle(truth)
    truth_path.write_text("".join(line + "\n" for line in truth), encoding="utf-8")
    stream_path = directory / "stream.log"
    plan = build_stream(workload, seed, truth, stream_path)
    return Inputs(seed=seed, corpus_dir=corpus_dir,
                  truth_path=truth_path, stream_path=stream_path, files=files,
                  source_bytes=source_bytes, truth=truth, plan=plan)


def build_corpus(seed: int, truth_target: int, directory: Path):
    """Add generated projects until the oracle truth reaches ``truth_target``.

    The truth is stratified: ``OPENS_WITH_VARIABLE`` of its templates open
    with a variable and the rest with text. ``match_line`` rejects a
    text-led template at the first character, but tries a variable-led one
    along the whole line, so this share sets the matcher's cost per line.
    Left to chance it moves by a fifth from seed to seed, because one project
    can add dozens of templates of one kind. A project that would take a
    stratum past its share is skipped, so the truth holds exactly
    ``truth_target`` templates and the quadratic ``score()`` of ``eval``
    does not move with an overshoot.

    Returns (files written, source bytes, sorted truth templates).
    """
    generator, oracle = program.load()
    base = random.Random(f"corpus:{seed}").randrange(10 ** 8)
    leading = round(truth_target * OPENS_WITH_VARIABLE)
    wanted = {True: leading, False: truth_target - leading}
    truth: dict[bool, set[str]] = {True: set(), False: set()}
    files = source_bytes = projects = 0
    for project_seed in range(base, base + 50 * truth_target):
        if all(len(truth[kind]) >= wanted[kind] for kind in truth):
            break
        package = f"com.gen.s{project_seed}"
        project_dir = directory / f"p{projects + 1:05d}"
        sources = [(name, _repackage(text, package))
                   for name, text in sorted(generator.generate_project(project_seed))]
        units = [parse_source(text, str(project_dir / name)) for name, text in sources]
        interpreter = oracle.Interpreter(units)
        new: dict[bool, set[str]] = {True: set(), False: set()}
        for unit in units:
            for site in find_log_calls(unit):
                for text in interpreter.run_site(site):
                    body = truth_template(text)
                    if kept(body) and body.render() not in truth[opens_with_variable(body)]:
                        new[opens_with_variable(body)].add(body.render())
        if any(len(truth[kind]) + len(new[kind]) > wanted[kind] for kind in truth):
            continue
        projects += 1
        project_dir.mkdir(parents=True)
        for name, text in sources:
            (project_dir / name).write_text(text, encoding="utf-8")
            files += 1
            source_bytes += len(text.encode("utf-8"))
        for kind in truth:
            truth[kind] |= new[kind]
    else:
        raise RuntimeError(f"seed {seed}: no corpus reaches {wanted}")
    return files, source_bytes, sorted(truth[True] | truth[False])


def opens_with_variable(body: TemplateBody) -> bool:
    return bool(body.segments) and not isinstance(body.segments[0], str)


def _repackage(text: str, package: str) -> str:
    moved = text.replace("package com.gen;", f"package {package};", 1)
    if moved == text:
        raise ValueError("generated project has no package declaration")
    return moved.replace("import com.gen.", f"import {package}.")


def truth_template(text: str) -> TemplateBody:
    """An interpreter string as a template: markers become wildcards, edges trimmed."""
    segments = list(TemplateBody.parse(_MARKER.sub(WILDCARD_TOKEN, text)).segments)
    if segments and isinstance(segments[0], str):
        segments[0] = segments[0].lstrip()
    if segments and isinstance(segments[-1], str):
        segments[-1] = segments[-1].rstrip()
    return TemplateBody.from_segments(segments)


def kept(body: TemplateBody) -> bool:
    """The README's default post-processing filter, restated."""
    if sum(len(constant) for constant in body.constants) < 3:
        return False
    tokens = body.render().split()
    constant = sum(1 for token in tokens if token.replace(WILDCARD_TOKEN, ""))
    return constant / len(tokens) >= 0.25


def build_stream(workload: Workload, seed: int, truth: list[str],
                 path: Path) -> list[tuple[str, str]]:
    """Write the stream and return the planned outcome of every line."""
    rng = random.Random(f"stream:{workload.name}:{seed}")
    dropped = round(workload.stream_lines * DROPPED_SHARE)
    routed = round(workload.stream_lines * workload.routed_share)
    matched = workload.stream_lines - dropped - routed
    if workload.hidden_templates:
        hidden = [hidden_template(rng, glued=rank % 4 == 3)
                  for rank in range(workload.hidden_templates)]
        routed_lines = [template for template, count in zip(hidden, zipf_counts(
            routed, len(hidden))) for _ in range(count)]
    else:
        routed_lines = [None] * routed
    specs = [(DROPPED, None)] * dropped + [(MATCHED, None)] * matched + [
        (ROUTED, template) for template in routed_lines]
    rng.shuffle(specs)
    bodies = [TemplateBody.parse(text) for text in truth]
    plan = []
    lines = []
    clock = 0
    for outcome, template in specs:
        clock += rng.randint(0, 40)
        stamp = (_EPOCH + timedelta(milliseconds=clock)).strftime("%Y-%m-%d %H:%M:%S.%f")
        header = f"{stamp[:-3]} {rng.choice(LEVEL_NAMES)} "
        if outcome == DROPPED:
            message = ""
        elif outcome == MATCHED:
            message = fill(rng, rng.choice(bodies))
        elif template is not None:
            message = hidden_line(rng, template)
        else:
            message = noise_line(rng)
        plan.append((outcome, message))
        lines.append(header + message + "\n")
    path.write_text("".join(lines), encoding="utf-8")
    return plan


def zipf_counts(total: int, ranks: int) -> list[int]:
    """Split ``total`` lines over ranks in proportion to 1/(rank+1), exactly."""
    weights = [1 / (rank + 1) for rank in range(ranks)]
    shares = [total * weight / sum(weights) for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(ranks), key=lambda rank: counts[rank] - shares[rank])
    for rank in by_remainder[:total - sum(counts)]:
        counts[rank] += 1
    return counts


def value(rng: random.Random) -> str:
    """A variable's text: mostly numbers and ids, sometimes a state word."""
    kind = rng.randrange(6)
    if kind == 0:
        return str(rng.randrange(10 ** rng.randint(1, 5)))
    if kind == 1:
        return f"0x{rng.randrange(16 ** 6):06x}"
    if kind == 2:
        return ".".join(str(rng.randrange(256)) for _ in range(4))
    if kind == 3:
        return f"{rng.randrange(1000)}ms"
    if kind == 4:
        return f"{rng.choice(NOISE_WORDS)}-{rng.randrange(100)}"
    return rng.choice(STATE_WORDS)


def fill(rng: random.Random, body: TemplateBody) -> str:
    return "".join(value(rng) if not isinstance(segment, str) else segment
                   for segment in body.segments)


def noise_line(rng: random.Random) -> str:
    return " ".join(rng.choice(NOISE_WORDS) if rng.random() < 0.6 else value(rng)
                    for _ in range(rng.randint(3, 10)))


def hidden_template(rng: random.Random, glued: bool) -> list[tuple[str, bool]]:
    """One hidden template as (constant text, followed by a variable) tokens.

    Most templates have Drain's expected shape: a component, a word, then
    whitespace-separated words and variables. A glued template is a
    metrics line, ``gauge pulse`` and six ``key=value`` pairs whose values
    are glued to their keys. Two lines of a glued template share too few
    tokens to join one cluster, and every glued line has the same length
    and opening, so each starts a cluster of its own in one leaf: cluster
    state grows with the stream, and so does the cost of every later
    glued line.
    """
    if glued:
        return ([(word, False) for word in GLUED_PREFIX]
                + [(rng.choice(NOISE_WORDS) + rng.choice(GLUE), True) for _ in range(6)])
    tokens = [(rng.choice(COMPONENTS), False), (rng.choice(NOISE_WORDS), False)]
    for _ in range(rng.randint(3, 8)):
        if rng.random() < 0.6:
            tokens.append((rng.choice(NOISE_WORDS), False))
        else:
            tokens.append(("", True))
    return tokens


def hidden_line(rng: random.Random, template: list[tuple[str, bool]]) -> str:
    """Fill a hidden template; glued variables are wide numbers, as in metrics."""
    return " ".join(text if not variable else
                    text + str(rng.randrange(10 ** 6)) if text else value(rng)
                    for text, variable in template)
