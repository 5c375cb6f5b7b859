"""Strict template-level evaluation and online-parsing timing.

A parsed template is correct only when it equals a ground-truth template
segment for segment: same constants in the same order, wildcards in the
same positions. Scoring pairs templates one-to-one (multiset semantics),
and timing measures the full streaming match pass averaged over
repetitions, with repository compilation excluded.
"""

from __future__ import annotations

import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .blackbox import ClusterTree
from .matcher import CompiledRepository, run_stream
from .templates import TemplateBody


class GroundTruthError(Exception):
    """A ground-truth file line that is not a normalized template."""


@dataclass
class EvalReport:
    precision: float
    recall: float
    f1: float
    matched_pairs: list[tuple[int, int]] = field(default_factory=list)
    timing: float | None = None


def canonical(body: TemplateBody) -> TemplateBody:
    """Collapse whitespace-only constants sandwiched between wildcards.

    Equality treats "a <.*> <.*> b" and "a <.*> b" as the same template:
    consecutive wildcard slots separated only by whitespace carry no
    distinguishable structure. Segments alternate, so every constant but
    the first and last sits between two wildcards; a body with no
    whitespace-only one there is its own canonical form and is returned.
    """
    inner = body.segments[1:-1]
    if not any(isinstance(segment, str) and segment.isspace() for segment in inner):
        return body
    kept = [segment for segment in inner
            if not (isinstance(segment, str) and segment.isspace())]
    return TemplateBody.from_segments([body.segments[0], *kept, body.segments[-1]])


def load_ground_truth(path: str | Path) -> tuple[TemplateBody, ...]:
    """The templates of :func:`template_lines`; each must already be normalized
    (its parse renders back to the identical string), else GroundTruthError
    names its line."""
    bodies = []
    for number, line in template_lines(path):
        body = TemplateBody.parse(line)
        if body.render() != line:
            raise GroundTruthError(f"line {number}: not a normalized template: {line!r}")
        bodies.append(body)
    return tuple(bodies)


def template_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """The numbered non-blank lines of a file, which end only at "\n" (after
    ``open``'s newline translation), not at "\x0c" or U+2028."""
    with open(path, "r", encoding="utf-8") as handle:
        for number, raw in enumerate(handle, 1):
            line = raw.rstrip("\n")
            if line.strip():
                yield number, line


def score(parsed: list[TemplateBody], truth: tuple[TemplateBody, ...]) -> EvalReport:
    """Greedy one-to-one matching of parsed templates against ground truth.

    recall = matched / |truth|, precision = matched / |parsed|; an empty
    side scores 0 on its metric. Duplicate identical templates pair at
    most once each (multiset semantics): each parsed template, in order,
    takes the lowest-indexed unpaired truth template equal to it.
    """
    waiting: dict[TemplateBody, deque[int]] = defaultdict(deque)
    for truth_index, body in enumerate(truth):
        waiting[canonical(body)].append(truth_index)
    pairs: list[tuple[int, int]] = []
    for parsed_index, body in enumerate(parsed):
        queue = waiting.get(canonical(body))
        if queue:
            pairs.append((parsed_index, queue.popleft()))
    matched = len(pairs)
    precision = matched / len(parsed) if parsed else 0.0
    recall = matched / len(truth) if truth else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    return EvalReport(precision=precision, recall=recall, f1=f1,
                      matched_pairs=pairs)


def time_online(repo: CompiledRepository, lines: list[str], repetitions: int = 10,
                tree_factory=ClusterTree, header_pattern: str | None = None) -> float:
    """Average wall-clock seconds for one full match pass over ``lines``.

    Each repetition runs against a fresh cluster tree so black-box routing
    cost is included without cross-repetition interference. Lines lose the
    ``header_pattern`` prefix first, as in ``parse``. Compilation of the
    repository happens before this call and is not measured.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    elapsed = 0.0
    for _ in range(repetitions):
        tree = tree_factory()
        start = time.perf_counter()
        run_stream(repo, lines, tree, header_pattern)
        elapsed += time.perf_counter() - start
    return elapsed / repetitions
