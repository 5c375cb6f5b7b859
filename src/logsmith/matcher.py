"""Template compilation and streaming log matching.

Each template compiles to a scan plan: prefix, inner constants, suffix and
a minimum length per wildcard (>= 1 between constants, >= 0 at the template
edges). A line matches when it starts with the prefix, ends with the suffix
and holds each inner constant at its leftmost place after the previous one;
the text between is captured, and no capture may hold a newline. This
accepts the lines, and yields the captures, of the non-greedy reference
regex built by ``compile_body`` in ``tests/oracle.py``, in time linear in
the line. A line is scanned only against templates that can match it: those
whose leading (or, for a template opening with a wildcard, trailing)
constant it really has, found through a prefix index on each edge, and
those with wildcards at both edges whose needle (the longest inner
constant) it holds, up to the best hit so far. The repository keeps a
fixed order — most constant characters first, then fewest wildcards — and
the first template in it that matches wins, so the most specific one does.
Lines matching nothing are routed to the black-box cluster tree.
``match_stream`` yields each line's result as the line arrives and keeps
running counts, so memory holds no part of the stream.

Compiling visits each template once: it hashes the body once for the
duplicate check and computes the sort key (constant characters, wildcard
count, rendered text) once; the plan then slices the segment tuple and
keeps that rendering as its text. Each index key's group is its parent key's group
merged with the key's own entries. A plan is a slotted dataclass, not a
frozen one: a frozen ``__init__`` stores each field through
``object.__setattr__``, which made building a plan more than twice as slow,
and a plan is never changed after it is compiled. A named tuple would build
cheaply too, but reads its fields more slowly in ``scan``.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterable, Iterator

from .blackbox import ClusterTree
from .templates import WILD, Template, TemplateBody


class DuplicateTemplate(Exception):
    def __init__(self, body: TemplateBody):
        super().__init__(f"duplicate template body: {body.render()}")
        self.body = body


@dataclass(slots=True)
class CompiledEntry:
    """A template and its scan plan: ``gaps`` holds one minimum length per
    wildcard and ``inner`` the constants between consecutive wildcards.

    Nothing changes a plan after it is compiled, though it is not frozen
    (see the module docstring). Entries compare field by field; they were
    never hashable, since a ``Template`` is not."""

    template_id: int
    template: Template
    text: str
    prefix: str
    suffix: str
    gaps: tuple[int, ...]
    inner: tuple[str, ...]

    def scan(self, message: str) -> tuple[str, ...] | None:
        """The wildcard captures if ``message`` matches, else None."""
        if not (message.startswith(self.prefix) and message.endswith(self.suffix)):
            return None
        pos = len(self.prefix)
        end = len(message) - len(self.suffix)
        if not self.gaps:
            return () if pos == end else None
        captures = []
        for gap, constant in zip(self.gaps, self.inner):
            found = message.find(constant, pos + gap, end)
            if found < 0:
                return None
            captures.append(message[pos:found])
            pos = found + len(constant)
        if end - pos < self.gaps[-1]:
            return None
        captures.append(message[pos:end])
        if "\n" in message and any("\n" in capture for capture in captures):
            return None
        return tuple(captures)


_BY_ID = attrgetter("template_id")


@dataclass(frozen=True)
class ConstantIndex:
    """Entries keyed by a constant that a text must start with.

    ``keys`` is sorted. Every key that begins a text is a prefix of the
    greatest key not above the text, so ``groups[i]`` holds, in
    ``template_id`` order, the entries of ``keys[i]`` and of each key that
    is a prefix of it, and ``parents[i]`` is the index of the longest key
    that is a proper prefix of ``keys[i]`` (-1 if none). One bisection, then
    a walk up the parents to the first key the text starts with, finds
    exactly the entries whose key begins the text.
    """

    keys: tuple[str, ...] = ()
    groups: tuple[tuple[CompiledEntry, ...], ...] = ()
    parents: tuple[int, ...] = ()

    @classmethod
    def build(cls, entries: Iterable[CompiledEntry],
              key: Callable[[CompiledEntry], str]) -> "ConstantIndex":
        by_key: dict[str, list[CompiledEntry]] = {}
        for entry in entries:
            by_key.setdefault(key(entry), []).append(entry)
        keys = sorted(by_key)
        chain: list[int] = []
        groups: list[tuple[CompiledEntry, ...]] = []
        parents = []
        for position, constant in enumerate(keys):
            while chain and not constant.startswith(keys[chain[-1]]):
                chain.pop()
            parent = chain[-1] if chain else -1
            parents.append(parent)
            chain.append(position)
            # The parent's group is already in id order, so the sort merges
            # two runs in linear time.
            inherited = groups[parent] if parent >= 0 else ()
            groups.append(tuple(sorted(inherited + tuple(by_key[constant]),
                                       key=_BY_ID)))
        return cls(tuple(keys), tuple(groups), tuple(parents))

    def candidates(self, text: str) -> tuple[CompiledEntry, ...]:
        keys, parents = self.keys, self.parents
        position = bisect_right(keys, text) - 1
        while position >= 0 and not text.startswith(keys[position]):
            position = parents[position]
        return self.groups[position] if position >= 0 else ()


@dataclass(frozen=True)
class CompiledRepository:
    """Entries in ``template_id`` order plus the dispatch index over them.

    ``leading`` indexes templates by their leading constant, ``trailing``
    those that start with a wildcard by their reversed trailing constant;
    ``floating`` holds the templates with wildcards at both edges, in
    ``template_id`` order, ``floating_ids`` their ids and ``needles`` their
    longest inner constants ("" if none). Every line such a template
    matches holds its needle, so a line is scanned against it only then.
    """

    entries: tuple[CompiledEntry, ...]
    leading: ConstantIndex = ConstantIndex()
    trailing: ConstantIndex = ConstantIndex()
    floating: tuple[CompiledEntry, ...] = ()
    floating_ids: tuple[int, ...] = ()
    needles: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.entries)


def _entry(template_id: int, template: Template, text: str,
           allow_empty_inner: bool) -> CompiledEntry:
    segments = template.body.segments
    prefix = segments[0] if segments and segments[0] is not WILD else ""
    middle = segments[1:] if prefix else segments
    suffix = middle[-1] if middle and middle[-1] is not WILD else ""
    if suffix:
        middle = middle[:-1]
    # What lies between the edge constants alternates wildcard, constant, ...
    # wildcard, so its constants are every second segment.
    inner_gap = 0 if allow_empty_inner else 1
    gaps = [inner_gap] * ((len(middle) + 1) // 2)
    if gaps:
        if not prefix:
            gaps[0] = 0
        if not suffix:
            gaps[-1] = 0
    return CompiledEntry(template_id=template_id, template=template, text=text,
                         prefix=prefix, suffix=suffix, gaps=tuple(gaps),
                         inner=middle[1::2])


def compile_repository(templates: list[Template],
                       allow_empty_inner: bool = False) -> CompiledRepository:
    """Compile templates in matching order; duplicate bodies are rejected.

    Ordering key: constant characters descending, wildcard count
    ascending, rendered text — a pure function of the template set.
    """
    seen: set[TemplateBody] = set()
    keyed = []
    for position, template in enumerate(templates):
        body = template.body
        seen.add(body)
        if len(seen) == position:  # the body was there already
            raise DuplicateTemplate(body)
        keyed.append((-body.constant_chars, body.wildcard_count, body.render(),
                      position, template))
    keyed.sort()
    entries = tuple(_entry(template_id, template, text, allow_empty_inner)
                    for template_id, (_, _, text, _, template) in enumerate(keyed))
    floating = tuple(e for e in entries if not e.prefix and not e.suffix)
    return CompiledRepository(
        entries=entries,
        leading=ConstantIndex.build(
            (e for e in entries if e.prefix), lambda e: e.prefix),
        trailing=ConstantIndex.build(
            (e for e in entries if not e.prefix and e.suffix),
            lambda e: e.suffix[::-1]),
        floating=floating,
        floating_ids=tuple(e.template_id for e in floating),
        needles=tuple(max(e.inner, key=len, default="") for e in floating))


@dataclass(slots=True)
class MatchResult:
    log_line: str
    matched: bool
    template_id: int | None = None
    template: str | None = None
    captures: tuple[str, ...] = ()
    cluster_id: int | None = None
    cluster_template: str | None = None


def match_line(repo: CompiledRepository, line: str,
               tree: ClusterTree | None = None) -> MatchResult:
    """Match one line; on a miss, ingest it into the cluster tree if given.

    The line's surrounding whitespace is ignored. An all-whitespace line
    can still match an edge-wildcard template; otherwise it raises
    EmptyMessage when a tree is present. Each index group is scanned in
    ``template_id`` order up to its first hit, then the floating templates
    below the best hit whose needle the line holds, and the lowest id wins.
    """
    message = line.strip()
    best: CompiledEntry | None = None
    captures: tuple[str, ...] = ()
    for group in (repo.leading.candidates(message),
                  repo.trailing.candidates(message[::-1])):
        for entry in group:
            if best is not None and entry.template_id > best.template_id:
                break
            hit = entry.scan(message)
            if hit is not None:
                best, captures = entry, hit
                break
    needles = repo.needles
    if best is not None:
        needles = needles[:bisect_right(repo.floating_ids, best.template_id)]
    for needle, entry in zip(needles, repo.floating):
        if needle in message:
            hit = entry.scan(message)
            if hit is not None:
                best, captures = entry, hit
                break
    if best is not None:
        return MatchResult(line, True, best.template_id, best.text, captures)
    if tree is None:
        return MatchResult(line, False)
    cluster_id, cluster_template = tree.ingest(message)
    return MatchResult(line, False, None, None, (), cluster_id, cluster_template)


@dataclass
class MatchCounts:
    per_template: Counter[int] = field(default_factory=Counter)
    routed: int = 0
    dropped_empty: int = 0
    total: int = 0

    @property
    def matched(self) -> int:
        return sum(self.per_template.values())

    @property
    def match_rate(self) -> float:
        return self.matched / self.total if self.total else 0.0


def match_stream(repo: CompiledRepository, lines: Iterable[str], counts: MatchCounts,
                 tree: ClusterTree | None = None,
                 header_pattern: str | None = None) -> Iterator[MatchResult]:
    """Match lines as they arrive, stripping the configured header prefix first.

    Each result is yielded before the next line is read, with ``counts``
    already current. Lines empty after header stripping are dropped and
    counted; for the rest, matched + routed equals the surviving lines.
    """
    header = re.compile(header_pattern) if header_pattern else None
    for line in lines:
        counts.total += 1
        message = line.rstrip("\n")
        if header is not None:
            prefix = header.match(message)
            if prefix is not None:
                message = message[prefix.end():]
        if not message.strip():
            counts.dropped_empty += 1
            continue
        result = match_line(repo, message, tree)
        if result.matched:
            counts.per_template[result.template_id] += 1
        else:
            counts.routed += 1
        yield result


def run_stream(repo: CompiledRepository, lines, tree: ClusterTree | None = None,
               header_pattern: str | None = None) -> tuple[list[MatchResult], MatchCounts]:
    """Every result of :func:`match_stream` over ``lines``, and the counts."""
    counts = MatchCounts()
    return list(match_stream(repo, lines, counts, tree, header_pattern)), counts
