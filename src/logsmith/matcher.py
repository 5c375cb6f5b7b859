"""Template compilation and streaming log matching.

Each template compiles to a scan plan: prefix, inner constants, suffix and
a minimum length per wildcard (>= 1 between constants, >= 0 at the template
edges). A line matches when it starts with the prefix, ends with the suffix
and holds each inner constant at its leftmost place after the previous one;
the text between is captured, and no capture may hold a newline. This
accepts the lines, and yields the captures, of the non-greedy reference
regex built by ``compile_body`` in ``tests/oracle.py``, in time linear in
the line. A dispatch index on leading and trailing constants, and a needle
(the longest inner constant) for templates with wildcards at both edges,
sends each line only to the templates that can match it. The repository
keeps a fixed order — most constant characters first, then fewest
wildcards — and the first template in it that matches wins, so the most
specific one does. Lines matching nothing are routed to the black-box
cluster tree. ``match_stream`` yields each line's result as the line
arrives and keeps running counts, so memory holds no part of the stream.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .blackbox import ClusterTree
from .templates import Template, TemplateBody


class DuplicateTemplate(Exception):
    def __init__(self, body: TemplateBody):
        super().__init__(f"duplicate template body: {body.render()}")
        self.body = body


@dataclass(frozen=True, slots=True)
class CompiledEntry:
    """A template and its scan plan: ``gaps`` holds one minimum length per
    wildcard, ``inner`` the constants between consecutive wildcards, and
    ``needle`` the longest of them ("" if none), which every line the
    template matches contains."""

    template_id: int
    template: Template
    text: str
    prefix: str
    suffix: str
    gaps: tuple[int, ...]
    inner: tuple[str, ...]
    needle: str

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


@dataclass(frozen=True)
class ConstantIndex:
    """Entries keyed by a constant that a text must start with.

    ``keys`` is sorted. Every key that begins a text is a prefix of the
    greatest key not above the text, so ``groups[i]`` holds, in
    ``template_id`` order, the entries of ``keys[i]`` and of each key that
    is a prefix of it; one bisection finds every candidate.
    """

    keys: tuple[str, ...] = ()
    groups: tuple[tuple[CompiledEntry, ...], ...] = ()

    @classmethod
    def build(cls, entries: Iterable[CompiledEntry],
              key: Callable[[CompiledEntry], str]) -> "ConstantIndex":
        by_key: dict[str, list[CompiledEntry]] = {}
        for entry in entries:
            by_key.setdefault(key(entry), []).append(entry)
        keys = sorted(by_key)
        chain: list[str] = []
        groups = []
        for constant in keys:
            while chain and not constant.startswith(chain[-1]):
                chain.pop()
            chain.append(constant)
            groups.append(tuple(sorted((e for k in chain for e in by_key[k]),
                                       key=lambda e: e.template_id)))
        return cls(tuple(keys), tuple(groups))

    def candidates(self, text: str) -> tuple[CompiledEntry, ...]:
        position = bisect_right(self.keys, text)
        return self.groups[position - 1] if position else ()


@dataclass(frozen=True)
class CompiledRepository:
    """Entries in ``template_id`` order plus the dispatch index over them.

    ``leading`` indexes templates by their leading constant, ``trailing``
    those that start with a wildcard by their reversed trailing constant;
    ``floating`` holds the templates with wildcards at both edges, in
    ``template_id`` order; a message is scanned against one of them only
    if it holds the entry's ``needle``.
    """

    entries: tuple[CompiledEntry, ...]
    allow_empty_inner: bool = False
    leading: ConstantIndex = ConstantIndex()
    trailing: ConstantIndex = ConstantIndex()
    floating: tuple[CompiledEntry, ...] = ()

    def __len__(self) -> int:
        return len(self.entries)


def _entry(template_id: int, template: Template,
           allow_empty_inner: bool) -> CompiledEntry:
    segments = list(template.body.segments)
    prefix = segments.pop(0) if segments and isinstance(segments[0], str) else ""
    suffix = segments.pop() if segments and isinstance(segments[-1], str) else ""
    inner_gap = 0 if allow_empty_inner else 1
    gaps = [inner_gap] * ((len(segments) + 1) // 2)
    if gaps:
        if not prefix:
            gaps[0] = 0
        if not suffix:
            gaps[-1] = 0
    inner = tuple(s for s in segments if isinstance(s, str))
    return CompiledEntry(template_id=template_id, template=template,
                         text=template.body.render(),
                         prefix=prefix, suffix=suffix, gaps=tuple(gaps),
                         inner=inner, needle=max(inner, key=len, default=""))


def compile_repository(templates: list[Template],
                       allow_empty_inner: bool = False) -> CompiledRepository:
    """Compile templates in matching order; duplicate bodies are rejected.

    Ordering key: constant characters descending, wildcard count
    ascending, rendered text — a pure function of the template set.
    """
    seen: set[TemplateBody] = set()
    for template in templates:
        if template.body in seen:
            raise DuplicateTemplate(template.body)
        seen.add(template.body)
    ordered = sorted(
        enumerate(templates),
        key=lambda pair: (-pair[1].body.constant_chars,
                          pair[1].body.wildcard_count,
                          pair[1].body.render(),
                          pair[0]),
    )
    entries = tuple(_entry(position, template, allow_empty_inner)
                    for position, (_, template) in enumerate(ordered))
    return CompiledRepository(
        entries=entries, allow_empty_inner=allow_empty_inner,
        leading=ConstantIndex.build(
            (e for e in entries if e.prefix), lambda e: e.prefix),
        trailing=ConstantIndex.build(
            (e for e in entries if not e.prefix and e.suffix),
            lambda e: e.suffix[::-1]),
        floating=tuple(e for e in entries if not e.prefix and not e.suffix))


@dataclass(frozen=True, slots=True)
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
    ``template_id`` order up to its first hit, and the lowest id wins.
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
    bound = best.template_id if best is not None else len(repo.entries)
    for entry in repo.floating:
        if entry.template_id > bound:
            break
        if entry.needle in message:
            hit = entry.scan(message)
            if hit is not None:
                best, captures = entry, hit
                break
    if best is not None:
        return MatchResult(
            log_line=line,
            matched=True,
            template_id=best.template_id,
            template=best.text,
            captures=captures,
        )
    if tree is None:
        return MatchResult(log_line=line, matched=False)
    cluster_id, cluster_template = tree.ingest(message)
    return MatchResult(log_line=line, matched=False, cluster_id=cluster_id,
                       cluster_template=cluster_template)


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
