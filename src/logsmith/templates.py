"""Log template representation shared by every stage of the pipeline.

A template is an ordered sequence of constant text segments and wildcard
slots. White-box extraction, black-box clustering, matching and evaluation
all exchange templates in this form; the textual rendering uses ``<.*>``
for a wildcard slot. The wildcard is one instance, ``WILD``: ``Wildcard()``
returns it, copies and pickles keep it, and segments are compared and
hashed by identity, so code tests a segment with ``is WILD``.

A repository file holds one JSON record per line. ``load_repository``
decodes each stripped line with one call to the C scanner through
``JSONDecoder.raw_decode``, and calls ``json.loads`` only for a line that is
not exactly one JSON value, so that the error it names the line with is
``json.loads``' own ("Extra data", "Unexpected UTF-8 BOM", ...).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from itertools import groupby
from pathlib import Path
from typing import Iterable

WILDCARD_TOKEN = "<.*>"

# Recognized log levels, ordered from least to most severe.
LEVELS = ("trace", "debug", "info", "warn", "error", "fatal")
_LEVEL_RANK = {name: rank for rank, name in enumerate(LEVELS)}


class Wildcard:
    """Marker segment for a variable slot inside a template; its one
    instance is ``WILD``."""

    __slots__ = ()

    def __new__(cls) -> Wildcard:
        return WILD

    def __reduce__(self):
        return (Wildcard, ())

    def __repr__(self) -> str:
        return WILDCARD_TOKEN


WILD: Wildcard = object.__new__(Wildcard)


@dataclass(frozen=True)
class TemplateBody:
    """Normalized segment sequence: no adjacent constants, no adjacent wildcards.

    Construct through :meth:`from_segments` or :meth:`parse`, which merge
    adjacent constants, collapse runs of wildcards and drop empty constants.
    """

    segments: tuple[str | Wildcard, ...]

    @classmethod
    def from_segments(cls, raw: Iterable[str | Wildcard]) -> "TemplateBody":
        segments: list[str | Wildcard] = []
        for wild, run in groupby(raw, lambda seg: seg is WILD):
            text = "" if wild else "".join(run)
            if text:
                segments.append(text)
            elif wild and (not segments or segments[-1] is not WILD):
                segments.append(WILD)
        return cls(tuple(segments))

    @classmethod
    def parse(cls, text: str, token: str = WILDCARD_TOKEN) -> "TemplateBody":
        """Parse a rendered template string, splitting on the wildcard token."""
        if not text:
            return cls(())
        # No piece holds the token, so a wildcard stands between each two
        # non-empty pieces and at each edge where the text has the token.
        pieces = text.split(token)
        segments: list[str | Wildcard] = [WILD]
        for piece in pieces:
            if piece:
                segments += piece, WILD
        return cls(tuple(segments[1 if pieces[0] else 0:
                                  -1 if pieces[-1] else len(segments)]))

    def render(self, token: str = WILDCARD_TOKEN) -> str:
        return "".join([token if s is WILD else s for s in self.segments])

    @property
    def constants(self) -> tuple[str, ...]:
        return tuple([s for s in self.segments if s is not WILD])

    @property
    def constant_chars(self) -> int:
        return sum([len(s) for s in self.segments if s is not WILD])

    @property
    def wildcard_count(self) -> int:
        return self.segments.count(WILD)

    @property
    def has_constant(self) -> bool:
        return any(s is not WILD for s in self.segments)


def level_rank(level: str) -> int:
    """Severity rank of a log level (0 = trace ... 5 = fatal)."""
    try:
        return _LEVEL_RANK[level]
    except KeyError:
        raise ValueError(f"unknown log level: {level!r}") from None


@dataclass
class Template:
    """A repository entry: a template body plus its provenance metadata."""

    body: TemplateBody
    level: str | None = None
    methods: tuple[str, ...] = ()
    source: str = "whitebox"
    match_count: int | None = None

    def to_record(self) -> dict:
        record = {
            "template": self.body.render(),
            "level": self.level,
            "methods": list(self.methods),
            "source": self.source,
        }
        if self.match_count is not None:
            record["match_count"] = self.match_count
        return record

    @classmethod
    def from_record(cls, record: dict) -> "Template":
        text = record.get("template") if isinstance(record, dict) else None
        if not isinstance(text, str):
            raise ValueError("a record must be an object with a string template")
        methods = record.get("methods", [])
        if not (isinstance(methods, list) and all(isinstance(m, str) for m in methods)):
            raise ValueError("methods must be a list of strings")
        return cls(body=TemplateBody.parse(text), level=record.get("level"),
                   methods=tuple(methods), source=record.get("source", "whitebox"),
                   match_count=record.get("match_count"))


def merge_templates(templates: Iterable[Template]) -> list[Template]:
    """Merge templates with equal bodies, in first-seen order.

    A merged entry keeps its first template's fields, the lowest-rank
    level seen and the sorted union of the contributing methods.
    """
    groups: dict[TemplateBody, list[Template]] = {}
    for template in templates:
        groups.setdefault(template.body, []).append(template)
    return [group[0] if len(group) == 1 else replace(
                group[0],
                level=min([t.level for t in group if t.level], key=level_rank, default=None),
                methods=tuple(sorted({m for t in group for m in t.methods})))
            for group in groups.values()]


def save_repository(templates: Iterable[Template], path: str | Path) -> None:
    """Write templates as line-oriented JSON records."""
    with open(path, "w", encoding="utf-8") as handle:
        for template in templates:
            handle.write(json.dumps(template.to_record(), ensure_ascii=False) + "\n")


def append_repository(templates: Iterable[Template], path: str | Path,
                      present: Iterable[TemplateBody]) -> int:
    """Append templates to a repository file, skipping the bodies ``present``
    in it already, which the caller has read, and repeats among ``templates``;
    the first starts a new line if the file's last line has no newline.

    Returns the number of templates actually appended.
    """
    path = Path(path)
    existing, separator = set(present), ""
    if path.exists():
        with open(path, "rb") as handle:  # only the last byte
            handle.seek(max(handle.seek(0, os.SEEK_END) - 1, 0))
            separator = "" if handle.read(1) in (b"", b"\n") else "\n"
    appended = 0
    with open(path, "a", encoding="utf-8") as handle:
        for template in templates:
            if template.body in existing:
                continue
            record = json.dumps(template.to_record(), ensure_ascii=False)
            handle.write(f"{separator}{record}\n")
            separator = ""
            existing.add(template.body)
            appended += 1
    return appended


_RAW_DECODE = json.JSONDecoder().raw_decode


def _decode(line: str):
    """The JSON value a stripped line holds: one ``raw_decode``, and
    ``json.loads`` only to raise its own error when that fails or stops
    before the end of the line."""
    try:
        value, end = _RAW_DECODE(line)
    except ValueError:
        end = -1
    return value if end == len(line) else json.loads(line)


def load_repository(path: str | Path) -> list[Template]:
    """The templates of a repository file; ValueError names a bad record's line."""
    templates = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                templates.append(Template.from_record(_decode(line)))
            except (ValueError, RecursionError) as exc:  # too deep to decode
                raise ValueError(f"{path}: line {number}: {exc}") from None
    return templates
