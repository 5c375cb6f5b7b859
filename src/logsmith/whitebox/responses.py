"""Parsing of gateway responses into extraction records.

A response is expected to contain a JSON array of objects with the fields
``method``, ``template`` and ``level``. Models wrap output in prose or
code fences often enough that the parser scans the text for the first
well-formed array rather than requiring pure JSON.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from ..templates import LEVELS

_REQUIRED_FIELDS = ("method", "template", "level")

# A record array opens with an object or is empty, so only a ``[`` followed,
# after JSON whitespace, by ``{`` or ``]`` can start one.
_CANDIDATE = re.compile(r"\[(?=[ \t\n\r]*[{\]])")


class MalformedResponse(Exception):
    """No well-formed record array could be located in the response text."""


@dataclass(frozen=True, slots=True)
class ExtractedTemplate:
    method: str
    template: str
    level: str


def _coerce_record(obj) -> ExtractedTemplate | None:
    if not isinstance(obj, dict):
        return None
    values = []
    for name in _REQUIRED_FIELDS:
        value = obj.get(name)
        if not isinstance(value, str):
            return None
        values.append(value)
    method, template, level = values
    level = level.lower()
    if level not in LEVELS:
        return None
    return ExtractedTemplate(method=method, template=template, level=level)


def parse_response(text: str) -> list[ExtractedTemplate]:
    """Extract the first well-formed record array found in ``text``.

    Surrounding prose and code fences are tolerated: every ``[`` that can
    open a record array starts a candidate, and the first one that decodes as a
    JSON array whose elements all carry the three string fields (with a
    recognized level) wins. Raises MalformedResponse when no candidate
    qualifies.
    """
    decoder = json.JSONDecoder()
    for candidate in _CANDIDATE.finditer(text):
        try:
            value, _ = decoder.raw_decode(text, candidate.start())
        except (ValueError, RecursionError):  # nesting past the decoder's reach
            continue
        records = [_coerce_record(item) for item in value]
        if all(record is not None for record in records):
            return records
    raise MalformedResponse("no JSON array of template records found in response")


def render_records(records: list[ExtractedTemplate]) -> str:
    """Serialize records back to the response wire format, on one line: without
    ``indent``, ``json`` encodes with its C encoder."""
    payload = [
        {"method": r.method, "template": r.template, "level": r.level}
        for r in records
    ]
    return json.dumps(payload)
