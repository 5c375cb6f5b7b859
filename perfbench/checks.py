"""Output checks. Each raises CheckFailed naming the first discrepancy.

The checks recompute what they can without the program: evaluation
scores come from a multiset count over canonical bodies, parse outcomes
come from the plan the stream generator wrote, and matched lines are
re-checked against their template with the test suite's oracle.
"""

from __future__ import annotations

import re
from collections import Counter

from logsmith import TemplateBody, Wildcard

from inputs import DROPPED, MATCHED, ROUTED

_SUMMARY = re.compile(r"(\d+) lines: (\d+) matched, (\d+) routed, (\d+) dropped ")


class CheckFailed(Exception):
    pass


def same_bytes(what: str, expected: bytes, actual: bytes) -> None:
    if expected != actual:
        raise CheckFailed(f"{what} differs between runs")


def canonical(text: str) -> str:
    """A template with whitespace-only constants between two wildcards removed."""
    segments = TemplateBody.parse(text).segments
    kept = [segment for i, segment in enumerate(segments)
            if not (isinstance(segment, str) and not segment.strip()
                    and 0 < i < len(segments) - 1
                    and isinstance(segments[i - 1], Wildcard)
                    and isinstance(segments[i + 1], Wildcard))]
    return TemplateBody.from_segments(kept).render()


def scores(parsed: list[str], truth: list[str]) -> tuple[float, float, float]:
    """Strict template-level precision, recall and F1 as multiset counts."""
    pairs = sum((Counter(map(canonical, parsed)) & Counter(map(canonical, truth))).values())
    precision = pairs / len(parsed) if parsed else 0.0
    recall = pairs / len(truth) if truth else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    return precision, recall, f1


def check_eval(stdout: str, payload: dict, parsed: list[str], truth: list[str]) -> None:
    """The scores ``eval`` printed and wrote equal the recomputed ones."""
    precision, recall, f1 = scores(parsed, truth)
    written = (payload.get("precision"), payload.get("recall"), payload.get("f1"))
    if written != (precision, recall, f1):
        raise CheckFailed(f"eval wrote {written}, recomputed {(precision, recall, f1)}")
    printed = f"precision {precision:.3f}  recall {recall:.3f}  f1 {f1:.3f}"
    if printed not in stdout.splitlines():
        raise CheckFailed(f"eval did not print {printed!r}")


def planned_counts(plan: list[tuple[str, str]]) -> tuple[int, int, int, int]:
    outcomes = Counter(outcome for outcome, _ in plan)
    return (len(plan), outcomes[MATCHED], len(plan) - outcomes[MATCHED] - outcomes[DROPPED],
            outcomes[DROPPED])


def check_parse(stdout: str, records: list[dict], plan: list[tuple[str, str]],
                templates: list[str], matches) -> int:
    """``parse`` output agrees with the plan, line by line and in its counts.

    ``templates`` lists the repository's rendered templates by template_id;
    ``matches(body, text)`` is the oracle's acceptance test. A line planned
    as matched may be routed only when no repository template accepts it:
    ``extract`` then missed the template it was filled from, a gap that
    ``eval``'s recall shows. Returns the number of such lines.
    """
    survivors = [entry for entry in plan if entry[0] != DROPPED]
    if len(records) != len(survivors):
        raise CheckFailed(f"parse wrote {len(records)} records for "
                          f"{len(survivors)} surviving lines")
    bodies = [TemplateBody.parse(template) for template in templates]
    gaps = 0
    for number, ((outcome, message), record) in enumerate(zip(survivors, records)):
        if record.get("line") != message:
            raise CheckFailed(f"record {number}: line {record.get('line')!r}, "
                              f"expected {message!r}")
        if outcome == MATCHED and record.get("matched") is False:
            accepting = [index for index, body in enumerate(bodies)
                         if matches(body, message.strip())]
            if accepting:
                raise CheckFailed(f"record {number}: routed, but template "
                                  f"{accepting[0]} accepts {message!r}")
            outcome, gaps = ROUTED, gaps + 1
        if record.get("matched") != (outcome == MATCHED):
            raise CheckFailed(f"record {number}: matched={record.get('matched')}, "
                              f"planned {outcome}")
        if outcome != MATCHED:
            if not isinstance(record.get("cluster_id"), int):
                raise CheckFailed(f"record {number}: routed line has no cluster")
            continue
        template_id = record.get("template_id")
        if (not isinstance(template_id, int) or not 0 <= template_id < len(templates)
                or templates[template_id] != record.get("template")):
            raise CheckFailed(f"record {number}: template_id {template_id} does not "
                              f"name template {record.get('template')!r}")
        if not matches(TemplateBody.parse(record["template"]), message.strip()):
            raise CheckFailed(f"record {number}: {message!r} is not accepted by "
                              f"{record['template']!r}")
    total, matched, routed, dropped = planned_counts(plan)
    planned = (total, matched - gaps, routed + gaps, dropped)
    summary = _SUMMARY.match(stdout)
    if summary is None or tuple(map(int, summary.groups())) != planned:
        raise CheckFailed(f"parse printed {stdout.splitlines()[:1]}, planned "
                          "%d lines: %d matched, %d routed, %d dropped" % planned)
    return gaps


def check_same_outcomes(records: list[dict], results) -> None:
    """Match results from a direct ``run_stream`` pass equal the CLI's records."""
    if len(records) != len(results):
        raise CheckFailed(f"{len(results)} results for {len(records)} records")
    for number, (record, result) in enumerate(zip(records, results)):
        if (record.get("matched"), record.get("template_id"), record.get("cluster_id")) != (
                result.matched, result.template_id, result.cluster_id):
            raise CheckFailed(f"line {number}: run_stream and parse disagree")
