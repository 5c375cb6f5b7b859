"""A fixed reference task that tracks how fast the host runs Python right now.

On a shared virtual machine the speed of this vCPU moves by up to a factor
of two within minutes, in CPU time as well as in wall time: neighbours on
the same physical core slow it in bursts of tens of milliseconds, and the
share of slow bursts drifts. The benchmark runs this task between its
timed steps and divides each step's time by the host's slowness around it,
the mean of the task's time just before and just after the step over
REFERENCE_SECONDS. The task owes nothing to the program and its inputs
are fixed, so it is the same for every seed and every version of the
program. It mixes the kinds of work the program does: splitting and
counting tokens, regex matching with lazy gaps, JSON encoding and
decoding, and allocating and sorting small objects; one kind alone
tracked the program less closely.
"""

from __future__ import annotations

import gc
import json
import random
import re
import time

# About what the task takes on an undisturbed 2-vCPU Intel Xeon virtual
# machine, so scaled times read as on such a host.
REFERENCE_SECONDS = 0.05

_rng = random.Random(0)
_WORDS = ("kernel", "quota", "heap", "thread", "socket", "buffer", "cache", "queue",
          "lease", "token", "shard", "replica", "batch", "epoch", "vertex", "cursor",
          "frame", "packet", "route", "pager", "tenant", "bucket", "ledger", "mirror")
_LINES = [" ".join(_rng.choice(_WORDS) + (f"-{_rng.randrange(100)}" if _rng.random() < 0.4
                                           else "")
                   for _ in range(_rng.randint(4, 12))) for _ in range(300)]
_TOKEN = re.compile(r"([a-z]+)-(\d+)")
_SCANS = [re.compile("^" + ".*?".join(re.escape(word) for word in _rng.sample(_WORDS, 3))
                     + ".*$") for _ in range(40)]
_DOCUMENT = [{"id": index, "name": _rng.choice(_WORDS),
              "tags": [_rng.choice(_WORDS) for _ in range(5)], "weight": _rng.random()}
             for index in range(300)]


class _Item:
    __slots__ = ("rank", "label")

    def __init__(self, rank: int, label: str):
        self.rank, self.label = rank, label


def _count_tokens() -> None:
    counts: dict[str, int] = {}
    for line in _LINES:
        for token in line.split():
            match = _TOKEN.fullmatch(token)
            key = match.group(1) if match else token
            counts[key] = counts.get(key, 0) + len(token)
    sorted(counts.items(), key=lambda item: (-item[1], item[0]))


def _scan_lines() -> None:
    for line in _LINES[:60]:
        for pattern in _SCANS:
            pattern.match(line)


def _round_trip() -> None:
    json.loads(json.dumps(_DOCUMENT, sort_keys=True))


def _sort_items() -> None:
    items = [_Item(index % 97, str(index)) for index in range(6000)]
    items.sort(key=lambda item: (item.rank, item.label))


_TASK = ((_count_tokens, 10), (_scan_lines, 40), (_round_trip, 10), (_sort_items, 3))


def reference_seconds() -> float:
    """CPU time of one run of the reference task, from a collected heap."""
    gc.collect()
    start = time.process_time()
    for part, rounds in _TASK:
        for _ in range(rounds):
            part()
    return time.process_time() - start
