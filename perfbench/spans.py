"""In-memory span recorder and the statistics the benchmark reports.

A span is one call of a wrapped function: ``(id, parent, name, start, end)``,
where ``parent`` is the id of the span that was open when the call began
(-1 at top level). Spans and counters stay in memory and are written out
once, when the traced process ends.
"""

from __future__ import annotations

import functools
import json
import math
import re
import statistics
import time
from collections import defaultdict

# Metric and span names: a letter or digit, then letters, digits, "_", "." or
# "-", at most 64 characters in all.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def check_name(name: str) -> str:
    if not NAME_RE.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


class Tracer:
    """Records spans around wrapped calls, plus named counters and notes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.notes: dict[str, object] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` wrapped so each call records a span called ``name``.

        ``on_result(tracer, args, result)`` runs after the span has closed,
        so its own cost is not charged to the call.
        """
        check_name(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append((span_id, parent, name, 0.0, 0.0))
            self._open.append(span_id)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._open.pop()
                self.spans[span_id] = (span_id, parent, name, start, end)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[check_name(name)] += value

    def dump(self, path, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters),
                       "notes": self.notes, **extra}, fh)


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover.

    The program is single-threaded, so the children of one span run one
    after another inside it and their durations simply add up.
    """
    own = {span_id: end - start for span_id, _, _, start, end in spans}
    for _, parent, _, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of percentile ``pct`` among ``n`` sorted samples."""
    return math.ceil(round(pct * n / 100.0, 9))


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least ten samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if n - _rank(pct, n) >= MIN_BEYOND:
            return pct
    return None


def summarize(samples) -> dict:
    """Median, the tail percentile from :func:`tail_percentile` and n."""
    values = sorted(samples)
    n = len(values)
    if n == 0:
        return {"median": 0.0, "tail_pct": None, "tail": None, "n": 0}
    median = statistics.median(values)
    pct = tail_percentile(n)
    tail = values[_rank(pct, n) - 1] if pct is not None else None
    return {"median": median, "tail_pct": pct, "tail": tail, "n": n}
