"""In-memory spans and counts recorded around the benchmark's calls into tropcoh.

A span is (name, start, end, parent index, job id).  Counts are recorded at
the same call sites, keyed by the job they belong to.  With tracing off,
``call`` is a plain function call, so untraced jobs pay one method dispatch.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: object


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: list[tuple[object, str, float]] = []
        self.job: object = None
        self._stack: list[int] = []

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, parent, self.job)
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts.append((self.job, name, value))

    def to_json(self) -> dict:
        return {
            "spans": [
                [s.name, s.start, s.end, s.parent, s.job] for s in self.spans
            ],
            "counts": [[job, name, value] for job, name, value in self.counts],
        }


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def layer_per_job(spans: list[Span], jobs) -> dict[str, list[float]]:
    """Per layer, the summed self time of its spans in each listed job."""
    jobs = list(jobs)
    selfs = self_times(spans)
    totals: dict[str, dict[object, float]] = {}
    for s, t in zip(spans, selfs):
        if s.job in jobs:
            per = totals.setdefault(s.name, {})
            per[s.job] = per.get(s.job, 0.0) + t
    return {name: list(per.values()) for name, per in totals.items()}


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile, 0 <= pct <= 100."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values)
