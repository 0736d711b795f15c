"""Host speed, measured around and during every timed job.

The shared host this benchmark runs on changes speed by up to 2x from one
second to the next (the same pure-Python loop takes 7 ms, then 13 ms, then
7 ms again), and a slow phase can cover a whole run.  So every timed job is
measured together with the host's slowdown: the time of fixed work of the
same kind as the job, which does not touch the package, over that work's
time on the quiet host the benchmark was written on (a 2-vCPU VM, Python
3.11.7).  The job's time is scaled to that host:

    scaled = (raw - time spent sampling) / mean(slowdowns sampled)

A change to the package moves the scaled time exactly as it moves the raw
time; only the host's drift cancels.  Two kinds of work are used:

* ``loop_slowdown`` for in-process jobs: a pure-Python loop over tuples,
  dicts, small ints and fractions, the fastest of ``LOOP_REPS`` so that a
  preemption during one loop does not count as a slow host.  It is sampled
  right before the job, right after it and every ``SAMPLE_PERIOD_S`` during
  it, from a SIGALRM handler that runs between the job's bytecodes; the
  handler's own time is taken out of the job's time.  With samples only
  before and after, jobs longer than the host's phases (``smooth_check``'s
  one-second checks) kept most of their noise.
* ``start_slowdown`` for jobs that start a Python process: one bare
  interpreter start, right before and right after the job; the sample after
  one job is the sample before the next, which halves their cost.  The loop
  tracked the speed of child processes worse than their raw times varied.

Samples farther from the job (a median over a window of seconds, or over the
whole run) tracked the job's speed worse than the ones next to and inside it.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

LOOP_ITERS = 4000
LOOP_REPS = 3
# the calibration work's times on the quiet reference host
LOOP_REF_S = 0.00175
START_REF_S = 0.045
SAMPLE_PERIOD_S = 0.2


def _loop() -> int:
    table: dict = {}  # at most 32 * 7 keys, so the loop's memory does not grow with LOOP_ITERS
    acc = 0
    half = Fraction(1, 2)
    for i in range(LOOP_ITERS):
        p = (i & 31, i % 7)
        table[p] = table.get(p, 0) + i
        acc += p[0] * p[1] - (i >> 3)
        if i % 64 == 0:
            acc += int(half * i + Fraction(i % 7, 3))
    return acc


def _timed_loop() -> float:
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def loop_slowdown() -> float:
    """How many times slower than the reference host the pure-Python loop runs now."""
    return min(_timed_loop() for _ in range(LOOP_REPS)) / LOOP_REF_S


def start_slowdown() -> float:
    """How many times slower than the reference host a bare interpreter starts now."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    return (time.perf_counter() - t0) / START_REF_S


class JobClock:
    """The host's slowdown before, during (``interior``) and after one job.

    ``before``, when given, is a sample just taken (the previous job's last)
    and stands for the one ``start()`` would take.
    """

    def __init__(self, slowdown, interior: bool, before: float | None = None):
        self.slowdown = slowdown
        self.interior = interior
        self.before = before
        self.samples: list[float] = []
        self._interior_spans: list[tuple[float, float]] = []  # (start, end) of each interior sample

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(self.slowdown())
        self._interior_spans.append((t0, time.perf_counter()))

    def start(self) -> None:
        """Sample, then arm the interior samples; call right before the job's start time is read."""
        self.samples.append(self.slowdown() if self.before is None else self.before)
        if self.interior:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        """Disarm the interior samples; call before the job's end time is read."""
        if self.interior:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def finish(self, end: float) -> float:
        """Sample once more, after the job's end time ``end`` was read.

        Returns the seconds interior samples took before ``end``: a sample
        the handler ran between ``stop()`` and reading ``end`` is inside the
        job's wall time, one it ran later is not.
        """
        self.samples.append(self.slowdown())
        return sum(b - a for a, b in self._interior_spans if b <= end)

    def scale(self, seconds: float) -> float:
        """A job's own ``seconds`` scaled to the reference host."""
        return seconds / statistics.mean(self.samples)
