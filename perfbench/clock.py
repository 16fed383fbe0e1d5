"""Timing in reference-speed seconds, for a machine whose speed drifts.

On a shared host the same pure-Python work can take 1.7 times longer for
tens of seconds at a stretch, because of other tenants. A plain wall
time then measures the neighbours as much as the program. So while a
timed region runs, a timer signal interrupts it every ``PERIOD_S`` and
times a fixed reference loop (one more sample is taken just before and
just after the region). The region's time is then reported twice:

* ``raw``: wall seconds, minus the time spent in the samples taken
  inside the region;
* ``scaled``: ``raw`` times the mean of ``REF_S / sample``, i.e. the time
  the region would have taken had the reference loop run in exactly
  ``REF_S`` throughout. This is what the end-to-end metrics report.

The samples run between bytecodes of the timed code and touch none of
its state, so its outputs are unchanged.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

REF_ITERATIONS = 20_000
REF_S = 5.0e-3          # reference speed: the loop takes this long
PERIOD_S = 0.25


def reference_loop() -> float:
    """Fixed dict, float and integer work, like the simulator's; its duration."""
    t0 = time.perf_counter()
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(REF_ITERATIONS):
        k = i & 63
        table[k] = table.get(k, 0.0) + i * 0.5
        acc += k % 7
    return time.perf_counter() - t0


class Timing:
    raw = 0.0
    scaled = 0.0


@contextmanager
def timed():
    """Time the body; fills the yielded Timing on exit."""
    out = Timing()
    inside: list[float] = []
    before = reference_loop()
    previous = signal.signal(signal.SIGALRM, lambda _sig, _frame:
                             inside.append(reference_loop()))
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    t0 = time.perf_counter()
    try:
        yield out
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        t1 = time.perf_counter()
        signal.signal(signal.SIGALRM, previous)
        after = reference_loop()
        out.raw = t1 - t0 - sum(inside)
        out.scaled = out.raw * statistics.fmean(
            REF_S / r for r in (before, *inside, after))
