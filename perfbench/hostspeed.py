"""Host-speed probe: a fixed reference loop timed every half second.

On a shared machine the speed of the same code drifts: on the 2-CPU host
the benchmark was written on, it moves between two levels about 1.6x
apart, for seconds to minutes at a time. The probe measures that drift
while a unit runs, so a unit's time can be divided by it.

``SIGALRM`` fires every ``PERIOD_S`` seconds and its handler, in the main
thread between two bytecodes of the program, times one sample of the
reference: pure-Python integer and dict work, small numpy products and
two small ``scipy.optimize.linprog`` solves, the three kinds of work
coparse does. A sample takes about 25 ms, so the probe takes about 5% of
a unit; ``window`` gives the samples to subtract from a unit's time. The
reference touches no coparse code, so a change to coparse does not move
it.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy.optimize import linprog

PERIOD_S = 0.5
# One reference sample's typical time on that host (Python 3.11.7, numpy
# 2.4.6, scipy 1.17.1, one BLAS thread): medians over runs were 22 to 28 ms.
# A normalised time is the time the host would take at this probe speed.
NOMINAL_SAMPLE_S = 0.025

_rng = np.random.default_rng(3)
_M = _rng.random((48, 48))
_LP_C = _rng.random(60)
_LP_A = -_rng.random((40, 60))
_LP_B = -10.0 * _rng.random(40)


def reference_sample() -> None:
    """One sample of fixed work; about 25 ms on the host above."""
    total, seen = 0, {}
    for j in range(80000):
        total += j * j % 7
        seen[j % 97] = total
    for _ in range(400):
        (_M @ _M).sum()
        np.argsort(_M[0])
    for _ in range(2):
        linprog(_LP_C, A_ub=_LP_A, b_ub=_LP_B, bounds=(0, 1), method="highs")


def timed_sample() -> float:
    """Seconds one reference sample takes now."""
    start = time.perf_counter()
    reference_sample()
    return time.perf_counter() - start


class HostSpeed:
    """Context manager that samples the reference while it is active.

    ``samples`` holds (start, duration) pairs in ``time.perf_counter``
    seconds.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _tick(self, _signum, _frame):
        self.samples.append((time.perf_counter(), timed_sample()))

    def __enter__(self):
        timed_sample()              # warm caches before timing
        self._tick(None, None)      # so that a run has at least one sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def window(self, start: float, end: float) -> list[float]:
        """Durations of the samples that began in [start, end)."""
        return [d for s, d in self.samples if start <= s < end]
