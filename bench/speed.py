"""Host speed, sampled while the benchmark runs.

The benchmark gets a few cores of a shared host whose speed changes from
one second to the next: a fixed pure-Python loop ran up to 1.75 times
slower at some moments than at others, while the process's CPU time stayed
equal to its wall time, so the slowdown cannot be seen from inside the
process.  Raw task times of one run of the same code spread by 35-50%
(IQR/median), and run medians by more than the benchmark's bounds.

``Sampler`` times a fixed reference kernel, a sparse polynomial product
with ``Fraction`` coefficients (the dict, tuple and ``Fraction`` work that
logflat itself does), at every task boundary and, from a ``SIGALRM``
timer, every ``INTERVAL`` seconds inside tasks.  A span of raw seconds is
scaled to seconds at the reference speed, at which the kernel takes
``REFERENCE_S``, by the mean speed of the samples taken over it.
Kernel time spent inside a task is subtracted from the task's time.  Code
that gets faster or slower shows in full; the host's speed cancels out.
The raw seconds are reported beside the scaled ones.
"""

from __future__ import annotations

import signal
import time
from array import array
from fractions import Fraction

# The speed changes within a quarter of a second, so samples are dense and
# short: about 0.4 ms of kernel every 10 ms.  Against 50 ms between samples
# and a 1 ms kernel, in passes alternating between the two in one process,
# this cut the spread of a task's scaled time over passes (IQR/median,
# median over tasks) from 0.10 to 0.07 on monoid_cones.
INTERVAL = 0.01  # seconds between samples inside a task
# about the kernel's median time on the 2-vCPU host the benchmark was tuned
# on; it sets the unit only, and is the same for every commit
REFERENCE_S = 0.0004

_TERMS = {(i, j): Fraction(i + 1, j + 2) for i in range(3) for j in range(3)}


def kernel():
    out = {}
    for (a, b), c in _TERMS.items():
        for (d, e), f in _TERMS.items():
            key = (a + d, b + e)
            out[key] = out.get(key, 0) + c * f
    return out


class Sampler:
    """Kernel times in the order taken; use as a context manager to have
    the timer sample inside tasks."""

    def __init__(self):
        self.took = array("d")
        self.inside = 0.0  # seconds spent in timer samples so far
        self._busy = False
        self._previous = None

    def sample(self):
        """Time the kernel once; returns the index of the sample."""
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        took = time.perf_counter() - t0
        self._busy = False
        self.took.append(took)
        return len(self.took) - 1

    def _on_alarm(self, _signum, _frame):
        if self._busy:
            return
        t0 = time.perf_counter()
        self.sample()
        self.inside += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, call):
        """Run ``call`` between two boundary samples; returns its result
        and its (raw, scaled) seconds.  ``call`` must not raise."""
        first = self.sample()
        inside = self.inside
        t0 = time.perf_counter()
        out = call()
        raw = time.perf_counter() - t0 - (self.inside - inside)
        last = self.sample()
        return out, raw, self.scale(raw, first, last)

    def scale(self, raw, first, last):
        """``raw`` seconds in seconds at reference speed, by the samples
        with indices ``first`` to ``last``.  The work done in a span is its
        length times the mean speed over it, so the kernel's speeds
        (1 / time) are averaged, not its times: with the host half the time
        at full speed and half at 1.75 times slower, the mean time would
        overstate the slowdown by 8%."""
        taken = self.took[first:last + 1]
        return raw * REFERENCE_S * sum(1 / t for t in taken) / len(taken)
