"""Host speed probe and the work clock.

Other tenants of the host slow every process on it by up to 2x, in phases
that switch within a fraction of a second and can cover a whole run, so
repeating rounds does not average them out.  The probe times a fixed
pure-Python kernel (Fraction arithmetic and dict stores, like the program's
own work) every EVERY_NS of work, between steps and between streams.  The
kernel slows down in step with the program, so a piece of work timed from
`a` to `b` and scaled by REF_NS / (kernel time around it) is its time on a
quiet host.  In a 90-second test on a 2-vCPU Intel Xeon VM (Python
3.11.7), inlimit-long's steps per second over 10-second windows spread by
33% raw and by 1.2% scaled (quartile distance over median).

`now()` is the work clock: nanoseconds of `perf_counter_ns` that stops while
the probe runs, so the probe's own time falls into no measured interval.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from time import perf_counter_ns


def _kernel():
    acc = Fraction(0)
    seen = {}
    for i in range(1, 200):
        acc += Fraction(i % 7, i % 11 + 1)
        seen[i % 37] = acc
    return acc, len(seen)


class HostProbe:
    # The kernel's time on a quiet host: 2-vCPU Intel Xeon VM, Python 3.11.7.
    REF_NS = 400_000
    # A probe costs about 0.4 ms, so probing adds about 3% of wall time.
    EVERY_NS = 12_000_000

    def __init__(self):
        self.at: list[int] = []      # work clock at each probe
        self.ns: list[int] = []      # kernel time at each probe
        self._paused = 0

    def now(self) -> int:
        return perf_counter_ns() - self._paused

    def take(self) -> None:
        t0 = perf_counter_ns()
        _kernel()
        t1 = perf_counter_ns()
        self.at.append(t0 - self._paused)
        self.ns.append(t1 - t0)
        self._paused += perf_counter_ns() - t0

    def maybe(self) -> None:
        """Probe if EVERY_NS of work have passed since the last probe."""
        if not self.at or self.now() - self.at[-1] >= self.EVERY_NS:
            self.take()

    def factor(self, a: int, b: int) -> float:
        """REF_NS over the mean kernel time of the probes inside [a, b] and
        the nearest one on either side."""
        lo = max(bisect.bisect_left(self.at, a) - 1, 0)
        hi = min(bisect.bisect_right(self.at, b), len(self.at) - 1)
        window = self.ns[lo:hi + 1]
        return self.REF_NS * len(window) / sum(window)

    def scaled(self, a: int, b: int) -> float:
        """The work from `a` to `b` in quiet-host nanoseconds."""
        return (b - a) * self.factor(a, b)
