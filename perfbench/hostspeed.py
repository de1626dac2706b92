"""Host-speed sampler: a fixed kernel timed all through every measurement.

The cores of a shared host change speed with the load of other tenants: on
the 2-core KVM guest the benchmark was built on, Python code ran up to ~1.8x
slower in phases lasting from under a second to minutes, with the process's
CPU time growing as much as its wall time (no steal time to subtract).  A run
made in a slow phase then read slower than one made in a fast phase, whatever
the estimate over its passes.

So while queries or set-up run, a SIGALRM handler runs a small fixed kernel every
INTERVAL_S seconds and records how long it took.  The host's slowdown over a
stretch of time is the mean kernel time in it over the kernel's NOMINAL_S,
and a query's scaled time is its own time (kernel runs excluded, see
`clock`) divided by the slowdown over it: the time it would take on a host on
which the kernel takes NOMINAL_S.  The kernel is the benchmark's own code and
calls nothing in sdefi, so a change to sdefi moves the scaled times and never
the reference.

The kernel is a product of two sparse Laurent polynomials held in a dict
keyed by exponent tuples, with Fraction coefficients, as in sdefi's algebra
layer.  On the build host it tracked the slowdown of every workload better
than a kernel of small numpy steps did, the Monte Carlo ones too (their
per-path and per-step Python overhead is what a slow phase stretches most).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# The kernel's time, in seconds, on the host the scaled times refer to: about
# its fastest on the build host (see perfbench/README.md, "Host-speed scaling").
NOMINAL_S = 4.0e-4
INTERVAL_S = 0.01


class Sampler:
    def __init__(self):
        self.p = {(i, j, (i * j) % 3 - 1): Fraction(i - 3, j + 1) for i in range(4) for j in range(3)}
        self.q = {(j, -i, i % 2): Fraction(j + 2, 2 * i + 1) for i in range(3) for j in range(3)}
        self.result = self.kernel()
        self.starts: list[float] = []  # perf_counter at the start of each kernel run
        self.times: list[float] = []  # seconds each kernel run took
        self.spent = 0.0  # total of self.times
        for _ in range(20):  # warm-up
            self.sample()

    def kernel(self):
        prod = {}
        for ea, ca in self.p.items():
            for eb, cb in self.q.items():
                e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                c = prod.get(e, 0) + ca * cb
                if c:
                    prod[e] = c
                else:
                    prod.pop(e, None)
        return sorted(prod.items())

    def sample(self, *_signal_args) -> None:
        """Run the kernel once and record its time; also the SIGALRM handler."""
        t0 = time.perf_counter()
        result = self.kernel()
        secs = time.perf_counter() - t0
        if result != self.result:
            raise RuntimeError("the reference kernel changed its result")
        self.starts.append(t0)
        self.times.append(secs)
        self.spent += secs

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """perf_counter minus the time spent in the kernel: intervals of this
        clock are the measured code's own time."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def slowdown(self, t0: float, t1: float) -> float:
        """The host's slowdown over [t0, t1] (perf_counter times): the mean of
        the kernel times started in it, or of the nearest on each side if
        none was, over NOMINAL_S."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        if lo == hi:
            lo, hi = max(lo - 1, 0), hi + 1
        return statistics.fmean(self.times[lo:hi]) / NOMINAL_S
