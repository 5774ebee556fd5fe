"""Host-speed normalisation of measured time.

The cores of a shared host run the same code up to 1.7 times slower for
spells of ten seconds to a minute, and a wall time taken across such a
spell says more about the neighbours than about the program.  ``Sampler``
therefore runs a small fixed reference kernel from a ``SIGALRM`` handler
every ``PERIOD`` seconds while the measured code runs, and reports the
time of a region twice:

    raw   its wall time with the sampler's own time taken out
    norm  each stretch of it between two samples scaled by
          NOMINAL_S / (median reference time of the nearby samples)

``norm`` is the time the region would take at the host speed under which
the kernel takes ``NOMINAL_S``.  The kernel is the benchmark's own code
(scalar complex arithmetic in a Python loop, which tracked the slowdowns
of the network and matching layers best among the kernels tried), so a
change to the program moves ``norm`` as it moves ``raw``.

The handler runs in the main thread between bytecodes.  Work running in
other threads at the same time would slow the kernel and make ``norm``
read low, so measure serial code only (the benchmark runs the CLI with
``--threads 1`` and one BLAS thread).
"""

from __future__ import annotations

import math
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

#: sampling period (s)
PERIOD = 0.025
#: reference kernel time (s) when interleaved with the workloads on a
#: 2-core Intel Xeon host in its fast spells (0.41-0.50 ms measured)
NOMINAL_S = 0.45e-3
#: samples on each side whose median gives the local reference time
HALF_WINDOW = 8


def kernel() -> complex:
    acc = 0j
    z = 0.3 + 0.1j
    for i in range(1000):
        acc += math.cos(i * 0.01) * z + complex(i, 1.0) / (i + 1.0)
    return acc


class Sampler:
    def __init__(self, period: float = PERIOD):
        self.period = period
        self.starts = []        # perf_counter at each kernel's start
        self.durations = []     # and its duration (s)
        self._previous = None
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:          # a tick that lands inside a kernel is dropped
            return
        self._busy = True
        t0 = perf_counter()
        kernel()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def reference(self) -> float:
        """Median kernel time (s) over all samples."""
        return statistics.median(self.durations)

    def measure(self, t0: float, t1: float) -> tuple[float, float]:
        """(raw, norm) seconds of the region [t0, t1]."""
        if not self.durations:
            raise ValueError("no host-speed samples were taken")
        lo = bisect_left(self.starts, t0)
        hi = bisect_right(self.starts, t1)
        raw = norm = 0.0
        edge = t0
        for k in range(lo, hi + 1):
            end = self.starts[k] if k < hi else t1
            work = end - edge
            # the stretch ending at sample k (or at t1, after the last)
            j = min(k, len(self.durations) - 1)
            near = self.durations[max(0, j - HALF_WINDOW):j + HALF_WINDOW + 1]
            raw += work
            norm += work * NOMINAL_S / statistics.median(near)
            if k < hi:
                edge = min(t1, self.starts[k] + self.durations[k])
        return raw, norm
