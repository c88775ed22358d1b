"""Scale op times to a nominal host speed with a probe kernel timed throughout the run.

On a shared host the CPU speed drifts: on a shared 2-core machine, a fixed
loop took 22 ms in one minute and 45-58 ms a few minutes later, and speed
changed by 25% between one second and the next.
No run length averages that out.  So while a timed loop runs, a SIGALRM
handler times one run of a fixed kernel every PROBE_INTERVAL_S.  The kernel
does what the library's hot paths do (small numpy calls, a random choice of
modes, tuple and dict work inside Python loops), so it slows down with
them.  An op's time, minus the probe runs that interrupted it, times
PROBE_NOMINAL_S over the mean probe time around the op, is its time at the
host speed where the probe takes PROBE_NOMINAL_S.

The handler runs between bytecodes of the interrupted code, uses its own
random generator and touches no state of the library, so the library
computes exactly what it computes without it.
"""
from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

PROBE_NOMINAL_S = 0.005
PROBE_INTERVAL_S = 0.1
# Probes that start this close before or after an op count towards its scale.
PROBE_WINDOW_S = 0.3


def probe_kernel(rng: np.random.Generator) -> None:
    """A fixed amount of work with the library's mix (about 5 ms on the reference machine)."""
    base = np.arange(1.0, 9.0) + 0j
    acc, total, seen = base.copy(), 0j, {}
    for _ in range(300):
        acc += base
        total += np.prod(acc)
        state = tuple(int(v) for v in rng.choice(8, size=3, replace=False))
        seen[state] = seen.get(state, 0) + 1
        for i in range(10):
            total += i


class HostSpeed:
    """Context manager that probes the host speed on a timer while it is open."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self._rng = np.random.default_rng(0)
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that arrives while the previous one still runs is dropped
            return
        self._busy = True
        start = perf_counter()
        probe_kernel(self._rng)
        self.times.append(perf_counter() - start)
        self.starts.append(start)
        self._busy = False

    def __enter__(self) -> "HostSpeed":
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def _between(self, begin: float, end: float) -> list[float]:
        return self.times[bisect.bisect_left(self.starts, begin):bisect.bisect_right(self.starts, end)]

    def net(self, begin: float, end: float) -> float:
        """Wall time from begin to end, less the probe runs that started in between."""
        return end - begin - sum(self._between(begin, end))

    def scaled(self, begin: float, end: float) -> float:
        """Net time from begin to end, at the nominal host speed."""
        near = self._between(begin - PROBE_WINDOW_S, end + PROBE_WINDOW_S)
        if not near:  # ticks held up by one long native call: take the probe nearest in time
            index = min(range(len(self.starts)), key=lambda i: abs(self.starts[i] - begin))
            near = [self.times[index]]
        return self.net(begin, end) * PROBE_NOMINAL_S / statistics.fmean(near)

    def summary(self) -> dict:
        return {"count": len(self.times), "median_ms": statistics.median(self.times) * 1e3,
                "min_ms": min(self.times) * 1e3, "max_ms": max(self.times) * 1e3}
