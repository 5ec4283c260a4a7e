"""Host-speed probe: rescales timings to one reference speed.

On a host whose cores are shared with other tenants, the same
pure-Python computation runs at anywhere from 1x to 2x its quiet
time, in spells that last from seconds to minutes.  Process CPU time
shows the same slowdown as the wall clock (the vCPU keeps running, only
slower), so it does not help.  Ten runs that each land in a different
mix of spells then spread by a quarter of their median.

So while a run measures, a SIGALRM handler in the one benchmark thread
times a fixed pure-Python loop (the probe) every PERIOD_S.  A timed
interval is rescaled to the seconds it would have taken at the speed at
which the probe takes REFERENCE_S: its length, less the probes' own
time inside it, times its speed to the power SENSITIVITY.  Its speed is
the mean of REFERENCE_S / probe time over the probes in and around it;
the probes are evenly spaced in time, so that is its average speed.
The probe runs no ecgraph code, so a faster or slower program still
reads faster or slower.

The program feels contention more than the probe's small loop does.
Between a quiet and a busy set of ten runs per workload, on a shared
2-vCPU host, the program's time grew as the probe's time to the power
1.3 to 1.45.  With the speed as measured (power 1) the busy set's
medians read 11-20% higher than the quiet set's; with SENSITIVITY they
read within 7%, and the spread inside each set did not widen.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from itertools import accumulate

PERIOD_S = 0.02
LOOPS = 2000
REFERENCE_S = 150e-6    # about the probe's time on the quiet host
SENSITIVITY = 1.3
MARGIN_S = 0.25         # probes this close to an interval also count


def _loop() -> int:
    s = 0
    for i in range(LOOPS):
        s += i * i % 7
    return s


class SpeedProbe:
    def __init__(self):
        self.at: list[float] = []      # start of each probe
        self.took: list[float] = []    # its duration
        self._cum: list[float] = []
        self._prev = None

    def _fire(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _loop()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._prev = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._prev)
        self._cum = [0.0, *accumulate(self.took)]

    def rescale(self, t0: float, t1: float) -> float:
        """Seconds [t0, t1] would have taken at the reference speed,
        without the probes that ran inside it.  Call after stop()."""
        at = self.at
        i, j = bisect.bisect_left(at, t0), bisect.bisect_left(at, t1)
        own = self._cum[j] - self._cum[i]
        lo = bisect.bisect_left(at, t0 - MARGIN_S)
        hi = bisect.bisect_left(at, t1 + MARGIN_S)
        if lo == hi:    # signals held off by one long C call
            lo, hi = max(lo - 1, 0), min(hi + 1, len(at))
        speed = statistics.fmean(REFERENCE_S / d for d in self.took[lo:hi])
        return (t1 - t0 - own) * speed ** SENSITIVITY
