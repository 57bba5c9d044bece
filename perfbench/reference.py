"""Fixed reference work that measures how fast this machine is right now.

On a shared host the CPU time of the same work moves by tens of percent
from minute to minute, as other tenants load the physical core, its
caches and the memory bus.  `Sampler` runs a small fixed kernel many times
during the timed phase, interleaved with the program's own work, and the
bounded timings are divided by the median time of that kernel.  A change
that slows the program moves them; a change in host load moves the program
and the kernel alike and partly cancels out.

The kernel mirrors the program's mix of work: Python loops over float
pairs with `math.fsum` (the oracles), a chain DP over a 640-point numpy
vector (`pvar_cyclic`) and roll/subtract/abs/power/mean on a 64 x 64 array
(the modulus tables).  It uses numpy only, never pvarlab, and its inputs
are fixed, so no change to the program can move it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from itertools import combinations

import numpy as np

# CPU seconds of one kernel run on the machine the benchmark was built on
# (an idle 2-vCPU Intel Xeon guest at 2.0 GHz).  Normalized timings are
# CPU seconds scaled to that speed.
NOMINAL_S = 0.015
# Wall time between two kernel runs.  The timer is ITIMER_REAL: while a
# process CPU timer (ITIMER_PROF) is armed, Linux reads the process CPU
# clock only to the scheduler tick, which would round every timing to 4 ms.
INTERVAL_S = 0.3

_rng = np.random.default_rng(20120821)
_VEC = [float(x) for x in _rng.normal(size=11)]
_DP = _rng.normal(size=640)
_TABLE = _rng.normal(size=(64, 64))


def kernel() -> float:
    """One run of the reference work; returns a value so nothing is skipped."""
    best = 0.0
    for size in range(2, 6):
        for combo in combinations(range(len(_VEC)), size):
            pairs = [(_VEC[combo[(k + 1) % size]], _VEC[combo[k]]) for k in range(size)]
            best = max(best, math.fsum(abs(x - y) ** 1.5 for x, y in pairs))
    cost = np.abs(_DP[None, :] - _DP[:, None]) ** 1.5
    dp = np.zeros(len(_DP))
    for j in range(1, len(_DP)):
        cand = dp[:j] + cost[:j, j]
        dp[j] = cand.max()
    acc = 0.0
    for s in range(64):
        d = np.roll(_TABLE, -s, axis=0) - _TABLE
        acc += float(np.mean(np.abs(d) ** 1.5))
    return best + float(dp[-1]) + acc


class Sampler:
    """Runs `kernel` from a timer signal, so also inside long calls of the program.

    `samples` holds the CPU seconds of each kernel run; `spent` is their sum,
    which callers subtract from the CPU time of the work the runs interrupted.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:  # the timer fired while a run was still going
            return
        self._busy = True
        c0 = time.process_time()
        kernel()
        dt = time.process_time() - c0
        self.samples.append(dt)
        self.spent += dt
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def speed(self) -> float:
        """Median kernel CPU time over NOMINAL_S: 1 at the reference speed, 1.3 if 30 % slower."""
        if not self.samples:  # a timed phase shorter than one interval
            self.sample()
        return statistics.median(self.samples) / NOMINAL_S
