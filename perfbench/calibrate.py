"""A calibration probe for the machine's current speed.

On a shared machine the speed of one core swings by up to 1.8x within
seconds (other tenants on the same physical cores), which would swamp
any change in the package.  So while ops run, a timer signal interrupts
them every PROBE_INTERVAL_S and runs a short probe; an op's time, minus
the time spent in probes, is scaled by REFERENCE_S / speed, where speed
is the mean of the probes taken during the op or within WINDOW_S of it.
Scaled times are in reference seconds: what the op would take on a core
where the probe takes REFERENCE_S.

The probe is the benchmark's own code, never the package's, and mixes
the three kinds of work the package does: small-integer 2x2 matrix
products mod p, big-integer polynomial products, and tuple building
with dict inserts.  Each part is timed as the best of two and the probe
is their geometric mean.
"""

from __future__ import annotations

import bisect
import itertools
import random
import signal
import time

import modp
import workloads

REFERENCE_S = 0.00005
PROBE_INTERVAL_S = 0.02
WINDOW_S = 0.1  # speed phases last seconds; averaging ~10 probes damps probe noise

_rng = random.Random("calibrate")
_WORD = modp.parse(workloads.random_word(_rng, 60))
_P, _LAM = modp.fields(8)[0]
_BIG = [_rng.getrandbits(300) for _ in range(12)]
_SHELL = workloads.reduced_words(4)


def _matrices():
    modp.rho_mod(_WORD, 8, _P, _LAM)


def _bigint():
    out = [0] * (2 * len(_BIG) - 1)
    for i, a in enumerate(_BIG):
        for j, b in enumerate(_BIG):
            out[i + j] += a * b


def _tuples():
    seen = {}
    for w in _SHELL:
        seen[w + ((0, 1),)] = len(w)


def probe() -> float:
    clock = time.perf_counter
    product = 1.0
    for part in (_matrices, _bigint, _tuples):
        best = float("inf")
        for _ in range(2):
            t0 = clock()
            part()
            best = min(best, clock() - t0)
        product *= best
    return product ** (1 / 3)


class Calibrated:
    """Probes taken along a run, by timer signal while sampling is on."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.values: list[float] = []

    def take(self, *_signal_args) -> None:
        self.starts.append(time.perf_counter())
        self.values.append(probe())
        self.ends.append(time.perf_counter())

    def start(self) -> None:
        self.take()
        signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.take()
        self._value_sums = list(itertools.accumulate(self.values, initial=0.0))
        durations = (e - s for s, e in zip(self.starts, self.ends))
        self._probe_sums = list(itertools.accumulate(durations, initial=0.0))

    def scaled(self, start: float, end: float) -> float:
        """The interval start..end in reference seconds, probes excluded.

        A probe lies wholly inside or outside the interval, since it runs
        in the same thread; stop() must have been called.  The speed is the
        mean of the probes within WINDOW_S of the interval, and of the
        nearest probe on each side.
        """
        lo = bisect.bisect_right(self.ends, start) - 1  # last probe before
        hi = bisect.bisect_left(self.ends, end)  # first probe after
        inside = self._probe_sums[hi] - self._probe_sums[lo + 1]
        lo = min(lo, max(0, bisect.bisect_left(self.ends, start - WINDOW_S)))
        hi = max(hi, min(len(self.ends) - 1, bisect.bisect_right(self.ends, end + WINDOW_S) - 1))
        mean = (self._value_sums[hi + 1] - self._value_sums[lo]) / (hi + 1 - lo)
        return (end - start - inside) * REFERENCE_S / mean
