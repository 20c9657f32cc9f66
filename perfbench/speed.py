"""Machine-speed probe for the speed-adjusted timings.

The benchmark was built on a shared 2-vCPU machine whose throughput
swings by up to 1.6x over seconds to minutes as neighbours load the
host; whole 30-second runs land in slow phases, so medians over passes
alone left a 20-30% spread between runs. So a pass runs this fixed
probe (a pure-Python loop and a numpy pass over 2 MB, about 10 ms)
before its first operation and after every operation, and scales each
operation's wall time by REFERENCE_S over the mean of the two probes
around it: seconds at the speed the machine had when the probe took
REFERENCE_S. On a quiet machine the factor is close to 1. The probe is
benchmark code, so a change to mdlab cannot move it; raw wall times
are kept in the results file as well.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# the probe's median time on the 2-vCPU reference machine (see README)
# in its fast phase
REFERENCE_S = 0.009

_ARRAY = np.arange(262_144, dtype=np.float64)


def _kernel() -> None:
    acc = 0
    for i in range(33_000):
        acc += i * i % 7
    for _ in range(3):
        np.sqrt(_ARRAY * _ARRAY + 1.0).sum()


def probe(repeat: int = 3) -> float:
    """Median time of the fixed kernel over `repeat` runs."""
    times = []
    for _ in range(repeat):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def adjust(seconds: float, probes) -> float:
    """A wall time rescaled to the reference speed."""
    return seconds * REFERENCE_S / statistics.mean(probes)
