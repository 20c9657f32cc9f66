"""Log-domain helpers and a deterministic Monte Carlo engine.

Tail probabilities are carried as log values throughout ("log-prob"
floats in [-inf, 0]). The Monte Carlo side is built on a counter-based
uniform generator: every variate is a pure function of
(seed, trial index, draw index), so a run can be partitioned across any
number of workers and the merged counts are bit-identical to a serial
run. There is no sequential generator state anywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "stable_log_complement",
    "counter_uniforms",
    "UniformPanel",
    "McEstimate",
    "mc_log_tail",
]

_LOG_HALF = math.log(0.5)


def stable_log_complement(log_p: float) -> float:
    """log(1 - e^{log_p}) computed without ever forming 1 - p.

    Uses expm1 above the log(1/2) branch point and log1p below it, which
    keeps full relative accuracy at both ends of [-inf, 0].
    """
    if math.isnan(log_p) or log_p > 0.0:
        raise ValueError(f"log probability must lie in [-inf, 0], got {log_p}")
    if log_p == 0.0:
        return -math.inf
    if log_p > _LOG_HALF:
        return math.log(-math.expm1(log_p))
    return math.log1p(-math.exp(log_p))


# Counter-based uniforms. splitmix64 finalizer with golden-ratio key
# folding. numpy uint64 arrays wrap silently on overflow (scalars warn),
# so all arithmetic below stays in array form.

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX_A
    z = (z ^ (z >> np.uint64(27))) * _MIX_B
    return z ^ (z >> np.uint64(31))


def counter_uniforms(seed: int, trials, draw) -> np.ndarray:
    """Uniforms in (0, 1), one per (seed, trial, draw) triple.

    trials and draw may be scalars or arrays (broadcast together). The
    result depends only on the triple, never on evaluation order, which
    is what makes partitioned Monte Carlo runs merge exactly.
    """
    t = np.atleast_1d(np.asarray(trials, dtype=np.uint64))
    d = np.atleast_1d(np.asarray(draw, dtype=np.uint64))
    s = np.full(1, seed & _U64_MASK, dtype=np.uint64)
    key = _mix64(s + _GOLDEN * (t + np.uint64(1)))
    v = _mix64(key + _GOLDEN * (d + np.uint64(1)))
    u = ((v >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    shape = np.broadcast_shapes(np.shape(trials), np.shape(draw))
    return u.reshape(shape)


class UniformPanel:
    """Vectorized access to the uniforms of a contiguous block of trials."""

    def __init__(self, seed: int, start: int, stop: int):
        if stop < start:
            raise ValueError("empty panel must still have stop >= start")
        self.seed = seed
        self.start = start
        self.stop = stop
        self._idx = np.arange(start, stop, dtype=np.uint64)

    def __len__(self) -> int:
        return self.stop - self.start

    def column(self, draw: int) -> np.ndarray:
        """The draw-th uniform of every trial in the block."""
        return counter_uniforms(self.seed, self._idx, draw)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo tail estimate in log space.

    stderr_log is the delta-method standard error of log_p_hat. When no
    trial hits the event, log_p_hat is -inf and log_p_upper95 carries the
    one-sided 95% Clopper-Pearson bound so the report still says something
    useful.
    """

    log_p_hat: float
    hits: int
    trials: int
    stderr_log: float
    seed: int
    zero_hits: bool
    log_p_upper95: float

    def p(self) -> float:
        return math.exp(self.log_p_hat)


def _clopper_pearson_upper_log(hits: int, trials: int, alpha: float = 0.05) -> float:
    if hits >= trials:
        return 0.0
    if hits == 0:
        # 1 - alpha^(1/T), kept in log form
        return stable_log_complement(math.log(alpha) / trials)
    from scipy.stats import beta

    return math.log(beta.isf(alpha, hits + 1, trials - hits))


def mc_log_tail(fam, n: int, x: float, side: str = "upper",
                trials: int = 10**5, seed: int = 0, partitions: int = 1) -> McEstimate:
    """Estimate log P(C_n >= x) (or <= for side="lower") by simulation.

    The trial range is split into `partitions` contiguous chunks and the
    integer hit counts are summed, so the result is bit-identical for any
    partition count. Discrete families resolve thresholds through the
    same integer convention as their exact evaluators.
    """
    if side not in ("upper", "lower"):
        raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 1 <= partitions <= trials:
        raise ValueError("partitions must lie in [1, trials]")

    hits = 0
    for i in range(partitions):
        lo = i * trials // partitions
        hi = (i + 1) * trials // partitions
        if hi == lo:
            continue
        panel = UniformPanel(seed, lo, hi)
        hits += int(fam.count_hits(n, x, side, panel))

    zero = hits == 0
    if zero:
        log_p = -math.inf
        stderr_log = math.inf
    else:
        log_p = math.log(hits) - math.log(trials)
        if hits == trials:
            stderr_log = 0.0
        else:
            stderr_log = math.sqrt((trials - hits) / (trials * hits))
    return McEstimate(
        log_p_hat=log_p,
        hits=hits,
        trials=trials,
        stderr_log=stderr_log,
        seed=seed,
        zero_hits=zero,
        log_p_upper95=_clopper_pearson_upper_log(hits, trials),
    )
