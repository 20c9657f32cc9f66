"""Exact references the tests check the package against.

Nothing here imports mdlab, so a fault in the code under test cannot
reach its own reference. The coupon collection time T_n is checked
against the Erdős–Rényi inclusion–exclusion for P(T_n <= m), summed in
integers so that the alternating cancellation loses nothing, and against
the closed-form tail bounds n^{1-c} and 2 (1 - e^{-m/n})^n. A rate
function is checked for the shape every rate must have.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

_IE_CELL_BUDGET = 10 ** 7


def surjection_count(n: int, m: int) -> int:
    """The number of maps from m draws onto all n types: n^m P(T_n <= m)."""
    total = 0
    for k in range(n + 1):
        term = math.comb(n, k) * (n - k) ** m
        total += term if k % 2 == 0 else -term
    return total


def coupon_cdf_inclusion_exclusion(n: int, m: int) -> float:
    """P(T_n <= m) as the exact surjection count over n^m, for cross-checks.

    Evaluated in integer arithmetic, so the alternating cancellation is
    lossless and the only rounding is the final conversion to float. A
    cell budget, n*m <= 1e7, keeps the big-integer work bounded.
    """
    n, m = int(n), int(m)
    if n < 1:
        raise ValueError(f"coupon collection needs n >= 1, got {n}")
    if m < n:
        return 0.0
    if n * m > _IE_CELL_BUDGET:
        raise ValueError(
            f"inclusion-exclusion cross-check budget is n*m <= 1e7, "
            f"got n={n}, m={m}")
    return float(Fraction(surjection_count(n, m), n ** m))


@dataclass(frozen=True)
class CouponBounds:
    """Closed-form tail bounds at the threshold m (drawn at c n log n)."""

    n: int
    threshold: float
    upper_bound: float
    lower_bound: float


def coupon_tail_bounds(n: int, c: Optional[float] = None,
                       m: Optional[float] = None) -> CouponBounds:
    """n^{1-c} bounding P(T_n > c n log n) and 2(1-e^{-m/n})^n bounding
    P(T_n <= m), both reported at the same threshold.

    Give either c (threshold c n log n) or m directly. The upper bound
    is informative for c > 1, the lower one for m below n log n; both
    are valid (if vacuous) elsewhere.
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"bounds need n >= 2, got {n}")
    if (c is None) == (m is None):
        raise ValueError("give exactly one of c or m")
    log_n = math.log(n)
    if m is None:
        m_val = c * n * log_n
    else:
        m_val = float(m)
        c = m_val / (n * log_n)
    upper = math.exp((1.0 - c) * log_n)
    lower = 2.0 * math.exp(n * math.log1p(-math.exp(-m_val / n)))
    return CouponBounds(n=n, threshold=m_val, upper_bound=upper, lower_bound=lower)


def rate_grid_violations(rate, xs) -> list[str]:
    """Check the defining shape properties of a rate on a grid.

    A valid rate vanishes exactly at 0, is positive elsewhere, does not
    increase on the negative side, and does not decrease on the positive
    side. Returns human-readable violations; empty list means clean.
    """
    xs = sorted(float(x) for x in xs)
    vals = [rate(x) for x in xs]
    msgs = []
    for x, v in zip(xs, vals):
        if x == 0.0 and v != 0.0:
            msgs.append(f"rate({x}) = {v}, expected exactly 0")
        if x != 0.0 and not v > 0.0:
            msgs.append(f"rate({x}) = {v}, expected > 0 away from the origin")
    for (x0, v0), (x1, v1) in zip(zip(xs, vals), zip(xs[1:], vals[1:])):
        slack = 1e-12 * (1.0 + min(abs(v0), abs(v1)))
        if x1 <= 0.0 and v1 > v0 + slack:
            msgs.append(f"rate rises on the negative side: ({x0}, {v0}) -> ({x1}, {v1})")
        if x0 >= 0.0 and v1 < v0 - slack:
            msgs.append(f"rate falls on the positive side: ({x0}, {v0}) -> ({x1}, {v1})")
    return msgs
