"""The five scaled-statistic families and their exact finite-n tails.

Each family packages a statistic C_n, its speed v_n, the two rate
functions (large-deviation and moderate-deviation), the weak limit law,
exact log-domain tail evaluators, and one panel sampler, count_hits,
behind one FamilySpec record. Everything downstream (probes, Monte
Carlo, the command line) works off this record and never
special-cases a family.

The coupon collection time has one evaluator for both tails: the exact
alternating series of P(T_n <= m), summed in log-scaled form with a
computed rounding bound, is returned wherever that bound certifies a
relative error of 1e-10; it stops summing once the terms left provably
fall below rounding, so its cost follows the terms that matter, not n.
Deep in the lower tail, where it cannot certify, a tilted Fourier
inversion with its own computed bound answers; it keeps no state, and
its grid, hence its time and memory, follows from (n, m) alone.

Sign conventions: upper tail means P(C_n >= x), lower means P(C_n <= x),
and both evaluators return log probabilities in [-inf, 0]. Rate
functions return +inf outside their effective domain, which is how a
superexponentially thin side is encoded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np
# only the reference coupon_cdf_dp uses lfilter; perfbench/run.py requires
# `import mdlab` to load scipy.signal, so the import stays until it changes
from scipy.signal import lfilter
from scipy.special import cosdg, log_ndtr, ndtr, ndtri, sindg

from .distributions import (
    Distribution,
    SpecParseError,
    isf_values,
    parse_dist_spec,
    quantile_values,
    render_dist_spec,
)
from .estimators import stable_log_complement
from .rvtoolkit import GumbelMdaProfile, declared_profile, least_valid_n


# ---------------------------------------------------------------------------
# rate functions


@dataclass(frozen=True)
class RateFunction:
    """A nonnegative rate x -> I(x), +inf where the tail is thinner than
    the exponential scale being probed.

    The one-sided slopes at zero are stored because the moderate rate of
    a family is linear with exactly these slopes; -inf/+inf mark a side
    where the rate jumps straight to infinity.
    """

    fn: Callable[[float], float] = field(repr=False)
    domain_note: str = ""
    right_slope_at_zero: float = math.nan
    left_slope_at_zero: float = math.nan

    def __call__(self, x: float) -> float:
        v = float(self.fn(float(x)))
        if math.isnan(v):
            raise ValueError(f"rate function returned nan at x={x}")
        if v < 0.0:
            if v > -1e-12:
                return 0.0
            raise ValueError(f"rate function returned {v} < 0 at x={x}")
        return v


def _one_sided_slope(fn: Callable[[float], float], sign: int, h: float = 1e-6) -> float:
    """Slope of fn at 0 from the `sign` side; +-inf when that side is a wall."""
    f0 = fn(0.0)
    v1 = fn(sign * h)
    if math.isinf(v1):
        return math.inf if sign > 0 else -math.inf
    v2 = fn(2.0 * sign * h)
    if math.isinf(v2):
        return (v1 - f0) / (sign * h)
    # second-order one-sided difference, O(h^2) truncation
    return (4.0 * v1 - v2 - 3.0 * f0) / (2.0 * sign * h)


def shift_rate(rate: RateFunction, c: float) -> RateFunction:
    """The rate x -> rate(x + c), with slopes at zero recomputed."""
    base = rate.fn

    def fn(x: float) -> float:
        return base(x + c)

    return RateFunction(
        fn=fn,
        domain_note=f"{rate.domain_note} shifted left by {c!r}",
        right_slope_at_zero=_one_sided_slope(fn, +1),
        left_slope_at_zero=_one_sided_slope(fn, -1),
    )


def rate_grid_violations(rate: RateFunction, xs) -> list[str]:
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


def power_tail_rate(mu: float) -> RateFunction:
    """J(y) = (y^mu - 1)/mu on [1, inf), +inf below 1.

    This is the rate of the ratio statistic before recentering; the
    maxima family shifts it by 1. Zero lies outside its domain, so the
    stored slopes are the wall markers.
    """
    if not mu > 0.0:
        raise ValueError(f"power tail rate needs mu > 0, got {mu}")

    def fn(y: float) -> float:
        if y < 1.0:
            return math.inf
        return (y ** mu - 1.0) / mu

    return RateFunction(fn=fn, domain_note="(y^mu - 1)/mu on [1, inf)",
                        right_slope_at_zero=math.inf, left_slope_at_zero=-math.inf)


# ---------------------------------------------------------------------------
# family record


@dataclass(frozen=True)
class FamilySpec:
    """Everything the probes need to know about one scaled statistic.

    count_hits(n, x, side, panel) is the family's only sampler. It draws
    C_n once per trial of the panel by inverse transform and returns how
    many draws fall in the tail (C_n >= x for side "upper", C_n <= x for
    "lower"). It uses only len(panel), the trial count, and
    panel.column(draw), which returns one uniform in (0, 1) per trial for
    draw index draw = 0, 1, ...
    """

    name: str
    label: str
    central: bool
    speed: Callable[[int], float] = field(repr=False)
    rate_ld: RateFunction = field(repr=False)
    rate_md: RateFunction = field(repr=False)
    limit_cdf: Callable[[float], float] = field(repr=False)
    exact_log_upper_tail: Callable[[int, float], float] = field(repr=False)
    exact_log_lower_tail: Callable[[int, float], float] = field(repr=False)
    count_hits: Callable[[int, float, str, object], int] = field(repr=False)
    least_n: int = 1
    max_n: Optional[int] = None
    md_needs_alogn: bool = False


def _check_n(n: int, least: int, cap: Optional[int], label: str) -> int:
    n = int(n)
    if n < least:
        raise ValueError(f"{label} needs n >= {least}, got {n}")
    if cap is not None and n > cap:
        raise ValueError(f"{label} caps n at {cap} (quantile resolution), got {n}")
    return n


def _count(values: np.ndarray, x: float, side: str) -> int:
    if side == "upper":
        return int(np.count_nonzero(values >= x))
    return int(np.count_nonzero(values <= x))


# ---------------------------------------------------------------------------
# classical mean of centered Gaussians


def make_classical_sums(sigma: float = 1.0) -> FamilySpec:
    """C_n = mean of n iid N(0, sigma^2) draws; v_n = n.

    The central prototype: sqrt(n) C_n is N(0, sigma^2) exactly at every
    n, so both tails have closed forms and the moderate statistic uses
    the square-root normalization sqrt(a_n v_n) C_n.
    """
    sigma = float(sigma)
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be a positive real, got {sigma}")
    two_var = 2.0 * sigma * sigma

    def quad(x: float) -> float:
        return x * x / two_var

    rate = RateFunction(fn=quad, domain_note="x^2 / (2 sigma^2) on all reals",
                        right_slope_at_zero=0.0, left_slope_at_zero=0.0)

    def log_upper(n: int, x: float) -> float:
        n = _check_n(n, 1, None, "classical_sums")
        return float(log_ndtr(-x * math.sqrt(n) / sigma))

    def log_lower(n: int, x: float) -> float:
        n = _check_n(n, 1, None, "classical_sums")
        return float(log_ndtr(x * math.sqrt(n) / sigma))

    def count_hits(n: int, x: float, side: str, panel) -> int:
        n = _check_n(n, 1, None, "classical_sums")
        c = sigma * ndtri(panel.column(0)) / math.sqrt(n)
        return _count(c, x, side)

    return FamilySpec(
        name="classical_sums",
        label=f"classical:sigma={sigma!r}",
        central=True,
        speed=lambda n: float(n),
        rate_ld=rate,
        rate_md=rate,
        limit_cdf=lambda x: float(ndtr(x / sigma)),
        exact_log_upper_tail=log_upper,
        exact_log_lower_tail=log_lower,
        count_hits=count_hits,
        least_n=1,
    )


# ---------------------------------------------------------------------------
# minima


def make_minima(dist: Distribution) -> FamilySpec:
    """C_n = min of n iid draws from dist; v_n = n.

    Needs support starting at 0 with a finite positive density slope
    there, since the moderate rate and the weak limit are both governed
    by F'(0+). P(C_n >= x) = sf(x)^n is exact at every n.
    """
    lo, hi = dist.support
    if lo != 0.0:
        raise ValueError(
            f"minima needs support starting at 0, got {dist.name} on [{lo}, {hi}]")
    slope0 = dist.cdf_slope_at_zero
    if slope0 is None or not (math.isfinite(slope0) and slope0 > 0.0):
        raise ValueError(
            f"minima needs a finite positive density slope at 0+, "
            f"got {slope0} for {dist.name}")
    if dist.sf(0.0) != 1.0:
        raise ValueError(f"{dist.name} puts mass at or below 0")

    def rate_ld_fn(x: float) -> float:
        if x < 0.0:
            return math.inf
        if x == 0.0:
            return 0.0
        return -dist.log_sf(x)

    def rate_md_fn(x: float) -> float:
        if x < 0.0:
            return math.inf
        return slope0 * x

    def limit_cdf(x: float) -> float:
        if x <= 0.0:
            return 0.0
        return -math.expm1(-slope0 * x)

    def log_upper(n: int, x: float) -> float:
        n = _check_n(n, 1, None, "minima")
        if x <= 0.0:
            return 0.0
        return n * dist.log_sf(x)

    def log_lower(n: int, x: float) -> float:
        n = _check_n(n, 1, None, "minima")
        if x <= 0.0:
            return -math.inf
        return stable_log_complement(n * dist.log_sf(x))

    def count_hits(n: int, x: float, side: str, panel) -> int:
        n = _check_n(n, 1, None, "minima")
        u = panel.column(0)
        c = isf_values(dist, np.exp(np.log1p(-u) / n))
        return _count(c, x, side)

    return FamilySpec(
        name="minima",
        label=f"minima:{render_dist_spec(dist)}",
        central=False,
        speed=lambda n: float(n),
        rate_ld=RateFunction(fn=rate_ld_fn,
                             domain_note="-log sf(x) on [0, omega), +inf elsewhere",
                             right_slope_at_zero=slope0,
                             left_slope_at_zero=-math.inf),
        rate_md=RateFunction(fn=rate_md_fn,
                             domain_note="F'(0+) x on [0, inf), +inf below 0",
                             right_slope_at_zero=slope0,
                             left_slope_at_zero=-math.inf),
        limit_cdf=limit_cdf,
        exact_log_upper_tail=log_upper,
        exact_log_lower_tail=log_lower,
        count_hits=count_hits,
        least_n=1,
    )


# ---------------------------------------------------------------------------
# maxima under a Gumbel-domain tail


_GUMBEL_N_CAP = 10 ** 15
# below this, 1 - (1 - s)^n evaluated from n log(1-s) is safe; above it,
# cdf(y) rounds to 1 and the complement must come from log sf directly
_LOG_NS_SMALL = math.log(1e-8)


def make_gumbel_maxima(source) -> FamilySpec:
    """C_n = M_n / m_n - 1 with m_n = isf(1/n); v_n = h_n = m_n n pdf(m_n).

    source is a Distribution (its declared tail profile is looked up) or
    a ready GumbelMdaProfile. Only unbounded tails with a positive power
    index qualify; the profile constructor enforces that.
    """
    profile = source if isinstance(source, GumbelMdaProfile) else declared_profile(source)
    dist = profile.dist
    if dist.support[1] != math.inf:
        raise ValueError(f"maxima scaling needs an unbounded upper tail, "
                         f"got {dist.name}")
    mu = profile.mu
    least = least_valid_n(dist)
    m_cache: dict[int, float] = {}
    h_cache: dict[int, float] = {}

    def m_of(n: int) -> float:
        n = _check_n(n, least, _GUMBEL_N_CAP, "gumbel_maxima")
        m = m_cache.get(n)
        if m is None:
            m = dist.isf(1.0 / n)
            m_cache[n] = m
        return m

    def speed(n: int) -> float:
        n = _check_n(n, least, _GUMBEL_N_CAP, "gumbel_maxima")
        h = h_cache.get(n)
        if h is None:
            m = m_of(n)
            h = math.exp(math.log(m) + math.log(n) + dist.log_pdf(m))
            h_cache[n] = h
        return h

    def rate_md_fn(x: float) -> float:
        if x < 0.0:
            return math.inf
        return x

    def log_upper(n: int, x: float) -> float:
        y = m_of(n) * (1.0 + x)
        ls = dist.log_sf(y)
        log_n = math.log(n)
        if log_n + ls < _LOG_NS_SMALL:
            # 1 - (1-s)^n = n s (1 - (n-1) s / 2 + O((ns)^2))
            return log_n + ls + math.log1p(-(n - 1) * math.exp(ls) / 2.0)
        return stable_log_complement(n * dist.log_cdf(y))

    def log_lower(n: int, x: float) -> float:
        return n * dist.log_cdf(m_of(n) * (1.0 + x))

    def count_hits(n: int, x: float, side: str, panel) -> int:
        m = m_of(n)
        u = panel.column(0)
        c = isf_values(dist, -np.expm1(np.log(u) / n)) / m - 1.0
        return _count(c, x, side)

    return FamilySpec(
        name="gumbel_maxima",
        label=f"gumbel_maxima:{render_dist_spec(dist)}",
        central=False,
        speed=speed,
        rate_ld=shift_rate(power_tail_rate(mu), 1.0),
        rate_md=RateFunction(fn=rate_md_fn,
                             domain_note="x on [0, inf), +inf below 0",
                             right_slope_at_zero=1.0,
                             left_slope_at_zero=-math.inf),
        limit_cdf=lambda x: math.exp(-math.exp(-x)),
        exact_log_upper_tail=log_upper,
        exact_log_lower_tail=log_lower,
        count_hits=count_hits,
        least_n=least,
        max_n=_GUMBEL_N_CAP,
    )


# ---------------------------------------------------------------------------
# coupon collection time


_DP_CELL_BUDGET = 10 ** 9
_IE_CELL_BUDGET = 10 ** 7
_DP_RESCALE_FLOOR = 1e-280
_DP_FLUSH = np.finfo(float).tiny  # smallest normal double
# the series is used where its rounding bound certifies this relative error
_SERIES_TARGET = 1e-10
_U = 2.0 ** -53  # unit roundoff
_ULP = 2.0 * _U  # log, log1p and exp are taken to be within one ulp
_SUBNORMAL = 5e-324  # absolute error of an exp that lands below the normal range
_SERIES_CHUNK = 64  # terms in the first chunk of the series; each next one doubles


def _coupon_nm(n: int, m: int) -> tuple[int, int]:
    n = int(n)
    if n < 1:
        raise ValueError(f"coupon collection needs n >= 1, got {n}")
    return n, int(m)


def _coupon_series(n: int, m: int, upper: bool) -> tuple[float, float]:
    """One coupon tail from its alternating series: (log value, error bound).

    P(T_n <= m) = sum_{k=0}^{n-1} (-1)^k C(n,k) (1-k/n)^m exactly
    (Erdos & Renyi 1961); P(T_n > m) is the same sum over k = 1..n-1 with
    the signs flipped. Needs n >= 2 for the upper tail.

    log C(n,k) is the cumulative sum of log((n-j)/(j+1)) and the term's
    log adds m log1p(-k/n). delta_k bounds each term's relative error,
    propagated to first order through every rounding on the way to its
    log and through the exp. The terms are scaled by their maximum,
    a_k = exp(log t_k - max), and summed; summation in any order errs
    by at most (N-1) u sum a_k, where N counts the nonzero a_k since
    adding an exact zero rounds nothing (Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 4).

    The terms are evaluated in chunks of doubling size. log t_k is
    concave in k (both log C(n,k) and m log1p(-k/n) are), so past the
    peak each ratio t_{k+1}/t_k is at most the last one, rho; once rho
    <= 1/2, the terms not yet evaluated sum to at most t_K rho/(1-rho).
    Evaluation stops when that bound drops below u times the largest
    term, and the bound joins the rounding. The bound
        (sum_k a_k delta_k + N u sum_k a_k + tail) / |S| + log rounding
    therefore bounds |log(computed) - log(exact)|, the relative error of
    the probability. A sum that cancels to S <= 0 returns (-inf, inf).
    """
    parts = [np.zeros(1)] if not upper else []  # the k = 0 term, exactly 1
    errs = [np.zeros(1)] if not upper else []
    top = 0.0 if not upper else -math.inf
    log_c = err_c = 0.0  # log C(n, k-1) at the chunk start, and its error
    tail = 0.0
    start, size = 1, _SERIES_CHUNK
    while start < n:
        j = np.arange(start - 1, min(n, start + size) - 1, dtype=float)
        g = np.log((n - j) / (j + 1.0))  # log C(n, j+1) - log C(n, j)
        # prefixing the carried value keeps the chunked cumsum bitwise sequential
        log_binom = np.cumsum(np.concatenate(([log_c], g)))[1:]  # log C(n, k)
        # the ratio (u) and its log (one ulp), then each partial sum (u)
        err_b = np.cumsum(np.concatenate(
            ([err_c], _U + _ULP * np.abs(g) + _U * np.abs(log_binom))))[1:]
        log_c, err_c = float(log_binom[-1]), float(err_b[-1])
        x = (j + 1.0) / n  # k/n
        lg = np.log1p(-x)
        log_t = log_binom + m * lg
        # k/n (u, magnified by x/(1-x) in log1p), log1p, the product, the sum
        err = err_b + m * (_U * x / (1.0 - x) + (_ULP + _U) * np.abs(lg)) + _U * np.abs(log_t)
        parts.append(log_t)
        errs.append(err)
        top = max(top, float(log_t.max()))
        start += len(j)
        size *= 2
        if start < n and len(j) > 1:
            d = float(log_t[-1] - log_t[-2])
            log_rho = d + _U * abs(d) + float(err[-1] + err[-2])
            if log_rho <= -math.log(2.0):
                log_tail = float(log_t[-1] + err[-1]) + log_rho - math.log(-math.expm1(log_rho))
                if log_tail - top <= math.log(_U):
                    tail = math.exp(log_tail - top)
                    break
    log_t = np.concatenate(parts)
    err = np.concatenate(errs)
    y = log_t - top
    a = np.exp(y)
    delta = np.expm1(err + _U * np.abs(y) + _ULP)
    s = float(a[0::2].sum() - a[1::2].sum())
    if not s > 0.0:
        return -math.inf, math.inf
    rounding = (float(a @ delta) + np.count_nonzero(a) * _U * float(a.sum())
                + len(a) * _SUBNORMAL + tail)
    log_s = math.log(s)
    value = top + log_s
    bound = rounding / s + _ULP * abs(log_s) + _U * abs(value)
    return (value if upper else min(value, 0.0)), bound


def _ztp_lambda(r: float) -> float:
    """The lam > 0 whose zero-truncated Poisson mean lam/(1 - e^-lam) is
    r > 1: Newton on the convex lam + r expm1(-lam) falls onto it from r."""
    lam, last = r, math.inf
    while lam < last:  # until a step no longer lowers it
        last, lam = lam, lam - (lam + r * math.expm1(-lam)) / (1.0 - r * math.exp(-lam))
    return last


def _log_chernoff(n: int, m: int, lam: float, a: int) -> float:
    """log of a Chernoff bound on P(S_n >= a), a > m, or P(S_n <= a), a < m:
    E e^{theta (S_n - a)} with e^theta = lam_a/lam, lam_a tilting to mean a."""
    def log_g(x):  # log((e^x - 1)/x)
        return x + math.log(-math.expm1(-x) / x)
    if a <= n:  # P(S_n = n) = g(lam)^-n exactly
        return -n * log_g(lam) if a == n else -math.inf
    lam_a = _ztp_lambda(a / n)
    if (lam_a - lam) * (a - m) <= 0.0:  # theta of the wrong sign bounds nothing
        return 0.0
    return n * (log_g(lam_a) - log_g(lam)) - (a - n) * math.log(lam_a / lam)


def _clog1p(v: np.ndarray, err_v) -> tuple[np.ndarray, np.ndarray]:
    """Complex log(1 + v), |v| <= 1, and its first-order error given err_v."""
    out, small = np.log(1.0 + v), np.abs(v) < 0.5
    x, y = v[small].real, v[small].imag
    out[small] = 0.5 * np.log1p(x * (2.0 + x) + y * y) + 1j * np.arctan2(y, 1.0 + x)
    d = np.abs(1.0 + v)
    err = np.where(small, 9 * _U * np.abs(v) / d ** 2, 10 * _U + _U / d)
    return out, err + 2 * _ULP * np.abs(out) + err_v / d


def _coupon_tilt(n: int, m: int) -> tuple[float, float]:
    """log P(T_n <= m), m >= n, by tilted Fourier inversion: (log value,
    error bound), or (nan, a-priori bound) if that fails before allocating.

    Counting surjections (Flajolet & Sedgewick, Analytic Combinatorics,
    II.3) gives P(T_n <= m) = m! (e^lam - 1)^n P(S_n = m) / (n lam)^m for
    every lam > 0, S_n a sum of n iid zero-truncated Poisson(lam); lam
    tilts E S_n to m, and its own error does not enter. With w = lam e^{it}
    and g(w) = (e^w - 1)/w, P(S_n = m) is the mean of (g(w)/g(lam))^n
    e^{-it(m-n)} over t = 2 pi j/L, plus the aliasing sum_{k != 0}
    P(S_n = m + kL), which two Chernoff bounds hold below 1e-12 relative
    (Abate & Whitt 1992). log g(w) is a power series for lam <= 1, else
    w - log w + log(1 - e^-w), or i pi - log w + log(1 - e^w) if cos t < 0.
    The prefactor has no m log m term: Stirling gives log m! - m log m + m
    and n lam - m is exact. As in _coupon_series each term's exponent has a
    first-order rounding bound (the nodes are exact, as sin and cos take
    degrees), and the sum errs by (N-1) u sum |a_j|: L u/2 caps the grid.
    """
    if m < 50:  # b = log m! - m log m + m
        b = math.lgamma(m + 1.0) - m * math.log(m) + m
        err = 8 * _ULP * m * (math.log(m) + 1.0)
    else:  # the Stirling series to m^-7, whose remainder is below 1/(1188 m^9)
        x, y = 1.0 / m, m ** -2.0
        b = 0.5 * math.log(math.tau * m) + x * (1 / 12 - y * (1 / 360 - y * (1 / 1260 - y / 1680)))
        err = 4 * _ULP * b + x ** 9 / 1188
    if m == n:  # n!/n^n
        return b - n, err + _U * (n - b)
    lam = _ztp_lambda(m / n)
    if lam > 1.0:
        nl = n * Fraction(lam)
        pre = [b, m * math.log1p(float((m - nl) / nl)), float(nl - m)]
        err += 4 * _U * abs(pre[1]) + _U * abs(pre[2])
    else:
        pre = [b, -m, m * math.log1p((m - n) / n), -(m - n) * math.log(lam)]
        err += 4 * _U * abs(pre[2]) + 3 * _U * abs(pre[3])
    sd = math.sqrt(max(m * (1.0 + lam) - m * m / n, 0.25))  # of S_n
    size, alias = 1, math.inf
    while alias > 1e-12 and size * _U <= _SERIES_TARGET:  # relative to P(S_n = m)
        size *= 2
        log_alias = float(np.logaddexp(_log_chernoff(n, m, lam, m + size),
                                       _log_chernoff(n, m, lam, m - size)))
        alias = math.exp(log_alias) * math.sqrt(2.0 * math.pi) * sd  # P ~ 1/(sqrt(2 pi) sd)
    a_priori = alias + size / 2 * _U + 7 * _U * m / sd + err  # the phase errs by ~9 u m |t|
    if a_priori > _SERIES_TARGET:
        return math.nan, a_priori
    s = np.arange(size // 2 + 1) / size  # t = 2 pi s; the other half mirrors
    sin_t, cos_t, phase = sindg(360.0 * s), cosdg(360.0 * s), 2.0 * math.pi * (s * m)
    if lam > 1.0:
        pos = cos_t >= 0.0
        arg = lam * np.where(pos, -sin_t, sin_t)
        v = -np.exp(-lam * np.abs(cos_t) + 1j * arg)  # -e^{-w}, or -e^{w} where cos t < 0
        err_v = 5 * _U * np.abs(v) * (1.0 + lam * np.abs(cos_t) + np.abs(arg))
        re = np.where(pos, -2.0 * n * lam * sindg(180.0 * s) ** 2, -n * lam)
        im = np.where(pos, n * lam * sin_t, math.pi * (n % 2))
    else:
        w, q = lam * (cos_t + 1j * sin_t), 0.0
        for k in range(19, 1, -1):  # q(w) = (g(w) - 1)/w to 1/20!
            q = q * w + 1.0 / math.factorial(k)
        v, err_v, re, im = w * q, 16 * _U * lam, 0.0, 2.0 * math.pi * (s * n)
    ell, err_ell = _clog1p(v, err_v)
    d = n * (ell - ell[0])
    expo = re + d.real + 1j * (im - phase + d.imag)
    term = np.exp(expo)
    err_term = np.expm1(11 * _U * np.abs(re) + 6 * _U * np.abs(im) + 3 * _U * phase + n * err_ell
                        + 2 * _U * (np.abs(d) + np.abs(expo)) + 10 * _U)
    weight = np.where((s == 0.0) | (s == 0.5), 1.0, 2.0)
    p = float(weight @ term.real) / size
    slack = (float(weight @ (np.abs(term) * err_term)) + (len(s) - 1) * _U
             * float(weight @ np.abs(term.real))) / size + math.exp(log_alias)
    if not p > slack:
        return math.nan, math.inf
    c0 = n * float(ell[0].real)  # the n log g(lam) that d leaves out; its rounding cancels
    value = math.fsum(pre + [c0, math.log(p)])
    bound = slack / (p - slack) + _ULP * abs(math.log(p)) + err + _U * (abs(c0) + abs(value))
    return min(value, 0.0), bound


def _coupon_dp(n: int, top: int) -> tuple[np.ndarray, float]:
    """Cumulative pmf of T_n on 0..top plus the log of the row rescale.

    P(S_k = m) = p_k P(S_{k-1} = m-1) + (1-p_k) P(S_k = m-1), one lfilter
    pass per new coupon. A row whose maximum falls below 1e-280 is
    rescaled; entries below the smallest normal double are zeroed after
    every stage, because subnormal arithmetic is what makes the pass slow.
    """
    if n * (top + 1) > _DP_CELL_BUDGET:
        raise ValueError(
            f"coupon table n={n}, m={top} exceeds the n*m <= 1e9 cell budget")
    row = np.zeros(top + 1)
    row[1] = 1.0  # the first coupon always lands on draw one
    log_scale = 0.0
    shifted = np.empty_like(row)
    for k in range(2, n + 1):
        p = (n - k + 1) / n
        shifted[0] = 0.0
        shifted[1:] = row[:-1]
        row = lfilter([p], [1.0, -(1.0 - p)], shifted)
        mx = row.max()
        if 0.0 < mx < _DP_RESCALE_FLOOR:
            row /= mx
            log_scale += math.log(mx)
        row[row < _DP_FLUSH] = 0.0
    return np.cumsum(row), log_scale


def _coupon_log_cdf(n: int, m: int) -> float:
    """log P(T_n <= m): the series where its bound certifies 1e-10, else
    _coupon_tilt where its bound does, else a ValueError. log1p(-P(T_n > m))
    from the upper series, where that is below 1/2, keeps log p relative."""
    n, m = _coupon_nm(n, m)
    if m < n:
        return -math.inf
    log_p, bound = _coupon_series(n, m, upper=False)
    if bound > _SERIES_TARGET:
        log_p, bound = _coupon_tilt(n, m)
    elif n > 1 and log_p > -math.log(2.0):
        log_q, bound_q = _coupon_series(n, m, upper=True)
        if bound_q <= _SERIES_TARGET:
            return stable_log_complement(log_q)
    if not bound <= _SERIES_TARGET:
        raise ValueError(
            f"coupon lower tail n={n}, m={m}: the tilted inversion's error "
            f"bound {bound:.3g} exceeds {_SERIES_TARGET:g}")
    return log_p


def _coupon_log_sf(n: int, m: int) -> float:
    """log P(T_n > m): the series where its bound certifies 1e-10, else the
    complement of _coupon_log_cdf. The upper series misses only deep in
    the lower tail, where that complement loses nothing."""
    n, m = _coupon_nm(n, m)
    if m < n:
        return 0.0
    if n == 1:
        return -math.inf
    log_p, bound = _coupon_series(n, m, upper=True)
    if bound <= _SERIES_TARGET:
        return log_p
    return stable_log_complement(_coupon_log_cdf(n, m))


def coupon_cdf_dp(n: int, m: int) -> float:
    """P(T_n <= m) by the exact convolution dynamic program, built at
    exactly m and not cached: the reference the series is checked against."""
    n, m = _coupon_nm(n, m)
    if m < n:
        return 0.0
    cum, log_scale = _coupon_dp(n, m)
    s = float(cum[m])
    if s <= 0.0:
        return 0.0
    return math.exp(math.log(min(s, 1.0)) if log_scale == 0.0 else math.log(s) + log_scale)


def coupon_cdf_inclusion_exclusion(n: int, m: int) -> float:
    """P(T_n <= m) as the exact surjection count over n^m, for cross-checks.

    Evaluated in integer arithmetic, so the alternating cancellation is
    lossless and the only rounding is the final conversion to float. A
    cell budget keeps the big-integer work bounded; coupon_cdf_dp is the
    reference beyond it.
    """
    n, m = _coupon_nm(n, m)
    if m < n:
        return 0.0
    if n * m > _IE_CELL_BUDGET:
        raise ValueError(
            f"inclusion-exclusion cross-check budget is n*m <= 1e7, "
            f"got n={n}, m={m}; use coupon_cdf_dp")
    total = 0
    for k in range(n + 1):
        term = math.comb(n, k) * (n - k) ** m
        total += term if k % 2 == 0 else -term
    return float(Fraction(total, n ** m))


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


def coupon_threshold_pair(n: int, x: float) -> tuple[int, int]:
    """Integer draw counts bracketing the event split at C_n = x.

    C_n >= x means T >= m_up and C_n <= x means T <= m_lo; the 1e-9 snap
    keeps thresholds that are integers up to float noise on the integer.
    """
    y = (1.0 + x) * n * math.log(n)
    m_up = math.ceil(y - 1e-9)
    m_lo = math.floor(y + 1e-9)
    return m_lo, m_up


def make_coupon() -> FamilySpec:
    """C_n = T_n / (n log n) - 1 for the n-coupon collection time; v_n = log n.

    T_n is a sum of geometric waits with success (n-k+1)/n for the k-th
    new coupon, so T_n >= n and both tails reduce to integer thresholds
    on T_n. The exact tails keep no state, so every instance answers a
    query with the same bits and the same memory.
    """
    def rate_fn(x: float) -> float:
        if x < 0.0:
            return math.inf
        return x

    def log_upper(n: int, x: float) -> float:
        n = _check_n(n, 2, None, "coupon")
        _, m_up = coupon_threshold_pair(n, x)
        return _coupon_log_sf(n, m_up - 1)

    def log_lower(n: int, x: float) -> float:
        n = _check_n(n, 2, None, "coupon")
        m_lo, _ = coupon_threshold_pair(n, x)
        return _coupon_log_cdf(n, m_lo)

    def count_hits(n: int, x: float, side: str, panel) -> int:
        n = _check_n(n, 2, None, "coupon")
        t = np.ones(len(panel), dtype=np.int64)
        for k in range(2, n + 1):
            p = (n - k + 1) / n
            u = panel.column(k - 2)
            t += np.ceil(np.log1p(-u) / math.log1p(-p)).astype(np.int64)
        m_lo, m_up = coupon_threshold_pair(n, x)
        if side == "upper":
            return int(np.count_nonzero(t >= m_up))
        return int(np.count_nonzero(t <= m_lo))

    return FamilySpec(
        name="coupon",
        label="coupon",
        central=False,
        speed=lambda n: math.log(n),
        rate_ld=RateFunction(fn=rate_fn,
                             domain_note="x on [0, inf), +inf below 0",
                             right_slope_at_zero=1.0,
                             left_slope_at_zero=-math.inf),
        rate_md=RateFunction(fn=rate_fn,
                             domain_note="x on [0, inf), +inf below 0",
                             right_slope_at_zero=1.0,
                             left_slope_at_zero=-math.inf),
        limit_cdf=lambda x: math.exp(-math.exp(-x)),
        exact_log_upper_tail=log_upper,
        exact_log_lower_tail=log_lower,
        count_hits=count_hits,
        least_n=2,
    )


# ---------------------------------------------------------------------------
# replacement lifetimes


@dataclass(frozen=True)
class ReplacementParams:
    """Inputs of the replace-at-t lifetime model.

    A unit is renewed at age t with probability beta (its age then
    resets through the conditioned lower law F^n on [0, t]) and survives
    past t otherwise (upper law G conditioned on exceeding t). The
    one-sided derivatives at t drive the moderate rate and the weak
    limit; they default to the density values and are cross-checked
    against centered finite differences of the cdfs.
    """

    F: Distribution
    G: Distribution
    t: float
    beta: float
    Fp_tminus: Optional[float] = None
    Gp_tplus: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "beta", float(self.beta))
        if not (math.isfinite(self.t) and self.t > 0.0):
            raise ValueError(f"replacement age t must be positive, got {self.t}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        for which, d in (("F", self.F), ("G", self.G)):
            if d.support[0] != 0.0:
                raise ValueError(
                    f"{which} must be supported on [0, ...), got {d.name} "
                    f"on [{d.support[0]}, {d.support[1]}]")
        if not 0.0 < self.F.cdf(self.t) < 1.0:
            raise ValueError(f"F must be strictly between 0 and 1 at t={self.t}")
        if not 0.0 < self.G.cdf(self.t) < 1.0:
            raise ValueError(f"G must be strictly between 0 and 1 at t={self.t}")
        if self.Fp_tminus is None:
            object.__setattr__(self, "Fp_tminus", self.F.pdf(self.t))
        if self.Gp_tplus is None:
            object.__setattr__(self, "Gp_tplus", self.G.pdf(self.t))
        for which, d, slope in (("F", self.F, self.Fp_tminus),
                                ("G", self.G, self.Gp_tplus)):
            if not (math.isfinite(slope) and slope > 0.0):
                raise ValueError(f"{which}'(t) must be finite and positive, got {slope}")
            h = 1e-6 * max(1.0, self.t)
            h = min(h, self.t / 2.0, (d.support[1] - self.t) / 2.0)
            fd = (d.cdf(self.t + h) - d.cdf(self.t - h)) / (2.0 * h)
            if abs(fd - slope) > 1e-6 * max(slope, fd):
                raise ValueError(
                    f"declared {which}'(t) = {slope} disagrees with the "
                    f"centered difference {fd} at t={self.t}")


def make_replacement(params: ReplacementParams) -> FamilySpec:
    """C_n = Z_n - t for the age-n replacement lifetime; v_n = n.

    P(Z_n <= z) = beta (F(z)/F(t))^n below t and
    1 - (1-beta)(sf_G(z)/sf_G(t))^n above it, so P(C_n <= 0) = beta at
    every n and both tails are one log-ratio away from F and G. The
    moderate regime additionally needs a_n log n -> 0.
    """
    rp = params
    F, G, t, beta = rp.F, rp.G, rp.t, rp.beta
    log_f_t = F.log_cdf(t)
    log_sfg_t = G.log_sf(t)
    log_beta = math.log(beta)
    log_1mbeta = math.log1p(-beta)
    slope_right = rp.Gp_tplus / G.sf(t)
    slope_left = rp.Fp_tminus / F.cdf(t)

    def rate_ld_fn(x: float) -> float:
        if x <= -t:
            return math.inf
        if x <= 0.0:
            return -(F.log_cdf(x + t) - log_f_t)
        return -(G.log_sf(x + t) - log_sfg_t)

    def rate_md_fn(x: float) -> float:
        if x <= 0.0:
            return -slope_left * x
        return slope_right * x

    def limit_cdf(x: float) -> float:
        if x <= 0.0:
            return beta * math.exp(slope_left * x)
        return 1.0 - (1.0 - beta) * math.exp(-slope_right * x)

    def log_upper(n: int, x: float) -> float:
        n = _check_n(n, 1, None, "replacement")
        if x <= -t:
            return 0.0
        if x <= 0.0:
            return stable_log_complement(log_beta + n * (F.log_cdf(x + t) - log_f_t))
        return log_1mbeta + n * (G.log_sf(x + t) - log_sfg_t)

    def log_lower(n: int, x: float) -> float:
        n = _check_n(n, 1, None, "replacement")
        if x <= -t:
            return -math.inf
        if x <= 0.0:
            return log_beta + n * (F.log_cdf(x + t) - log_f_t)
        return stable_log_complement(log_1mbeta + n * (G.log_sf(x + t) - log_sfg_t))

    def count_hits(n: int, x: float, side: str, panel) -> int:
        n = _check_n(n, 1, None, "replacement")
        u = panel.column(0)
        z = np.empty_like(u)
        low = u <= beta
        if low.any():
            z[low] = quantile_values(
                F, np.exp(log_f_t + (np.log(u[low]) - log_beta) / n))
        if (~low).any():
            z[~low] = isf_values(
                G, np.exp(log_sfg_t + (np.log1p(-u[~low]) - log_1mbeta) / n))
        return _count(z - t, x, side)

    label = (f"replacement:{render_dist_spec(F)},{render_dist_spec(G)},"
             f"t={t!r},beta={beta!r}")
    return FamilySpec(
        name="replacement",
        label=label,
        central=False,
        speed=lambda n: float(n),
        rate_ld=RateFunction(
            fn=rate_ld_fn,
            domain_note="log-ratio of F below t, of sf_G above; +inf at and below -t",
            right_slope_at_zero=slope_right,
            left_slope_at_zero=-slope_left),
        rate_md=RateFunction(
            fn=rate_md_fn,
            domain_note="piecewise linear on all reals",
            right_slope_at_zero=slope_right,
            left_slope_at_zero=-slope_left),
        limit_cdf=limit_cdf,
        exact_log_upper_tail=log_upper,
        exact_log_lower_tail=log_lower,
        count_hits=count_hits,
        least_n=1,
        md_needs_alogn=True,
    )


# ---------------------------------------------------------------------------
# family specifier strings


def _split_kv(token: str, spec: str) -> tuple[str, str]:
    key, eq, val = token.partition("=")
    if not eq or not val:
        raise SpecParseError(f"expected key=value, got {token!r} in {spec!r}")
    return key.strip(), val.strip()


def parse_family_spec(spec: str) -> FamilySpec:
    """Build a family from its specifier string.

    Forms: "classical:sigma=<v>", "minima:<dist>", "gumbel_maxima:<dist>",
    "coupon", "replacement:<F>,<G>,t=<v>,beta=<v>". Distribution parts
    use the distribution catalog's own specifier syntax.
    """
    spec = spec.strip()
    head, _, rest = spec.partition(":")
    head = head.strip().lower()
    try:
        if head == "classical":
            key, val = _split_kv(rest, spec)
            if key != "sigma":
                raise SpecParseError(f"classical takes sigma=<v>, got {rest!r}")
            return make_classical_sums(float(val))
        if head == "minima":
            if not rest:
                raise SpecParseError("minima needs a distribution part")
            return make_minima(parse_dist_spec(rest))
        if head == "gumbel_maxima":
            if not rest:
                raise SpecParseError("gumbel_maxima needs a distribution part")
            return make_gumbel_maxima(parse_dist_spec(rest))
        if head == "coupon":
            if rest:
                raise SpecParseError(f"coupon takes no parameters, got {rest!r}")
            return make_coupon()
        if head == "replacement":
            tokens = [tok.strip() for tok in rest.split(",") if tok.strip()]
            dists = [tok for tok in tokens if "=" not in tok]
            kvs = dict(_split_kv(tok, spec) for tok in tokens if "=" in tok)
            if len(dists) != 2:
                raise SpecParseError(
                    f"replacement needs two distribution parts, got {dists} in {spec!r}")
            extra = set(kvs) - {"t", "beta"}
            if extra or set(kvs) != {"t", "beta"}:
                raise SpecParseError(
                    f"replacement needs t=<v> and beta=<v>, got {sorted(kvs)} in {spec!r}")
            return make_replacement(ReplacementParams(
                F=parse_dist_spec(dists[0]),
                G=parse_dist_spec(dists[1]),
                t=float(kvs["t"]),
                beta=float(kvs["beta"]),
            ))
    except SpecParseError:
        raise
    except (ValueError, TypeError) as exc:
        raise SpecParseError(f"bad family spec {spec!r}: {exc}") from exc
    raise SpecParseError(
        f"unknown family {head!r}; families: classical, minima, gumbel_maxima, "
        f"coupon, replacement")


def render_family_spec(fam: FamilySpec) -> str:
    """Canonical specifier; parse(render(fam)) rebuilds the same family."""
    return fam.label
