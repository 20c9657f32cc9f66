"""The five scaled-statistic families and their exact finite-n tails.

Each family packages a statistic C_n, its speed v_n, the two rate
functions (large-deviation and moderate-deviation), the weak limit law,
exact log-domain tail evaluators, and one panel sampler, count_hits,
behind one FamilySpec record. Everything downstream (probes, Monte
Carlo, the command line) works off this record and never
special-cases a family.

Four samplers (classical, minima, gumbel_maxima, replacement) draw C_n
from one uniform per trial through a transform f nondecreasing in u, and
count it with estimators.count_by_bracket, whose bracket the family's
exact tails place.

The coupon collection time has one evaluator for both tails: the exact
alternating series of P(T_n <= m), summed in log-scaled form with a
computed rounding bound, is returned wherever that bound certifies a
relative error of 1e-10; it stops summing once the terms left provably
fall below rounding, so its cost follows the terms that matter, not n,
and gives up once a term is too large for any sum to certify. A list of
thresholds at one n runs through it together, one chunk of terms shared
by all. Deep in the lower tail, where it cannot certify, a tilted Fourier
inversion with its own computed bound answers; it keeps no state, and
its grid, hence its time and memory, follows from (n, m) alone. The
tests check both against the integer inclusion-exclusion in
tests/reference_oracles.py.

Every family is built by _family from list-native tails: the record's
exact tails take one level or a list of levels, a float level giving the
bits of the one-level list, and the record checks n once per call
against the family's least_n and max_n.

The non-central moderate rates are linear on each side of 0 (x for the
Gumbel maxima and the coupon, F'(0+) x for the minima, two slopes for
replacement), so each is built by _linear_rate from its two slopes, which
the rate stores for slope_identity_check. The Gumbel maxima's
large-deviation rate J(1 + x) = ((1 + x)^mu - 1)/mu is built by
_gumbel_ld_rate from the tail index mu. The Gumbel maxima family takes
m_n and h_n from rvtoolkit's characteristic_level and normalizing_rate on
every call and keeps no state.

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
# nothing in mdlab uses scipy.signal; the line stays only because two checks
# need `import mdlab` to load it, and goes with them: perfbench/run.py's
# IMPORT_MODULES in traced runs and tests/test_cli.py's import set check
import scipy.signal  # noqa: F401
from scipy.special import cosdg, log_ndtr, ndtr, ndtri, sindg

from .distributions import (
    Distribution,
    SpecParseError,
    isf_values,
    parse_dist_spec,
    quantile_values,
    render_dist_spec,
    stable_log_complement,
)
from .estimators import U_GREATEST, count_by_bracket, negated_uniforms, panel_keys
from .rvtoolkit import (
    characteristic_level,
    declared_profile,
    least_valid_n,
    normalizing_rate,
)


# ---------------------------------------------------------------------------
# rate functions


@dataclass(frozen=True)
class RateFunction:
    """A nonnegative rate x -> I(x), +inf where the tail is thinner than
    the exponential scale being probed.

    A non-central moderate rate is linear on each side of 0 and carries
    its two slopes (_linear_rate sets them); -inf/+inf mark a side where
    the rate jumps straight to infinity. Other rates leave them nan.
    """

    fn: Callable[[float], float] = field(repr=False)
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


def _linear_rate(right: float, left: float) -> RateFunction:
    """x -> right x above 0 and left x below it: a non-central moderate
    rate. An infinite slope makes its side +inf (left is -inf there)."""
    def fn(x: float) -> float:
        if x > 0.0:
            return right * x
        if x < 0.0:
            return left * x
        return 0.0

    return RateFunction(fn=fn, right_slope_at_zero=right, left_slope_at_zero=left)


def _gumbel_ld_rate(mu: float) -> RateFunction:
    """x -> J(1 + x), J(y) = (y^mu - 1)/mu on [1, inf) and +inf below 1: the
    large-deviation rate of C_n = M_n / m_n - 1 for a tail of index mu > 0."""
    def fn(x: float) -> float:
        y = x + 1.0
        if y < 1.0:
            return math.inf
        return (y ** mu - 1.0) / mu

    return RateFunction(fn=fn)


# ---------------------------------------------------------------------------
# family record


@dataclass(frozen=True)
class FamilySpec:
    """Everything the probes need to know about one scaled statistic.

    count_hits(n, x, side, panel) is the family's only sampler. It returns
    the count that drawing C_n by inverse transform on every trial of the
    panel would give: how many draws fall in the tail (C_n >= x for side
    "upper", C_n <= x for "lower"), whether or not each draw is formed. It
    uses len(panel), the trial count, and reads the panel's draws only
    through estimators, either with count_by_bracket or with panel_keys
    plus negated_uniforms, so the uniforms are the stream's, bit for bit.
    draws_per_trial(n) is the number of uniforms a trial reads at n (1, or
    n - 1 for the coupon); mc_log_tail holds trials times it to a budget.

    exact_log_upper_tail(n, x) and exact_log_lower_tail(n, x) take one
    level or a list of levels. A list gives the list of log probabilities,
    in order, and raises what the first level that cannot be answered
    raises; a float level x gives the bits of the one-level list [x]. The
    tails and count_hits raise a ValueError for an n below least_n or
    above max_n. _family builds every record this way, so a family writes
    only list tails: the probes pass one list per n and side, and the
    coupon series and the Gumbel maxima's m_n run once per list.
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
    draws_per_trial: Callable[[int], int] = field(default=lambda n: 1, repr=False)


def _check_n(n: int, least: int, cap: Optional[int], label: str) -> int:
    n = int(n)
    if n < least:
        raise ValueError(f"{label} needs n >= {least}, got {n}")
    if cap is not None and n > cap:
        raise ValueError(f"{label} caps n at {cap} (quantile resolution), got {n}")
    return n


def _family(name: str, least_n: int, upper, lower, count_hits,
            max_n: Optional[int] = None, **fields) -> FamilySpec:
    """The FamilySpec whose tails and count_hits call upper(n, xs),
    lower(n, xs) and count_hits with an int n already checked against
    least_n and max_n; a float level x is answered as the list [x]."""
    def tail(list_tail):
        def checked(n: int, x):
            n = _check_n(n, least_n, max_n, name)
            return list_tail(n, x) if isinstance(x, list) else list_tail(n, [x])[0]
        return checked

    def hits(n: int, x: float, side: str, panel) -> int:
        return count_hits(_check_n(n, least_n, max_n, name), x, side, panel)

    return FamilySpec(name=name, exact_log_upper_tail=tail(upper),
                      exact_log_lower_tail=tail(lower), count_hits=hits,
                      least_n=least_n, max_n=max_n, **fields)


def _mapped(tail):
    """A closed-form tail(n, x) over a list of levels."""
    return lambda n, xs: [tail(n, x) for x in xs]


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
    if not (math.isfinite(two_var) and two_var > 0.0):
        raise ValueError(f"2 sigma^2 must be a positive finite double, got sigma={sigma}")

    def quad(x: float) -> float:
        return x * x / two_var

    rate = RateFunction(fn=quad)

    def log_upper(n: int, x: float) -> float:
        return float(log_ndtr(-x * math.sqrt(n) / sigma))

    def log_lower(n: int, x: float) -> float:
        return float(log_ndtr(x * math.sqrt(n) / sigma))

    def count_hits(n: int, x: float, side: str, panel) -> int:
        return count_by_bracket(panel, lambda u: sigma * ndtri(u) / math.sqrt(n), x, side,
                                log_lower(n, x), log_upper(n, x))

    return _family(
        "classical_sums", 1, _mapped(log_upper), _mapped(log_lower), count_hits,
        label=f"classical:sigma={sigma!r}",
        central=True,
        speed=lambda n: float(n),
        rate_ld=rate,
        rate_md=rate,
        limit_cdf=lambda x: float(ndtr(x / sigma)),
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

    def rate_ld_fn(x: float) -> float:
        if x < 0.0:
            return math.inf
        if x == 0.0:
            return 0.0
        return -dist.log_sf(x)

    def limit_cdf(x: float) -> float:
        if x <= 0.0:
            return 0.0
        return -math.expm1(-slope0 * x)

    def log_upper(n: int, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return n * dist.log_sf(x)

    def log_lower(n: int, x: float) -> float:
        if x <= 0.0:
            return -math.inf
        return stable_log_complement(n * dist.log_sf(x))

    def count_hits(n: int, x: float, side: str, panel) -> int:
        return count_by_bracket(panel, lambda u: isf_values(dist, np.exp(np.log1p(-u) / n)),
                                x, side, log_lower(n, x), log_upper(n, x))

    return _family(
        "minima", 1, _mapped(log_upper), _mapped(log_lower), count_hits,
        label=f"minima:{render_dist_spec(dist)}",
        central=False,
        speed=lambda n: float(n),
        rate_ld=RateFunction(fn=rate_ld_fn),
        rate_md=_linear_rate(slope0, -math.inf),
        limit_cdf=limit_cdf,
    )


# ---------------------------------------------------------------------------
# maxima under a Gumbel-domain tail


_GUMBEL_N_CAP = 10 ** 15
# below this, 1 - (1 - s)^n evaluated from n log(1-s) is safe; above it,
# cdf(y) rounds to 1 and the complement must come from log sf directly
_LOG_NS_SMALL = math.log(1e-8)


def make_gumbel_maxima(dist: Distribution) -> FamilySpec:
    """C_n = M_n / m_n - 1 with m_n = isf(1/n); v_n = h_n = m_n n pdf(m_n).

    m_n and h_n are rvtoolkit's characteristic_level and normalizing_rate.
    Only unbounded tails with a declared positive power index qualify.
    """
    mu = declared_profile(dist).mu
    least = least_valid_n(dist)

    def speed(n: int) -> float:
        return normalizing_rate(dist, _check_n(n, least, _GUMBEL_N_CAP, "gumbel_maxima"))

    # log P(C_n >= x) given m = m_n, which log_upper and count_hits each
    # compute once per call
    def upper_at(n: int, m: float, x: float) -> float:
        y = m * (1.0 + x)
        ls = dist.log_sf(y)
        log_n = math.log(n)
        if log_n + ls < _LOG_NS_SMALL:
            # 1 - (1-s)^n = n s (1 - (n-1) s / 2 + O((ns)^2))
            return log_n + ls + math.log1p(-(n - 1) * math.exp(ls) / 2.0)
        return stable_log_complement(n * dist.log_cdf(y))

    def log_upper(n: int, xs: list) -> list:
        m = characteristic_level(dist, n)
        return [upper_at(n, m, x) for x in xs]

    def log_lower(n: int, xs: list) -> list:
        m = characteristic_level(dist, n)
        return [n * dist.log_cdf(m * (1.0 + x)) for x in xs]

    def count_hits(n: int, x: float, side: str, panel) -> int:
        m = characteristic_level(dist, n)
        return count_by_bracket(
            panel, lambda u: isf_values(dist, -np.expm1(np.log(u) / n)) / m - 1.0, x, side,
            n * dist.log_cdf(m * (1.0 + x)), upper_at(n, m, x))

    return _family(
        "gumbel_maxima", least, log_upper, log_lower, count_hits, max_n=_GUMBEL_N_CAP,
        label=f"gumbel_maxima:{render_dist_spec(dist)}",
        central=False,
        speed=speed,
        rate_ld=_gumbel_ld_rate(mu),
        rate_md=_linear_rate(1.0, -math.inf),
        limit_cdf=lambda x: math.exp(-math.exp(-x)),
    )


# ---------------------------------------------------------------------------
# coupon collection time


# the series is used where its rounding bound certifies this relative error
_SERIES_TARGET = 1e-10
_U = 2.0 ** -53  # unit roundoff
_ULP = 2.0 * _U  # log, log1p and exp are taken to be within one ulp
_SUBNORMAL = 5e-324  # absolute error of an exp that lands below the normal range
_TILT_CHUNK = 1 << 14  # trapezoid nodes summed per pass of _coupon_tilt
_WAIT_BLOCK = 1 << 15  # geometric waits (256 KB) per block of the coupon sampler
# -log1p(-u) <= 53 log 2 for every counter uniform u <= U_GREATEST; the
# factor covers the rounding of log1p and of the sampler's divide
_WAIT_LOG_CAP = -math.log1p(-U_GREATEST) * (1.0 + 1e-9)
_SERIES_CHUNK = 64  # terms in the first chunk of the series; each next one doubles
# a series term above e^_TOP_LIMIT rules out certifying _SERIES_TARGET
_TOP_LIMIT = math.log(_SERIES_TARGET / _U) + 1.0


def _coupon_series(n: int, m: list, upper: bool) -> list:
    """One coupon tail from its alternating series: for each of a list of
    thresholds m, (log value, error bound), all computed together.

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
    Since P <= 1, the rounding alone is at least u e^max relative, so once
    the largest term passes e^_TOP_LIMIT nothing can certify and the row
    returns (nan, inf) at once: memory stays bounded where the terms would
    take up to n of them to decay.

    The rows of a list share each chunk's log C(n,k) and its error, and
    each row stops at the chunk where it would alone. The rows that stop
    together are scaled and reduced as one block whose row sums and
    per-row dot products are the ones a single row gets, so every pair
    has the bits of a call with that m alone.
    """
    if not m:
        return []
    ms = np.array(m, dtype=float)[:, None]
    out = [(math.nan, math.inf)] * len(m)  # the rows that pass _TOP_LIMIT keep it
    live = np.arange(len(m))  # rows still summing, ascending; ms and top follow it
    top = np.full(len(m), -math.inf if upper else 0.0)  # the k = 0 term is exactly 1
    tops, tail = [math.nan] * len(m), [0.0] * len(m)  # as each row stops
    chunks = []  # per chunk: the rows live in it, their log t_k and error
    stops = {}  # chunk count -> the rows that stop after that many chunks
    log_c = err_c = 0.0  # log C(n, k-1) at the chunk start, and its error
    start, size = 1, _SERIES_CHUNK
    while start < n:
        k = np.arange(start, min(n, start + size), dtype=float)
        g = np.log((n + 1.0 - k) / k)  # log C(n, k) - log C(n, k-1), the floats exact
        # prefixing the carried value keeps the chunked cumsum bitwise sequential
        log_binom = np.cumsum(np.concatenate(([log_c], g)))[1:]  # log C(n, k)
        # the ratio (u) and its log (one ulp), then each partial sum (u)
        err_b = np.cumsum(np.concatenate(
            ([err_c], _U + _ULP * np.abs(g) + _U * np.abs(log_binom))))[1:]
        log_c, err_c = float(log_binom[-1]), float(err_b[-1])
        x = k / n
        lg = np.log1p(-x)
        log_t = log_binom + ms * lg
        # k/n (u, magnified by x/(1-x) in log1p), log1p, the product, the sum
        err = err_b + ms * (_U * x / (1.0 - x) + (_ULP + _U) * np.abs(lg)) + _U * np.abs(log_t)
        chunks.append((live, log_t, err))
        top = np.maximum(top, log_t.max(axis=1))
        start += len(k)
        size *= 2
        # rows past _TOP_LIMIT, and rows whose terms may have started to fall
        flag = top > _TOP_LIMIT
        if start < n and len(k) > 1:
            d = log_t[:, -1] - log_t[:, -2]
            log_rho = d + _U * np.abs(d) + (err[:, -1] + err[:, -2])
            flag |= log_rho <= -math.log(2.0)
        drop = []
        for i in flag.nonzero()[0].tolist():
            top_i = float(top[i])
            if top_i > _TOP_LIMIT:
                drop.append(i)
                continue
            lr = float(log_rho[i])
            log_tail = float(log_t[i, -1] + err[i, -1]) + lr - math.log(-math.expm1(lr))
            if log_tail - top_i <= math.log(_U):
                row = int(live[i])
                tail[row], tops[row] = math.exp(log_tail - top_i), top_i
                stops.setdefault(len(chunks), []).append(row)
                drop.append(i)
        if len(drop) == len(live):
            break
        if drop:
            keep = np.ones(len(live), dtype=bool)
            keep[drop] = False
            live, ms, top = live[keep], ms[keep], top[keep]
    else:
        for row, top_i in zip(live.tolist(), top.tolist()):
            tops[row] = top_i
            stops.setdefault(len(chunks), []).append(row)
    for count, rows in stops.items():
        rows = np.array(rows)
        terms = [] if upper else [np.zeros((len(rows), 1))]  # the k = 0 term is exact
        errs = terms.copy()
        for had, log_t, err in chunks[:count]:
            at = slice(None) if len(had) == len(rows) else np.searchsorted(had, rows)
            terms.append(log_t[at])
            errs.append(err[at])
        log_t, err = np.concatenate(terms, axis=1), np.concatenate(errs, axis=1)
        y = log_t - np.array([tops[row] for row in rows])[:, None]
        a = np.exp(y)
        delta = np.expm1(err + _U * np.abs(y) + _ULP)
        sums = (a[:, 0::2].sum(axis=1) - a[:, 1::2].sum(axis=1)).tolist()
        nonzero, totals = (a > 0.0).sum(axis=1).tolist(), a.sum(axis=1).tolist()
        for i, row in enumerate(rows.tolist()):
            s = sums[i]
            if not s > 0.0:
                out[row] = (-math.inf, math.inf)
                continue
            rounding = (float(a[i] @ delta[i]) + nonzero[i] * _U * totals[i]
                        + a.shape[1] * _SUBNORMAL + tail[row])
            log_s = math.log(s)
            value = tops[row] + log_s
            bound = rounding / s + _ULP * abs(log_s) + _U * abs(value)
            out[row] = (value if upper else min(value, 0.0)), bound
    return out


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
    one_v, small = 1.0 + v, np.abs(v) < 0.5
    out = np.empty_like(one_v)
    x, y = v[small].real, v[small].imag
    out[small] = 0.5 * np.log1p(x * (2.0 + x) + y * y) + 1j * np.arctan2(y, 1.0 + x)
    out[~small] = np.log(one_v[~small])  # the plain log only where |v| >= 0.5
    d = np.abs(one_v)
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
    degrees), and the sum errs by (N-1) u sum |a_j| in whatever order it
    is taken, which lets the grid be summed _TILT_CHUNK nodes at a time
    in bounded memory. L u/2 caps the grid.
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
    nodes = size // 2 + 1  # t = 2 pi s, s = j/size; the other half mirrors
    total = total_err = total_abs = 0.0
    for lo in range(0, nodes, _TILT_CHUNK):  # the sums, chunk by chunk
        s = np.arange(lo, min(lo + _TILT_CHUNK, nodes)) / size
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
        if lo == 0:
            ell0 = ell[0]
        d = n * (ell - ell0)
        expo = re + d.real + 1j * (im - phase + d.imag)
        term = np.exp(expo)
        err_term = np.expm1(11 * _U * np.abs(re) + 6 * _U * np.abs(im) + 3 * _U * phase
                            + n * err_ell + 2 * _U * (np.abs(d) + np.abs(expo)) + 10 * _U)
        weight = np.where((s == 0.0) | (s == 0.5), 1.0, 2.0)
        total += float(weight @ term.real)
        total_err += float(weight @ (np.abs(term) * err_term))
        total_abs += float(weight @ np.abs(term.real))
    p = total / size
    slack = (total_err + (nodes - 1) * _U * total_abs) / size + math.exp(log_alias)
    if not p > slack:
        return math.nan, math.inf
    c0 = n * float(ell0.real)  # the n log g(lam) that d leaves out; its rounding cancels
    value = math.fsum(pre + [c0, math.log(p)])
    bound = slack / (p - slack) + _ULP * abs(math.log(p)) + err + _U * (abs(c0) + abs(value))
    return min(value, 0.0), bound


def _coupon_log_cdf(n: int, m: list) -> list:
    """log P(T_n <= m) for each of a list of m, n >= 2: the series where
    its bound certifies 1e-10, else _coupon_tilt where its bound does, else
    a ValueError. log1p(-P(T_n > m)) from the upper series, where that is
    below 1/2, keeps log p relative.

    The series runs once over the whole list and the upper series once
    over the rows near 1. The tilt runs row by row in list order, so the
    first row it cannot certify raises what the list [m] alone raises.
    """
    ms = [int(v) for v in m]
    out = [-math.inf] * len(ms)
    rows = [i for i, v in enumerate(ms) if v >= n]
    series = _coupon_series(n, [ms[i] for i in rows], upper=False)
    near_one = [i for i, (log_p, bound) in zip(rows, series)
                if bound <= _SERIES_TARGET and log_p > -math.log(2.0)]
    complement = dict(zip(near_one, _coupon_series(n, [ms[i] for i in near_one], upper=True)))
    for i, (log_p, bound) in zip(rows, series):
        if bound > _SERIES_TARGET:
            log_p, bound = _coupon_tilt(n, ms[i])
        elif i in complement and complement[i][1] <= _SERIES_TARGET:
            log_p = stable_log_complement(complement[i][0])
        if not bound <= _SERIES_TARGET:
            raise ValueError(
                f"coupon lower tail n={n}, m={ms[i]}: the tilted inversion's error "
                f"bound {bound:.3g} exceeds {_SERIES_TARGET:g}")
        out[i] = log_p
    return out


def _coupon_log_sf(n: int, m: list) -> list:
    """log P(T_n > m) for each of a list of m, n >= 2: the series where its
    bound certifies 1e-10, else the complement of _coupon_log_cdf. The
    upper series misses only deep in the lower tail, where that complement
    loses nothing."""
    ms = [int(v) for v in m]
    out = [0.0] * len(ms)
    rows = [i for i, v in enumerate(ms) if v >= n]
    missed = []
    for i, (log_p, bound) in zip(rows, _coupon_series(n, [ms[i] for i in rows], upper=True)):
        if bound <= _SERIES_TARGET:
            out[i] = log_p
        else:
            missed.append(i)
    for i, log_p in zip(missed, _coupon_log_cdf(n, [ms[i] for i in missed])):
        out[i] = stable_log_complement(log_p)
    return out


def coupon_threshold_pair(n: int, x: float) -> tuple[int, int]:
    """Integer draw counts bracketing the event split at C_n = x.

    C_n >= x means T >= m_up and C_n <= x means T <= m_lo; the 1e-9 snap
    keeps thresholds that are integers up to float noise on the integer.
    """
    y = (1.0 + x) * n * math.log(n)
    if not math.isfinite(y):
        raise ValueError(f"coupon level x={x!r} at n={n} has no finite draw-count "
                         f"threshold (1 + x) n log n")
    m_up = math.ceil(y - 1e-9)
    m_lo = math.floor(y + 1e-9)
    return m_lo, m_up


def _at_thresholds(tail, n: int, xs: list, threshold) -> list:
    """tail(n, the list of the levels' thresholds). A level without a
    threshold (nan, +-inf) raises once the levels before it have run, as
    the one-level lists in order would."""
    ms = []
    for v in xs:
        try:
            ms.append(threshold(v))
        except ValueError:
            tail(n, ms)
            raise
    return tail(n, ms)


def _coupon_waits(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(log_q, wmax) over the draws d = 0, ..., n - 2 of the coupon sampler.

    Draw d is the wait for coupon k = d + 2, of success p = (n - d - 1)/n:
    ceil(log1p(-u) / log_q[d]) with log_q[d] = log1p(-p). At u <= U_GREATEST
    that wait is at most ceil(y) <= floor(y) + 1 for y = 53 log 2 / -log_q[d].
    _WAIT_LOG_CAP's factor covers the rounding of y, and wmax[d] adds one
    more draw.
    """
    # math.log1p of each correctly rounded -p: numpy's log1p may round
    # differently, and the frozen counts rest on these bits
    log_q = np.fromiter(map(math.log1p, -(np.arange(n - 1, 0, -1) / n)), float, n - 1)
    return log_q, np.floor(-_WAIT_LOG_CAP / log_q) + 2.0


def make_coupon() -> FamilySpec:
    """C_n = T_n / (n log n) - 1 for the n-coupon collection time; v_n = log n.

    T_n is a sum of geometric waits with success (n-k+1)/n for the k-th
    new coupon, so T_n >= n and both tails reduce to integer thresholds
    on T_n. The exact tails keep no state, so every instance answers a
    query with the same bits and the same memory.

    count_hits reads the waits from k = n (the longest) down to k = 2, in
    (draws, trials) blocks of at most _WAIT_BLOCK words (one draw of every
    trial left, if more), mixed from panel_keys with negated_uniforms into
    one block buffer and one scratch buffer per call. The block holds -u
    directly, the log1p input, and each wait is ceil(log1p(-u) / log_q[d]).
    Every wait is at least 1 and the wait of draw d at most wmax_d
    (_coupon_waits), so before each block a trial whose sum so far plus
    the least its unread waits can add reaches the threshold is decided
    above it, and one whose sum plus the most they can add stays below it
    is decided below: an upper hit or miss, a lower miss or hit. Decided
    trials are dropped before the next block is mixed, and a row the test
    decides before the first block mixes no key. Each uniform is a function
    of (seed, trial, draw) alone, so the count is the one reading every
    wait of every trial in order would give.
    """
    rate = _linear_rate(1.0, -math.inf)

    def log_upper(n: int, xs: list) -> list:
        return _at_thresholds(_coupon_log_sf, n, xs, lambda v: coupon_threshold_pair(n, v)[1] - 1)

    def log_lower(n: int, xs: list) -> list:
        return _at_thresholds(_coupon_log_cdf, n, xs, lambda v: coupon_threshold_pair(n, v)[0])

    def count_hits(n: int, x: float, side: str, panel) -> int:
        m_lo, m_up = coupon_threshold_pair(n, x)
        # the upper side counts the trials with T_n >= m, the lower side
        # the others
        m = m_up if side == "upper" else m_lo + 1
        # every wait is at least one draw, so T_n >= n
        if m <= n:
            return len(panel) if side == "upper" else 0
        log_q, wmax = _coupon_waits(n)
        most = np.zeros(n)  # most[j]: wmax_d summed over d < j
        np.cumsum(wmax, out=most[1:])
        t = np.ones(len(panel))
        keys = None  # every t starts at 1, so the first test decides all trials or none
        above = 0  # the trials dropped with T_n >= m
        unread = n - 1  # draws 0, ..., unread - 1 are still to be read
        while True:
            # the unread waits add at least unread and at most most[unread]
            undecided = (t >= m - most[unread]) & (t < m - unread)
            left = int(np.count_nonzero(undecided))
            if left < t.size:
                above += int(np.count_nonzero(t >= m - unread))
                t = t[undecided]
                if keys is not None:
                    keys = keys[undecided]
            if not left:
                return above if side == "upper" else len(panel) - above
            if keys is None:
                keys = panel_keys(panel)
                block = np.empty(max(_WAIT_BLOCK, left), dtype=np.uint64)
                scratch = np.empty_like(block)
            rows = min(unread, max(1, _WAIT_BLOCK // left))
            size = rows * left
            w = negated_uniforms(keys, unread - rows, block[:size].reshape(rows, left),
                                 scratch[:size].reshape(rows, left))
            np.log1p(w, out=w)
            np.divide(w, log_q[unread - rows:unread, None], out=w)
            np.ceil(w, out=w)
            # every partial sum is an integer below 2^53, so float64 holds
            # T_n exactly and the order of the additions does not matter;
            # numpy's axis-0 sum of a single row costs twice one add
            t += w[0] if rows == 1 else w.sum(axis=0)
            unread -= rows

    return _family(
        "coupon", 2, log_upper, log_lower, count_hits,
        label="coupon",
        draws_per_trial=lambda n: n - 1,
        central=False,
        speed=lambda n: math.log(n),
        rate_ld=rate,
        rate_md=rate,
        limit_cdf=lambda x: math.exp(-math.exp(-x)),
    )


# ---------------------------------------------------------------------------
# replacement lifetimes


def make_replacement(F: Distribution, G: Distribution, t: float,
                     beta: float) -> FamilySpec:
    """C_n = Z_n - t for the age-n replacement lifetime; v_n = n.

    A unit is renewed at age t with probability beta (its age then
    resets through the conditioned lower law F^n on [0, t]) and survives
    past t otherwise (upper law G conditioned on exceeding t). The
    one-sided slopes F'(t-) and G'(t+), which drive the moderate rate and
    the weak limit, are the catalog densities F.pdf(t) and G.pdf(t); both
    must be finite and positive.

    P(Z_n <= z) = beta (F(z)/F(t))^n below t and
    1 - (1-beta)(sf_G(z)/sf_G(t))^n above it, so P(C_n <= 0) = beta at
    every n and both tails are one log-ratio away from F and G. The
    moderate regime additionally needs a_n log n -> 0.
    """
    t, beta = float(t), float(beta)
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"replacement age t must be positive, got {t}")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    for which, d in (("F", F), ("G", G)):
        if d.support[0] != 0.0:
            raise ValueError(
                f"{which} must be supported on [0, ...), got {d.name} "
                f"on [{d.support[0]}, {d.support[1]}]")
    if not 0.0 < F.cdf(t) < 1.0:
        raise ValueError(f"F must be strictly between 0 and 1 at t={t}")
    if not 0.0 < G.cdf(t) < 1.0:
        raise ValueError(f"G must be strictly between 0 and 1 at t={t}")
    for which, d in (("F", F), ("G", G)):
        slope = d.pdf(t)
        if not (math.isfinite(slope) and slope > 0.0):
            raise ValueError(f"{which}'(t) must be finite and positive, got {slope}")
    log_f_t = F.log_cdf(t)
    log_sfg_t = G.log_sf(t)
    log_beta = math.log(beta)
    log_1mbeta = math.log1p(-beta)
    slope_right = G.pdf(t) / G.sf(t)
    slope_left = F.pdf(t) / F.cdf(t)

    def rate_ld_fn(x: float) -> float:
        if x <= -t:
            return math.inf
        if x <= 0.0:
            return -(F.log_cdf(x + t) - log_f_t)
        return -(G.log_sf(x + t) - log_sfg_t)

    def limit_cdf(x: float) -> float:
        if x <= 0.0:
            return beta * math.exp(slope_left * x)
        return 1.0 - (1.0 - beta) * math.exp(-slope_right * x)

    def log_upper(n: int, x: float) -> float:
        if x <= -t:
            return 0.0
        if x <= 0.0:
            return stable_log_complement(log_beta + n * (F.log_cdf(x + t) - log_f_t))
        return log_1mbeta + n * (G.log_sf(x + t) - log_sfg_t)

    def log_lower(n: int, x: float) -> float:
        if x <= -t:
            return -math.inf
        if x <= 0.0:
            return log_beta + n * (F.log_cdf(x + t) - log_f_t)
        return stable_log_complement(log_1mbeta + n * (G.log_sf(x + t) - log_sfg_t))

    def count_hits(n: int, x: float, side: str, panel) -> int:
        def c_of(u):
            z = np.empty_like(u)
            low = u <= beta
            if low.any():
                z[low] = quantile_values(
                    F, np.exp(log_f_t + (np.log(u[low]) - log_beta) / n))
            if (~low).any():
                z[~low] = isf_values(
                    G, np.exp(log_sfg_t + (np.log1p(-u[~low]) - log_1mbeta) / n))
            return z - t

        return count_by_bracket(panel, c_of, x, side, log_lower(n, x), log_upper(n, x))

    label = (f"replacement:{render_dist_spec(F)},{render_dist_spec(G)},"
             f"t={t!r},beta={beta!r}")
    return _family(
        "replacement", 1, _mapped(log_upper), _mapped(log_lower), count_hits,
        label=label,
        central=False,
        speed=lambda n: float(n),
        rate_ld=RateFunction(fn=rate_ld_fn),
        rate_md=_linear_rate(slope_right, -slope_left),
        limit_cdf=limit_cdf,
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
            return make_replacement(parse_dist_spec(dists[0]), parse_dist_spec(dists[1]),
                                    float(kvs["t"]), float(kvs["beta"]))
    except SpecParseError:
        raise
    except (ValueError, TypeError) as exc:
        raise SpecParseError(f"bad family spec {spec!r}: {exc}") from exc
    raise SpecParseError(
        f"unknown family {head!r}; families: classical, minima, gumbel_maxima, "
        f"coupon, replacement")

