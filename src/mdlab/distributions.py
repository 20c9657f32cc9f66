"""Continuous distribution catalog with log-domain tail evaluators.

Every member states log_cdf, log_sf and log_pdf, a quantile and an
inverse survival function; cdf, sf and pdf are the exponentials of the
log forms. The log forms are first-class citizens: they stay finite and
strictly monotone far beyond the point where the plain survival function
underflows, which is what the tail probes need. A plain value carries
the log form's relative error times about 1 + |log p|.

Catalog members are continuous, so F(x-) = F(x) everywhere and survival
statements can use -log sf directly. Atoms are out of scope.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import (
    gammainc,
    gammaincc,
    gammainccinv,
    gammaincinv,
    gammaln,
    log_ndtr,
    ndtri,
)

from .estimators import stable_log_complement

__all__ = [
    "Distribution",
    "SpecParseError",
    "exponential",
    "uniform01",
    "weibull",
    "gamma",
    "std_normal",
    "logistic",
    "lognormal",
    "parse_dist_spec",
    "render_dist_spec",
    "quantile_values",
    "isf_values",
]

_LOG_2PI = math.log(2.0 * math.pi)


class SpecParseError(ValueError):
    """A distribution/family/scaling specifier string could not be parsed."""


@dataclass(frozen=True)
class Distribution:
    """One continuous distribution.

    The private callables are the raw log formulas on the interior of
    the support; the three log methods add the boundary conventions
    (at or below the support: log cdf -inf, log sf 0; at or above it:
    log cdf 0, log sf -inf; log pdf -inf outside it) and give nan at nan. cdf, sf and pdf are their
    exponentials, so each law is stated once. Raw quantile/isf
    callables are vectorized over levels in (0, 1): closed forms where the
    catalog has them, otherwise (gamma) a safeguarded Newton on the log
    tail. The scalar quantile and isf run the vectorized quantile_values
    and isf_values, so both give the same bits.
    """

    name: str
    params: tuple
    support: tuple
    _log_cdf: Callable = field(repr=False)
    _log_sf: Callable = field(repr=False)
    _log_pdf: Callable = field(repr=False)
    _quantile: Callable = field(repr=False)
    _isf: Callable = field(repr=False)
    cdf_slope_at_zero: Optional[float] = None

    # boundary-aware scalar evaluators

    def cdf(self, x: float) -> float:
        return math.exp(self.log_cdf(x))

    def sf(self, x: float) -> float:
        return math.exp(self.log_sf(x))

    def pdf(self, x: float) -> float:
        return math.exp(self.log_pdf(x))

    def log_cdf(self, x: float) -> float:
        lo, hi = self.support
        if math.isnan(x):
            return math.nan
        if x <= lo:
            return -math.inf
        if x >= hi:
            return 0.0
        return float(self._log_cdf(x))

    def log_sf(self, x: float) -> float:
        lo, hi = self.support
        if math.isnan(x):
            return math.nan
        if x <= lo:
            return 0.0
        if x >= hi:
            return -math.inf
        return float(self._log_sf(x))

    def log_pdf(self, x: float) -> float:
        lo, hi = self.support
        if math.isnan(x):
            return math.nan
        if x < lo or x > hi:
            return -math.inf
        return float(self._log_pdf(x))

    def quantile(self, p: float) -> float:
        """Smallest x with cdf(x) >= p.

        Accurate in the log domain: log_cdf(quantile(p)) matches log p to
        within a few ulps of log p (closed forms to float roundoff), so
        levels far below 1e-16 still invert to distinct points.
        """
        if math.isnan(p) or not 0.0 <= p <= 1.0:
            raise ValueError(f"quantile needs p in [0, 1], got {p}")
        return float(quantile_values(self, p))

    def isf(self, q: float) -> float:
        """Inverse survival: x with sf(x) = q, accurate for tiny q.

        The same log-domain contract as quantile, on log_sf: levels far
        below double-precision sf still invert.
        """
        if math.isnan(q) or not 0.0 <= q <= 1.0:
            raise ValueError(f"isf needs q in [0, 1], got {q}")
        return float(isf_values(self, q))


# Newton on a log tail: a point stops once its residual is within this many
# ulps of its log target, or once its next step no longer moves it. From the
# DiDonato-Morris seeds no point needs more than about ten steps; the step
# cap only bounds the loop.
_NEWTON_ULPS = 4.0
_NEWTON_MAX_STEPS = 100


def _newton_log_tail(log_f, log_pdf, log_target, x0, increasing):
    """Solve log_f(x) = log_target pointwise on the half line (0, inf).

    log_f is a vectorized log cdf (increasing=True) or log sf
    (increasing=False) on the interior of the support; its slope is
    +-exp(log_pdf - log_f), so the Newton step is taken in the log domain
    and stays well scaled however deep the target. Each point keeps a
    bracket [lo, hi] that its own evaluations narrow, and a Newton step
    that would leave it becomes a bisection step (a doubling while hi is
    still infinite). A point stops once |log_f(x) - log_target| is within
    _NEWTON_ULPS ulps of log_target, or once its Newton step or the step
    that replaces it no longer moves x (or would reach 0). Points whose
    seed lies outside (0, inf) are returned as seeded.
    """
    out = np.array(x0, dtype=float)
    shape = out.shape
    out = out.ravel()
    targets = np.broadcast_to(np.asarray(log_target, dtype=float), shape).ravel()
    idx = np.flatnonzero((out > 0.0) & (out < math.inf))
    x, t = out[idx], targets[idx]
    lo, hi = np.zeros_like(x), np.full_like(x, math.inf)
    sign = 1.0 if increasing else -1.0
    for _ in range(_NEWTON_MAX_STEPS):
        if idx.size == 0:
            break
        lf = log_f(x)
        r = lf - t
        root_above = r < 0.0 if increasing else r > 0.0
        lo = np.where(root_above, x, lo)
        hi = np.where(root_above, hi, x)
        xn = x - sign * r * np.exp(lf - log_pdf(x))
        live = (np.abs(r) > _NEWTON_ULPS * np.spacing(np.abs(t))) & (xn != x)
        bisect = np.where(np.isinf(hi), 2.0 * x, 0.5 * (lo + hi))
        xn = np.where((xn > lo) & (xn < hi), xn, bisect)
        live &= (xn != x) & (xn > 0.0)
        out[idx] = x
        idx, x, t, lo, hi = idx[live], xn[live], t[live], lo[live], hi[live]
    return out.reshape(shape)


# catalog constructors


def _power_slope_at_zero(shape: float) -> float:
    """F'(0+) of a law whose cdf behaves like x^shape at 0 (weibull, gamma)."""
    if shape == 1.0:
        return 1.0
    return 0.0 if shape > 1.0 else math.inf


def exponential(rate: float) -> Distribution:
    """Exponential with the given rate; sf(x) = e^{-rate x}."""
    if not rate > 0 or not math.isfinite(rate):
        raise SpecParseError(f"exponential rate must be positive, got {rate}")
    lam = float(rate)
    return Distribution(
        name="exponential",
        params=(lam,),
        support=(0.0, math.inf),
        cdf_slope_at_zero=lam,
        _log_cdf=lambda x: stable_log_complement(-lam * x),
        _log_sf=lambda x: -lam * x,
        _log_pdf=lambda x: math.log(lam) - lam * x,
        _quantile=lambda p: -np.log1p(-p) / lam,
        _isf=lambda q: -np.log(q) / lam,
    )


def uniform01() -> Distribution:
    """Uniform on the unit interval."""
    return Distribution(
        name="uniform01",
        params=(),
        support=(0.0, 1.0),
        cdf_slope_at_zero=1.0,
        _log_cdf=np.log,
        _log_sf=lambda x: np.log1p(-x),
        _log_pdf=lambda x: 0.0,
        _quantile=lambda p: p,
        _isf=lambda q: 1.0 - q,
    )


def weibull(shape: float) -> Distribution:
    """Weibull with sf(x) = e^{-x^shape} on x >= 0."""
    if not shape > 0 or not math.isfinite(shape):
        raise SpecParseError(f"weibull shape must be positive, got {shape}")
    a = float(shape)
    return Distribution(
        name="weibull",
        params=(a,),
        support=(0.0, math.inf),
        cdf_slope_at_zero=_power_slope_at_zero(a),
        _log_cdf=lambda x: stable_log_complement(-float(np.power(x, a))),
        _log_sf=lambda x: -np.power(x, a),
        _log_pdf=lambda x: math.log(a) + (a - 1.0) * np.log(x) - np.power(x, a),
        _quantile=lambda p: np.power(-np.log1p(-p), 1.0 / a),
        _isf=lambda q: np.power(-np.log(q), 1.0 / a),
    )


# gammainc/gammaincc results below this lose precision to gradual
# underflow; the log forms switch to a series or continued fraction there
_GAMMA_TINY = 1e-280


def _gamma_log_sf_cf(a: float, x: np.ndarray) -> np.ndarray:
    # log of the regularized upper incomplete gamma via the Lentz
    # continued fraction, elementwise; valid (and only used) well into the
    # x > a + 1 regime where the direct gammaincc underflows
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    live = np.ones(x.shape, dtype=bool)
    for i in range(1, 400):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = b + an / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = d * c
        h = np.where(live, h * delta, h)
        live &= np.abs(delta - 1.0) >= 1e-16
        if not live.any():
            break
    return -x + a * np.log(x) - gammaln(a) + np.log(h)


def _gamma_log_cdf_series(a: float, x: np.ndarray) -> np.ndarray:
    # log of the regularized lower incomplete gamma from
    # x^a e^-x / Gamma(a+1) * sum_k x^k / ((a+1)...(a+k)); only used where
    # gammainc underflows, so x << a and the terms fall off fast
    term = np.ones_like(x)
    total = np.ones_like(x)
    k = 0.0
    while np.any(term > 1e-17 * total):
        k += 1.0
        term = term * (x / (a + k))
        total = total + term
    return a * np.log(x) - x - gammaln(a + 1.0) + np.log(total)


def gamma(shape: float) -> Distribution:
    """Gamma with unit scale.

    log_cdf and log_sf stay accurate past the underflow of gammainc and
    gammaincc through the lower series and a continued fraction. quantile
    and isf polish the DiDonato-Morris inverses gammaincinv/gammainccinv
    with a safeguarded Newton on log_cdf and log_sf.
    """
    if not shape > 0 or not math.isfinite(shape):
        raise SpecParseError(f"gamma shape must be positive, got {shape}")
    a = float(shape)

    def log_cdf(x):
        x = np.asarray(x, dtype=float)
        s = gammaincc(a, x)
        p = gammainc(a, x)
        upper = s < 0.5
        out = np.where(upper, np.log1p(-np.where(upper, s, 0.0)),
                       np.log(np.where(p > _GAMMA_TINY, p, 1.0)))
        deep = ~upper & (p <= _GAMMA_TINY)
        if deep.any():
            out[deep] = _gamma_log_cdf_series(a, x[deep])
        return out

    def log_sf(x):
        x = np.asarray(x, dtype=float)
        s = gammaincc(a, x)
        out = np.asarray(np.log(np.where(s > _GAMMA_TINY, s, 1.0)))
        deep = s <= _GAMMA_TINY
        if deep.any():
            out[deep] = _gamma_log_sf_cf(a, x[deep])
        return out

    def log_pdf(x):
        return (a - 1.0) * np.log(x) - x - gammaln(a)

    def quantile(p):
        p = np.asarray(p, dtype=float)
        return _newton_log_tail(log_cdf, log_pdf, np.log(p), gammaincinv(a, p),
                                increasing=True)

    def isf(q):
        q = np.asarray(q, dtype=float)
        return _newton_log_tail(log_sf, log_pdf, np.log(q), gammainccinv(a, q),
                                increasing=False)

    return Distribution(
        name="gamma",
        params=(a,),
        support=(0.0, math.inf),
        cdf_slope_at_zero=_power_slope_at_zero(a),
        _log_cdf=log_cdf,
        _log_sf=log_sf,
        _log_pdf=log_pdf,
        _quantile=quantile,
        _isf=isf,
    )


def std_normal() -> Distribution:
    """Standard normal. log_sf rides scipy's log_ndtr, which stays
    accurate far past x = 40."""
    return Distribution(
        name="std_normal",
        params=(),
        support=(-math.inf, math.inf),
        cdf_slope_at_zero=None,
        _log_cdf=log_ndtr,
        _log_sf=lambda x: log_ndtr(-x),
        _log_pdf=lambda x: -0.5 * x * x - 0.5 * _LOG_2PI,
        _quantile=ndtri,
        _isf=lambda q: -ndtri(q),
    )


def logistic() -> Distribution:
    """Standard logistic; sf(x) = 1/(1 + e^x)."""

    def log_sf(x):
        if x > 0:
            return -(x + np.log1p(np.exp(-x)))
        return -np.log1p(np.exp(x))

    return Distribution(
        name="logistic",
        params=(),
        support=(-math.inf, math.inf),
        cdf_slope_at_zero=None,
        _log_cdf=lambda x: log_sf(-x),
        _log_sf=log_sf,
        _log_pdf=lambda x: -abs(x) - 2.0 * np.log1p(np.exp(-abs(x))),
        _quantile=lambda p: np.log(p) - np.log1p(-p),
        _isf=lambda q: np.log1p(-q) - np.log(q),
    )


def lognormal() -> Distribution:
    """Lognormal exp(N(0,1)). Included as the canonical profile that the
    max-domain machinery must reject (its tail index degenerates to 0)."""
    return Distribution(
        name="lognormal",
        params=(),
        support=(0.0, math.inf),
        cdf_slope_at_zero=0.0,
        _log_cdf=lambda x: log_ndtr(np.log(x)),
        _log_sf=lambda x: log_ndtr(-np.log(x)),
        _log_pdf=lambda x: -np.log(x) - 0.5 * np.log(x) ** 2 - 0.5 * _LOG_2PI,
        _quantile=lambda p: np.exp(ndtri(p)),
        _isf=lambda q: np.exp(-ndtri(q)),
    )


_CATALOG: dict[str, tuple[Callable, int]] = {
    "exponential": (exponential, 1),
    "uniform01": (uniform01, 0),
    "weibull": (weibull, 1),
    "gamma": (gamma, 1),
    "std_normal": (std_normal, 0),
    "logistic": (logistic, 0),
    "lognormal": (lognormal, 0),
}


def parse_dist_spec(spec: str) -> Distribution:
    """Build a catalog member from 'name' or 'name:param[,param]'."""
    spec = spec.strip()
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    if name not in _CATALOG:
        raise SpecParseError(
            f"unknown distribution {name!r}; catalog: {', '.join(sorted(_CATALOG))}"
        )
    ctor, arity = _CATALOG[name]
    if rest:
        try:
            args = tuple(float(tok) for tok in rest.split(","))
        except ValueError as exc:
            raise SpecParseError(f"bad parameter in {spec!r}: {exc}") from None
    else:
        args = ()
    if len(args) != arity:
        raise SpecParseError(
            f"{name} takes {arity} parameter(s), got {len(args)} in {spec!r}"
        )
    return ctor(*args)


def render_dist_spec(dist: Distribution) -> str:
    """Canonical specifier string; parse(render(d)) reproduces d."""
    if not dist.params:
        return dist.name
    return dist.name + ":" + ",".join(repr(p) for p in dist.params)


def _inverse_values(raw: Callable, levels, at_zero: float, at_one: float) -> np.ndarray:
    # levels 0 and 1 map to support ends; the raw inverse sees only
    # interior levels
    p = np.asarray(levels, dtype=float)
    inner = (p > 0.0) & (p < 1.0)
    if inner.all():
        return np.asarray(raw(p), dtype=float)
    out = np.where(p == 0.0, at_zero, np.where(p == 1.0, at_one, math.nan))
    out[inner] = raw(p[inner])
    return out


def quantile_values(dist: Distribution, p: np.ndarray) -> np.ndarray:
    """Vectorized quantile for levels in [0, 1]; the scalar quantile
    returns this, so both agree bitwise."""
    lo, hi = dist.support
    return _inverse_values(dist._quantile, p, lo, hi)


def isf_values(dist: Distribution, q: np.ndarray) -> np.ndarray:
    """Vectorized inverse survival for levels in [0, 1]; agrees bitwise
    with the scalar isf, like quantile_values."""
    lo, hi = dist.support
    return _inverse_values(dist._isf, q, hi, lo)
