"""Reference tails written apart from mdlab (this module never imports it).

Closed forms run in mpmath at 50 digits; the coupon collection time uses
the integer inclusion-exclusion sum P(T_n <= m) = sum_k (-1)^k C(n,k)
(n-k)^m / n^m, exact in big integers. A family is named by the same spec
string the workloads pass to mdlab, and every probe threshold (the md
scaling a_n, the weak normalization, the coupon integer draw counts) is
recomputed here from the definitions in the README, not read back from
the program's rows.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

mp.mp.dps = 50


def _log_complement(log_p):
    """log(1 - e^log_p) for an mpf log_p <= 0."""
    if log_p == 0:
        return mp.mpf("-inf")
    return mp.log(-mp.expm1(log_p))


class ClassicalNormal:
    """Mean of n N(0, sigma^2) draws: sqrt(n) C_n / sigma is standard normal."""

    central = True

    def __init__(self, sigma):
        self.sigma = mp.mpf(sigma)

    def speed(self, n):
        return mp.mpf(n)

    def _log_phi(self, z):
        return mp.log(mp.erfc(-z / mp.sqrt(2)) / 2)

    def log_upper(self, n, x):
        return self._log_phi(-mp.mpf(x) * mp.sqrt(n) / self.sigma)

    def log_lower(self, n, x):
        return self._log_phi(mp.mpf(x) * mp.sqrt(n) / self.sigma)


class MinimaExponential:
    """Minimum of n Exp(rate) draws, itself Exp(n rate)."""

    central = False

    def __init__(self, rate):
        self.rate = mp.mpf(rate)

    def speed(self, n):
        return mp.mpf(n)

    def log_upper(self, n, x):
        x = mp.mpf(x)
        return mp.mpf(0) if x <= 0 else -n * self.rate * x

    def log_lower(self, n, x):
        x = mp.mpf(x)
        return mp.mpf("-inf") if x <= 0 else _log_complement(-n * self.rate * x)


class GumbelMaxima:
    """M_n / m_n - 1 with m_n solving sf(m_n) = 1/n; speed m_n n pdf(m_n)."""

    central = False

    def __init__(self, log_sf, log_pdf, level):
        self.log_sf = log_sf
        self.log_pdf = log_pdf
        self.level = level
        self._m = {}

    def m(self, n):
        if n not in self._m:
            self._m[n] = self.level(n)
        return self._m[n]

    def speed(self, n):
        m = self.m(n)
        return mp.exp(mp.log(m) + mp.log(n) + self.log_pdf(m))

    def _log_cdf_n(self, n, x):
        y = self.m(n) * (1 + mp.mpf(x))
        if y <= 0:
            return mp.mpf("-inf")
        return n * mp.log1p(-mp.exp(self.log_sf(y)))

    def log_upper(self, n, x):
        return _log_complement(self._log_cdf_n(n, x))

    def log_lower(self, n, x):
        return self._log_cdf_n(n, x)


def weibull_maxima(shape):
    """Weibull sf e^{-y^a}: m_n = (log n)^(1/a)."""
    a = mp.mpf(shape)
    return GumbelMaxima(
        log_sf=lambda y: -y ** a,
        log_pdf=lambda y: mp.log(a) + (a - 1) * mp.log(y) - y ** a,
        level=lambda n: mp.log(n) ** (1 / a),
    )


def gamma2_maxima():
    """Gamma(2) sf (1+y)e^{-y}: m_n is the root of log(1+m) - m + log n."""

    def level(n):
        ln = mp.log(n)
        return mp.findroot(lambda m: mp.log1p(m) - m + ln, ln + mp.log(ln) + 1)

    return GumbelMaxima(
        log_sf=lambda y: mp.log1p(y) - y,
        log_pdf=lambda y: mp.log(y) - y,
        level=level,
    )


class Replacement:
    """Replace-at-t lifetime: P(Z <= z) = beta (F(z)/F(t))^n below t and
    1 - (1 - beta)(sf_G(z)/sf_G(t))^n above it; C_n = Z - t."""

    central = False

    def __init__(self, log_cdf_f, log_sf_g, t, beta):
        self.log_cdf_f = log_cdf_f
        self.log_sf_g = log_sf_g
        self.t = mp.mpf(t)
        self.beta = mp.mpf(beta)

    def speed(self, n):
        return mp.mpf(n)

    def _log_below(self, n, x):
        # log P(C_n <= x) for -t < x <= 0
        z = mp.mpf(x) + self.t
        return mp.log(self.beta) + n * (self.log_cdf_f(z) - self.log_cdf_f(self.t))

    def _log_above(self, n, x):
        # log P(C_n >= x) for x > 0
        z = mp.mpf(x) + self.t
        return mp.log1p(-self.beta) + n * (self.log_sf_g(z) - self.log_sf_g(self.t))

    def log_upper(self, n, x):
        if x <= -self.t:
            return mp.mpf(0)
        if x <= 0:
            return _log_complement(self._log_below(n, x))
        return self._log_above(n, x)

    def log_lower(self, n, x):
        if x <= -self.t:
            return mp.mpf("-inf")
        if x <= 0:
            return self._log_below(n, x)
        return _log_complement(self._log_above(n, x))


def _exp_log_cdf(rate):
    r = mp.mpf(rate)
    return lambda u: mp.log(-mp.expm1(-r * u))


def _exp_log_sf(rate):
    r = mp.mpf(rate)
    return lambda u: -r * u


def _gamma2_log_cdf(u):
    return mp.log(-mp.expm1(mp.log1p(u) - u))


# spec string (as the workloads write it) -> reference family
CLOSED_FORMS = {
    "classical:sigma=1.0": ClassicalNormal(1),
    "minima:exponential:1.0": MinimaExponential(1),
    "gumbel_maxima:weibull:2.0": weibull_maxima(2),
    "gumbel_maxima:gamma:2.0": gamma2_maxima(),
    "replacement:exponential:1.0,exponential:2.0,t=1.0,beta=0.4":
        Replacement(_exp_log_cdf(1), _exp_log_sf(2), 1, 0.4),
    "replacement:gamma:2.0,exponential:2.0,t=1.0,beta=0.4":
        Replacement(_gamma2_log_cdf, _exp_log_sf(2), 1, 0.4),
}


# ---------------------------------------------------------------------------
# coupon collection time


def coupon_cdf(n: int, m: int) -> Fraction:
    """P(T_n <= m) as the exact surjection count over n^m."""
    if m < n:
        return Fraction(0)
    total = 0
    for k in range(n + 1):
        term = math.comb(n, k) * (n - k) ** m
        total += term if k % 2 == 0 else -term
    return Fraction(total, n ** m)


def coupon_draws(n: int, x: float) -> tuple[int, int]:
    """(m_lo, m_up): C_n <= x iff T <= m_lo, C_n >= x iff T >= m_up.

    The README's statistic is T / (n log n) - 1; the 1e-9 snap keeps a
    threshold that is an integer up to float noise on that integer.
    """
    y = (1.0 + x) * n * math.log(n)
    return math.floor(y + 1e-9), math.ceil(y - 1e-9)


def coupon_prob(n: int, x: float, side: str) -> float:
    """P(C_n >= x) (side "upper") or P(C_n <= x) (side "lower")."""
    m_lo, m_up = coupon_draws(n, x)
    if side == "upper":
        return float(1 - coupon_cdf(n, m_up - 1))
    return float(coupon_cdf(n, m_lo))


def coupon_cost(n: int, x: float) -> int:
    """n times the draw count, a proxy for the big-integer work of one row."""
    return n * max(1, coupon_draws(n, x)[1])


# ---------------------------------------------------------------------------
# probe thresholds


def scaling_a(scaling: str, v) -> mp.mpf:
    """a_n for a scaling spec at speed v: pow:g is v^-g, logpow:g is
    (log v)^-g, const:g is g."""
    kind, _, g = scaling.partition(":")
    g = mp.mpf(g)
    if kind == "pow":
        return mp.mpf(v) ** (-g)
    if kind == "logpow":
        return mp.log(v) ** (-g)
    if kind == "const":
        return g
    raise ValueError(f"no reference for scaling {scaling!r}")


def threshold(fam, regime: str, scaling: str, n: int, x: float) -> float:
    """The C_n level a probe row at (n, x) asks about."""
    v = fam.speed(n)
    if regime == "ld":
        return x
    if regime == "md":
        av = scaling_a(scaling, v) * v
        return float(x / (mp.sqrt(av) if fam.central else av))
    if regime == "weak":
        return float(x / (mp.sqrt(v) if fam.central else v))
    raise ValueError(f"unknown regime {regime!r}")


def side_of(regime: str, x: float) -> str:
    if regime == "weak":
        return "lower"
    return "upper" if x > 0 else "lower"


def closed_form_log_p(family: str, regime: str, scaling: str, n: int, x: float) -> float:
    """Reference log tail of one probe row of a closed-form family."""
    fam = CLOSED_FORMS[family]
    thr = threshold(fam, regime, scaling, n, x)
    if side_of(regime, x) == "upper":
        lp = fam.log_upper(n, thr)
    else:
        lp = fam.log_lower(n, thr)
    return float(lp)


class Coupon:
    """Collection time over n types; speed log n."""

    central = False

    def speed(self, n):
        return mp.log(n)


COUPON = Coupon()


def coupon_row_prob(regime: str, scaling: str, n: int, x: float) -> float:
    """Reference probability (not log) of one coupon probe row."""
    return coupon_prob(n, threshold(COUPON, regime, scaling, n, x), side_of(regime, x))


def coupon_row_cost(regime: str, scaling: str, n: int, x: float) -> int:
    return coupon_cost(n, threshold(COUPON, regime, scaling, n, x))
