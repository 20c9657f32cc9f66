"""Regular variation probes for maxima in the Gumbel max-domain.

The driving object is the auxiliary ratio w(x) = sf(x)/pdf(x). For every
profile handled here w varies regularly with some exponent 1 - mu,
mu > 0, i.e. w(x) = x^{1-mu} L(x) with L slowly varying. The probes
below measure, at finite x, the quantities whose limits the asymptotic
theory prescribes: the slowly varying part settling down, the
characteristic level m_n = F^{-1}(1 - 1/n), the normalizing rate
h_n = m_n n pdf(m_n) tracking mu log n, the tail-to-power ratio whose
running maximum stays below 1/mu, and Potter-style bounds on L.

Profiles with mu <= 0 (lognormal is the canonical case) are rejected:
they sit outside the regime where these scalings work.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .distributions import Distribution, render_dist_spec

__all__ = [
    "MdaViolationError",
    "GumbelMdaProfile",
    "declared_profile",
    "w",
    "log_w",
    "slowly_varying_part",
    "characteristic_level",
    "normalizing_rate",
    "least_valid_n",
    "default_tail_grid",
    "ell_probe",
    "PotterResult",
    "potter_check",
    "hn_trend",
    "w_ratio_stability",
    "feller_probe",
    "RvIndexEstimate",
    "estimate_rv_index",
    "representation_identity",
    "LemmaCheck",
    "LemmaBattery",
    "lemma_battery",
]


class MdaViolationError(ValueError):
    """The distribution does not admit a positive tail index mu."""


@dataclass(frozen=True)
class GumbelMdaProfile:
    """A distribution together with its tail index mu > 0.

    L_closed_form, when present, is the exact slowly varying factor and
    enables the representation identity check.
    """

    dist: Distribution
    mu: float
    L_closed_form: Optional[Callable] = field(default=None, repr=False)

    def __post_init__(self):
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            raise MdaViolationError(
                f"tail index must be positive and finite, got mu={self.mu} "
                f"for {self.dist.name}"
            )


def declared_profile(dist: Distribution) -> GumbelMdaProfile:
    """Profile with the tail index and closed-form L that the law states;
    a finite right endpoint, no stated index or mu = 0 raise MdaViolationError."""
    name = dist.name
    if dist.support[1] != math.inf:
        raise MdaViolationError(f"{name} has a finite right endpoint; not Gumbel max-domain")
    if dist.tail_index is None:
        raise MdaViolationError(f"no declared tail index for {name!r}")
    if dist.tail_index == 0.0:
        raise MdaViolationError(f"{name} has tail index mu = 0; probes do not apply")
    return GumbelMdaProfile(dist, dist.tail_index, dist.slowly_varying)


def log_w(dist: Distribution, x: float) -> float:
    """log of w(x) = sf(x)/pdf(x), formed in log domain."""
    return dist.log_sf(x) - dist.log_pdf(x)


def w(dist: Distribution, x: float) -> float:
    return math.exp(log_w(dist, x))


def slowly_varying_part(profile: GumbelMdaProfile, x: float) -> float:
    """L(x) = w(x) x^{mu-1}, the factor that should flatten out."""
    if x <= 0:
        raise ValueError("slowly varying part is probed at x > 0")
    return math.exp(log_w(profile.dist, x) + (profile.mu - 1.0) * math.log(x))


def characteristic_level(dist: Distribution, n: int) -> float:
    """m_n = F^{-1}(1 - 1/n), evaluated through the survival inverse so
    large n keeps full precision."""
    if n < 2:
        raise ValueError("characteristic level needs n >= 2")
    return dist.isf(1.0 / n)


def least_valid_n(dist: Distribution) -> int:
    """Smallest n >= 2 with a positive characteristic level.

    m_n > 0 requires 1/n < sf(0); for the standard normal that first
    holds at n = 3.
    """
    sf0 = dist.sf(0.0)
    if sf0 <= 0.0:
        raise ValueError(f"{dist.name} has no mass above 0")
    return max(2, math.floor(1.0 / sf0) + 1)


def normalizing_rate(dist: Distribution, n: int) -> float:
    """h_n = m_n n pdf(m_n), assembled in log form.

    Identical (up to roundoff) to m_n / w(m_n) because sf(m_n) = 1/n.
    """
    m = characteristic_level(dist, n)
    if m <= 0.0:
        raise ValueError(
            f"normalizing rate undefined at n={n} for {dist.name}: m_n <= 0 "
            f"(first usable n is {least_valid_n(dist)})"
        )
    return math.exp(math.log(m) + math.log(n) + dist.log_pdf(m))


def default_tail_grid(dist: Distribution, points: int = 64) -> np.ndarray:
    """Geometric far-tail grid from sf = 1e-12 down to log_sf = -700."""
    lo = dist.isf(1e-12)
    hi = dist.isf(math.exp(-700.0))
    if not (0.0 < lo < hi):
        raise ValueError(f"cannot build a far-tail grid for {dist.name}")
    return np.geomspace(lo, hi, points)


def ell_probe(profile: GumbelMdaProfile) -> np.ndarray:
    """Running maximum of -L(x) log sf(x) / x^mu over the far-tail grid.

    The grid is default_tail_grid; the final entry estimates the
    limsup, which the theory caps at 1/mu.
    """
    d = profile.dist
    x_grid = default_tail_grid(d)
    vals = np.empty(x_grid.size)
    for i, x in enumerate(x_grid):
        # -L(x) log sf / x^mu collapses to -w(x) log sf(x) / x
        vals[i] = -math.exp(log_w(d, x) - math.log(x)) * d.log_sf(x)
    return np.maximum.accumulate(vals)


@dataclass(frozen=True)
class PotterResult:
    ok: bool
    worst_ratio: float
    worst_pair: tuple


def potter_check(profile: GumbelMdaProfile, A: float, delta: float,
                 pairs: Sequence[tuple]) -> PotterResult:
    """Check L(y)/L(z) <= A max((z/y)^delta, (y/z)^delta) on given pairs.

    Both orientations of every pair are tested. worst_ratio is the
    largest observed (L ratio)/(bound); <= 1 everywhere means ok.
    """
    if A < 1.0 or delta <= 0.0:
        raise ValueError("Potter check needs A >= 1 and delta > 0")
    worst = -math.inf
    worst_pair = None
    for y, z in pairs:
        if y <= 0 or z <= 0:
            raise ValueError("Potter pairs must be positive")
        ly = slowly_varying_part(profile, y)
        lz = slowly_varying_part(profile, z)
        bound = A * max((z / y) ** delta, (y / z) ** delta)
        for ratio, pair in (((ly / lz) / bound, (y, z)), ((lz / ly) / bound, (z, y))):
            if ratio > worst:
                worst = ratio
                worst_pair = pair
    return PotterResult(ok=worst <= 1.0, worst_ratio=worst, worst_pair=worst_pair)


def hn_trend(profile: GumbelMdaProfile, n_list: Sequence[int]) -> np.ndarray:
    """h_n / (mu log n) along n_list; tends to 1 for every valid profile."""
    out = np.empty(len(n_list))
    for i, n in enumerate(n_list):
        out[i] = normalizing_rate(profile.dist, int(n)) / (profile.mu * math.log(n))
    return out


def w_ratio_stability(dist: Distribution, n: int) -> float:
    """w(m_n) / w(m_n (1 + 1/log n)); drifts to 1 as n grows.

    The drift scales like (1 + 1/log n)^{1-mu}, so members with mu far
    from 1 approach 1 only at the 1/log n pace.
    """
    m = characteristic_level(dist, n)
    y = m * (1.0 + 1.0 / math.log(n))
    return math.exp(log_w(dist, m) - log_w(dist, y))


def feller_probe(profile: GumbelMdaProfile) -> tuple[np.ndarray, np.ndarray]:
    """L(x)/x^mu along a far-tail grid; must decay toward 0.

    The geometric grid is extended adaptively until the value drops
    below 5e-4 (the decay is only 1/x^mu slow for small mu, so a fixed
    window would be wrong for much of the catalog).
    """
    d = profile.dist
    x = d.isf(1e-6)
    if x <= 0:
        x = d.isf(1e-9)
    pts = []
    vals = []
    for _ in range(512):
        pts.append(x)
        vals.append(math.exp(log_w(d, x) - math.log(x)))
        if vals[-1] < 5e-4 and len(pts) >= 16:
            break
        x *= 1.35
        if x > 1e60:
            break
    return np.array(pts), np.array(vals)


@dataclass(frozen=True)
class RvIndexEstimate:
    mu_hat: float
    mda_violation: bool
    slopes: np.ndarray


def estimate_rv_index(dist: Distribution, x_grid: Sequence[float]) -> RvIndexEstimate:
    """Estimate mu from the scaling of w: slope of log w under x -> 2 x.

    mu_hat = 1 - median(log(w(2 x)/w(x)) / log 2). Estimates at or below
    0.05 are flagged as max-domain violations; on finite grids a true
    mu = 0 tail (lognormal) shows up as mu_hat of order 1/log x, so the
    grid must reach deep before the flag trips.
    """
    grid = np.asarray(x_grid, dtype=float)
    if grid.size < 4:
        raise ValueError("need at least 4 grid points to estimate the index")
    if np.any(grid <= 0):
        raise ValueError("index estimation grid must be positive")
    log2 = math.log(2.0)
    slopes = np.array([(log_w(dist, 2.0 * x) - log_w(dist, x)) / log2 for x in grid])
    mu_hat = 1.0 - float(np.median(slopes))
    return RvIndexEstimate(mu_hat=mu_hat, mda_violation=mu_hat <= 0.05, slopes=slopes)


def representation_identity(profile: GumbelMdaProfile) -> float:
    """Max relative gap between w(x) and x^{1-mu} L(x) on default_tail_grid.

    Only meaningful when the profile carries a closed-form L.
    """
    if profile.L_closed_form is None:
        raise ValueError(f"{profile.dist.name} profile has no closed-form L")
    d = profile.dist
    worst = 0.0
    for x in default_tail_grid(d):
        wx = w(d, x)
        ref = x ** (1.0 - profile.mu) * profile.L_closed_form(x)
        worst = max(worst, abs(wx - ref) / abs(ref))
    return worst


# ---------------------------------------------------------------------------
# aggregated lemma battery for one tail


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class LemmaBattery:
    """Results of running every tail lemma that applies to one member."""

    dist: str
    mu: Optional[float]
    mda_ok: bool
    checks: tuple

    @property
    def ok(self) -> bool:
        return self.mda_ok and all(c.ok for c in self.checks)


def _trend_down(values) -> bool:
    return all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def lemma_battery(dist: Distribution) -> LemmaBattery:
    """Run the tail lemmas for one distribution and collect verdicts.

    Laws that declared_profile refuses come back with mda_ok=False; when
    the upper endpoint is infinite the battery still estimates the index
    so the report can say why (a vanishing mu_hat is the slowly-varying
    signature).
    """
    label = render_dist_spec(dist)
    try:
        profile = declared_profile(dist)
    except MdaViolationError as exc:
        detail = str(exc)
        if dist.support[1] == math.inf:
            est = estimate_rv_index(dist, default_tail_grid(dist))
            detail += f"; estimated index mu_hat = {est.mu_hat:.4f}"
            check = LemmaCheck("index_estimate", not est.mda_violation, detail)
        else:
            check = LemmaCheck("index_estimate", False, detail)
        return LemmaBattery(dist=label, mu=None, mda_ok=False, checks=(check,))

    mu = profile.mu
    checks = []

    ns = [100, 10**4, 10**8, 10**12]
    devs = [abs(r - 1.0) for r in hn_trend(profile, ns)]
    checks.append(LemmaCheck(
        "hn_tracks_mu_log_n", _trend_down(devs),
        f"|h_n / (mu log n) - 1| over {ns}: {['%.3e' % d for d in devs]}"))

    ell = ell_probe(profile)
    bound = 1.0 / mu + 0.05
    checks.append(LemmaCheck(
        "ell_at_most_inverse_mu", float(ell[-1]) <= bound,
        f"running sup {ell[-1]:.5f} against bound {bound:.5f}"))

    grid, feller = feller_probe(profile)
    checks.append(LemmaCheck(
        "feller_ratio_decays", bool(feller[-1] < 1e-3 and feller[-1] < feller[0]),
        f"L(x)/x^mu falls from {feller[0]:.3e} to {feller[-1]:.3e} "
        f"over x in [{grid[0]:.3g}, {grid[-1]:.3g}]"))

    rdevs = [abs(w_ratio_stability(dist, n) - 1.0) for n in (100, 10**4, 10**6)]
    checks.append(LemmaCheck(
        "w_ratio_stabilizes", _trend_down(rdevs),
        f"|w(m_n)/w(m_n(1+1/log n)) - 1| over decades: {['%.3e' % d for d in rdevs]}"))

    tail = default_tail_grid(dist, 16)
    pairs = list(zip(tail, tail)) + list(zip(tail[:-1], tail[1:]))
    potter = potter_check(profile, A=1.5, delta=0.5, pairs=pairs)
    wy, wz = potter.worst_pair
    checks.append(LemmaCheck(
        "potter_bounds_hold", bool(potter.ok),
        f"worst ratio {potter.worst_ratio:.5f} at pair ({wy:.6g}, {wz:.6g})"))

    if profile.L_closed_form is not None:
        gap = representation_identity(profile)
        checks.append(LemmaCheck(
            "representation_identity", bool(gap <= 1e-9),
            f"max relative gap {gap:.3e} between w and x^(1-mu) L"))

    return LemmaBattery(dist=label, mu=mu, mda_ok=True, checks=tuple(checks))
