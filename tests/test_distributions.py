"""Catalog distributions: closed-form anchors, boundaries, spec strings.

Reference digits come from scripts/derive_constants.py (mpmath at 60
decimal digits), so the tolerances below are float roundoff, not
modeling slack.
"""

import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mdlab import (
    Distribution,
    SpecParseError,
    exponential,
    gamma,
    isf_values,
    logistic,
    lognormal,
    parse_dist_spec,
    quantile_values,
    render_dist_spec,
    std_normal,
    uniform01,
    weibull,
)

CATALOG = [
    exponential(1.0), exponential(0.5), uniform01(), weibull(0.7),
    weibull(2.0), gamma(3.0), std_normal(), logistic(), lognormal(),
]


def test_exponential_log_sf_is_linear():
    d = exponential(1.0)
    assert d.log_sf(50.0) == -50.0
    assert d.log_sf(0.0) == 0.0
    assert exponential(2.0).log_sf(3.0) == -6.0


def test_normal_tail_anchors():
    d = std_normal()
    assert d.log_sf(0.0) == pytest.approx(math.log(0.5), rel=1e-15)
    # high-precision erfc reference; note the value sits below -35
    assert d.log_sf(8.0) == pytest.approx(-35.01343715991455, rel=1e-13)
    assert d.log_cdf(-8.0) == pytest.approx(-35.01343715991455, rel=1e-13)


def test_support_boundaries():
    u = uniform01()
    assert u.cdf(-0.5) == 0.0 and u.cdf(1.5) == 1.0
    assert u.log_cdf(-0.5) == -math.inf and u.log_cdf(2.0) == 0.0
    assert u.sf(1.5) == 0.0 and u.log_sf(-1.0) == 0.0
    e = exponential(1.0)
    assert e.pdf(-1.0) == 0.0
    assert e.log_pdf(-1.0) == -math.inf


# one member per constructor
MEMBERS = [exponential(1.0), uniform01(), weibull(0.5), gamma(2.0), std_normal(),
           logistic(), lognormal()]
# both support ends of every member, +-inf, points below 1e-300 and the bulk
PLAIN_GRID = [-math.inf, -40.0, -1.0, -1e-310, 0.0, 5e-324, 1e-310, 1e-300, 1e-20,
              0.3, 1.0, 1.5, 40.0, 700.0, math.inf]


def test_distribution_states_each_law_once():
    names = {f.name for f in dataclasses.fields(Distribution)}
    assert {"_log_cdf", "_log_sf", "_log_pdf"} <= names
    assert not names & {"_cdf", "_sf", "_pdf"}


@pytest.mark.parametrize("dist", MEMBERS, ids=render_dist_spec)
def test_plain_cdf_and_sf_are_the_exponentials_of_the_log_forms(dist):
    for x in PLAIN_GRID:
        assert dist.cdf(x).hex() == math.exp(dist.log_cdf(x)).hex(), x
        assert dist.sf(x).hex() == math.exp(dist.log_sf(x)).hex(), x
    lo = dist.support[0]
    if math.isfinite(lo):  # the lower end is answered by the convention, +0.0
        assert dist.log_sf(lo).hex() == (0.0).hex()
        assert dist.sf(lo) == 1.0


@pytest.mark.parametrize("dist", MEMBERS, ids=render_dist_spec)
def test_a_nan_level_gives_nan_in_every_method(dist):
    for method in (dist.cdf, dist.sf, dist.pdf, dist.log_cdf, dist.log_sf, dist.log_pdf):
        assert math.isnan(method(math.nan)), method.__name__


def _mp_laws(spec: str):
    """(cdf, sf) of a catalog member at 60 digits."""
    name, _, param = spec.partition(":")
    a = mpmath.mpf(param) if param else None
    if name == "exponential":
        return lambda x: -mpmath.expm1(-a * x), lambda x: mpmath.exp(-a * x)
    if name == "weibull":
        return lambda x: -mpmath.expm1(-x ** a), lambda x: mpmath.exp(-x ** a)
    if name == "gamma":
        return (lambda x: mpmath.gammainc(a, 0, x, regularized=True),
                lambda x: mpmath.gammainc(a, x, mpmath.inf, regularized=True))
    if name == "std_normal":
        return mpmath.ncdf, lambda x: mpmath.ncdf(-x)
    return lambda x: mpmath.ncdf(mpmath.log(x)), lambda x: mpmath.ncdf(-mpmath.log(x))


@pytest.mark.parametrize("spec", ["exponential:1", "weibull:0.5", "gamma:2", "gamma:0.5",
                                  "std_normal", "lognormal"])
def test_plain_cdf_and_sf_match_mpmath(spec):
    # exp(log p) carries the log form's error times about 1 + |log p|; a
    # value below the normal range can only round to its nearest subnormal
    dist = parse_dist_spec(spec)
    laws = _mp_laws(spec)
    with mpmath.workdps(60):
        for x in np.geomspace(1e-300, 600.0, 40):
            for plain, law in zip((dist.cdf, dist.sf), laws):
                got, want = plain(float(x)), law(mpmath.mpf(float(x)))
                if want < _SMALLEST_NORMAL:
                    assert abs(got - float(want)) <= 5e-324, (plain.__name__, x)
                else:
                    assert abs(got - want) <= 2e-13 * want, (plain.__name__, x, got)


@pytest.mark.parametrize("dist", CATALOG, ids=render_dist_spec)
def test_quantile_cdf_round_trip(dist):
    for p in (1e-9, 1e-4, 0.1, 0.5, 0.9, 1 - 1e-6):
        x = dist.quantile(p)
        assert dist.cdf(x) == pytest.approx(p, rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("dist", CATALOG, ids=render_dist_spec)
def test_isf_deep_tail_round_trip(dist):
    # near a finite endpoint 1-q stops being representable around 2^-53,
    # so bounded supports only get the moderate part of the grid
    deep = (1e-3, 1e-8) if math.isfinite(dist.support[1]) else (1e-3, 1e-8, 1e-30, 1e-200)
    for q in deep:
        x = dist.isf(q)
        assert math.isfinite(x)
        assert dist.log_sf(x) == pytest.approx(math.log(q), rel=1e-8)


@pytest.mark.parametrize("dist", CATALOG, ids=render_dist_spec)
def test_pdf_matches_centered_difference_of_cdf(dist):
    # the replacement model takes F'(t-) and G'(t+) to be pdf(t), so the
    # density must be the derivative of the cdf it ships with; h stays
    # inside the support, and (t - lo)/2 is t/2 on the model's [0, ...)
    lo, hi = dist.support
    for p in (0.2, 0.5, 0.8):
        t = dist.quantile(p)
        h = min(1e-6 * max(1.0, abs(t)), (t - lo) / 2.0, (hi - t) / 2.0)
        fd = (dist.cdf(t + h) - dist.cdf(t - h)) / (2.0 * h)
        assert fd == pytest.approx(dist.pdf(t), rel=1e-6), (p, t)


@given(p=st.floats(min_value=1e-6, max_value=1 - 1e-6))
@settings(max_examples=60, deadline=None)
def test_weibull_quantile_matches_closed_form(p):
    d = weibull(2.0)
    assert d.quantile(p) == pytest.approx(math.sqrt(-math.log1p(-p)), rel=1e-10)


def test_weibull_overflowing_power_rounds_without_a_warning():
    # 5^1000 overflows a double: the rounded log tails, and the inverses of
    # a tiny shape, follow from x^shape = inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = weibull(1e3)
        assert (d.log_sf(5.0), d.log_cdf(5.0), d.log_pdf(5.0)) == (-math.inf, 0.0, -math.inf)
        assert weibull(1e-3).isf(1e-10) == math.inf
        assert weibull(1e-3).quantile(1.0 - 1e-10) == math.inf


@given(x=st.floats(min_value=1e-3, max_value=30.0))
@settings(max_examples=60, deadline=None)
def test_log_cdf_log_sf_are_consistent(x):
    d = gamma(3.0)
    # exp(log_cdf) + exp(log_sf) = 1 wherever both are representable
    assert math.exp(d.log_cdf(x)) + math.exp(d.log_sf(x)) == pytest.approx(1.0, abs=1e-12)


def test_gamma_deep_tail_against_series():
    # Gamma(3): sf(x) = e^-x (1 + x + x^2/2), exact for integer shape
    d = gamma(3.0)
    for x in (1.0, 10.0, 80.0, 500.0):
        ref = -x + math.log(1 + x + x * x / 2)
        assert d.log_sf(x) == pytest.approx(ref, rel=1e-12)


# every member, plus gamma shapes on both sides of 1 (the only members
# without a closed-form inverse)
INVERTIBLE = CATALOG + [gamma(0.5), gamma(2.0)]
_SMALLEST_NORMAL = 2.2250738585072014e-308


def _usable(dist, x):
    return abs(x) >= _SMALLEST_NORMAL and x not in dist.support


@given(dist=st.sampled_from(INVERTIBLE),
       log_p=st.floats(min_value=-690.0, max_value=-1e-6))
@settings(max_examples=300, deadline=None)
def test_inverses_round_trip_in_log_domain(dist, log_p):
    p = math.exp(log_p)
    tol = 1e-12 * max(1.0, abs(math.log(p)))
    x = dist.quantile(p)
    assume(_usable(dist, x))
    assert abs(dist.log_cdf(x) - math.log(p)) <= tol
    # near uniform01's finite upper end 1 - q is not representable; the
    # deep-tail round trip above covers that member's isf
    if dist.name == "uniform01":
        return
    x = dist.isf(p)
    assume(_usable(dist, x))
    assert abs(dist.log_sf(x) - math.log(p)) <= tol


def test_gamma_quantile_is_accurate_far_below_eps():
    g = gamma(2.0)
    assert g.cdf(g.quantile(1e-20)) == pytest.approx(1e-20, rel=1e-12)
    assert g.quantile(1e-40) < g.quantile(1e-20)


def test_gamma_log_cdf_survives_underflow():
    # gammainc(2, 1e-160) underflows; the lower series carries on, and
    # there P(2, x) = x^2 / 2 (1 + O(x))
    v = gamma(2.0).log_cdf(1e-160)
    assert math.isfinite(v)
    assert v == pytest.approx(2.0 * math.log(1e-160) - math.log(2.0), rel=1e-15)
    assert gamma(2.0).log_cdf(0.0) == -math.inf


def test_vectorized_helpers_match_scalars():
    d = std_normal()
    ps = [1e-6, 0.2, 0.5, 0.9]
    for v, p in zip(quantile_values(d, ps), ps):
        assert v == pytest.approx(d.quantile(p), rel=1e-12)
    qs = [1e-9, 1e-3, 0.4]
    for v, q in zip(isf_values(d, qs), qs):
        assert v == pytest.approx(d.isf(q), rel=1e-12)
    # gamma runs one Newton routine for scalars and arrays alike
    g = gamma(2.5)
    levels = np.exp(-np.geomspace(1e-6, 690.0, 97))
    assert np.array_equal(quantile_values(g, levels),
                          np.array([g.quantile(v) for v in levels]))
    assert np.array_equal(isf_values(g, levels),
                          np.array([g.isf(v) for v in levels]))


@pytest.mark.parametrize("dist", [weibull(2.0), gamma(2.0)], ids=["weibull", "gamma"])
def test_vectorized_inverses_map_levels_zero_and_one_to_the_support(dist):
    # the suite turns a divide-by-zero warning from log(0) into an error
    levels = [0.0, 0.5, 1.0]
    assert quantile_values(dist, levels).tolist() == [dist.quantile(p) for p in levels]
    assert isf_values(dist, levels).tolist() == [dist.isf(q) for q in levels]
    assert quantile_values(dist, levels).tolist()[::2] == [0.0, math.inf]
    assert isf_values(dist, levels).tolist()[::2] == [math.inf, 0.0]


@pytest.mark.parametrize("method,level,match", [
    ("quantile", 1.5, r"quantile needs p in \[0, 1\], got 1.5"),
    ("isf", -0.1, r"isf needs q in \[0, 1\], got -0.1"),
])
def test_inverses_reject_levels_outside_0_1(method, level, match):
    with pytest.raises(ValueError, match=match):
        getattr(exponential(1.0), method)(level)


@pytest.mark.parametrize("spec", [
    "exponential:1", "exponential:0.5", "uniform01", "weibull:2",
    "gamma:3", "std_normal", "logistic", "lognormal",
])
def test_spec_round_trip(spec):
    once = render_dist_spec(parse_dist_spec(spec))
    assert render_dist_spec(parse_dist_spec(once)) == once


@pytest.mark.parametrize("bad", [
    "nosuch", "weibull", "weibull:2,3", "exponential:abc",
    "exponential:-1", "weibull:0", "gamma:-2",
])
def test_bad_specs_raise_with_token(bad):
    with pytest.raises(SpecParseError):
        parse_dist_spec(bad)


def test_parse_error_names_the_token():
    with pytest.raises(SpecParseError, match="nosuch"):
        parse_dist_spec("nosuch:1")


def test_catalog_pdf_integrates_near_one():
    # crude trapezoid over the bulk; catches sign or scale slips
    for dist in (exponential(1.0), weibull(2.0), std_normal(), logistic()):
        lo = dist.quantile(1e-9)
        hi = dist.quantile(1 - 1e-9)
        k = 20001
        h = (hi - lo) / (k - 1)
        total = sum(dist.pdf(lo + i * h) for i in range(k))
        total -= (dist.pdf(lo) + dist.pdf(hi)) / 2.0
        assert total * h == pytest.approx(1.0, abs=5e-4)
