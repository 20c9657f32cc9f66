"""The five scaled families: exact tails, rates, count_hits, spec strings.

Fractions and long decimals are frozen outputs of
scripts/derive_constants.py; nothing here trusts the package to check
itself.
"""

import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from mdlab import (
    SpecParseError,
    coupon_threshold_pair,
    exponential,
    lognormal,
    logistic,
    make_coupon,
    make_gumbel_maxima,
    make_minima,
    make_replacement,
    parse_family_spec,
    std_normal,
    uniform01,
    weibull,
)
from mdlab import estimators, families
from mdlab.diagnostics import default_weak_grid, ldp_probe, weak_probe
from mdlab.distributions import gamma, isf_values, quantile_values
from mdlab.estimators import UniformPanel, panel_keys
from mdlab.rvtoolkit import characteristic_level, normalizing_rate
from mdlab.families import _coupon_log_cdf, _coupon_log_sf, _coupon_series, _coupon_tilt
from reference_oracles import (
    coupon_cdf_inclusion_exclusion,
    coupon_tail_bounds,
    rate_grid_violations,
    surjection_count,
)
from stream_words import MASK, lattice_words, panel_uniforms, word_panel

CANONICAL_SPECS = [
    "classical:sigma=1",
    "minima:exponential:1",
    "gumbel_maxima:weibull:2",
    "coupon",
    "replacement:exponential:1,exponential:2,t=1,beta=0.4",
]


# --- classical Gaussian sums -------------------------------------------------

def test_classical_exact_tail_anchor(fam_classical):
    # P(mean of 400 >= 0.25) = P(Z >= 5), mpmath reference
    assert fam_classical.exact_log_upper_tail(400, 0.25) == pytest.approx(
        -15.064998393988726, rel=1e-12)


def test_classical_symmetry(fam_classical):
    for n, x in [(10, 0.3), (100, 0.15), (10**4, 0.02)]:
        up = fam_classical.exact_log_upper_tail(n, x)
        lo = fam_classical.exact_log_lower_tail(n, -x)
        assert up == pytest.approx(lo, rel=1e-14)


def test_classical_rate_is_quadratic(fam_classical):
    for x in (-2.0, -0.5, 0.7, 1.5):
        assert fam_classical.rate_ld(x) == pytest.approx(x * x / 2.0, rel=1e-14)
        assert fam_classical.rate_md(x) == pytest.approx(x * x / 2.0, rel=1e-14)
    assert fam_classical.central


@pytest.mark.parametrize("sigma", ["1e-200", "1e200"])
def test_classical_rejects_sigma_whose_variance_leaves_the_doubles(sigma):
    # 2 sigma^2 underflows to 0 (a rate that divides by zero) or
    # overflows to inf (a rate that is 0 everywhere)
    with pytest.raises(ValueError, match="2 sigma"):
        families.make_classical_sums(float(sigma))
    with pytest.raises(SpecParseError, match="2 sigma"):
        parse_family_spec(f"classical:sigma={sigma}")


def test_classical_rejects_a_sigma_that_is_not_a_positive_real():
    with pytest.raises(SpecParseError, match="sigma must be a positive real"):
        parse_family_spec("classical:sigma=-1")
    with pytest.raises(ValueError, match="sigma must be a positive real"):
        families.make_classical_sums(math.nan)


def _flips_between(fam, n, lo, hi, side, panel):
    # with one trial, the count flips between lo and hi exactly when the
    # single draw of C_n lies between them
    below = fam.count_hits(n, lo, side, panel)
    above = fam.count_hits(n, hi, side, panel)
    return (below, above) == ((1, 0) if side == "upper" else (0, 1))


def test_classical_sampler_is_quantile_transform(fam_classical):
    from scipy.special import ndtri

    panel = UniformPanel(seed=5, start=0, stop=1)
    c = float(ndtri(panel_uniforms(panel, 0)[0])) / 5.0
    lo, hi = sorted((c * (1.0 - 1e-12), c * (1.0 + 1e-12)))
    assert _flips_between(fam_classical, 25, lo, hi, "upper", panel)


# --- minima ------------------------------------------------------------------

def test_minima_exact_tail_is_n_log_sf(fam_minima_exp):
    for n in (1, 7, 100, 10**5):
        for x in (0.01, 0.4, 2.0):
            assert fam_minima_exp.exact_log_upper_tail(n, x) == -n * x
    assert fam_minima_exp.exact_log_upper_tail(100, 0.4) == -40.0


def test_minima_below_support(fam_minima_exp):
    assert fam_minima_exp.exact_log_upper_tail(5, -0.1) == 0.0
    assert fam_minima_exp.exact_log_lower_tail(5, -0.1) == -math.inf


def test_minima_uniform_tail(fam_minima_uniform):
    for n, x in [(10, 0.3), (100, 0.9)]:
        assert fam_minima_uniform.exact_log_upper_tail(n, x) == pytest.approx(
            n * math.log1p(-x), rel=1e-14)
    # the minimum cannot exceed the right endpoint
    assert fam_minima_uniform.exact_log_upper_tail(10, 1.5) == -math.inf


def test_minima_rates(fam_minima_exp):
    assert fam_minima_exp.rate_md(0.7) == pytest.approx(0.7, rel=1e-14)
    assert fam_minima_exp.rate_ld(0.7) == pytest.approx(0.7, rel=1e-14)
    assert fam_minima_exp.rate_ld(-0.2) == math.inf
    assert fam_minima_exp.limit_cdf(0.5) == pytest.approx(-math.expm1(-0.5), rel=1e-14)
    assert not fam_minima_exp.central


def test_minima_rejects_unsuitable_sources():
    with pytest.raises(ValueError):
        make_minima(std_normal())  # support extends below zero
    with pytest.raises(ValueError):
        make_minima(lognormal())  # zero density at the left endpoint
    with pytest.raises(ValueError):
        make_minima(logistic())


@given(n=st.integers(min_value=1, max_value=1000),
       x=st.floats(min_value=1e-6, max_value=5.0))
@settings(max_examples=80, deadline=None)
def test_minima_exp_tail_property(n, x):
    fam = make_minima(exponential(1.0))
    assert fam.exact_log_upper_tail(n, x) == pytest.approx(-n * x, rel=1e-12)


# --- gumbel maxima -----------------------------------------------------------

def test_gumbel_deep_tail_anchor(fam_gumbel_weibull2):
    assert fam_gumbel_weibull2.exact_log_upper_tail(10**6, 3.0) == pytest.approx(
        -207.23265836946411, rel=1e-12)


def test_gumbel_lower_tail_anchor(fam_gumbel_weibull2):
    # P(M_n <= m_n) = (1 - 1/n)^n at x = 0
    assert fam_gumbel_weibull2.exact_log_lower_tail(100, 0.0) == pytest.approx(
        100.0 * math.log(0.99), rel=1e-12)


def test_gumbel_tail_consistency(fam_gumbel_weibull2):
    # complement identity at moderate depth, where both sides are exact
    for n, x in [(50, 0.2), (1000, 0.1), (100, -0.2)]:
        up = fam_gumbel_weibull2.exact_log_upper_tail(n, x)
        lo = fam_gumbel_weibull2.exact_log_lower_tail(n, x)
        assert math.exp(up) + math.exp(lo) == pytest.approx(1.0, abs=1e-12)


def test_gumbel_rate_ld_is_shifted_power(fam_gumbel_weibull2):
    assert fam_gumbel_weibull2.rate_ld(0.5) == pytest.approx(0.625, rel=1e-12)
    assert fam_gumbel_weibull2.rate_ld(1.0) == pytest.approx(1.5, rel=1e-12)
    assert fam_gumbel_weibull2.rate_ld(0.0) == 0.0
    assert fam_gumbel_weibull2.rate_ld(-1.5) == math.inf
    assert fam_gumbel_weibull2.rate_md(0.3) == 0.3
    assert fam_gumbel_weibull2.rate_md(-0.1) == math.inf


def test_gumbel_speed_tracks_two_log_n(fam_gumbel_weibull2):
    for n in (100, 10**5):
        assert fam_gumbel_weibull2.speed(n) == pytest.approx(2.0 * math.log(n), rel=1e-9)


def test_gumbel_limit_is_gumbel(fam_gumbel_weibull2):
    for x in (-1.0, 0.0, 2.0):
        assert fam_gumbel_weibull2.limit_cdf(x) == pytest.approx(
            math.exp(-math.exp(-x)), rel=1e-14)


def test_gumbel_n_bounds():
    fam = make_gumbel_maxima(std_normal())
    assert fam.least_n == 3
    with pytest.raises(ValueError):
        fam.exact_log_upper_tail(2, 0.5)
    with pytest.raises(ValueError):
        fam.exact_log_upper_tail(10**16, 0.5)


_GUMBEL_NS = [10**3, 10**4, 10**5, 10**6]


def _gumbel_bits(fam):
    return [(fam.speed(n).hex(), fam.exact_log_upper_tail(n, x).hex(),
             fam.exact_log_lower_tail(n, x).hex())
            for n in _GUMBEL_NS for x in (-0.2, 0.0, 0.5, 1.0)]


def test_gumbel_maxima_is_stateless():
    # a fresh instance and one a weak probe has warmed (at an n the
    # fresh one reaches last) give the same bits
    fresh, warmed = make_gumbel_maxima(weibull(2.0)), make_gumbel_maxima(weibull(2.0))
    weak_probe(warmed, (10**5,))
    assert _gumbel_bits(warmed) == _gumbel_bits(fresh)


@pytest.mark.parametrize("dist", [weibull(2.0), gamma(2.0)], ids=["weibull:2", "gamma:2"])
def test_gumbel_maxima_takes_m_n_and_h_n_from_the_toolkit(dist):
    fam = make_gumbel_maxima(dist)
    for n in _GUMBEL_NS:
        assert fam.speed(n).hex() == normalizing_rate(dist, n).hex()
        m = characteristic_level(dist, n)
        assert fam.exact_log_lower_tail(n, 0.3) == n * dist.log_cdf(m * 1.3)


def test_gumbel_rejects_bounded_support():
    with pytest.raises(ValueError):
        make_gumbel_maxima(uniform01())


def test_gumbel_two_branch_tail_is_continuous(fam_gumbel_weibull2):
    # the series branch takes over once n * sf is tiny; values on both
    # sides of the switch must agree through the complement identity
    n = 10**6
    for x in (0.5, 1.0, 2.0):
        up = fam_gumbel_weibull2.exact_log_upper_tail(n, x)
        m = weibull(2.0).isf(1.0 / n)
        ref = n * weibull(2.0).log_sf(m * (1.0 + x))  # log(n sf), first order
        assert up == pytest.approx(math.log(n) + ref / n, rel=1e-9)


# --- coupon collector --------------------------------------------------------

FROZEN_COUPON = [
    (2, 2, Fraction(1, 2)),
    (2, 3, Fraction(3, 4)),
    (3, 3, Fraction(2, 9)),
    (3, 4, Fraction(4, 9)),
    (3, 5, Fraction(50, 81)),
    (4, 8, Fraction(5103, 8192)),
    (5, 12, Fraction(1324224, 1953125)),
]


def _coupon_cdf(n, m):
    """P(T_n <= m) from the package's coupon evaluator."""
    return math.exp(families._coupon_log_cdf(n, [m])[0])


@pytest.mark.parametrize("n,m,prob", FROZEN_COUPON)
def test_coupon_cdf_frozen_fractions(n, m, prob):
    assert _coupon_cdf(n, m) == pytest.approx(float(prob), rel=1e-14)
    assert coupon_cdf_inclusion_exclusion(n, m) == pytest.approx(float(prob), rel=1e-15)


def test_coupon_cdf_edge_cases():
    # fewer draws than coupons cannot collect them all; exactly n draws do
    # with probability n!/n^n
    assert families._coupon_log_cdf(3, [2, 3])[0] == -math.inf
    assert _coupon_cdf(3, 3) == pytest.approx(coupon_cdf_inclusion_exclusion(3, 3), rel=1e-14)
    assert coupon_cdf_inclusion_exclusion(3, 2) == 0.0
    assert coupon_cdf_inclusion_exclusion(1, 5) == 1.0
    with pytest.raises(ValueError, match="^coupon collection needs n >= 1, got 0$"):
        coupon_cdf_inclusion_exclusion(0, 1)


@given(n=st.integers(min_value=2, max_value=25), k=st.integers(min_value=0, max_value=30))
@settings(max_examples=60, deadline=None)
def test_coupon_dp_matches_inclusion_exclusion(n, k):
    m = n + k
    assert _coupon_cdf(n, m) == pytest.approx(
        coupon_cdf_inclusion_exclusion(n, m), rel=1e-9, abs=1e-300)


def test_coupon_log_sf_agrees_with_complement(fam_coupon):
    # n=50 stresses the alternating-series branch against the exact IE
    for m in (260, 300, 400):
        x = m / (50 * math.log(50)) - 1.0
        ls = fam_coupon.exact_log_upper_tail(50, x)
        ie = coupon_cdf_inclusion_exclusion(
            50, math.ceil((1.0 + x) * 50 * math.log(50) - 1e-9) - 1)
        assert ls == pytest.approx(math.log1p(-ie), rel=1e-10)


def test_coupon_threshold_pair():
    assert coupon_threshold_pair(10, 0.5) == (34, 35)
    # integer thresholds collapse the pair
    x = 3.0 / (2.0 * math.log(2.0)) - 1.0
    assert coupon_threshold_pair(2, x) == (3, 3)


def test_coupon_exact_tails_use_integer_thresholds(fam_coupon):
    x = 3.0 / (2.0 * math.log(2.0)) - 1.0
    # P(T_2 >= 3) = 1/2, P(T_2 <= 3) = 3/4
    assert fam_coupon.exact_log_upper_tail(2, x) == pytest.approx(math.log(0.5), rel=1e-14)
    assert fam_coupon.exact_log_lower_tail(2, x) == pytest.approx(math.log(0.75), rel=1e-14)


def test_coupon_tail_bounds_shapes():
    b = coupon_tail_bounds(10, c=1.5)
    assert b.threshold == pytest.approx(1.5 * 10 * math.log(10), rel=1e-14)
    assert b.upper_bound == pytest.approx(10 ** -0.5, rel=1e-14)
    b2 = coupon_tail_bounds(10, m=34)
    assert b2.lower_bound == pytest.approx(2.0 * (1.0 - math.exp(-3.4)) ** 10, rel=1e-12)
    with pytest.raises(ValueError):
        coupon_tail_bounds(10)
    with pytest.raises(ValueError):
        coupon_tail_bounds(10, c=1.5, m=30)


def test_coupon_tail_bounds_dominate_exact_tail():
    for n in (5, 10, 50):
        for c in (1.25, 1.5, 2.0):
            m = int(c * n * math.log(n))
            cdf = coupon_cdf_inclusion_exclusion(n, m)
            sf = -math.expm1(math.log(cdf))
            assert sf <= coupon_tail_bounds(n, c=c).upper_bound
            assert cdf <= coupon_tail_bounds(n, m=m).lower_bound


def test_coupon_needs_two_types(fam_coupon):
    with pytest.raises(ValueError):
        fam_coupon.exact_log_upper_tail(1, 0.5)


def test_coupon_sampler_matches_dp(fam_coupon):
    # empirical CDF of T_5 at m=12 against the exact 0.678002688
    trials = 20000
    x = 12.0 / (5.0 * math.log(5.0)) - 1.0
    panel = UniformPanel(seed=13, start=0, stop=trials)
    # T_5 <= 12, the event the exact cdf below is taken at
    hits = fam_coupon.count_hits(5, x, "lower", panel)
    p_hat = hits / trials
    assert abs(p_hat - 0.678002688) < 4.0 * math.sqrt(0.678 * 0.322 / trials)
    # T_5 >= 20 on the same uniforms: waits that all read one column are
    # correlated and put this upper tail near 0.13, 33 sigma off
    p_up = 0.0714485091755623
    x_up = 20.0 / (5.0 * math.log(5.0)) - 1.0
    p_hat = fam_coupon.count_hits(5, x_up, "upper", panel) / trials
    assert abs(p_hat - p_up) < 4.0 * math.sqrt(p_up * (1.0 - p_up) / trials)


@pytest.mark.parametrize("chunk", [64, 2])
def test_coupon_series_bound_holds_against_inclusion_exclusion(chunk, monkeypatch):
    # every certified (n, m) for n in 2..40, m from n to n log n + 6n; the
    # oracle's own rounding (the float of an exact fraction, then its log)
    # adds at most 2u (1 + |log p|). Chunks of 2 terms make the series stop
    # early at these n, so the bound on the terms it drops is checked too.
    monkeypatch.setattr(families, "_SERIES_CHUNK", chunk)
    u = 2.0 ** -53
    certified = 0
    for n in range(2, 41):
        for m in range(n, int(n * math.log(n) + 6 * n) + 1, max(1, n // 15)):
            count = surjection_count(n, m)
            for upper, hits in ((False, count), (True, n ** m - count)):
                exact = float(Fraction(hits, n ** m))
                value, bound = _coupon_series(n, [m], upper)[0]
                if bound > families._SERIES_TARGET:
                    continue
                certified += 1
                ref = math.log(exact)
                assert abs(value - ref) <= bound + 2.0 * u * (1.0 + abs(ref)), (n, m, upper)
    assert certified > 5000


def test_coupon_two_types_takes_the_series_in_small_memory():
    fam = make_coupon()
    for m in (5, 60, 5 * 10 ** 6):
        x = m / (2.0 * math.log(2.0)) - 1.0
        assert coupon_threshold_pair(2, x)[0] == m
        tracemalloc.start()
        try:
            log_p = fam.exact_log_lower_tail(2, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(log_p - math.log1p(-2.0 ** (1 - m))) <= 1e-15
        assert peak < 2 ** 20


_STATELESS_XS = (-0.5, -0.35, -0.3, 0.0)


def _lower_tails(fam, n):
    values, peaks = [], []
    for x in _STATELESS_XS:
        tracemalloc.start()
        try:
            value = fam.exact_log_lower_tail(n, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        values.append(value.hex())
        peaks.append(peak)
    return values, peaks


@pytest.mark.parametrize("n", [200, 1000])
def test_coupon_lower_tail_is_stateless(n):
    # a fresh instance, a second one and one a weak probe has warmed give
    # the same bits and the same allocation peak, on the tilt (x < 0 here)
    # and on the series (x = 0). Peaks agree to within single small
    # interpreter objects (59 bytes apart between runs); a kept row of the
    # 5510 draws the series misses at n = 1000 would be 44 KB.
    certified = [_coupon_series(n, [coupon_threshold_pair(n, x)[0]], upper=False)[0][1]
                 <= families._SERIES_TARGET for x in _STATELESS_XS]
    assert certified == [False, False, False, True]
    fresh, second, warmed = make_coupon(), make_coupon(), make_coupon()
    weak_probe(warmed, (1000,))
    values, peaks = _lower_tails(fresh, n)
    for fam in (second, warmed, fresh):
        again, again_peaks = _lower_tails(fam, n)
        assert again == values
        assert np.all(np.abs(np.subtract(again_peaks, peaks)) <= 512), (again_peaks, peaks)


def _series_switch(n):
    # the least m at which the lower series certifies; the tilt runs below
    m = n
    while _coupon_series(n, [m], upper=False)[0][1] > families._SERIES_TARGET:
        m += 1
    return m


@pytest.mark.parametrize("n", [50, 200, 1000])
def test_coupon_tails_sum_to_one_across_the_switch(n):
    m_star = _series_switch(n)
    assert m_star > n + n // 2
    for m in (m_star - n // 2, m_star - 2, m_star - 1, m_star, m_star + 1, m_star + n):
        total = math.exp(_coupon_log_cdf(n, [m])[0]) + math.exp(_coupon_log_sf(n, [m])[0])
        assert total == pytest.approx(1.0, abs=1e-12), m


def _log_surjection_fraction(n, m):
    # log P(T_n <= m) from the exact integers; math.log takes big ints whole
    return math.log(surjection_count(n, m)) - math.log(n ** m)


def test_coupon_deep_lower_tail_is_exact():
    # m = n = 1000: P(T_n <= n) = n!/n^n, about e^-995.6, far below the
    # range of a double; a fresh instance and one whose row a weak probe
    # built both return it
    x = 1.0 / math.log(1000) - 1.0
    assert coupon_threshold_pair(1000, x)[0] == 1000
    exact = math.lgamma(1001) - 1000 * math.log(1000)
    assert make_coupon().exact_log_lower_tail(1000, x) == pytest.approx(exact, abs=1e-10)
    fam = make_coupon()
    weak_probe(fam, (1000,))
    assert fam.exact_log_lower_tail(1000, x) == pytest.approx(exact, abs=1e-10)


def test_coupon_lower_tail_deep_against_inclusion_exclusion():
    # m = n is the closed form n!/n^n; the rest go through the tilt
    n = 1000
    for m in (1000, 1050, 1100, 1150, 1250, 1500):
        assert _coupon_series(n, [m], upper=False)[0][1] > families._SERIES_TARGET
        value = _coupon_log_cdf(n, [m])[0]
        assert value == pytest.approx(_log_surjection_fraction(n, m), abs=1e-10), m


def test_coupon_tilt_bound_holds_against_inclusion_exclusion():
    # every (n, m) the lower series leaves uncertified for n in 2..40, m
    # from n to n log n + 6n, on the grid of the series test: the tilt
    # certifies each, and its bound holds up to the oracle's 2u (1 + |log p|)
    u = 2.0 ** -53
    checked = 0
    for n in range(2, 41):
        for m in range(n, int(n * math.log(n) + 6 * n) + 1, max(1, n // 15)):
            if _coupon_series(n, [m], upper=False)[0][1] <= families._SERIES_TARGET:
                continue
            value, bound = _coupon_tilt(n, m)
            assert bound <= families._SERIES_TARGET, (n, m)
            ref = math.log(coupon_cdf_inclusion_exclusion(n, m))
            assert abs(value - ref) <= bound + 2.0 * u * (1.0 + abs(ref)), (n, m)
            checked += 1
    assert checked > 400


def test_coupon_lower_tail_near_one_keeps_relative_accuracy(fam_coupon):
    # log P(T_n <= m) = log1p(-P(T_n > m)) from the certified upper series,
    # where the lower series alone rounds log1p(-2^-59) to 0. The relative
    # error of log p is that of q = P(T_n > m), i.e. the absolute error of
    # log q: one ulp of log q = -40.9 is 7e-15, so 1e-14 relative is what a
    # log-domain q can promise (3.8e-15 here)
    x = 60 / (2.0 * math.log(2.0)) - 1.0
    assert coupon_threshold_pair(2, x)[0] == 60
    exact = math.log1p(-(2.0 ** -59))
    assert fam_coupon.exact_log_lower_tail(2, x) == pytest.approx(exact, rel=1e-14, abs=0.0)
    # n = 3: P(T_3 > m) = 3 (2/3)^m - 3 (1/3)^m, exactly
    q = Fraction(3 * (2 ** 150 - 1), 3 ** 150)
    assert _coupon_log_cdf(3, [150])[0] == pytest.approx(math.log1p(-float(q)), rel=1e-14, abs=0.0)


def test_coupon_lower_tail_at_twenty_thousand_types(fam_coupon):
    # log P(T_20000 <= 138648) from scripts/derive_constants.py (mpmath
    # alternating sum); the lower series cannot certify it
    assert coupon_threshold_pair(20000, -0.3)[0] == 138648
    assert _coupon_series(20000, [138648], upper=False)[0][1] > families._SERIES_TARGET
    assert fam_coupon.exact_log_lower_tail(20000, -0.3) == pytest.approx(
        -19.585765600273233, abs=1e-10)
    report = ldp_probe(fam_coupon, (-0.3,), (20, 200, 2000, 20000))
    assert [r.n for r in report.rows] == [20, 200, 2000, 20000]
    assert all(math.isfinite(r.log_p_exact) for r in report.rows)


def test_coupon_uncertifiable_lower_tail_fails_fast_and_small(fam_coupon):
    # n = 1e9: the grid the tilt would need cannot certify 1e-10, which the
    # a-priori bound shows before anything is allocated
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(ValueError, match=r"n=1000000000, m=14506286085: .* bound"):
            fam_coupon.exact_log_lower_tail(10 ** 9, -0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1.0
    assert peak < 2 ** 20


def test_coupon_tilt_sums_its_grid_in_bounded_memory():
    # n = 1e8 takes 2^18 + 1 trapezoid nodes, summed _TILT_CHUNK at a time;
    # the grid in one piece peaked at 46 MB. -251.193010704944 is what the
    # one-piece sum gave; the (N - 1) u sum |a_j| term of the bound holds
    # for any order of summation
    m = coupon_threshold_pair(10 ** 8, -0.3)[0]
    tracemalloc.start()
    try:
        value, bound = _coupon_tilt(10 ** 8, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert bound <= families._SERIES_TARGET
    assert abs(value - -251.193010704944) <= bound


@pytest.mark.parametrize("n,m", [(1000, 1100), (2000, 10641)])  # lam below and above 1
def test_coupon_tilt_chunks_agree_with_one_pass(n, m, monkeypatch):
    value, bound = _coupon_tilt(n, m)
    monkeypatch.setattr(families, "_TILT_CHUNK", 7)
    chunked, chunked_bound = _coupon_tilt(n, m)
    assert abs(chunked - value) <= bound
    assert chunked_bound == pytest.approx(bound, rel=1e-9)


def test_coupon_cdf_dp_below_the_normal_range_of_its_neighbours():
    # probabilities between 1e-308 and 1e-290, compared in log form: the
    # evaluator keeps them to full relative accuracy
    for n, m in ((700, 700), (1000, 1125)):
        ref = coupon_cdf_inclusion_exclusion(n, m)
        assert 1e-308 < ref < 1e-290
        assert families._coupon_log_cdf(n, [m])[0] == pytest.approx(math.log(ref), abs=1e-12)


def test_coupon_upper_tail_at_large_n_stops_early():
    mp = pytest.importorskip("mpmath")
    n, x = 10 ** 7, 0.5
    tracemalloc.start()
    try:
        log_p = make_coupon().exact_log_upper_tail(n, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    m = coupon_threshold_pair(n, x)[1] - 1
    with mp.workdps(40):
        # the terms fall like lambda^k/k!, lambda = n (1 - 1/n)^m < 1e-3
        ref = mp.log(mp.fsum((-1) ** (k + 1) * mp.binomial(n, k) * (1 - mp.mpf(k) / n) ** m
                             for k in range(1, 20)))
    assert log_p == pytest.approx(float(ref), abs=1e-12)


# --- replacement model -------------------------------------------------------

def test_replacement_frozen_tails(fam_replacement):
    assert fam_replacement.exact_log_lower_tail(3, -0.5) == pytest.approx(
        -2.3385216844144751, rel=1e-13)
    assert fam_replacement.exact_log_lower_tail(10, -0.3) == pytest.approx(
        -3.1929493060871873, rel=1e-13)
    assert fam_replacement.exact_log_upper_tail(10, 0.5) == pytest.approx(
        -10.510825623765991, rel=1e-13)


def test_replacement_atom_at_zero(fam_replacement):
    for n in (1, 7, 100, 10**4):
        assert fam_replacement.exact_log_lower_tail(n, 0.0) == pytest.approx(
            math.log(0.4), rel=1e-15)


def test_replacement_quantile_anchor(fam_replacement):
    # u = 0.2 < beta lands in the F branch: F^{-1}(0.2 F(1)/0.4) - t; the
    # double 0.2 is the stream's uniform (k + 1/2) 2^-53 at k = floor(0.2 2^53)
    z = 0.37988549304172248
    lo, hi = z * (1.0 - 1e-12) - 1.0, z * (1.0 + 1e-12) - 1.0
    panel = word_panel(lattice_words(0.2, reach=0)[0])
    assert panel_uniforms(panel, 0)[0] == 0.2
    assert _flips_between(fam_replacement, 1, lo, hi, "lower", panel)


def test_replacement_rates(fam_replacement):
    assert fam_replacement.rate_ld(0.5) == pytest.approx(1.0, rel=1e-14)
    assert fam_replacement.rate_ld(-0.5) == pytest.approx(0.47407698418010663, rel=1e-13)
    assert fam_replacement.rate_ld(-1.0) == math.inf
    assert fam_replacement.rate_md.right_slope_at_zero == pytest.approx(2.0, abs=1e-9)
    assert fam_replacement.rate_md.left_slope_at_zero == pytest.approx(
        -0.5819767068693265, abs=1e-9)
    assert fam_replacement.md_needs_alogn


def test_replacement_limit_is_two_sided_exponential(fam_replacement):
    assert fam_replacement.limit_cdf(0.0) == pytest.approx(0.4, rel=1e-14)
    assert fam_replacement.limit_cdf(0.3) == pytest.approx(0.6707130183435841, rel=1e-13)
    assert fam_replacement.limit_cdf(-0.4) == pytest.approx(0.31692776091540187, rel=1e-13)


def test_replacement_params_validation():
    F, G = exponential(1.0), exponential(2.0)
    with pytest.raises(ValueError):
        make_replacement(F, G, t=0.0, beta=0.4)
    with pytest.raises(ValueError):
        make_replacement(F, G, t=1.0, beta=1.0)
    with pytest.raises(ValueError):
        make_replacement(F, G, t=1.0, beta=-0.1)
    with pytest.raises(ValueError):
        make_replacement(std_normal(), G, t=1.0, beta=0.4)


def test_replacement_sampler_tracks_exact_cdf(fam_replacement):
    trials = 20000
    panel = UniformPanel(seed=29, start=0, stop=trials)
    hits = fam_replacement.count_hits(10, -0.3, "lower", panel)
    exact = math.exp(fam_replacement.exact_log_lower_tail(10, -0.3))
    assert abs(hits / trials - exact) < 4.0 * math.sqrt(exact * (1 - exact) / trials)


# --- count_hits against the full inverse transform ---------------------------

def _classical_transform(n):
    return lambda u: 1.0 * ndtri(u) / math.sqrt(n)  # sigma = 1


def _minima_transform(dist):
    return lambda n: lambda u: isf_values(dist, np.exp(np.log1p(-u) / n))


def _gumbel_transform(dist):
    def transform(n):
        m = dist.isf(1.0 / n)
        return lambda u: isf_values(dist, -np.expm1(np.log(u) / n)) / m - 1.0
    return transform


def _replacement_transform(F, G, t, beta):
    def transform(n):
        def c(u):
            z = np.empty_like(u)
            low = u <= beta
            if low.any():
                z[low] = quantile_values(
                    F, np.exp(F.log_cdf(t) + (np.log(u[low]) - math.log(beta)) / n))
            if (~low).any():
                z[~low] = isf_values(
                    G, np.exp(G.log_sf(t) + (np.log1p(-u[~low]) - math.log1p(-beta)) / n))
            return z - t
        return c
    return transform


# (spec, n, the inverse transform whose count count_hits must return)
TRANSFORM_CASES = [
    ("classical:sigma=1", 100, _classical_transform),
    ("minima:exponential:1", 10, _minima_transform(exponential(1.0))),
    # minima needs F'(0+) > 0, so gamma:1 stands in for gamma's Newton isf
    ("minima:gamma:1", 10, _minima_transform(gamma(1.0))),
    ("gumbel_maxima:weibull:2", 1000, _gumbel_transform(weibull(2.0))),
    ("gumbel_maxima:gamma:2", 1000, _gumbel_transform(gamma(2.0))),
    ("replacement:exponential:1,exponential:2,t=1,beta=0.4", 10,
     _replacement_transform(exponential(1.0), exponential(2.0), 1.0, 0.4)),
    ("replacement:gamma:2,exponential:2,t=1,beta=0.4", 10,
     _replacement_transform(gamma(2.0), exponential(2.0), 1.0, 0.4)),
]


# one-trial panels on the stream's uniforms nearest the dyadic points k/256
# (the lattice index floor(2^53 k/256) and its two neighbours), where a
# bracket end is most fragile; 1/2 is the uniform at _GRID_HALF
_GRID = (1, 31, 32, 127, 128, 129, 255)
_GRID_HALF = 3 * _GRID.index(128) + 1
_GRID_BELOW_EIGHTH = 3 * _GRID.index(32)


def _grid_panels():
    panels = [word_panel(w) for k in _GRID for w in lattice_words(k / 256.0)]
    return panels, np.concatenate([panel_uniforms(p, 0) for p in panels])


def _levels(c):
    # beyond every draw, and on a trial, on 1/2 and below 1/8 with their
    # neighbouring doubles
    xs = [c.min() - 1.0, c.max() + 1.0]
    for v in (c[7], c[3000 + _GRID_HALF], c[3000 + _GRID_BELOW_EIGHTH]):
        xs += [v, np.nextafter(v, -math.inf), np.nextafter(v, math.inf)]
    return [float(x) for x in xs]


@pytest.mark.parametrize("spec,n,transform", TRANSFORM_CASES,
                         ids=[c[0].split(",")[0] for c in TRANSFORM_CASES])
def test_count_hits_equals_the_full_transform(spec, n, transform):
    fam = parse_family_spec(spec)
    c_of = transform(n)
    grid, u_grid = _grid_panels()
    assert u_grid[_GRID_HALF] == 0.5 and u_grid[_GRID_BELOW_EIGHTH] < 0.125
    c = c_of(np.concatenate([panel_uniforms(UniformPanel(41, 0, 3000), 0), u_grid]))
    for x in _levels(c):
        for side in ("upper", "lower"):
            # 3000 counter trials, whole and in three sub-panels
            for parts in (1, 3):
                bounds = [i * 3000 // parts for i in range(parts + 1)]
                got = sum(fam.count_hits(n, x, side, UniformPanel(41, lo, hi))
                          for lo, hi in zip(bounds, bounds[1:]))
                assert got == estimators._count(c[:3000], x, side), (x, side, parts)
            for i, panel in enumerate(grid):
                want = estimators._count(c[3000 + i:3001 + i], x, side)
                assert fam.count_hits(n, x, side, panel) == want, (x, side, u_grid[i])


class _NoDrawPanel:
    """A panel of `trials` trials whose counters refuse to be read."""

    def __init__(self, trials):
        self.trials = trials

    def __len__(self):
        return self.trials

    def _refuse(self):
        raise AssertionError("a row decided before drawing read the panel's counters")

    seed = start = stop = property(_refuse)


RANGE_CASES = TRANSFORM_CASES + [("minima:uniform01", 10, _minima_transform(uniform01()))]


@pytest.mark.parametrize("spec,n,transform", RANGE_CASES,
                         ids=[c[0].split(",")[0] for c in RANGE_CASES])
def test_count_hits_decides_a_row_from_the_range_of_the_transform(spec, n, transform):
    # one-trial panels on the stream's least uniform 2^-54 (word 0), the
    # next, 1/2 and its greatest 1 - 2^-53 (the top word): a count must
    # match the full transform at the ends of the stream
    fam = parse_family_spec(spec)
    panels = [word_panel(w) for w in (0, 1 << 11, 1 << 63, MASK)]
    u = np.concatenate([panel_uniforms(p, 0) for p in panels])
    assert u.tolist() == [2.0**-54, 1.5 * 2.0**-53, 0.5, 1.0 - 2.0**-53]
    for m in (n, 1000 * n):
        c_of = transform(m)
        least, greatest = c_of(u[[0, -1]])
        far_below = least - 1.0 - abs(least)
        far_above = greatest + 1.0 + abs(greatest)
        near = [e * (1.0 + d) for e in (least, greatest) for d in (-1e-12, 1e-12)]
        for x in [far_below, far_above] + near:
            for side in ("upper", "lower"):
                for panel, v in zip(panels, u):
                    want = estimators._count(c_of(np.array([v])), x, side)
                    assert fam.count_hits(m, x, side, panel) == want, (m, x, side, v)
        for side, want in (("upper", 4), ("lower", 0)):
            assert fam.count_hits(m, far_below, side, _NoDrawPanel(4)) == want
        for side, want in (("upper", 0), ("lower", 4)):
            assert fam.count_hits(m, far_above, side, _NoDrawPanel(4)) == want


def _tail_variants(log_lower, log_upper):
    # the exact tails, both shifted in log, and one or both replaced by a
    # value no tail evaluator returns
    yield log_lower, log_upper
    for d in (-5.0, -1e-3, 1e-3, 5.0):
        yield log_lower + d, log_upper + d
    for bad in (math.nan, math.inf, -math.inf):
        yield from ((bad, log_upper), (log_lower, bad), (bad, bad))


@pytest.mark.parametrize("spec,n,transform", TRANSFORM_CASES,
                         ids=[c[0].split(",")[0] for c in TRANSFORM_CASES])
def test_count_by_bracket_counts_the_full_transform_under_any_tails(spec, n, transform):
    # the tails only place the bracket: shifted, nan or infinite tails may
    # cost transform calls but never change a count
    fam = parse_family_spec(spec)
    c_of = transform(n)
    _, u_grid = _grid_panels()
    xs = _levels(c_of(np.concatenate([panel_uniforms(UniformPanel(41, 0, 3000), 0), u_grid])))
    brackets = []

    def recording(u):
        if u.size == 4 and u[0] == 2.0**-54:  # an attempt: the stream's ends, a and b
            brackets.append(u[2:])
        return c_of(u)

    panels = [UniformPanel(seed=41, start=0, stop=3000), UniformPanel(seed=53, start=0, stop=2000)]
    cs = [c_of(panel_uniforms(p, 0)) for p in panels]
    for x in xs:
        tails = fam.exact_log_lower_tail(n, x), fam.exact_log_upper_tail(n, x)
        for side in ("upper", "lower"):
            for ll, lu in _tail_variants(*tails):
                for panel, c in zip(panels, cs):
                    brackets.clear()
                    got = estimators.count_by_bracket(panel, recording, x, side, ll, lu)
                    assert got == estimators._count(c, x, side), (x, side, ll, lu)
                # one-trial panels on the uniforms next to the ends of the
                # bracket this call settled on
                ends = [float(e) for e in brackets[-1] if not math.isnan(e)]
                for w in {w for end in ends for w in lattice_words(end)}:
                    one = word_panel(w)
                    want = estimators._count(c_of(panel_uniforms(one, 0)), x, side)
                    got = estimators.count_by_bracket(one, recording, x, side, ll, lu)
                    assert got == want, (x, side, ll, lu, w)


@pytest.mark.parametrize("spec,n,transform", TRANSFORM_CASES,
                         ids=[c[0].split(",")[0] for c in TRANSFORM_CASES])
def test_count_hits_calls_the_transform_at_most_twice(monkeypatch, spec, n, transform):
    # one call checks the range and the bracket, one more transforms the
    # trials inside it, if there are any; a row decided by the range of
    # the transform makes only the first
    fam = parse_family_spec(spec)
    calls = []
    bracket = estimators.count_by_bracket

    def counting(panel, f, *args):
        return bracket(panel, lambda u: calls.append(u.size) or f(u), *args)

    monkeypatch.setattr(families, "count_by_bracket", counting)
    c_of = transform(n)
    x = float(c_of(np.array([0.3]))[0])  # P(C_n <= x) = 0.3
    panel = UniformPanel(seed=59, start=0, stop=2**16)
    for side in ("upper", "lower"):
        calls.clear()
        hits = fam.count_hits(n, x, side, panel)
        assert 0 < hits < len(panel)
        assert len(calls) <= 2, (side, calls)
    least, greatest = c_of(np.array([2.0**-54, 1.0 - 2.0**-53]))
    for x in (least - 1.0 - abs(least), greatest + 1.0 + abs(greatest)):
        for side in ("upper", "lower"):
            calls.clear()
            fam.count_hits(n, x, side, _NoDrawPanel(2**16))
            assert len(calls) == 1, (x, side, calls)


def test_coupon_count_hits_equals_integer_waits(fam_coupon):
    # the float64 running sum against T_n summed as int64 geometric waits
    n, trials = 60, 3000
    panel = UniformPanel(seed=47, start=0, stop=trials)
    t = np.ones(trials, dtype=np.int64)
    for k in range(2, n + 1):
        u = panel_uniforms(panel, k - 2)
        t += np.ceil(np.log1p(-u) / math.log1p(-(n - k + 1) / n)).astype(np.int64)
    for q in (0.01, 0.5, 0.99):
        m = int(np.quantile(t, q))
        x = m / (n * math.log(n)) - 1.0
        m_lo, m_up = coupon_threshold_pair(n, x)
        assert fam_coupon.count_hits(n, x, "upper", panel) == np.count_nonzero(t >= m_up)
        assert fam_coupon.count_hits(n, x, "lower", panel) == np.count_nonzero(t <= m_lo)


# (n, x, side, trials, hits) on UniformPanel(1, 0, trials), frozen from the
# sampler that read every wait of every trial in draw order; 20000 trials
# take one draw per block
COUPON_FROZEN_HITS = [
    (2000, 0.17963, "upper", 2000, 451),
    (2000, 0.36514, "upper", 2000, 110),
    (200, 0.21516, "upper", 2000, 551),
    (200, -0.30244, "lower", 2000, 8),
    (20, -0.30244, "lower", 2000, 76),
    (2000, -0.30244, "lower", 2000, 0),
    (200, 0.21516, "upper", 20000, 5438),
    (200, -0.1, "lower", 20000, 3607),
]


@pytest.mark.parametrize("n,x,side,trials,hits", COUPON_FROZEN_HITS)
def test_coupon_count_hits_frozen(fam_coupon, n, x, side, trials, hits):
    assert fam_coupon.count_hits(n, x, side, UniformPanel(1, 0, trials)) == hits


@pytest.mark.parametrize("x,side", [(0.17963, "upper"), (-0.1, "lower")])
def test_coupon_count_hits_sum_over_sub_panels(fam_coupon, x, side):
    # the trials a sub-panel decides early are its own, so the counts add up
    seed, n, trials = 2**63 + 5, 2000, 2000
    whole = fam_coupon.count_hits(n, x, side, UniformPanel(seed, 0, trials))
    assert 0 < whole < trials
    for parts in (1, 3, 7):
        edges = [i * trials // parts for i in range(parts + 1)]
        assert sum(fam_coupon.count_hits(n, x, side, UniformPanel(seed, lo, hi))
                   for lo, hi in zip(edges, edges[1:])) == whole, parts


def test_coupon_rows_that_t_at_least_n_decides_mix_no_key(fam_coupon):
    # T_n >= n, so m_up <= n makes every trial an upper hit and m_lo < n
    # none a lower one; _NoDrawPanel raises when its counters are read
    for n, m in ((2, 1), (20, 3), (20, 19), (2000, 1999)):
        x = (m + 0.5) / (n * math.log(n)) - 1.0
        assert coupon_threshold_pair(n, x) == (m, m + 1)
        assert fam_coupon.count_hits(n, x, "upper", _NoDrawPanel(4)) == 4
        assert fam_coupon.count_hits(n, x, "lower", _NoDrawPanel(4)) == 0
    # one draw count further, T_n = n (every wait 1) is a lower hit and an
    # upper miss: P(T_3 = 3) = 2/9
    n, panel = 3, UniformPanel(seed=5, start=0, stop=3000)
    t = 1 + sum(np.ceil(np.log1p(-panel_uniforms(panel, k - 2)) / math.log1p(-(n - k + 1) / n))
                for k in range(2, n + 1))
    x = (n + 0.5) / (n * math.log(n)) - 1.0
    assert coupon_threshold_pair(n, x) == (n, n + 1)
    at_n = int(np.count_nonzero(t == n))
    assert 500 < at_n < 800
    assert fam_coupon.count_hits(n, x, "lower", panel) == at_n
    assert fam_coupon.count_hits(n, x, "upper", panel) == 3000 - at_n


def _coupon_sums_reading_every_wait(n, panel):
    # T_n of every trial with all n - 1 waits read in draw order, none dropped
    t = np.ones(len(panel))
    for d in range(n - 1):
        t += np.ceil(np.log1p(-panel_uniforms(panel, d)) / math.log1p(-((n - d - 1) / n)))
    return t


@pytest.mark.parametrize("n", [2, 3, 20, 200])
@pytest.mark.parametrize("seed", [1, 2**40 + 7, 2**64 - 3])
def test_coupon_early_decisions_count_what_every_wait_counts(fam_coupon, monkeypatch, n, seed):
    # levels in both tails, near the median, beyond the largest sum drawn
    # and at the most n - 1 waits can add
    panel = UniformPanel(seed, 0, 2000)
    t = _coupon_sums_reading_every_wait(n, panel)
    cap = 1 + int(families._coupon_waits(n)[1].sum())
    ms = [int(np.quantile(t, q)) for q in (0.0, 0.001, 0.02, 0.5, 0.98, 0.999, 1.0)]
    for m in ms + [ms[-1] + 1, cap, cap + 1]:
        x = m / (n * math.log(n)) - 1.0
        m_lo, m_up = coupon_threshold_pair(n, x)
        assert fam_coupon.count_hits(n, x, "upper", panel) == np.count_nonzero(t >= m_up), m
        assert fam_coupon.count_hits(n, x, "lower", panel) == np.count_nonzero(t <= m_lo), m
    # T_n <= cap: a threshold past it is settled before any key is mixed,
    # one at it is not
    reads = []
    monkeypatch.setattr(families, "panel_keys", lambda p: reads.append(p) or panel_keys(p))
    for m, mixed in ((cap - 0.5, True), (cap + 0.5, False)):
        x = m / (n * math.log(n)) - 1.0
        for side, hits in (("upper", 0), ("lower", len(panel))):
            reads.clear()
            assert fam_coupon.count_hits(n, x, side, panel) == hits
            assert bool(reads) == mixed, (m, side)


@pytest.mark.parametrize("n", [2, 20, 2000, 10**6])
def test_coupon_waits_stay_below_their_cap(n):
    # the sampler's wait at the largest counter uniform, by its own numpy
    # ops, at every draw; wmax_d keeps one draw of slack above it
    log_q, wmax = families._coupon_waits(n)
    w = np.full(n - 1, 1.0 - 2.0**-53)
    np.negative(w, out=w)
    np.log1p(w, out=w)
    np.divide(w, log_q, out=w)
    np.ceil(w, out=w)
    assert np.all(w < wmax)


@pytest.mark.parametrize("n", [2, 3, 20, 2000, 10**5])
def test_coupon_waits_keep_the_bits_of_the_scalar_build(n):
    # one math.log1p per draw over the Python-rounded -(n - d - 1)/n
    want = np.fromiter((math.log1p(-((n - d - 1) / n)) for d in range(n - 1)), float, n - 1)
    assert families._coupon_waits(n)[0].tobytes() == want.tobytes()


def test_count_hits_transforms_only_near_the_threshold(monkeypatch):
    fam = parse_family_spec("minima:exponential:1")
    panel = UniformPanel(seed=43, start=0, stop=200_000)
    x = 0.005  # P(C_100 >= x) = e^-0.5
    u = panel_uniforms(panel, 0)
    expect = estimators._count(isf_values(exponential(1.0), np.exp(np.log1p(-u) / 100)), x, "upper")
    points = []

    def counting(dist, q):
        points.append(np.size(q))
        return isf_values(dist, q)

    monkeypatch.setattr(families, "isf_values", counting)
    assert fam.count_hits(100, x, "upper", panel) == expect
    # one call on the two end doubles and the h = 1e-6 bracket around
    # P(C_100 <= x) = 1 - e^-0.5, then at most the trials strictly inside it
    p = -math.expm1(-0.5)
    inside = int(np.count_nonzero((u > p * math.exp(-1e-6)) & (u < p * math.exp(1e-6))))
    assert points[0] == 4
    assert sum(points[1:]) <= inside


# --- rate function machinery -------------------------------------------------

def test_rate_function_rejects_negative_values():
    # J(y) = (y^2 - 1)/2 at y = 1 + x, for the Weibull(2) index mu = 2
    r = parse_family_spec("gumbel_maxima:weibull:2").rate_ld
    with pytest.raises(ValueError):
        r(float("nan"))
    assert r(0.0) == 0.0
    assert r(-0.5) == math.inf  # below the domain wall
    assert r(1.0) == pytest.approx(1.5, rel=1e-14)


def test_shift_rate_moves_the_zero():
    r = parse_family_spec("gumbel_maxima:weibull:2").rate_ld
    assert r(0.0) == 0.0
    assert r(1.0) == pytest.approx(1.5, rel=1e-12)
    assert r(-1.5) == math.inf


@pytest.mark.parametrize("value,match", [
    (-1e-13, None),  # rounding below 0 reads as 0
    (-1e-3, r"rate function returned -0.001 < 0 at x=0.5"),
])
def test_rate_function_clips_rounding_and_rejects_a_negative_rate(value, match):
    rate = families.RateFunction(fn=lambda x: value)
    if match is None:
        assert rate(0.5) == 0.0
    else:
        with pytest.raises(ValueError, match=match):
            rate(0.5)


def test_rate_grid_violations_flag_broken_rates():
    from mdlab.families import RateFunction

    ok = RateFunction(fn=lambda x: x * x)
    assert rate_grid_violations(ok, np.linspace(-2, 2, 41)) == []
    shifted = RateFunction(fn=lambda x: abs(x - 0.3))
    assert rate_grid_violations(shifted, np.linspace(-2, 2, 41))
    dipping = RateFunction(fn=lambda x: abs(abs(x) - 1.0))
    assert rate_grid_violations(dipping, np.linspace(-2, 2, 41))


def test_family_rate_grids_are_clean(fam_classical, fam_minima_exp,
                                     fam_gumbel_weibull2, fam_coupon,
                                     fam_replacement):
    grid = np.linspace(-2.0, 2.0, 41)
    for fam in (fam_classical, fam_minima_exp, fam_gumbel_weibull2,
                fam_coupon, fam_replacement):
        assert rate_grid_violations(fam.rate_ld, grid) == [], fam.name
        assert rate_grid_violations(fam.rate_md, grid) == [], fam.name
        if fam.central:
            continue
        # a non-central moderate rate is its stored slope times x on each side
        right = fam.rate_md.right_slope_at_zero
        left = fam.rate_md.left_slope_at_zero
        for x in grid:
            want = 0.0 if x == 0.0 else (right if x > 0.0 else left) * x
            assert fam.rate_md(x) == want, (fam.name, x)


# --- list form of the exact tails ----------------------------------------------

LIST_FORM_SPECS = CANONICAL_SPECS + [
    "gumbel_maxima:gamma:2",
    "replacement:gamma:2,exponential:2,t=1,beta=0.4",
]


def _hex_list(values):
    assert isinstance(values, (list, tuple))
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("spec", LIST_FORM_SPECS)
def test_list_form_has_the_bits_of_the_float_calls(spec):
    # the weak probe's levels x / v_n (x / sqrt(v_n) for the central family)
    # at several n, on both tails; the coupon's span m < n, the series, the
    # complement route and the tilt
    fam = parse_family_spec(spec)
    for n in sorted({max(fam.least_n, 2), 50, 1000, 10 ** 5}):
        s_n = fam.speed(n)
        scale = math.sqrt(s_n) if fam.central else s_n
        xs = [x / scale for x in default_weak_grid(fam)]
        for tail in (fam.exact_log_lower_tail, fam.exact_log_upper_tail):
            assert _hex_list(tail(n, xs)) == _hex_list([tail(n, x) for x in xs]), (n, tail)


def _coupon_routes(n, ms):
    # which way _coupon_log_cdf answers each m
    routes = set()
    for m in ms:
        if m < n:
            routes.add("m < n")
            continue
        log_p, bound = _coupon_series(n, [m], upper=False)[0]
        if bound > families._SERIES_TARGET:
            routes.add("tilt")
        elif log_p > -math.log(2.0) and _coupon_series(n, [m], upper=True)[0][1] <= families._SERIES_TARGET:
            routes.add("complement")
        else:
            routes.add("series")
    return routes


@pytest.mark.parametrize("chunk", [64, 2])
def test_coupon_lists_have_the_bits_of_single_calls(chunk, monkeypatch):
    # shuffled, with repeats, so rows that stop at different chunks are
    # grouped and scattered back; chunks of 2 terms make them stop apart
    monkeypatch.setattr(families, "_SERIES_CHUNK", chunk)
    rng = np.random.default_rng(7)
    for n in (2, 3, 40, 1000):
        top = int(n * math.log(n) + 6 * n)
        ms = list(range(max(n - 3, 0), top, max(1, n // 12))) + [n, n, top]
        ms = [int(m) for m in rng.permutation(ms)]
        if n == 1000:
            assert _coupon_routes(n, ms) == {"m < n", "tilt", "complement", "series"}
        for upper in (False, True):
            pairs = _coupon_series(n, [m for m in ms if m >= n], upper)
            singles = [_coupon_series(n, [m], upper)[0] for m in ms if m >= n]
            assert [_hex_list(p) for p in pairs] == [_hex_list(p) for p in singles], (n, upper)
        assert _hex_list(_coupon_log_cdf(n, ms)) == _hex_list([_coupon_log_cdf(n, [m])[0] for m in ms])
        assert _hex_list(_coupon_log_sf(n, ms)) == _hex_list([_coupon_log_sf(n, [m])[0] for m in ms])


def _raised(fn, *args):
    with pytest.raises((ValueError, OverflowError)) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_list_form_raises_what_the_first_failing_float_call_raises(fam_coupon):
    # at n = 1e9 neither the series nor the tilt certifies x = -0.35 or
    # -0.3; x = nan and inf have no threshold
    n = 10 ** 9
    for tail in (fam_coupon.exact_log_lower_tail, fam_coupon.exact_log_upper_tail):
        first = _raised(tail, n, -0.35)
        assert first != _raised(tail, n, -0.3)
        assert "bound" in first[1]
        assert _raised(tail, n, [0.0, 0.5, -0.35, 0.1, -0.3]) == first
        assert _raised(tail, n, [0.0, -0.35, math.nan]) == first
        assert _raised(tail, n, [0.0, math.nan, -0.35]) == _raised(tail, n, math.nan)
        assert _raised(tail, n, [0.0, math.inf]) == _raised(tail, n, math.inf)


_N_CHECK_LEVELS = [-0.01, 0.0, 0.001, 0.05]


@pytest.mark.parametrize("which", ["exact_log_upper_tail", "exact_log_lower_tail", "count_hits"])
@pytest.mark.parametrize("fixture", ["fam_classical", "fam_minima_exp", "fam_gumbel_weibull2",
                                     "fam_coupon", "fam_replacement"])
def test_each_family_checks_n_and_takes_one_level_or_a_list(fixture, which, request):
    # n is checked before any level is read, so an empty list raises too;
    # a float n is taken as its int, and a float level as the list [x]
    fam = request.getfixturevalue(fixture)
    fn = getattr(fam, which)
    if which == "count_hits":
        def call(n, xs):
            return [fn(n, x, side, UniformPanel(11, 0, 300))
                    for x in xs for side in ("lower", "upper")]
        levels = [_N_CHECK_LEVELS]
    else:
        def call(n, xs):
            return _hex_list(fn(n, xs))
        levels = [_N_CHECK_LEVELS, []]
    low = fam.least_n - 1
    for xs in levels:
        assert _raised(call, low, xs) == (ValueError, f"{fam.name} needs n >= {fam.least_n}, got {low}")
        if fam.name == "gumbel_maxima":
            assert fam.max_n == 10 ** 15
            assert f"{fam.name} caps n at {10 ** 15}" in _raised(call, 10 ** 15 + 1, xs)[1]
        else:
            assert fam.max_n is None
    assert call(1e3, _N_CHECK_LEVELS) == call(1000, _N_CHECK_LEVELS)
    if which != "count_hits":
        assert _raised(fn, low, 0.0) == _raised(call, low, [0.0])
        assert [fn(1000, x).hex() for x in _N_CHECK_LEVELS] == [
            call(1000, [x])[0] for x in _N_CHECK_LEVELS]


def test_coupon_uncertifiable_series_stops_in_small_memory(fam_coupon):
    # a term above e^_TOP_LIMIT rules out a certified sum, so the series
    # gives up there; at n = 1e8, x = -0.93 it used to keep every chunk
    # until its terms decayed, 2.7 GB, before the tilt raised
    m = coupon_threshold_pair(10 ** 8, -0.93)[0]
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        pairs = _coupon_series(10 ** 8, [m, m + 10 ** 6], upper=False)
        with pytest.raises(ValueError, match=r"n=100000000, m=128944765: .* bound"):
            fam_coupon.exact_log_lower_tail(10 ** 8, [-0.93, -0.92])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1.0
    assert peak < 2 ** 20
    assert all(math.isnan(value) and bound == math.inf for value, bound in pairs)
    # the tilt still answers where it certifies
    assert abs(fam_coupon.exact_log_lower_tail(10 ** 5, -0.9) - -65330.46825133084) <= 1e-10


# --- spec strings ------------------------------------------------------------

@pytest.mark.parametrize("spec", CANONICAL_SPECS)
def test_family_spec_round_trip(spec):
    once = parse_family_spec(spec).label
    again = parse_family_spec(once).label
    assert once == again


@pytest.mark.parametrize("bad", [
    "nosuch", "classical", "classical:1", "minima", "minima:lognormal",
    "gumbel_maxima:uniform01", "coupon:3",
    "replacement:exponential:1,exponential:2,t=1",
    "replacement:exponential:1,exponential:2,beta=0.4,t=0",
])
def test_bad_family_specs(bad):
    with pytest.raises((SpecParseError, ValueError)):
        parse_family_spec(bad)
