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

from mdlab import (
    ReplacementParams,
    SpecParseError,
    coupon_cdf_dp,
    coupon_cdf_inclusion_exclusion,
    coupon_tail_bounds,
    coupon_threshold_pair,
    exponential,
    lognormal,
    logistic,
    make_coupon,
    make_gumbel_maxima,
    make_minima,
    make_replacement,
    parse_family_spec,
    power_tail_rate,
    rate_grid_violations,
    render_family_spec,
    shift_rate,
    std_normal,
    uniform01,
    weibull,
)
from mdlab import families
from mdlab.diagnostics import ldp_probe, weak_probe
from mdlab.estimators import UniformPanel
from mdlab.families import _coupon_log_cdf, _coupon_log_sf, _coupon_series, _coupon_tilt

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


class _FixedPanel:
    """A one-trial panel whose every uniform is u."""

    def __init__(self, u):
        self.u = u

    def __len__(self):
        return 1

    def column(self, draw):
        return np.array([self.u])


def _flips_between(fam, n, lo, hi, side, panel):
    # with one trial, the count flips between lo and hi exactly when the
    # single draw of C_n lies between them
    below = fam.count_hits(n, lo, side, panel)
    above = fam.count_hits(n, hi, side, panel)
    return (below, above) == ((1, 0) if side == "upper" else (0, 1))


def test_classical_sampler_is_quantile_transform(fam_classical):
    from scipy.special import ndtri

    panel = UniformPanel(seed=5, start=0, stop=1)
    c = float(ndtri(panel.column(0)[0])) / 5.0
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


@pytest.mark.parametrize("n,m,prob", FROZEN_COUPON)
def test_coupon_cdf_frozen_fractions(n, m, prob):
    assert coupon_cdf_dp(n, m) == pytest.approx(float(prob), rel=1e-14)
    assert coupon_cdf_inclusion_exclusion(n, m) == pytest.approx(float(prob), rel=1e-15)


def test_coupon_cdf_edge_cases():
    assert coupon_cdf_dp(3, 2) == 0.0
    assert coupon_cdf_dp(1, 1) == 1.0
    assert coupon_cdf_inclusion_exclusion(1, 5) == 1.0
    with pytest.raises(ValueError):
        coupon_cdf_dp(0, 1)
    with pytest.raises(ValueError):
        coupon_cdf_dp(3, 10**9)  # over the cell budget


@given(n=st.integers(min_value=2, max_value=25), k=st.integers(min_value=0, max_value=30))
@settings(max_examples=60, deadline=None)
def test_coupon_dp_matches_inclusion_exclusion(n, k):
    m = n + k
    assert coupon_cdf_dp(n, m) == pytest.approx(
        coupon_cdf_inclusion_exclusion(n, m), rel=1e-9, abs=1e-300)


def test_coupon_log_sf_agrees_with_complement(fam_coupon):
    # n=50 stresses the alternating-series branch against the DP
    for m in (260, 300, 400):
        x = m / (50 * math.log(50)) - 1.0
        ls = fam_coupon.exact_log_upper_tail(50, x)
        dp = coupon_cdf_dp(50, math.ceil((1.0 + x) * 50 * math.log(50) - 1e-9) - 1)
        assert ls == pytest.approx(math.log1p(-dp), rel=1e-10)


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
            sf = -math.expm1(math.log(coupon_cdf_dp(n, m)))
            assert sf <= coupon_tail_bounds(n, c=c).upper_bound
            assert coupon_cdf_dp(n, m) <= coupon_tail_bounds(n, m=m).lower_bound


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


def _surjection_count(n, m):
    return sum((-1) ** k * math.comb(n, k) * (n - k) ** m for k in range(n + 1))


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
            count = _surjection_count(n, m)
            lower = coupon_cdf_inclusion_exclusion(n, m)
            assert lower == float(Fraction(count, n ** m))
            for upper, exact in ((False, lower), (True, float(Fraction(n ** m - count, n ** m)))):
                value, bound = _coupon_series(n, m, upper)
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
    certified = [_coupon_series(n, coupon_threshold_pair(n, x)[0], upper=False)[1]
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
    while _coupon_series(n, m, upper=False)[1] > families._SERIES_TARGET:
        m += 1
    return m


@pytest.mark.parametrize("n", [50, 200, 1000])
def test_coupon_tails_sum_to_one_across_the_switch(n):
    m_star = _series_switch(n)
    assert m_star > n + n // 2
    for m in (m_star - n // 2, m_star - 2, m_star - 1, m_star, m_star + 1, m_star + n):
        total = math.exp(_coupon_log_cdf(n, m)) + math.exp(_coupon_log_sf(n, m))
        assert total == pytest.approx(1.0, abs=1e-12), m


def _log_surjection_fraction(n, m):
    # log P(T_n <= m) from the exact integers; math.log takes big ints whole
    return math.log(_surjection_count(n, m)) - math.log(n ** m)


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
        assert _coupon_series(n, m, upper=False)[1] > families._SERIES_TARGET
        value = _coupon_log_cdf(n, m)
        assert value == pytest.approx(_log_surjection_fraction(n, m), abs=1e-10), m


def test_coupon_tilt_bound_holds_against_inclusion_exclusion():
    # every (n, m) the lower series leaves uncertified for n in 2..40, m
    # from n to n log n + 6n, on the grid of the series test: the tilt
    # certifies each, and its bound holds up to the oracle's 2u (1 + |log p|)
    u = 2.0 ** -53
    checked = 0
    for n in range(2, 41):
        for m in range(n, int(n * math.log(n) + 6 * n) + 1, max(1, n // 15)):
            if _coupon_series(n, m, upper=False)[1] <= families._SERIES_TARGET:
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
    assert _coupon_log_cdf(3, 150) == pytest.approx(math.log1p(-float(q)), rel=1e-14, abs=0.0)


def test_coupon_lower_tail_at_twenty_thousand_types(fam_coupon):
    # log P(T_20000 <= 138648) from scripts/derive_constants.py (mpmath
    # alternating sum); the lower series cannot certify it
    assert coupon_threshold_pair(20000, -0.3)[0] == 138648
    assert _coupon_series(20000, 138648, upper=False)[1] > families._SERIES_TARGET
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


def test_coupon_cdf_dp_below_the_normal_range_of_its_neighbours():
    # probabilities between 1e-308 and 1e-290: the plain DP rescales its
    # row and keeps them to full relative accuracy
    for n, m in ((700, 700), (1000, 1125)):
        ref = coupon_cdf_inclusion_exclusion(n, m)
        assert 1e-308 < ref < 1e-290
        assert coupon_cdf_dp(n, m) == pytest.approx(ref, rel=1e-12)


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
    # u = 0.2 < beta lands in the F branch: F^{-1}(0.2 F(1)/0.4) - t
    z = 0.37988549304172248
    lo, hi = z * (1.0 - 1e-12) - 1.0, z * (1.0 + 1e-12) - 1.0
    assert _flips_between(fam_replacement, 1, lo, hi, "lower", _FixedPanel(0.2))


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
        ReplacementParams(F, G, t=0.0, beta=0.4)
    with pytest.raises(ValueError):
        ReplacementParams(F, G, t=1.0, beta=1.0)
    with pytest.raises(ValueError):
        ReplacementParams(F, G, t=1.0, beta=-0.1)
    with pytest.raises(ValueError):
        ReplacementParams(std_normal(), G, t=1.0, beta=0.4)


def test_replacement_sampler_tracks_exact_cdf(fam_replacement):
    trials = 20000
    panel = UniformPanel(seed=29, start=0, stop=trials)
    hits = fam_replacement.count_hits(10, -0.3, "lower", panel)
    exact = math.exp(fam_replacement.exact_log_lower_tail(10, -0.3))
    assert abs(hits / trials - exact) < 4.0 * math.sqrt(exact * (1 - exact) / trials)


# --- rate function machinery -------------------------------------------------

def test_rate_function_rejects_negative_values():
    r = power_tail_rate(2.0)
    with pytest.raises(ValueError):
        r(float("nan"))
    assert r(1.0) == 0.0
    assert r(0.5) == math.inf  # below the domain wall
    assert r(2.0) == pytest.approx(1.5, rel=1e-14)


def test_shift_rate_moves_the_zero():
    r = shift_rate(power_tail_rate(2.0), 1.0)
    assert r(0.0) == 0.0
    assert r(1.0) == pytest.approx(1.5, rel=1e-12)
    assert r(-1.5) == math.inf


def test_rate_grid_violations_flag_broken_rates():
    from mdlab.families import RateFunction

    ok = RateFunction(fn=lambda x: x * x, domain_note="all reals")
    assert rate_grid_violations(ok, np.linspace(-2, 2, 41)) == []
    shifted = RateFunction(fn=lambda x: abs(x - 0.3), domain_note="all reals")
    assert rate_grid_violations(shifted, np.linspace(-2, 2, 41))
    dipping = RateFunction(fn=lambda x: abs(abs(x) - 1.0), domain_note="w shape")
    assert rate_grid_violations(dipping, np.linspace(-2, 2, 41))


def test_family_rate_grids_are_clean(fam_classical, fam_minima_exp,
                                     fam_gumbel_weibull2, fam_coupon,
                                     fam_replacement):
    grid = np.linspace(-2.0, 2.0, 41)
    for fam in (fam_classical, fam_minima_exp, fam_gumbel_weibull2,
                fam_coupon, fam_replacement):
        assert rate_grid_violations(fam.rate_ld, grid) == [], fam.name
        assert rate_grid_violations(fam.rate_md, grid) == [], fam.name


# --- spec strings ------------------------------------------------------------

@pytest.mark.parametrize("spec", CANONICAL_SPECS)
def test_family_spec_round_trip(spec):
    once = render_family_spec(parse_family_spec(spec))
    again = render_family_spec(parse_family_spec(once))
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
