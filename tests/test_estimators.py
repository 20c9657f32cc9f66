"""Log-domain helpers and the counter-based Monte Carlo engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlab import (
    UniformPanel,
    counter_uniforms,
    exponential,
    make_coupon,
    make_minima,
    mc_log_tail,
    parse_family_spec,
    stable_log_complement,
)

# (spec, n, x, side) with a hit rate well inside (0, 1) at 4096 trials;
# the five canonical families plus the gamma members, whose quantiles
# take the Newton path
PARTITION_CASES = [
    ("classical:sigma=1", 25, 0.2, "upper"),
    ("minima:exponential:1", 10, 0.1, "upper"),
    ("gumbel_maxima:weibull:2", 100, 0.1, "upper"),
    ("coupon", 5, 0.4, "upper"),
    ("replacement:exponential:1,exponential:2,t=1,beta=0.4", 10, -0.1, "lower"),
    ("gumbel_maxima:gamma:2", 100, 0.1, "upper"),
    ("replacement:gamma:2,exponential:2,t=1,beta=0.4", 10, -0.1, "lower"),
]


@given(log_p=st.floats(min_value=-745.0, max_value=-1e-12))
@settings(max_examples=200, deadline=None)
def test_stable_log_complement_against_mpmath(log_p):
    import mpmath as mp

    # mp.log(1 - exp(...)) would itself cancel for very negative inputs,
    # so the reference goes through log1p at high precision
    mp.mp.dps = 60
    ref = float(mp.log1p(-mp.exp(mp.mpf(log_p))))
    assert stable_log_complement(log_p) == pytest.approx(ref, rel=1e-13, abs=1e-300)


def test_stable_log_complement_edges():
    assert stable_log_complement(0.0) == -math.inf
    assert stable_log_complement(-math.inf) == 0.0
    # tiny p: log(1-p) = -p to first order
    assert stable_log_complement(-1e3) == pytest.approx(-math.exp(-1e3), rel=1e-12)
    with pytest.raises(ValueError):
        stable_log_complement(0.5)
    with pytest.raises(ValueError):
        stable_log_complement(math.nan)


@pytest.mark.parametrize("start,stop", [(0, 2000), (37, 1013)])
def test_panel_columns_equal_counter_uniforms_bitwise(start, stop):
    panel = UniformPanel(seed=5, start=start, stop=stop)
    for draw in (0, 1, 7, 1998):
        ref = counter_uniforms(5, np.arange(start, stop), draw)
        assert np.array_equal(panel.column(draw), ref)


def test_counter_uniforms_shape_and_range():
    u = counter_uniforms(seed=9, trials=np.arange(1000), draw=3)
    assert u.shape == (1000,)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    # same counters, same stream
    again = counter_uniforms(seed=9, trials=np.arange(1000), draw=3)
    assert np.array_equal(u, again)
    # any index change decorrelates
    assert not np.array_equal(u, counter_uniforms(seed=10, trials=np.arange(1000), draw=3))
    assert not np.array_equal(u, counter_uniforms(seed=9, trials=np.arange(1000), draw=4))
    assert not np.array_equal(u[:-1], counter_uniforms(seed=9, trials=np.arange(1, 1001), draw=3)[:-1])


def test_counter_uniforms_moments():
    u = counter_uniforms(seed=3, trials=np.arange(200000), draw=0)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


@pytest.mark.parametrize("spec,n,x,side", PARTITION_CASES,
                         ids=[case[0] for case in PARTITION_CASES])
def test_mc_partition_invariance(spec, n, x, side):
    fam = parse_family_spec(spec)
    base = mc_log_tail(fam, n=n, x=x, side=side, trials=4096, seed=11, partitions=1)
    assert 0 < base.hits < base.trials
    for parts in (2, 8):
        split = mc_log_tail(fam, n=n, x=x, side=side, trials=4096, seed=11, partitions=parts)
        assert split.log_p_hat == base.log_p_hat
        assert split.hits == base.hits


def test_mc_hits_exact_probability():
    # minima over Exp(1): P(C_10 >= 0.1) = e^-1
    fam = make_minima(exponential(1.0))
    est = mc_log_tail(fam, n=10, x=0.1, side="upper", trials=200000, seed=4)
    assert abs(est.log_p_hat - (-1.0)) <= 4.0 * est.stderr_log
    assert est.stderr_log == pytest.approx(
        math.sqrt((est.trials - est.hits) / (est.trials * est.hits)), rel=1e-12)
    assert est.p() == pytest.approx(math.exp(est.log_p_hat), rel=1e-15)


def test_mc_zero_hits_reports_upper_bound():
    # P(C_100 >= 0.4) = e^-40, unreachable at this budget
    fam = make_minima(exponential(1.0))
    est = mc_log_tail(fam, n=100, x=0.4, side="upper", trials=1000, seed=1)
    assert est.zero_hits
    assert est.hits == 0
    assert est.log_p_hat == -math.inf
    assert est.stderr_log == math.inf
    ref = math.log(1.0 - 0.05 ** (1.0 / 1000.0))
    assert est.log_p_upper95 == pytest.approx(ref, rel=1e-12)


def test_mc_rejects_bad_arguments():
    fam = make_coupon()
    with pytest.raises(ValueError):
        mc_log_tail(fam, n=5, x=0.4, side="sideways", trials=100)
    with pytest.raises(ValueError):
        mc_log_tail(fam, n=5, x=0.4, trials=0)
    with pytest.raises(ValueError):
        mc_log_tail(fam, n=5, x=0.4, trials=64, partitions=100)


@given(seed=st.integers(min_value=0, max_value=2**32), parts=st.sampled_from([2, 4]))
@settings(max_examples=12, deadline=None)
def test_mc_partition_invariance_property(seed, parts):
    fam = make_minima(exponential(1.0))
    a = mc_log_tail(fam, n=4, x=0.2, side="upper", trials=512, seed=seed, partitions=1)
    b = mc_log_tail(fam, n=4, x=0.2, side="upper", trials=512, seed=seed, partitions=parts)
    assert a.log_p_hat == b.log_p_hat
