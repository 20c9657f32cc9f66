"""Tail machinery for Gumbel-domain maxima: w, L, m_n, h_n, ell, Potter.

Weibull closed forms anchor everything: sf = exp(-x^a) gives
m_n = (log n)^(1/a) and h_n = a log n exactly, and L = 1/a.
"""

import dataclasses
import math

import numpy as np
import pytest

from mdlab import (
    GumbelMdaProfile,
    MdaViolationError,
    declared_profile,
    default_tail_grid,
    ell_probe,
    estimate_rv_index,
    exponential,
    gamma,
    lemma_battery,
    logistic,
    lognormal,
    make_gumbel_maxima,
    normalizing_rate,
    std_normal,
    uniform01,
    weibull,
)
from mdlab.rvtoolkit import (
    characteristic_level,
    feller_probe,
    hn_trend,
    least_valid_n,
    potter_check,
    representation_identity,
    slowly_varying_part,
    w,
    w_ratio_stability,
)


def test_declared_indices():
    assert declared_profile(std_normal()).mu == 2.0
    assert declared_profile(weibull(3.0)).mu == 3.0
    assert declared_profile(exponential(2.0)).mu == 1.0
    assert declared_profile(gamma(4.0)).mu == 1.0
    assert declared_profile(logistic()).mu == 1.0


def test_out_of_domain_members_raise():
    with pytest.raises(MdaViolationError, match="mu = 0"):
        declared_profile(lognormal())
    with pytest.raises(MdaViolationError, match="endpoint"):
        declared_profile(uniform01())


def test_a_law_is_admitted_by_its_stated_facts_not_its_name():
    # a law built outside the catalog is a profile through its own
    # tail_index and slowly_varying, and a gumbel_maxima family with it
    custom = dataclasses.replace(weibull(2.0), name="custom")
    prof = declared_profile(custom)
    assert prof.mu == 2.0 and prof.L_closed_form(7.0) == 0.5
    assert make_gumbel_maxima(custom).label == "gumbel_maxima:custom:2.0"
    with pytest.raises(MdaViolationError, match="^no declared tail index for 'custom'$"):
        declared_profile(dataclasses.replace(custom, tail_index=None))
    with pytest.raises(MdaViolationError, match="^custom has tail index mu = 0;"):
        declared_profile(dataclasses.replace(custom, tail_index=0.0))
    # the endpoint rule comes first, whatever index the law states
    with pytest.raises(MdaViolationError, match="^uniform01 has a finite right endpoint;"):
        make_gumbel_maxima(dataclasses.replace(uniform01(), tail_index=1.0))
    with pytest.raises(MdaViolationError, match="positive and finite"):
        declared_profile(dataclasses.replace(custom, tail_index=-1.0))


@pytest.mark.parametrize("a", [1.0, 2.0, 3.0])
def test_weibull_mn_hn_closed_forms(a):
    prof = declared_profile(weibull(a))
    for n in (55, 1000, 10**6):
        assert characteristic_level(prof.dist, n) == pytest.approx(
            math.log(n) ** (1.0 / a), rel=1e-9)
        assert normalizing_rate(prof.dist, n) == pytest.approx(a * math.log(n), rel=1e-9)
    assert np.max(np.abs(hn_trend(prof, [100, 10**4, 10**8]) - 1.0)) < 1e-12


def test_weibull2_anchor_digits():
    d = weibull(2.0)
    assert characteristic_level(d, 55) == pytest.approx(2.001832456833606, abs=1e-12)
    assert normalizing_rate(d, 55) == pytest.approx(2.0 * math.log(55.0), rel=1e-12)


def test_normal_hn_approach_is_slow_but_monotone():
    prof = declared_profile(std_normal())
    devs = np.abs(hn_trend(prof, [10**4, 10**8, 10**12]) - 1.0)
    assert devs[0] == pytest.approx(0.20080851811210365, rel=1e-10)
    assert devs[2] == pytest.approx(0.08712901896725456, rel=1e-10)
    assert devs[0] > devs[1] > devs[2]


def test_normal_ell_probe_lands_near_half():
    final = float(ell_probe(declared_profile(std_normal()))[-1])
    assert final == pytest.approx(0.5477225263906906, rel=1e-10)
    assert 0.4 <= final <= 0.6


def test_normal_slowly_varying_part_anchor():
    prof = declared_profile(std_normal())
    # L(x) = (sf/pdf) x^(mu-1); mpmath reference for x = 6
    assert slowly_varying_part(prof, 6.0) == pytest.approx(0.97426596538120477, rel=1e-12)
    assert w(std_normal(), 6.0) == pytest.approx(0.97426596538120477 / 6.0, rel=1e-12)


def test_exponential_w_is_constant():
    d = exponential(2.0)
    for x in (0.5, 3.0, 40.0):
        assert w(d, x) == pytest.approx(0.5, rel=1e-12)
    assert w_ratio_stability(d, 10**6) == pytest.approx(1.0, abs=1e-12)


def test_representation_identity_closed_forms():
    for dist in (exponential(1.0), weibull(2.0), logistic()):
        assert representation_identity(declared_profile(dist)) <= 1e-9


def test_feller_ratio_decays_for_normal():
    _, ratios = feller_probe(declared_profile(std_normal()))
    assert ratios[-1] < 1e-3
    assert ratios[-1] < ratios[0]


def test_feller_probe_stops_at_its_x_cap_for_a_tiny_index():
    # at mu = 0.05, L(x)/x^mu = 20 x^-0.05 is still 2e-2 when x passes 1e60,
    # so the grid stops there, well before its 512 points
    grid, ratios = feller_probe(declared_profile(weibull(0.05)))
    assert grid[-1] < 1e60 < grid[-1] * 1.35
    assert len(grid) < 512 and ratios[-1] > 1e-3
    named = {c.name: c for c in lemma_battery(weibull(0.05)).checks}
    assert not named["feller_ratio_decays"].ok
    assert "to 2.011e-02" in named["feller_ratio_decays"].detail


def test_potter_bounds_on_default_grid():
    for dist in (std_normal(), weibull(2.0), exponential(1.0)):
        prof = declared_profile(dist)
        grid = default_tail_grid(dist, 16)
        pairs = list(zip(grid, grid)) + list(zip(grid[:-1], grid[1:]))
        assert potter_check(prof, A=1.5, delta=0.5, pairs=pairs).ok


def test_index_estimation_recovers_weibull():
    est = estimate_rv_index(weibull(2.0), default_tail_grid(weibull(2.0)))
    assert not est.mda_violation
    assert est.mu_hat == pytest.approx(2.0, abs=1e-10)


def test_index_estimation_flags_lognormal():
    est = estimate_rv_index(lognormal(), default_tail_grid(lognormal()))
    assert est.mda_violation
    assert est.mu_hat == pytest.approx(0.044256784062648546, abs=1e-8)
    assert est.mu_hat < 0.05


def test_least_valid_n():
    assert least_valid_n(std_normal()) == 3
    assert least_valid_n(logistic()) == 3
    assert least_valid_n(exponential(1.0)) == 2


def test_tail_helpers_reject_arguments_off_their_domain():
    prof = declared_profile(weibull(2.0))
    with pytest.raises(ValueError, match="probed at x > 0"):
        slowly_varying_part(prof, 0.0)
    with pytest.raises(ValueError, match="needs n >= 2"):
        characteristic_level(weibull(2.0), 1)
    with pytest.raises(ValueError, match=r"m_n <= 0 \(first usable n is 3\)"):
        normalizing_rate(std_normal(), 2)
    with pytest.raises(ValueError, match="needs A >= 1"):
        potter_check(prof, 0.5, 0.1, [(10.0, 20.0)])
    with pytest.raises(ValueError, match="Potter pairs must be positive"):
        potter_check(prof, 2.0, 0.1, [(0.0, 20.0)])
    with pytest.raises(ValueError, match="at least 4 grid points"):
        estimate_rv_index(weibull(2.0), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="grid must be positive"):
        estimate_rv_index(weibull(2.0), [-1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match="no closed-form L"):
        representation_identity(declared_profile(std_normal()))


def test_profile_rejects_bad_mu():
    with pytest.raises(ValueError):
        GumbelMdaProfile(std_normal(), mu=-1.0)


@pytest.mark.parametrize("dist", [
    std_normal(), weibull(1.0), weibull(2.0), weibull(3.0),
    exponential(1.0), gamma(3.0), logistic(),
], ids=lambda d: d.name + str(d.params))
def test_lemma_battery_passes_in_domain(dist):
    battery = lemma_battery(dist)
    assert battery.mda_ok
    assert battery.ok, [c for c in battery.checks if not c.ok]
    # the representation check only runs when L has a closed form
    has_L = declared_profile(dist).L_closed_form is not None
    assert len(battery.checks) == (6 if has_L else 5)


def test_lemma_battery_flags_lognormal():
    battery = lemma_battery(lognormal())
    assert not battery.mda_ok
    assert not battery.ok
    assert battery.mu is None
    named = {c.name: c for c in battery.checks}
    assert not named["index_estimate"].ok
    assert "mu_hat" in named["index_estimate"].detail


def test_lemma_battery_flags_uniform01():
    battery = lemma_battery(uniform01())
    assert not battery.mda_ok
    assert not battery.ok
