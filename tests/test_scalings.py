"""Scaling sequences a_n and the admissibility verdicts."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlab import (
    ScalingFamily,
    ScalingRejectedError,
    boundary_regimes,
    evaluate,
    logpower_scaling,
    parse_scaling_spec,
    power_scaling,
    render_scaling_spec,
    table_scaling,
    validate,
)

GRID = (100, 1000, 10**4, 10**5)


def test_power_evaluate():
    s = power_scaling(0.5)
    assert evaluate(s, 100, lambda n: float(n)) == pytest.approx(0.1, rel=1e-12)
    assert evaluate(s, 10**6, lambda n: float(n)) == pytest.approx(1e-3, rel=1e-12)


def test_logpower_evaluate():
    s = logpower_scaling(1.0)
    v = math.exp(1.0)
    assert evaluate(s, 7, lambda n: v) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ScalingRejectedError):
        evaluate(s, 2, lambda n: 1.0)  # log v = 0 is off-domain


def test_table_scaling_lookup():
    s = table_scaling({10: 0.5, 100: 0.25})
    assert evaluate(s, 10, lambda n: float(n)) == 0.5
    with pytest.raises(ScalingRejectedError):
        evaluate(s, 11, lambda n: float(n))


@pytest.mark.parametrize("gamma", [0.0, 1.0, -0.2, 1.5])
def test_power_gamma_domain(gamma):
    with pytest.raises(ValueError):
        power_scaling(gamma)


def test_logpower_gamma_domain():
    with pytest.raises(ValueError):
        logpower_scaling(0.0)
    logpower_scaling(2.0)  # any positive exponent is fine


def test_spec_round_trips(tmp_path):
    for spec in ("pow:0.5", "logpow:0.25"):
        once = render_scaling_spec(parse_scaling_spec(spec))
        assert render_scaling_spec(parse_scaling_spec(once)) == once
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"10": 0.5, "100": 0.25}))
    s = parse_scaling_spec(f"table:{path}")
    assert s.kind == "table" and s.table[100] == 0.25
    assert render_scaling_spec(s) == f"table:{path}"


def test_sourceless_table_has_no_spec():
    with pytest.raises(ValueError):
        render_scaling_spec(table_scaling({10: 0.5}))


@pytest.mark.parametrize("bad", ["pow", "pow:", "nope:0.5", "table:/does/not/exist.json"])
def test_bad_specs_raise(bad):
    with pytest.raises((ValueError, OSError)):
        parse_scaling_spec(bad)


def test_validate_power_is_exact(fam_minima_exp):
    report = validate(power_scaling(0.5), fam_minima_exp, GRID)
    assert report.ok
    assert report.cond_a_to_0.method == "exact"
    assert report.cond_av_to_inf.method == "exact"
    assert report.cond_alogn_to_0 is None
    assert report.failures() == []


def test_validate_flags_replacement_logpow(fam_replacement):
    report = validate(logpower_scaling(0.5), fam_replacement, GRID)
    assert not report.ok
    assert report.cond_alogn_to_0 is not None
    assert not report.cond_alogn_to_0.ok
    assert any("cond_alogn_to_0" in f for f in report.failures())


def test_validate_accepts_replacement_power(fam_replacement):
    report = validate(power_scaling(0.5), fam_replacement, GRID)
    assert report.ok
    assert report.cond_alogn_to_0 is not None
    assert report.cond_alogn_to_0.ok


def test_validate_needs_three_decades(fam_minima_exp):
    with pytest.raises(ValueError):
        validate(power_scaling(0.5), fam_minima_exp, (100, 1000, 10000))
    with pytest.raises(ValueError):
        validate(power_scaling(0.5), fam_minima_exp, (100, 100, 10**6))
    with pytest.raises(ValueError):
        validate(power_scaling(0.5), fam_minima_exp, (100, 10**6))


def test_boundary_regimes_fail_their_condition(fam_minima_exp):
    r1, r2 = boundary_regimes()
    assert r1.tag == "R1" and r2.tag == "R2"
    rep1 = validate(r1.scaling, fam_minima_exp, GRID)
    assert not rep1.ok
    assert not getattr(rep1, r1.violates).ok
    rep2 = validate(r2.scaling, fam_minima_exp, GRID)
    assert not rep2.ok
    assert not getattr(rep2, r2.violates).ok
    # each regime breaks exactly the condition it is tagged with
    assert getattr(rep1, "cond_a_to_0").ok
    assert getattr(rep2, "cond_av_to_inf").ok


def test_table_scaling_can_pass_validation(fam_minima_exp):
    table = {n: n ** -0.5 for n in GRID}
    report = validate(table_scaling(table), fam_minima_exp, GRID)
    assert report.ok
    assert report.cond_a_to_0.method == "trend"


def test_scaling_family_rejects_bad_tables():
    with pytest.raises(ValueError):
        table_scaling({})
    with pytest.raises(ValueError):
        table_scaling({10: -0.5})
    with pytest.raises(ValueError):
        ScalingFamily(kind="nope", gamma=0.5)


def test_scaling_family_needs_a_finite_gamma():
    with pytest.raises(ValueError, match="needs a finite gamma"):
        ScalingFamily("pow", gamma=math.nan)


def test_evaluate_rejects_n_and_speeds_off_its_domain():
    s = power_scaling(0.5)
    with pytest.raises(ScalingRejectedError, match="n must be a positive integer"):
        evaluate(s, 0, lambda n: float(n))
    with pytest.raises(ScalingRejectedError, match="cannot scale it"):
        evaluate(s, 10, lambda n: 0.0)


@given(gamma=st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=40, deadline=None)
def test_any_interior_power_is_admissible_for_minima(gamma, fam_minima_exp):
    report = validate(power_scaling(gamma), fam_minima_exp, (100, 1000, 10**4, 10**5))
    assert report.ok
