"""Each correctness check of the benchmark, fed a deliberately wrong value.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks as K  # noqa: E402
import oracles as O  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402


def test_coupon_cdf_off_by_1e8_fails():
    p = float(O.coupon_cdf(12, 40))
    assert K.coupon("row", math.log(p), p) is None
    assert K.coupon("row", math.log(p + 1e-8), p) is not None


def test_coupon_oracle_small_cases():
    # two types: all m draws the same type has probability 2^(1-m)
    for m in range(2, 12):
        assert O.coupon_cdf(2, m) == 1 - O.Fraction(2, 2**m)
    assert O.coupon_cdf(5, 4) == 0
    assert O.coupon_cdf(3, 3) == O.Fraction(6, 27)


def test_closed_form_off_by_1e8_relative_fails():
    ref = O.closed_form_log_p(W.CLASSICAL, "ld", "", 1000, 0.5)
    assert K.closed_form("row", ref, ref) is None
    assert K.closed_form("row", ref * (1 + 1e-8), ref) is not None
    assert K.closed_form("row", -math.inf, ref) is not None
    assert K.closed_form("row", -math.inf, -math.inf) is None


def test_closed_form_references():
    # sqrt(n) C_n is standard normal, so P(C_n >= 0) = 1/2 at every n
    assert O.closed_form_log_p(W.CLASSICAL, "ld", "", 10, 1e-300) == pytest.approx(math.log(0.5))
    # the minimum of n Exp(1) is Exp(n)
    assert O.closed_form_log_p(W.MINIMA, "ld", "", 100, 0.5) == pytest.approx(-50.0, rel=1e-15)
    # m_n of gamma(2) solves sf(m_n) = (1 + m) e^{-m} = 1/n
    gm = O.CLOSED_FORMS[W.GAMMA_MAX]
    m = gm.m(1000)
    assert float((1 + m) * O.mp.exp(-m)) == pytest.approx(1e-3, rel=1e-30)
    # weibull(2) maxima: m_n = sqrt(log n), speed 2 log n
    wm = O.CLOSED_FORMS[W.WEIBULL_MAX]
    assert float(wm.speed(10**4)) == pytest.approx(2 * math.log(10**4), rel=1e-15)
    # replacement: P(C_n <= 0) = beta at every n
    assert O.closed_form_log_p(W.REPLACEMENT_EXP, "weak", "", 7, -1e-300) == pytest.approx(
        math.log(0.4))


def test_mc_row_five_stderr_away_fails():
    exact = math.log(0.01)
    se = 0.02
    assert K.mc_row("row", exact, exact + 3 * se, se, 10**5) is None
    assert K.mc_row("row", exact, exact + 5 * se, se, 10**5) is not None
    assert K.mc_row("row", exact, exact - 5 * se, se, 10**5) is not None
    assert K.mc_row("row", exact, None, None, 10**5) is not None


def test_mc_zero_hit_row_needs_a_rare_event():
    assert K.mc_row("row", math.log(5e-5), -math.inf, math.inf, 10**5) is None
    assert K.mc_row("row", math.log(2e-4), -math.inf, math.inf, 10**5) is not None
    # a rare row with a few hits is not judged by the stderr rule
    assert K.mc_row("row", math.log(1e-4), math.log(3e-4), 0.6, 10**4) is None


def test_exit_codes():
    assert K.exit_code("rejected", 1, expect=1) is None
    assert K.exit_code("rejected", 2, expect=1) is not None
    assert K.exit_code("verify", 0, report_verdict="pass") is None
    assert K.exit_code("verify", 0, report_verdict="fail") is not None
    assert K.exit_code("verify", 3, report_verdict="inconclusive") is None
    assert K.exit_code("verify", 3, report_verdict=None) is not None


def test_merged_rows_and_weak_sup_and_verdict():
    assert K.merged_rows("report", 30, [10, 20]) is None
    assert K.merged_rows("report", 29, [10, 20]) is not None
    assert K.weak_sup("minima", 1e-16) is None
    assert K.weak_sup("minima", 1e-10) is not None
    assert K.verdict("rep", "pass", "pass") is None
    assert K.verdict("rep", "pass", "inconclusive") is not None


def test_partition_values_must_be_bit_identical():
    a = (math.log(0.25), 0.01, math.nan)
    assert K.same_values("mc", a, a) is None
    assert K.same_values("mc", a, (math.nextafter(a[0], 0.0), 0.01, math.nan)) is not None
    assert K.same_values("mc", a, a[:2]) is not None


def test_json_row_altered_after_writing_fails(tmp_path):
    import worker
    from mdlab import diagnostics as D
    from mdlab import families as F

    rep = D.ldp_probe(F.parse_family_spec(W.MINIMA), (0.5,), (100, 1000, 10**4, 10**5))
    path = tmp_path / "rep.json"
    D.write_json(rep, str(path))
    back = D.read_json(str(path))[0]
    assert K.same_values("read-back", worker.row_values(rep), worker.row_values(back)) is None
    payload = json.loads(path.read_text())
    payload["reports"][0]["rows"][2]["log_p_exact"] *= 1 + 1e-12
    path.write_text(json.dumps(payload))
    back = D.read_json(str(path))[0]
    assert K.same_values("read-back", worker.row_values(rep), worker.row_values(back)) is not None
    # a stored verdict that its rows do not support is caught by re-judging
    payload["reports"][0]["verdict"] = "fail"
    path.write_text(json.dumps(payload))
    back = D.read_json(str(path))[0]
    assert K.verdict("rep", back.verdict, D.evaluate_verdict(back.rows, back.tolerances))


def _report(family, regime, scaling, rows):
    return {"family": family, "regime": regime, "scaling": scaling, "rows": rows}


def test_check_exact_rows_catches_a_wrong_closed_form_row():
    rows = [[n, 0.5, O.closed_form_log_p(W.WEIBULL_MAX, "md", "pow:0.5", n, 0.5), None, None]
            for n in (1000, 10**4)]
    good = [_report(W.WEIBULL_MAX, "md", "pow:0.5", rows)]
    assert run.check_exact_rows(good, 0, "regimes")[0] == []
    rows[1][2] += 1e-6
    assert len(run.check_exact_rows(good, 0, "regimes")[0]) == 1


def test_check_exact_rows_catches_a_wrong_coupon_row():
    p = O.coupon_row_prob("ld", "", 20, -0.3)
    rows = [[20, -0.3, math.log(p), None, None]]
    good = [_report("coupon", "ld", "", rows)]
    assert run.check_exact_rows(good, 0, "regimes")[0] == []
    rows[0][2] = math.log(p + 1e-8)
    assert len(run.check_exact_rows(good, 0, "regimes")[0]) == 1


def test_check_exact_rows_applies_the_mc_rule_on_mc():
    family, regime, xs, ns, trials = W.MC_PROBES[1]  # classical md, large panel
    lp = O.closed_form_log_p(family, regime, "pow:0.5", ns[0], xs[0])
    se = math.sqrt((1 - math.exp(lp)) / (trials * math.exp(lp)))
    rows = [[ns[0], xs[0], lp, lp + 5 * se, se]]
    reps = [_report(family, regime, "pow:0.5", rows)]
    assert len(run.check_exact_rows(reps, 0, "mc")[0]) == 1
    rows[0][3] = lp + 1 * se
    assert run.check_exact_rows(reps, 0, "mc")[0] == []


def test_inputs_depend_on_the_seed_only():
    for name in W.WORKLOADS:
        assert W.make_inputs(name, 3) == W.make_inputs(name, 3)
        assert W.make_inputs(name, 3) != W.make_inputs(name, 4)


def test_tracer_keeps_results_and_counts_uniforms():
    import worker
    from mdlab import estimators as E
    from mdlab import families as F

    fam = F.parse_family_spec(W.COUPON)
    tracer = worker.Tracer()
    traced = tracer.family(fam)
    plain = E.mc_log_tail(fam, 20, 0.5, "upper", 500, seed=9)
    seen = E.mc_log_tail(traced, 20, 0.5, "upper", 500, seed=9)
    assert dataclasses.astuple(plain) == dataclasses.astuple(seen)
    assert tracer.count["estimators.uniforms_drawn"] == 500 * 19
    assert tracer.time["families.count_hits.coupon_s"] > 0.0
