"""Convergence probes, verdicts, and report serialization."""

import collections
import dataclasses
import io
import json
import math

import pytest

from mdlab import (
    ConvergenceReport,
    CSV_COLUMNS,
    Row,
    ScalingRejectedError,
    default_weak_grid,
    evaluate_verdict,
    ldp_probe,
    logpower_scaling,
    md_probe,
    power_scaling,
    read_json,
    render_svg,
    slope_identity_check,
    weak_probe,
    weak_sup_distances,
    write_csv,
    write_json,
    write_svg,
)
from mdlab.diagnostics import csv_text
from mdlab.scalings import boundary_regimes

LD_GRID = (100, 1000, 10**4, 10**5)


def _row(**kw):
    base = dict(family="synthetic", regime="ld", scaling="", n=10, x=1.0,
                log_p_exact=-10.0, log_p_mc=None, stderr_log=None, s_n=10.0,
                normalized_rate=1.0, rate_target=1.0, residual=0.0)
    base.update(kw)
    return Row(**base)


def test_verdict_pass_fail_inconclusive():
    shrinking = [_row(n=n, residual=r) for n, r in [(10, 0.3), (100, 0.1), (1000, 0.01)]]
    assert evaluate_verdict(shrinking, {"factor": 0.05}) == "pass"
    bouncing = [_row(n=n, residual=r) for n, r in [(10, 0.3), (100, 0.5), (1000, 0.01)]]
    assert evaluate_verdict(bouncing, {"factor": 0.05}) == "inconclusive"
    stuck = [_row(n=n, residual=r) for n, r in [(10, 0.3), (100, 0.4), (1000, 0.5)]]
    assert evaluate_verdict(stuck, {"factor": 0.05}) == "fail"
    shrinking_but_high = [_row(n=n, residual=r) for n, r in [(10, 3.0), (100, 1.0), (1000, 0.5)]]
    assert evaluate_verdict(shrinking_but_high, {"factor": 0.05}) == "inconclusive"


def test_verdict_tolerance_scales_with_target():
    rows = [_row(n=n, rate_target=9.0, residual=r) for n, r in [(10, 1.0), (100, 0.45)]]
    # tol = 0.05 (1 + 9) = 0.5, so 0.45 passes
    assert evaluate_verdict(rows, {"factor": 0.05}) == "pass"


def test_verdict_infinite_target_branch():
    walls = [_row(n=n, rate_target=math.inf, log_p_exact=-math.inf,
                  normalized_rate=math.inf, residual=math.nan) for n in (10, 100, 1000)]
    assert evaluate_verdict(walls, {}) == "pass"
    climbing = [_row(n=n, rate_target=math.inf, normalized_rate=v, residual=math.nan)
                for n, v in [(10, 5.0), (100, 9.0), (1000, 14.0)]]
    assert evaluate_verdict(climbing, {}) == "pass"
    sagging = [_row(n=n, rate_target=math.inf, normalized_rate=v, residual=math.nan)
               for n, v in [(10, 5.0), (100, 4.0), (1000, 3.0)]]
    assert evaluate_verdict(sagging, {}) == "fail"


def test_verdict_infinite_target_judges_finite_rates():
    def group(points):
        return [_row(n=n, rate_target=math.inf, log_p_exact=lp, normalized_rate=v,
                     residual=math.nan) for n, lp, v in points]

    # the coupon ld probe at x = -0.3 on n = 20..20000: a finite-n dip at
    # n = 200, then the rate grows past every earlier one
    dip = group([(20, -3.0, 1.042), (200, -5.0, 0.979), (2000, -9.9, 1.305),
                 (20000, -19.6, 1.978)])
    assert evaluate_verdict(dip, {}) == "inconclusive"
    # an impossible event at n = 2 agrees with a +inf rate and is skipped
    zero_first = group([(2, -math.inf, math.inf), (20, -3.0, 1.042),
                        (200, -7.0, 1.3), (2000, -9.9, 1.305)])
    assert evaluate_verdict(zero_first, {}) == "pass"
    zero_then_dip = [zero_first[0]] + dip
    assert evaluate_verdict(zero_then_dip, {}) == "inconclusive"
    climbs_then_falls = group([(2, -math.inf, math.inf), (20, -3.0, 1.0),
                               (200, -7.0, 2.0), (2000, -9.9, 1.5)])
    assert evaluate_verdict(climbs_then_falls, {}) == "fail"


def test_verdict_weak_groups_by_n():
    rows = [_row(regime="weak", n=n, x=x, residual=r)
            for n, x, r in [(10, 0.1, 0.04), (10, 0.2, 0.02),
                            (100, 0.1, 0.01), (100, 0.2, 0.003)]]
    assert evaluate_verdict(rows, {"factor": 0.05}) == "pass"


def test_ldp_probe_minima_is_exact(fam_minima_exp):
    report = ldp_probe(fam_minima_exp, [0.5, 2.0], LD_GRID)
    assert report.verdict == "pass"
    for row in report.rows:
        assert row.residual == 0.0
        assert row.normalized_rate == row.x
        assert row.s_n == float(row.n)
        assert row.log_p_mc is None
    assert report.regime == "ld" and report.scaling == ""


def test_ldp_probe_handles_lower_side(fam_replacement):
    report = ldp_probe(fam_replacement, [-0.5, 0.5], LD_GRID)
    assert report.verdict == "pass"
    lower = report.rows_for(-0.5)
    assert all(r.log_p_exact < 0 for r in lower)


def test_ldp_probe_attaches_mc(fam_minima_exp):
    report = ldp_probe(fam_minima_exp, [0.1], (10, 100, 10**4), trials=4000, seed=3)
    feasible = report.rows_for(0.1)[0]
    assert feasible.log_p_mc is not None
    assert feasible.stderr_log is not None
    # per-row substreams: a second run reproduces bit for bit
    again = ldp_probe(fam_minima_exp, [0.1], (10, 100, 10**4), trials=4000, seed=3)
    assert again.rows_for(0.1)[0].log_p_mc == feasible.log_p_mc


def test_md_probe_threshold_mapping(fam_classical):
    report = md_probe(fam_classical, power_scaling(0.5), [1.0], (10**3, 10**4, 10**5, 10**6))
    last = report.rows_for(1.0)[-1]
    # central family: threshold x / sqrt(a_n v_n) = n^(-1/4) at x = 1
    from scipy.special import log_ndtr

    t = 1.0 / (10**6) ** 0.25
    assert last.log_p_exact == pytest.approx(float(log_ndtr(-t * 1000.0)), rel=1e-12)
    assert last.s_n == pytest.approx((10**6) ** 0.5, rel=1e-12)
    assert last.normalized_rate == pytest.approx(0.5, abs=0.01)


def test_md_probe_rejects_inadmissible_scaling(fam_replacement):
    with pytest.raises(ScalingRejectedError, match="cond_alogn_to_0"):
        md_probe(fam_replacement, logpower_scaling(0.5), [0.5], LD_GRID)


def test_md_probe_boundary_regimes_fail(fam_gumbel_weibull2):
    r1, r2 = boundary_regimes()
    for regime in (r1, r2):
        report = md_probe(fam_gumbel_weibull2, regime.scaling, [1.0],
                          (100, 1000, 10**4, 10**5), enforce_admissible=False)
        assert report.verdict != "pass", regime.tag


def test_probes_call_a_record_rebuilt_with_replace(fam_replacement):
    # per-layer timing wraps these members through dataclasses.replace;
    # the probes must call the rebuilt record, not closures of the original
    members = ("exact_log_upper_tail", "exact_log_lower_tail", "speed", "count_hits")
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    fam = dataclasses.replace(
        fam_replacement, **{m: counted(m, getattr(fam_replacement, m)) for m in members})
    xs, ns = (-0.5, 0.5), (100, 1000, 10**5)
    mc = dict(trials=64, seed=1, partitions=2)
    for run in (lambda f: ldp_probe(f, xs, ns, **mc),
                lambda f: md_probe(f, power_scaling(0.5), xs, ns, **mc)):
        calls.clear()
        report = run(fam)
        # one exact tail per row on its side, one count per row and partition
        assert calls["exact_log_upper_tail"] == len(ns), report.regime
        assert calls["exact_log_lower_tail"] == len(ns), report.regime
        assert calls["count_hits"] == 2 * len(report.rows), report.regime
        assert calls["speed"] > 0, report.regime
        assert report.rows == run(fam_replacement).rows


def test_weak_probe_minima_exponential_is_exact(fam_minima_exp):
    report = weak_probe(fam_minima_exp, (100, 10**4))
    assert report.verdict == "pass"
    sups = weak_sup_distances(report)
    assert sups[-1][1] < 1e-12


def test_weak_probe_grid_rules(fam_minima_exp):
    with pytest.raises(ValueError, match="41"):
        weak_probe(fam_minima_exp, (100, 10**4), x_grid=[0.1, 0.2, 0.3])
    # a grid stuck in the bulk misses both tails
    bad = [0.3 + 0.01 * i for i in range(45)]
    with pytest.raises(ValueError):
        weak_probe(fam_minima_exp, (100, 10**4), x_grid=bad)


def test_default_weak_grid_covers_both_tails(fam_coupon):
    grid = default_weak_grid(fam_coupon)
    assert len(grid) >= 41
    assert fam_coupon.limit_cdf(grid[0]) <= 0.005
    assert fam_coupon.limit_cdf(grid[-1]) >= 0.995


def test_probe_input_validation(fam_minima_exp):
    with pytest.raises(ValueError):
        ldp_probe(fam_minima_exp, [0.5], (100, 1000))  # too few sizes
    with pytest.raises(ValueError):
        ldp_probe(fam_minima_exp, [0.5], (100, 1000, 10**4))  # < 3 decades
    with pytest.raises(ValueError):
        ldp_probe(fam_minima_exp, [0.5, 0.5], LD_GRID)  # duplicate x
    with pytest.raises(ValueError):
        ldp_probe(fam_minima_exp, [0.0], LD_GRID)  # x = 0 is not a tail
    with pytest.raises(ValueError):
        ldp_probe(fam_minima_exp, [math.nan], LD_GRID)


def test_slope_identity_all_families(fam_classical, fam_minima_exp,
                                     fam_gumbel_weibull2, fam_coupon,
                                     fam_replacement):
    for fam in (fam_classical, fam_minima_exp, fam_gumbel_weibull2,
                fam_coupon, fam_replacement):
        check = slope_identity_check(fam)
        assert check.ok, (fam.name, check)
    with pytest.raises(ValueError):
        slope_identity_check(fam_classical, h=0.1)


def test_csv_shape(fam_minima_exp):
    report = ldp_probe(fam_minima_exp, [0.5], LD_GRID)
    text = csv_text(report)
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(report.rows)
    first = lines[1].split(",")
    assert first[0] == "minima:exponential:1.0"
    assert first[6] == "" and first[7] == ""  # no MC columns attached
    assert float(first[11]) == 0.0


def test_csv_renders_infinities(fam_minima_exp):
    report = ldp_probe(fam_minima_exp, [-0.5, 0.5], LD_GRID)
    text = csv_text(report)
    assert "-inf" in text  # lower tail of a nonnegative variable
    buf = io.StringIO()
    write_csv([report, report], buf)
    assert buf.getvalue().count(",".join(CSV_COLUMNS)) == 1


def test_json_round_trip(tmp_path, fam_replacement):
    report = md_probe(fam_replacement, power_scaling(0.5), [0.5], LD_GRID)
    path = tmp_path / "report.json"
    write_json(report, path)
    back = read_json(path)
    assert len(back) == 1
    assert back[0] == report
    payload = json.loads(path.read_text())
    assert set(payload) == {"reports"}


def test_json_rejects_foreign_payload(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"rows": []}))
    with pytest.raises(ValueError):
        read_json(path)


def test_svg_structure(tmp_path, fam_gumbel_weibull2):
    report = ldp_probe(fam_gumbel_weibull2, [0.5, 1.0], LD_GRID)
    svg = render_svg(report)
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 2
    assert ">n</text>" in svg and "|residual|" in svg
    assert "gumbel_maxima" in svg
    path = tmp_path / "plot.svg"
    write_svg(report, path)
    assert path.read_text() == svg


def test_svg_needs_finite_residuals():
    rows = (_row(residual=math.nan),)
    report = ConvergenceReport(family="f", regime="ld", scaling="", rows=rows,
                               tolerances={}, verdict="pass", notes=())
    with pytest.raises(ValueError):
        render_svg(report)


def test_weak_report_rows_reuse_rate_columns(fam_coupon):
    report = weak_probe(fam_coupon, (50, 200))
    row = report.rows[0]
    assert 0.0 <= row.normalized_rate <= 1.0  # finite-n cdf
    assert 0.0 <= row.rate_target <= 1.0      # limit cdf
    assert row.residual == pytest.approx(row.normalized_rate - row.rate_target, rel=1e-14)
    sups = weak_sup_distances(report)
    assert sups[0][1] > sups[-1][1]
