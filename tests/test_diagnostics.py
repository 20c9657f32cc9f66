"""Convergence probes, verdicts, and report serialization."""

import collections
import csv
import dataclasses
import io
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from mdlab.diagnostics import _row_seed
from mdlab.estimators import mc_log_tail
from mdlab.scalings import boundary_regimes, evaluate, render_scaling_spec

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
    levels = collections.defaultdict(list)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            if name.startswith("exact_log"):
                levels[name].append(args[1])
            return fn(*args)
        return wrapper

    fam = dataclasses.replace(
        fam_replacement, **{m: counted(m, getattr(fam_replacement, m)) for m in members})
    xs, ns = (-0.5, -0.2, 0.2, 0.5), (100, 1000, 10**5)
    sides = {"exact_log_lower_tail": xs[:2], "exact_log_upper_tail": xs[2:]}
    mc = dict(trials=64, seed=1, partitions=2)
    for run in (lambda f: ldp_probe(f, xs, ns, **mc),
                lambda f: md_probe(f, power_scaling(0.5), xs, ns, **mc)):
        calls.clear()
        levels.clear()
        report = run(fam)
        # one exact-tail call per n and side, holding that side's two
        # thresholds x / scale; one count per row and partition
        for name, side_xs in sides.items():
            assert calls[name] == len(ns), (report.regime, name)
            for thresholds in levels[name]:
                assert isinstance(thresholds, list) and len(thresholds) == 2
                scales = [x / t for x, t in zip(side_xs, thresholds)]
                assert scales[0] == pytest.approx(scales[1], rel=1e-12) and scales[0] > 0.0
                if report.regime == "ld":
                    assert thresholds == list(side_xs)
        assert calls["count_hits"] == 2 * len(report.rows), report.regime
        assert calls["speed"] > 0, report.regime
        assert report.rows == run(fam_replacement).rows
    # the weak probe reads v_n and takes the whole grid in one lower-tail
    # call per n
    calls.clear()
    report = weak_probe(fam, ns)
    assert calls == {"exact_log_lower_tail": len(ns), "speed": len(ns)}
    assert report.rows == weak_probe(fam_replacement, ns).rows


def _reference_rows(fam, regime, xs, ns, scaling=None, trials=0, seed=0, partitions=1):
    """Probe rows built one (x, n) at a time from float tail calls."""
    pairs = ([(x, n) for n in ns for x in xs] if regime == "weak"
             else [(x, n) for x in xs for n in ns])
    rows = []
    for x, n in pairs:
        v = fam.speed(n)
        if regime == "weak":
            threshold = x / (math.sqrt(v) if fam.central else v)
            log_p = fam.exact_log_lower_tail(n, threshold)
            rows.append(Row(fam.label, "weak", "", n, x, log_p, None, None, v,
                            math.exp(log_p), fam.limit_cdf(x),
                            math.exp(log_p) - fam.limit_cdf(x)))
            continue
        side = "upper" if x > 0.0 else "lower"
        tail = fam.exact_log_upper_tail if side == "upper" else fam.exact_log_lower_tail
        if regime == "ld":
            threshold, s_n, target = x, v, fam.rate_ld(x)
            log_p = tail(n, threshold)
            rate = -log_p / v
        else:
            a = evaluate(scaling, n, fam.speed)
            av = a * v
            threshold = x / (math.sqrt(av) if fam.central else av)
            s_n, target = 1.0 / a, fam.rate_md(x)
            log_p = tail(n, threshold)
            rate = -log_p * a
        mc = stderr = None
        if trials:
            est = mc_log_tail(fam, n, threshold, side, trials,
                              _row_seed(seed, fam.label, n, x, side), partitions)
            mc, stderr = est.log_p_hat, est.stderr_log
        rows.append(Row(fam.label, regime, render_scaling_spec(scaling) if scaling else "",
                        n, x, log_p, mc, stderr, s_n, rate, target,
                        rate - target if math.isfinite(target) else math.nan))
    return tuple(rows)


@pytest.mark.parametrize("fam_name, ns", [
    ("fam_classical", (100, 1000, 10**5)),
    ("fam_minima_exp", (10, 100, 10**4)),
    ("fam_minima_uniform", (10, 100, 10**4)),
    ("fam_gumbel_weibull2", (100, 1000, 10**5)),
    ("fam_coupon", (2, 20, 2000)),
    ("fam_replacement", (10, 100, 10**4)),
])
def test_probe_rows_match_a_per_row_float_loop(request, fam_name, ns):
    fam = request.getfixturevalue(fam_name)
    xs = (-0.5, -0.2, 0.2, 0.5)
    scaling = power_scaling(0.5)
    assert repr(ldp_probe(fam, xs, ns).rows) == repr(_reference_rows(fam, "ld", xs, ns))
    for partitions in (1, 3):
        mc = dict(trials=64, seed=5, partitions=partitions)
        assert (repr(ldp_probe(fam, xs, ns, **mc).rows)
                == repr(_reference_rows(fam, "ld", xs, ns, **mc)))
        assert (repr(md_probe(fam, scaling, xs, ns, enforce_admissible=False, **mc).rows)
                == repr(_reference_rows(fam, "md", xs, ns, scaling, **mc)))
    grid = default_weak_grid(fam)
    assert (repr(weak_probe(fam, ns[1:], grid).rows)
            == repr(_reference_rows(fam, "weak", grid, ns[1:])))


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


def _reference_weak_grid(fam):
    # the grid with all 200 halvings of each bisection
    def invert(p):
        lo, hi = -1.0, 1.0
        while fam.limit_cdf(lo) > p:
            lo *= 2.0
        while fam.limit_cdf(hi) < p:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if fam.limit_cdf(mid) < p:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    a, b = invert(0.004), invert(0.996)
    step = (b - a) / 60
    return [a + i * step for i in range(61)]


@pytest.mark.parametrize("fam", ["fam_classical", "fam_minima_exp", "fam_gumbel_weibull2",
                                 "fam_coupon", "fam_replacement"])
def test_default_weak_grid_stops_bisecting_at_the_fixed_point(request, fam):
    fam = request.getfixturevalue(fam)
    calls = []

    def limit_cdf(x):
        calls.append(x)
        return fam.limit_cdf(x)

    grid = default_weak_grid(dataclasses.replace(fam, limit_cdf=limit_cdf))
    assert [x.hex() for x in grid] == [x.hex() for x in _reference_weak_grid(fam)]
    # 200 halvings per end would make at least 400 calls
    assert len(calls) < 200


@pytest.mark.parametrize("fam,call,match", [
    ("fam_minima_exp", lambda f: ldp_probe(f, [0.5], []), "n_list must not be empty"),
    ("fam_minima_exp", lambda f: ldp_probe(f, [0.5], (100, 10**4, 1000, 10**5)),
     r"n_list must be strictly increasing, got \[100, 10000, 1000, 100000\]"),
    ("fam_coupon", lambda f: ldp_probe(f, [0.5], (1, 1000, 10**4)), "coupon needs n >= 2, got 1"),
    ("fam_gumbel_weibull2", lambda f: ldp_probe(f, [0.5], (10**12, 10**14, 10**16)),
     "gumbel_maxima caps n at 1000000000000000, got 10000000000000000"),
    ("fam_minima_exp", lambda f: ldp_probe(f, [], LD_GRID), "x_list must not be empty"),
    ("fam_minima_exp", lambda f: weak_probe(f, (100, 10**4), x_grid=default_weak_grid(f)[::-1]),
     "weak grid must be strictly increasing"),
    ("fam_minima_exp", lambda f: weak_sup_distances(ldp_probe(f, [0.5], LD_GRID)),
     "expected a weak report, got regime 'ld'"),
], ids=["no n", "n not increasing", "n below least_n", "n above max_n", "no x",
        "weak grid not increasing", "sup distances of an ld report"])
def test_probe_input_checks_name_the_fault(request, fam, call, match):
    with pytest.raises(ValueError, match=match):
        call(request.getfixturevalue(fam))


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
    with pytest.raises(ValueError, match="trials"):
        ldp_probe(fam_minima_exp, [0.5], LD_GRID, trials=-5)
    for bad in (-3, 0):  # rejected with or without Monte Carlo
        for trials in (0, 10):
            with pytest.raises(ValueError, match="partitions"):
                ldp_probe(fam_minima_exp, [0.5], LD_GRID, trials=trials, partitions=bad)
            with pytest.raises(ValueError, match="partitions"):
                md_probe(fam_minima_exp, power_scaling(0.5), [0.5], LD_GRID,
                         trials=trials, partitions=bad)
    for bad in (math.nan, math.inf, 0.0, -0.05):
        with pytest.raises(ValueError, match="tolerance factor"):
            md_probe(fam_minima_exp, power_scaling(0.5), [0.5], LD_GRID, tol_factor=bad)
        with pytest.raises(ValueError, match="tolerance factor"):
            weak_probe(fam_minima_exp, (100, 10**4), tol_factor=bad)
    for index, value in ((30, math.nan), (-1, math.inf), (0, -math.inf)):
        grid = default_weak_grid(fam_minima_exp)
        grid[index] = value
        with pytest.raises(ValueError, match="must be finite"):
            weak_probe(fam_minima_exp, (100, 10**4), x_grid=grid)


def test_slope_identity_all_families(fam_classical, fam_minima_exp,
                                     fam_gumbel_weibull2, fam_coupon,
                                     fam_replacement):
    for fam in (fam_classical, fam_minima_exp, fam_gumbel_weibull2,
                fam_coupon, fam_replacement):
        check = slope_identity_check(fam)
        assert check.ok, (fam.name, check)


def _csv_text(reports, path) -> str:
    write_csv(reports, path)
    return path.read_bytes().decode("utf-8")


def test_csv_shape(tmp_path, fam_minima_exp):
    report = ldp_probe(fam_minima_exp, [0.5], LD_GRID)
    text = _csv_text(report, tmp_path / "r.csv")
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(report.rows)
    first = lines[1].split(",")
    assert first[0] == "minima:exponential:1.0"
    assert first[6] == "" and first[7] == ""  # no MC columns attached
    assert float(first[11]) == 0.0


def test_csv_renders_infinities(tmp_path, fam_minima_exp):
    report = ldp_probe(fam_minima_exp, [-0.5, 0.5], LD_GRID)
    path = tmp_path / "r.csv"
    assert "-inf" in _csv_text(report, path)  # lower tail of a nonnegative variable
    assert _csv_text([report, report], path).count(",".join(CSV_COLUMNS)) == 1


def test_json_round_trip(tmp_path, fam_replacement):
    report = md_probe(fam_replacement, power_scaling(0.5), [0.5], LD_GRID)
    path = tmp_path / "report.json"
    write_json(report, path)
    back = read_json(path)
    assert len(back) == 1
    assert back[0] == report
    payload = json.loads(path.read_text())
    assert set(payload) == {"reports"}


def test_write_csv_takes_a_path(tmp_path, fam_minima_exp):
    report = ldp_probe(fam_minima_exp, [0.5], LD_GRID)
    path = tmp_path / "r.csv"
    write_csv(report, path)
    assert path.read_bytes().decode("utf-8") == _ref_csv_text([report])
    write_csv([report], str(tmp_path / "s.csv"))
    assert (tmp_path / "s.csv").read_bytes() == path.read_bytes()


def test_json_rejects_foreign_payload(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"rows": []}))
    with pytest.raises(ValueError):
        read_json(path)


# The reference rendering of report files: the payload built with asdict
# and dumped by the stdlib encoder, and one formatted string per CSV cell.
# write_json and write_csv must reproduce both byte for byte.


def _ref_num_out(v):
    if v is None or isinstance(v, (str, int)):
        return v
    v = float(v)
    if math.isnan(v):
        return "nan"
    if v == math.inf:
        return "inf"
    if v == -math.inf:
        return "-inf"
    return v


def _ref_json_text(reports) -> str:
    payload = {"reports": [{
        "family": rep.family,
        "regime": rep.regime,
        "scaling": rep.scaling,
        "verdict": rep.verdict,
        "tolerances": dict(rep.tolerances),
        "notes": list(rep.notes),
        "rows": [{k: _ref_num_out(v) for k, v in dataclasses.asdict(r).items()}
                 for r in rep.rows],
    } for rep in reports]}
    return json.dumps(payload, indent=1) + "\n"


def _ref_csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, int):
        return repr(v)
    return repr(float(v))


def _ref_csv_text(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for rep in reports:
        for r in rep.rows:
            writer.writerow([_ref_csv_cell(getattr(r, c)) for c in CSV_COLUMNS])
    return buf.getvalue()


def _report(rows, notes=(), family="synthetic"):
    return ConvergenceReport(family=family, regime="ld", scaling="", rows=tuple(rows),
                             tolerances={"factor": 0.05, "slack": 1e-12},
                             verdict="pass", notes=tuple(notes))


EDGE_NUMBERS = (math.nan, math.inf, -math.inf, None, -0.0, 5e-324, 1e300, 10**30)
ODD_LABELS = ('Fréchet·μ=2 ∞', 'say "q"', "a,b", "back\\slash", 'all of ",\\ é"',
              "%", "%s", "100%%", "a\tb", "\r\n", '"', " leading space", "")


def _edge_rows():
    rows = [_row(**{col: v}) for col in CSV_COLUMNS[4:] for v in EDGE_NUMBERS]
    rows += [_row(family=label, scaling=label) for label in ODD_LABELS]
    rows += [_row(n=10**30, x=-1e-300, log_p_mc=-1e300, stderr_log=0.0)]
    return rows


def _live_reports(fam_minima_exp, fam_replacement, fam_coupon):
    # an ld report with -inf tails and nan residuals, an md report with
    # Monte Carlo columns, and a weak report, in rows never written yet
    return [
        ldp_probe(fam_minima_exp, [-0.5, 0.5], LD_GRID, trials=256, seed=3),
        md_probe(fam_replacement, power_scaling(0.5), [-0.5, 0.5], LD_GRID,
                 trials=256, seed=3),
        weak_probe(fam_coupon, (50, 200)),
    ]


def _golden_cases(live):
    return {
        "live": live,
        "empty": [],
        "edge rows": [_report(_edge_rows())],
        "odd labels and notes": [
            _report([_row()], notes=("line one\nline two", 'a "quote", \\ and é'),
                    family=ODD_LABELS[0]),
            _report([], notes=("no rows",)),
        ],
    }


# A row formats its float cells on its first write and both writers reuse
# the texts, so each golden case is written in every order from fresh rows.
WRITE_ORDERS = (("json", "csv"), ("csv", "json"), ("csv", "csv"), ("json", "json"))


def _write_in_order(reports, order, path, name):
    for kind in order:
        if kind == "json":
            write_json(reports, path)
            assert path.read_text(encoding="utf-8") == _ref_json_text(reports), (name, order)
        else:
            assert _csv_text(reports, path.with_suffix(".csv")) == _ref_csv_text(reports), \
                (name, order)


def test_report_files_match_the_reference_rendering(tmp_path, fam_minima_exp,
                                                    fam_replacement, fam_coupon):
    path = tmp_path / "r.json"
    for order in WRITE_ORDERS:
        live = _live_reports(fam_minima_exp, fam_replacement, fam_coupon)
        cases = _golden_cases(live)
        for name, reports in cases.items():
            _write_in_order(reports, order, path, name)
        # rows of two written reports merged into one bag, as `mdlab report`
        # hands them to write_csv
        bag = [SimpleNamespace(rows=sorted(live[0].rows + cases["edge rows"][0].rows,
                                           key=lambda r: (r.regime, r.n)))]
        assert _csv_text(bag, tmp_path / "bag.csv") == _ref_csv_text(bag), ("bag", order)
        # reports read back from their file and written again
        write_json(live, path)
        _write_in_order(read_json(path), order, path, "read back")


@given(cells=st.tuples(
    st.text(), st.text(max_size=4), st.text(),
    st.integers(min_value=-10**40, max_value=10**40),
    *[st.one_of(st.none(), st.floats(), st.integers(-10**20, 10**20))] * 8))
@settings(max_examples=200, deadline=None)
def test_report_files_match_the_reference_rendering_on_any_row(tmp_path_factory, cells):
    path = tmp_path_factory.mktemp("golden") / "r.json"
    for order in WRITE_ORDERS:
        _write_in_order([_report([Row(*cells)], notes=(cells[0],))], order, path, "row")


def _row_key(row):
    # repr tells nan from nan only by sign, -0.0 from 0.0 and 1e30 from 10**30
    return repr(dataclasses.astuple(row))


def test_json_round_trip_keeps_every_cell(tmp_path, fam_minima_exp, fam_replacement,
                                          fam_coupon):
    reports = (_live_reports(fam_minima_exp, fam_replacement, fam_coupon)
               + [_report(_edge_rows(), notes=("line one\nline two",))])
    path = tmp_path / "r.json"
    write_json(reports, path)
    back = read_json(path)
    assert not hasattr(Row, "__post_init__")  # read_json rebuilds rows without __init__
    assert len(back) == len(reports)
    for got, want in zip(back, reports):
        assert [_row_key(r) for r in got.rows] == [_row_key(r) for r in want.rows]
        assert (got.family, got.regime, got.scaling, got.verdict, got.tolerances,
                got.notes) == (want.family, want.regime, want.scaling, want.verdict,
                               want.tolerances, want.notes)


# Any cell a caller might hand the writers: the types Row states and the
# near misses that pass for them (bool is an int, numpy scalars compare
# and print like their Python counterparts).
_ANY_CELL = st.one_of(
    st.text(max_size=3), st.integers(-10**20, 10**20), st.floats(), st.none(),
    st.booleans(), st.floats().map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64))


def _cell_fault(cells, where):
    """read_json's message for the first cell, in column order, of another
    type than Row states; None for a row read_json gives back."""
    for col, v in zip(CSV_COLUMNS, cells):
        if col in CSV_COLUMNS[:3]:
            if type(v) is not str:
                return f"{where}: {col} is {v!r}, not a string"
        elif type(v) not in (int, float, type(None)):
            return f"{where}: {col} is {v!r}, not a number"
    return None


@given(cells=st.tuples(*[st.text(max_size=3)] * 3, *[st.floats()] * 9),
       swaps=st.lists(st.tuples(st.integers(0, len(CSV_COLUMNS) - 1), _ANY_CELL),
                      max_size=3))
@settings(max_examples=300, deadline=None)
def test_writers_take_exactly_the_rows_read_json_reads(tmp_path_factory, cells, swaps):
    cells = list(cells)
    for col, v in swaps:
        cells[col] = v
    rows = [_row(), Row(*cells)]
    reports = [_report([_row()]), _report(rows)]
    fault = _cell_fault(cells, "report 1 row 1")
    tmp = tmp_path_factory.mktemp("schema")
    for write, name in ((write_csv, "r.csv"), (write_json, "r.json")):
        if fault is None:
            write(reports, tmp / name)
            continue
        old = tmp / ("old_" + name)
        old.write_bytes(b"earlier bytes")
        for path in (old, tmp / name):
            with pytest.raises(ValueError) as err:
                write(reports, path)
            assert str(err.value) == fault
        assert old.read_bytes() == b"earlier bytes" and not (tmp / name).exists()
    if fault is None:
        assert (tmp / "r.csv").read_bytes().decode("utf-8") == _ref_csv_text(reports)
        back = read_json(tmp / "r.json")
        assert [_row_key(r) for r in back[1].rows] == [_row_key(r) for r in rows]


def _row_dict(**kw):
    d = {k: _ref_num_out(v) for k, v in dataclasses.asdict(_row()).items()}
    d.update(kw)
    return d


def _payload(rows, **report):
    rep = {"family": "a", "regime": "ld", "scaling": "", "verdict": "pass",
           "tolerances": {}, "notes": [], "rows": rows}
    rep.update(report)
    return {"reports": [rep]}


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


@pytest.mark.parametrize("payload, where", [
    ({"reports": [{"family": "a"}]}, "report 0: missing regime"),
    ({"reports": ["a"]}, "report 0: not a report object"),
    ({"reports": {}}, "does not look like a probe report file"),
    (_payload([_row_dict()], tolerances=[]), "report 0: tolerances must be"),
    (_payload([_row_dict(), _without(_row_dict(), "x")]), "report 0 row 1: not a row"),
    (_payload([_row_dict(extra=1.0)]), "report 0 row 0: not a row"),
    (_payload([_row_dict(), _row_dict(), _row_dict(x="abc")]),
     "report 0 row 2: x is 'abc', not a number"),
    (_payload([_row_dict(n=True)]), "report 0 row 0: n is True, not a number"),
    (_payload([_row_dict(residual=[1.0])]), "report 0 row 0: residual is [1.0]"),
    (_payload([_row_dict(family=1)]), "report 0 row 0: family is 1, not a string"),
])
def test_read_json_rejects_a_malformed_report(tmp_path, payload, where):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as err:
        read_json(path)
    assert str(err.value).startswith(str(path))
    assert where in str(err.value)


def test_read_json_takes_the_spelled_non_finite_cells(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(_payload([_row_dict(
        log_p_exact="-inf", residual="nan", rate_target="inf", log_p_mc=None)])))
    row = read_json(path)[0].rows[0]
    assert row.log_p_exact == -math.inf and row.rate_target == math.inf
    assert math.isnan(row.residual) and row.log_p_mc is None


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


def test_write_svg_refuses_before_opening_the_file(tmp_path):
    rows = (_row(residual=math.nan),)
    report = ConvergenceReport(family="f", regime="ld", scaling="", rows=rows,
                               tolerances={}, verdict="pass", notes=())
    path = tmp_path / "o.svg"
    with pytest.raises(ValueError, match="no finite residuals"):
        write_svg(report, str(path))
    assert not path.exists()


def test_weak_report_rows_reuse_rate_columns(fam_coupon):
    report = weak_probe(fam_coupon, (50, 200))
    row = report.rows[0]
    assert 0.0 <= row.normalized_rate <= 1.0  # finite-n cdf
    assert 0.0 <= row.rate_target <= 1.0      # limit cdf
    assert row.residual == pytest.approx(row.normalized_rate - row.rate_target, rel=1e-14)
    sups = weak_sup_distances(report)
    assert sups[0][1] > sups[-1][1]
