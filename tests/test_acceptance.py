"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line and holding its own runtime budget.

Checks collect into a problem list so the verdict line always prints
before the assertion fires.
"""

import math
import time

import numpy as np
import pytest

from mdlab import (
    ScalingRejectedError,
    characteristic_level,
    coupon_cdf_dp,
    coupon_threshold_pair,
    declared_profile,
    ell_probe,
    hn_trend,
    ldp_probe,
    logpower_scaling,
    make_minima,
    mc_log_tail,
    md_probe,
    normalizing_rate,
    parse_dist_spec,
    power_scaling,
    slope_identity_check,
    validate,
    weak_probe,
    weak_sup_distances,
)
from reference_oracles import (
    coupon_cdf_inclusion_exclusion,
    coupon_tail_bounds,
    rate_grid_violations,
)


def _finish(num: int, name: str, budget_s: float, t0: float, problems: list):
    elapsed = time.monotonic() - t0
    if elapsed >= budget_s:
        problems.append(f"runtime {elapsed:.2f}s at or over the {budget_s}s budget")
    print(f"criterion {num:02d} {name}: {'FAIL' if problems else 'PASS'} "
          f"({elapsed:.2f}s)")
    assert not problems, "; ".join(problems)


def test_criterion_01_minima_md_exactness(fam_minima_exp):
    t0 = time.monotonic()
    problems = []
    ns = (100, 1000, 10**4, 10**5, 10**6)
    for gamma in (0.3, 0.5, 0.7):
        rep = md_probe(fam_minima_exp, power_scaling(gamma), (0.5, 1.0, 2.0), ns)
        for r in rep.rows:
            if abs(r.normalized_rate - r.x) > 1e-12:
                problems.append(
                    f"gamma={gamma} n={r.n} x={r.x}: rate {r.normalized_rate!r}")
        if rep.verdict != "pass":
            problems.append(f"gamma={gamma}: verdict {rep.verdict}")
    _finish(1, "minima moderate rate exact", 1.0, t0, problems)


def test_criterion_02_minima_weak_limit(fam_minima_exp, fam_minima_uniform):
    t0 = time.monotonic()
    problems = []
    sups = weak_sup_distances(weak_probe(fam_minima_exp, (100, 10**4)))
    for n, sup in sups:
        if sup > 1e-12:
            problems.append(f"exponential n={n}: sup {sup:.3e} above 1e-12")
    sups = weak_sup_distances(weak_probe(fam_minima_uniform, (100, 10**4)))
    if sups[-1][1] >= 0.01:
        problems.append(f"uniform01 n=1e4: sup {sups[-1][1]:.3e} not below 0.01")
    _finish(2, "minima weak limit", 1.0, t0, problems)


def test_criterion_03_gumbel_norming_identities():
    t0 = time.monotonic()
    problems = []
    ns = (100, 10**4, 10**8, 10**12)
    for a in (1.0, 2.0, 3.0):
        dist = parse_dist_spec(f"weibull:{a}")
        for n in ns:
            m_err = abs(characteristic_level(dist, n) - math.log(n) ** (1.0 / a))
            h_err = abs(normalizing_rate(dist, n) - a * math.log(n))
            if m_err > 1e-9:
                problems.append(f"weibull:{a} n={n}: m_n off by {m_err:.3e}")
            if h_err > 1e-9:
                problems.append(f"weibull:{a} n={n}: h_n off by {h_err:.3e}")
        ratios = hn_trend(declared_profile(dist), ns)
        worst = max(abs(r - 1.0) for r in ratios)
        if worst > 1e-12:
            problems.append(f"weibull:{a}: hn_trend ratio off by {worst:.3e}")
    normal = parse_dist_spec("std_normal")
    devs = [abs(normalizing_rate(normal, n) / (2.0 * math.log(n)) - 1.0)
            for n in (10**4, 10**8, 10**12)]
    if not devs[0] > devs[1] > devs[2]:
        problems.append(f"normal h_n/(2 log n) deviations not decreasing: {devs}")
    ell_final = float(ell_probe(declared_profile(normal))[-1])
    if not 0.4 <= ell_final <= 0.6:
        problems.append(f"normal ell probe final {ell_final} outside [0.4, 0.6]")
    _finish(3, "Gumbel norming identities", 5.0, t0, problems)


def test_criterion_04_gumbel_maxima_regimes(fam_gumbel_weibull2):
    t0 = time.monotonic()
    problems = []
    fam = fam_gumbel_weibull2
    ld = ldp_probe(fam, (0.5, 1.0), (100, 1000, 10**4, 10**5))
    for x in (0.5, 1.0):
        res = [abs(r.residual) for r in ld.rows_for(x)]
        if any(b > a + 1e-12 for a, b in zip(res, res[1:])):
            problems.append(f"ld x={x}: residuals not decaying: {res}")
        bound = 0.05 * (1.0 + fam.rate_ld(x))
        if res[-1] >= bound:
            problems.append(f"ld x={x}: final residual {res[-1]:.4f} >= {bound:.4f}")
    md = md_probe(fam, power_scaling(0.5), (1.0,), (1000, 10**4, 10**5, 10**6),
                  tol_factor=0.1)
    final = abs(md.rows[-1].residual)
    if final >= 0.1:
        problems.append(f"md x=1: final residual {final:.4f} not below 0.1")
    sups = weak_sup_distances(weak_probe(fam, (1000, 10**4, 10**5)))
    if sups[-1][1] >= 0.05:
        problems.append(f"weak n=1e5: sup {sups[-1][1]:.4f} not below 0.05")
    _finish(4, "Gumbel maxima regimes", 10.0, t0, problems)


def test_criterion_05_coupon_oracles():
    t0 = time.monotonic()
    problems = []
    for n in (2, 3, 5, 10, 30, 60):
        m_grid = sorted({n, n + 1, math.ceil(1.5 * n), 3 * n, 5 * n, 10 * n, 20 * n})
        for m in m_grid:
            gap = abs(coupon_cdf_dp(n, m) - coupon_cdf_inclusion_exclusion(n, m))
            if gap > 1e-9:
                problems.append(f"DP vs IE at n={n} m={m}: gap {gap:.3e}")
    for n, m, expect in ((3, 3, 2.0 / 9.0), (2, 3, 3.0 / 4.0)):
        for label, fn in (("DP", coupon_cdf_dp), ("IE", coupon_cdf_inclusion_exclusion)):
            got = fn(n, m)
            if abs(got - expect) > 1e-12:
                problems.append(f"{label}({n},{m}) = {got!r}, expected {expect!r}")
    for n in (5, 10, 50, 200):
        for c in (1.25, 1.5, 2.0):
            m = int(c * n * math.log(n))
            cdf = coupon_cdf_inclusion_exclusion(n, m)
            if 1.0 - cdf > coupon_tail_bounds(n, c=c).upper_bound:
                problems.append(f"upper bound fails at n={n} c={c}")
            if cdf > coupon_tail_bounds(n, m=m).lower_bound:
                problems.append(f"lower bound fails at n={n} c={c}")
    _finish(5, "coupon oracles", 10.0, t0, problems)


def test_criterion_06_coupon_regimes(fam_coupon):
    t0 = time.monotonic()
    problems = []
    sups = weak_sup_distances(weak_probe(fam_coupon, (50, 200, 1000)))
    if sups[-1][1] >= 0.05:
        problems.append(f"weak n=1000: sup {sups[-1][1]:.4f} not below 0.05")
    md = md_probe(fam_coupon, power_scaling(0.5), (1.0,), (2, 20, 200, 2000),
                  tol_factor=0.15)
    final = md.rows[-1].normalized_rate
    if abs(final - 1.0) >= 0.15:
        problems.append(f"md x=1 n=2000: normalized rate {final:.4f} not within 0.15 of 1")
    if md.verdict != "pass":
        problems.append(f"md verdict {md.verdict}")
    _finish(6, "coupon regimes", 60.0, t0, problems)


def test_criterion_07_replacement_exactness(fam_replacement):
    t0 = time.monotonic()
    problems = []
    fam = fam_replacement
    ns = (10, 100, 1000, 10**4)
    ld = ldp_probe(fam, (0.5,), ns)
    expected_gap = abs(math.log(0.6))
    for r in ld.rows:
        if not math.isclose(abs(r.residual), expected_gap / r.n, rel_tol=1e-9):
            problems.append(f"ld n={r.n}: residual {r.residual!r} not |log 0.6|/n")
    if abs(ld.rows[-1].residual) >= 6e-5:
        problems.append(f"ld n=1e4: residual {ld.rows[-1].residual:.3e} not below 6e-5")
    left_mag = math.exp(-1.0) / (1.0 - math.exp(-1.0))
    slope_checks = (
        ("stored right", fam.rate_md.right_slope_at_zero, 2.0),
        ("stored left", fam.rate_md.left_slope_at_zero, -left_mag),
        ("fd right", (fam.rate_md(1.0) - fam.rate_md(0.5)) / 0.5, 2.0),
        ("fd left", (fam.rate_md(-1.0) - fam.rate_md(-0.5)) / 0.5, left_mag),
    )
    for label, got, expect in slope_checks:
        if abs(got - expect) > 1e-9:
            problems.append(f"md slope {label}: {got!r}, expected {expect!r}")
    for n in ns:
        atom = math.exp(fam.exact_log_lower_tail(n, 0.0))
        if abs(atom - 0.4) > 1e-12:
            problems.append(f"P(C_n <= 0) at n={n}: {atom!r}")
    sups = weak_sup_distances(weak_probe(fam, (100, 10**4)))
    if sups[-1][1] >= 0.01:
        problems.append(f"weak n=1e4: sup {sups[-1][1]:.3e} not below 0.01")
    report = validate(logpower_scaling(0.5), fam, (100, 1000, 10**4, 10**5))
    if report.ok or "cond_alogn_to_0" not in report.failures():
        problems.append("logpow:0.5 was not rejected for the slow-log condition")
    with pytest.raises(ScalingRejectedError):
        md_probe(fam, logpower_scaling(0.5), (0.5,), (100, 1000, 10**4, 10**5))
    _finish(7, "replacement exactness", 2.0, t0, problems)


def test_criterion_08_classical_prototype(fam_classical):
    t0 = time.monotonic()
    problems = []
    md = md_probe(fam_classical, power_scaling(0.5), (1.0,),
                  (1000, 10**4, 10**5, 10**6))
    final = md.rows[-1].normalized_rate
    if abs(final - 0.5) >= 0.05:
        problems.append(f"md x=1 n=1e6: normalized rate {final:.5f} not within 0.05 of 0.5")
    h = 1e-3
    d2 = (fam_classical.rate_ld(h) - 2.0 * fam_classical.rate_ld(0.0)
          + fam_classical.rate_ld(-h)) / (h * h)
    if abs(d2 - 1.0) > 1e-4:
        problems.append(f"second difference of the large rate at 0: {d2!r}")
    _finish(8, "classical prototype", 1.0, t0, problems)


def test_criterion_09_mc_integrity(fam_classical, fam_minima_exp,
                                    fam_gumbel_weibull2, fam_coupon,
                                    fam_replacement):
    t0 = time.monotonic()
    problems = []

    base = mc_log_tail(fam_minima_exp, 200, 0.005, "upper", trials=4096, seed=11)
    for parts in (2, 8):
        split = mc_log_tail(fam_minima_exp, 200, 0.005, "upper",
                            trials=4096, seed=11, partitions=parts)
        if split.log_p_hat != base.log_p_hat or split.hits != base.hits:
            problems.append(f"partitions={parts} not bit-identical to serial run")

    cases = [
        (fam_minima_exp, 50, 0.02, "upper"),
        (fam_minima_exp, 50, 0.06, "upper"),
        (fam_minima_exp, 50, 0.1, "upper"),
        (fam_minima_exp, 50, 0.02, "lower"),
        (fam_minima_exp, 500, 0.004, "upper"),
        (fam_classical, 100, 0.1, "upper"),
        (fam_classical, 100, 0.25, "upper"),
        (fam_classical, 100, -0.1, "lower"),
        (fam_classical, 400, 0.05, "upper"),
        (fam_classical, 10**4, 0.02, "upper"),
        (fam_gumbel_weibull2, 100, 0.05, "upper"),
        (fam_gumbel_weibull2, 100, 0.2, "upper"),
        (fam_gumbel_weibull2, 100, 0.0, "lower"),
        (fam_coupon, 20, 0.2, "upper"),
        (fam_coupon, 20, 0.5, "upper"),
        (fam_coupon, 20, 0.0, "lower"),
        (fam_replacement, 100, 0.01, "upper"),
        (fam_replacement, 100, -0.01, "lower"),
        (fam_replacement, 100, 0.0, "lower"),
        (fam_replacement, 50, 0.02, "upper"),
    ]
    assert len(cases) == 20
    for fam, n, x, side in cases:
        tail = fam.exact_log_upper_tail if side == "upper" else fam.exact_log_lower_tail
        exact = tail(n, x)
        if exact < math.log(1e-3):
            problems.append(f"{fam.name} n={n} x={x} {side}: p below 1e-3, case invalid")
            continue
        est = mc_log_tail(fam, n, x, side, trials=20000, seed=29)
        gap = abs(est.log_p_hat - exact)
        if gap > 4.0 * est.stderr_log:
            problems.append(
                f"{fam.name} n={n} x={x} {side}: |log gap| {gap:.4f} "
                f"beyond 4 stderr {4.0 * est.stderr_log:.4f}")

    x_half = 3.0 / (2.0 * math.log(2.0)) - 1.0
    if coupon_threshold_pair(2, x_half)[1] != 3:
        problems.append("coverage case does not land on the 3-draw threshold")
    target = fam_coupon.exact_log_upper_tail(2, x_half)
    if abs(target - math.log(0.5)) > 1e-12:
        problems.append(f"coverage case tail is {target!r}, expected log 1/2")
    covered = 0
    for seed in range(200):
        est = mc_log_tail(fam_coupon, 2, x_half, "upper", trials=1000, seed=seed)
        if abs(est.log_p_hat - target) <= 1.96 * est.stderr_log:
            covered += 1
    if covered < 180:
        problems.append(f"coverage {covered}/200 below the 90% floor")
    _finish(9, "Monte Carlo integrity", 60.0, t0, problems)


def test_criterion_10_rate_suite(fam_classical, fam_minima_exp,
                                  fam_gumbel_weibull2, fam_coupon,
                                  fam_replacement):
    t0 = time.monotonic()
    problems = []
    grid = [float(x) for x in np.linspace(-2.0, 2.0, 41)]
    fams = (fam_classical, fam_minima_exp, fam_gumbel_weibull2,
            fam_coupon, fam_replacement)
    for fam in fams:
        for label, rate in (("ld", fam.rate_ld), ("md", fam.rate_md)):
            violations = rate_grid_violations(rate, grid)
            if violations:
                problems.append(f"{fam.name} {label}: {violations}")
        if not slope_identity_check(fam).ok:
            problems.append(f"{fam.name}: slope identity failed")
    _finish(10, "rate function suite", 1.0, t0, problems)
