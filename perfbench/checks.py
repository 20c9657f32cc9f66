"""Correctness checks over plain values (no mdlab import).

Each check returns None when the value passes and a one-line message
when it does not, so a run can list every failure it saw. The bounds
are fixed here and nowhere else; test_checks.py feeds each check a
deliberately wrong value.
"""

from __future__ import annotations

import math

CLOSED_FORM_REL = 1e-9  # relative, on log P
COUPON_ABS = 1e-9  # absolute, on P
MC_SIGMAS = 4.0
MC_CHECKED_P = 1e-3  # rows at or above this exact p get the stderr check
MC_ZERO_HIT_MEAN = 10.0  # a zero-hit row may expect at most this many hits
WEAK_SUP_EXACT = 1e-12  # exponential minima: the limit law is exact at every n
VERDICT_EXIT = {"pass": 0, "fail": 2, "inconclusive": 3}


def closed_form(label: str, log_p: float, ref: float):
    """log P against a closed-form reference, 1e-9 relative."""
    if math.isinf(ref) or math.isinf(log_p):
        if log_p == ref:
            return None
        return f"{label}: log p {log_p!r}, reference {ref!r}"
    if math.isnan(log_p) or abs(log_p - ref) > CLOSED_FORM_REL * abs(ref):
        return f"{label}: log p {log_p!r}, reference {ref!r} (rel tol {CLOSED_FORM_REL})"
    return None


def coupon(label: str, log_p: float, ref_p: float):
    """P = exp(log P) against the inclusion-exclusion value, 1e-9 absolute."""
    p = math.exp(log_p) if not math.isnan(log_p) else math.nan
    if not abs(p - ref_p) <= COUPON_ABS:
        return f"{label}: p {p!r}, inclusion-exclusion {ref_p!r} (abs tol {COUPON_ABS})"
    return None


def mc_row(label: str, log_p_exact: float, log_p_mc, stderr_log, trials: int):
    """A Monte Carlo column against the exact tail.

    Rows with exact p >= 1e-3 and at least one hit must lie within 4
    stderr of it; a row with no hits must have exact p * trials <= 10.
    Rows with rarer events and some hits carry too few hits for the
    delta-method stderr to mean anything and are not judged.
    """
    if log_p_mc is None:
        return f"{label}: no Monte Carlo column"
    p = math.exp(log_p_exact)
    if log_p_mc == -math.inf:
        if p * trials > MC_ZERO_HIT_MEAN:
            return f"{label}: zero hits in {trials} trials where {p * trials:.3g} are expected"
        return None
    if p < MC_CHECKED_P:
        return None
    if not stderr_log >= 0.0 or abs(log_p_mc - log_p_exact) > MC_SIGMAS * stderr_log:
        return (f"{label}: log p_mc {log_p_mc!r} is more than {MC_SIGMAS:g} stderr "
                f"({stderr_log!r}) from exact {log_p_exact!r}")
    return None


def same_values(label: str, a, b):
    """Two value tuples that must be bit-identical (nan equals nan)."""
    if len(a) != len(b):
        return f"{label}: {len(a)} values against {len(b)}"
    for i, (u, v) in enumerate(zip(a, b)):
        if u == v or (isinstance(u, float) and isinstance(v, float)
                      and math.isnan(u) and math.isnan(v)):
            continue
        return f"{label}: value {i} differs, {u!r} against {v!r}"
    return None


def verdict(label: str, stored: str, rejudged: str):
    if stored != rejudged:
        return f"{label}: stored verdict {stored!r}, re-judged {rejudged!r}"
    return None


def weak_sup(label: str, sup: float, bound: float = WEAK_SUP_EXACT):
    if not sup <= bound:
        return f"{label}: weak sup distance {sup!r} exceeds {bound!r}"
    return None


def exit_code(label: str, got: int, expect=None, report_verdict=None):
    """A documented exit code: the fixed one, or the one the verdict maps to."""
    if expect is None:
        if report_verdict not in VERDICT_EXIT:
            return f"{label}: no verdict to check exit code {got} against"
        expect = VERDICT_EXIT[report_verdict]
    if got != expect:
        return f"{label}: exit code {got}, expected {expect}"
    return None


def merged_rows(label: str, merged: int, inputs) -> str | None:
    if merged != sum(inputs):
        return f"{label}: merged CSV has {merged} rows, inputs hold {sum(inputs)}"
    return None
