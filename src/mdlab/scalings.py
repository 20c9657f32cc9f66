"""Moderate-deviation scaling sequences a_n and their admissibility checks.

A scaling is admissible for a family with speed v_n when a_n -> 0 and
a_n * v_n -> infinity. Families whose moderate regime carries an extra
growth restriction (the replacement model needs a_n * log n -> 0) get a
third check. `validate` never raises on a bad combination: it returns a
report with one verdict per condition so callers can render the failure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional


class ScalingRejectedError(ValueError):
    """Raised when a scaling cannot be evaluated at the requested n."""


@dataclass(frozen=True)
class ScalingFamily:
    """One scaling sequence n -> a_n.

    kind is "pow" (a_n = v_n^-gamma), "logpow" (a_n = (log v_n)^-gamma),
    "const" (a_n = gamma, used for degenerate boundary regimes), or
    "table" (explicit n -> a_n lookup). pow and logpow are maps of the
    family speed, so the same spec string means the same thing for a
    family with v_n = n and one with v_n = log n.
    """

    kind: str
    gamma: Optional[float] = None
    table: Optional[Mapping[int, float]] = None
    source: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("pow", "logpow", "const", "table"):
            raise ValueError(f"unknown scaling kind {self.kind!r}")
        if self.kind == "table":
            if not self.table:
                raise ValueError("table scaling needs a nonempty mapping")
            for n, a in self.table.items():
                if int(n) < 1 or not math.isfinite(a) or a <= 0.0:
                    raise ValueError(f"table entry ({n}, {a}) is not a valid a_n")
        else:
            if self.gamma is None or not math.isfinite(self.gamma):
                raise ValueError(f"{self.kind} scaling needs a finite gamma")


def power_scaling(gamma: float) -> ScalingFamily:
    """a_n = v_n^-gamma with gamma in (0, 1), the known-admissible band."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"power scaling exponent must lie in (0, 1), got {gamma}")
    return ScalingFamily(kind="pow", gamma=gamma)


def logpower_scaling(gamma: float) -> ScalingFamily:
    if not gamma > 0.0:
        raise ValueError(f"log-power scaling exponent must be positive, got {gamma}")
    return ScalingFamily(kind="logpow", gamma=gamma)


def table_scaling(table: Mapping[int, float], source: Optional[str] = None) -> ScalingFamily:
    clean = {int(n): float(a) for n, a in table.items()}
    return ScalingFamily(kind="table", table=clean, source=source)


def parse_scaling_spec(spec: str) -> ScalingFamily:
    """Parse "pow:<gamma>", "logpow:<gamma>", or "table:<path to json>"."""
    head, _, rest = spec.partition(":")
    if not rest:
        raise ValueError(f"scaling spec {spec!r} has no parameter part")
    if head == "pow":
        return power_scaling(float(rest))
    if head == "logpow":
        return logpower_scaling(float(rest))
    if head == "table":
        with open(rest, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"table file {rest!r} must hold an object mapping n to a_n")
        return table_scaling({int(k): float(v) for k, v in raw.items()}, source=rest)
    raise ValueError(f"unknown scaling spec {spec!r}")


def render_scaling_spec(scaling: ScalingFamily) -> str:
    if scaling.kind in ("pow", "logpow", "const"):
        return f"{scaling.kind}:{scaling.gamma!r}"
    if scaling.source is not None:
        return f"table:{scaling.source}"
    raise ValueError("table scaling built without a source path has no spec string")


def evaluate(scaling: ScalingFamily, n: int, speed: Callable[[int], float]) -> float:
    """a_n for a given family speed. Raises ScalingRejectedError off-domain."""
    n = int(n)
    if n < 1:
        raise ScalingRejectedError(f"n must be a positive integer, got {n}")
    if scaling.kind == "table":
        try:
            return scaling.table[n]
        except KeyError:
            raise ScalingRejectedError(f"table scaling has no entry for n={n}") from None
    if scaling.kind == "const":
        return scaling.gamma
    v = float(speed(n))
    if not v > 0.0 or not math.isfinite(v):
        raise ScalingRejectedError(f"speed at n={n} is {v}, cannot scale it")
    if scaling.kind == "pow":
        return v ** (-scaling.gamma)
    if v <= 1.0:
        raise ScalingRejectedError(
            f"log-power scaling needs speed > 1, got v_n={v} at n={n}")
    return math.log(v) ** (-scaling.gamma)


@dataclass(frozen=True)
class ConditionCheck:
    """Verdict for one admissibility condition over the probe grid.

    method is "exact" when the (kind, gamma) pattern settles the limit
    analytically, else "trend": strict monotonicity toward the required
    limit across the sampled n.
    """

    name: str
    direction: str
    ok: bool
    method: str
    first: float
    last: float


@dataclass(frozen=True)
class ScalingReport:
    label: str
    n_first: int
    n_last: int
    cond_a_to_0: ConditionCheck
    cond_av_to_inf: ConditionCheck
    cond_alogn_to_0: Optional[ConditionCheck] = None

    @property
    def ok(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        checks = [self.cond_a_to_0, self.cond_av_to_inf]
        if self.cond_alogn_to_0 is not None:
            checks.append(self.cond_alogn_to_0)
        return [c.name for c in checks if not c.ok]


def _trend_check(name: str, direction: str, values: list[float],
                 exact_ok: Optional[bool] = None) -> ConditionCheck:
    if exact_ok is not None:
        ok, method = exact_ok, "exact"
    else:
        method = "trend"
        if direction == "to_zero":
            ok = all(b < a for a, b in zip(values, values[1:]))
        else:
            ok = all(b > a for a, b in zip(values, values[1:]))
    return ConditionCheck(name=name, direction=direction, ok=ok, method=method,
                          first=values[0], last=values[-1])


def validate(scaling: ScalingFamily, fam, n_range) -> ScalingReport:
    """Check a scaling against a family's speed over a probe grid.

    fam is a FamilySpec: its `speed(n)` is v_n, and its `md_needs_alogn`
    switches on the extra a_n * log n -> 0 check. Verdicts, not
    exceptions: a violated condition comes back as ok=False.
    """
    speed = fam.speed
    ns = [int(n) for n in n_range]
    if len(ns) < 3 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("probe grid must be at least 3 strictly increasing n values")
    if ns[-1] < 1000 * ns[0]:
        raise ValueError("probe grid must span at least three decades")

    a_vals = [evaluate(scaling, n, speed) for n in ns]
    av_vals = [a * float(speed(n)) for a, n in zip(a_vals, ns)]

    exact_a = exact_av = None
    if scaling.kind == "pow":
        # v_n^-gamma against an unbounded speed: a_n -> 0 for any
        # gamma > 0, while a_n v_n = v^(1-gamma) diverges only below 1
        exact_a = scaling.gamma > 0.0
        exact_av = scaling.gamma < 1.0
    elif scaling.kind == "logpow":
        exact_a = exact_av = scaling.gamma > 0.0
    elif scaling.kind == "const":
        exact_a = False
        exact_av = True

    cond_a = _trend_check("cond_a_to_0", "to_zero", a_vals, exact_a)
    cond_av = _trend_check("cond_av_to_inf", "to_inf", av_vals, exact_av)

    cond_alogn = None
    if fam.md_needs_alogn:
        alogn_vals = [a * math.log(n) for a, n in zip(a_vals, ns)]
        cond_alogn = _trend_check("cond_alogn_to_0", "to_zero", alogn_vals)

    try:
        label = render_scaling_spec(scaling)
    except ValueError:
        label = "table:<inline>"
    return ScalingReport(label=label,
                         n_first=ns[0], n_last=ns[-1],
                         cond_a_to_0=cond_a, cond_av_to_inf=cond_av,
                         cond_alogn_to_0=cond_alogn)


@dataclass(frozen=True)
class BoundaryRegime:
    """A degenerate scaling sitting on one edge of the admissible band."""

    tag: str
    scaling: ScalingFamily
    violates: str
    note: str


def boundary_regimes(fam=None) -> tuple[BoundaryRegime, BoundaryRegime]:
    """The two edges of the moderate band, tagged by which condition dies.

    R1 takes a_n = 1/v_n, so a_n * v_n sticks at 1 and the statistic
    collapses back to the unscaled one. R2 takes a_n = 1, which is the
    large-deviation normalization itself. fam is accepted for signature
    symmetry with validate but the regimes do not depend on it.
    """
    r1 = BoundaryRegime(
        tag="R1",
        scaling=ScalingFamily(kind="pow", gamma=1.0),
        violates="cond_av_to_inf",
        note="a_n = 1/v_n keeps a_n * v_n pinned at 1",
    )
    r2 = BoundaryRegime(
        tag="R2",
        scaling=ScalingFamily(kind="const", gamma=1.0),
        violates="cond_a_to_0",
        note="a_n = 1 never decays, reproducing the large-deviation scale",
    )
    return r1, r2
