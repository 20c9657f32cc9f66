"""Convergence probes over the exact tails, and their serialized reports.

A probe evaluates one family on a grid of levels x and sizes n. The
ld, md and weak probes share one row loop: at each n it reads all the
levels of one tail side in a single exact-tail call, turns each log tail
into a normalized rate and compares it against the regime's target.
Verdicts are three-valued: "pass" needs the final residual inside
tolerance and the residual magnitudes non-increasing across the sampled
n; losing one of the two gives "inconclusive", both "fail". Monte Carlo
columns are for eyeballing and never influence a verdict.

The row schema is shared by all regimes. Weak-limit rows repurpose the
rate columns: normalized_rate holds the finite-n cdf value at x,
rate_target the limit cdf, and residual their difference, so the same
CSV machinery serves every probe.

Report files. CSV and JSON rows both list their cells in CSV_COLUMNS
order, with the cell types that Row states. Non-finite values are the
strings "nan", "inf" and "-inf" in JSON and bare nan, inf and -inf in
CSV; a missing Monte Carlo cell is null in JSON and empty in CSV. The
JSON is indent-1 text whose layout is stable byte for byte. read_json
rejects a file whose reports lack a field, whose rows miss or add a
column, or whose cells have the wrong kind, naming the file, the report
index and, for a bad row, the row index. A report's family, regime,
scaling and verdict must be strings, its notes a list of strings, and
its tolerance factor and slack, where present, real numbers (not true or
false).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import operator
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from .estimators import mc_log_tail
from .families import FamilySpec
from .scalings import (
    ScalingFamily,
    ScalingRejectedError,
    evaluate,
    render_scaling_spec,
    validate,
)

CSV_COLUMNS = [
    "family", "regime", "scaling", "n", "x",
    "log_p_exact", "log_p_mc", "stderr_log",
    "s_n", "normalized_rate", "rate_target", "residual",
]

DEFAULT_TOL_FACTOR = 0.05
MONOTONE_SLACK = 1e-12
DIFFERENCE_STEP = 1e-5  # the h of slope_identity_check


@dataclass(frozen=True)
class Row:
    """One cell per CSV_COLUMNS entry: family, regime and scaling are str,
    the nine number cells int, float or None (a missing Monte Carlo
    cell). read_json gives back such rows and the writers take no other:
    a bool, a numpy scalar or a non-string label is refused."""

    family: str
    regime: str
    scaling: str
    n: int
    x: float
    log_p_exact: float
    log_p_mc: Optional[float]
    stderr_log: Optional[float]
    s_n: float
    normalized_rate: float
    rate_target: float
    residual: float


def _new_row(cells: dict) -> Row:
    """A Row from a dict that holds exactly Row's fields.

    The row is rebuilt the way copy and pickle rebuild one, which skips
    the frozen __init__'s twelve object.__setattr__ calls; this is sound
    because Row has no __post_init__.
    """
    row = object.__new__(Row)
    row.__dict__.update(cells)
    return row


@dataclass(frozen=True)
class ConvergenceReport:
    family: str
    regime: str
    scaling: str
    rows: tuple
    tolerances: dict
    verdict: str
    notes: tuple = ()

    def rows_for(self, x: float) -> list:
        return [r for r in self.rows if r.x == x]


# ---------------------------------------------------------------------------
# verdict logic (pure over rows, so stored reports can be re-judged)


def _judge(final_ok: bool, monotone: bool) -> str:
    if final_ok and monotone:
        return "pass"
    if final_ok or monotone:
        return "inconclusive"
    return "fail"


def _combine(verdicts: Sequence[str]) -> str:
    if any(v == "fail" for v in verdicts):
        return "fail"
    if any(v == "inconclusive" for v in verdicts):
        return "inconclusive"
    return "pass"


def _rate_group_verdict(rows: Sequence[Row], factor: float, slack: float) -> str:
    target = rows[0].rate_target
    if math.isinf(target):
        # a +inf rate means the tail is superexponential at this speed:
        # exact zeros agree with it and are skipped; the finite rates pass
        # the final test when the last one tops every earlier one and the
        # monotone test when they climb
        rates = [r.normalized_rate for r in rows if r.log_p_exact != -math.inf]
        final_ok = all(r < rates[-1] for r in rates[:-1])
        climbing = all(b >= a for a, b in zip(rates, rates[1:]))
        return _judge(final_ok, climbing)
    tol = factor * (1.0 + target)
    res = [abs(r.residual) for r in rows]
    final_ok = res[-1] <= tol
    monotone = all(b <= a + slack for a, b in zip(res, res[1:]))
    return _judge(final_ok, monotone)


def _weak_sups(rows: Sequence[Row]) -> list[tuple[int, float]]:
    sups: dict[int, float] = {}
    for r in rows:
        sups[r.n] = max(sups.get(r.n, 0.0), abs(r.residual))
    return sorted(sups.items())


def evaluate_verdict(rows: Sequence[Row], tolerances: dict) -> str:
    """Recompute a report's verdict from its rows alone."""
    factor = tolerances.get("factor", DEFAULT_TOL_FACTOR)
    slack = tolerances.get("slack", MONOTONE_SLACK)
    if not rows:
        raise ValueError("cannot judge an empty report")
    regime = rows[0].regime
    if regime == "weak":
        sups = [s for _, s in _weak_sups(rows)]
        final_ok = sups[-1] <= factor
        monotone = all(b <= a + slack for a, b in zip(sups, sups[1:]))
        return _judge(final_ok, monotone)
    verdicts = []
    for x in sorted({r.x for r in rows}):
        group = sorted((r for r in rows if r.x == x), key=lambda r: r.n)
        verdicts.append(_rate_group_verdict(group, factor, slack))
    return _combine(verdicts)


# ---------------------------------------------------------------------------
# probe input validation


def _check_ns(fam: FamilySpec, n_list, want_decades: bool) -> list[int]:
    ns = [int(n) for n in n_list]
    if not ns:
        raise ValueError("n_list must not be empty")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"n_list must be strictly increasing, got {ns}")
    if ns[0] < fam.least_n:
        raise ValueError(f"{fam.name} needs n >= {fam.least_n}, got {ns[0]}")
    if fam.max_n is not None and ns[-1] > fam.max_n:
        raise ValueError(f"{fam.name} caps n at {fam.max_n}, got {ns[-1]}")
    if want_decades and (len(ns) < 3 or ns[-1] < 1000 * ns[0]):
        raise ValueError(
            f"rate probes need at least 3 sizes spanning 3 decades, got {ns}")
    return ns


def _check_xs(x_list) -> list[float]:
    xs = [float(x) for x in x_list]
    if not xs:
        raise ValueError("x_list must not be empty")
    for x in xs:
        if not math.isfinite(x) or x == 0.0:
            raise ValueError(f"probe levels must be finite and nonzero, got {x}")
    if len(set(xs)) != len(xs):
        raise ValueError(f"duplicate probe levels in {xs}")
    return xs


def _row_seed(seed: int, label: str, n: int, x: float, side: str) -> int:
    # stable per-row substream so attaching MC to several rows never
    # reuses the same (trial, draw) uniforms for different events
    tag = f"{seed}|{label}|{n}|{x!r}|{side}".encode()
    return int.from_bytes(hashlib.blake2b(tag, digest_size=8).digest(), "big")


def _base_notes(fam: FamilySpec) -> list[str]:
    if fam.max_n is not None:
        return [f"n capped at {fam.max_n} by quantile resolution"]
    return []


# ---------------------------------------------------------------------------
# probes


def _probe(fam: FamilySpec, regime: str, scaling: str, xs, ns, at, target,
           trials: int, seed: int, partitions: int, tol_factor: float,
           notes) -> ConvergenceReport:
    """The row loop of every probe.

    at(n) returns (scale, s_n, norm): level x is read, and Monte Carlo
    drawn, at the C_n threshold x / scale; norm(log_p) is the row's
    normalized_rate and target(x) its rate_target. Each n makes one list
    call per tail side that holds a level; weak puts every level on the
    lower side. Rows come x-major for ld and md, n-major for weak. fam's
    members are read while the probe runs, so a record rebuilt with
    dataclasses.replace is the one called.
    """
    if trials < 0:
        raise ValueError(f"Monte Carlo trials must be >= 0, got {trials}")
    if partitions < 1:
        raise ValueError(f"Monte Carlo partitions must be >= 1, got {partitions}")
    if not (math.isfinite(tol_factor) and tol_factor > 0.0):
        raise ValueError(f"tolerance factor must be finite and positive, got {tol_factor}")
    sides = {x: "lower" if regime == "weak" or x < 0.0 else "upper" for x in xs}
    exact = {}
    for n in ns:
        scale, s_n, norm = at(n)
        for side, tail in (("lower", fam.exact_log_lower_tail),
                           ("upper", fam.exact_log_upper_tail)):
            levels = [x for x in xs if sides[x] == side]
            if levels:
                thresholds = [x / scale for x in levels]
                for x, t, log_p in zip(levels, thresholds, tail(n, thresholds)):
                    exact[x, n] = t, log_p, s_n, norm(log_p)
    targets = {}
    for x in xs:
        try:
            targets[x] = target(x)
        except OverflowError:
            raise ValueError(f"{fam.label} {regime} rate at level x={x!r} "
                             f"overflows a double") from None
    rows = []
    for x, n in ([(x, n) for n in ns for x in xs] if regime == "weak"
                 else [(x, n) for x in xs for n in ns]):
        threshold, log_p, s_n, rate = exact[x, n]
        mc = stderr = None
        if trials > 0:
            est = mc_log_tail(fam, n, threshold, sides[x], trials,
                              _row_seed(seed, fam.label, n, x, sides[x]), partitions)
            mc, stderr = est.log_p_hat, est.stderr_log
        rows.append(_new_row({
            "family": fam.label, "regime": regime, "scaling": scaling, "n": n, "x": x,
            "log_p_exact": log_p, "log_p_mc": mc, "stderr_log": stderr, "s_n": s_n,
            "normalized_rate": rate, "rate_target": targets[x],
            "residual": rate - targets[x] if math.isfinite(targets[x]) else math.nan,
        }))
    tolerances = {"factor": tol_factor, "slack": MONOTONE_SLACK}
    return ConvergenceReport(
        family=fam.label, regime=regime, scaling=scaling, rows=tuple(rows),
        tolerances=tolerances, verdict=evaluate_verdict(rows, tolerances),
        notes=tuple(notes))


def ldp_probe(fam: FamilySpec, x_list, n_list, trials: int = 0, seed: int = 0,
              partitions: int = 1, tol_factor: float = DEFAULT_TOL_FACTOR) -> ConvergenceReport:
    """Compare -log P / v_n against the large-deviation rate."""
    ns = _check_ns(fam, n_list, want_decades=True)
    xs = _check_xs(x_list)

    def at(n: int):
        s_n = fam.speed(n)
        return 1.0, s_n, lambda log_p: -log_p / s_n

    return _probe(fam, "ld", "", xs, ns, at, fam.rate_ld, trials, seed,
                  partitions, tol_factor, _base_notes(fam))


def md_probe(fam: FamilySpec, scaling: ScalingFamily, x_list, n_list,
             trials: int = 0, seed: int = 0, partitions: int = 1,
             tol_factor: float = DEFAULT_TOL_FACTOR,
             enforce_admissible: bool = True) -> ConvergenceReport:
    """Compare -a_n log P against the moderate rate under a scaling.

    The statistic is a_n v_n C_n (square-root normalized for central
    families), so level x maps to the C_n threshold x / (a_n v_n) or
    x / sqrt(a_n v_n). An inadmissible scaling is rejected up front;
    pass enforce_admissible=False to probe a degenerate boundary regime
    on purpose.
    """
    ns = _check_ns(fam, n_list, want_decades=True)
    xs = _check_xs(x_list)
    notes = _base_notes(fam)
    if enforce_admissible:
        report = validate(scaling, fam, ns)
        if not report.ok:
            raise ScalingRejectedError(
                f"scaling {report.label} fails {', '.join(report.failures())} "
                f"for {fam.name} over n in [{ns[0]}, {ns[-1]}]")
        notes.append(f"scaling {report.label} admissible over [{ns[0]}, {ns[-1]}]")

    def at(n: int):
        a = evaluate(scaling, n, fam.speed)
        av = a * fam.speed(n)
        return math.sqrt(av) if fam.central else av, 1.0 / a, lambda log_p: -log_p * a

    return _probe(fam, "md", render_scaling_spec(scaling), xs, ns, at, fam.rate_md,
                  trials, seed, partitions, tol_factor, notes)


def default_weak_grid(fam: FamilySpec) -> list[float]:
    """61 evenly spaced levels covering the central 99% of the limit law."""

    def invert(p: float) -> float:
        lo, hi = -1.0, 1.0
        while fam.limit_cdf(lo) > p:
            lo *= 2.0
        while fam.limit_cdf(hi) < p:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if fam.limit_cdf(mid) < p:
                lo, old = mid, lo
            else:
                hi, old = mid, hi
            if mid == old:
                break  # a step that moves neither bound repeats to the end
        return 0.5 * (lo + hi)

    a, b = invert(0.004), invert(0.996)
    step = (b - a) / 60
    return [a + i * step for i in range(61)]


def weak_probe(fam: FamilySpec, n_list, x_grid=None,
               tol_factor: float = DEFAULT_TOL_FACTOR) -> ConvergenceReport:
    """Sup distance between the law of v_n C_n and its limit on a grid.

    Central families use sqrt(v_n) C_n. Rows reuse the rate columns:
    normalized_rate is the exact finite-n cdf at x, rate_target the
    limit cdf, residual their difference; the verdict looks at the sup
    of |residual| per n.
    """
    ns = _check_ns(fam, n_list, want_decades=False)
    xs = [float(x) for x in (default_weak_grid(fam) if x_grid is None else x_grid)]
    if len(xs) < 41:
        raise ValueError(f"weak grids need at least 41 points, got {len(xs)}")
    bad = [x for x in xs if not math.isfinite(x)]
    if bad:
        raise ValueError(f"weak grid points must be finite, got {bad}")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("weak grid must be strictly increasing")
    if fam.limit_cdf(xs[0]) > 0.005 or fam.limit_cdf(xs[-1]) < 0.995:
        raise ValueError(
            f"weak grid [{xs[0]}, {xs[-1]}] misses the limit law's central 99%: "
            f"cdf spans [{fam.limit_cdf(xs[0])}, {fam.limit_cdf(xs[-1])}]")

    def at(n: int):
        s_n = fam.speed(n)
        return math.sqrt(s_n) if fam.central else s_n, s_n, math.exp

    return _probe(fam, "weak", "", xs, ns, at, fam.limit_cdf, trials=0, seed=0,
                  partitions=1, tol_factor=tol_factor, notes=_base_notes(fam))


def weak_sup_distances(report: ConvergenceReport) -> list[tuple[int, float]]:
    """(n, sup |cdf_n - limit|) pairs of a weak report, ascending in n."""
    if report.regime != "weak":
        raise ValueError(f"expected a weak report, got regime {report.regime!r}")
    return _weak_sups(report.rows)


# ---------------------------------------------------------------------------
# slope identity between the two rates


@dataclass(frozen=True)
class SlopeCheck:
    side: str
    measured: float
    target: float
    tol: float
    status: str  # "ok", "mismatch", "not-applicable"


@dataclass(frozen=True)
class SlopeIdentityReport:
    family: str
    h: float
    mode: str  # "slopes" or "curvature"
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.status != "mismatch" for c in self.checks)


def slope_identity_check(fam: FamilySpec) -> SlopeIdentityReport:
    """Tie the moderate rate to the local behavior of the large one.

    With h = DIFFERENCE_STEP: for non-central families the one-sided
    difference quotients of rate_ld at 0 must match the moderate slopes
    within 10h; a side where the moderate rate is +inf must be a wall of
    rate_ld too and is reported as not-applicable. Central families
    instead match second differences (curvature) of both rates within 1e-4.
    """
    h = DIFFERENCE_STEP
    if fam.central:
        d2_ld = (fam.rate_ld(h) - 2.0 * fam.rate_ld(0.0) + fam.rate_ld(-h)) / (h * h)
        d2_md = (fam.rate_md(h) - 2.0 * fam.rate_md(0.0) + fam.rate_md(-h)) / (h * h)
        tol = 1e-4
        status = "ok" if abs(d2_ld - d2_md) <= tol * max(1.0, abs(d2_md)) else "mismatch"
        checks = (SlopeCheck("curvature", d2_ld, d2_md, tol, status),)
        return SlopeIdentityReport(family=fam.label, h=h, mode="curvature",
                                   checks=checks)
    tol = 10.0 * h
    checks = []
    for side, sign, target in (("right", 1.0, fam.rate_md.right_slope_at_zero),
                               ("left", -1.0, fam.rate_md.left_slope_at_zero)):
        ld_val = fam.rate_ld(sign * h)
        if math.isinf(target):
            status = "not-applicable" if math.isinf(ld_val) else "mismatch"
            checks.append(SlopeCheck(side, ld_val, target, tol, status))
            continue
        fd = (ld_val - fam.rate_ld(0.0)) / (sign * h)
        status = "ok" if abs(fd - target) <= tol else "mismatch"
        checks.append(SlopeCheck(side, fd, target, tol, status))
    return SlopeIdentityReport(family=fam.label, h=h, mode="slopes",
                               checks=tuple(checks))


# ---------------------------------------------------------------------------
# serialization


# Both report files are rendered a report at a time, not cell by cell.
# The label cells (family, regime, scaling) are encoded once per distinct
# triple in a writer call: as the CSV prefix that the csv module renders
# for them, and as a JSON row template with them baked in. The number
# cells (n to residual) are turned into texts a column at a time, and a
# Row keeps them, so a row written to both files formats each float once.
# A CSV line is the prefix and the comma-joined texts. A JSON row fills
# its template with the texts, null for None and the non-finite floats
# quoted. A writer checks every cell's type first and opens no file for
# reports with a row that read_json would refuse.
#
# write_json's text is json.dumps(payload, indent=1) + "\n" byte for byte,
# where payload holds each report's fields and its rows as dicts with the
# non-finite cells spelled "nan", "inf" and "-inf". Only the short header
# of each report goes through json.dumps.

_LABEL_COLUMNS = CSV_COLUMNS[:3]
_NUMBER_COLUMNS = CSV_COLUMNS[3:]
_row_labels = operator.attrgetter(*_LABEL_COLUMNS)
_number_getters = [operator.attrgetter(c) for c in _NUMBER_COLUMNS]
_LABEL_TYPES = frozenset((str,))
_NUMBER_TYPES = frozenset((int, float, type(None)))


def _check_cells(cells: dict, where: str) -> None:
    """Raise a ValueError naming the first cell, in column order, whose
    type is not the one Row states."""
    for col, v in cells.items():
        if col in _LABEL_COLUMNS:
            if type(v) is not str:
                raise ValueError(f"{where}: {col} is {v!r}, not a string")
        elif type(v) not in _NUMBER_TYPES:
            raise ValueError(f"{where}: {col} is {v!r}, not a number")


def _cell_texts(rows: tuple, where: str) -> list:
    """The number cells of each row as the CSV file spells them: the repr
    of an int or float and "" for None.

    The texts are made a column at a time. A Row keeps them in its
    __dict__, which eq, hash, repr, astuple and replace never read; a Row
    is frozen, so they cannot go stale. A row that has no texts yet has
    its twelve cells checked first, in bulk; one of another type than Row
    states raises the ValueError of _check_cells, with where (the report)
    and the row index.
    """
    texts = [getattr(r, "_cell_texts", None) for r in rows]
    todo = [i for i, t in enumerate(texts) if t is None]
    fresh = list(map(rows.__getitem__, todo))
    columns = [list(map(cell, fresh)) for cell in _number_getters]
    if not (_NUMBER_TYPES.issuperset(map(type, chain.from_iterable(columns)))
            and _LABEL_TYPES.issuperset(map(type, chain.from_iterable(map(_row_labels, fresh))))):
        for i, r in zip(todo, fresh):
            _check_cells({c: getattr(r, c) for c in CSV_COLUMNS}, f"{where} row {i}")
    columns = [list(map(repr, c)) if None not in c else ["" if v is None else repr(v) for v in c]
               for c in columns]
    for i, t in zip(todo, zip(*columns)):
        texts[i] = t
        if type(rows[i]) is Row:
            rows[i].__dict__["_cell_texts"] = t
    return texts


def _csv_cells(cells) -> str:
    """The cells as csv.writer writes them, each followed by a comma."""
    buf = io.StringIO()
    csv.writer(buf).writerow((*cells, ""))  # an empty last cell keeps its comma
    return buf.getvalue()[:-2]


_CSV_HEADER = _csv_cells(CSV_COLUMNS)[:-1]


def _label_texts(rows, known: dict, render) -> list:
    """render(labels) for each row, made once per distinct label triple.
    known maps triples to texts for one writer call."""
    labels = list(map(_row_labels, rows))
    texts = list(map(known.get, labels))
    if None in texts:
        for triple in set(labels).difference(known):
            known[triple] = render(triple)
        texts = list(map(known.__getitem__, labels))
    return texts


def write_csv(reports, path) -> None:
    """One CSV with the shared column schema, reports concatenated.

    path is a str, bytes or os.PathLike. A line is the csv module's
    rendering of the row's three labels, made once per label triple,
    then the number texts of _cell_texts joined by commas: what
    csv.writer writes for an int, float or None, and never quoted. The
    whole text is made before the file is opened.
    """
    if isinstance(reports, ConvergenceReport):
        reports = [reports]
    lines = [_CSV_HEADER]
    prefixes = {}
    for i, rep in enumerate(reports):
        rows = tuple(rep.rows)
        texts = _cell_texts(rows, f"report {i}")
        lines += map(str.__add__, _label_texts(rows, prefixes, _csv_cells), map(",".join, texts))
    lines.append("")
    text = "\r\n".join(lines)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


# a number text as JSON spells it
_JSON_TEXT = {"": "null", "nan": '"nan"', "inf": '"inf"', "-inf": '"-inf"'}
_JSON_NUMBERS = ("".join(f",\n     {encode_basestring_ascii(c)}: %s" for c in _NUMBER_COLUMNS)
                 + "\n    }")


def _json_template(labels) -> str:
    """A row's JSON with its labels in place and a %s for each number."""
    head = ",\n".join(f"     {encode_basestring_ascii(c)}: {encode_basestring_ascii(v)}"
                      for c, v in zip(_LABEL_COLUMNS, labels))
    return "    {\n" + head.replace("%", "%%") + _JSON_NUMBERS


def _report_json(rep: ConvergenceReport, templates: dict, where: str) -> str:
    """One report of the payload, indented for its place in the list."""
    header = json.dumps({
        "family": rep.family,
        "regime": rep.regime,
        "scaling": rep.scaling,
        "verdict": rep.verdict,
        "tolerances": dict(rep.tolerances),
        "notes": list(rep.notes),
    }, indent=1)
    rows = tuple(rep.rows)
    flat = list(chain.from_iterable(_cell_texts(rows, where)))
    # the JSON texts, taken back nine to a row
    numbers = zip(*[map(_JSON_TEXT.get, flat, flat)] * len(_NUMBER_COLUMNS))
    body = ",\n".join(map(str.__mod__, _label_texts(rows, templates, _json_template), numbers))
    body = f"[\n{body}\n   ]" if body else "[]"
    # drop the header's closing brace and shift it two levels in
    return "  " + header[:-2].replace("\n", "\n  ") + f',\n   "rows": {body}\n  }}'


def write_json(reports, path) -> None:
    if isinstance(reports, ConvergenceReport):
        reports = [reports]
    templates = {}
    body = ",\n".join([_report_json(r, templates, f"report {i}")
                       for i, r in enumerate(reports)])
    text = f'{{\n "reports": [\n{body}\n ]\n}}\n' if body else '{\n "reports": []\n}\n'
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


_REPORT_KEYS = ("family", "regime", "scaling", "verdict", "tolerances", "rows")
_ROW_KEYS = frozenset(CSV_COLUMNS)
_label_cells = operator.itemgetter(*_LABEL_COLUMNS)
_number_cells = operator.itemgetter(*_NUMBER_COLUMNS)
_DICT_TYPES = frozenset((dict,))
_ROW_LENGTHS = frozenset((len(CSV_COLUMNS),))
_NONFINITE_IN = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def _checked_row(d: dict, where: str) -> dict:
    """A row past the fast type test: map the non-finite strings to
    floats and reject any other cell of the wrong kind."""
    out = {col: d[col] for col in CSV_COLUMNS}
    for col in _NUMBER_COLUMNS:
        if type(out[col]) is str and out[col] in _NONFINITE_IN:
            out[col] = _NONFINITE_IN[out[col]]
    _check_cells(out, where)
    return out


def _rows_are_plain(rows: list) -> bool:
    """Whether every row is a dict of exactly the report columns, with
    string labels and int, float or null numbers: one pass over the cells
    of a whole report."""
    if not (_DICT_TYPES.issuperset(map(type, rows))
            and _ROW_LENGTHS.issuperset(map(len, rows))):
        return False
    try:  # twelve cells each, so if the twelve columns are there they are all
        return (_LABEL_TYPES.issuperset(map(type, chain.from_iterable(map(_label_cells, rows))))
                and _NUMBER_TYPES.issuperset(
                    map(type, chain.from_iterable(map(_number_cells, rows)))))
    except KeyError:
        return False


def _rows_in(rows: list, where: str) -> tuple:
    """The report's rows as Rows. Only a report that fails the bulk test
    is read row by row, to map its non-finite strings or to name the
    first bad row."""
    if _rows_are_plain(rows):
        return tuple(map(_new_row, rows))
    out = []
    for j, d in enumerate(rows):
        if not isinstance(d, dict) or d.keys() != _ROW_KEYS:
            got = set(d) if isinstance(d, dict) else set()
            raise ValueError(
                f"{where} row {j}: not a row of the {len(CSV_COLUMNS)} report columns "
                f"(missing {sorted(_ROW_KEYS - got)}, extra {sorted(got - _ROW_KEYS)})")
        if not (_LABEL_TYPES.issuperset(map(type, _label_cells(d)))
                and _NUMBER_TYPES.issuperset(map(type, _number_cells(d)))):
            d = _checked_row(d, f"{where} row {j}")
        out.append(_new_row(d))
    return tuple(out)


def _report_in(d, where: str) -> ConvergenceReport:
    if not isinstance(d, dict):
        raise ValueError(f"{where}: not a report object")
    missing = [k for k in _REPORT_KEYS if k not in d]
    if missing:
        raise ValueError(f"{where}: missing {', '.join(missing)}")
    notes = d.get("notes", [])
    if not (isinstance(d["tolerances"], dict) and isinstance(d["rows"], list)
            and isinstance(notes, list)):
        raise ValueError(f"{where}: tolerances must be an object, rows and notes lists")
    for key in ("family", "regime", "scaling", "verdict"):
        if type(d[key]) is not str:
            raise ValueError(f"{where}: {key} is {d[key]!r}, not a string")
    if not all(type(note) is str for note in notes):
        raise ValueError(f"{where}: notes are {notes!r}, not a list of strings")
    for key in ("factor", "slack"):
        v = d["tolerances"].get(key, 0.0)
        if type(v) not in (int, float):
            raise ValueError(f"{where}: tolerance {key} is {v!r}, not a number")
    return ConvergenceReport(
        family=d["family"], regime=d["regime"], scaling=d["scaling"],
        rows=_rows_in(d["rows"], where), tolerances=dict(d["tolerances"]),
        verdict=d["verdict"], notes=tuple(notes),
    )


def read_json(path) -> list[ConvergenceReport]:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if (not isinstance(payload, dict) or "reports" not in payload
            or not isinstance(payload["reports"], list)):
        raise ValueError(f"{path} does not look like a probe report file")
    return [_report_in(d, f"{path}: report {i}") for i, d in enumerate(payload["reports"])]


# ---------------------------------------------------------------------------
# residual plot (self-contained SVG, no plotting dependency)


_SVG_W, _SVG_H = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 30, 50
_PALETTE = ["#1965b0", "#dc050c", "#4eb265", "#f1932d", "#882e72", "#777777"]
_FLOOR = 1e-16


def render_svg(report: ConvergenceReport) -> str:
    """|residual| against n, both axes log10, one polyline per level x."""
    groups: dict[float, list[tuple[int, float]]] = {}
    for r in report.rows:
        if r.residual is None or math.isnan(r.residual):
            continue
        groups.setdefault(r.x, []).append((r.n, max(abs(r.residual), _FLOOR)))
    if not groups:
        raise ValueError("report has no finite residuals to plot")
    xs_log = [math.log10(n) for pts in groups.values() for n, _ in pts]
    ys_log = [math.log10(v) for pts in groups.values() for _, v in pts]
    x_lo, x_hi = min(xs_log), max(xs_log)
    y_lo, y_hi = math.floor(min(ys_log)), math.ceil(max(ys_log))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B

    def px(lx: float) -> float:
        return _MARGIN_L + (lx - x_lo) / (x_hi - x_lo) * plot_w

    def py(ly: float) -> float:
        return _MARGIN_T + (y_hi - ly) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W // 2}" y="18" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif">{report.family} {report.regime} residuals</text>',
    ]
    ax_y = _SVG_H - _MARGIN_B
    parts.append(f'<line x1="{_MARGIN_L}" y1="{ax_y}" x2="{_SVG_W - _MARGIN_R}" '
                 f'y2="{ax_y}" stroke="black"/>')
    parts.append(f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
                 f'y2="{ax_y}" stroke="black"/>')
    for d in range(math.floor(x_lo), math.floor(x_hi) + 1):
        if d < x_lo - 1e-9 or d > x_hi + 1e-9:
            continue
        cx = px(d)
        parts.append(f'<line x1="{cx:.2f}" y1="{ax_y}" x2="{cx:.2f}" '
                     f'y2="{ax_y + 5}" stroke="black"/>')
        parts.append(f'<text x="{cx:.2f}" y="{ax_y + 20}" text-anchor="middle" '
                     f'font-size="11" font-family="sans-serif">1e{d}</text>')
    ticks = max(1, (y_hi - y_lo) // 6)
    for d in range(int(y_lo), int(y_hi) + 1, int(ticks)):
        cy = py(d)
        parts.append(f'<line x1="{_MARGIN_L - 5}" y1="{cy:.2f}" x2="{_MARGIN_L}" '
                     f'y2="{cy:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN_L - 9}" y="{cy + 4:.2f}" text-anchor="end" '
                     f'font-size="11" font-family="sans-serif">1e{d}</text>')
    parts.append(f'<text x="{_SVG_W // 2}" y="{_SVG_H - 12}" text-anchor="middle" '
                 f'font-size="12" font-family="sans-serif">n</text>')
    parts.append(f'<text x="16" y="{_SVG_H // 2}" text-anchor="middle" font-size="12" '
                 f'font-family="sans-serif" transform="rotate(-90 16 {_SVG_H // 2})">'
                 f'|residual|</text>')
    for i, x in enumerate(sorted(groups)):
        pts = sorted(groups[x])
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{px(math.log10(n)):.2f},{py(math.log10(v)):.2f}"
                          for n, v in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{_SVG_W - _MARGIN_R - 4}" '
                     f'y="{_MARGIN_T + 14 + 14 * i}" text-anchor="end" font-size="11" '
                     f'font-family="sans-serif" fill="{color}">x={x!r}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(report: ConvergenceReport, path: str) -> None:
    """Write render_svg(report) to path; a report render_svg refuses
    raises its ValueError before the file is opened."""
    text = render_svg(report)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
