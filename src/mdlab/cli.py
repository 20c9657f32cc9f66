"""Command-line front end for the regime probes and tail-lemma battery.

Everything is driven by small spec strings (families, distributions,
scalings) so runs are reproducible from a shell history line. Exit codes
are part of the contract: 0 when the probe verdict is pass, 2 on fail,
3 on inconclusive, and 1 for usage trouble of any kind (bad flags,
unparseable specs, rejected scalings, unreadable files, levels whose
thresholds overflow).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace
from typing import Optional

from .diagnostics import (
    DEFAULT_TOL_FACTOR,
    ConvergenceReport,
    ldp_probe,
    md_probe,
    read_json,
    weak_probe,
    weak_sup_distances,
    write_csv,
    write_json,
    write_svg,
)
from .distributions import parse_dist_spec
from .families import parse_family_spec
from .rvtoolkit import lemma_battery
from .scalings import ScalingRejectedError, parse_scaling_spec, render_scaling_spec

__all__ = ["RunConfig", "build_parser", "main"]

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3

_VERDICT_EXIT = {"pass": EXIT_PASS, "fail": EXIT_FAIL, "inconclusive": EXIT_INCONCLUSIVE}


def _coerce(value, kind, what: str):
    """value as kind (int or float), taken as the flags take it: a string
    that kind() parses, or a number (an int only, for kind int). A bool
    is no number."""
    allowed = (str, int) if kind is int else (str, int, float)
    if isinstance(value, allowed) and not isinstance(value, bool):
        try:
            return kind(value)
        except (ValueError, OverflowError):
            pass
    noun = "an integer" if kind is int else "a number"
    raise ValueError(f"{what} must be {noun}, got {value!r}")


def _parse_floats(value, key: str) -> tuple:
    """Accept a comma string or a list of numbers."""
    if isinstance(value, str):
        tokens = [t.strip() for t in value.split(",") if t.strip()]
    elif isinstance(value, (list, tuple)):
        tokens = list(value)
    else:
        raise ValueError(f"{key} must be a comma string or a list, got {value!r}")
    if not tokens:
        raise ValueError(f"empty number list in {key}")
    return tuple(_coerce(tok, float, f"every {key} entry") for tok in tokens)


def _parse_ns(value) -> tuple:
    out = []
    for v in _parse_floats(value, "n_list"):
        i = int(round(v)) if math.isfinite(v) else 0
        if abs(v - i) > 1e-9 * max(1.0, abs(v)) or i <= 0:
            raise ValueError(f"sample sizes must be positive integers, got {v!r}")
        out.append(i)
    return tuple(out)


@dataclass(frozen=True)
class RunConfig:
    """One resolved verify invocation, round-trippable through JSON.

    The same keys work as CLI flags and as entries of a --config file;
    explicit flags win over config values which win over the defaults
    here. Spec strings (family, scaling) normalize by a parse/render
    round trip, so two configs naming the same object compare equal
    after normalized().
    """

    regime: str
    family: str
    scaling: Optional[str] = None
    n_list: tuple = ()
    x_list: Optional[tuple] = None
    grid: Optional[tuple] = None
    trials: int = 0
    seed: int = 0
    partitions: int = 1
    tol_factor: float = DEFAULT_TOL_FACTOR
    csv: Optional[str] = None
    json: Optional[str] = None
    svg: Optional[str] = None

    def __post_init__(self):
        if self.regime not in ("ld", "md", "weak"):
            raise ValueError(f"unknown regime {self.regime!r}")

    def normalized(self) -> "RunConfig":
        fam = parse_family_spec(self.family).label
        scaling = self.scaling
        if scaling is not None:
            scaling = render_scaling_spec(parse_scaling_spec(scaling))
        return replace(self, family=fam, scaling=scaling)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if v == f.default and f.name not in ("regime", "family"):
                continue
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        for key in sorted(set(d) - known):
            raise ValueError(f"config key {key!r} not recognized")
        kw = dict(d)
        if kw.get("n_list") is not None:
            kw["n_list"] = _parse_ns(kw["n_list"])
        for key in ("x_list", "grid"):
            if kw.get(key) is not None:
                kw[key] = _parse_floats(kw[key], key)
        for key, kind in (("trials", int), ("seed", int),
                          ("partitions", int), ("tol_factor", float)):
            if kw.get(key) is not None:
                kw[key] = _coerce(kw[key], kind, key)
        if not kw.get("family"):
            raise ValueError("no family spec given (use --family or a config file)")
        return cls(**kw)


# keys shared between CLI flags and config files
_MERGE_KEYS = tuple(f.name for f in fields(RunConfig) if f.name != "regime")


def _merged_config(args, regime: str) -> RunConfig:
    base = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        if base.get("regime") not in (None, regime):
            raise ValueError(
                f"config regime {base['regime']!r} does not match subcommand {regime!r}")
        base = {k: v for k, v in base.items() if k != "regime"}
    flags = {k: getattr(args, k) for k in _MERGE_KEYS if getattr(args, k) is not None}
    return RunConfig.from_dict({**base, **flags, "regime": regime})


def _summary(report: ConvergenceReport) -> str:
    head = f"family {report.family}  regime {report.regime}"
    if report.scaling:
        head += f"  scaling {report.scaling}"
    lines = [head + f"  verdict {report.verdict}"]
    if report.regime == "weak":
        for n, sup in weak_sup_distances(report):
            lines.append(f"  n={n}  sup distance {sup:.3e}")
    else:
        for x in sorted({row.x for row in report.rows}):
            last = report.rows_for(x)[-1]
            if math.isinf(last.rate_target):
                lines.append(
                    f"  x={x!r}  rate target inf, final normalized rate "
                    f"{last.normalized_rate!r}")
            else:
                lines.append(f"  x={x!r}  final residual {abs(last.residual):.3e}")
    for note in report.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


def _plot(report: ConvergenceReport, path: str) -> None:
    """Write the residual plot, or say why there is none: a report with no
    finite residual (every rate target +inf) has nothing to draw, which
    leaves its verdict and exit code as they are."""
    try:
        write_svg(report, path)
    except ValueError as exc:
        print(f"skipped {path}: {exc}")
        return
    print(f"wrote {path}")


def _write_outputs(report: ConvergenceReport, cfg: RunConfig) -> None:
    if cfg.csv:
        write_csv(report, cfg.csv)
        print(f"wrote {cfg.csv}")
    if cfg.json:
        write_json(report, cfg.json)
        print(f"wrote {cfg.json}")
    if cfg.svg:
        _plot(report, cfg.svg)


def cmd_verify(args) -> int:
    cfg = _merged_config(args, args.regime)
    fam = parse_family_spec(cfg.family)
    scaling = None if cfg.scaling is None else parse_scaling_spec(cfg.scaling)
    if not cfg.n_list:
        raise ValueError("no sample sizes given (use --n or config n_list)")
    if cfg.regime != "md" and scaling is not None:
        raise ValueError("--scaling only applies to the md regime")
    if cfg.regime != "weak" and cfg.grid is not None:
        raise ValueError("--grid only applies to the weak regime")
    if cfg.regime == "weak":
        if cfg.x_list is not None:
            raise ValueError("weak verification takes --grid, not --x")
        if cfg.trials:
            raise ValueError("the weak probe is exact, --trials does not apply")
        report = weak_probe(fam, cfg.n_list, x_grid=cfg.grid,
                            tol_factor=cfg.tol_factor)
    else:
        if not cfg.x_list:
            raise ValueError(f"{cfg.regime} verification needs --x thresholds")
        if cfg.regime == "md":
            if scaling is None:
                raise ValueError("md verification needs --scaling")
            report = md_probe(fam, scaling, cfg.x_list, cfg.n_list,
                              trials=cfg.trials, seed=cfg.seed,
                              partitions=cfg.partitions, tol_factor=cfg.tol_factor)
        else:
            report = ldp_probe(fam, cfg.x_list, cfg.n_list,
                               trials=cfg.trials, seed=cfg.seed,
                               partitions=cfg.partitions, tol_factor=cfg.tol_factor)
    _write_outputs(report, cfg)
    print(_summary(report))
    return _VERDICT_EXIT[report.verdict]


def cmd_lemmas(args) -> int:
    dist = parse_dist_spec(args.dist)
    battery = lemma_battery(dist)
    mu = "none" if battery.mu is None else repr(battery.mu)
    print(f"dist {battery.dist}  mu {mu}  mda {'ok' if battery.mda_ok else 'VIOLATION'}")
    for check in battery.checks:
        print(f"{'PASS' if check.ok else 'FAIL'} {check.name}: {check.detail}")
    print(f"verdict {'pass' if battery.ok else 'fail'}")
    if args.json is not None:
        payload = {
            "dist": battery.dist,
            "mu": battery.mu,
            "mda_ok": battery.mda_ok,
            "ok": battery.ok,
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                       for c in battery.checks],
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.json}")
    return EXIT_PASS if battery.ok else EXIT_FAIL


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", text).strip("-")


def cmd_report(args) -> int:
    reports = []
    for path in args.inputs:
        reports.extend(read_json(path))
    merged = sorted((row for rep in reports for row in rep.rows),
                    key=lambda r: (r.regime, r.x, r.n))
    write_csv([SimpleNamespace(rows=merged)], args.csv)
    print(f"wrote {args.csv} ({len(merged)} rows from {len(reports)} reports)")
    if args.plot is not None:
        os.makedirs(args.plot, exist_ok=True)
        seen = {}
        for rep in reports:
            base = _slug(f"{rep.family}_{rep.regime}")
            k = seen.get(base, 0)
            seen[base] = k + 1
            _plot(rep, os.path.join(args.plot, base + ("" if k == 0 else f"_{k}") + ".svg"))
    return EXIT_PASS


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; 2 is reserved for probe failure."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mdlab",
        description="Finite-n verification probes for scaled tail asymptotics.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    ver = sub.add_parser("verify", help="run one regime probe for a family")
    ver.add_argument("regime", choices=("ld", "md", "weak"))
    ver.add_argument("--family", help="family spec, e.g. minima:exponential:1")
    ver.add_argument("--scaling", help="md scaling spec: pow:<g>, logpow:<g>, table:<file>")
    ver.add_argument("--n", dest="n_list",
                     help="comma list of sample sizes, e.g. 1e2,1e3,1e4,1e5")
    ver.add_argument("--x", dest="x_list",
                     help="comma list of thresholds (write --x=-0.3,0.5 for negatives)")
    ver.add_argument("--grid", help="comma list of weak-limit grid points (41 or more)")
    ver.add_argument("--trials", type=int, help="Monte Carlo trials per row (0 = exact only)")
    ver.add_argument("--seed", type=int, help="Monte Carlo seed")
    ver.add_argument("--partitions", type=int,
                     help="Monte Carlo chunk count (the estimate is invariant to it)")
    ver.add_argument("--tol-factor", dest="tol_factor", type=float,
                     help="residual tolerance factor (default 0.05)")
    ver.add_argument("--csv", help="write the row table here")
    ver.add_argument("--json", help="write the full report here")
    ver.add_argument("--svg", help="write a residual plot here")
    ver.add_argument("--config", help="JSON file with config fields; explicit flags win")
    ver.set_defaults(run=cmd_verify)

    lem = sub.add_parser("lemmas", help="tail-lemma battery for one distribution")
    lem.add_argument("--dist", required=True, help="distribution spec, e.g. weibull:2")
    lem.add_argument("--json", help="write the verdicts here")
    lem.set_defaults(run=cmd_lemmas)

    rep = sub.add_parser("report", help="merge probe reports into CSV and plots")
    rep.add_argument("--in", dest="inputs", nargs="+", required=True,
                     metavar="JSON", help="probe report files")
    rep.add_argument("--csv", required=True, help="merged CSV, rows sorted by (regime, x, n)")
    rep.add_argument("--plot", metavar="DIR", help="write one SVG per report here")
    rep.set_defaults(run=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except ScalingRejectedError as exc:
        print(f"mdlab: scaling rejected: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, TypeError, OSError, ArithmeticError) as exc:
        print(f"mdlab: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
