"""The behaviour contract: probes, coupon tails and CLI calls, recorded.

tests/behaviour.json holds the inputs of every case and what the code
gave for it: each probe row's exact log tail as float.hex() (or the
error message), its Monte Carlo columns, residual, and each report's
verdict, notes and tolerances; both coupon tails on a grid of n and
levels; the exit code and output of the README's CLI calls, run in
process. tests/test_behaviour.py re-runs every case and names the first
values that moved.

Rewrite the file from the code in this checkout with

    PYTHONPATH=src python tests/behaviour.py

which keeps the stored inputs; add --fresh-inputs to draw them again
from perfbench/workloads.py. A change that rewrites the file lists
every moved value, before and after.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from mdlab import (
    boundary_regimes,
    default_weak_grid,
    ldp_probe,
    md_probe,
    parse_family_spec,
    parse_scaling_spec,
    weak_probe,
)
from mdlab.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
PATH = Path(__file__).resolve().parent / "behaviour.json"

SEEDS = (1, 2, 23)
MC_PARTITIONS = (1, 3)
# both coupon tails on 19 n from 2 to 1e6 and 99 levels from -0.95 to 2.97
COUPON_NS = [round(2 * 5e5 ** (i / 18)) for i in range(19)]
COUPON_XS = [round(-0.95 + 0.04 * i, 2) for i in range(99)]


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def _hex(v):
    return None if v is None else float(v).hex()


# what a probe, a tail or the CLI may raise on its inputs, as main() reports it
ERRORS = (ValueError, TypeError, ArithmeticError)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _report(run, *args, **kwargs) -> dict:
    """One probe's record: its report, or the error it raised."""
    try:
        rep = run(*args, **kwargs)
    except ERRORS as exc:  # the message is part of the contract
        return {"error": _error(exc)}
    return {
        "family": rep.family, "regime": rep.regime, "scaling": rep.scaling,
        "verdict": rep.verdict, "notes": list(rep.notes), "tolerances": rep.tolerances,
        # n, x, log_p_exact, log_p_mc, stderr_log, residual
        "rows": [[r.n, r.x, _hex(r.log_p_exact), _hex(r.log_p_mc), _hex(r.stderr_log),
                  _hex(r.residual)] for r in rep.rows],
    }


def _shifted_weak(fam, ns, shift, tol_factor):
    grid = [x + shift for x in default_weak_grid(fam)]
    return weak_probe(fam, ns, x_grid=grid, tol_factor=tol_factor)


def run_regimes(inputs: dict, settings: dict) -> list:
    """The perfbench regimes pass: ld, md and shifted weak per family,
    then the two Gumbel boundary scalings with admission off."""
    tol, md_tol = settings["tol_factor"], settings["md_tol_factor"]
    scaling = parse_scaling_spec(settings["scaling"])
    out = []
    for run in inputs["runs"]:
        fam = parse_family_spec(run["family"])
        out.append(_report(ldp_probe, fam, run["ld_x"], run["ld_n"], tol_factor=tol))
        out.append(_report(md_probe, fam, scaling, run["md_x"], run["md_n"], tol_factor=md_tol))
        out.append(_report(_shifted_weak, fam, run["weak_n"], run["weak_shift"], tol))
    boundary = inputs["boundary"]
    gumbel = parse_family_spec(boundary["family"])
    for regime in boundary_regimes(gumbel):
        out.append(_report(md_probe, gumbel, regime.scaling, boundary["x"], boundary["n"],
                           enforce_admissible=False))
    return out


def run_mc(inputs: dict, settings: dict, partitions: int) -> list:
    """The perfbench mc pass, at the given partition count."""
    scaling = parse_scaling_spec(settings["scaling"])
    out = []
    for p in inputs["probes"]:
        fam = parse_family_spec(p["family"])
        kw = dict(trials=p["trials"], seed=p["mc_seed"], partitions=partitions)
        if p["regime"] == "ld":
            out.append(_report(ldp_probe, fam, p["x"], p["n"],
                               tol_factor=settings["tol_factor"], **kw))
        else:
            out.append(_report(md_probe, fam, scaling, p["x"], p["n"],
                               tol_factor=settings["md_tol_factor"], **kw))
    return out


def run_weak(inputs: list, settings: dict) -> list:
    """Weak probes on each family's default grid."""
    return [_report(weak_probe, parse_family_spec(spec), ns, tol_factor=settings["tol_factor"])
            for spec, ns in inputs]


def _coupon_side(tail, n: int, xs: list) -> list:
    # one list call; a list that raises is redone level by level (a list
    # gives the bits of its float calls)
    try:
        return [_hex(v) for v in tail(n, xs)]
    except ERRORS:
        pass
    out = []
    for x in xs:
        try:
            out.append(_hex(tail(n, x)))
        except ERRORS as exc:
            out.append(_error(exc))
    return out


def run_coupon(inputs: dict) -> list:
    """Both exact coupon tails: one record per n, lower then upper."""
    fam = parse_family_spec("coupon")
    return [{"n": n,
             "lower": _coupon_side(fam.exact_log_lower_tail, n, inputs["x"]),
             "upper": _coupon_side(fam.exact_log_upper_tail, n, inputs["x"])}
            for n in inputs["n"]]


def run_cli(inputs: dict) -> list:
    """Each call through mdlab.cli.main in one scratch directory, in order
    (the report call reads what the verify calls wrote)."""
    out = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for call in inputs["calls"]:
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli_main(list(call["argv"]))
                out.append({"name": call["name"], "exit": code,
                            "stdout": stdout.getvalue(), "stderr": stderr.getvalue()})
        finally:
            os.chdir(cwd)
    return out


def run_group(name: str, contract: dict) -> list:
    """Re-run one named group of cases from the inputs stored in contract."""
    inputs, settings = contract["inputs"], contract["settings"]
    kind, _, rest = name.partition(":")
    if kind == "regimes":
        return run_regimes(inputs["regimes"][rest], settings)
    if kind == "mc":
        seed, _, partitions = rest.partition(":")
        return run_mc(inputs["mc"][seed], settings, int(partitions))
    if kind == "weak":
        return run_weak(inputs["weak"], settings)
    if kind == "coupon":
        return run_coupon(inputs["coupon"])
    if kind == "cli":
        return run_cli(inputs["cli"][rest])
    raise ValueError(f"unknown behaviour group {name!r}")


def group_names(contract: dict) -> list:
    inputs = contract["inputs"]
    return ([f"regimes:{s}" for s in inputs["regimes"]]
            + [f"mc:{s}:{p}" for s in inputs["mc"] for p in contract["settings"]["mc_partitions"]]
            + ["weak", "coupon"]
            + [f"cli:{s}" for s in inputs["cli"]])


ROW_COLUMNS = ("n", "x", "log_p_exact", "log_p_mc", "stderr_log", "residual")


def _step(item, i: int, under: str) -> str:
    """A list item's name in a path: a report by family and regime, a row
    by n and x, a row entry by its column, a coupon level by its x."""
    if isinstance(item, dict) and "regime" in item:
        return f"{i} ({item['family']} {item['regime']})"
    if under == "rows" and isinstance(item, list):
        return f"{i} (n={item[0]}, x={item[1]})"
    if under == "row":
        return ROW_COLUMNS[i]
    if under in ("lower", "upper"):
        return f"x={COUPON_XS[i]}" if len(COUPON_XS) > i else str(i)
    return str(i)


def moved(old, new, path: str = "", under: str = "") -> list:
    """(path, old, new) for every leaf that differs, in order."""
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key in list(old) + [k for k in new if k not in old]:
            out += moved(old.get(key, "<absent>"), new.get(key, "<absent>"),
                         f"{path}/{key}", key)
        return out
    if isinstance(old, list) and isinstance(new, list):
        out = []
        for i in range(max(len(old), len(new))):
            a = old[i] if i < len(old) else "<absent>"
            b = new[i] if i < len(new) else "<absent>"
            out += moved(a, b, f"{path}/{_step(a if i < len(old) else b, i, under)}",
                         "row" if under == "rows" else "")
        return out
    return [] if old == new else [(path, old, new)]


def fresh_inputs() -> tuple:
    """Inputs and settings drawn from the benchmark's workload generator."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads as W

    inputs = {
        "regimes": {str(s): W.regimes_inputs(s) for s in SEEDS},
        "mc": {str(s): W.mc_inputs(s) for s in SEEDS},
        "weak": [[family, list(weak_n)] for family, _, _, _, weak_n in W.REGIME_RUNS],
        "coupon": {"n": COUPON_NS, "x": COUPON_XS},
        "cli": {str(s): W.cli_inputs(s) for s in SEEDS},
    }
    settings = {"tol_factor": W.TOL_FACTOR, "md_tol_factor": W.MD_TOL_FACTOR,
                "scaling": W.MC_SCALING, "mc_partitions": list(MC_PARTITIONS)}
    return inputs, settings


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if PATH.exists() and "--fresh-inputs" not in args:
        old = json.loads(PATH.read_text(encoding="utf-8"))
        inputs, settings = old["inputs"], old["settings"]
    else:
        inputs, settings = fresh_inputs()
    contract = {"versions": versions(), "settings": settings, "inputs": inputs}
    contract["records"] = {name: run_group(name, contract) for name in group_names(contract)}
    PATH.write_text(json.dumps(contract, separators=(",", ":"), sort_keys=False) + "\n",
                    encoding="utf-8")
    print(f"wrote {PATH} ({PATH.stat().st_size} bytes, {len(contract['records'])} groups)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
