"""Workload inputs, generated from the seed alone (no mdlab import).

Every input is plain JSON so the parent can hand it to a fresh worker
interpreter. The seed moves the probe levels x by up to 2% and shifts
the weak grids left by up to 0.01 (the default grid starts at the limit
cdf's 0.004 point and weak_probe refuses one starting above 0.005); it never changes a sample-size grid, a
trial count or the list of operations, so every seed does the same
amount of work and the per-seed spread of a metric is noise, not input
size.
"""

from __future__ import annotations

import random

TOL_FACTOR = 0.05
MD_TOL_FACTOR = 0.1  # run_all_regimes.py loosens md to max(tol, 0.1)

CLASSICAL = "classical:sigma=1.0"
MINIMA = "minima:exponential:1.0"
WEIBULL_MAX = "gumbel_maxima:weibull:2.0"
GAMMA_MAX = "gumbel_maxima:gamma:2.0"
COUPON = "coupon"
REPLACEMENT_EXP = "replacement:exponential:1.0,exponential:2.0,t=1.0,beta=0.4"
REPLACEMENT_GAMMA = "replacement:gamma:2.0,exponential:2.0,t=1.0,beta=0.4"

# scripts/run_all_regimes.py: (family, levels, ld n, md n, weak n)
REGIME_RUNS = [
    (CLASSICAL, (0.5, 1.0), (1000, 10**4, 10**5, 10**6),
     (1000, 10**4, 10**5, 10**6), (100, 10**4, 10**6)),
    (MINIMA, (0.5, 1.0), (100, 1000, 10**4, 10**5),
     (100, 1000, 10**4, 10**5), (100, 10**4)),
    (WEIBULL_MAX, (0.5, 1.0), (1000, 10**4, 10**5, 10**6),
     (1000, 10**4, 10**5, 10**6), (1000, 10**5)),
    (COUPON, (0.5, 1.0), (20, 200, 2000, 20000), (2, 20, 200, 2000),
     (50, 200, 1000)),
    (REPLACEMENT_EXP, (0.5, 1.0), (10, 100, 1000, 10**4),
     (10, 100, 1000, 10**4), (100, 10**4)),
]
BOUNDARY_NS = (1000, 10**4, 10**5, 10**6)

# Monte Carlo probes: (family, regime, levels, n grid, trials). The three
# closed-form inversions get large panels; gamma has no closed-form
# inverse, so its two families run bisection per point and get a few
# thousand trials. Every row with exact p >= 1e-3 gets the 4-stderr
# check, and each such row fails it by chance about once in 10^4 seeds,
# so the weibull and gamma maxima md probes keep one level (x=1) and the
# gamma maxima ld level sits at x=1, where every row is below 2e-4.
MC_PROBES = [
    (CLASSICAL, "ld", (0.5, 1.0), (1000, 10**4, 10**5, 10**6), 200_000),
    (CLASSICAL, "md", (0.5, 1.0), (1000, 10**4, 10**5, 10**6), 200_000),
    (MINIMA, "ld", (0.5, 1.0), (100, 1000, 10**4, 10**5), 200_000),
    (MINIMA, "md", (0.5, 1.0), (100, 1000, 10**4, 10**5), 200_000),
    (WEIBULL_MAX, "ld", (0.5, 1.0), (1000, 10**4, 10**5, 10**6), 200_000),
    (WEIBULL_MAX, "md", (1.0,), (1000, 10**4, 10**5, 10**6), 200_000),
    (GAMMA_MAX, "ld", (1.0,), (1000, 10**4, 10**5, 10**6), 1500),
    (GAMMA_MAX, "md", (1.0,), (1000, 10**4, 10**5, 10**6), 1500),
    (REPLACEMENT_GAMMA, "ld", (-0.5, 0.5), (10, 100, 1000, 10**4), 2000),
    (REPLACEMENT_GAMMA, "md", (-0.5, 0.5), (10, 100, 1000, 10**4), 2000),
    (COUPON, "md", (0.5, 1.0), (2, 20, 200, 2000), 2000),
    (COUPON, "ld", (-0.3,), (2, 20, 200, 2000), 2000),
]
MC_SCALING = "pow:0.5"
# the probe re-run with several partitions; its estimates must not move
PARTITION_PROBE = 3  # index into MC_PROBES (minima md)
PARTITIONS = 7

WORKLOADS = ("regimes", "mc", "cli")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _jitter(rng: random.Random, xs) -> list:
    return [round(x * (1.0 + rng.uniform(-0.02, 0.02)), 6) for x in xs]


def regimes_inputs(seed: int) -> dict:
    rng = _rng("regimes", seed)
    runs = []
    for family, xs, ld_n, md_n, weak_n in REGIME_RUNS:
        runs.append({
            "family": family,
            "ld_x": _jitter(rng, xs), "ld_n": list(ld_n),
            "md_x": _jitter(rng, xs), "md_n": list(md_n),
            "weak_n": list(weak_n), "weak_shift": round(rng.uniform(-0.01, 0.0), 6),
        })
    return {
        "workload": "regimes",
        "families": [r["family"] for r in runs],
        "scalings": ["pow:0.5"],
        "runs": runs,
        "boundary": {"family": WEIBULL_MAX, "x": _jitter(rng, (0.5, 1.0)),
                     "n": list(BOUNDARY_NS)},
    }


def mc_inputs(seed: int) -> dict:
    rng = _rng("mc", seed)
    probes = []
    for family, regime, xs, ns, trials in MC_PROBES:
        probes.append({
            "family": family, "regime": regime, "x": _jitter(rng, xs),
            "n": list(ns), "trials": trials,
            "mc_seed": rng.getrandbits(63),
        })
    return {
        "workload": "mc",
        "families": sorted({p["family"] for p in probes}),
        "scalings": [MC_SCALING],
        "probes": probes,
        "partition_probe": PARTITION_PROBE,
        "partitions": PARTITIONS,
    }


def cli_inputs(seed: int) -> dict:
    """The README's mdlab invocations, with the seed moving the levels.

    Each entry is (name, argv, expected exit code or None). None means
    the code follows the verdict in the report that invocation wrote:
    0 pass, 2 fail, 3 inconclusive. Paths are relative to the pass's
    own work directory.
    """
    rng = _rng("cli", seed)
    ld_x = ",".join(repr(x) for x in _jitter(rng, (0.3, 0.8)))
    md_x = repr(_jitter(rng, (1.0,))[0])
    rej_x = repr(_jitter(rng, (0.5,))[0])
    calls = [
        ("verify_ld", ["verify", "ld", "--family", "minima:exponential:1",
                       f"--x={ld_x}", "--n", "1e2,1e3,1e4,1e5", "--json", "ld.json"], None),
        ("verify_md", ["verify", "md", "--family", "classical:sigma=1",
                       "--scaling", "pow:0.5", f"--x={md_x}", "--n", "1e3,1e4,1e5,1e6",
                       "--csv", "md.csv", "--json", "md.json", "--svg", "md.svg"], None),
        ("verify_weak", ["verify", "weak", "--family", "gumbel_maxima:weibull:2",
                         "--n", "1000,100000", "--json", "weak.json"], None),
        ("verify_rejected", ["verify", "md", "--family",
                             "replacement:exponential:1,exponential:2,t=1,beta=0.4",
                             "--scaling", "logpow:0.5", f"--x={rej_x}",
                             "--n", "1e2,1e3,1e4,1e5"], 1),
        ("lemmas_weibull", ["lemmas", "--dist", "weibull:2"], 0),
        ("lemmas_lognormal", ["lemmas", "--dist", "lognormal"], 2),
        ("report", ["report", "--in", "ld.json", "md.json", "weak.json",
                    "--csv", "merged.csv", "--plot", "plots"], 0),
    ]
    return {
        "workload": "cli",
        "families": ["minima:exponential:1", "classical:sigma=1", "gumbel_maxima:weibull:2",
                     "replacement:exponential:1,exponential:2,t=1,beta=0.4"],
        "scalings": ["pow:0.5", "logpow:0.5"],
        "dists": ["weibull:2", "lognormal"],
        "calls": [{"name": n, "argv": a, "expect": e} for n, a, e in calls],
        "merge_inputs": ["ld.json", "md.json", "weak.json"],
    }


def make_inputs(workload: str, seed: int) -> dict:
    if workload == "regimes":
        return regimes_inputs(seed)
    if workload == "mc":
        return mc_inputs(seed)
    if workload == "cli":
        return cli_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}; workloads: {', '.join(WORKLOADS)}")
