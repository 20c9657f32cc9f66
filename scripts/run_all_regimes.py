"""Drive every family through the three regimes and print a verdict table.

Also probes the two boundary scalings on the Gumbel family with admission
checks switched off, to show what the diagnostics report when the moderate
band is left on purpose. Pass --out DIR to keep CSV and JSON copies.
"""

import argparse
import os

from mdlab import (
    DEFAULT_TOL_FACTOR,
    boundary_regimes,
    ldp_probe,
    md_probe,
    parse_family_spec,
    power_scaling,
    weak_probe,
    weak_sup_distances,
    write_csv,
    write_json,
)

# (family, levels, ld n grid, md n grid, weak n grid); the coupon ld grid
# skips n=2, where the integer draw threshold sits exactly on the event
# and the residual starts at zero before settling into its decay.
RUNS = [
    (parse_family_spec("classical:sigma=1"), (0.5, 1.0),
     (1000, 10**4, 10**5, 10**6), (1000, 10**4, 10**5, 10**6),
     (100, 10**4, 10**6)),
    (parse_family_spec("minima:exponential:1"), (0.5, 1.0),
     (100, 1000, 10**4, 10**5), (100, 1000, 10**4, 10**5),
     (100, 10**4)),
    (parse_family_spec("gumbel_maxima:weibull:2"), (0.5, 1.0),
     (1000, 10**4, 10**5, 10**6), (1000, 10**4, 10**5, 10**6),
     (1000, 10**5)),
    (parse_family_spec("coupon"), (0.5, 1.0),
     (20, 200, 2000, 20000), (2, 20, 200, 2000),
     (50, 200, 1000)),
    (parse_family_spec("replacement:exponential:1,exponential:2,t=1,beta=0.4"),
     (0.5, 1.0), (10, 100, 1000, 10**4), (10, 100, 1000, 10**4),
     (100, 10**4)),
]


def describe(report):
    line = f"{report.family:<42} {report.regime:<4} verdict {report.verdict}"
    if report.regime == "weak":
        n, sup = weak_sup_distances(report)[-1]
        return line + f"  (sup {sup:.3e} at n={n})"
    finals = [report.rows_for(x)[-1] for x in sorted({r.x for r in report.rows})]
    gaps = ", ".join(f"x={r.x:g}: {abs(r.residual):.3e}" for r in finals)
    return line + f"  (final residuals {gaps})"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", help="directory for CSV/JSON copies of every report")
    ap.add_argument("--tol-factor", type=float, default=DEFAULT_TOL_FACTOR)
    args = ap.parse_args()

    reports = []
    for fam, xs, ld_ns, md_ns, weak_ns in RUNS:
        reports.append(ldp_probe(fam, xs, ld_ns, tol_factor=args.tol_factor))
        reports.append(md_probe(fam, power_scaling(0.5), xs, md_ns,
                                tol_factor=max(args.tol_factor, 0.1)))
        reports.append(weak_probe(fam, weak_ns, tol_factor=args.tol_factor))
    for report in reports:
        print(describe(report))

    gumbel = RUNS[2][0]
    print()
    for regime in boundary_regimes(gumbel):
        rep = md_probe(gumbel, regime.scaling, (0.5, 1.0),
                       (1000, 10**4, 10**5, 10**6), enforce_admissible=False)
        print(f"boundary {regime.tag} ({regime.violates}): verdict {rep.verdict}"
              f"  [{regime.note}]")

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_csv(reports, os.path.join(args.out, "all_regimes.csv"))
        write_json(reports, os.path.join(args.out, "all_regimes.json"))
        print(f"\nwrote {args.out}/all_regimes.csv and .json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
