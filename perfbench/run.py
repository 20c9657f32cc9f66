"""mdlab benchmark: three workloads, end-to-end metrics, a traced run for
the layers, and a compare mode. See perfbench/README.md.

    python3 perfbench/run.py --workload regimes --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload mc --seed 1 --seconds 30 --trace 1 --out after.jsonl
    python3 perfbench/run.py --compare before.jsonl after.jsonl

Run from the root of a checkout; the program is imported from src/.
Every pass runs in fresh interpreters: mdlab keeps a module-global
coupon table, so a second pass in one process would time that cache,
not what an `mdlab` call pays. The last line of standard output is one
JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks as K  # noqa: E402
import speed  # noqa: E402
import workloads as W  # noqa: E402

CALL_TIMEOUT = 120.0  # one interpreter; a longer one is a hang
CLI_ENTRY = "import sys; from mdlab.cli import main; sys.exit(main())"  # the `mdlab` script
IMPORT_MODULES = ["mdlab", "scipy.signal"] + [
    f"mdlab.{m}" for m in ("distributions", "rvtoolkit", "scalings", "families",
                           "estimators", "diagnostics", "cli")]
COUPON_CHEAP = 400_000  # every coupon row with n * m up to this is checked
COUPON_CAP = 25_000_000  # two more rows up to this, picked by the seed
COUPON_EXTRA = 2
CLI_SETUPS = 3

# per-layer sums a traced pass fills; zero means the workload never
# reached the layer, and the direct-call interpreter supplies it
FALLBACK_LAYERS = {
    "mc_panel": ["families.count_hits_s", "estimators.uniforms_drawn",
                 "estimators.uniform_s", "families.coupon.exact_tail_s"]
                + [f"families.count_hits.{f}_s" for f in
                   ("classical", "minima", "gumbel_maxima", "coupon", "replacement")],
    "cli_main": ["cli.main_s"],
}
PASS_LAYERS = ["families.exact_tail_s", "families.exact_tail_calls",
               "diagnostics.probe_self_s", "diagnostics.write_json_s",
               "diagnostics.write_csv_s", "diagnostics.read_json_s",
               "diagnostics.evaluate_verdict_s", "diagnostics.report_bytes"]


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd, cwd, log_stem):
    """Run one interpreter to its end; return (exit code, wall s, peak RSS MB).

    The child is reaped with wait4, which hands back its own rusage, so
    the peak RSS is that process's and not a running maximum over all
    children.
    """
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err, env=child_env())
        timer = threading.Timer(CALL_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        raise BenchError(f"{cmd[1:4]} killed by signal {-proc.returncode} "
                         f"(limit {CALL_TIMEOUT:g} s); see {log_stem}.err")
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, t0


class Worker:
    """Starts worker.py interpreters with one job file each."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.n = 0

    def run(self, mode, job, argv=(), cwd=None):
        self.n += 1
        stem = self.tmp / f"{self.n:03d}-{mode}"
        job_path, out_path = f"{stem}.job.json", f"{stem}.result.json"
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        cmd = [sys.executable, str(HERE / "worker.py"), mode, job_path, out_path]
        if argv:
            cmd += ["--", *argv]
        code, wall, rss, t0 = spawn(cmd, cwd or self.tmp, stem)
        if not os.path.exists(out_path):
            err = Path(f"{stem}.err").read_text(errors="replace")[-2000:]
            raise BenchError(f"worker {mode} exited {code} without a result:\n{err}")
        with open(out_path, encoding="utf-8") as fh:
            out = json.load(fh)
        out.update(code=code, wall=wall, spawn_rss_mb=rss, t0=t0, stem=str(stem))
        return out


# ---------------------------------------------------------------------------
# passes


def probe_pass(worker, workload, inputs, trace, dump, workdir):
    """One regimes or mc pass: set-up and pass in one fresh interpreter."""
    workdir.mkdir(parents=True, exist_ok=True)
    job = {"inputs": inputs, "trace": trace, "dump": dump, "workdir": str(workdir)}
    before = speed.probe()
    out = worker.run(workload, job)
    if out["code"] != 0:
        raise BenchError(f"{workload} pass exited {out['code']}; see {out['stem']}.err")
    setup_wall = out["ready"] - out["t0"]
    return {"setup_s": [speed.adjust(setup_wall, (before, out["first_probe"]))],
            "setup_wall_s": [setup_wall], "run_s": out["run_s"], "run_wall_s": out["run_wall_s"],
            "peak_rss_mb": out["peak_rss_mb"], "attempted": out["attempted"],
            "failed": out["failed"], "errors": out["errors"], "digest": out["digest"],
            "layers": out["layers"], "reports": out.get("reports"),
            "failures": out.get("failures", [])}


def cli_pass(worker, inputs, trace, workdir):
    """Set-up probes, then each invocation in its own fresh process.

    A cli pass has one invocation of each kind, so it runs CLI_SETUPS
    set-up probes to give set-up as many samples as a probe pass run.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    last = speed.probe()
    setups = []
    for _ in range(CLI_SETUPS):
        setup = worker.run("setup", {"inputs": inputs})
        probe = speed.probe()
        setups.append((setup["ready"] - setup["t0"], speed.adjust(
            setup["ready"] - setup["t0"], (last, probe))))
        last = probe
    calls, wall_s, peak, codes, layers = {}, 0.0, 0.0, {}, {}
    for call in inputs["calls"]:
        stem = workdir / call["name"]
        if trace:
            out = worker.run("cli-main", {"inputs": inputs}, argv=call["argv"], cwd=workdir)
            code, wall, rss = out["code"], out["wall"], out["spawn_rss_mb"]
            for k, v in out["layers"].items():
                layers[k] = layers.get(k, 0) + v
        else:
            code, wall, rss, _ = spawn([sys.executable, "-c", CLI_ENTRY, *call["argv"]],
                                       workdir, stem)
        probe = speed.probe()
        calls[call["name"]] = speed.adjust(wall, (last, probe))
        wall_s += wall
        last = probe
        peak = max(peak, rss)
        codes[call["name"]] = code
    digest = hashlib.sha256()
    for name in inputs["merge_inputs"] + ["merged.csv"]:
        digest.update((workdir / name).read_bytes() if (workdir / name).exists() else b"-")
    return {"setup_s": [a for _, a in setups], "setup_wall_s": [w for w, _ in setups],
            "run_s": sum(calls.values()), "run_wall_s": wall_s, "calls": calls,
            "peak_rss_mb": peak, "attempted": len(calls), "failed": 0, "errors": [],
            "digest": digest.hexdigest(), "layers": layers if trace else None,
            "codes": codes, "workdir": workdir}


# ---------------------------------------------------------------------------
# correctness


def _f(v):
    """Report JSON writes non-finite floats as strings."""
    return float(v) if isinstance(v, str) else v


def check_exact_rows(reports, seed, workload):
    """Exact columns against the oracles; MC columns against the exact ones."""
    import oracles as O

    failures, coupon_rows = [], []
    trials = {}
    if workload == "mc":
        for p in W.mc_inputs(seed)["probes"]:
            trials[(p["family"], p["regime"])] = p["trials"]
    for rep in reports:
        fam, regime, scaling = rep["family"], rep["regime"], rep["scaling"]
        for n, x, lp, lmc, se in rep["rows"]:
            n, x, lp, lmc, se = int(n), _f(x), _f(lp), _f(lmc), _f(se)
            label = f"{fam} {regime} {scaling} n={n} x={x!r}"
            if fam in O.CLOSED_FORMS:
                failures.append(K.closed_form(label, lp, O.closed_form_log_p(
                    fam, regime, scaling, n, x)))
            elif fam == "coupon":
                coupon_rows.append((O.coupon_row_cost(regime, scaling, n, x),
                                    label, regime, scaling, n, x, lp))
            else:
                failures.append(f"{label}: no oracle for this family")
            if (fam, regime) in trials:
                failures.append(K.mc_row(label, lp, lmc, se, trials[(fam, regime)]))
    cheap = [r for r in coupon_rows if r[0] <= COUPON_CHEAP]
    rest = sorted(r for r in coupon_rows if COUPON_CHEAP < r[0] <= COUPON_CAP)
    picked = random.Random(f"coupon-check:{seed}").sample(rest, min(COUPON_EXTRA, len(rest)))
    for _, label, regime, scaling, n, x, lp in cheap + picked:
        failures.append(K.coupon(label, lp, O.coupon_row_prob(regime, scaling, n, x)))
    return [f for f in failures if f], len(cheap) + len(picked)


def check_cli(worker, inputs, first):
    import csv

    import oracles as O

    workdir = first["workdir"]
    failures = []
    verdicts = {}
    for call in inputs["calls"]:
        argv = call["argv"]
        report_verdict = None
        if "--json" in argv:
            path = workdir / argv[argv.index("--json") + 1]
            payload = json.loads(path.read_text())
            report_verdict = payload["reports"][0]["verdict"]
            verdicts[path.name] = payload
        failures.append(K.exit_code(call["name"], first["codes"][call["name"]],
                                    call["expect"], report_verdict))
    err = workdir / "verify_rejected.err"
    if not err.exists() or "scaling rejected" not in err.read_text():
        failures.append("verify_rejected: no 'scaling rejected' message on stderr")
    # exact columns of every stored report against the closed forms
    for payload in verdicts.values():
        for rep in payload["reports"]:
            for row in rep["rows"]:
                label = f"{rep['family']} {rep['regime']} n={row['n']} x={row['x']!r}"
                failures.append(K.closed_form(label, _f(row["log_p_exact"]), O.closed_form_log_p(
                    rep["family"], rep["regime"], rep["scaling"], int(row["n"]), _f(row["x"]))))
    with open(workdir / "merged.csv", newline="") as fh:
        merged = sum(1 for _ in csv.reader(fh)) - 1
    failures.append(K.merged_rows("report", merged, [
        len(verdicts[name]["reports"][0]["rows"]) for name in inputs["merge_inputs"]]))
    with open(workdir / "md.csv", newline="") as fh:
        md_rows = sum(1 for _ in csv.reader(fh)) - 1
    failures.append(K.merged_rows("verify md --csv", md_rows,
                                  [len(verdicts["md.json"]["reports"][0]["rows"])]))
    svgs = sorted(p.name for p in (workdir / "plots").glob("*.svg"))
    if len(svgs) != len(inputs["merge_inputs"]) or not (workdir / "md.svg").exists():
        failures.append(f"report --plot wrote {svgs}, md.svg exists: "
                        f"{(workdir / 'md.svg').exists()}")
    out = worker.run("rejudge", {"paths": [str(workdir / n) for n in inputs["merge_inputs"]]})
    failures += out["failures"]
    return [f for f in failures if f]


# ---------------------------------------------------------------------------
# traced extras


def import_times(tmp: Path, repeat: int = 3) -> dict:
    """Cumulative import time per module from `python -X importtime`."""
    samples = {m: [] for m in IMPORT_MODULES}
    for i in range(repeat):
        stem = tmp / f"importtime-{i}"
        code, _, _, _ = spawn([sys.executable, "-X", "importtime", "-c", "import mdlab"],
                              tmp, stem)
        if code != 0:
            raise BenchError(f"import mdlab exited {code}; see {stem}.err")
        seen = {}
        for line in Path(f"{stem}.err").read_text().splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = [p.strip() for p in line[len("import time:"):].split("|")]
            if parts[0].isdigit():
                seen[parts[2]] = int(parts[1]) / 1e6
        for m in IMPORT_MODULES:
            if m not in seen:
                raise BenchError(f"-X importtime shows no {m}")
            samples[m].append(seen[m])
    return {f"import.{m}_s": statistics.median(v) for m, v in samples.items()}


# ---------------------------------------------------------------------------
# one run


def run_workload(workload, seed, seconds, trace, tmp):
    inputs = W.make_inputs(workload, seed)
    worker = Worker(tmp)
    passes = []
    start = time.monotonic()
    while True:
        pass_start = time.monotonic()
        i = len(passes)
        traced = bool(trace) and i % 2 == 1  # a traced run alternates untraced/traced
        workdir = tmp / f"pass-{i}"
        if workload == "cli":
            p = cli_pass(worker, inputs, traced, workdir)
        else:
            p = probe_pass(worker, workload, inputs, traced, i == 0, workdir)
        p["traced"] = traced
        p["pass_wall_s"] = time.monotonic() - pass_start
        passes.append(p)
        if i > 0:
            shutil.rmtree(workdir)
        # stop when one more pass would end past --seconds by more than
        # half a pass, so a run lasts about --seconds on every workload;
        # at least two passes, so no median rests on one sample and a
        # traced run has an untraced pass to compare with
        mean_pass = statistics.mean(q["pass_wall_s"] for q in passes)
        if time.monotonic() - start + 0.5 * mean_pass >= seconds and len(passes) >= 2:
            break

    first = passes[0]
    failures = list(first.get("failures") or [])
    for p in passes:
        failures += [f"operation failed: {e}" for e in p["errors"]]
        if p["digest"] != first["digest"]:
            failures.append("outputs differ between two fresh interpreters on the same inputs")
    checked = None
    if workload == "cli":
        failures += check_cli(worker, inputs, first)
    else:
        more, checked = check_exact_rows(first["reports"], seed, workload)
        failures += more

    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    if not trace:
        metrics["setup_s"] = (statistics.median(s for p in plain for s in p["setup_s"]), "s")
        metrics["run_s"] = (run_s(plain), "s")
        metrics["peak_rss_mb"] = (statistics.median(p["peak_rss_mb"] for p in plain), "MB")
    else:
        metrics = traced_metrics(workload, seed, inputs, passes, worker, tmp)
    return {
        "correct": not failures,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": failures,
        "passes": [{k: p[k] for k in ("traced", "setup_s", "run_s", "peak_rss_mb",
                                      "setup_wall_s", "run_wall_s", "calls") if k in p}
                   for p in passes],
        "coupon_rows_checked": checked,
    }


def run_s(passes) -> float:
    """Median pass time; on cli, the sum of each invocation's median."""
    if "calls" in passes[0]:
        return sum(statistics.median(p["calls"][name] for p in passes)
                   for name in passes[0]["calls"])
    return statistics.median(p["run_s"] for p in passes)


def layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ns"):
        return "ns"
    if name.endswith("_s"):
        return "s"
    return "count"


def traced_metrics(workload, seed, inputs, passes, worker, tmp):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    layers = {}
    for name in PASS_LAYERS + [n for names in FALLBACK_LAYERS.values() for n in names]:
        layers[name] = statistics.median(p["layers"].get(name, 0) for p in traced)
    fallback = [k for k, names in FALLBACK_LAYERS.items()
                if any(layers[n] == 0 for n in names)]
    direct = worker.run("direct", {
        "seed": seed, "mc_inputs": W.mc_inputs(seed), "cli_inputs": W.cli_inputs(seed),
        "fallback": fallback, "workdir": str(tmp / "direct")})
    for k in fallback:
        source = direct if k == "cli_main" else direct["fallback_layers"]
        for n in FALLBACK_LAYERS[k]:
            if layers[n] == 0:
                layers[n] = source.get(n, 0)
    for k, v in direct.items():
        if k.startswith(("distributions.", "estimators.", "scalings.", "rvtoolkit.")):
            layers[k] = v
    layers.update(import_times(tmp))
    layers["trace.overhead_s"] = run_s(traced) - run_s(plain)
    return {k: (v, layer_unit(k)) for k, v in sorted(layers.items())}


# ---------------------------------------------------------------------------
# provenance and results files


def _line_count(path: Path) -> int:
    return sum(len(f.read_bytes().splitlines()) for f in sorted(path.rglob("*.py")))


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor() or None
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "cpu_model": cpu, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(), **versions,
        "git_sha": _git_sha(),
        "src_lines": _line_count(ROOT / "src"),
        "tests_lines": _line_count(ROOT / "tests") if (ROOT / "tests").exists() else None,
        "seed": seed,
    }


def load_results(path) -> dict:
    """(workload, metric) -> values, from a results file written with --out."""
    groups = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, m in rec["metrics"].items():
                groups.setdefault((rec["workload"], name), []).append(m["value"])
            groups.setdefault((rec["workload"], "failed_share"), []).append(
                rec["failed"] / rec["attempted"])
    return groups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(path_a, path_b, bench_path):
    """Median and quartiles per side, their ratio, and a flag per metric.

    An end-to-end metric is CHANGED when B's median moves beyond the
    metric's bound, and unresolved when either side's quartile spread
    is wider than the bound. Per-layer metrics carry no bound.
    """
    with open(bench_path, encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    a, b = load_results(path_a), load_results(path_b)
    print(f"{'workload':<8} {'metric':<40} {'A median [q1, q3]':<36} "
          f"{'B median [q1, q3]':<36} {'B/A':>7}  flag")
    for key in sorted(set(a) & set(b)):
        (qa1, ma, qa3), (qb1, mb, qb3) = quartiles(a[key]), quartiles(b[key])
        ratio = mb / ma if ma else math.nan
        flag = ""
        m = bounds.get(key[1])
        if m is not None:
            spread = max((qa3 - qa1) / ma, (qb3 - qb1) / mb)
            worse = ratio - 1.0 if m["better"] == "lower" else 1.0 - ratio
            if spread > m["bound"]:
                flag = f"unresolved: spread {spread:.3f} > bound {m['bound']}"
            elif abs(worse) > m["bound"]:
                flag = (f"CHANGED: {'worse' if worse > 0 else 'better'} by "
                        f"{abs(worse):.3f} (bound {m['bound']})")
        elif key[1] == "failed_share" and ma != mb:
            flag = "CHANGED: share of failed operations"
        side_a = f"{ma:.5g} [{qa1:.5g}, {qa3:.5g}]"
        side_b = f"{mb:.5g} [{qb1:.5g}, {qb3:.5g}]"
        print(f"{key[0]:<8} {key[1]:<40} {side_a:<36} {side_b:<36} {ratio:>7.4f}  {flag}")
    for key in sorted(set(a) ^ set(b)):
        print(f"{key[0]:<8} {key[1]:<40} only in {'A' if key in a else 'B'}")
    return 0


def pin_one_cpu():
    """Keep this process and every child on one CPU, so the speed probes
    and the work they rescale run on the same core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="passes start until this much time has gone by")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run instead of end-to-end ones")
    ap.add_argument("--out", help="append this run, with provenance, to a JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two results files written with --out")
    args = ap.parse_args(argv)

    if args.compare:
        return compare(*args.compare, ROOT / "BENCHMARK.json")
    if args.workload is None:
        ap.error("--workload is required unless --compare is given")
    if not (ROOT / "src" / "mdlab" / "__init__.py").is_file():
        print(f"run.py: no src/mdlab under {ROOT}; run it from a checkout of mdlab",
              file=sys.stderr)
        return 2

    pin_one_cpu()
    tmp = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, tmp)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for f in result["failures"]:
        print(f"CHECK FAILED: {f}")
    for p in result["passes"]:
        print(f"pass traced={int(p['traced'])} setup_s={statistics.median(p['setup_s']):.4f} "
              f"run_s={p['run_s']:.4f} peak_rss_mb={p['peak_rss_mb']:.1f}")
    for name, m in result["metrics"].items():
        print(f"{args.workload:<8} {name:<44} {m['value']:>14.6g} {m['unit']}")
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, **{k: result[k] for k in (
                      "correct", "attempted", "failed", "metrics", "failures", "passes",
                      "coupon_rows_checked")},
                  "provenance": provenance(args.seed)}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
