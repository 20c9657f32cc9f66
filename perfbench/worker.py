"""One benchmark interpreter; run.py starts it with src/ on PYTHONPATH.

    worker.py MODE JOB_JSON OUT_JSON [-- MDLAB_ARGV...]

Modes:
  regimes, mc  set up (import mdlab, parse the specs), then one pass
  setup        set up only (the cli workload's set-up probe)
  cli-main     one traced `mdlab` invocation: main(argv), exit with its code
  rejudge      read report JSON files back and re-judge every report
  direct       direct calls into the layers a pass reaches only indirectly

Every mode writes one JSON object to OUT_JSON. "ready" is the
time.monotonic() reading at the end of set-up; on Linux that clock is
shared by all processes, so the parent subtracts its spawn time from it.
With "trace" set in the job, the pass runs through Tracer's wrappers
and the object carries the per-layer sums under "layers".
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from time import perf_counter

import speed
import workloads as W

SHORT_NAMES = {"classical_sums": "classical"}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Ops:
    """Runs a pass's operations: counts the attempted and the failed ones,
    sums their wall time, and rescales each by the speed probes taken
    just before and just after it (see speed.py)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.wall = 0.0
        self.adjusted = 0.0
        self.first_probe = self.last_probe = speed.probe()

    def do(self, fn, *args, **kwargs):
        self.attempted += 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, the pass goes on
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None
        finally:
            dt = perf_counter() - t0
            probe = speed.probe()
            self.wall += dt
            self.adjusted += speed.adjust(dt, (self.last_probe, probe))
            self.last_probe = probe


# ---------------------------------------------------------------------------
# tracing: wrappers around the calls into each layer, sums kept in memory


class Tracer:
    """Per-layer time and count sums, filled by wrappers installed from
    outside the program: FamilySpec callables through dataclasses.replace,
    a proxy panel for count_hits, and module attributes of mdlab.diagnostics
    and mdlab.cli."""

    def __init__(self):
        self.time = defaultdict(float)
        self.count = defaultdict(int)
        self.callee = 0.0  # time in family callables and evaluate_verdict

    def _add(self, keys, dt, callee):
        for key in keys:
            self.time[key] += dt
        if callee:
            self.callee += dt

    def timed(self, fn, *keys, callee=False, calls=None):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add(keys, perf_counter() - t0, callee)
                if calls:
                    self.count[calls] += 1
        wrapper.__name__ = getattr(fn, "__name__", "call")
        return wrapper

    def family(self, fam):
        name = SHORT_NAMES.get(fam.name, fam.name)
        tail_keys = ["families.exact_tail_s"]
        if fam.name == "coupon":
            tail_keys.append("families.coupon.exact_tail_s")
        count_hits = fam.count_hits

        def hits(n, x, side, panel):
            t0 = perf_counter()
            try:
                return count_hits(n, x, side, ProxyPanel(panel, self))
            finally:
                self._add(("families.count_hits_s", f"families.count_hits.{name}_s"),
                          perf_counter() - t0, True)

        return dataclasses.replace(
            fam,
            exact_log_upper_tail=self.timed(fam.exact_log_upper_tail, *tail_keys,
                                            callee=True, calls="families.exact_tail_calls"),
            exact_log_lower_tail=self.timed(fam.exact_log_lower_tail, *tail_keys,
                                            callee=True, calls="families.exact_tail_calls"),
            speed=self.timed(fam.speed, "families.speed_s", callee=True),
            limit_cdf=self.timed(fam.limit_cdf, "families.limit_cdf_s", callee=True),
            count_hits=hits,
        )

    def probe(self, fn):
        def wrapper(*args, **kwargs):
            before = self.callee
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = perf_counter() - t0
                self.time["diagnostics.probe_self_s"] += wall - (self.callee - before)
        wrapper.__name__ = fn.__name__
        return wrapper

    def write_json(self, fn):
        timed = self.timed(fn, "diagnostics.write_json_s")

        def wrapper(reports, path):
            timed(reports, path)
            self.count["diagnostics.report_bytes"] += os.path.getsize(path)
        wrapper.__name__ = "write_json"
        return wrapper

    def install(self):
        """Patch the diagnostics and cli module attributes the passes use."""
        from mdlab import cli as C
        from mdlab import diagnostics as D

        D.evaluate_verdict = self.timed(D.evaluate_verdict, "diagnostics.evaluate_verdict_s",
                                        callee=True)
        for mod in (D, C):
            for name in ("ldp_probe", "md_probe", "weak_probe"):
                setattr(mod, name, self.probe(getattr(mod, name)))
            mod.write_json = self.write_json(mod.write_json)
            mod.write_csv = self.timed(mod.write_csv, "diagnostics.write_csv_s")
            mod.read_json = self.timed(mod.read_json, "diagnostics.read_json_s")
        parse = C.parse_family_spec
        C.parse_family_spec = lambda spec: self.family(parse(spec))

    def layers(self) -> dict:
        return {**self.time, **self.count}


class ProxyPanel:
    """Stands in for a UniformPanel inside count_hits; times column()."""

    def __init__(self, panel, tracer: Tracer):
        self._panel = panel
        self._tracer = tracer
        self.seed, self.start, self.stop = panel.seed, panel.start, panel.stop

    def __len__(self):
        return len(self._panel)

    def column(self, draw):
        t0 = perf_counter()
        col = self._panel.column(draw)
        self._tracer.time["estimators.uniform_s"] += perf_counter() - t0
        self._tracer.count["estimators.uniforms_drawn"] += len(col)
        return col


# ---------------------------------------------------------------------------
# passes


def rows_of(report) -> list:
    return [[r.n, r.x, r.log_p_exact, r.log_p_mc, r.stderr_log] for r in report.rows]


def row_values(report) -> tuple:
    return tuple(v for r in report.rows for v in dataclasses.astuple(r)) + (report.verdict,)


def weak(fam, ns, shift):
    """The weak probe on the default grid moved by the seed's shift."""
    from mdlab import diagnostics as D

    grid = [x + shift for x in D.default_weak_grid(fam)]
    return D.weak_probe(fam, ns, x_grid=grid, tol_factor=W.TOL_FACTOR)


def regimes_pass(job, fams, scalings, ops):
    from mdlab import diagnostics as D
    from mdlab import scalings as S

    inputs = job["inputs"]
    reports = []
    for run in inputs["runs"]:
        fam = fams[run["family"]]
        reports.append(ops.do(D.ldp_probe, fam, run["ld_x"], run["ld_n"],
                              tol_factor=W.TOL_FACTOR))
        reports.append(ops.do(D.md_probe, fam, scalings["pow:0.5"], run["md_x"], run["md_n"],
                              tol_factor=W.MD_TOL_FACTOR))
        reports.append(ops.do(weak, fam, run["weak_n"], run["weak_shift"]))
    boundary = inputs["boundary"]
    gumbel = fams[boundary["family"]]
    extra = [ops.do(D.md_probe, gumbel, regime.scaling, boundary["x"], boundary["n"],
                    enforce_admissible=False)
             for regime in S.boundary_regimes(gumbel)]
    return [r for r in reports if r is not None], [r for r in extra if r is not None]


def mc_pass(job, fams, scalings, ops):
    from mdlab import diagnostics as D

    reports = []
    scaling = scalings[W.MC_SCALING]
    for p in job["inputs"]["probes"]:
        fam = fams[p["family"]]
        if p["regime"] == "ld":
            rep = ops.do(D.ldp_probe, fam, p["x"], p["n"], trials=p["trials"],
                         seed=p["mc_seed"], tol_factor=W.TOL_FACTOR)
        else:
            rep = ops.do(D.md_probe, fam, scaling, p["x"], p["n"], trials=p["trials"],
                         seed=p["mc_seed"], tol_factor=W.MD_TOL_FACTOR)
        reports.append(rep)
    return reports, []


def serialize(reports, workdir, ops, stem):
    """Write CSV and JSON, read the JSON back, re-judge every report."""
    from mdlab import diagnostics as D

    json_path = os.path.join(workdir, stem + ".json")
    ops.do(D.write_csv, reports, os.path.join(workdir, stem + ".csv"))
    ops.do(D.write_json, reports, json_path)
    back = ops.do(D.read_json, json_path) or []
    verdicts = [ops.do(D.evaluate_verdict, r.rows, r.tolerances) for r in back]
    return back, verdicts


def pass_checks(job, fams, reports, back, verdicts):
    """In-process checks after the timed region: read-back, re-judge,
    partition invariance, the exact weak limit of exponential minima."""
    import checks as K
    from mdlab import diagnostics as D
    from mdlab import scalings as S

    failures = []
    if len(back) != len(reports):
        failures.append(f"read back {len(back)} reports of {len(reports)}")
    for rep, got, v in zip(reports, back, verdicts):
        label = f"{rep.family} {rep.regime}"
        failures.append(K.same_values(f"{label} JSON read-back", row_values(rep), row_values(got)))
        failures.append(K.verdict(label, got.verdict, v))
    inputs = job["inputs"]
    if inputs["workload"] == "regimes":
        for rep in reports:
            if rep.family == W.MINIMA and rep.regime == "weak":
                sup = max(s for _, s in D.weak_sup_distances(rep))
                failures.append(K.weak_sup(f"{rep.family} weak", sup))
    if inputs["workload"] == "mc":
        k = inputs["partition_probe"]
        p = inputs["probes"][k]
        fam = fams[p["family"]]
        scaling = S.parse_scaling_spec(W.MC_SCALING)
        kw = dict(trials=p["trials"], seed=p["mc_seed"], partitions=inputs["partitions"])
        if p["regime"] == "ld":
            again = D.ldp_probe(fam, p["x"], p["n"], **kw)
        else:
            again = D.md_probe(fam, scaling, p["x"], p["n"], **kw)
        mc = lambda rep: tuple(v for r in rep.rows for v in (r.log_p_mc, r.stderr_log))
        failures.append(K.same_values(
            f"{p['family']} {p['regime']} with {inputs['partitions']} partitions",
            mc(reports[k]), mc(again)))
    return [f for f in failures if f]


def run_pass(mode, job):
    from mdlab import families as F
    from mdlab import scalings as S

    inputs = job["inputs"]
    fams = {s: F.parse_family_spec(s) for s in inputs["families"]}
    scalings = {s: S.parse_scaling_spec(s) for s in inputs["scalings"]}
    ready = time.monotonic()
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
        fams = {s: tracer.family(f) for s, f in fams.items()}
    ops = Ops()
    body = regimes_pass if mode == "regimes" else mc_pass
    reports, extra = body(job, fams, scalings, ops)
    reports = [r for r in reports if r is not None]
    back, verdicts = serialize(reports, job["workdir"], ops, mode)
    out = {
        "ready": ready, "first_probe": ops.first_probe,
        "run_s": ops.adjusted, "run_wall_s": ops.wall, "peak_rss_mb": peak_rss_mb(),
        "attempted": ops.attempted, "failed": ops.failed, "errors": ops.errors,
        "layers": tracer.layers() if tracer else None,
    }
    digest = hashlib.sha256()
    for rep in reports + extra:
        digest.update(repr(row_values(rep)).encode())
    out["digest"] = digest.hexdigest()
    if job["dump"]:
        out["reports"] = [{"family": r.family, "regime": r.regime, "scaling": r.scaling,
                           "rows": rows_of(r)} for r in reports + extra]
        out["failures"] = pass_checks(job, fams, reports, back, verdicts)
    return out


# ---------------------------------------------------------------------------
# other modes


def setup_only(job):
    from mdlab import distributions as Dist
    from mdlab import families as F
    from mdlab import scalings as S

    inputs = job["inputs"]
    for s in inputs["families"]:
        F.parse_family_spec(s)
    for s in inputs["scalings"]:
        S.parse_scaling_spec(s)
    for s in inputs.get("dists", ()):
        Dist.parse_dist_spec(s)
    return {"ready": time.monotonic()}


def rejudge(job):
    """Read each report file back and re-judge every report in it."""
    import checks as K
    from mdlab import diagnostics as D

    failures = []
    for path in job["paths"]:
        for rep in D.read_json(path):
            failures.append(K.verdict(f"{os.path.basename(path)} {rep.family}",
                                      rep.verdict, D.evaluate_verdict(rep.rows, rep.tolerances)))
    return {"failures": [f for f in failures if f]}


def _median_time(fn, repeat):
    times = []
    for _ in range(repeat):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def direct(job):
    """Direct calls into layers that a pass reaches only from inside
    another layer, fed with inputs the mc and cli workloads generate."""
    import numpy as np

    import mdlab
    from mdlab import cli as C
    from mdlab import diagnostics as D
    from mdlab import distributions as Dist
    from mdlab import families as F
    from mdlab import rvtoolkit as R
    from mdlab import scalings as S

    mc = job["mc_inputs"]
    rng = np.random.default_rng(job["seed"])
    by_family = {p["family"]: p for p in mc["probes"]}
    out = {}

    gamma_max = by_family[W.GAMMA_MAX]
    u = rng.random(gamma_max["trials"])
    q = -np.expm1(np.log(u) / gamma_max["n"][0])
    g2 = Dist.gamma(2.0)
    out["distributions.isf_values.gamma_us"] = (
        _median_time(lambda: Dist.isf_values(g2, q), 3) / q.size * 1e6)

    weib = by_family[W.WEIBULL_MAX]
    u = rng.random(weib["trials"])
    q = -np.expm1(np.log(u) / weib["n"][0])
    w2 = Dist.weibull(2.0)
    out["distributions.isf_values.weibull_us"] = (
        _median_time(lambda: Dist.isf_values(w2, q), 5) / q.size * 1e6)

    # the replacement sampler's lower branch: u <= beta through F = gamma(2)
    rep = by_family[W.REPLACEMENT_GAMMA]
    beta, t = 0.4, 1.0
    u = rng.random(rep["trials"])
    u = u[u <= beta]
    p = np.exp(g2.log_cdf(t) + (np.log(u) - np.log(beta)) / rep["n"][0])
    out["distributions.quantile_values.gamma_us"] = (
        _median_time(lambda: Dist.quantile_values(g2, p), 3) / p.size * 1e6)

    panel = max(p["trials"] for p in mc["probes"])
    idx = np.arange(panel, dtype=np.uint64)
    out["estimators.counter_uniforms_ns"] = (
        _median_time(lambda: mdlab.counter_uniforms(job["seed"], idx, 3), 7) / panel * 1e9)

    cli = job["cli_inputs"]
    fams = {s: F.parse_family_spec(s) for s in cli["families"]}
    ns_md = [10**3, 10**4, 10**5, 10**6]
    ns_rej = [10**2, 10**3, 10**4, 10**5]

    def validate_cli():
        S.validate(S.parse_scaling_spec("pow:0.5"), fams["classical:sigma=1"], ns_md)
        S.validate(S.parse_scaling_spec("logpow:0.5"),
                   fams["replacement:exponential:1,exponential:2,t=1,beta=0.4"], ns_rej)

    out["scalings.validate_s"] = _median_time(validate_cli, 21)
    dists = [Dist.parse_dist_spec(s) for s in cli["dists"]]
    out["rvtoolkit.lemma_battery_s"] = _median_time(
        lambda: [R.lemma_battery(d) for d in dists], 11)

    wanted = set(job["fallback"])
    if "cli_main" in wanted:
        os.makedirs(job["workdir"], exist_ok=True)
        os.chdir(job["workdir"])
        total = 0.0
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for call in cli["calls"]:
                t0 = perf_counter()
                C.main(list(call["argv"]))
                total += perf_counter() - t0
        out["cli.main_s"] = total
    if "mc_panel" in wanted:
        # layers the workload never reaches: the mc probes with small panels
        tracer = Tracer()
        tracer.install()
        scaling = S.parse_scaling_spec(W.MC_SCALING)
        for p in mc["probes"]:
            fam = tracer.family(F.parse_family_spec(p["family"]))
            kw = dict(trials=min(p["trials"], 1024), seed=p["mc_seed"])
            if p["regime"] == "ld":
                D.ldp_probe(fam, p["x"], p["n"], **kw)
            else:
                D.md_probe(fam, scaling, p["x"], p["n"], **kw)
        out["fallback_layers"] = tracer.layers()
    return out


def cli_main(job, argv):
    from mdlab import cli as C

    tracer = Tracer()
    tracer.install()
    t0 = perf_counter()
    code = C.main(argv)
    layers = tracer.layers()
    layers["cli.main_s"] = perf_counter() - t0
    return {"layers": layers}, code


def main(argv) -> int:
    mode, job_path, out_path = argv[:3]
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    import mdlab  # noqa: F401  set-up: the package import

    code = 0
    if mode in ("regimes", "mc"):
        out = run_pass(mode, job)
    elif mode == "setup":
        out = setup_only(job)
    elif mode == "cli-main":
        out, code = cli_main(job, argv[4:])
    elif mode == "rejudge":
        out = rejudge(job)
    elif mode == "direct":
        out = direct(job)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
