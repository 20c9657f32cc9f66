"""Command-line contract: exit codes, config merging, report plumbing."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mdlab import cli
from mdlab.cli import EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_PASS, EXIT_USAGE, RunConfig, main
from mdlab.diagnostics import default_weak_grid
from mdlab.families import parse_family_spec


def _grid_arg(spec: str, index: int, value: float) -> str:
    """The family's default weak grid as a --grid flag, one point replaced."""
    grid = default_weak_grid(parse_family_spec(spec))
    grid[index] = value
    return "--grid=" + ",".join(map(repr, grid))


def test_verify_ld_minima_passes(capsys):
    code = main(["verify", "ld", "--family", "minima:exponential:1",
                 "--x", "0.3,0.8", "--n", "1e2,1e3,1e4,1e5"])
    assert code == EXIT_PASS
    out = capsys.readouterr().out
    assert "verdict pass" in out
    assert "x=0.3" in out and "x=0.8" in out


def test_verify_md_rejected_scaling_is_usage_error(capsys):
    code = main(["verify", "md",
                 "--family", "replacement:exponential:1,exponential:2,t=1,beta=0.4",
                 "--scaling", "logpow:0.5", "--x", "0.5", "--n", "1e2,1e3,1e4,1e5"])
    assert code == EXIT_USAGE
    assert "scaling rejected" in capsys.readouterr().err


def test_verify_weak_coupon_passes(capsys):
    code = main(["verify", "weak", "--family", "coupon", "--n", "50,200,1000"])
    assert code == EXIT_PASS
    out = capsys.readouterr().out
    sups = [float(line.rsplit(" ", 1)[1]) for line in out.splitlines()
            if "sup distance" in line]
    assert len(sups) == 3
    assert sups[0] > sups[1] > sups[2]


def test_verify_weak_coupon_beyond_the_tilt_is_usage_error(capsys):
    # at n = 1e9 the lower series misses the left end of the grid and the
    # tilted inversion cannot certify it: a message, not a hang
    code = main(["verify", "weak", "--family", "coupon", "--n", "1e9"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "coupon lower tail n=1000000000" in err
    assert "bound" in err


def test_verify_ld_coupon_dip_is_inconclusive(capsys):
    # normalized rates 1.042, 0.979, 1.305, 1.978 against a +inf target:
    # the last tops every earlier one, the n = 200 dip breaks monotonicity
    code = main(["verify", "ld", "--family", "coupon", "--x=-0.3",
                 "--n", "20,200,2000,20000"])
    assert code == EXIT_INCONCLUSIVE
    assert "verdict inconclusive" in capsys.readouterr().out


def test_verify_with_an_overflowing_weibull_power_is_one_usage_line(capsys):
    # 5^1000 overflows inside weibull(1e3); the level is refused with one
    # message and no numpy warning (tier-1 turns RuntimeWarning into an error)
    code = main(["verify", "ld", "--family", "gumbel_maxima:weibull:1e3", "--x", "5",
                 "--n", "1e3,1e4,1e5,1e6"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("mdlab: "), err


def test_lemmas_exit_codes(capsys):
    assert main(["lemmas", "--dist", "weibull:2"]) == EXIT_PASS
    assert "verdict pass" in capsys.readouterr().out
    assert main(["lemmas", "--dist", "exponential:1"]) == EXIT_PASS
    capsys.readouterr()
    assert main(["lemmas", "--dist", "lognormal"]) == EXIT_FAIL
    out = capsys.readouterr().out
    assert "VIOLATION" in out and "mu_hat" in out
    assert main(["lemmas", "--dist", "nosuch"]) == EXIT_USAGE


def test_lemmas_json_payload(tmp_path, capsys):
    path = tmp_path / "lemmas.json"
    assert main(["lemmas", "--dist", "weibull:2", "--json", str(path)]) == EXIT_PASS
    payload = json.loads(path.read_text())
    assert payload["ok"] and payload["mda_ok"]
    assert payload["mu"] == 2.0
    assert {c["name"] for c in payload["checks"]} >= {"hn_tracks_mu_log_n", "potter_bounds_hold"}
    capsys.readouterr()


def test_verify_writes_outputs(tmp_path, capsys):
    csv_path, json_path, svg_path = (tmp_path / n for n in ("t.csv", "t.json", "t.svg"))
    code = main(["verify", "ld", "--family", "minima:exponential:1",
                 "--x", "0.5", "--n", "1e2,1e3,1e4,1e5",
                 "--csv", str(csv_path), "--json", str(json_path), "--svg", str(svg_path)])
    assert code == EXIT_PASS
    assert csv_path.read_text().startswith("family,regime,scaling,n,x,")
    assert "reports" in json.loads(json_path.read_text())
    assert svg_path.read_text().startswith("<svg")
    capsys.readouterr()


def test_report_merges_and_sorts(tmp_path, capsys):
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["verify", "ld", "--family", "minima:exponential:1",
          "--x", "0.8,0.3", "--n", "1e2,1e3,1e4,1e5", "--json", str(j1)])
    main(["verify", "weak", "--family", "minima:exponential:1",
          "--n", "100,10000", "--json", str(j2)])
    capsys.readouterr()
    out_csv = tmp_path / "merged.csv"
    plot_dir = tmp_path / "plots"
    code = main(["report", "--in", str(j1), str(j2),
                 "--csv", str(out_csv), "--plot", str(plot_dir)])
    assert code == EXIT_PASS
    capsys.readouterr()
    lines = out_csv.read_text().strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    keys = [(r[1], float(r[4]), int(r[3])) for r in rows]
    assert keys == sorted(keys)
    svgs = sorted(p.name for p in plot_dir.iterdir())
    assert len(svgs) == 2 and all(name.endswith(".svg") for name in svgs)


def test_plot_of_a_report_without_finite_residuals_is_skipped(tmp_path, capsys):
    # every coupon ld row at x = -0.3 has a +inf rate target, so no
    # residual is finite: the plot is skipped with a note, no file is
    # left, and the exit codes stay the verdict's and the report's
    svg, js = tmp_path / "o.svg", tmp_path / "o.json"
    code = main(["verify", "ld", "--family", "coupon", "--x=-0.3",
                 "--n", "20,200,2000,20000", "--svg", str(svg), "--json", str(js)])
    assert code == EXIT_INCONCLUSIVE
    out = capsys.readouterr().out
    assert f"skipped {svg}: report has no finite residuals to plot" in out
    assert not svg.exists()
    plot_dir = tmp_path / "plots"
    code = main(["report", "--in", str(js), "--csv", str(tmp_path / "m.csv"),
                 "--plot", str(plot_dir)])
    assert code == EXIT_PASS
    assert "skipped" in capsys.readouterr().out
    assert list(plot_dir.iterdir()) == []


def test_report_rejects_corrupt_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    out_csv = tmp_path / "merged.csv"
    assert main(["report", "--in", str(bad), "--csv", str(out_csv)]) == EXIT_USAGE
    assert main(["report", "--in", str(tmp_path / "missing.json"),
                 "--csv", str(out_csv)]) == EXIT_USAGE
    capsys.readouterr()


def _one_report(x=0.5, **header):
    report = {"family": "a", "regime": "ld", "scaling": "", "verdict": "pass",
              "tolerances": {}, "notes": [], "rows": [{
                  "family": "a", "regime": "ld", "scaling": "", "n": 10,
                  "x": x, "log_p_exact": -1.0, "log_p_mc": None,
                  "stderr_log": None, "s_n": 10.0, "normalized_rate": 0.1,
                  "rate_target": 0.1, "residual": 0.0}]}
    report.update(header)
    return {"reports": [report]}


@pytest.mark.parametrize("payload, message", [
    ({"reports": [{"family": "a"}]}, "report 0: missing regime"),
    (_one_report(x="abc"), "report 0 row 0: x is 'abc', not a number"),
    (_one_report(verdict=3), "report 0: verdict is 3, not a string"),
    (_one_report(family=3), "report 0: family is 3, not a string"),
    (_one_report(notes=[1, 2]), "report 0: notes are [1, 2], not a list of strings"),
    (_one_report(tolerances={"factor": "x"}), "report 0: tolerance factor is 'x', not a number"),
    (_one_report(tolerances={"factor": None}), "report 0: tolerance factor is None, not a number"),
    (_one_report(tolerances={"factor": 0.05, "slack": True}),
     "report 0: tolerance slack is True, not a number"),
])
def test_report_rejects_a_malformed_report(tmp_path, capsys, payload, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["report", "--in", str(bad), "--csv", str(tmp_path / "m.csv")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"mdlab: {bad}: ") and message in err


def test_python_m_mdlab_runs_without_warnings():
    # -X importtime also pins what perfbench/run.py's import_times needs:
    # `import mdlab` loads scipy.signal and mdlab.cli, or the benchmark
    # stops. Nothing in mdlab uses scipy.signal any more: the ROADMAP step
    # that drops its import from families.py drops this set check with it.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-W", "error", "-X", "importtime", "-m", "mdlab",
                           "lemmas", "--dist", "weibull:2"], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == EXIT_PASS
    lines = proc.stderr.splitlines()
    assert lines and all(line.startswith("import time:") for line in lines), proc.stderr
    imported = set()
    for line in lines:
        if "|" in line:
            parts = [p.strip() for p in line[len("import time:"):].split("|")]
            if parts[0].isdigit():
                imported.add(parts[2])
    assert {"scipy.signal", "mdlab.cli"} <= imported
    assert "verdict pass" in proc.stdout


def test_config_merges_with_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": "classical:sigma=1",
        "scaling": "pow:0.5",
        "n_list": [1000, 10**4, 10**5, 10**6],
        "x_list": [1.0],
    }))
    assert main(["verify", "md", "--config", str(cfg)]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "x=1.0" in out
    assert main(["verify", "md", "--config", str(cfg), "--x", "0.5"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "x=0.5" in out and "x=1.0" not in out


def test_config_regime_mismatch(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"regime": "ld", "family": "coupon"}))
    assert main(["verify", "md", "--config", str(cfg)]) == EXIT_USAGE
    assert "regime" in capsys.readouterr().err


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "coupon", "wibble": 3}))
    assert main(["verify", "weak", "--config", str(cfg)]) == EXIT_USAGE
    assert "wibble" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("trials", 2.7), ("trials", True), ("trials", "2.7"), ("seed", 1.9), ("seed", False),
    ("partitions", 3.0), ("partitions", True), ("tol_factor", True), ("tol_factor", "x"),
    ("x_list", [0.5, True]), ("x_list", 5), ("n_list", [100, 1000, True]),
    ("grid", [True] * 41),
])
def test_config_numbers_are_checked_like_flags(key, value, tmp_path, capsys):
    # --trials 2.7 exits 1, so "trials": 2.7 in a config file does too; a
    # bool is no number anywhere
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "classical:sigma=1", "x_list": [0.5],
                               "n_list": [100, 1000, 100000], key: value}))
    assert main(["verify", "ld", "--config", str(cfg)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("mdlab: ") and err.count("\n") == 1 and key in err, err


def test_config_numbers_take_what_the_flags_take():
    cfg = RunConfig.from_dict({"regime": "ld", "family": "coupon", "trials": "64",
                               "seed": 7, "partitions": " 3 ", "tol_factor": 1,
                               "x_list": ["0.5", 1], "n_list": [20.0, "200"]})
    assert (cfg.trials, cfg.seed, cfg.partitions) == (64, 7, 3)
    assert cfg.tol_factor == 1.0 and isinstance(cfg.tol_factor, float)
    assert cfg.x_list == (0.5, 1.0) and cfg.n_list == (20, 200)


@pytest.mark.parametrize("argv", [
    ["verify", "md", "--family", "coupon", "--x", "0.5", "--n", "1e2,1e3,1e4,1e5"],
    ["verify", "ld", "--family", "coupon", "--n", "1e2,1e3,1e4,1e5"],
    ["verify", "ld", "--family", "coupon", "--x", "0.5"],
    ["verify", "weak", "--family", "coupon", "--n", "50,100", "--x", "0.5"],
    ["verify", "weak", "--family", "coupon", "--n", "50,100", "--trials", "10"],
    ["verify", "ld", "--family", "coupon", "--x", "0.5", "--n", "1e2,1e3,1e4,1e5",
     "--grid", "0,1"],
    ["verify", "ld", "--family", "coupon", "--x", "0.5", "--n", "0,10,100,1000"],
    ["verify", "ld", "--family", "coupon", "--x", "0.5", "--n", "2.5,10,100,1000"],
    ["verify", "ld", "--family", "nosuch", "--x", "0.5", "--n", "1e2,1e3,1e4,1e5"],
    ["verify", "weak", "--family", "classical:sigma=1", "--n", "100,10000",
     _grid_arg("classical:sigma=1", 30, math.nan)],
    ["verify", "weak", "--family", "coupon", "--n", "50,200",
     _grid_arg("coupon", -1, math.inf)],
    ["verify", "ld", "--family", "classical:sigma=1", "--x", "0.5", "--n", "1e2,1e3,1e400"],
    ["verify", "ld", "--family", "classical:sigma=1", "--x", "0.5", "--n", "1e2,1e3,nan"],
    ["verify", "ld", "--family", "classical:sigma=1", "--x", "0.5", "--n", "1e2,1e3,1e5",
     "--trials", "-5"],
    ["verify", "ld", "--family", "classical:sigma=1", "--x", "0.5", "--n", "1e2,1e3,1e5",
     "--tol-factor", "nan"],
    ["verify", "xx"],
    ["nosuchcommand"],
    ["verify", "ld", "--family", "classical:sigma=1", "--x", "0.5", "--n", "1e2,1e3,1e5",
     "--partitions", "-3"],
    ["verify", "ld", "--family", "classical:sigma=1", "--x", "0.5", "--n", "1e2,1e3,1e5",
     "--partitions", "0"],
    ["verify", "ld", "--family", "coupon", "--x", "1e308", "--n", "20,200,20000"],
    ["verify", "ld", "--family", "gumbel_maxima:weibull:2", "--x", "1e308",
     "--n", "1e3,1e4,1e6"],
    ["verify", "ld", "--family", "classical:sigma=1e-200", "--x", "0.5", "--n", "1e2,1e3,1e5"],
    ["verify", "ld", "--family", "classical:sigma=1e200", "--x", "0.5", "--n", "1e2,1e3,1e5"],
])
def test_usage_errors_exit_one(argv, capsys):
    assert main(argv) == EXIT_USAGE
    capsys.readouterr()


_N = ["--n", "1e2,1e3,1e4,1e5"]


@pytest.mark.parametrize("argv, message", [
    (["verify", "ld", "--family", "replacement:exponential:1e9,exponential:2,t=1,beta=0.4",
      "--x", "0.5"] + _N, "F must be strictly between 0 and 1 at t=1.0"),
    (["verify", "ld", "--family", "replacement:exponential:1,exponential:1e9,t=1,beta=0.4",
      "--x", "0.5"] + _N, "G must be strictly between 0 and 1 at t=1.0"),
    # the Weibull(1e-300) density underflows to 0 at t = 1e24, where its
    # cdf is 1 - 1/e
    (["verify", "ld", "--family",
      "replacement:weibull:1e-300,exponential:1e-24,t=1e24,beta=0.4", "--x", "0.5"] + _N,
     "F'(t) must be finite and positive, got 0.0"),
    (["verify", "ld", "--family",
      "replacement:exponential:1e-24,weibull:1e-300,t=1e24,beta=0.4", "--x", "0.5"] + _N,
     "G'(t) must be finite and positive, got 0.0"),
    (["verify", "ld", "--family", "replacement:exponential:1,t=1,beta=0.4", "--x", "0.5"] + _N,
     "replacement needs two distribution parts, got ['exponential:1']"),
    (["verify", "ld", "--family", "classical:mu=1", "--x", "0.5"] + _N,
     "classical takes sigma=<v>, got 'mu=1'"),
    (["verify", "ld", "--family", "gumbel_maxima", "--x", "0.5"] + _N,
     "gumbel_maxima needs a distribution part"),
    (["verify", "ld", "--family", "coupon", "--scaling", "pow:0.5", "--x", "0.5"] + _N,
     "--scaling only applies to the md regime"),
    (["verify", "ld", "--family", "coupon", "--x=,"] + _N, "empty number list in x_list"),
    (["verify", "ld", "--config", "{list}"], "{list}: config must be a JSON object"),
    (["verify", "md", "--family", "coupon", "--scaling", "table:{list}", "--x", "0.5"] + _N,
     "table file '{list}' must hold an object mapping n to a_n"),
])
def test_input_checks_exit_one_with_their_message(argv, message, tmp_path, capsys):
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    argv = [arg.replace("{list}", str(listed)) for arg in argv]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("mdlab: ") and err.count("\n") == 1, err
    assert message.replace("{list}", str(listed)) in err, err


def test_verify_parses_each_spec_once(tmp_path, monkeypatch, capsys):
    # a table: scaling file is read once per run, and so is the family spec
    table = tmp_path / "a.json"
    table.write_text(json.dumps({str(10 ** k): 10.0 ** (-k / 2) for k in (2, 3, 4, 5)}))
    calls = []
    for name in ("parse_family_spec", "parse_scaling_spec"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda spec, real=real, name=name:
                            calls.append(name) or real(spec))
    assert main(["verify", "md", "--family", "classical:sigma=1", "--scaling",
                 f"table:{table}", "--x", "0.5", "--n", "1e2,1e3,1e4,1e5"]) == EXIT_PASS
    assert calls == ["parse_family_spec", "parse_scaling_spec"]
    capsys.readouterr()


@pytest.mark.parametrize("family, x, n_arg", [
    ("coupon", "1e308", "20,200,20000"),
    ("gumbel_maxima:weibull:2", "1e308", "1e3,1e4,1e6"),
    ("classical:sigma=1e-200", "0.5", "1e2,1e3,1e5"),
])
def test_overflowing_inputs_print_one_message(family, x, n_arg, capsys):
    # an OverflowError or ZeroDivisionError deep in a family ends as a
    # usage error with one line, not a traceback; an overflowing level is
    # named with its family
    assert main(["verify", "ld", "--family", family, "--x", x, "--n", n_arg]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("mdlab: ") and err.count("\n") == 1, err
    named = {
        "coupon": "mdlab: coupon level x=1e+308 at n=20 has no finite draw-count threshold",
        "gumbel_maxima:weibull:2":
            "mdlab: gumbel_maxima:weibull:2.0 ld rate at level x=1e+308 overflows a double",
    }
    assert err.startswith(named.get(family, "mdlab: ")), err


def test_non_finite_sample_sizes_get_the_sample_size_message(capsys):
    for n_arg in ("1e2,1e3,1e400", "1e2,1e3,nan"):
        assert main(["verify", "ld", "--family", "classical:sigma=1", "--x", "0.5",
                     "--n", n_arg]) == EXIT_USAGE
        assert "mdlab: sample sizes must be positive integers, got" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["verify", "--help"]) == 0
    capsys.readouterr()


def test_run_config_round_trip():
    cfg = RunConfig(regime="md", family="classical:sigma=1", scaling="pow:0.5",
                    n_list=(1000, 10**4, 10**5, 10**6), x_list=(1.0,),
                    trials=512, seed=9, tol_factor=0.1)
    assert RunConfig.from_dict(cfg.to_dict()) == cfg
    norm = cfg.normalized()
    assert norm.family == "classical:sigma=1.0"
    assert norm.normalized() == norm
    with pytest.raises(ValueError):
        RunConfig(regime="nope", family="coupon")
    with pytest.raises(ValueError):
        RunConfig.from_dict({"regime": "ld"})


def test_verify_with_mc_columns(tmp_path, capsys):
    csv_path = tmp_path / "mc.csv"
    code = main(["verify", "ld", "--family", "minima:exponential:1",
                 "--x", "0.1", "--n", "10,100,1e4", "--trials", "2000",
                 "--seed", "3", "--partitions", "2", "--csv", str(csv_path)])
    assert code == EXIT_PASS
    rows = csv_path.read_text().strip().splitlines()[1:]
    first = rows[0].split(",")
    assert first[6] != ""  # log_p_mc present at the feasible row
    capsys.readouterr()


def test_verify_refuses_monte_carlo_over_the_draw_budget(capsys):
    # the first row, the coupon at n = 1e5, would mix 262144 x 99999
    # uniforms (about a minute); it is refused before any is drawn, with
    # one message line and exit 1
    t0 = time.perf_counter()
    code = main(["verify", "ld", "--family", "coupon", "--x", "3", "--n", "1e5,1e6,1e8",
                 "--trials", "262144"])
    assert time.perf_counter() - t0 < 10.0
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.splitlines() == ["mdlab: coupon at n=100000: 262144 trials draw 26214137856 "
                                "uniforms, over the Monte Carlo budget of 100000000"]
