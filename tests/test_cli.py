"""Command-line contract: exit codes, config merging, report plumbing."""

import json
import math

import pytest

from mdlab.cli import EXIT_FAIL, EXIT_PASS, EXIT_USAGE, RunConfig, main


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


def test_report_rejects_corrupt_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    out_csv = tmp_path / "merged.csv"
    assert main(["report", "--in", str(bad), "--csv", str(out_csv)]) == EXIT_USAGE
    assert main(["report", "--in", str(tmp_path / "missing.json"),
                 "--csv", str(out_csv)]) == EXIT_USAGE
    capsys.readouterr()


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
    ["verify", "xx"],
    ["nosuchcommand"],
])
def test_usage_errors_exit_one(argv, capsys):
    assert main(argv) == EXIT_USAGE
    capsys.readouterr()


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
