"""The scripts run end to end in a fresh interpreter against src/."""

import os
import subprocess
import sys
from pathlib import Path

from mdlab.diagnostics import evaluate_verdict, read_json

ROOT = Path(__file__).resolve().parent.parent


def _run(*args):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_derive_constants_runs():
    proc = _run("scripts/derive_constants.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_run_all_regimes_writes_reports_that_re_judge_the_same(tmp_path):
    proc = _run("scripts/run_all_regimes.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    reports = read_json(tmp_path / "all_regimes.json")
    assert len(reports) == 15
    for report in reports:
        assert evaluate_verdict(report.rows, report.tolerances) == report.verdict, report.family
    assert (tmp_path / "all_regimes.csv").stat().st_size > 0
