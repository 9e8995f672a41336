"""Smoke tests: the scripts under ``scripts/`` run to completion on small
inputs against the package's public API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-W", "error", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_soundness_sweep_runs_clean():
    proc = run_script("scripts/soundness_sweep.py", "--pairs", "200", "--routes", "3")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "soundness sweep: clean" in proc.stdout


def test_make_figures_writes_the_gallery(tmp_path):
    proc = run_script("scripts/make_figures.py", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert len(list(tmp_path.glob("*.svg"))) == 5
