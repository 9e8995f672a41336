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


def test_code_lines_counts_statement_lines(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment\n"
        "X = (1,  # trailing comment\n"
        "     2)\n"
        "\n"
        "\n"
        "def f():\n"
        '    """Docstring."""\n'
        '    return """a\n'
        'b"""\n'
    )
    (tmp_path / "b.py").write_text("class C:\n    pass\n")
    proc = run_script("scripts/code_lines.py", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split("\n") == [
        "     5  a.py",
        "     2  b.py",
        "     7  total",
        "",
    ]


def test_code_lines_totals_the_package():
    proc = run_script("scripts/code_lines.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *modules, total = (line.split() for line in proc.stdout.splitlines())
    assert "validation.py" in {name for _, name in modules}
    assert total[1] == "total" and int(total[0]) == sum(int(n) for n, _ in modules)
