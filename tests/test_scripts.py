"""Smoke runs of the example scripts: each exits 0 and prints its report."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_roundtrip_demo():
    proc = run_script("roundtrip_demo.py", "--n", "3", "--c", "5", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for prefix in ("upward:", "downward:"):
        assert any(line.startswith(prefix) and "verified=True" in line for line in lines)


def test_bounds_table():
    proc = run_script("bounds_table.py", "--n-max", "4", "--d-max", "2", "--c", "5")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    # one s(kappa^d) row per (n, d) and one width row per n, for n = 2..4
    assert sum(len(r) == 4 and r[0].isdigit() for r in rows) == 6
    assert sum(len(r) == 5 and r[0].isdigit() for r in rows) == 3
