"""Smoke runs of the example and benchmark scripts: each exits 0 and
prints its report."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def json_rows(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def test_bench_kernels_twisted_cell():
    proc = run_script("bench_kernels.py", "--kernels", "twisted", "--bits", "64")
    assert proc.returncode == 0, proc.stderr
    (row,) = json_rows(proc.stdout)
    assert row["kernel"] == "twisted" and row["bits"] == 64 and row["min_s"] > 0


def test_bench_kernels_mul_cells():
    proc = run_script("bench_kernels.py", "--kernels", "mul", "--sizes", "3", "--bits", "64")
    assert proc.returncode == 0, proc.stderr
    rows = json_rows(proc.stdout)
    assert sorted(row["shape"] for row in rows) == ["dense", "unitriangular"]
    assert all(row["kernel"] == "mul" and row["n"] == 3 and row["min_s"] > 0 for row in rows)


def test_bench_kernels_absorb_cells():
    proc = run_script("bench_kernels.py", "--kernels", "absorb")
    assert proc.returncode == 0, proc.stderr
    rows = json_rows(proc.stdout)
    assert [(row["n"], row["p"]) for row in rows] == [(5, 3), (6, 2)]
    assert all(row["kernel"] == "absorb" and row["calls"] > 0 and row["min_s"] > 0
               for row in rows)


@pytest.mark.parametrize("rung", [("gl", 3, 3), ("gl3n", 3, 9), ("stable", 3, 4),
                                  ("roundtrip", 3, 6), ("e", 4, 4)])
def test_bench_scaling_child_rung(rung):
    kind, n, c = rung
    proc = run_script("bench_scaling.py", "--child", kind, str(n), str(c), "-1", "-1",
                      "--src", f"_={ROOT / 'src'}")
    assert proc.returncode == 0, proc.stderr
    (row,) = json_rows(proc.stdout)
    assert len(row["sha256"]) == 64 and row["pairs"] <= row["bound"]
    if kind == "stable":
        # the pipeline's checked certificate: the bytes of the certificate
        # rebuilt on the padded input element
        assert row["sha256"] == "6292daa6cb0359cc2cf8f148f21f63e8390288056d662ecf1180909e6788f895"
