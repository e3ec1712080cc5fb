#!/usr/bin/env python3
"""Scaling ladder of the pipelines past the perfbench cells, written as
BENCH_scaling.json.

Rungs, each over the algebras (-1,-1), (-1,-3) and (-2,-5):

  gl, e       factor_commutators_gl / _e at n = c in 6, 8, 10, 12, 16
  gl3n        factor_commutators_gl at c = 3n, n in 6, 8, 12: two
              diagonal layers before the last pair, which no n = c
              rung builds
  stable      the checked certificate of certify._stable_factor (the
              pipeline of stable_single_commutator) from n = 3 at c in
              4, 8, 10, 14
  roundtrip   factor_commutators_gl then lower_extract at
              (n, c) in (3, 6), (4, 8), (5, 10), (6, 12), with v = u = 1

The instance is make_instance(seed, n, c) for the first seed from 0
whose delta is not 1.  Every rung runs alone in a child process with a
CPU-time cap of CAP_S seconds (RLIMIT_CPU) and an address-space cap; a
rung that runs over records "over_cap", and the rest of its row (kind
and algebra) is not climbed on that side.  A rung records the CPU time
of the pipeline calls, the pairs emitted and their bound, the median
and maximum bit height of the output quaternions (the largest bit
length among the numerators and the denominator of each), the bytes
and the sha256 of the canonical output JSON (sorted keys, no spaces).

Each --src LABEL=DIR names a checkout's src directory; with several,
every rung runs on each side in turn and the file records whether
their sha256 agree (null where fewer than two sides finished).
Every rung runs REPEATS times per side, the sides alternating, and
records the median CPU and wall time with each run's CPU time in
cpu_s_runs; a repeat whose sha256 differs from the others makes the
rung an error, and a repeat over the cap ends that side's repeats.
The file is rewritten after every rung, so an interrupted ladder keeps
what it measured.  Stdlib only:

    python3 scripts/bench_scaling.py
    python3 scripts/bench_scaling.py --src parent=../parent/src --src change=src
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ALGEBRAS = ((-1, -1), (-1, -3), (-2, -5))
LADDERS = {
    "gl": [(n, n) for n in (6, 8, 10, 12, 16)],
    "e": [(n, n) for n in (6, 8, 10, 12, 16)],
    "gl3n": [(n, 3 * n) for n in (6, 8, 12)],
    "stable": [(3, c) for c in (4, 8, 10, 14)],
    "roundtrip": [(3, 6), (4, 8), (5, 10), (6, 12)],
}
CAP_S = 60.0  # CPU seconds per rung
REPEATS = 3  # runs per rung and side; the median time is recorded
MEMORY_CAP = 2 << 30


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def heights(cert) -> list[int]:
    out = []
    for pair in cert.pairs:
        for g in pair:
            for q in ([q for row in g.rows for q in row] if hasattr(g, "rows") else [g]):
                if not q.is_zero():
                    out.append(max(abs(q.wn), abs(q.xn), abs(q.yn), abs(q.zn),
                                   q.den).bit_length())
    return out


def run_rung(kind: str, n: int, c: int, a: int, b: int) -> dict:
    """Build one rung in this process; returns its row."""
    from commcert import serialize as ser
    from commcert.budget import kappa_p, s_of
    from commcert import (
        BasedInstance, MatD, QuaternionAlgebra, factor_commutators_e, factor_commutators_gl,
        lower_extract, make_instance, width_upper_bounds,
    )
    from commcert.certify import _stable_factor

    alg = QuaternionAlgebra(a, b)
    seed = 0
    while (inst := make_instance(seed, n, c, alg)[1]).delta.is_one():
        seed += 1
    row = {"seed": seed}
    t0 = time.process_time()
    if kind in ("gl", "gl3n", "e"):
        cert = (factor_commutators_e if kind == "e" else factor_commutators_gl)(inst)
        bound = width_upper_bounds(n, c)[kind == "e"]
        payload = ser.cert_to_json(cert)
    elif kind == "stable":
        _, cert = _stable_factor(inst)
        bound = 1
        payload = ser.cert_to_json(cert)
    else:
        ident = MatD.identity(alg, n)
        inst = BasedInstance(alg, n, ident, ident, inst.delta, inst.delta_cert)
        mcert = factor_commutators_gl(inst)
        row["up_cpu_s"] = round(time.process_time() - t0, 3)
        cert = lower_extract(list(mcert.pairs), inst.delta)
        bound = s_of(kappa_p(len(mcert), n))
        payload = {"matrix": ser.cert_to_json(mcert), "scalar": ser.cert_to_json(cert)}
    row["cpu_s"] = round(time.process_time() - t0, 3)
    text = canonical(payload)
    bits = heights(cert)
    row.update({
        "pairs": len(cert), "bound": bound,
        "out_bits_p50": statistics.median(bits) if bits else 0,
        "out_bits_max": max(bits, default=0),
        "out_bytes": len(text), "sha256": hashlib.sha256(text.encode()).hexdigest(),
    })
    return row


def child(src: str, kind: str, n: int, c: int, a: int, b: int) -> dict:
    """Run one rung in a fresh interpreter under the caps."""
    def limit():
        resource.setrlimit(resource.RLIMIT_CPU, (int(CAP_S), int(CAP_S) + 5))
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))

    cmd = [sys.executable, __file__, "--child", kind, str(n), str(c), str(a), str(b),
           "--src", f"_={src}"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, preexec_fn=limit,
                          timeout=4 * CAP_S + 60)
    wall = round(time.perf_counter() - t0, 2)
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith("{"):
            return {"status": "ok", **json.loads(line), "wall_s": wall}
    if proc.returncode in (-24, -9):  # SIGXCPU, or SIGKILL past the hard limit
        return {"status": "over_cap", "wall_s": wall}
    return {"status": "error", "returncode": proc.returncode, "stderr": proc.stderr[-500:]}


def fold(runs: list[dict]) -> dict:
    """One side's row of a rung from its repeats: the last run if it did
    not finish, an error if the runs disagree on sha256, else the first
    run with the median times."""
    if runs[-1]["status"] != "ok":
        return runs[-1]
    digests = sorted({r["sha256"] for r in runs})
    if len(digests) > 1:
        return {"status": "error", "stderr": f"sha256 differs between repeats: {digests}"}
    row = dict(runs[0])
    for key in ("up_cpu_s", "cpu_s", "wall_s"):
        if key in row:
            row[key] = statistics.median(r[key] for r in runs)
    row["cpu_s_runs"] = [r["cpu_s"] for r in runs]
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append", metavar="LABEL=DIR",
                    help="a checkout's src directory (repeatable); default change=<this repo>/src")
    ap.add_argument("--out", type=Path, default=Path("BENCH_scaling.json"))
    ap.add_argument("--child", nargs=5, metavar=("KIND", "N", "C", "A", "B"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    srcs = dict(s.split("=", 1) for s in args.src or
                [f"change={Path(__file__).resolve().parents[1] / 'src'}"])
    if args.child:
        sys.path.insert(0, str(Path(next(iter(srcs.values()))).resolve()))
        kind, *nums = args.child
        print(json.dumps(run_rung(kind, *map(int, nums))))
        return 0

    doc = {
        "host": f"{platform.machine()} {platform.python_implementation()} "
                f"{platform.python_version()}",
        "cap_s": CAP_S, "sides": list(srcs), "repeats": REPEATS, "rungs": [],
    }
    for kind in LADDERS:
        for a, b in ALGEBRAS:
            climbing = set(srcs)
            for n, c in LADDERS[kind]:
                rung = {"kind": kind, "algebra": [a, b], "n": n, "c": c}
                runs = {label: [] for label in srcs if label in climbing}
                for _ in range(REPEATS):
                    for label, done in runs.items():
                        if not done or done[-1]["status"] == "ok":
                            done.append(child(srcs[label], kind, n, c, a, b))
                for label in srcs:
                    rung[label] = fold(runs[label]) if label in runs else {"status": "skipped"}
                    if rung[label]["status"] != "ok":
                        climbing.discard(label)
                digests = [r["sha256"] for label in srcs if "sha256" in (r := rung[label])]
                rung["sha256_agree"] = len(set(digests)) == 1 if len(digests) > 1 else None
                doc["rungs"].append(rung)
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
                print(json.dumps(rung), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
