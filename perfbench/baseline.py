#!/usr/bin/env python3
"""Run the benchmark several times per workload, one seed per run, in
two or more sets, and summarize each end-to-end metric by its median
and quartiles.

    python3 perfbench/baseline.py [--runs 10] [--sets 2] [--first-seed 1] \
        [--workloads up down normal-form] [--traced] [--write FILE]

Every set runs the same seeds.  Runs go one after another, each in its
own process, and the workloads take turns seed by seed, so a slow spell
of the host falls on all of them alike.  The spread of a metric is
(q3 - q1) / median over one set's runs, with the quartiles of
statistics.quantiles(values, n=4); it is printed beside the metric's
bound from BENCHMARK.json, as is each later set's change of the median
against the first set's.  Every run's record of output digests and
counts must equal the first set's record for its seed.  --traced adds
two traced runs of the first seed per workload and checks that their
call counts and digests agree.  --write stores the summaries, the
machine they ran on, and the first set's records; run.py compares every
run with the record stored for its workload and seed.  To re-make the
baseline after a change of the instance lists, delete the old file
first, or every run will differ from it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{' '.join(cmd)} printed nothing:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("\n".join(lines[:-1]), file=sys.stderr)
    with open(HERE / "out" / f"record-{workload}-seed{seed}-trace{trace}.json") as fh:
        record = json.load(fh)
    return result, record


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "runs": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--write", metavar="FILE")
    args = ap.parse_args()

    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    results = {w: [[] for _ in range(args.sets)] for w in args.workloads}
    records = {w: {} for w in args.workloads}
    bad = 0
    for s in range(args.sets):
        for seed in seeds:
            for workload in args.workloads:
                result, record = run_once(spec, workload, seed, 0)
                first = records[workload].setdefault(str(seed), record)
                same = first == record
                bad += not (result["correct"] and same)
                results[workload][s].append(result)
                values = " ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items() if k != "ok_ratio"
                )
                print(f"set {s + 1} {workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} same record={same} {values}",
                      flush=True)

    out = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "command": spec["command"],
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "sets": [{} for _ in range(args.sets)],
        "records": records,
    }
    for workload in args.workloads:
        if args.traced:
            first, second = (run_once(spec, workload, seeds[0], 1) for _ in range(2))
            same = first[1] == second[1]
            bad += not (same and first[0]["correct"] and second[0]["correct"])
            print(f"{workload} traced twice on seed {seeds[0]}: identical records={same}")
            records[workload][str(seeds[0])]["calls"] = first[1]["calls"]
        why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
        print(f"{workload}: {why}")
        for s in range(args.sets):
            metrics = {}
            for m in spec["end_to_end"]:
                stats = summarize([r["metrics"][m["name"]]["value"] for r in results[workload][s]])
                metrics[m["name"]] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"], **stats}
                flag = "" if stats["spread"] <= m["bound"] / 3 else "  <-- spread above bound/3"
                drift = ""
                if s:
                    base = out["sets"][0][workload][m["name"]]["median"]
                    change = stats["median"] / base - 1 if base else 0.0
                    worse = change if m["better"] == "lower" else -change
                    drift = f"  vs set 1 {change:+.3f}" + ("  <-- worse than bound" if worse > m["bound"] else "")
                print(f"  set {s + 1} {m['name']:16s} median {stats['median']:<12.6g} "
                      f"spread {stats['spread']:.4f}  bound {m['bound']}{drift}{flag}")
            out["sets"][s][workload] = metrics
    if args.write:
        Path(args.write).write_text(json.dumps(out, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
