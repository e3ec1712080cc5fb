#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written as BENCH_<label>.json.

Runs the unchanged `perfbench/run.py --trace 0` of two checkouts, one
pair per (seed, workload): odd seeds run the parent first, even seeds
the change, so a slow drift of the host favours neither side.  Seeds
are the outer loop and workloads the inner one.  Run length and the
default workloads come from the change's BENCHMARK.json; the parent
checkout must be a git clone, whose HEAD is recorded.  The file is
written to the current directory and rewritten after every pair, so
an interrupted series keeps what it measured.

For each workload and end-to-end metric the file holds the q1, median
and q3 of each side (inclusive quartiles), the number of pairs the
change wins (strictly better in the metric's direction from
BENCHMARK.json), and the raw values in seed order; `correct` counts the
runs of each side that printed `correct: true`.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --seeds 1-10 --label my_change
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced pass; returns run.py's closing JSON line, or a
    failed result if the run printed none."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return {"correct": False, "metrics": {}}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [round(v, 6) for v in values * 3]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 6), round(q2, 6), round(q3, 6)]


def summarize(runs: dict, metrics: list[dict]) -> dict:
    """runs[side] is a list of run.py results in seed order."""
    out = {"correct": {side: sum(r["correct"] for r in runs[side]) for side in SIDES},
           "metrics": {}}
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "lower" else -1)
        pairs = [
            (p["metrics"][name]["value"], c["metrics"][name]["value"])
            for p, c in zip(runs["parent"], runs["change"])
            if name in p["metrics"] and name in c["metrics"]
        ]
        if not pairs:
            continue
        parent = [p for p, _ in pairs]
        change = [c for _, c in pairs]
        out["metrics"][name] = {
            "unit": m["unit"],
            "parent_q1_median_q3": quartiles(parent),
            "change_q1_median_q3": quartiles(change),
            "change_wins": sum(sign * (c - p) < 0 for p, c in pairs),
            "parent": [round(v, 6) for v in parent],
            "change": [round(v, 6) for v in change],
        }
    return out


def write_doc(path: Path, doc: dict) -> None:
    """Indented JSON with each list of values kept on one line."""
    text = json.dumps(doc, indent=1)
    text = re.sub(r"\[[^\[\]{}]*\]", lambda m: json.dumps(json.loads(m.group())), text)
    path.write_text(text + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--workloads", nargs="+", help="default: every workload of BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    ap.add_argument("--label", required=True)
    ap.add_argument("--claim", default="none", help="the gain claimed, recorded as is")
    args = ap.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    parent_rev = subprocess.run(
        ["git", "-C", str(checkouts["parent"]), "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    seeds = parse_seeds(args.seeds)
    out_path = Path(f"BENCH_{args.label}.json")
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    doc = {
        "what": f"{len(seeds)} alternating parent/change pairs per workload (seeds {args.seeds}; "
        "odd seeds run the parent first), untraced, `python3 perfbench/run.py --workload W "
        f"--seed S --seconds {seconds} --trace 0`, each side in its own checkout",
        "parent": parent_rev,
        "host": f"{os.cpu_count()} vCPU {platform.machine()}, "
        f"Python {platform.python_version()}",
        "claim": args.claim,
        "workloads": {},
    }
    for seed in seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        for w in workloads:
            for side in order:
                t0 = time.perf_counter()
                res = run_once(checkouts[side], w, seed, seconds)
                runs[w][side].append(res)
                build = res["metrics"].get("build_p50_s", {}).get("value")
                print(f"seed {seed} {w:12s} {side:7s} correct={res['correct']} "
                      f"build_p50_s={build} ({time.perf_counter() - t0:.0f} s)", file=sys.stderr)
            doc["workloads"][w] = summarize(runs[w], spec["end_to_end"])
            write_doc(out_path, doc)
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
