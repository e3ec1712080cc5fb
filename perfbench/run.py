#!/usr/bin/env python3
"""Benchmark for commcert: one closed-loop client over one workload.

    python3 perfbench/run.py --workload {up,down,normal-form} --seed N \
        --seconds S --trace {0,1}

Set-up imports the library from ``src/`` and makes the workload's
instance list from the seed; it runs several times and ``setup_s`` is
the median.  After it, untimed, the checker works out with its own
arithmetic the element each instance's output must multiply out to.

Then one client (one process, one thread) makes exactly one pass over
the instance list, one operation per instance, back to back.  An
operation is

  build   the pipeline call, with its own self-verification,
  emit    serialize.*_to_json + json.dumps, the document a user receives,
  verify  decode and the independent check in checker.py.

An operation fails when a step raises or a check is false.  The lists
are sized so that a pass takes about --seconds on a 2-core x86-64 host
with Python 3.11; the pass is never cut short or repeated, so every
version of the program runs the same operations and the tail latency is
taken at the same percentile.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the pass
once as is and once with every layer wrapped (tracer.py), reports
per-layer metrics and writes the spans to perfbench/out/.  Both modes
first make sure the checker rejects forged certificates, and write a
record of output digests and counts to perfbench/out/.  When
perfbench/baseline.json holds a record for the same workload and seed,
the run's record must equal it: a difference makes the run incorrect.
The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import re
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checker
import library
from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
BASELINE = HERE / "baseline.json"
# set-up repeats at least SETUP_REPS times and for at least SETUP_S
# seconds, at most SETUP_MAX_REPS times
SETUP_REPS, SETUP_S, SETUP_MAX_REPS = 5, 2.0, 40
DIGITS = re.compile(r"\d+")


@dataclass
class Op:
    index: int
    build_s: float | None = None
    verify_s: float | None = None
    wall_s: float = 0.0
    text: str | None = None
    verdict: checker.Verdict | None = None
    error: str | None = None
    traceback: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.verdict is not None and self.verdict.ok


class Steps:
    """The three steps of an operation; traced runs wrap each one."""

    def __init__(self, wl, tracer: Tracer | None = None):
        self.build, self.emit = wl.build, wl.emit
        self.decode, self.check = checker.decode, checker.CHECKS[wl.name]
        if tracer is not None:
            self.build = tracer.wrap("bench.build", self.build)
            self.emit = tracer.wrap("serialize.dump", self.emit)
            self.decode = tracer.wrap("serialize.load", self.decode)
            self.check = tracer.wrap("checker.check", self.check)

    def run(self, lib, wl, inst, index: int) -> Op:
        op = Op(index)
        clock = time.perf_counter
        t0 = clock()
        try:
            result = self.build(lib, inst)
            t1 = clock()
            op.build_s = t1 - t0
            op.text = self.emit(lib, inst, result)
            t2 = clock()
            op.verdict = self.check(inst, self.decode(lib, wl.name, op.text))
            op.verify_s = clock() - t2
        except Exception as exc:  # a failed operation is counted, never dropped
            op.error = f"{type(exc).__name__}: {exc}"
            op.traceback = traceback.format_exc()
        op.wall_s = clock() - t0
        return op


def max_bits(text: str) -> int:
    """Largest bit length of any integer written in the document."""
    runs = DIGITS.findall(text)
    longest = max(map(len, runs))
    return max(int(r).bit_length() for r in runs if len(r) >= longest - 1)


def tail(values: list[float]) -> tuple[int, float, int]:
    """(q, value, beyond): the highest whole percentile q with at least
    ten samples above its nearest-rank value; q = 100 below 11 samples."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1], 0
    q = math.floor(100 * (n - 10) / n)
    rank = math.ceil(q * n / 100)
    return q, xs[rank - 1], n - rank


class Ledger:
    """Per-instance facts of the pass: output digest, size, height and
    pairs against bound.  Each document is dropped once it is noted."""

    def __init__(self, instances):
        self.instances = instances
        self.digest: dict[int, str] = {}
        self.size: dict[int, int] = {}
        self.bits: dict[int, int] = {}
        self.pairs: dict[int, tuple[int, int]] = {}

    def add(self, op: Op) -> None:
        if op.text is not None:
            self.digest[op.index] = hashlib.sha256(op.text.encode()).hexdigest()
            self.size[op.index] = len(op.text)
            self.bits[op.index] = max_bits(op.text)
            op.text = None
        if op.verdict is not None:
            self.pairs[op.index] = (op.verdict.achieved, op.verdict.bound)

    def record(self) -> dict:
        achieved = sum(a for a, _ in self.pairs.values())
        bound = sum(b for _, b in self.pairs.values())
        return {
            "digests": [self.digest.get(i) for i in range(len(self.instances))],
            "out_bits_max": max(self.bits.values(), default=0),
            "out_bits_p50": statistics.median(self.bits.values()) if self.bits else 0,
            "out_bytes_p50": statistics.median(self.size.values()) if self.size else 0,
            "pairs_per_bound": achieved / bound if bound else 0.0,
        }


def set_up(wl, seed: int):
    times = []
    lib = instances = None
    while len(times) < SETUP_MAX_REPS and (len(times) < SETUP_REPS or sum(times) < SETUP_S):
        # free the previous repetition first, so that its garbage is not
        # collected inside this one's timing
        lib = instances = None
        gc.collect()
        t0 = time.perf_counter()
        lib = library.load()
        instances = wl.generate(lib, seed)
        times.append(time.perf_counter() - t0)
    for inst in instances:
        inst.expected = checker.expected(wl.name, inst)
    # the library and the instances live for the whole run: keep them
    # out of the collector's scans, so operations pay only for their own
    # garbage
    gc.collect()
    gc.freeze()
    return lib, instances, statistics.median(times)


def checker_rejects_forgeries(lib, wl, instances) -> list[str]:
    """Problems found when the checker is shown forged documents."""
    op = Steps(wl).run(lib, wl, instances[0], 0)
    if not op.ok:
        return [f"first instance failed: {op.error or op.verdict.problems}"]
    return [
        f"checker accepted a forged document ({label})"
        for label, text in checker.forgeries(wl.name, op.text).items()
        if not checker.rejects(lib, wl.name, instances[0], text)
    ]


def one_pass(lib, wl, instances, steps: Steps, ledger: Ledger, tracer: Tracer | None = None):
    ops = []
    for i, inst in enumerate(instances):
        op = steps.run(lib, wl, inst, i)
        if tracer is not None:
            tracer.bytes_out += len(op.text or "")
        ledger.add(op)
        ops.append(op)
    return ops


def end_to_end(ops: list[Op], setup_s: float, record: dict):
    """Times are sums and quantiles of the operations' own times, so the
    bookkeeping between operations is not counted."""
    ok = [op for op in ops if op.ok]
    # a run in which no build or no verify step completed is incorrect;
    # the operations' wall times stand in so that it still reports
    walls = [op.wall_s for op in ops]
    builds = [op.build_s for op in ops if op.build_s is not None] or walls
    verifies = [op.verify_s for op in ops if op.verify_s is not None] or walls
    q, tail_value, beyond = tail(builds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ok) / sum(op.wall_s for op in ops), "op/s"),
        "build_p50_s": (statistics.median(builds), "s"),
        "build_tail_s": (tail_value, "s"),
        "verify_p50_s": (statistics.median(verifies), "s"),
        "out_bits_p50": (record["out_bits_p50"], "bits"),
        "out_bytes_p50": (record["out_bytes_p50"], "bytes"),
        "pairs_per_bound": (record["pairs_per_bound"], "ratio"),
        "ok_ratio": (len(ok) / len(ops), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {"build_tail_s": f"p{q} of {len(builds)} samples, {beyond} beyond it"}
    return metrics, notes


def traced(lib, wl, instances, ledger: Ledger):
    """A traced pass, after an untraced one whose time is the reference
    for trace.overhead_ratio; the untraced outputs are not recorded."""
    plain = one_pass(lib, wl, instances, Steps(wl), Ledger(instances))
    tracer = Tracer()
    tracer.install(lib)
    ops = one_pass(lib, wl, instances, Steps(wl, tracer), ledger, tracer)
    overhead = sum(op.wall_s for op in ops) / sum(op.wall_s for op in plain)
    return tracer, ops, overhead


def compare_with_baseline(record: dict, workload: str, seed: int) -> tuple[list[str], str]:
    """(problems, note): the keys of the run's record that differ from
    the baseline's record for this workload and seed."""
    stored = None
    if BASELINE.is_file():
        stored = json.loads(BASELINE.read_text())["records"].get(workload, {}).get(str(seed))
    if stored is None:
        return [], f"no baseline record for {workload} seed {seed}; outputs not compared"
    keys = [k for k in record if k != "calls" or "calls" in stored]
    problems = [f"{key} differs from the baseline record" for key in keys if stored.get(key) != record[key]]
    return problems, f"outputs compared with the baseline record: {', '.join(keys)}"


def print_cells(instances, ops: list[Op]) -> None:
    cells: dict[str, list[Op]] = {}
    for op in ops:
        cells.setdefault(instances[op.index].cell, []).append(op)
    print(f"  {'cell':18s} {'ops':>4s} {'build p50 s':>12s} {'verify p50 s':>13s}")
    for cell, group in cells.items():
        b = [op.build_s for op in group if op.build_s is not None] or [math.nan]
        v = [op.verify_s for op in group if op.verify_s is not None] or [math.nan]
        print(f"  {cell:18s} {len(group):4d} {statistics.median(b):12.4f} {statistics.median(v):13.4f}")


def print_table(metrics: dict, notes: dict) -> None:
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {value:>16.6g} {unit}{note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="the time a pass is sized for")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    try:
        lib, instances, setup_s = set_up(wl, args.seed)
    except library.LibraryNotFound as exc:
        print(f"cannot run: {exc}", file=sys.stderr)
        return 2

    problems = checker_rejects_forgeries(lib, wl, instances)
    ledger = Ledger(instances)
    if args.trace:
        tracer, ops, overhead = traced(lib, wl, instances, ledger)
        record = ledger.record()
        record["calls"] = {k: v for k, (v, unit) in tracer.metrics(0.0).items() if unit == "count"}
        metrics, notes = tracer.metrics(overhead), {}
        trace_path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
        tracer.write(trace_path)
    else:
        ops = one_pass(lib, wl, instances, Steps(wl), ledger)
        record = ledger.record()
        metrics, notes = end_to_end(ops, setup_s, record)

    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"record-{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    mismatches, compared = compare_with_baseline(record, wl.name, args.seed)
    problems += mismatches

    failed = [op for op in ops if not op.ok]
    wall = sum(op.wall_s for op in ops)
    print(f"workload {wl.name}")
    print(
        f"seed {args.seed}, {len(instances)} instances, one pass of {len(ops)} ops "
        f"in {wall:.2f} s (sized for {args.seconds:g} s), {len(failed)} failed"
    )
    print(f"  {compared}")
    for op in failed[:10]:
        why = op.error or "; ".join(op.verdict.problems)
        print(f"  FAILED {instances[op.index].cell} #{op.index}: {why}")
    first_trace = next((op.traceback for op in failed if op.traceback), None)
    if first_trace:
        print(first_trace, end="")
    for problem in problems:
        print(f"  PROBLEM {problem}")
    print_cells(instances, ops)
    if args.trace:
        total = sum(tracer.layer_self_s(layer) for layer in library.LAYERS + ("bench", "checker"))
        for layer in library.LAYERS + ("bench", "checker"):
            share = tracer.layer_self_s(layer) / total if total else 0.0
            print(f"  self {layer:12s} {tracer.layer_self_s(layer):10.3f} s  {share:6.1%}")
        print(f"  spans written to {trace_path.relative_to(library.ROOT)}")
    print_table(metrics, notes)

    correct = not failed and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
