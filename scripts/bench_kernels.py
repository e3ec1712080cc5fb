#!/usr/bin/env python3
"""Layer timings of the dense matrix kernels: product, inverse and
Dieudonne determinant, at fixed coefficient heights, the matrix
commutator on pipeline witnesses, the twisted quaternion solve, the V
absorption of the normal form, and the JSON codec of quaternions and
matrices.

Each cell is one (kernel, n, shape, bits) over the algebra (-1, -1):
REPS seeded matrices (pairs for the product) whose entries have
numerators and denominators of about `bits` bits; a dense matrix gives
every entry its own denominator, a unitriangular one has ones on the
diagonal and zeros below it.  A timed pass calls the kernel once on
every input; passes repeat until the cell has run MIN_SECONDS (at least
one pass, at most MAX_PASSES).  The minimum over passes resists load
from other processes.  The cell prints one JSON line with the minimum
and the median over passes of the seconds per call, and the largest
coordinate bit length of the outputs.

The comm cells time quaternion.comm(P, Q) on the first pair that
factor_commutators_gl emits for make_instance(0, n, n), at n in
COMM_SIZES; both inverses run mat_inv.

The twisted cells time quaternion.solve_twisted(p, q, r) on REPS
seeded triples whose coordinates have about `bits` bits, at HEIGHTS.

The absorb cells time normalform.absorb_V on the (form, V) arguments
of every call that one commutator_normal_form makes, for p seeded
pairs at n drawn as the normal-form workload draws them, at (n, p) in
ABSORB_CELLS; in_bits is the largest coordinate bit length of those
arguments.

The encode and decode cells time serialize.quat_to_json/mat_to_json
and quat_from_json/mat_from_json (on the parsed JSON of the encoding)
for REPS seeded quaternions and REPS dense CODEC_N x CODEC_N matrices,
at HEIGHTS and at LONG_BITS, past the 9900 bits from which the codec
splits an integer's decimal string.  Stdlib only;
`--src` picks the library to time, so the same script measures two
checkouts:

    python3 scripts/bench_kernels.py
    python3 scripts/bench_kernels.py --src ../parent/src
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

KERNELS = ("mul", "inv", "det", "comm", "twisted", "absorb", "encode", "decode")
SIZES = (3, 6)
COMM_SIZES = (6, 8)
ABSORB_CELLS = ((5, 3), (6, 2))
SHAPES = ("dense", "unitriangular")
HEIGHTS = (64, 300, 1000, 3000)
CODEC_N, LONG_BITS = 6, 12000
REPS, MIN_SECONDS, MAX_PASSES = 3, 0.5, 1000


def entry(Quat, alg, rng, bits):
    def num():
        return rng.getrandbits(bits) - (1 << (bits - 1))

    return Quat(alg, num(), num(), num(), num(), rng.getrandbits(bits) | 1)


def matrix(lib, alg, rng, n, shape, bits):
    rows = []
    for i in range(n):
        if shape == "dense":
            rows.append([entry(lib.Quat, alg, rng, bits) for _ in range(n)])
        else:
            rows.append([alg.zero] * i + [alg.one]
                        + [entry(lib.Quat, alg, rng, bits) for _ in range(n - i - 1)])
    return lib.MatD(alg, rows)


def height(m):
    """Largest coordinate bit length of a matrix, a determinant class or
    a quaternion."""
    qs = [q for row in m.rows for q in row] if hasattr(m, "rows") else [
        getattr(m, "representative", m)]
    return max(max(abs(q.wn), abs(q.xn), abs(q.yn), abs(q.zn), q.den).bit_length() for q in qs)


def timed(calls) -> tuple[list[float], list]:
    """Seconds per call of each pass over calls, and the last outputs."""
    passes = []
    while not passes or (sum(passes) * len(calls) < MIN_SECONDS and len(passes) < MAX_PASSES):
        t0 = time.perf_counter()
        outs = [fn(*args) for fn, *args in calls]
        passes.append((time.perf_counter() - t0) / len(calls))
    return passes, outs


def stats(passes) -> dict:
    return {
        "passes": len(passes),
        "min_s": float(f"{min(passes):.4g}"),
        "median_s": float(f"{statistics.median(passes):.4g}"),
    }


def summary(passes, outs) -> dict:
    return {**stats(passes), "out_bits": max(height(out) for out in outs)}


def cell(lib, alg, kernel, n, shape, bits):
    rng = random.Random(f"{kernel}|{n}|{shape}|{bits}")
    if kernel == "mul":
        calls = [(lambda x, y: x * y, matrix(lib, alg, rng, n, shape, bits),
                  matrix(lib, alg, rng, n, shape, bits)) for _ in range(REPS)]
    else:
        fn = lib.mat_inv if kernel == "inv" else lib.dieudonne_det
        calls = [(fn, matrix(lib, alg, rng, n, shape, bits)) for _ in range(REPS)]
    return {"kernel": kernel, "n": n, "shape": shape, "bits": bits, **summary(*timed(calls))}


def comm_cell(lib, n):
    from commcert.quaternion import comm

    _, inst = lib.make_instance(0, n, n)
    pair = lib.factor_commutators_gl(inst).pairs[0]
    return {"kernel": "comm", "n": n, "in_bits": max(map(height, pair)),
            **summary(*timed([(comm, *pair)]))}


def twisted_cell(lib, alg, bits):
    rng = random.Random(f"twisted|{bits}")
    calls = [(lib.solve_twisted, *(entry(lib.Quat, alg, rng, bits) for _ in range(3)))
             for _ in range(REPS)]
    return {"kernel": "twisted", "bits": bits, **summary(*timed(calls))}


def form_height(form):
    return max(height(form.u1), height(form.v), height(form.u2))


def absorb_cell(lib, alg, n, p):
    rng = random.Random(f"absorb|{n}|{p}")
    pairs = [tuple(lib.matrix.random_invertible(alg, n, rng, lib.random_quat) for _ in "xy")
             for _ in range(p)]
    nf, calls = lib.normalform, []
    real = nf.absorb_V

    def record(form, v):
        calls.append((real, form, v))
        return real(form, v)

    nf.absorb_V = record  # commutator_normal_form looks absorb_V up at each call
    try:
        nf.commutator_normal_form(pairs)
    finally:
        nf.absorb_V = real
    passes, outs = timed(calls)
    return {"kernel": "absorb", "n": n, "p": p, "calls": len(calls),
            "in_bits": max(max(form_height(form), height(v)) for _, form, v in calls),
            **stats(passes), "out_bits": max(map(form_height, outs))}


def codec_cells(lib, alg, kernel, bits):
    ser = lib.serialize
    rng = random.Random(f"{kernel}|{bits}")
    for shape, n, make, enc, dec in (
        ("quat", 1, lambda: entry(lib.Quat, alg, rng, bits), ser.quat_to_json, ser.quat_from_json),
        ("dense", CODEC_N, lambda: matrix(lib, alg, rng, CODEC_N, "dense", bits),
         ser.mat_to_json, ser.mat_from_json),
    ):
        values = [make() for _ in range(REPS)]
        if kernel == "encode":
            calls = [(enc, v) for v in values]
        else:
            calls = [(dec, json.loads(json.dumps(enc(v))), alg) for v in values]
        yield {"kernel": kernel, "n": n, "shape": shape, "bits": bits,
               **stats(timed(calls)[0])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                    help="directory holding the commcert package")
    ap.add_argument("--kernels", nargs="+", choices=KERNELS, default=list(KERNELS))
    ap.add_argument("--sizes", nargs="+", type=int, default=list(SIZES))
    ap.add_argument("--bits", nargs="+", type=int,
                    help="coefficient heights (default: HEIGHTS, plus LONG_BITS for the codec)")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src))
    import commcert as lib
    import commcert.serialize  # noqa: F401  (not imported by the package itself)

    alg = lib.QuaternionAlgebra(-1, -1)
    for kernel in args.kernels:
        if kernel == "comm":
            for n in COMM_SIZES:
                print(json.dumps(comm_cell(lib, n)), flush=True)
            continue
        if kernel == "absorb":
            for n, p in ABSORB_CELLS:
                print(json.dumps(absorb_cell(lib, alg, n, p)), flush=True)
            continue
        if kernel == "twisted":
            for bits in args.bits or HEIGHTS:
                print(json.dumps(twisted_cell(lib, alg, bits)), flush=True)
            continue
        if kernel in ("encode", "decode"):
            for bits in args.bits or (*HEIGHTS, LONG_BITS):
                for row in codec_cells(lib, alg, kernel, bits):
                    print(json.dumps(row), flush=True)
            continue
        for n in args.sizes:
            for shape in SHAPES:
                for bits in args.bits or HEIGHTS:
                    row = cell(lib, alg, kernel, n, shape, bits)
                    print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
