#!/usr/bin/env python3
"""End-to-end demo: build a seeded diagonal instance, factor it into
few matrix commutators, then extract a scalar certificate back out of
those pairs and compare both lengths to their bounds."""

import argparse
import time

from commcert import (
    BasedInstance,
    MatD,
    dstar_length_bound,
    factor_commutators_gl,
    kappa_p,
    lower_extract,
    make_instance,
    s_of,
    width_upper_bounds,
)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--c", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    # delta and its certificate from the seeded instance; v = u = 1
    _, seeded = make_instance(args.seed, args.n, args.c)
    alg, delta = seeded.alg, seeded.delta
    if delta.is_one():
        raise SystemExit("degenerate seed: delta = 1, pick another")
    ident = MatD.identity(alg, args.n)
    inst = BasedInstance(alg, args.n, ident, ident, delta, seeded.delta_cert)
    print(f"instance: n={args.n}, delta certified by {args.c} quaternion pairs")

    t0 = time.time()
    mcert = factor_commutators_gl(inst)
    print(
        f"upward:   {len(mcert)} matrix commutator pair(s) "
        f"(bound ceil(c/n) = {width_upper_bounds(args.n, args.c)[0]}), "
        f"verified={mcert.verify()}, {time.time()-t0:.2f}s"
    )

    t0 = time.time()
    d = len(mcert)
    scert = lower_extract(list(mcert.pairs), delta)
    print(
        f"downward: {len(scert)} scalar pair(s) "
        f"(bound s(kappa^{d}) = {s_of(kappa_p(d, args.n))}, "
        f"closed form {dstar_length_bound(args.n, d)}), "
        f"verified={scert.verify()}, {time.time()-t0:.2f}s"
    )


if __name__ == "__main__":
    main()
