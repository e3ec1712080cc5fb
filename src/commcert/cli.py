"""Command-line front end.

Subcommands: selftest, decompose, certify-lower, factor, bounds, gen.
All I/O is line-delimited JSON with exact rational strings.  Exit
codes: 0 success, 2 verification failure, 3 precondition violation,
4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from . import serialize as ser
from .certify import (
    _stable_factor,
    dstar_length_bound,
    factor_commutators_e,
    factor_commutators_gl,
    lower_extract,
    make_instance,
    single_commutator_necessary_bound,
    width_ratio_lower_bound,
    width_upper_bounds,
)
from .errors import (
    InternalInvariantError,
    PreconditionError,
    VerificationError,
)
from .budget import kappa_p, s_of
from .normalform import decompose_huvu
from .quaternion import QuaternionAlgebra
from .selftest import run_selftest
from .serialize import cert_from_json

EXIT_OK = 0
EXIT_VERIFICATION = 2
EXIT_PRECONDITION = 3
EXIT_INVARIANT = 4


@contextmanager
def _decoding():
    """Report unreadable or malformed input (a missing key, a bad or
    zero-denominator rational, a wrongly shaped array, JSON nested too
    deeply to parse) as a precondition violation."""
    try:
        yield
    except OSError as exc:
        raise PreconditionError(f"cannot read input: {exc}") from None
    except KeyError as exc:
        raise PreconditionError(f"malformed input: missing key {exc}") from None
    except ZeroDivisionError as exc:
        raise PreconditionError(f"malformed input: zero denominator in {exc}") from None
    except (LookupError, TypeError, ValueError) as exc:
        raise PreconditionError(f"malformed input: {exc}") from None
    except RecursionError:
        raise PreconditionError("malformed input: nested too deeply") from None


def _parse_algebra(text: str) -> QuaternionAlgebra:
    with _decoding():
        a, b = text.split(",")
        return QuaternionAlgebra(ser.rat_from_json(a), ser.rat_from_json(b))


def _load_json(path: str) -> dict:
    with (sys.stdin if path == "-" else open(path)) as fh:
        return json.load(fh)


def _emit(obj: dict, out: str | None) -> None:
    line = json.dumps(obj, separators=(",", ":"))
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(line + "\n")
        except OSError as exc:
            raise PreconditionError(f"cannot write output: {exc}") from None
    else:
        print(line)


def cmd_selftest(args) -> int:
    if args.verify:
        with _decoding():
            data = _load_json(args.verify)
            alg = ser.algebra_from_json(data["algebra"])
            cert = cert_from_json(data["certificate"], alg)
            bound = data.get("bound")
            if bound is not None and type(bound) is not int:
                raise PreconditionError("bound must be an integer or null")
        ok = cert.verify()
        achieved = len(cert)
        within = bound is None or achieved <= bound
        print(json.dumps({"verified": ok and within, "achieved": achieved, "bound": bound}))
        return EXIT_OK if ok and within else EXIT_VERIFICATION
    failures = run_selftest(seed=args.seed, sizes=args.n)
    return EXIT_OK if failures == 0 else EXIT_VERIFICATION


def cmd_decompose(args) -> int:
    with _decoding():
        data = _load_json(args.path)
        alg = ser.algebra_from_json(data["algebra"])
        g = ser.mat_from_json(data["matrix"], alg)
    # decompose_huvu checks head * u1 * v * u2 = g, and raises
    # InternalInvariantError (exit 4) when the check fails
    head, form = decompose_huvu(g)
    _emit(
        {
            "algebra": ser.algebra_to_json(alg),
            "head": ser.mat_to_json(head),
            "form": ser.uvuform_to_json(form),
            "verified": True,
        },
        args.out,
    )
    return EXIT_OK


def cmd_certify_lower(args) -> int:
    with _decoding():
        data = _load_json(args.path)
        alg = ser.algebra_from_json(data["algebra"])
        pairs = [
            (ser.mat_from_json(x, alg), ser.mat_from_json(y, alg)) for x, y in data["pairs"]
        ]
        tau = ser.quat_from_json(data["tau"], alg)
    # lower_extract checks what it returns, and raises VerificationError
    # (exit 2) when the check fails
    cert = lower_extract(pairs, tau)
    if pairs:
        n, d = pairs[0][0].n, len(pairs)
        bound, closed_form = s_of(kappa_p(d, n)), dstar_length_bound(n, d)
    else:  # the empty certificate of tau = 1; no closed form applies
        bound, closed_form = 0, None
    _emit(
        {
            "algebra": ser.algebra_to_json(alg),
            "certificate": ser.cert_to_json(cert),
            "verified": True,
            "bound": bound,
            "achieved": len(cert),
            "closed_form_bound": closed_form,
        },
        args.out,
    )
    return EXIT_OK


def cmd_factor(args) -> int:
    with _decoding():
        inst = ser.instance_from_json(_load_json(args.path))
    # every mode's pipeline checks what it returns (a failure raises
    # VerificationError).  The stable certificate was checked against the
    # padded instance's element, which embed_instance checked to be the
    # padded input element.
    if args.mode == "stable":
        _, cert = _stable_factor(inst)
        bound = 1
    else:
        # the bound first: an instance it refuses (n = 1) never reaches
        # the pipeline
        bound = width_upper_bounds(inst.n, inst.c)[args.mode == "e"]
        factor = factor_commutators_gl if args.mode == "gl" else factor_commutators_e
        cert = factor(inst)
    _emit(
        {
            "algebra": ser.algebra_to_json(inst.alg),
            "mode": args.mode,
            "certificate": ser.cert_to_json(cert),
            "verified": True,
            "bound": bound,
            "achieved": len(cert),
        },
        args.out,
    )
    return EXIT_OK


def cmd_bounds(args) -> int:
    n = args.n
    rows = {
        "n": n,
        "single_commutator_necessary": single_commutator_necessary_bound(n),
    }
    if args.d is not None:
        rows["scalar_length_bound"] = dstar_length_bound(n, args.d)
        rows["s_kappa_d"] = s_of(kappa_p(args.d, n))
    if args.c is not None:
        gl, e = width_upper_bounds(n, args.c)
        rows["width_lower_bound"] = str(width_ratio_lower_bound(n, args.c))
        rows["gl_upper"] = gl
        rows["e_upper"] = e
    _emit(rows, args.out)
    return EXIT_OK


def cmd_gen(args) -> int:
    alg = _parse_algebra(args.algebra)
    g, inst = make_instance(args.seed, args.n, args.c, alg)
    payload = ser.instance_to_json(inst)
    payload["element"] = ser.mat_to_json(g)
    _emit(payload, args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A usage error is a precondition violation (exit 3); argparse's own
    exit code 2 is the one documented for a verification failure."""

    def error(self, message: str):
        raise PreconditionError(message)


def _attach_algebra(argv: list[str]) -> list[str]:
    """Pass "--algebra A" on as "--algebra=A": argparse would read a
    value such as "-1,-3" as an option, and every definite algebra has
    negative parameters."""
    out = []
    for arg in argv:
        if out and out[-1] == "--algebra":
            out[-1] = f"--algebra={arg}"
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="commcert",
        description="exact commutator certificates in GL(n, D) over rational "
        "quaternion division algebras",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("selftest", help="run the deterministic property suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, action="append")
    p.add_argument("--verify", metavar="FILE", help="re-verify an emitted certificate file")
    p.set_defaults(fn=cmd_selftest)

    p = sub.add_parser("decompose", help="diagonal * U V U decomposition of a matrix file")
    p.add_argument("path")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser(
        "certify-lower",
        help="extract a D* certificate from pairs hitting diag(1,...,1,tau)",
    )
    p.add_argument("path")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_certify_lower)

    p = sub.add_parser("factor", help="factor a based instance into commutators")
    p.add_argument("path")
    p.add_argument("--mode", choices=("gl", "e", "stable"), default="gl")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_factor)

    p = sub.add_parser("bounds", help="print the bound table for given n, c, d")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("gen", help="generate a seeded random based instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--algebra", default="-1,-1", help='"a,b", each "p/q" or "p"')
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gen)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = _attach_algebra(sys.argv[1:] if argv is None else list(argv))
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except PreconditionError as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InternalInvariantError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
