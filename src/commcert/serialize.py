"""JSON encodings: exact rational strings everywhere, no floats.

A quaternion is an array of four strings ["w", "x", "y", "z"], each
coordinate "p/q" or "p" and written in lowest terms; a matrix is an
array of rows, each an array of quaternion encodings, with the
dimension inferred; certificates, h-factor lists, normal forms and
based instances are tagged dicts built from those two.  Files carry the
algebra parameters alongside the payload so they re-verify standalone.

The quaternion codec works on the integer numerators over one common
denominator that Quat stores, with no Fraction in between.  The decoder
accepts only those array shapes, and a coordinate that is not in lowest
terms ("2/4", "-0", "+3") decodes to the same canonical Quat as its
reduced form.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .budget import HFactor, HFactorList
from .certify import BasedInstance
from .errors import PreconditionError
from .matrix import MatD
from .normalform import UVUForm
from .quaternion import Quat, QuaternionAlgebra
from .wordcalc import CommutatorCert


# Python caps int <-> str conversion at 4300 decimal digits by default.
# Longer integers are split at a power of ten into pieces under the cap
# rather than lifting the interpreter-wide limit.
_SHORT_DIGITS = 3000
_SHORT_BITS = 9900  # 2^9900 < 10^3000
_RAT = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+))?")


def _int_to_str(v: int) -> str:
    if v.bit_length() <= _SHORT_BITS:
        return str(v)
    if v < 0:
        return "-" + _int_to_str(-v)
    k = v.bit_length() * 3 // 20  # about half of the decimal digits
    hi, lo = divmod(v, 10**k)
    return _int_to_str(hi) + _int_to_str(lo).zfill(k)


def _int_from_digits(s: str) -> int:
    if len(s) <= _SHORT_DIGITS:
        return int(s)
    k = len(s) // 2
    return _int_from_digits(s[:-k]) * 10**k + _int_from_digits(s[-k:])


def _ratio_to_json(p: int, q: int) -> str:
    """p/q, for q > 0 and gcd(p, q) = 1, as "p/q", or "p" when q = 1."""
    num = _int_to_str(p)
    return num if q == 1 else f"{num}/{_int_to_str(q)}"


def _rat_parts(s: str) -> tuple[int, int]:
    """(p, q) of "p/q" or "p" (ASCII digits, an optional sign on p) and
    nothing else: no spaces, underscores, decimals or exponents.  The
    pair is not reduced; q = 0 raises ZeroDivisionError."""
    m = _RAT.fullmatch(s)
    if m is None:
        raise ValueError(f"invalid rational literal {s[:40]!r}")
    sign, num, den = m.groups()
    p = _int_from_digits(num)
    q = _int_from_digits(den) if den else 1
    if q == 0:
        raise ZeroDivisionError(repr(s[:40]))
    return -p if sign == "-" else p, q


def rat_to_json(r: Fraction) -> str:
    return _ratio_to_json(r.numerator, r.denominator)


def rat_from_json(s: str) -> Fraction:
    return Fraction(*_rat_parts(s))


def algebra_to_json(alg: QuaternionAlgebra) -> dict:
    return {"a": rat_to_json(alg.a), "b": rat_to_json(alg.b)}


def algebra_from_json(data: dict) -> QuaternionAlgebra:
    return QuaternionAlgebra(rat_from_json(data["a"]), rat_from_json(data["b"]))


def quat_to_json(q: Quat) -> list[str]:
    d = q.den
    if d == 1:
        return [_int_to_str(n) for n in (q.wn, q.xn, q.yn, q.zn)]
    out = []
    for n in (q.wn, q.xn, q.yn, q.zn):
        g = math.gcd(n, d)
        out.append(_ratio_to_json(n // g, d // g))
    return out


def quat_from_json(data: list, alg: QuaternionAlgebra) -> Quat:
    if type(data) is not list or len(data) != 4:
        raise PreconditionError("quaternion encoding needs an array of four coordinates")
    (w, qw), (x, qx), (y, qy), (z, qz) = map(_rat_parts, data)
    den = math.lcm(qw, qx, qy, qz)
    return Quat(alg, w * (den // qw), x * (den // qx), y * (den // qy), z * (den // qz), den)


def mat_to_json(m: MatD) -> list:
    return [[quat_to_json(q) for q in row] for row in m.rows]


def mat_from_json(data: list, alg: QuaternionAlgebra) -> MatD:
    return MatD(alg, [[quat_from_json(q, alg) for q in row] for row in data])


def _elem_to_json(e) -> list:
    if isinstance(e, Quat):
        return quat_to_json(e)
    if isinstance(e, MatD):
        return mat_to_json(e)
    raise PreconditionError(f"cannot encode {type(e)!r}")


def _elem_from_json(data: list, alg: QuaternionAlgebra):
    # a quaternion is a flat list of strings, a matrix a list of lists
    if data and isinstance(data[0], str):
        return quat_from_json(data, alg)
    return mat_from_json(data, alg)


def hfactors_to_json(hf: HFactorList) -> list:
    return [{"i": f.index, "eps": quat_to_json(f.eps)} for f in hf.factors]


def hfactors_from_json(data: list, alg: QuaternionAlgebra, n: int) -> HFactorList:
    factors = []
    for d in data:
        if type(d["i"]) is not int:
            raise PreconditionError("h factor index must be an integer")
        factors.append(HFactor(d["i"], quat_from_json(d["eps"], alg)))
    return HFactorList(alg, n, tuple(factors))


def uvuform_to_json(form: UVUForm) -> dict:
    return {
        "h": hfactors_to_json(form.hfactors),
        "u1": mat_to_json(form.u1),
        "v": mat_to_json(form.v),
        "u2": mat_to_json(form.u2),
    }


def uvuform_from_json(data: dict, alg: QuaternionAlgebra) -> UVUForm:
    u1 = mat_from_json(data["u1"], alg)
    return UVUForm(
        alg,
        u1.n,
        hfactors_from_json(data["h"], alg, u1.n),
        u1,
        mat_from_json(data["v"], alg),
        mat_from_json(data["u2"], alg),
    )


def cert_to_json(cert: CommutatorCert) -> dict:
    return {
        "pairs": [[_elem_to_json(g), _elem_to_json(h)] for g, h in cert.pairs],
        "target": _elem_to_json(cert.target),
    }


def cert_from_json(data: dict, alg: QuaternionAlgebra) -> CommutatorCert:
    """Every witness must have the target's kind: a quaternion, or a
    matrix of the target's size."""
    target = _elem_from_json(data["target"], alg)
    pairs = tuple(
        (_elem_from_json(g, alg), _elem_from_json(h, alg)) for g, h in data["pairs"]
    )
    for w in (w for pair in pairs for w in pair):
        if type(w) is not type(target) or (isinstance(w, MatD) and w.n != target.n):
            raise PreconditionError("certificate witnesses must have the target's kind and size")
    return CommutatorCert(pairs, target)


def instance_to_json(inst: BasedInstance) -> dict:
    return {
        "algebra": algebra_to_json(inst.alg),
        "n": inst.n,
        "v": mat_to_json(inst.v),
        "u": mat_to_json(inst.u),
        "delta": quat_to_json(inst.delta),
        "delta_cert": cert_to_json(inst.delta_cert),
        "gamma": mat_to_json(inst.gamma),
    }


def instance_from_json(data: dict) -> BasedInstance:
    alg = algebra_from_json(data["algebra"])
    return BasedInstance(
        alg,
        data["n"],
        mat_from_json(data["v"], alg),
        mat_from_json(data["u"], alg),
        quat_from_json(data["delta"], alg),
        cert_from_json(data["delta_cert"], alg),
        mat_from_json(data["gamma"], alg),
    )
