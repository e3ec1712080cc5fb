"""Third-party check of the emitted outputs.

The checker trusts nothing in an emitted document but its witnesses,
and none of the library's arithmetic.  It reads the JSON strings into
exact numbers of its own, multiplies every commutator out with its own
quaternion and matrix arithmetic, and compares the product with the
element the instance was generated for, never with the document's own
``target``.  Every bound is recomputed here from the instance
parameters (n, c, mode, d or p).  Witnesses that a mode promises to lie
in the elementary group E(n, D) must have reduced norm 1, computed by
the checker's own elimination.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class Verdict:
    achieved: int = 0
    bound: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def require(self, cond: bool, problem: str) -> None:
        if not cond:
            self.problems.append(problem)


# ---------------------------------------------------------------------------
# bounds, recomputed from the paper's formulas
# ---------------------------------------------------------------------------


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def up_bound(mode: str, n: int, c: int) -> int:
    """ceil(c/n) pairs in GL(n, D), ceil(c/(n-2)) with elementary
    witnesses, one elementary pair after stable padding."""
    return {"gl": ceil_div(c, n), "e": ceil_div(c, n - 2), "stable": 1}[mode]


def stable_size(n: int, c: int) -> int:
    return max(n, c + 2, 3)


def kappa_bound(p: int, n: int) -> list[int]:
    """kappa^p = p*mu + (4p - 1)*lambda, mu = (6, 3, ..., 3),
    lambda = (2(n-1), 4(n-2), ..., 4)."""
    lam = [2 * (n - 1)] + [4 * (n - i) for i in range(2, n)]
    mu = [6] + [3] * (n - 2)
    return [p * m + (4 * p - 1) * l for m, l in zip(mu, lam)]


def s_of(kappa: list[int]) -> int:
    return max(0, kappa[0] - 2) + sum(max(0, k - 1) for k in kappa[1:])


# ---------------------------------------------------------------------------
# exact arithmetic of the checker's own
#
# A quaternion w + x i + y j + z k is the tuple (w, x, y, z, d) of
# integers over one denominator d > 0, in lowest terms, so equal
# quaternions are equal tuples.  A matrix is a list of rows.
# ---------------------------------------------------------------------------

ZERO = (0, 0, 0, 0, 1)
ONE = (1, 0, 0, 0, 1)


def reduced(w: int, x: int, y: int, z: int, d: int) -> tuple:
    if d < 0:
        w, x, y, z, d = -w, -x, -y, -z, -d
    g = math.gcd(w, x, y, z, d)
    return (w // g, x // g, y // g, z // g, d // g) if g > 1 else (w, x, y, z, d)


def add(p: tuple, q: tuple) -> tuple:
    w1, x1, y1, z1, d1 = p
    w2, x2, y2, z2, d2 = q
    if d1 == d2:
        return reduced(w1 + w2, x1 + x2, y1 + y2, z1 + z2, d1)
    return reduced(w1 * d2 + w2 * d1, x1 * d2 + x2 * d1, y1 * d2 + y2 * d1, z1 * d2 + z2 * d1, d1 * d2)


def neg(p: tuple) -> tuple:
    w, x, y, z, d = p
    return (-w, -x, -y, -z, d)


def parse_quat(coords) -> tuple:
    if not (isinstance(coords, list) and len(coords) == 4 and all(isinstance(c, str) for c in coords)):
        raise ValueError("a quaternion is four rational strings")
    fr = [Fraction(c) for c in coords]
    d = math.lcm(*(f.denominator for f in fr))
    return reduced(*(f.numerator * (d // f.denominator) for f in fr), d)


def parse_mat(rows) -> list[list[tuple]]:
    n = len(rows)
    if n < 1 or any(not isinstance(r, list) or len(r) != n for r in rows):
        raise ValueError("a matrix is a nonempty square array of quaternions")
    return [[parse_quat(q) for q in row] for row in rows]


def from_library(elem):
    """A library Quat or MatD as the checker's numbers (fields only)."""
    if hasattr(elem, "rows"):
        return [[from_library(q) for q in row] for row in elem.rows]
    return reduced(elem.wn, elem.xn, elem.yn, elem.zn, elem.den)


def identity(n: int) -> list[list[tuple]]:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


class Algebra:
    """(a, b | Q) with integral a, b: i^2 = a, j^2 = b, ij = -ji = k."""

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b

    @classmethod
    def parse(cls, data: dict) -> "Algebra":
        a, b = Fraction(data["a"]), Fraction(data["b"])
        if a.denominator != 1 or b.denominator != 1:
            raise ValueError("the checker handles integral a, b only")
        return cls(int(a), int(b))

    def mul(self, p: tuple, q: tuple) -> tuple:
        a, b = self.a, self.b
        w1, x1, y1, z1, d1 = p
        w2, x2, y2, z2, d2 = q
        return reduced(
            w1 * w2 + a * x1 * x2 + b * y1 * y2 - a * b * z1 * z2,
            w1 * x2 + x1 * w2 - b * (y1 * z2 - z1 * y2),
            w1 * y2 + y1 * w2 + a * (x1 * z2 - z1 * x2),
            w1 * z2 + z1 * w2 + x1 * y2 - y1 * x2,
            d1 * d2,
        )

    def norm(self, p: tuple) -> Fraction:
        """Reduced norm p * conj(p)."""
        w, x, y, z, d = p
        a, b = self.a, self.b
        return Fraction(w * w - a * x * x - b * y * y + a * b * z * z, d * d)

    def inv(self, p: tuple) -> tuple:
        """conj(p) / nrd(p), where nrd(p) = num / d^2."""
        w, x, y, z, d = p
        a, b = self.a, self.b
        num = w * w - a * x * x - b * y * y + a * b * z * z
        if num == 0:
            raise ZeroDivisionError("quaternion without inverse")
        return reduced(w * d, -x * d, -y * d, -z * d, num)

    def mat_mul(self, xs: list, ys: list) -> list:
        mul = self.mul
        cols = list(zip(*ys))
        out = []
        for row in xs:
            nz = [(k, q) for k, q in enumerate(row) if q != ZERO]
            out_row = []
            for col in cols:
                acc = ZERO
                for k, q in nz:
                    if col[k] != ZERO:
                        acc = add(acc, mul(q, col[k]))
                out_row.append(acc)
            out.append(out_row)
        return out

    def mat_inv(self, xs: list) -> tuple[list, Fraction]:
        """(inverse, reduced norm) by Gauss-Jordan with left row
        operations.  Row additions have reduced norm 1, and so do row
        swaps over a quaternion algebra, so the reduced norm of the
        matrix is the product of the pivots' norms."""
        n = len(xs)
        work = [list(r) + e for r, e in zip(xs, identity(n))]
        nrd = Fraction(1)
        for col in range(n):
            piv = next((r for r in range(col, n) if work[r][col] != ZERO), None)
            if piv is None:
                raise ZeroDivisionError("singular matrix")
            work[col], work[piv] = work[piv], work[col]
            p = work[col][col]
            nrd *= self.norm(p)
            pinv = self.inv(p)
            work[col] = [self.mul(pinv, q) for q in work[col]]
            for r in range(n):
                f = work[r][col]
                if r != col and f != ZERO:
                    work[r] = [add(q, neg(self.mul(f, c))) for q, c in zip(work[r], work[col])]
        return [row[n:] for row in work], nrd

    def commutator_product(self, pairs: list) -> tuple[object, list[Fraction]]:
        """prod [g, h] = g h g^-1 h^-1 over the pairs, and the reduced
        norm of every witness.  Witnesses are all quaternions or all
        n x n matrices."""
        if not pairs:
            return None, []
        if isinstance(pairs[0][0], tuple):
            mul = self.mul
            acc = ONE
            for g, h in pairs:
                acc = mul(mul(mul(mul(acc, g), h), self.inv(g)), self.inv(h))
            return acc, [self.norm(w) for pair in pairs for w in pair]
        mul = self.mat_mul
        acc, norms = identity(len(pairs[0][0])), []
        for g, h in pairs:
            (gi, gn), (hi, hn) = self.mat_inv(g), self.mat_inv(h)
            norms += [gn, hn]
            acc = mul(mul(mul(mul(acc, g), h), gi), hi)
        return acc, norms


def padded(m: list, size: int) -> list:
    """m in the top-left corner of the size x size identity."""
    n = len(m)
    return [
        (list(m[i]) if i < n else [ZERO] * n) + [ONE if j == i else ZERO for j in range(n, size)]
        for i in range(size)
    ]


def is_square(m, n: int) -> bool:
    return isinstance(m, list) and len(m) == n and all(len(r) == n for r in m)


def unitriangular(m: list, upper: bool) -> bool:
    for i, row in enumerate(m):
        for j, q in enumerate(row):
            if i == j:
                if q != ONE:
                    return False
            elif (j < i if upper else j > i) and q != ZERO:
                return False
    return True


def is_diagonal_unit(m: list) -> bool:
    return all(
        (q != ZERO) if i == j else q == ZERO
        for i, row in enumerate(m)
        for j, q in enumerate(row)
    )


# ---------------------------------------------------------------------------
# expected values, from the instance's own data
# ---------------------------------------------------------------------------


def expected(workload: str, inst):
    """The element the instance's output must multiply out to, in the
    checker's numbers.  Products of commutators are recomputed here
    from the generated witnesses, not taken from the library."""
    if workload == "up":  # the generated element itself
        element = from_library(inst.element)
        return padded(element, stable_size(inst.n, inst.c)) if inst.mode == "stable" else element
    alg = Algebra(int(inst.alg.a), int(inst.alg.b))
    # down: delta, a product of scalar commutators; normal-form: a
    # product of matrix commutators
    pairs = inst.based.delta_cert.pairs if workload == "down" else inst.pairs
    return alg.commutator_product([tuple(map(from_library, p)) for p in pairs])[0]


# ---------------------------------------------------------------------------
# decode (the serialize layer) and check, per workload
# ---------------------------------------------------------------------------


def decode(lib, workload: str, text: str) -> dict:
    """The read path a user of the library takes: json.loads and the
    serialize layer's decoders.  The checks below work on ``data``."""
    ser = lib.serialize
    data = json.loads(text)
    alg = ser.algebra_from_json(data["algebra"])
    if workload == "up":
        ser.cert_from_json(data["certificate"], alg)
    elif workload == "down":
        ser.cert_from_json(data["matrix_certificate"], alg)
        ser.cert_from_json(data["certificate"], alg)
    else:
        ser.uvuform_from_json(data["form"], alg)
        ser.mat_from_json(data["head"], alg)
        ser.uvuform_from_json(data["decomposition"], alg)
    return data


def same_algebra(data: dict, inst) -> tuple[Algebra, bool]:
    alg = Algebra.parse(data["algebra"])
    return alg, (Fraction(alg.a), Fraction(alg.b)) == (inst.alg.a, inst.alg.b)


def parse_pairs(pairs, parse) -> list:
    return [(parse(g), parse(h)) for g, h in pairs]


def check_up(inst, data: dict) -> Verdict:
    v = Verdict(bound=up_bound(inst.mode, inst.n, inst.c))
    alg, same = same_algebra(data, inst)
    v.require(same, "algebra differs from the instance")
    pairs = data["certificate"]["pairs"]
    v.achieved = len(pairs)
    v.require(1 <= v.achieved <= v.bound, f"{v.achieved} pairs, bound {v.bound}")
    want = inst.expected
    n = len(want)
    pairs = parse_pairs(pairs, parse_mat)
    if not all(is_square(w, n) for pair in pairs for w in pair):
        v.problems.append(f"witnesses are not {n}x{n} matrices")
        return v
    product, norms = alg.commutator_product(pairs)
    v.require(product == want, "commutator product is not the instance element")
    if inst.mode in ("e", "stable"):
        v.require(all(x == 1 for x in norms), "a witness lies outside E(n, D)")
    return v


def check_down(inst, data: dict) -> Verdict:
    n = inst.n
    mpairs = data["matrix_certificate"]["pairs"]
    spairs = data["certificate"]["pairs"]
    d = len(mpairs)
    v = Verdict(achieved=len(spairs))
    alg, same = same_algebra(data, inst)
    v.require(same, "algebra differs from the instance")
    if not 1 <= d <= ceil_div(inst.c, n):
        v.problems.append(f"{d} matrix pairs, bound {ceil_div(inst.c, n)}")
        return v
    v.bound = s_of(kappa_bound(d, n))
    v.require(1 <= v.achieved <= v.bound, f"{v.achieved} scalar pairs, bound s(kappa^{d}) = {v.bound}")
    mpairs = parse_pairs(mpairs, parse_mat)
    if not all(is_square(w, n) for pair in mpairs for w in pair):
        v.problems.append(f"matrix witnesses are not {n}x{n}")
        return v
    delta = inst.expected
    diag = identity(n)
    diag[n - 1][n - 1] = delta
    v.require(
        alg.commutator_product(mpairs)[0] == diag,
        "matrix commutator product is not diag(1, ..., 1, delta)",
    )
    v.require(
        alg.commutator_product(parse_pairs(spairs, parse_quat))[0] == delta,
        "scalar commutator product is not delta",
    )
    return v


def check_normal_form(inst, data: dict) -> Verdict:
    n, p = inst.n, len(inst.pairs)
    cap = kappa_bound(p, n)
    v = Verdict(bound=sum(cap))
    alg, same = same_algebra(data, inst)
    v.require(same, "algebra differs from the instance")
    form, dec = data["form"], data["decomposition"]
    mats = {
        f"{part}.{key}": parse_mat(part_data[key])
        for part, part_data in (("form", form), ("decomposition", dec))
        for key in ("u1", "v", "u2")
    }
    for name, m in mats.items():
        upper = not name.endswith(".v")
        if not (is_square(m, n) and unitriangular(m, upper)):
            v.problems.append(f"{name} is not {'upper' if upper else 'lower'} unitriangular")
    head = parse_mat(data["head"])
    if not (is_square(head, n) and is_diagonal_unit(head)):
        v.problems.append("head is not an invertible diagonal matrix")
    if v.problems:
        return v

    # H = product of h_i(eps) = diag(.., eps, eps^-1, ..) at slots i, i+1
    kappa = [0] * (n - 1)
    slots = [ONE] * n
    for factor in form["h"]:
        i, eps = factor["i"], parse_quat(factor["eps"])
        kappa[i - 1] += 1
        slots[i - 1] = alg.mul(slots[i - 1], eps)
        slots[i] = alg.mul(slots[i], alg.inv(eps))
    v.achieved = sum(kappa)
    v.require(all(k <= b for k, b in zip(kappa, cap)), f"kappa {kappa} exceeds kappa^{p} {cap}")

    def times(diagonal, m):
        return [[alg.mul(s, q) for q in row] for s, row in zip(diagonal, m)]

    mul, want = alg.mat_mul, inst.expected
    value = mul(mul(times(slots, mats["form.u1"]), mats["form.v"]), mats["form.u2"])
    v.require(value == want, "normal form does not evaluate to the product of commutators")
    v.require(len(dec["h"]) == 0, "decomposition carries h factors")
    heads = [head[i][i] for i in range(n)]
    value = mul(mul(times(heads, mats["decomposition.u1"]), mats["decomposition.v"]), mats["decomposition.u2"])
    v.require(value == want, "head * u1 * v * u2 is not the product of commutators")
    return v


CHECKS = {"up": check_up, "down": check_down, "normal-form": check_normal_form}


def verify(lib, workload: str, inst, text: str) -> Verdict:
    return CHECKS[workload](inst, decode(lib, workload, text))


# ---------------------------------------------------------------------------
# outputs the checker must reject
# ---------------------------------------------------------------------------


def _identity_json(n: int) -> list:
    one, zero = ["1", "0", "0", "0"], ["0", "0", "0", "0"]
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _bump(quat: list) -> None:
    quat[0] = str(Fraction(quat[0]) + 1)


def _shift_by_one(elem: list) -> None:
    """elem + 1: a quaternion, or a matrix whose diagonal entries all move."""
    if isinstance(elem[0], str):
        _bump(elem)
    else:
        for i, row in enumerate(elem):
            _bump(row[i])


def forgeries(workload: str, text: str) -> dict[str, str]:
    """Two wrong copies of a valid emitted document.

    altered witness: for certificates, g + 1 replaces g in the first
    pair whose witnesses do not commute.  [g + 1, h] = [g, h] would
    force g to commute with h, so the product provably moves.  For
    normal forms u1[1, 2] moves by 1: u1 stays unitriangular and the
    form's value moves by H * E * v * u2, which is not zero.
    empty certificate: {"pairs": [], "target": I}, or for normal forms
    an empty h ledger with identity factors.
    """
    data = json.loads(text)
    altered, empty = copy.deepcopy(data), copy.deepcopy(data)
    if workload == "normal-form":
        _bump(altered["form"]["u1"][0][1])
        n = len(data["form"]["u1"])
        empty["form"] = {"h": [], "u1": _identity_json(n), "v": _identity_json(n), "u2": _identity_json(n)}
    else:
        alg = Algebra.parse(data["algebra"])
        pairs = data["certificate"]["pairs"]
        parse = parse_quat if isinstance(pairs[0][0][0], str) else parse_mat
        mul = alg.mul if parse is parse_quat else alg.mat_mul
        commutes = [mul(g, h) == mul(h, g) for g, h in parse_pairs(pairs, parse)]
        k = commutes.index(False) if False in commutes else 0
        _shift_by_one(altered["certificate"]["pairs"][k][0])
        target = data["certificate"]["target"]
        one = ["1", "0", "0", "0"] if isinstance(target[0], str) else _identity_json(len(target))
        empty["certificate"] = {"pairs": [], "target": one}
    dump = lambda d: json.dumps(d, separators=(",", ":"))  # noqa: E731
    return {"altered witness": dump(altered), "empty certificate": dump(empty)}


def rejects(lib, workload: str, inst, text: str) -> bool:
    """True when verify() refuses the document (a raise counts as a refusal)."""
    try:
        return not verify(lib, workload, inst, text).ok
    except Exception:
        return True
