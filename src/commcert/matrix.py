"""Exact n x n matrices over the quaternion skew-field.

All indices in the public API are 1-based, matching the usual notation
t_{i,j}(xi) for the transvection with xi in position (i, j) and
h_{i,j}(eps) for diag(..., eps, ..., eps^-1, ...).  Products are written
left to right; scalar factors never commute, so every elimination keeps
careful track of the side it multiplies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import (
    AlgebraMismatchError,
    PreconditionError,
    SingularMatrixError,
    ZeroInputError,
)
from .quaternion import (
    Quat, QuaternionAlgebra, comm, int_mul, int_nrd, int_reduce, zero_divisor_error,
)


class MatD:
    """Immutable square matrix with Quat entries; it stores its rows and
    nothing derived from them."""

    __slots__ = ("alg", "n", "rows")

    def __init__(self, alg: QuaternionAlgebra, rows: Sequence[Sequence[Quat]]):
        n = len(rows)
        if n < 1 or any(len(r) != n for r in rows):
            raise PreconditionError("matrix must be square and nonempty")
        self.alg = alg
        self.n = n
        self.rows = tuple(tuple(r) for r in rows)

    # -- constructors --------------------------------------------------

    @staticmethod
    def _shaped(alg: QuaternionAlgebra, rows: tuple[tuple[Quat, ...], ...]) -> "MatD":
        """A MatD from rows a kernel has already shaped: a nonempty tuple
        of n tuples of length n, which is not checked or copied."""
        m = object.__new__(MatD)
        m.alg, m.n, m.rows = alg, len(rows), rows
        return m

    @staticmethod
    def identity(alg: QuaternionAlgebra, n: int) -> "MatD":
        one, zero = alg.one, alg.zero
        return MatD(alg, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def diagonal(alg: QuaternionAlgebra, entries: Sequence[Quat]) -> "MatD":
        zero = alg.zero
        n = len(entries)
        return MatD(alg, [[entries[i] if i == j else zero for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int) -> Quat:
        """1-based access."""
        return self.rows[i - 1][j - 1]

    # -- predicates -----------------------------------------------------

    def is_identity(self) -> bool:
        for i, row in enumerate(self.rows):
            for j, q in enumerate(row):
                if i == j:
                    if not q.is_one():
                        return False
                elif not q.is_zero():
                    return False
        return True

    def is_diagonal(self) -> bool:
        return all(
            q.is_zero() for i, row in enumerate(self.rows) for j, q in enumerate(row) if i != j
        )

    def is_upper_unitriangular(self) -> bool:
        for i, row in enumerate(self.rows):
            if not row[i].is_one():
                return False
            for q in row[:i]:
                if q.wn or q.xn or q.yn or q.zn:
                    return False
        return True

    def is_lower_unitriangular(self) -> bool:
        for i, row in enumerate(self.rows):
            if not row[i].is_one():
                return False
            for q in row[i + 1:]:
                if q.wn or q.xn or q.yn or q.zn:
                    return False
        return True

    def diagonal_entries(self) -> tuple[Quat, ...]:
        return tuple(self.rows[i][i] for i in range(self.n))

    # -- arithmetic -----------------------------------------------------

    def __mul__(self, other: "MatD") -> "MatD":
        """One pass over the terms of each output entry, summed on integer
        numerators over a running lcm of their denominators and reduced
        once.  The partial sum is rescaled only when a term's denominator
        does not divide the lcm so far.  Zero entries are skipped, a unit
        left factor passes the right entry through, and the algebra's
        structure constants are folded into each left entry once per
        product (see int_mul)."""
        if self.alg is not other.alg and self.alg != other.alg:
            raise AlgebraMismatchError("matrix product across different algebras")
        if self.n != other.n:
            raise PreconditionError("dimension mismatch")
        alg = self.alg
        adbd, anbd, bnad, anbn = alg.consts
        zero = alg.zero
        gcd = math.gcd
        # the nonzero entries of each column of other, with their numerators
        cols = [[(j, b.wn, b.xn, b.yn, b.zn, b.den, b) for j, b in enumerate(col)
                 if b.wn or b.xn or b.yn or b.zn] for col in zip(*other.rows)]
        out = []
        for arow in self.rows:
            # None for a zero entry, True for a unit, else the products of
            # its numerators with the structure constants and den * ad * bd
            left = [None if a.is_zero() else True if a.is_one() else
                    (adbd * a.wn, adbd * a.xn, adbd * a.yn, adbd * a.zn, anbd * a.xn,
                     anbd * a.zn, bnad * a.yn, bnad * a.zn, anbn * a.zn, adbd * a.den)
                    for a in arow]
            row = []
            for col in cols:
                lcm = 0  # no term yet
                for j, w2, x2, y2, z2, d2, b in col:
                    a = left[j]
                    if a is None:
                        continue
                    if a is True:
                        w, x, y, z, d = w2, x2, y2, z2, d2
                    else:
                        aw, ax, ay, az, nx, nz, by, bz, cz, ad = a
                        w = aw * w2 + nx * x2 + by * y2 - cz * z2
                        x = aw * x2 + ax * w2 - by * z2 + bz * y2
                        y = aw * y2 + ay * w2 + nx * z2 - nz * x2
                        z = aw * z2 + az * w2 + ax * y2 - ay * x2
                        d = ad * d2
                    if not lcm:
                        sw, sx, sy, sz, lcm = w, x, y, z, d
                        only = b if a is True else None  # passed through if alone
                        continue
                    only = None
                    if d != lcm:
                        m, r = divmod(lcm, d)
                        if r:  # d does not divide the lcm: it grows by d / g
                            g = gcd(r, d)  # = gcd(lcm, d)
                            k = d // g
                            sw, sx, sy, sz = sw * k, sx * k, sy * k, sz * k
                            m = lcm // g if g != 1 else lcm  # the new lcm / d
                            lcm *= k
                        w, x, y, z = w * m, x * m, y * m, z * m
                    sw += w
                    sx += x
                    sy += y
                    sz += z
                if not lcm:
                    row.append(zero)
                elif only is not None:
                    row.append(only)
                else:
                    row.append(Quat(alg, sw, sx, sy, sz, lcm))
            out.append(tuple(row))
        return MatD._shaped(alg, tuple(out))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatD)
            and (self.alg is other.alg or self.alg == other.alg)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(repr(q) for q in row) for row in self.rows)
        return f"MatD[{self.n}]({body})"

    def inverse(self) -> "MatD":
        return mat_inv(self)

    def star(self) -> "MatD":
        """Conjugate transpose, entry (i, j) = conj(entry (j, i)): an
        anti-automorphism, (x y)* = y* x*, that swaps the upper and the
        lower unitriangular matrices."""
        return MatD(self.alg, [[q.conj() for q in col] for col in zip(*self.rows)])

    def conjugate_by_diagonal(self, d: Sequence[Quat]) -> "MatD":
        """Entrywise d_i^-1 * x_ij * d_j; preserves triangular shape
        exactly, which generic triple products would only do up to a
        re-check.

        Only the rows and columns whose factor is not 1 change; zero
        entries and a diagonal 1 (d_i^-1 * 1 * d_i = 1) stay.  With
        d_i = D_i / e_i and x = X / f, d_i^-1 = conj(D_i) e_i ad bd / N(D_i),
        N the norm numerator of int_nrd, so a changed entry is
        int_mul(int_mul(conj D_i, X), D_j) e_i over ad bd N(D_i) f e_j,
        reduced once; with d_j = 1 it is int_mul(conj D_i, X) e_i over
        N(D_i) f, and with d_i = 1 int_mul(X, D_j) over ad bd f e_j.  A
        zero factor or a zero divisor raises before any entry is made,
        in slot order."""
        alg, n = self.alg, self.n
        if len(d) != n:
            raise PreconditionError(f"{len(d)} diagonal factors for n={n}")
        moved = [(j, e, e._unit_nrd_num()) for j, e in enumerate(d) if not e.is_one()]
        if not moved:
            return self
        for _, e, _ in moved:
            self._check_factor(e)
        k = alg.consts
        adbd = k[0]
        # right[j] = (D_j, ad bd e_j) for each moved column j
        right = {j: (e.wn, e.xn, e.yn, e.zn, adbd * e.den) for j, e, _ in moved}
        rows = list(self.rows)
        for i, e, nrd in moved:
            cw, cx, cy, cz, ei = e.wn, -e.xn, -e.yn, -e.zn, e.den
            out = list(rows[i])
            for j, q in enumerate(out):
                qw, qx, qy, qz, qd = q.wn, q.xn, q.yn, q.zn, q.den
                if not (qw or qx or qy or qz) or (i == j and q.is_one()):
                    continue
                w, x, y, z = int_mul(k, cw, cx, cy, cz, qw, qx, qy, qz)
                den = nrd * qd
                r = right.get(j)
                if r is not None:
                    w, x, y, z = int_mul(k, w, x, y, z, r[0], r[1], r[2], r[3])
                    den *= r[4]
                if ei != 1:
                    w, x, y, z = w * ei, x * ei, y * ei, z * ei
                out[j] = Quat(alg, w, x, y, z, den)
            rows[i] = tuple(out)
        # the rows whose factor is 1 change only in the moved columns
        for i, row in enumerate(rows):
            if i in right:
                continue
            out = None
            for j, (dw, dx, dy, dz, dd) in right.items():
                q = row[j]
                qw, qx, qy, qz = q.wn, q.xn, q.yn, q.zn
                if qw or qx or qy or qz:
                    if out is None:
                        out = list(row)
                    out[j] = Quat(alg, *int_mul(k, qw, qx, qy, qz, dw, dx, dy, dz), q.den * dd)
            if out is not None:
                rows[i] = tuple(out)
        return MatD._shaped(alg, tuple(rows))

    def _check_factor(self, q: Quat) -> None:
        if q.alg is not self.alg and q.alg != self.alg:
            raise AlgebraMismatchError(f"factor over {q.alg!r} for a matrix over {self.alg!r}")

    # -- sparse transvection kernel -----------------------------------

    def _check_pair(self, i: int, j: int) -> None:
        if i == j or not (1 <= i <= self.n and 1 <= j <= self.n):
            raise PreconditionError(f"no transvection index pair ({i}, {j}) for n={self.n}")

    def add_row(self, i: int, j: int, xi: Quat) -> "MatD":
        """t_{i,j}(xi) * self: row i gains xi * row j, O(n) products;
        each changed entry is reduced once (_plus_product)."""
        self._check_pair(i, j)
        if xi.is_zero():
            return self
        self._check_factor(xi)
        rows = list(self.rows)
        row = list(rows[i - 1])
        for c, q in enumerate(rows[j - 1]):
            if q.wn or q.xn or q.yn or q.zn:
                row[c] = _plus_product(row[c], xi, q)
        rows[i - 1] = tuple(row)
        return MatD._shaped(self.alg, tuple(rows))

    def add_col(self, i: int, j: int, xi: Quat) -> "MatD":
        """self * t_{i,j}(xi): column j gains column i * xi, as add_row."""
        self._check_pair(i, j)
        if xi.is_zero():
            return self
        self._check_factor(xi)
        i, j = i - 1, j - 1
        rows = []
        for row in self.rows:
            q = row[i]
            if q.wn or q.xn or q.yn or q.zn:
                row = list(row)
                row[j] = _plus_product(row[j], q, xi)
                row = tuple(row)
            rows.append(row)
        return MatD._shaped(self.alg, tuple(rows))

    def conj_t(self, i: int, j: int, xi: Quat) -> "MatD":
        """t_{i,j}(xi)^-1 * self * t_{i,j}(xi), using t_{i,j}(xi)^-1 = t_{i,j}(-xi)."""
        return self.add_row(i, j, -xi).add_col(i, j, xi)


def _plus_product(cur: Quat, a: Quat, b: Quat) -> Quat:
    """cur + a * b, reduced once: a factor 1 costs no product and a zero
    cur no sum.  Each Quat's integers are read once; a stored Quat is 1
    exactly when its w and den are 1 and x, y, z are 0."""
    w, x, y, z, d = a.wn, a.xn, a.yn, a.zn, a.den
    bw, bx, by, bz, bd = b.wn, b.xn, b.yn, b.zn, b.den
    if w == 1 and d == 1 and not (x or y or z):
        p, w, x, y, z, d = b, bw, bx, by, bz, bd
    elif bw == 1 and bd == 1 and not (bx or by or bz):
        p = a
    else:
        k = a.alg.consts
        w, x, y, z = int_mul(k, w, x, y, z, bw, bx, by, bz)
        d *= k[0] * bd
        p = None
    cw, cx, cy, cz, cd = cur.wn, cur.xn, cur.yn, cur.zn, cur.den
    if not (cw or cx or cy or cz):
        return p if p is not None else Quat(a.alg, w, x, y, z, d)
    if cd != d:
        w, x, y, z = w * cd, x * cd, y * cd, z * cd
        cw, cx, cy, cz = cw * d, cx * d, cy * d, cz * d
        d *= cd
    return Quat(a.alg, cw + w, cx + x, cy + y, cz + z, d)


def transvection(alg: QuaternionAlgebra, n: int, i: int, j: int, xi: Quat) -> MatD:
    """t_{i,j}(xi): identity plus xi at position (i, j), i != j."""
    if i == j:
        raise PreconditionError("transvection needs i != j")
    if not (1 <= i <= n and 1 <= j <= n):
        raise PreconditionError("transvection index out of range")
    rows = [list(r) for r in MatD.identity(alg, n).rows]
    rows[i - 1][j - 1] = xi
    return MatD(alg, rows)


def h_elem(alg: QuaternionAlgebra, n: int, i: int, j: int, eps: Quat) -> MatD:
    """h_{i,j}(eps): eps at diagonal place i, eps^-1 at place j."""
    if eps.is_zero():
        raise ZeroInputError("h element needs eps in D*")
    if i == j:
        raise PreconditionError("h element needs i != j")
    entries = [alg.one] * n
    entries[i - 1] = eps
    entries[j - 1] = eps.inverse()
    return MatD.diagonal(alg, entries)


# Integer rows for the eliminations: a row holds, for each nonzero
# entry, the integer quaternion (w, x, y, z, den) that Quat would store
# for it, den > 0 and gcd(w, x, y, z, den) = 1, and None for a zero.

IntRow = list[tuple[int, int, int, int, int] | None]
_ONE = (1, 0, 0, 0, 1)


def _int_row(row: Sequence[Quat]) -> IntRow:
    return [None if q.is_zero() else (q.wn, q.xn, q.yn, q.zn, q.den) for q in row]


def _accumulate(row: IntRow, c: int, w: int, x: int, y: int, z: int, d: int) -> None:
    """row[c] += (w, x, y, z) / d, added over the lcm of the two
    denominators and reduced once; a zero sum leaves None, so a stored
    entry is always nonzero."""
    u = row[c]
    if u is not None:
        uw, ux, uy, uz, ud = u
        if ud == d:
            w, x, y, z = uw + w, ux + x, uy + y, uz + z
        else:
            g = math.gcd(ud, d)
            a, b = d // g, ud // g
            w, x, y, z, d = uw * a + w * b, ux * a + x * b, uy * a + y * b, uz * a + z * b, ud * a
    row[c] = int_reduce(w, x, y, z, d) if w or x or y or z else None


def _eliminate(alg: QuaternionAlgebra, rows: list[IntRow], col: int, targets: range) -> None:
    """One Gauss-Jordan step on integer rows, in place: scale the pivot
    row rows[col] on the left to pivot 1 and subtract left multiples of
    it from the target rows to clear column col there.

    For P = p / d, P^-1 = conj(p) d ad bd / N(p) with N(p) = int_nrd(p),
    so P^-1 (e / d_e) = int_mul(conj p, e) d / (N(p) d_e).  A target
    entry loses (f / d_f)(e / d_e) = int_mul(f, e) / (ad bd d_f d_e); a
    central pivot or factor needs no product.  The pivot entry is
    removed from the pivot row as well: no later step reads it.
    """
    k = alg.consts
    prow = rows[col]
    pw, px, py, pz, pd = prow[col]
    prow[col] = None
    if px or py or pz:
        nrd = int_nrd(k, pw, px, py, pz)
        if nrd == 0:
            raise zero_divisor_error(alg)
        for c, e in enumerate(prow):
            if e is not None:
                w, x, y, z, d = e
                w, x, y, z = int_mul(k, pw, -px, -py, -pz, w, x, y, z)
                prow[c] = int_reduce(w * pd, x * pd, y * pd, z * pd, nrd * d)
    elif pw != pd:
        for c, e in enumerate(prow):
            if e is not None:
                w, x, y, z, d = e
                prow[c] = int_reduce(w * pd, x * pd, y * pd, z * pd, pw * d)
    pitems = [(c, e) for c, e in enumerate(prow) if e is not None]
    for r in targets:
        row = rows[r]
        f = row[col]
        if f is None:
            continue
        row[col] = None
        # subtracting f * e is adding (-f) * e
        neg = fw, fx, fy, fz, fd = -f[0], -f[1], -f[2], -f[3], f[4]
        central = not (fx or fy or fz)
        if not central:
            fd *= k[0]
        for c, e in pitems:
            if e == _ONE and row[c] is None:
                row[c] = neg  # (-f) * 1 into an empty place: already reduced
                continue
            ew, ex, ey, ez, ed = e
            if central:
                _accumulate(row, c, fw * ew, fw * ex, fw * ey, fw * ez, fd * ed)
            else:
                _accumulate(row, c, *int_mul(k, fw, fx, fy, fz, ew, ex, ey, ez), fd * ed)


def _unit_pivot(alg: QuaternionAlgebra, rows: list[IntRow], col: int) -> None:
    """Make the pivot p = rows[col][col] a unit, in place, by a row
    transvection: a p that is not a unit gains t * (the first lower row
    whose entry e in the column is a unit), t the first of 1, 2, 3 that
    makes p + t e a unit.  nrd(p + t e) = nrd(p e^-1 + t) nrd(e) is a
    monic quadratic in t, so at most two values fail; over a division
    algebra this adds the first nonzero lower row with t = 1.  A column
    that is zero from the pivot row down certifies singularity; one with
    no unit there raises NotDivisionAlgebraError."""
    k = alg.consts

    def is_unit(e) -> bool:
        return e is not None and int_nrd(k, *e[:4]) != 0

    if is_unit(rows[col][col]):
        return
    src = next((r for r in range(col + 1, len(rows)) if is_unit(rows[r][col])), None)
    if src is None:
        if all(row[col] is None for row in rows[col:]):
            raise SingularMatrixError("matrix is singular")
        raise zero_divisor_error(alg)
    rows[col] = next(row for t in (1, 2, 3)
                     if is_unit((row := _add_rows(rows[col], rows[src], t))[col]))


def mat_inv(g: MatD) -> MatD:
    """Inverse by Gauss-Jordan elimination over the skew-field.

    All multiplications act on the left of rows, so the order of scalar
    factors is respected.  The rows of [g | I] are held as integer
    quaternions, and elimination skips their zero entries; the
    inverse's entries, which `_eliminate` keeps reduced, become Quats
    once, at the end, with no second reduction.  Each pivot is made
    a unit by `_unit_pivot`, which also raises for a singular g.
    """
    n = g.n
    alg = g.alg
    rows = []
    for i, row in enumerate(g.rows):
        work = _int_row(row) + [None] * n
        work[n + i] = _ONE
        rows.append(work)
    for col in range(n):
        _unit_pivot(alg, rows, col)
        _eliminate(alg, rows, col, range(n))
    zero = alg.zero
    out = [[zero if e is None else Quat._canonical(alg, *e) for e in row[n:]] for row in rows]
    return MatD(alg, out)


@dataclass(frozen=True)
class DetClass:
    """Value of the Dieudonne determinant: a representative in D* plus
    the reduced norm, which is a genuine invariant of the class in
    D*/[D*, D*] for the shipped algebras (trivial reduced Whitehead
    group; a recorded model assumption for the shipped algebras)."""

    representative: Quat
    invariant: Fraction

    def __eq__(self, other) -> bool:
        return isinstance(other, DetClass) and self.invariant == other.invariant

    def __hash__(self) -> int:
        return hash(self.invariant)


def dieudonne_det(g: MatD) -> DetClass:
    """Eliminate to triangular form using row transvections only (these
    lie in the kernel of det) and multiply the pivots left to right.
    `_unit_pivot` repairs a pivot by adding a lower row instead of
    swapping, so the class is untouched.  Rows are integer quaternions,
    as in mat_inv.
    """
    n = g.n
    alg = g.alg
    rows = [_int_row(row) for row in g.rows]
    rep = alg.one
    for col in range(n):
        _unit_pivot(alg, rows, col)
        rep = rep * Quat._canonical(alg, *rows[col][col])
        _eliminate(alg, rows, col, range(col + 1, n))
    return DetClass(rep, rep.nrd())


def _add_rows(a: IntRow, b: IntRow, t: int) -> IntRow:
    """a + t * b for an integer t."""
    out = list(a)
    for c, e in enumerate(b):
        if e is not None:
            w, x, y, z, d = e
            _accumulate(out, c, t * w, t * x, t * y, t * z, d)
    return out


def is_elementary(g: MatD) -> bool:
    """Kernel test for the determinant at the reduced-norm level."""
    return dieudonne_det(g).invariant == 1


def is_central_in_E(g: MatD) -> bool:
    """Scalar matrices with entry in the centre K are exactly the
    elements commuting with every transvection."""
    if not g.is_diagonal():
        return False
    first = g.rows[0][0]
    if not first.is_central():
        return False
    return all(g.rows[i][i] == first for i in range(g.n))


def verify_relation(rel: int, alg: QuaternionAlgebra, n: int, **params) -> bool:
    """Evaluate both sides of one of the four transvection relations.

    rel 1: t_{i,j}(xi) t_{i,j}(zeta) = t_{i,j}(xi + zeta)
    rel 2: [t_{i,j}(xi), t_{p,q}(zeta)] = t_{i,q}(xi zeta) if j = p, i != q,
           and = e if j != p, i != q
    rel 3: t_{i,j}(zeta) t_{j,i}(xi) =
           h_{i,j}(zeta) h_{i,j}(zeta^-1 + xi)
           t_{j,i}((1 + xi zeta) xi) t_{i,j}((1 + zeta xi)^-1 zeta),
           requiring zeta and 1 + zeta xi to be units
    rel 4: t_{i,j}(xi) t_{j,i}(-xi^-1) t_{i,j}(xi) =
           t_{j,i}(-xi^-1) t_{i,j}(xi) t_{j,i}(-xi^-1)
    """
    if rel == 1:
        i, j, xi, zeta = params["i"], params["j"], params["xi"], params["zeta"]
        lhs = transvection(alg, n, i, j, xi) * transvection(alg, n, i, j, zeta)
        return lhs == transvection(alg, n, i, j, xi + zeta)
    if rel == 2:
        i, j, p, q = params["i"], params["j"], params["p"], params["q"]
        xi, zeta = params["xi"], params["zeta"]
        if i == q:
            raise PreconditionError("relation 2 covers only the cases with i != q")
        lhs = comm(transvection(alg, n, i, j, xi), transvection(alg, n, p, q, zeta))
        if j == p:
            return lhs == transvection(alg, n, i, q, xi * zeta)
        return lhs.is_identity()
    if rel == 3:
        i, j, xi, zeta = params["i"], params["j"], params["xi"], params["zeta"]
        one = alg.one
        if zeta.is_zero() or (one + zeta * xi).is_zero():
            raise PreconditionError("relation 3 needs zeta and 1 + zeta xi in D*")
        lhs = transvection(alg, n, i, j, zeta) * transvection(alg, n, j, i, xi)
        rhs = (
            h_elem(alg, n, i, j, zeta)
            * h_elem(alg, n, i, j, zeta.inverse() + xi)
            * transvection(alg, n, j, i, (one + xi * zeta) * xi)
            * transvection(alg, n, i, j, (one + zeta * xi).inverse() * zeta)
        )
        return lhs == rhs
    if rel == 4:
        i, j, xi = params["i"], params["j"], params["xi"]
        if xi.is_zero():
            raise PreconditionError("relation 4 needs xi in D*")
        a = transvection(alg, n, i, j, xi)
        b = transvection(alg, n, j, i, -xi.inverse())
        return a * b * a == b * a * b
    raise PreconditionError(f"unknown relation {rel}")


def random_invertible(
    alg: QuaternionAlgebra,
    n: int,
    rng,
    quat_factory: Callable[..., Quat],
    extra_factors: int = 6,
) -> MatD:
    """Seeded random element of GL(n, D) built as a product of
    transvections and one diagonal, so invertibility is free."""
    from .quaternion import random_quat

    g = MatD.diagonal(alg, [quat_factory(alg, rng, nonzero=True) for _ in range(n)])
    for _ in range(extra_factors):
        i = rng.randrange(1, n + 1)
        j = rng.randrange(1, n + 1)
        if i == j:
            continue
        g = g.add_col(i, j, random_quat(alg, rng))
    return g
