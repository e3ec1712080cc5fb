"""Exact n x n matrices over the quaternion skew-field.

All indices in the public API are 1-based, matching the usual notation
t_{i,j}(xi) for the transvection with xi in position (i, j) and
h_{i,j}(eps) for diag(..., eps, ..., eps^-1, ...).  Products are written
left to right; scalar factors never commute, so every elimination keeps
careful track of the side it multiplies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import (
    AlgebraMismatchError,
    PreconditionError,
    SingularMatrixError,
    ZeroInputError,
)
from .quaternion import Quat, QuaternionAlgebra


class MatD:
    """Immutable square matrix with Quat entries."""

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
            if any(not row[j].is_zero() for j in range(i)):
                return False
        return True

    def is_lower_unitriangular(self) -> bool:
        for i, row in enumerate(self.rows):
            if not row[i].is_one():
                return False
            if any(not row[j].is_zero() for j in range(i + 1, self.n)):
                return False
        return True

    def diagonal_entries(self) -> tuple[Quat, ...]:
        return tuple(self.rows[i][i] for i in range(self.n))

    # -- arithmetic -----------------------------------------------------

    def __mul__(self, other: "MatD") -> "MatD":
        if self.alg is not other.alg and self.alg != other.alg:
            raise AlgebraMismatchError("matrix product across different algebras")
        if self.n != other.n:
            raise PreconditionError("dimension mismatch")
        n = self.n
        zero = self.alg.zero
        brows = other.rows
        out = []
        for arow in self.rows:
            row = [zero] * n
            for j, aij in enumerate(arow):
                if aij.is_zero():
                    continue
                brow = brows[j]
                if aij.is_one():
                    for k, bjk in enumerate(brow):
                        if not bjk.is_zero():
                            cur = row[k]
                            row[k] = bjk if cur.is_zero() else cur + bjk
                else:
                    for k, bjk in enumerate(brow):
                        if not bjk.is_zero():
                            term = aij * bjk
                            cur = row[k]
                            row[k] = term if cur.is_zero() else cur + term
            out.append(row)
        return MatD(self.alg, out)

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

    def conjugate_by_diagonal(self, d: Sequence[Quat]) -> "MatD":
        """Entrywise d_i^-1 * x_ij * d_j; preserves triangular shape
        exactly, which generic triple products would only do up to a
        re-check.  Factors equal to 1 and zero entries are passed
        through without a product."""
        inv = [None if e.is_one() else e.inverse() for e in d]
        right = [None if e.is_one() else e for e in d]
        rows = []
        for di, row in zip(inv, self.rows):
            out = []
            for dj, q in zip(right, row):
                if not q.is_zero():
                    if di is not None:
                        q = di * q
                    if dj is not None:
                        q = q * dj
                out.append(q)
            rows.append(out)
        return MatD(self.alg, rows)

    # -- sparse transvection kernel -----------------------------------

    def _check_pair(self, i: int, j: int) -> None:
        if i == j or not (1 <= i <= self.n and 1 <= j <= self.n):
            raise PreconditionError(f"no transvection index pair ({i}, {j}) for n={self.n}")

    def add_row(self, i: int, j: int, xi: Quat) -> "MatD":
        """t_{i,j}(xi) * self: row i gains xi * row j, O(n) products."""
        self._check_pair(i, j)
        if xi.is_zero():
            return self
        rows = list(self.rows)
        row = list(rows[i - 1])
        for c, q in enumerate(rows[j - 1]):
            if not q.is_zero():
                term, cur = xi * q, row[c]
                row[c] = term if cur.is_zero() else cur + term
        rows[i - 1] = row
        return MatD(self.alg, rows)

    def add_col(self, i: int, j: int, xi: Quat) -> "MatD":
        """self * t_{i,j}(xi): column j gains column i * xi, O(n) products."""
        self._check_pair(i, j)
        if xi.is_zero():
            return self
        i, j = i - 1, j - 1
        rows = []
        for row in self.rows:
            q = row[i]
            if not q.is_zero():
                row = list(row)
                term, cur = q * xi, row[j]
                row[j] = term if cur.is_zero() else cur + term
            rows.append(row)
        return MatD(self.alg, rows)

    def conj_t(self, i: int, j: int, xi: Quat) -> "MatD":
        """t_{i,j}(xi)^-1 * self * t_{i,j}(xi), using t_{i,j}(xi)^-1 = t_{i,j}(-xi)."""
        return self.add_row(i, j, -xi).add_col(i, j, xi)


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


def _sub_multiple(row: list[Quat], f: Quat, pivot_row: list[Quat], cols: list[int]) -> None:
    """row[c] -= f * pivot_row[c] in place, for the columns in cols (the
    caller passes only the nonzero entries of pivot_row)."""
    unit = f.is_one()
    for c in cols:
        t = pivot_row[c] if unit else f * pivot_row[c]
        cur = row[c]
        row[c] = -t if cur.is_zero() else cur - t


def mat_inv(g: MatD) -> MatD:
    """Inverse by row elimination over the skew-field.

    All multiplications act on the left of rows, so the order of scalar
    factors is respected; a zero pivot column certifies singularity.
    Only the nonzero entries of the pivot row are propagated, and the
    columns left of the pivot are already eliminated in every row, so
    the work follows the sparsity of the matrix.
    """
    n = g.n
    alg = g.alg
    one, zero = alg.one, alg.zero
    work = [list(row) for row in g.rows]
    aug = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not work[r][col].is_zero()), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            aug[col], aug[piv] = aug[piv], aug[col]
        prow, paug = work[col], aug[col]
        wcols = [c for c in range(col + 1, n) if not prow[c].is_zero()]
        acols = [c for c in range(n) if not paug[c].is_zero()]
        if not prow[col].is_one():
            pinv = prow[col].inverse()
            prow[col] = one
            for c in wcols:
                prow[c] = pinv * prow[c]
            for c in acols:
                paug[c] = pinv * paug[c]
        for r in range(n):
            f = work[r][col]
            if r != col and not f.is_zero():
                work[r][col] = zero
                _sub_multiple(work[r], f, prow, wcols)
                _sub_multiple(aug[r], f, paug, acols)
    return MatD(alg, aug)


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
    """Eliminate to diagonal form using row transvections only (these
    lie in the kernel of det) and multiply the diagonal left to right.

    Pivot repair adds a lower row into the pivot row instead of swapping,
    so every operation is t_{i,j}(xi) and the class is untouched.
    """
    n = g.n
    zero = g.alg.zero
    work = [list(row) for row in g.rows]
    for col in range(n):
        if work[col][col].is_zero():
            src = next((r for r in range(col + 1, n) if not work[r][col].is_zero()), None)
            if src is None:
                raise SingularMatrixError("matrix is singular")
            work[col] = [a + b for a, b in zip(work[col], work[src])]
        prow = work[col]
        pinv = prow[col].inverse()
        # columns left of col are zero in every row but their pivot's
        cols = [c for c in range(col + 1, n) if not prow[c].is_zero()]
        for r in range(n):
            if r != col and not work[r][col].is_zero():
                f = work[r][col] * pinv
                work[r][col] = zero
                _sub_multiple(work[r], f, prow, cols)
    rep = g.alg.one
    for i in range(n):
        rep = rep * work[i][i]
    return DetClass(rep, rep.nrd())


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


def _comm(x: MatD, y: MatD) -> MatD:
    return x * y * x.inverse() * y.inverse()


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
        lhs = _comm(transvection(alg, n, i, j, xi), transvection(alg, n, p, q, zeta))
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
