"""Exact arithmetic in a rational quaternion algebra (a, b | Q).

Elements are stored as four integer numerators over one positive common
denominator, always reduced, so equality is literal tuple equality and
products of small elements stay small.  The basis is 1, i, j, k with
i^2 = a, j^2 = b, ij = -ji = k; consequently k^2 = -ab, ik = aj, ki = -aj,
jk = -bi, kj = bi.

The default algebra is (-1, -1 | Q), whose norm form w^2+x^2+y^2+z^2 is
positive definite, so every nonzero element is invertible.  Arbitrary
nonzero rational parameters are accepted; if a reduced norm ever vanishes
on a nonzero element the inversion raises NotDivisionAlgebraError.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, Union

from .errors import (
    AlgebraMismatchError,
    NotDivisionAlgebraError,
    SingularTwistedSystemError,
    ZeroInputError,
)

RatLike = Union[int, Fraction]


def _gcd5(a: int, b: int, c: int, d: int, e: int) -> int:
    # e (the denominator) is usually the small one; peeling it first lets
    # the common g = 1 case exit before any big-int gcd runs
    g = math.gcd(e, abs(a))
    if g == 1:
        return 1
    g = math.gcd(g, abs(b))
    if g == 1:
        return 1
    g = math.gcd(g, abs(c))
    if g == 1:
        return 1
    return math.gcd(g, abs(d))


class QuaternionAlgebra:
    """The algebra (a, b | Q): carries the structure constants and acts
    as the factory for its elements."""

    __slots__ = ("a", "b", "_an", "_ad", "_bn", "_bd", "one", "zero")

    def __init__(self, a: RatLike = -1, b: RatLike = -1):
        a = Fraction(a)
        b = Fraction(b)
        if a == 0 or b == 0:
            raise ZeroInputError("algebra parameters must be nonzero")
        self.a = a
        self.b = b
        self._an = a.numerator
        self._ad = a.denominator
        self._bn = b.numerator
        self._bd = b.denominator
        self.one = Quat(self, 1, 0, 0, 0, 1)
        self.zero = Quat(self, 0, 0, 0, 0, 1)

    def is_definite(self) -> bool:
        """True when a < 0 and b < 0, which forces the norm form to be
        anisotropic over Q (division is then guaranteed, not just hoped)."""
        return self.a < 0 and self.b < 0

    def quat(self, w: RatLike = 0, x: RatLike = 0, y: RatLike = 0, z: RatLike = 0) -> "Quat":
        fw, fx, fy, fz = Fraction(w), Fraction(x), Fraction(y), Fraction(z)
        den = math.lcm(fw.denominator, fx.denominator, fy.denominator, fz.denominator)
        return Quat(
            self,
            fw.numerator * (den // fw.denominator),
            fx.numerator * (den // fx.denominator),
            fy.numerator * (den // fy.denominator),
            fz.numerator * (den // fz.denominator),
            den,
        )

    def scalar(self, r: RatLike) -> "Quat":
        f = Fraction(r)
        return Quat(self, f.numerator, 0, 0, 0, f.denominator)

    def basis(self) -> tuple["Quat", "Quat", "Quat", "Quat"]:
        return (
            self.one,
            Quat(self, 0, 1, 0, 0, 1),
            Quat(self, 0, 0, 1, 0, 1),
            Quat(self, 0, 0, 0, 1, 1),
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, QuaternionAlgebra) and self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __repr__(self) -> str:
        return f"QuaternionAlgebra({self.a}, {self.b})"


class Quat:
    """One element of a quaternion algebra, immutable after construction.

    Raw constructor: coordinates are num/den with den > 0 and
    gcd(w, x, y, z, den) = 1; use QuaternionAlgebra.quat for arbitrary
    rational input.
    """

    __slots__ = ("alg", "wn", "xn", "yn", "zn", "den")

    def __init__(self, alg: QuaternionAlgebra, wn: int, xn: int, yn: int, zn: int, den: int):
        if den < 0:
            wn, xn, yn, zn, den = -wn, -xn, -yn, -zn, -den
        if den != 1:  # den = 1 is canonical already
            g = _gcd5(wn, xn, yn, zn, den)
            if g > 1:
                wn //= g
                xn //= g
                yn //= g
                zn //= g
                den //= g
        self.alg = alg
        self.wn = wn
        self.xn = xn
        self.yn = yn
        self.zn = zn
        self.den = den

    # -- coordinate access -------------------------------------------------

    @property
    def w(self) -> Fraction:
        return Fraction(self.wn, self.den)

    @property
    def x(self) -> Fraction:
        return Fraction(self.xn, self.den)

    @property
    def y(self) -> Fraction:
        return Fraction(self.yn, self.den)

    @property
    def z(self) -> Fraction:
        return Fraction(self.zn, self.den)

    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.w, self.x, self.y, self.z)

    def is_zero(self) -> bool:
        return self.wn == 0 and self.xn == 0 and self.yn == 0 and self.zn == 0

    def is_one(self) -> bool:
        return (self.wn, self.xn, self.yn, self.zn, self.den) == (1, 0, 0, 0, 1)

    def is_central(self) -> bool:
        """Membership in the centre K = Q (pure scalar part)."""
        return self.xn == 0 and self.yn == 0 and self.zn == 0

    # -- ring structure ----------------------------------------------------

    def _check_same_algebra(self, other: "Quat") -> None:
        # operands almost always share one algebra object
        if self.alg is not other.alg and self.alg != other.alg:
            raise AlgebraMismatchError(f"{self.alg!r} vs {other.alg!r}")

    def __add__(self, other: "Quat") -> "Quat":
        self._check_same_algebra(other)
        d1, d2 = self.den, other.den
        return Quat(
            self.alg,
            self.wn * d2 + other.wn * d1,
            self.xn * d2 + other.xn * d1,
            self.yn * d2 + other.yn * d1,
            self.zn * d2 + other.zn * d1,
            d1 * d2,
        )

    def __sub__(self, other: "Quat") -> "Quat":
        return self + (-other)

    def __neg__(self) -> "Quat":
        q = object.__new__(Quat)
        q.alg, q.wn, q.xn, q.yn, q.zn, q.den = (
            self.alg,
            -self.wn,
            -self.xn,
            -self.yn,
            -self.zn,
            self.den,
        )
        return q

    def __mul__(self, other: "Quat") -> "Quat":
        self._check_same_algebra(other)
        alg = self.alg
        an, ad, bn, bd = alg._an, alg._ad, alg._bn, alg._bd
        w1, x1, y1, z1 = self.wn, self.xn, self.yn, self.zn
        w2, x2, y2, z2 = other.wn, other.xn, other.yn, other.zn
        adbd = ad * bd
        wn = adbd * w1 * w2 + an * bd * x1 * x2 + bn * ad * y1 * y2 - an * bn * z1 * z2
        xn = ad * (bd * (w1 * x2 + x1 * w2) - bn * (y1 * z2 - z1 * y2))
        yn = bd * (ad * (w1 * y2 + y1 * w2) + an * (x1 * z2 - z1 * x2))
        zn = adbd * (w1 * z2 + z1 * w2 + x1 * y2 - y1 * x2)
        return Quat(alg, wn, xn, yn, zn, self.den * other.den * adbd)

    def scale(self, r: RatLike) -> "Quat":
        """Multiplication by a central rational."""
        f = Fraction(r)
        return Quat(
            self.alg,
            self.wn * f.numerator,
            self.xn * f.numerator,
            self.yn * f.numerator,
            self.zn * f.numerator,
            self.den * f.denominator,
        )

    def conj(self) -> "Quat":
        q = object.__new__(Quat)
        q.alg, q.wn, q.xn, q.yn, q.zn, q.den = (
            self.alg,
            self.wn,
            -self.xn,
            -self.yn,
            -self.zn,
            self.den,
        )
        return q

    def _nrd_num(self) -> int:
        """Numerator of nrd over the denominator ad * bd * den^2."""
        alg = self.alg
        an, ad, bn, bd = alg._an, alg._ad, alg._bn, alg._bd
        return (
            ad * bd * self.wn * self.wn
            - an * bd * self.xn * self.xn
            - bn * ad * self.yn * self.yn
            + an * bn * self.zn * self.zn
        )

    def nrd(self) -> Fraction:
        """Reduced norm q * conj(q); multiplicative, lands in Q."""
        alg = self.alg
        return Fraction(self._nrd_num(), alg._ad * alg._bd * self.den * self.den)

    def trd(self) -> Fraction:
        """Reduced trace q + conj(q)."""
        return Fraction(2 * self.wn, self.den)

    def inverse(self) -> "Quat":
        if self.is_zero():
            raise ZeroInputError("zero quaternion has no inverse")
        num = self._nrd_num()
        if num == 0:
            raise NotDivisionAlgebraError(
                f"nonzero element with nrd = 0: parameters {self.alg!r} do not "
                "give a division algebra"
            )
        # conj(q) / nrd(q) = (w, -x, -y, -z) * (ad * bd * den) / num
        m = self.alg._ad * self.alg._bd * self.den
        return Quat(self.alg, self.wn * m, -self.xn * m, -self.yn * m, -self.zn * m, num)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Quat)
            and (self.alg is other.alg or self.alg == other.alg)
            and self.wn == other.wn
            and self.xn == other.xn
            and self.yn == other.yn
            and self.zn == other.zn
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.wn, self.xn, self.yn, self.zn, self.den))

    def __repr__(self) -> str:
        parts = []
        for coef, sym in zip(self.coords(), ("", "i", "j", "k")):
            if coef == 0:
                continue
            parts.append(f"{coef}{sym}" if sym else str(coef))
        return "Quat(" + (" + ".join(parts) if parts else "0") + ")"


def commutator(x: Quat, y: Quat) -> Quat:
    """[x, y] = x y x^-1 y^-1 (the convention every identity in this
    library is validated against)."""
    if x.is_zero() or y.is_zero():
        raise ZeroInputError("commutator needs units of D*")
    return x * y * x.inverse() * y.inverse()


def solve_twisted(p: Quat, q: Quat, r: Quat) -> Quat:
    """Solve x - p*x*q = r exactly.

    The map x -> x - p*x*q is Q-linear on the 4-dimensional algebra, so
    this is one dense 4x4 rational solve.  It is invertible whenever
    nrd(p)*nrd(q) != 1; a singular system raises so the caller can
    rescale.  The returned x is checked by substitution.
    """
    p._check_same_algebra(q)
    p._check_same_algebra(r)
    alg = p.alg
    basis = alg.basis()
    cols = []
    for e in basis:
        img = e - p * e * q
        cols.append(img.coords())
    # rows index the coordinate, columns the basis element
    mat = [[cols[c][ro] for c in range(4)] for ro in range(4)]
    rhs = list(r.coords())
    sol = _solve4(mat, rhs)
    x = alg.quat(*sol)
    if x - p * x * q != r:
        raise SingularTwistedSystemError("twisted solve verification failed")
    return x


def _solve4(mat: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination with exact pivoting on a 4x4 system."""
    m = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    n = 4
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise SingularTwistedSystemError(
                "singular twisted system: reduced norms are not separated"
            )
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [vr - f * vc for vr, vc in zip(m[r], m[col])]
    return [m[r][4] for r in range(n)]


def random_quat(
    alg: QuaternionAlgebra,
    rng: random.Random,
    span: int = 2,
    nonzero: bool = False,
    denominators: Iterable[int] = (1, 1, 2),
) -> Quat:
    """Small random element for seeded tests; coordinates in
    [-span, span] over a random denominator from `denominators`."""
    dens = tuple(denominators)
    while True:
        den = rng.choice(dens)
        q = Quat(
            alg,
            rng.randint(-span, span),
            rng.randint(-span, span),
            rng.randint(-span, span),
            rng.randint(-span, span),
            den,
        )
        if not (nonzero and q.is_zero()):
            return q
