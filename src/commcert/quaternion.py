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


def int_mul(k: tuple[int, int, int, int], w1: int, x1: int, y1: int, z1: int,
            w2: int, x2: int, y2: int, z2: int) -> tuple[int, int, int, int]:
    """Integer numerators of (w1 + x1 i + y1 j + z1 k)(w2 + x2 i + y2 j + z2 k)
    over the denominator ad*bd, for the structure constants
    k = (ad*bd, an*bd, bn*ad, an*bn) of the algebra (an/ad, bn/bd | Q)."""
    adbd, anbd, bnad, anbn = k
    return (
        adbd * w1 * w2 + anbd * x1 * x2 + bnad * y1 * y2 - anbn * z1 * z2,
        adbd * (w1 * x2 + x1 * w2) - bnad * (y1 * z2 - z1 * y2),
        adbd * (w1 * y2 + y1 * w2) + anbd * (x1 * z2 - z1 * x2),
        adbd * (w1 * z2 + z1 * w2 + x1 * y2 - y1 * x2),
    )


def int_nrd(k: tuple[int, int, int, int], w: int, x: int, y: int, z: int) -> int:
    """Numerator of the reduced norm of w + x i + y j + z k over ad*bd,
    which is also the scalar part of int_mul(k, conj, self)."""
    adbd, anbd, bnad, anbn = k
    return adbd * w * w - anbd * x * x - bnad * y * y + anbn * z * z


def int_reduce(w: int, x: int, y: int, z: int, d: int) -> tuple[int, int, int, int, int]:
    """(w, x, y, z, d) / g with the sign moved into the numerators, so
    that d > 0 and gcd(w, x, y, z, d) = 1: the form Quat.__init__ stores."""
    if d < 0:
        w, x, y, z, d = -w, -x, -y, -z, -d
    if d == 1:
        return w, x, y, z, d
    g = _gcd5(w, x, y, z, d)
    return (w, x, y, z, d) if g == 1 else (w // g, x // g, y // g, z // g, d // g)


def zero_divisor_error(alg: "QuaternionAlgebra") -> NotDivisionAlgebraError:
    return NotDivisionAlgebraError(
        f"nonzero element with nrd = 0: parameters {alg!r} do not give a division algebra"
    )


class QuaternionAlgebra:
    """The algebra (a, b | Q): carries the structure constants and acts
    as the factory for its elements."""

    __slots__ = ("a", "b", "consts", "one", "zero")

    def __init__(self, a: RatLike = -1, b: RatLike = -1):
        a = Fraction(a)
        b = Fraction(b)
        if a == 0 or b == 0:
            raise ZeroInputError("algebra parameters must be nonzero")
        self.a = a
        self.b = b
        an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
        self.consts = (ad * bd, an * bd, bn * ad, an * bn)  # see int_mul
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

    @staticmethod
    def _canonical(alg: QuaternionAlgebra, wn: int, xn: int, yn: int, zn: int,
                   den: int) -> "Quat":
        """A Quat from numerators already in the stored form (den > 0,
        gcd(w, x, y, z, den) = 1), which is not checked or reduced."""
        q = object.__new__(Quat)
        q.alg, q.wn, q.xn, q.yn, q.zn, q.den = alg, wn, xn, yn, zn, den
        return q

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
        return Quat._canonical(self.alg, -self.wn, -self.xn, -self.yn, -self.zn, self.den)

    def __mul__(self, other: "Quat") -> "Quat":
        self._check_same_algebra(other)
        alg = self.alg
        wn, xn, yn, zn = int_mul(alg.consts, self.wn, self.xn, self.yn, self.zn,
                                 other.wn, other.xn, other.yn, other.zn)
        return Quat(alg, wn, xn, yn, zn, self.den * other.den * alg.consts[0])

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
        return Quat._canonical(self.alg, self.wn, -self.xn, -self.yn, -self.zn, self.den)

    def _nrd_num(self) -> int:
        """Numerator of nrd over the denominator ad * bd * den^2."""
        return int_nrd(self.alg.consts, self.wn, self.xn, self.yn, self.zn)

    def nrd(self) -> Fraction:
        """Reduced norm q * conj(q); multiplicative, lands in Q."""
        return Fraction(self._nrd_num(), self.alg.consts[0] * self.den * self.den)

    def trd(self) -> Fraction:
        """Reduced trace q + conj(q)."""
        return Fraction(2 * self.wn, self.den)

    def _unit_nrd_num(self) -> int:
        """_nrd_num of a unit; a zero element or a zero divisor raises."""
        if self.is_zero():
            raise ZeroInputError("zero quaternion has no inverse")
        num = self._nrd_num()
        if num == 0:
            raise zero_divisor_error(self.alg)
        return num

    def inverse(self) -> "Quat":
        num = self._unit_nrd_num()
        # conj(q) / nrd(q) = (w, -x, -y, -z) * (ad * bd * den) / num
        m = self.alg.consts[0] * self.den
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


def comm(x, y):
    """[x, y] = x y x^-1 y^-1 (the convention every identity in this
    library is validated against), for any group elements with * and
    inverse(): quaternions and matrices alike.

    For quaternions x = P/dx and y = Q/dy, x^-1 = conj(x)/nrd(x) and the
    coordinate denominators cancel: [x, y] is
    int_mul(int_mul(int_mul(P, Q), conj P), conj Q) over ad*bd*N(P)*N(Q),
    with N the norm numerator of int_nrd, so three integer products and
    one reduction.  The errors are those of the four-product form, in
    its order.
    """
    if not (isinstance(x, Quat) and isinstance(y, Quat)):
        return x * y * x.inverse() * y.inverse()
    x._check_same_algebra(y)
    nx, ny = x._unit_nrd_num(), y._unit_nrd_num()
    k = x.alg.consts
    pq = int_mul(k, x.wn, x.xn, x.yn, x.zn, y.wn, y.xn, y.yn, y.zn)
    pqp = int_mul(k, *pq, x.wn, -x.xn, -x.yn, -x.zn)
    num = int_mul(k, *pqp, y.wn, -y.xn, -y.yn, -y.zn)
    return Quat(x.alg, *num, k[0] * nx * ny)


# the name perfbench's down workload calls; the library and its tests use comm
commutator = comm


def solve_twisted(p: Quat, q: Quat, r: Quat) -> Quat:
    """Solve x - p*x*q = r exactly.

    Subtracting p (x - p x q) conj(q) from the equation leaves N x = r -
    p r conj(q) with N = (1 - nrd p nrd q) + (nrd q trd p - trd q) p, as
    q + conj(q) and q conj(q) are central and p^2 = trd p p - nrd p.
    The Q-linear map x -> x - p*x*q has determinant nrd(N): over a
    splitting field both are the product of 1 - alpha_i beta_j over the
    eigenvalues of p and q.  So the system is singular exactly when
    nrd(N) = 0 (for one, when q is a conjugate of p^-1), and it raises so
    the caller can rescale; otherwise x = conj(N) (r - p r conj(q)) /
    nrd(N).

    On integer numerators, with s = ad*bd*p.den*q.den, N is (A + B P)/s^2
    for A = s^2 - Np Nq and B = 2 ad*bd (Nq P_w - s Q_w), Np and Nq the
    int_nrd numerators, and x is p.den*q.den*conj(N)(ad*bd*s R - P R
    conj Q) over int_nrd(N) * r.den.  The returned x is checked by
    substitution.
    """
    p._check_same_algebra(q)
    p._check_same_algebra(r)
    alg, k = p.alg, p.alg.consts
    pw, px, py, pz = p.wn, p.xn, p.yn, p.zn
    s = k[0] * p.den * q.den
    nq = int_nrd(k, q.wn, q.xn, q.yn, q.zn)
    b = 2 * k[0] * (nq * pw - s * q.wn)
    nw, nx, ny, nz = s * s - int_nrd(k, pw, px, py, pz) * nq + b * pw, b * px, b * py, b * pz
    nrd_n = int_nrd(k, nw, nx, ny, nz)
    if nrd_n == 0:
        raise SingularTwistedSystemError(
            "singular twisted system: reduced norms are not separated"
        )
    t = k[0] * s
    prq = int_mul(k, *int_mul(k, pw, px, py, pz, r.wn, r.xn, r.yn, r.zn),
                  q.wn, -q.xn, -q.yn, -q.zn)
    xw, xx, xy, xz = int_mul(k, nw, -nx, -ny, -nz, t * r.wn - prq[0], t * r.xn - prq[1],
                             t * r.yn - prq[2], t * r.zn - prq[3])
    m = p.den * q.den
    x = Quat(alg, m * xw, m * xx, m * xy, m * xz, nrd_n * r.den)
    if x - p * x * q != r:
        raise SingularTwistedSystemError("twisted solve verification failed")
    return x


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
