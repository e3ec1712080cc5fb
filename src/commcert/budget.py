"""Multiplicity bookkeeping for products of h_{i,i+1}(eps) factors.

A kappa vector kappa in N_0^(n-1) records how many factors with each
index a diagonal element is allowed to use.  The constants lambda, mu
and kappa^p drive every budget in the normal-form engine, and s(kappa)
converts a budget into a commutator-pair count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import InternalInvariantError, PreconditionError, ZeroInputError
from .quaternion import Quat, QuaternionAlgebra, commutator
from .matrix import MatD

KappaVec = tuple[int, ...]


class HFactor(NamedTuple):
    index: int  # 1-based, 1 <= index <= n-1
    eps: Quat


@dataclass(frozen=True)
class HFactorList:
    """Ordered list of h_{i,i+1}(eps) factors together with the ambient
    size n; evaluates to a diagonal matrix, and its kappa vector is the
    per-index factor count."""

    alg: QuaternionAlgebra
    n: int
    factors: tuple[HFactor, ...] = ()

    def __post_init__(self):
        for f in self.factors:
            if not (1 <= f.index <= self.n - 1):
                raise PreconditionError(f"h factor index {f.index} out of range for n={self.n}")
            if f.eps.is_zero():
                raise ZeroInputError("h factor needs eps in D*")

    def __len__(self) -> int:
        return len(self.factors)

    def concat(self, other: "HFactorList") -> "HFactorList":
        if self.n != other.n or self.alg != other.alg:
            raise PreconditionError("cannot concatenate factor lists of different shapes")
        return HFactorList(self.alg, self.n, self.factors + other.factors)

    def kappa(self) -> KappaVec:
        counts = [0] * (self.n - 1)
        for f in self.factors:
            counts[f.index - 1] += 1
        return tuple(counts)

    def diagonal(self) -> tuple[Quat, ...]:
        """Slotwise ordered products: factor (i, eps) multiplies slot i
        by eps and slot i+1 by eps^-1, on the right."""
        slots = [self.alg.one] * self.n
        for idx, eps in self.factors:
            slots[idx - 1] = slots[idx - 1] * eps
            slots[idx] = slots[idx] * eps.inverse()
        return tuple(slots)

    def evaluate(self) -> MatD:
        return MatD.diagonal(self.alg, self.diagonal())


def vec_add(u: KappaVec, v: KappaVec) -> KappaVec:
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c: int, u: KappaVec) -> KappaVec:
    return tuple(c * a for a in u)


def vec_leq(u: KappaVec, v: KappaVec) -> bool:
    return all(a <= b for a, b in zip(u, v))


def lambda_vec(n: int) -> KappaVec:
    """(2(n-1), 4(n-2), 4(n-3), ..., 4)."""
    if n < 2:
        raise PreconditionError("need n >= 2")
    return tuple([2 * (n - 1)] + [4 * (n - i) for i in range(2, n)])


def mu_vec(n: int) -> KappaVec:
    """(6, 3, ..., 3)."""
    if n < 2:
        raise PreconditionError("need n >= 2")
    return tuple([6] + [3] * (n - 2))


def kappa_p(p: int, n: int) -> KappaVec:
    """p*mu + (4p - 1)*lambda; satisfies kappa^1 = mu + 3 lambda and
    kappa^p = kappa^(p-1) + kappa^1 + lambda."""
    if p < 1:
        raise PreconditionError("need p >= 1")
    return vec_add(vec_scale(p, mu_vec(n)), vec_scale(4 * p - 1, lambda_vec(n)))


def s_of(kappa: Iterable[int]) -> int:
    """max(0, kappa_1 - 2) + sum_{i>=2} max(0, kappa_i - 1)."""
    kappa = tuple(kappa)
    if not kappa:
        return 0
    return max(0, kappa[0] - 2) + sum(max(0, k - 1) for k in kappa[1:])


def _slot_commutator_factors(slot: int, xi: Quat, zeta: Quat) -> tuple[HFactor, ...]:
    """Three h factors realizing diag(1, ..., [xi, zeta] at `slot`, ..., 1).

    Slot 1 uses index 1 directly:
        h(xi) h(zeta) h(xi^-1 zeta^-1) puts [xi, zeta] in slot 1.
    Slot i >= 2 uses index i-1 with inverted arguments: the products of
    the arguments cancel in slot i-1 while the inverses compose to the
    commutator in slot i.
    """
    c = commutator(xi, zeta)
    if c.is_one():
        return ()
    if slot == 1:
        third = xi.inverse() * zeta.inverse()
        return (HFactor(1, xi), HFactor(1, zeta), HFactor(1, third))
    a, b = xi.inverse(), zeta.inverse()
    return (HFactor(slot - 1, a), HFactor(slot - 1, b), HFactor(slot - 1, b.inverse() * a.inverse()))


def h_commutator_factors(h1: MatD, h2: MatD) -> HFactorList:
    """Factor [h1, h2] of diagonal elements into h_{i,i+1} factors with
    kappa <= mu: slot 1 costs three index-1 factors, every later slot
    three factors at its own index minus one, so index 1 carries at most
    3 + 3 = 6 and every other index at most 3.

    The emitted list is verified by evaluation before returning.
    """
    if not (h1.is_diagonal() and h2.is_diagonal()):
        raise PreconditionError("h commutator factorization needs diagonal inputs")
    alg, n = h1.alg, h1.n
    factors: list[HFactor] = []
    for slot in range(1, n + 1):
        xi = h1.rows[slot - 1][slot - 1]
        zeta = h2.rows[slot - 1][slot - 1]
        if xi.is_zero() or zeta.is_zero():
            raise ZeroInputError("diagonal entries must be units")
        factors.extend(_slot_commutator_factors(slot, xi, zeta))
    out = HFactorList(alg, n, tuple(factors))
    target = h1 * h2 * h1.inverse() * h2.inverse()
    if out.evaluate() != target:
        raise InternalInvariantError("h commutator factorization failed evaluation check")
    if not vec_leq(out.kappa(), mu_vec(n)):
        raise InternalInvariantError("h commutator factorization exceeded mu")
    return out
