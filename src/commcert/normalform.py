"""Budgeted H*U*V*U normal forms.

A UVUForm holds an element as (h factors) * u1 * v * u2 with u1, u2
upper unitriangular and v lower unitriangular.  Multiplying a form on
the right by a subdiagonal transvection t_{k+1,k}(xi) can always be
re-normalized at the cost of at most two new h_{k,k+1} factors; folding
a whole lower unitriangular element costs at most lambda(n); the
commutator of p general pairs costs at most kappa^p.  Every absorption
returns a fresh form, and the h ledger only ever grows by the
documented amounts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import HFactor, HFactorList, h_commutator_factors, kappa_p, lambda_vec, vec_leq
from .errors import InternalInvariantError, PreconditionError, SingularMatrixError
from .matrix import MatD
from .quaternion import Quat, QuaternionAlgebra


@dataclass(frozen=True)
class UVUForm:
    alg: QuaternionAlgebra
    n: int
    hfactors: HFactorList
    u1: MatD
    v: MatD
    u2: MatD

    @staticmethod
    def identity(alg: QuaternionAlgebra, n: int) -> "UVUForm":
        e = MatD.identity(alg, n)
        return UVUForm(alg, n, HFactorList(alg, n), e, e, e)

    def evaluate(self) -> MatD:
        return self.hfactors.evaluate() * self.u1 * self.v * self.u2

    def shape_check(self) -> None:
        if not self.u1.is_upper_unitriangular():
            raise InternalInvariantError("u1 is not upper unitriangular")
        if not self.v.is_lower_unitriangular():
            raise InternalInvariantError("v is not lower unitriangular")
        if not self.u2.is_upper_unitriangular():
            raise InternalInvariantError("u2 is not upper unitriangular")


def rewrite_relation3(zeta: Quat, xi: Quat) -> tuple[Quat, Quat, Quat]:
    """Right-hand side of relation 3,

        t_{i,j}(zeta) t_{j,i}(xi) =
            h_{i,j}(zeta) h_{i,j}(zeta^-1 + xi) t_{j,i}(xi2) t_{i,j}(zeta2),

    as (zeta^-1 + xi, xi2, zeta2) with xi2 = (1 + xi zeta) xi and
    zeta2 = (1 + zeta xi)^-1 zeta.  Needs zeta and 1 + zeta xi in D*;
    `verify_relation(3, ...)` checks the identity with dense matrices."""
    one = zeta.alg.one
    return (
        zeta.inverse() + xi,
        (one + xi * zeta) * xi,
        (one + zeta * xi).inverse() * zeta,
    )


def absorb_lower_transvection(form: UVUForm, k: int, xi: Quat) -> UVUForm:
    """Normalize eval(form) * t_{k+1,k}(xi) back into H U V U shape.

    Case analysis on zeta = u2[k, k+1] and eta = v[k+1, k]:

      1. zeta = 0: t slides through u2 by conjugation, free.
      2. zeta a unit, 1 + zeta xi != 0: the adjacent upper/lower pair
         rewrites through the two-h identity, costing h_{k,k+1}(zeta)
         and h_{k,k+1}(zeta^-1 + xi).
      3. otherwise, if 1 + eta zeta != 0: absorb u2's t_{k,k+1}(zeta)
         into the v side first (same identity mirrored, or free when
         eta = 0), then finish as in case 1.
      4. zeta xi = -1 and eta zeta = -1: the braid identity applies and
         the whole move is free.

    The cases are exhaustive; the h ledger grows by at most 2 e_k.
    """
    alg, n = form.alg, form.n
    if not (1 <= k <= n - 1):
        raise PreconditionError(f"index k={k} out of range for n={n}")
    if xi.is_zero():
        return form
    one = alg.one
    u1, v, u2, hf = form.u1, form.v, form.u2, form.hfactors

    zeta = u2.entry(k, k + 1)
    if zeta.is_zero():
        # Case 1: u2 already misses the (k, k+1) slot.
        out = UVUForm(alg, n, hf, u1, v.add_col(k + 1, k, xi), u2.conj_t(k + 1, k, xi))
        out.shape_check()
        return out

    # u2 = u2' * t_{k,k+1}(zeta) with u2' having a zero (k, k+1) entry
    u2_prime = u2.add_col(k, k + 1, -zeta)

    if not (one + zeta * xi).is_zero():
        # Case 2.
        h_second, xi2, zeta2 = rewrite_relation3(zeta, xi)
        h2 = HFactorList(alg, n, (HFactor(k, zeta), HFactor(k, h_second)))
        d2 = h2.diagonal()
        u1_c, v_c, u2_c = (m.conjugate_by_diagonal(d2) for m in (u1, v, u2_prime))
        new_u2 = u2_c.conj_t(k + 1, k, xi2).add_col(k, k + 1, zeta2)
        out = UVUForm(alg, n, hf.concat(h2), u1_c, v_c.add_col(k + 1, k, xi2), new_u2)
        out.shape_check()
        return out

    # zeta * xi = -1 from here on; v = v' * t_{k+1,k}(eta) with v'
    # having a zero (k+1, k) entry.
    eta = v.entry(k + 1, k)
    v_prime = v.add_col(k + 1, k, -eta)
    u2_dd = u2_prime.conj_t(k, k + 1, zeta)

    if not (one + eta * zeta).is_zero():
        # Case 3.
        if eta.is_zero():
            u1_mid = u1.add_col(k, k + 1, zeta)
            v_mid = v.conj_t(k, k + 1, zeta)
            hf_new = hf
        else:
            # relation 3 mirrored: t_{k+1,k}(eta) t_{k,k+1}(zeta)
            h_second, zeta3, eta3 = rewrite_relation3(eta, zeta)
            h2 = HFactorList(alg, n, (HFactor(k, eta.inverse()), HFactor(k, h_second.inverse())))
            d2 = h2.diagonal()
            u1_mid = u1.conjugate_by_diagonal(d2).add_col(k, k + 1, zeta3)
            v_hat = v_prime.conjugate_by_diagonal(d2).conj_t(k, k + 1, zeta3)
            v_mid = v_hat.add_col(k + 1, k, eta3)
            hf_new = hf.concat(h2)
        new_v = v_mid.add_col(k + 1, k, xi)
        out = UVUForm(alg, n, hf_new, u1_mid, new_v, u2_dd.conj_t(k + 1, k, xi))
        out.shape_check()
        return out

    # Case 4: eta = xi and zeta = -xi^-1.
    if zeta != -xi.inverse() or eta != xi:
        raise InternalInvariantError("case split for lower absorption is broken")
    neg = -xi.inverse()
    new_v = v_prime.conj_t(k, k + 1, neg).add_col(k + 1, k, xi)
    new_u2 = u2_dd.conj_t(k + 1, k, xi).add_row(k, k + 1, neg)
    out = UVUForm(alg, n, hf, u1.add_col(k, k + 1, neg), new_v, new_u2)
    out.shape_check()
    return out


def factor_lower_unitriangular(v: MatD) -> list[tuple[int, Quat]]:
    """Write v as an ordered product of adjacent subdiagonal
    transvections t_{k+1,k}(xi), at most n-1 of them with k = 1 and at
    most 2(n-k) with index k >= 2.

    Rows are cleared bottom-up by column operations.  For a row whose
    leftmost nonzero entry sits at column j0 < i-1, a preparation sweep
    first sets every entry (i, j0+1 .. i-1) to that leftmost value
    (pivots are the value itself or the diagonal 1, so no pivot can
    vanish), after which one pass of clearing operations empties the
    row; a row with a single subdiagonal entry costs one factor.  The
    count contract is asserted before returning.
    """
    if not v.is_lower_unitriangular():
        raise PreconditionError("input must be lower unitriangular")
    alg, n = v.alg, v.n
    if v.is_identity():
        return []
    work = [list(row) for row in v.rows]
    ops: list[tuple[int, Quat]] = []

    def apply(k: int, xi: Quat) -> None:
        # work <- work * t_{k+1,k}(xi): column k gains column k+1 times xi
        if xi.is_zero():
            return
        for r in range(n):
            if not work[r][k].is_zero():
                work[r][k - 1] = work[r][k - 1] + work[r][k] * xi
        ops.append((k, xi))

    for i in range(n, 1, -1):  # 1-based row
        ri = work[i - 1]
        nonzero = [j for j in range(1, i) if not ri[j - 1].is_zero()]
        if not nonzero:
            continue
        j0 = nonzero[0]
        if j0 == i - 1:
            apply(i - 1, -ri[i - 2])
            continue
        pivot_val = ri[j0 - 1]
        for k in range(i - 1, j0, -1):
            cur = ri[k - 1]
            if cur == pivot_val:
                continue
            apply(k, ri[k].inverse() * (pivot_val - cur))
        for k in range(j0, i):
            entry = ri[k - 1]
            if entry.is_zero():
                continue
            apply(k, -(ri[k].inverse() * entry))

    if any(not work[r][c].is_zero() if r != c else not work[r][c].is_one()
           for r in range(n) for c in range(n)):
        raise InternalInvariantError("lower factorization did not reach the identity")

    factors = [(k, -xi) for k, xi in reversed(ops)]

    counts = [0] * (n - 1)
    for k, _ in factors:
        counts[k - 1] += 1
    budget = [n - 1] + [2 * (n - k) for k in range(2, n)]
    if any(c > b for c, b in zip(counts, budget)):
        raise InternalInvariantError(
            f"lower factorization exceeded its count contract: {counts} vs {budget}"
        )
    return factors


def absorb_V(form: UVUForm, v: MatD) -> UVUForm:
    """Fold a lower unitriangular factor into the form; the h ledger
    grows by at most lambda(n)."""
    if v.is_identity():
        return form
    before = form.hfactors.kappa()
    out = form
    for k, xi in factor_lower_unitriangular(v):
        out = absorb_lower_transvection(out, k, xi)
    growth = tuple(a - b for a, b in zip(out.hfactors.kappa(), before))
    if not vec_leq(growth, lambda_vec(form.n)):
        raise InternalInvariantError(f"V absorption exceeded lambda: {growth}")
    return out


def absorb_upper(form: UVUForm, u: MatD) -> UVUForm:
    """Multiplying by an upper unitriangular element on the right is
    free: it merges into u2."""
    if u.is_identity():
        return form
    if not u.is_upper_unitriangular():
        raise PreconditionError("absorb_upper needs an upper unitriangular factor")
    return UVUForm(form.alg, form.n, form.hfactors, form.u1, form.v, form.u2 * u)


def decompose_huvu(g: MatD) -> tuple[MatD, UVUForm]:
    """Write an invertible g as head * u1 * v * u2 with head diagonal.

    Elimination uses only upper-unitriangular row and column operations:
    row_i += xi * row_j with j > i fixes pivots, col_j += col_i * xi with
    i < j clears to the right of each pivot.  The result is a lower
    triangular matrix whose diagonal becomes the head; the inverse
    operation words become u1 (conjugated through the head) and u2.
    """
    alg, n = g.alg, g.n
    work = [list(row) for row in g.rows]
    p_inv = MatD.identity(alg, n)  # inverse of the accumulated left word
    r_inv = MatD.identity(alg, n)  # inverse of the accumulated right word

    for t in range(1, n + 1):
        if work[t - 1][t - 1].is_zero():
            src = next(
                (r for r in range(t + 1, n + 1) if not work[r - 1][t - 1].is_zero()),
                None,
            )
            if src is None:
                raise SingularMatrixError("matrix is singular")
            # left multiply by t_{t,src}(1)
            work[t - 1] = [a + b for a, b in zip(work[t - 1], work[src - 1])]
            p_inv = p_inv.add_col(t, src, -alg.one)
        pivot_inv = work[t - 1][t - 1].inverse()
        for j in range(t + 1, n + 1):
            entry = work[t - 1][j - 1]
            if entry.is_zero():
                continue
            xi = -(pivot_inv * entry)
            # right multiply by t_{t,j}(xi): col_j += col_t * xi
            for r in range(n):
                if not work[r][t - 1].is_zero():
                    work[r][j - 1] = work[r][j - 1] + work[r][t - 1] * xi
            r_inv = r_inv.add_row(t, j, -xi)

    d = [work[i][i] for i in range(n)]
    d_inv = [e.inverse() for e in d]
    v = MatD(alg, [[d_inv[i] * work[i][j] for j in range(n)] for i in range(n)])
    head = MatD.diagonal(alg, d)
    u1 = p_inv.conjugate_by_diagonal(d)
    form = UVUForm(alg, n, HFactorList(alg, n), u1, v, r_inv)
    form.shape_check()
    if head * form.u1 * form.v * form.u2 != g:
        raise InternalInvariantError("HUVU decomposition failed to reassemble")
    return head, form


def _conjugated_triple(w: UVUForm, c: tuple[Quat, ...]) -> tuple[MatD, MatD, MatD]:
    return (
        w.u1.conjugate_by_diagonal(c),
        w.v.conjugate_by_diagonal(c),
        w.u2.conjugate_by_diagonal(c),
    )


def _inverse_triple(w: UVUForm) -> tuple[MatD, MatD, MatD]:
    return (w.u2.inverse(), w.v.inverse(), w.u1.inverse())


def commutator_normal_form(pairs: list[tuple[MatD, MatD]]) -> UVUForm:
    """Normal form of a product of p commutators, with the h ledger
    bounded by kappa^p.

    Each pair (x, y) contributes its head commutator [h_x, h_y] through
    the diagonal factorization (cost mu) and four conjugated U V U words
    folded with three V absorptions (cost 3 lambda); gluing successive
    pairs costs one more V absorption (the extra lambda in the kappa^p
    recurrence).
    """
    if not pairs:
        raise PreconditionError("need at least one commutator pair")
    alg, n = pairs[0][0].alg, pairs[0][0].n
    form: UVUForm | None = None
    for x, y in pairs:
        hx, wx = decompose_huvu(x)
        hy, wy = decompose_huvu(y)
        dx = hx.diagonal_entries()
        dy = hy.diagonal_entries()
        dx_inv = [e.inverse() for e in dx]
        dy_inv = [e.inverse() for e in dy]
        c1 = tuple(dy[i] * dx_inv[i] * dy_inv[i] for i in range(n))
        c2 = tuple(dx_inv[i] * dy_inv[i] for i in range(n))
        c3 = tuple(dy_inv)

        hcf = h_commutator_factors(hx, hy)
        wx_inv = _inverse_triple(wx)
        wy_inv = _inverse_triple(wy)
        pieces = [
            _conjugated_triple(wx, c1),
            _conjugated_triple(wy, c2),
            tuple(m.conjugate_by_diagonal(c2) for m in wx_inv),
            tuple(m.conjugate_by_diagonal(c3) for m in wy_inv),
        ]
        pair_form = UVUForm(alg, n, hcf, *pieces[0])
        for uu1, vv, uu2 in pieces[1:]:
            pair_form = absorb_upper(pair_form, uu1)
            pair_form = absorb_V(pair_form, vv)
            pair_form = absorb_upper(pair_form, uu2)

        if form is None:
            form = pair_form
        else:
            d2 = pair_form.hfactors.diagonal()
            merged = UVUForm(
                alg,
                n,
                form.hfactors.concat(pair_form.hfactors),
                form.u1.conjugate_by_diagonal(d2),
                form.v.conjugate_by_diagonal(d2),
                form.u2.conjugate_by_diagonal(d2),
            )
            merged = absorb_upper(merged, pair_form.u1)
            merged = absorb_V(merged, pair_form.v)
            merged = absorb_upper(merged, pair_form.u2)
            form = merged

    assert form is not None
    if not vec_leq(form.hfactors.kappa(), kappa_p(len(pairs), n)):
        raise InternalInvariantError("commutator normal form exceeded kappa^p")
    return form


def extract_H(form: UVUForm) -> HFactorList:
    """When eval(form) is diagonal the triangular residual is forced to
    be the identity; return the h ledger and fail hard otherwise."""
    residual = form.u1 * form.v * form.u2
    if not residual.is_identity():
        raise InternalInvariantError(
            "diagonal form carries a nonidentity triangular residual"
        )
    return form.hfactors
