"""The pieces that are written once and mirrored: the relation-3 matrix
rewrite, the conjugate transpose, the v-side move (the u-side move seen
through the conjugate transpose) and the corner solve (the upper one
reduced to the lower one's equation).  The v-side move and the upper
corner solve as they were written out by hand are kept here as oracles.

So are the eliminations that now run on MatD.add_row/add_col and one
unit-pivot rule: decompose_huvu, factor_lower_unitriangular and the
unpivoted LDU of prescribed_gauss_base on lists of Quat rows, and
mat_inv with its own pivot search and row swap.  The four-product
commutator x y x^-1 y^-1 is the oracle for comm's integer quaternion
case.  The twist with two Quat products per entry over all n^2
entries is the oracle for MatD.conjugate_by_diagonal, and the
transvection kernel that reduces the product and then the sum is the
oracle for MatD.add_row/add_col (tests/test_kernel_oracles.py compares
them).  The quaternion codec on Fraction coordinates is the oracle for
the integer-native one in serialize.py.

absorb_V carries the diagonal twists of its steps as one pending
diagonal for u1 and v and applies it once at the end.  The fold as one
absorb_lower_transvection per factor, each twisting u1 and v at once,
is kept here as its oracle.

The upward pipeline checks its certificate link by link through the
last pair's frame.  The product check it replaced, R P Q = X Q P with R
the product of the earlier pairs' commutators, is kept here as the
oracle for the certificate behind every pinned factor digest.

factor reads its witnesses off the slot certificates in one pass: the
last pair of every slot, and the diagonal layers as columns of the
pairs before it.  The peel that split every slot certificate once per
layer, and gl mode's loop over it, are kept here as the oracle.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commcert import serialize as ser
from commcert import MatD, QuaternionAlgebra, random_quat, solve_twisted, transvection
from commcert import certify
from commcert.certify import (
    _move_v_side, _rescale_witnesses, _solve_corner, _try_ldu, embed_instance,
    factor_commutators_e, factor_commutators_gl, make_instance, random_unitriangular,
    stable_single_commutator,
)
from commcert.errors import (
    AlgebraMismatchError,
    InternalInvariantError,
    NotDivisionAlgebraError,
    PreconditionError,
    SingularMatrixError,
    ZeroInputError,
)
from commcert.budget import HFactor, HFactorList
from commcert.matrix import _ONE, _eliminate, _int_row, mat_inv, random_invertible
from commcert.normalform import (
    UVUForm, absorb_lower_transvection, absorb_V, decompose_huvu, factor_lower_unitriangular,
    rewrite_adjacent, rewrite_relation3,
)
from commcert.quaternion import Quat, int_nrd, zero_divisor_error
from commcert.wordcalc import CommutatorCert, comm, product

from conftest import with_entry
from test_byte_identity import FACTOR_CASES, _noncentral_instance
from test_kernel_oracles import ALGEBRAS, matrix_cases, outcome

PARAMS = [(-1, -1), (-1, -3), (Fraction(-1, 2), Fraction(-3, 7))]


@pytest.fixture(params=[QuaternionAlgebra(a, b) for a, b in PARAMS],
                ids=[f"({a},{b})" for a, b in PARAMS])
def any_alg(request):
    return request.param


def unit(alg, rng):
    return random_quat(alg, rng, span=2, nonzero=True)


# -- oracles -----------------------------------------------------------------


def oracle_move_v_side(v, diag, u, k, xi):
    """Conjugate v * diag(...) * u by t_{k,k+1}(xi) with relation 3 for
    t_{k,k+1}(-xi) t_{k+1,k}(zeta), zeta = v[k+1,k], written out for the
    v side."""
    alg, n = v.alg, v.n
    zeta = v.entry(k + 1, k)
    r, zeta2, xi2 = rewrite_relation3(-xi, zeta)
    h2 = [alg.one] * n
    h2[k - 1], h2[k] = -xi * r, -(xi.inverse() * xi2)
    v_hat = v.add_row(k + 1, k, -zeta).conj_t(k, k + 1, -xi2).add_row(k + 1, k, zeta2)
    new_v = v_hat.conjugate_by_diagonal([e.inverse() for e in h2])
    new_diag = [h2[i] * diag[i] for i in range(n)]
    u_arg = diag[k - 1].inverse() * xi2 * diag[k]
    new_u = u.add_row(k, k + 1, u_arg).add_col(k, k + 1, xi)
    return new_v, new_diag, new_u


def oracle_solve_corner_upper(u, c):
    """u' in U with [diag(c)^-1, u'] = u, solved on u's own entries."""
    alg, n = u.alg, u.n
    rows = [list(r) for r in MatD.identity(alg, n).rows]
    for depth in range(1, n):
        for i in range(1, n - depth + 1):
            j = i + depth
            rhs = u.entry(i, j)
            for m in range(i + 1, j):
                if not u.entry(i, m).is_zero() and not rows[m - 1][j - 1].is_zero():
                    rhs = rhs + u.entry(i, m) * rows[m - 1][j - 1]
            if rhs.is_zero():
                continue
            rows[i - 1][j - 1] = solve_twisted(c[i - 1].inverse(), c[j - 1], -rhs)
    out = MatD(alg, rows)
    assert comm(MatD.diagonal(alg, c).inverse(), out) == u
    return out


def oracle_decompose_huvu(g):
    """decompose_huvu's elimination on lists of Quat rows: (head, u1, v, u2)."""
    alg, n = g.alg, g.n
    work = [list(row) for row in g.rows]
    p_inv = MatD.identity(alg, n)
    r_inv = MatD.identity(alg, n)
    for t in range(1, n + 1):
        if work[t - 1][t - 1].is_zero():
            src = next(
                (r for r in range(t + 1, n + 1) if not work[r - 1][t - 1].is_zero()),
                None,
            )
            if src is None:
                raise SingularMatrixError("matrix is singular")
            work[t - 1] = [a + b for a, b in zip(work[t - 1], work[src - 1])]
            p_inv = p_inv.add_col(t, src, -alg.one)
        pivot_inv = work[t - 1][t - 1].inverse()
        for j in range(t + 1, n + 1):
            entry = work[t - 1][j - 1]
            if entry.is_zero():
                continue
            xi = -(pivot_inv * entry)
            for r in range(n):
                if not work[r][t - 1].is_zero():
                    work[r][j - 1] = work[r][j - 1] + work[r][t - 1] * xi
            r_inv = r_inv.add_row(t, j, -xi)
    d = [work[i][i] for i in range(n)]
    d_inv = [e.inverse() for e in d]
    v = MatD(alg, [[d_inv[i] * work[i][j] for j in range(n)] for i in range(n)])
    return MatD.diagonal(alg, d), p_inv.conjugate_by_diagonal(d), v, r_inv


def oracle_factor_lower(v):
    """factor_lower_unitriangular's sweep on a list of Quat rows, whose
    row i the loop reads through an alias while apply mutates it."""
    n = v.n
    if v.is_identity():
        return []
    work = [list(row) for row in v.rows]
    ops = []

    def apply(k, xi):
        if xi.is_zero():
            return
        for r in range(n):
            if not work[r][k].is_zero():
                work[r][k - 1] = work[r][k - 1] + work[r][k] * xi
        ops.append((k, xi))

    for i in range(n, 1, -1):
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
    assert MatD(v.alg, work).is_identity()
    return [(k, -xi) for k, xi in reversed(ops)]


def oracle_try_ldu(m):
    """The unpivoted LDU of prescribed_gauss_base on lists of Quat rows."""
    alg, n = m.alg, m.n
    work = [list(row) for row in m.rows]
    v_rows = [list(r) for r in MatD.identity(alg, n).rows]
    for kk in range(n):
        piv = work[kk][kk]
        if piv.is_zero():
            return None
        piv_inv = piv.inverse()
        for r in range(kk + 1, n):
            if work[r][kk].is_zero():
                continue
            f = work[r][kk] * piv_inv
            v_rows[r][kk] = f
            work[r] = [x - f * y for x, y in zip(work[r], work[kk])]
    d = [work[i][i] for i in range(n)]
    d_inv = [e.inverse() for e in d]
    u_m = MatD(alg, [[d_inv[i] * work[i][j] for j in range(n)] for i in range(n)])
    return MatD(alg, v_rows), tuple(d), u_m


def oracle_mat_inv(g):
    """mat_inv with its own pivot rule: the first entry of the column,
    from the pivot row down, with nonzero reduced norm, swapped up."""
    n, alg = g.n, g.alg
    k = alg.consts
    rows = []
    for i, row in enumerate(g.rows):
        work = _int_row(row) + [None] * n
        work[n + i] = _ONE
        rows.append(work)
    for col in range(n):
        cands = [r for r in range(col, n) if rows[r][col] is not None]
        if not cands:
            raise SingularMatrixError("matrix is singular")
        piv = next((r for r in cands if int_nrd(k, *rows[r][col][:4]) != 0), None)
        if piv is None:
            raise zero_divisor_error(alg)
        rows[col], rows[piv] = rows[piv], rows[col]
        _eliminate(alg, rows, col, range(n))
    zero = alg.zero
    return MatD(alg, [[zero if e is None else Quat(alg, *e) for e in row[n:]] for row in rows])


def zero_corner(alg, n, rng):
    """An invertible matrix whose (1, 1) entry is zero."""
    while True:
        x = random_invertible(alg, n, rng, random_quat)
        if not x.entry(2, 1).is_zero():
            return x.add_row(1, 2, -(x.entry(1, 1) * x.entry(2, 1).inverse()))


def oracle_comm(x, y):
    """[x, y] as four products and two inverses, the form comm keeps for
    matrices."""
    return x * y * x.inverse() * y.inverse()


def oracle_product_check(pairs, x) -> bool:
    """Check A, R P Q = X Q P: R is the product of the commutators of
    every pair before the last, each by oracle_comm, and (P, Q) is the
    last pair.  With P and Q invertible it is R [P, Q] = X."""
    *head, (p, q) = pairs
    r = MatD.identity(x.alg, x.n)
    for g, h in head:
        r = r * oracle_comm(g, h)
    return r * p * q == x * q * p


def oracle_conjugate_by_diagonal(m, d):
    """d_i^-1 * x_ij * d_j entry by entry: the inverses of the factors
    other than 1 first, in slot order, then two Quat products for every
    nonzero entry."""
    inv = [None if e.is_one() else e.inverse() for e in d]
    right = [None if e.is_one() else e for e in d]
    rows = []
    for di, row in zip(inv, m.rows):
        out = []
        for dj, q in zip(right, row):
            if not q.is_zero():
                if di is not None:
                    q = di * q
                if dj is not None:
                    q = q * dj
            out.append(q)
        rows.append(out)
    return MatD(m.alg, rows)


def oracle_add_row(m, i, j, xi):
    """t_{i,j}(xi) * m: row i gains xi * row j, each term a Quat product
    and then a Quat sum."""
    if xi.is_zero():
        return m
    rows = [list(r) for r in m.rows]
    row = rows[i - 1]
    for c, q in enumerate(rows[j - 1]):
        if not q.is_zero():
            term, cur = xi * q, row[c]
            row[c] = term if cur.is_zero() else cur + term
    return MatD(m.alg, rows)


def oracle_add_col(m, i, j, xi):
    """m * t_{i,j}(xi): column j gains column i * xi, as oracle_add_row."""
    if xi.is_zero():
        return m
    rows = [list(r) for r in m.rows]
    for row in rows:
        q = row[i - 1]
        if not q.is_zero():
            term, cur = q * xi, row[j - 1]
            row[j - 1] = term if cur.is_zero() else cur + term
    return MatD(m.alg, rows)


def oracle_absorb_V(form, v):
    """The fold as one absorb_lower_transvection per factor."""
    for k, xi in factor_lower_unitriangular(v):
        form = absorb_lower_transvection(form, k, xi)
    return form


# -- conjugate transpose -----------------------------------------------------


class TestStar:
    def test_anti_automorphism_laws(self, any_alg):
        rng = random.Random(1)
        for n in (1, 2, 3, 4):
            x = random_invertible(any_alg, n, rng, random_quat)
            y = random_invertible(any_alg, n, rng, random_quat)
            assert (x * y).star() == y.star() * x.star()
            assert x.star().star() == x
            assert x.inverse().star() == x.star().inverse()

    def test_swaps_the_triangles(self, any_alg):
        rng = random.Random(2)
        lower = random_unitriangular(any_alg, 4, rng, lower=True, span=2)
        assert lower.star().is_upper_unitriangular()
        xi = unit(any_alg, rng)
        t = transvection(any_alg, 4, 3, 2, xi)
        assert t.star() == transvection(any_alg, 4, 2, 3, xi.conj())


# -- the relation-3 matrix rewrite -------------------------------------------


class TestRewriteAdjacent:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("lower", [False, True], ids=["upper", "lower"])
    def test_matches_dense_products(self, any_alg, n, lower):
        rng = random.Random(3 + n + 10 * lower)
        for k in range(1, n):
            i, j = (k + 1, k) if lower else (k, k + 1)
            done = 0
            while done < 6:
                m = random_unitriangular(any_alg, n, rng, lower=lower, span=2)
                m = with_entry(m, i, j, unit(any_alg, rng))
                a, b = m.entry(i, j), random_quat(any_alg, rng, span=2)
                if (any_alg.one + a * b).is_zero():
                    continue
                d, r, b2, m_new = rewrite_adjacent(m, i, j, b)
                assert (r, b2) == rewrite_relation3(a, b)[:2]
                assert d[i - 1] == a * r and d[j - 1] == a.inverse() * r.inverse()
                assert all(e.is_one() for s, e in enumerate(d, 1) if s not in (i, j))
                lhs = m * transvection(any_alg, n, j, i, b)
                rhs = MatD.diagonal(any_alg, d) * transvection(any_alg, n, j, i, b2) * m_new
                assert lhs == rhs
                assert (m_new.is_lower_unitriangular() if lower
                        else m_new.is_upper_unitriangular())
                done += 1


# -- the mirrored v-side move and the corner solve ---------------------------


class TestMirrorsMatchOracles:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_move_v_side(self, any_alg, n):
        rng = random.Random(4 + n)
        for trial in range(12):
            k = rng.randrange(1, n)
            v = random_unitriangular(any_alg, n, rng, lower=True, span=2)
            v = with_entry(v, k + 1, k, unit(any_alg, rng))
            u = random_unitriangular(any_alg, n, rng, lower=False, span=2)
            if trial % 2:
                u = with_entry(u, k, k + 1, any_alg.zero)
            diag = [unit(any_alg, rng) for _ in range(n)]
            xi = unit(any_alg, rng)
            if (any_alg.one - xi * v.entry(k + 1, k)).is_zero():
                continue
            got = _move_v_side(v, diag, u, k, xi)
            assert got == oracle_move_v_side(v, diag, u, k, xi)
            new_v, new_diag, new_u = got
            t = transvection(any_alg, n, k, k + 1, xi)
            x = v * MatD.diagonal(any_alg, diag) * u
            assert new_v * MatD.diagonal(any_alg, new_diag) * new_u == t.inverse() * x * t

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_upper_corner_solve(self, any_alg, n):
        rng = random.Random(5 + n)
        for _ in range(6):
            u = random_unitriangular(any_alg, n, rng, lower=False, span=2)
            c, norms = [], set()
            while len(c) < n:
                q = unit(any_alg, rng)
                if q.nrd() not in norms:
                    c.append(q)
                    norms.add(q.nrd())
            w = u.conjugate_by_diagonal([e.inverse() for e in c])
            assert _solve_corner(w, c) == oracle_solve_corner_upper(u, c)

    def test_lower_corner_solve(self, any_alg):
        rng = random.Random(6)
        v = random_unitriangular(any_alg, 4, rng, lower=True, span=2)
        a = [unit(any_alg, rng).scale(t) for t in (1, 2, 3, 5)]
        x = _solve_corner(v, a)
        assert x.is_lower_unitriangular()
        assert comm(x, MatD.diagonal(any_alg, a)) == v

    def test_corner_solve_checks_its_commutator(self, any_alg):
        """A w in neither triangle has no solution of that shape."""
        rng = random.Random(7)
        w = with_entry(MatD.identity(any_alg, 3), 1, 3, unit(any_alg, rng))
        w = with_entry(w, 3, 1, unit(any_alg, rng))
        a = [unit(any_alg, rng).scale(t) for t in (1, 2, 3)]
        with pytest.raises(InternalInvariantError):
            _solve_corner(w, a)


# -- the fold under one pending diagonal ----------------------------------------


def random_form(alg, n, rng):
    ledger = tuple(HFactor(rng.randrange(1, n), unit(alg, rng)) for _ in range(3))
    return UVUForm(alg, n, HFactorList(alg, n, ledger),
                   random_unitriangular(alg, n, rng, lower=False, span=2),
                   random_unitriangular(alg, n, rng, lower=True, span=2),
                   random_unitriangular(alg, n, rng, lower=False, span=2))


def assert_same_form(got, want):
    assert (got.hfactors, got.u1, got.v, got.u2) == (want.hfactors, want.u1, want.v, want.u2)


def fold_through_case(alg, rng, case):
    """A form and V = t_{2,1}(a) t_{3,2}(b) t_{4,3}(c) at n = 4 whose fold
    takes case 2 at k = 1, so that the pending diagonal is not 1, then
    `case` at k = 2 ("3", "3 eta=0" or "4"), then k = 3."""
    one, n = alg.one, 4
    while True:
        u2 = with_entry(random_unitriangular(alg, n, rng, lower=False, span=2), 1, 2,
                        unit(alg, rng))
        a = unit(alg, rng)
        if (one + u2.entry(1, 2) * a).is_zero():
            continue
        d, _, _, u2_next = rewrite_adjacent(u2, 1, 2, a)
        zeta = u2_next.entry(2, 3)  # u2[2, 3] after the first step
        if zeta.is_zero():
            continue
        b = -zeta.inverse()
        # the first step twists v by d at slots 1 and 2: v[3, 2] becomes v32 d_2
        v32 = {"3 eta=0": alg.zero, "3": unit(alg, rng), "4": b * d[1].inverse()}[case]
        eta = v32 * d[1]
        if case == "3" and (one + eta * zeta).is_zero():
            continue
        form = random_form(alg, n, rng)
        form = UVUForm(alg, n, form.hfactors, form.u1, with_entry(form.v, 3, 2, v32), u2)
        c = unit(alg, rng)
        v = with_entry(with_entry(with_entry(MatD.identity(alg, n), 2, 1, a), 3, 2, b), 4, 3, c)
        assert factor_lower_unitriangular(v) == [(1, a), (2, b), (3, c)]
        first = absorb_lower_transvection(form, 1, a)
        assert len(first.hfactors) == len(form.hfactors) + 2  # case 2
        assert (first.u2.entry(2, 3), first.v.entry(3, 2)) == (zeta, eta)
        assert (one + zeta * b).is_zero()  # so case 3 or 4 at k = 2
        assert (one + eta * zeta).is_zero() == (case == "4")
        return form, v


class TestAbsorbVMatchesOracle:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_random_folds(self, any_alg, n):
        rng = random.Random(8 + n)
        for _ in range(10):
            form = random_form(any_alg, n, rng)
            v = random_unitriangular(any_alg, n, rng, lower=True, span=2)
            assert_same_form(absorb_V(form, v), oracle_absorb_V(form, v))

    @pytest.mark.parametrize("case", ["3", "3 eta=0", "4"])
    def test_case_3_or_4_after_a_pending_twist(self, any_alg, case):
        rng = random.Random(case)
        for _ in range(4):
            form, v = fold_through_case(any_alg, rng, case)
            out = absorb_V(form, v)
            assert_same_form(out, oracle_absorb_V(form, v))
            assert out.evaluate() == form.evaluate() * v


@pytest.mark.parametrize("name", sorted(FACTOR_CASES))
def test_pinned_factor_certificate_passes_the_product_check(name):
    """The certificate behind each pinned factor digest passes check A
    against the instance element, made with the Gauss-Jordan inverse of
    the instance's gamma; with its last pair swapped it fails."""
    mode, seed, n, c, *alg = FACTOR_CASES[name]
    inst = _noncentral_instance(seed, n, c, *alg)
    if mode == "stable":
        n2, p, q = stable_single_commutator(inst)
        pairs, x = ((p, q),), embed_instance(inst, n2).element()
    else:
        cert = {"gl": factor_commutators_gl, "e": factor_commutators_e}[mode](inst)
        pairs, x = cert.pairs, inst.element()
        assert cert.target == x
    assert oracle_product_check(pairs, x)
    *head, (p, q) = pairs
    assert not oracle_product_check((*head, (q, p)), x)


def oracle_peel(slots, one):
    """Split off the final pair of every slot certificate ((1, 1) where
    a slot is exhausted); return (witnesses, remainder), each remainder
    valued by its own product."""
    witnesses, rest = [], []
    for value, cert in slots:
        if len(cert) == 0:
            witnesses.append((one, one))
            rest.append((value, cert))
        else:
            head = cert.pairs[:-1]
            target = product((comm(g, h) for g, h in head), one)
            witnesses.append(cert.pairs[-1])
            rest.append((target, CommutatorCert(head, target)))
    return witnesses, rest


def oracle_layers(slots, one, mode):
    """(witnesses of the last pair, rest values, diagonal layers), the
    layers peeled slot by slot as factor_commutators_gl and _e did."""
    witnesses, rest = oracle_peel(slots, one)
    layers = []
    if mode == "gl":
        left = rest
        while any(len(cert) for _, cert in left):
            peeled, left = oracle_peel(left, one)
            layers.append((_rescale_witnesses([a for a, _ in peeled], "gl"),
                           [b for _, b in peeled]))
        assert all(value.is_one() for value, _ in left)
        layers.reverse()
    else:
        for layer in range(max((len(cert) for _, cert in rest), default=0)):
            col = [cert.pairs[layer] if layer < len(cert) else (one, one)
                   for _, cert in rest[2:]]
            a_col, b_col = [a for a, _ in col], [b for _, b in col]
            layers.append(([product(a_col, one).inverse(), one] + a_col,
                           [one, product(b_col, one).inverse()] + b_col))
    return witnesses, [value for value, _ in rest], layers


PEEL_CASES = (
    [("gl", n, c) for n in (2, 3, 4, 6) for c in sorted({1, n - 1, n, n + 1, 3 * n})]
    + [("e", n, c) for n in (3, 4, 6) for c in sorted({1, n - 2, 3 * (n - 2) + 1})]
)


@pytest.mark.parametrize("params", [(-1, -1), (-1, -3)], ids=str)
@pytest.mark.parametrize("mode, n, c", PEEL_CASES)
def test_layers_match_the_repeated_peel(monkeypatch, params, mode, n, c):
    """The witnesses, rest values and layers that factor reads off the
    slot certificates in one pass are those of the repeated peel.  A c
    below the support leaves slots empty."""
    alg = QuaternionAlgebra(*params)
    seed = 0
    while (inst := make_instance(seed, n, c, alg)[1]).delta.is_one():
        seed += 1
    seen = {}
    for name in ("_gauss_word", "_peel_last_pairs", "_factor_tail"):
        def spy(*args, name=name, real=getattr(certify, name)):
            seen[name] = (args, real(*args))
            return seen[name][1]

        monkeypatch.setattr(certify, name, spy)
    cert = (factor_commutators_gl if mode == "gl" else factor_commutators_e)(inst)
    slots = seen["_gauss_word"][1][3]
    peeled = seen["_peel_last_pairs"][1]
    layers = seen["_factor_tail"][0][3]
    witnesses, values, want = oracle_layers(slots, alg.one, mode)
    assert [last for last, _, _ in peeled] == witnesses
    assert [value for _, _, value in peeled] == values
    assert [tuple(layer) for layer in layers] == [tuple(layer) for layer in want]
    assert len(cert) == len(want) + 1


# -- the eliminations on the transvection kernel ------------------------------


class TestEliminationsMatchOracles:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_decompose_huvu(self, any_alg, n):
        rng = random.Random(8 + n)
        cases = [random_invertible(any_alg, n, rng, random_quat) for _ in range(6)]
        if n >= 2:
            cases += [zero_corner(any_alg, n, rng) for _ in range(3)]
        for g in cases:
            head, form = decompose_huvu(g)
            assert (head, form.u1, form.v, form.u2) == oracle_decompose_huvu(g)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_factor_lower_unitriangular(self, any_alg, n):
        rng = random.Random(9 + n)
        for trial in range(8):
            v = random_unitriangular(any_alg, n, rng, lower=True, span=2)
            if trial % 2:  # rows whose leftmost entry is not subdiagonal
                for i in range(2, n + 1):
                    v = with_entry(v, i, i - 1, any_alg.zero)
            assert factor_lower_unitriangular(v) == oracle_factor_lower(v)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_try_ldu(self, any_alg, n):
        rng = random.Random(10 + n)
        cases = [random_invertible(any_alg, n, rng, random_quat, extra_factors=2 * n)
                 for _ in range(6)] + [zero_corner(any_alg, n, rng)]
        for m in cases:
            assert _try_ldu(m) == oracle_try_ldu(m)
        assert _try_ldu(cases[-1]) is None

    def test_try_ldu_factors(self, any_alg):
        rng = random.Random(11)
        m = random_invertible(any_alg, 4, rng, random_quat, extra_factors=8)
        v, d, u = _try_ldu(m)
        assert v.is_lower_unitriangular() and u.is_upper_unitriangular()
        assert v * MatD.diagonal(any_alg, d) * u == m

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_mat_inv(self, any_alg, n):
        rng = random.Random(12 + n)
        for _ in range(4):
            g = zero_corner(any_alg, n, rng)
            assert mat_inv(g) == oracle_mat_inv(g)

    @pytest.mark.parametrize("seed", range(2))
    def test_mat_inv_over_the_indefinite_algebra(self, seed):
        """Over (3/2, -5/3) the unit-pivot repair and the swap give the
        same inverse or raise the same error class."""
        alg = QuaternionAlgebra(Fraction(3, 2), Fraction(-5, 3))
        for g in matrix_cases(alg, seed):
            got, want = outcome(mat_inv, g), outcome(oracle_mat_inv, g)
            if isinstance(want, MatD):
                assert got == want
            else:
                assert got[0] is want[0]


# -- the integer quaternion commutator ----------------------------------------

COMM_PARAMS = [(-1, -1), (-1, -3), (-2, -5), (Fraction(-1, 2), Fraction(-3, 7))]


def comm_outcome(x, y, fn):
    """The value, or the exception class and message, of fn(x, y)."""
    try:
        return fn(x, y)
    except (AlgebraMismatchError, NotDivisionAlgebraError, ZeroInputError) as exc:
        return type(exc), str(exc)


def tall_quat(alg, rng, bits):
    """A nonzero element whose numerators and denominator have up to
    `bits` bits."""
    def coord():
        return rng.choice((-1, 1)) * rng.getrandbits(bits)

    while True:
        q = Quat(alg, coord(), coord(), coord(), coord(), rng.getrandbits(bits) + 1)
        if not q.is_zero():
            return q


class TestQuaternionCommMatchesOracle:
    @pytest.mark.parametrize("params", COMM_PARAMS, ids=[f"({a},{b})" for a, b in COMM_PARAMS])
    def test_seeded_heights(self, params):
        alg = QuaternionAlgebra(*params)
        rng = random.Random(21)
        for bits in (10, 40, 200, 800, 3000):
            for _ in range(4):
                x, y = tall_quat(alg, rng, bits), tall_quat(alg, rng, rng.choice((10, bits)))
                assert comm(x, y) == oracle_comm(x, y)
                assert comm(y, x) == oracle_comm(y, x)

    def test_zero_and_zero_divisor_operands_over_the_indefinite_algebra(self):
        """Over (3/2, -5/3) a zero or zero-divisor operand in either
        position raises what the four-product form raises, x before y."""
        alg = QuaternionAlgebra(Fraction(3, 2), Fraction(-5, 3))
        z = alg.quat(-1, 3, -3, 1)
        assert not z.is_zero() and z.nrd() == 0
        rng = random.Random(22)
        units = [q for q in (random_quat(alg, rng, nonzero=True) for _ in range(8)) if q.nrd() != 0]
        cases = [alg.zero, z, -z.conj(), *units[:3]]
        for x, y in itertools.product(cases, repeat=2):
            got, want = comm_outcome(x, y, comm), comm_outcome(x, y, oracle_comm)
            assert got == want

    def test_algebra_mismatch_comes_first(self):
        a, b = QuaternionAlgebra(), QuaternionAlgebra(-1, -3)
        for x, y in [(a.zero, b.one), (a.one, b.zero), (a.basis()[1], b.basis()[2])]:
            assert comm_outcome(x, y, comm)[0] is AlgebraMismatchError
            assert comm_outcome(x, y, comm) == comm_outcome(x, y, oracle_comm)


# -- the quaternion codec -----------------------------------------------------


def oracle_rat_to_json(r):
    num = ser._int_to_str(r.numerator)
    return num if r.denominator == 1 else f"{num}/{ser._int_to_str(r.denominator)}"


def oracle_rat_from_json(s):
    m = ser._RAT.fullmatch(s)
    if m is None:
        raise ValueError(f"invalid rational literal {s[:40]!r}")
    sign, num, den = m.groups()
    p = ser._int_from_digits(num)
    return Fraction(-p if sign == "-" else p, ser._int_from_digits(den) if den else 1)


def oracle_quat_to_json(q):
    return [oracle_rat_to_json(c) for c in q.coords()]


def oracle_quat_from_json(data, alg):
    if len(data) != 4:
        raise PreconditionError("quaternion encoding needs four coordinates")
    return alg.quat(*(oracle_rat_from_json(c) for c in data))


# numerators and denominators: zero, one, small, and past _SHORT_BITS,
# where the codec splits an integer's decimal string, up to past the
# interpreter's 4300-digit int <-> str cap
PAST_SHORT = st.builds(lambda bits, low: (1 << bits) + low,
                       st.integers(ser._SHORT_BITS + 1, ser._SHORT_BITS + 6000),
                       st.integers(0, 1 << 64))
MAGNITUDES = st.one_of(st.just(0), st.just(1), st.integers(0, 1 << 80), PAST_SHORT)
NUMERATORS = st.builds(lambda sign, m: sign * m, st.sampled_from((1, -1)), MAGNITUDES)
DENOMINATORS = st.one_of(st.just(1), st.integers(1, 1 << 80), PAST_SHORT)


@st.composite
def raw_quats(draw):
    alg = draw(st.sampled_from(ALGEBRAS))
    nums = [draw(st.one_of(st.just(0), NUMERATORS)) for _ in range(4)]
    return Quat(alg, *nums, draw(DENOMINATORS))


@st.composite
def coordinate_literals(draw):
    """A coordinate as a writer may spell it: "+" or "-" on zero,
    leading zeros, and numerator and denominator sharing a factor."""
    k = draw(st.integers(1, 60))
    sign = draw(st.sampled_from(("", "+", "-")))
    zeros = "0" * draw(st.integers(0, 2))
    num = sign + zeros + ser._int_to_str(draw(MAGNITUDES) * k)
    if draw(st.booleans()):
        return num
    return f"{num}/{zeros}{ser._int_to_str(draw(DENOMINATORS) * k)}"


class TestQuaternionCodecMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(q=raw_quats())
    def test_encoding_is_byte_identical_and_decodes_back(self, q):
        data = ser.quat_to_json(q)
        assert data == oracle_quat_to_json(q)
        assert json.dumps(data) == json.dumps(oracle_quat_to_json(q))
        assert ser.quat_from_json(data, q.alg) == oracle_quat_from_json(data, q.alg) == q

    @settings(max_examples=60, deadline=None)
    @given(alg=st.sampled_from(ALGEBRAS), data=st.lists(coordinate_literals(), min_size=4, max_size=4))
    def test_input_not_in_lowest_terms_decodes_as_the_oracle(self, alg, data):
        got, want = ser.quat_from_json(data, alg), oracle_quat_from_json(data, alg)
        assert (got.wn, got.xn, got.yn, got.zn, got.den) == (want.wn, want.xn, want.yn, want.zn, want.den)
        assert ser.quat_to_json(got) == oracle_quat_to_json(want)

    @pytest.mark.parametrize("den", [1, 3, 10**4400 + 1], ids=["1", "3", "10^4400+1"])
    def test_past_the_int_str_cap(self, alg, den):
        q = Quat(alg, -(10**5000), 10**4400 + 9, 0, 1, den)
        data = ser.quat_to_json(q)
        assert data == oracle_quat_to_json(q)
        assert ser.quat_from_json(data, alg) == q

    @pytest.mark.parametrize("coords", [
        ["2/4", "-0", "+3", "0/7"], ["0", "0", "0", "0"], ["-5", "7", "0", "-1"],
        ["-1/3", "2/9", "0/5", "+00/1"],
    ])
    def test_named_cases(self, alg, coords):
        assert ser.quat_from_json(coords, alg) == oracle_quat_from_json(coords, alg)

    # the exception class each of these raised before stays the same
    MALFORMED = [" 1", "1_0", "1.5", "1e3", "", "1/", "/2", "1/-2",
                 "\uff11\uff12", "\u0661/\u0662", 7, None, ["1"], "1/0", "0/0"]

    @pytest.mark.parametrize("text", MALFORMED, ids=repr)
    def test_malformed_coordinates_raise_as_before(self, alg, text):
        def raised(fn, *args):
            with pytest.raises(Exception) as exc:
                fn(*args)
            return exc.type

        want = raised(oracle_rat_from_json, text)
        assert want in (ValueError, TypeError, ZeroDivisionError)
        assert raised(ser._rat_parts, text) is want
        assert raised(ser.rat_from_json, text) is want
        coords = ["0", "1", text, "2"]
        assert raised(ser.quat_from_json, coords, alg) is raised(oracle_quat_from_json, coords, alg)
