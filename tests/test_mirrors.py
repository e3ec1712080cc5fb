"""The pieces that are written once and mirrored: the relation-3 matrix
rewrite, the conjugate transpose, the v-side move (the u-side move seen
through the conjugate transpose) and the corner solve (the upper one
reduced to the lower one's equation).  The v-side move and the upper
corner solve as they were written out by hand are kept here as oracles.
"""

import random
from fractions import Fraction

import pytest

from commcert import MatD, QuaternionAlgebra, random_quat, solve_twisted, transvection
from commcert.certify import _move_v_side, _solve_corner, random_unitriangular
from commcert.errors import InternalInvariantError
from commcert.matrix import random_invertible
from commcert.normalform import rewrite_adjacent, rewrite_relation3
from commcert.wordcalc import comm

PARAMS = [(-1, -1), (-1, -3), (Fraction(-1, 2), Fraction(-3, 7))]


@pytest.fixture(params=[QuaternionAlgebra(a, b) for a, b in PARAMS],
                ids=[f"({a},{b})" for a, b in PARAMS])
def any_alg(request):
    return request.param


def unit(alg, rng):
    return random_quat(alg, rng, span=2, nonzero=True)


def with_entry(m, i, j, q):
    rows = [list(r) for r in m.rows]
    rows[i - 1][j - 1] = q
    return MatD(m.alg, rows)


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
