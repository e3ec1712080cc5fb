from fractions import Fraction

import pytest

from commcert import (
    MatD,
    PreconditionError,
    SingularMatrixError,
    commutator,
    dieudonne_det,
    h_elem,
    is_central_in_E,
    is_elementary,
    mat_inv,
    random_quat,
    transvection,
    verify_relation,
)

from commcert.normalform import rewrite_relation3

from conftest import mat_comm, rand_invertible, rand_unit


class TestTransvection:
    def test_zero_argument_is_identity(self, alg):
        assert transvection(alg, 3, 1, 2, alg.zero).is_identity()

    def test_additivity(self, alg, rng):
        # relation (1): t(xi) t(zeta) = t(xi + zeta)
        for _ in range(20):
            xi, zeta = random_quat(alg, rng), random_quat(alg, rng)
            lhs = transvection(alg, 3, 1, 2, xi) * transvection(alg, 3, 1, 2, zeta)
            assert lhs == transvection(alg, 3, 1, 2, xi + zeta)

    def test_inverse(self, alg, rng):
        xi = random_quat(alg, rng)
        t = transvection(alg, 4, 2, 4, xi)
        assert mat_inv(t) == transvection(alg, 4, 2, 4, -xi)

    def test_equal_indices_rejected(self, alg):
        with pytest.raises(PreconditionError):
            transvection(alg, 3, 2, 2, alg.one)


def _with_zero_line(m, index, row):
    rows = [list(r) for r in m.rows]
    for c in range(m.n):
        if row:
            rows[index][c] = m.alg.zero
        else:
            rows[c][index] = m.alg.zero
    return MatD(m.alg, rows)


class TestTransvectionKernel:
    """add_row, add_col and conj_t against dense products."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_dense_products(self, alg, rng, n):
        base = rand_invertible(alg, n, rng)
        mats = [base, _with_zero_line(base, n - 1, True), _with_zero_line(base, 0, False)]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                for xi in (alg.zero, rand_unit(alg, rng)):
                    t = transvection(alg, n, i, j, xi)
                    t_inv = transvection(alg, n, i, j, -xi)
                    for m in mats:
                        assert m.add_row(i, j, xi) == t * m
                        assert m.add_col(i, j, xi) == m * t
                        assert m.conj_t(i, j, xi) == t_inv * m * t

    def test_zero_argument_returns_same_matrix(self, alg, rng):
        m = rand_invertible(alg, 3, rng)
        assert m.add_row(1, 2, alg.zero) is m
        assert m.add_col(3, 1, alg.zero) is m

    @pytest.mark.parametrize("i, j", [(2, 2), (0, 1), (1, 4)])
    def test_bad_index_pairs_rejected(self, alg, i, j):
        m = MatD.identity(alg, 3)
        with pytest.raises(PreconditionError):
            m.add_row(i, j, alg.one)
        with pytest.raises(PreconditionError):
            m.add_col(i, j, alg.one)

    @pytest.mark.parametrize("i, j", [(1, 2), (2, 1), (1, 3), (3, 2)])
    def test_relation3_helper_matches_dense_identity(self, alg, rng, i, j):
        n = 3
        done = 0
        while done < 15:
            xi, zeta = random_quat(alg, rng), rand_unit(alg, rng)
            if (alg.one + zeta * xi).is_zero():
                continue
            r, xi2, zeta2 = rewrite_relation3(zeta, xi)
            lhs = transvection(alg, n, i, j, zeta) * transvection(alg, n, j, i, xi)
            rhs = (
                h_elem(alg, n, i, j, zeta)
                * h_elem(alg, n, i, j, r)
                * transvection(alg, n, j, i, xi2)
                * transvection(alg, n, i, j, zeta2)
            )
            assert lhs == rhs
            done += 1


class TestHElem:
    def test_unit_argument(self, alg):
        assert h_elem(alg, 3, 1, 2, alg.one).is_identity()

    def test_inverse_pair(self, alg, rng):
        eps = rand_unit(alg, rng)
        assert (h_elem(alg, 3, 1, 2, eps) * h_elem(alg, 3, 1, 2, eps.inverse())).is_identity()

    def test_explicit_n2(self, alg):
        two = alg.scalar(2)
        expected = MatD.diagonal(alg, [two, alg.scalar(Fraction(1, 2))])
        assert h_elem(alg, 2, 1, 2, two) == expected

    def test_zero_rejected(self, alg):
        from commcert import ZeroInputError

        with pytest.raises(ZeroInputError):
            h_elem(alg, 2, 1, 2, alg.zero)


class TestInverse:
    def test_identity(self, alg):
        e = MatD.identity(alg, 3)
        assert mat_inv(e) == e

    def test_random_products(self, alg, rng):
        for n in (2, 3, 4):
            for _ in range(25):
                g = rand_invertible(alg, n, rng)
                gi = mat_inv(g)
                assert g * gi == MatD.identity(alg, n)
                assert gi * g == MatD.identity(alg, n)

    def test_singular_raises(self, alg):
        rows = [[alg.one, alg.one], [alg.one, alg.one]]
        with pytest.raises(SingularMatrixError):
            mat_inv(MatD(alg, rows))


class TestDieudonneDet:
    def test_transvection_trivial(self, alg, rng):
        for n in (2, 3, 4):
            xi = rand_unit(alg, rng)
            assert dieudonne_det(transvection(alg, n, 1, n, xi)).invariant == 1

    def test_diagonal_gives_ordered_product(self, alg, rng):
        for n in (2, 3):
            entries = [rand_unit(alg, rng) for _ in range(n)]
            rep = alg.one
            for e in entries:
                rep = rep * e
            cls = dieudonne_det(MatD.diagonal(alg, entries))
            assert cls.representative == rep
            assert cls.invariant == rep.nrd()

    def test_multiplicative_on_invariants(self, alg, rng):
        for _ in range(40):
            g = rand_invertible(alg, 3, rng)
            h = rand_invertible(alg, 3, rng)
            assert (
                dieudonne_det(g * h).invariant
                == dieudonne_det(g).invariant * dieudonne_det(h).invariant
            )

    def test_class_equality_is_by_invariant(self, alg):
        one, i, j, k = alg.basis()
        # [i, j] = -1 and 1 have equal nrd, so their classes agree
        assert dieudonne_det(MatD.diagonal(alg, [one, commutator(i, j)])) == dieudonne_det(
            MatD.identity(alg, 2)
        )


class TestElementaryMembership:
    def test_identity(self, alg):
        assert is_elementary(MatD.identity(alg, 3))

    def test_commutator_tail(self, alg, rng):
        a, b = rand_unit(alg, rng), rand_unit(alg, rng)
        tau = commutator(a, b)
        g = MatD.diagonal(alg, [alg.one, alg.one, tau])
        assert is_elementary(g)

    def test_scalar_two_tail_fails(self, alg):
        g = MatD.diagonal(alg, [alg.one, alg.one, alg.scalar(2)])
        assert not is_elementary(g)  # nrd = 4 != 1

    def test_stable_under_transvections(self, alg, rng):
        g = MatD.diagonal(alg, [alg.one, alg.scalar(3)])
        t = transvection(alg, 2, 2, 1, rand_unit(alg, rng))
        assert is_elementary(g) == is_elementary(t * g) == is_elementary(g * t)


class TestCentrality:
    def test_identity_is_central(self, alg):
        assert is_central_in_E(MatD.identity(alg, 4))

    def test_transvection_not_central(self, alg):
        assert not is_central_in_E(transvection(alg, 3, 1, 2, alg.one))

    def test_scalar_i_not_central(self, alg):
        one, i, j, k = alg.basis()
        # the entry fails to commute with j, so this scalar matrix is not central
        assert not is_central_in_E(MatD.diagonal(alg, [i, i, i]))

    def test_rational_scalar_central(self, alg):
        c = alg.scalar(Fraction(-3, 2))
        assert is_central_in_E(MatD.diagonal(alg, [c, c, c]))


class TestRelations:
    def test_relation2_commuting_case(self, alg, rng):
        # j != p, i != q: both sides are the identity commutator
        for _ in range(20):
            xi, zeta = random_quat(alg, rng), random_quat(alg, rng)
            assert verify_relation(2, alg, 4, i=1, j=2, p=3, q=4, xi=xi, zeta=zeta)

    def test_relation2_chain_case_all_indices_n3(self, alg, rng):
        # convention check: [t_{i,j}(xi), t_{j,q}(zeta)] = t_{i,q}(xi zeta)
        # exhaustively over index choices at n = 3
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                for q in (1, 2, 3):
                    if len({i, j, q}) != 3:
                        continue
                    xi, zeta = rand_unit(alg, rng), rand_unit(alg, rng)
                    assert verify_relation(2, alg, 3, i=i, j=j, p=j, q=q, xi=xi, zeta=zeta)
                    lhs = mat_comm(
                        transvection(alg, 3, i, j, xi), transvection(alg, 3, j, q, zeta)
                    )
                    assert lhs == transvection(alg, 3, i, q, xi * zeta)

    def test_relation3_unit_example(self, alg):
        # n = 2, zeta = xi = 1: both sides equal [[2, 1], [1, 1]]
        one = alg.one
        assert verify_relation(3, alg, 2, i=1, j=2, xi=one, zeta=one)
        lhs = transvection(alg, 2, 1, 2, one) * transvection(alg, 2, 2, 1, one)
        two = alg.scalar(2)
        assert lhs == MatD(alg, [[two, one], [one, one]])

    def test_relation3_random(self, alg, rng):
        done = 0
        while done < 30:
            xi, zeta = random_quat(alg, rng), rand_unit(alg, rng)
            if (alg.one + zeta * xi).is_zero():
                continue
            assert verify_relation(3, alg, 3, i=2, j=3, xi=xi, zeta=zeta)
            done += 1

    def test_relation3_precondition(self, alg):
        with pytest.raises(PreconditionError):
            verify_relation(3, alg, 2, i=1, j=2, xi=alg.one, zeta=alg.zero)

    def test_relation4_random(self, alg, rng):
        for _ in range(30):
            xi = rand_unit(alg, rng)
            assert verify_relation(4, alg, 3, i=1, j=3, xi=xi)

    def test_relation_suite_all_sizes(self, alg, rng):
        one = alg.one
        for n in (2, 3, 4):
            pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
            for _ in range(40):
                i, j = pairs[rng.randrange(len(pairs))]
                xi, zeta = random_quat(alg, rng), random_quat(alg, rng)
                assert verify_relation(1, alg, n, i=i, j=j, xi=xi, zeta=zeta)
                if not zeta.is_zero() and not (one + zeta * xi).is_zero():
                    assert verify_relation(3, alg, n, i=i, j=j, xi=xi, zeta=zeta)
                if not xi.is_zero():
                    assert verify_relation(4, alg, n, i=i, j=j, xi=xi)
