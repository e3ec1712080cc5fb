from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commcert import (
    AlgebraMismatchError,
    NotDivisionAlgebraError,
    QuaternionAlgebra,
    ZeroInputError,
    random_quat,
    solve_twisted,
)
from commcert.quaternion import comm
from commcert.errors import SingularTwistedSystemError

from conftest import rand_unit

coord = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)


def quats(algebra):
    return st.builds(lambda w, x, y, z: algebra.quat(w, x, y, z), coord, coord, coord, coord)


HAM = QuaternionAlgebra()
ONE, I, J, K = HAM.basis()


class TestDefiningRelations:
    def test_i_times_j_is_k(self):
        assert I * J == K
        assert J * I == -K

    def test_one_is_neutral(self, rng):
        for _ in range(20):
            q = random_quat(HAM, rng)
            assert ONE * q == q
            assert q * ONE == q

    def test_one_plus_i_times_one_minus_i(self):
        # expanding via the structure constants: 1 - i^2 = 2
        assert (ONE + I) * (ONE - I) == HAM.scalar(2)

    def test_general_parameters(self):
        alg = QuaternionAlgebra(Fraction(-2), Fraction(-3, 5))
        one, i, j, k = alg.basis()
        assert i * i == alg.scalar(-2)
        assert j * j == alg.scalar(Fraction(-3, 5))
        assert i * j == k and j * i == -k
        assert k * k == alg.scalar(Fraction(-6, 5))

    def test_mismatched_algebras_rejected(self):
        other = QuaternionAlgebra(-1, -2)
        with pytest.raises(AlgebraMismatchError):
            I * other.one


class TestInverse:
    def test_one(self):
        assert ONE.inverse() == ONE

    def test_i(self):
        # conj(i)/nrd(i) = -i/1
        assert I.inverse() == -I

    def test_one_plus_i(self):
        # conj/nrd with nrd = 2
        assert (ONE + I).inverse() == (ONE - I).scale(Fraction(1, 2))

    def test_zero_rejected(self):
        with pytest.raises(ZeroInputError):
            HAM.zero.inverse()

    def test_split_parameters_can_fail(self):
        # (1, 1 | Q) is split: 1 + i has nrd = 0
        split = QuaternionAlgebra(1, 1)
        one, i, _, _ = split.basis()
        assert not split.is_definite()
        with pytest.raises(NotDivisionAlgebraError):
            (one + i).inverse()

    def test_two_sided(self, rng):
        for _ in range(50):
            q = rand_unit(HAM, rng)
            assert (q * q.inverse()).is_one()
            assert (q.inverse() * q).is_one()


class TestNormAndTrace:
    def test_nrd_one(self):
        assert ONE.nrd() == 1

    def test_nrd_sum_of_squares(self):
        assert (ONE + I + J + K).nrd() == 4

    def test_trd(self):
        assert (ONE + I + J + K).trd() == 2
        assert I.trd() == 0

    def test_homogeneity(self, rng):
        for _ in range(25):
            q = random_quat(HAM, rng)
            t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            assert q.scale(t).nrd() == t * t * q.nrd()

    @settings(max_examples=60, deadline=None)
    @given(p=quats(HAM), q=quats(HAM))
    def test_nrd_multiplicative(self, p, q):
        assert (p * q).nrd() == p.nrd() * q.nrd()

    @settings(max_examples=60, deadline=None)
    @given(p=quats(HAM), q=quats(HAM))
    def test_conj_anti_automorphism(self, p, q):
        assert (p * q).conj() == q.conj() * p.conj()


class TestCommutator:
    def test_self_commutator(self, rng):
        q = rand_unit(HAM, rng)
        assert comm(q, q).is_one()

    def test_i_j(self):
        # k * (-i)(-j) = k * k = -1
        assert comm(I, J) == -ONE

    def test_nrd_is_one(self, rng):
        for _ in range(50):
            x, y = rand_unit(HAM, rng), rand_unit(HAM, rng)
            assert comm(x, y).nrd() == 1

    def test_zero_rejected(self):
        with pytest.raises(ZeroInputError):
            comm(HAM.zero, ONE)
        with pytest.raises(ZeroInputError):
            comm(ONE, HAM.zero)


class TestTwistedSolve:
    def test_zero_p_gives_r(self, rng):
        r = random_quat(HAM, rng)
        assert solve_twisted(HAM.zero, rand_unit(HAM, rng), r) == r

    def test_zero_r_gives_zero(self, rng):
        for _ in range(10):
            p, q = rand_unit(HAM, rng), rand_unit(HAM, rng)
            if p.nrd() * q.nrd() != 1:
                assert solve_twisted(p, q, HAM.zero).is_zero()

    def test_random_solutions_substitute_back(self, rng):
        done = 0
        while done < 60:
            p, q = rand_unit(HAM, rng), rand_unit(HAM, rng)
            if p.nrd() * q.nrd() == 1:
                continue
            r = random_quat(HAM, rng)
            x = solve_twisted(p, q, r)
            assert x - p * x * q == r
            done += 1

    def test_singular_norm_one_raises(self):
        # x - i x i^-1 = 1 has no solution: the map kills the centre
        with pytest.raises(SingularTwistedSystemError):
            solve_twisted(I, I.inverse(), ONE)


class TestCanonicalForm:
    def test_reduced_representation(self):
        q = HAM.quat(Fraction(2, 4), Fraction(6, 4), 0, 0)
        assert (q.wn, q.xn, q.yn, q.zn, q.den) == (1, 3, 0, 0, 2)

    def test_hashable_and_equal(self):
        assert hash(HAM.quat(Fraction(1, 2))) == hash(HAM.quat(Fraction(2, 4)))
        assert HAM.quat(Fraction(1, 2)) == HAM.quat(Fraction(2, 4))

    def test_is_central(self):
        assert HAM.scalar(Fraction(-7, 3)).is_central()
        assert not (ONE + I).is_central()
