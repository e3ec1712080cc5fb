import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commcert import MatD, QuaternionAlgebra, kappa_p, lambda_vec, mu_vec, s_of
from commcert.quaternion import comm
from commcert.budget import (
    HFactor,
    HFactorList,
    h_commutator_factors,
    vec_leq,
)
from commcert import budget
from commcert.errors import InternalInvariantError, PreconditionError, ZeroInputError

from conftest import mat_comm, rand_unit


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


class TestKappaVectors:
    def test_lambda(self):
        assert lambda_vec(4) == (6, 8, 4)
        assert lambda_vec(2) == (2,)
        assert lambda_vec(5) == (8, 12, 8, 4)

    def test_mu(self):
        assert mu_vec(4) == (6, 3, 3)
        assert mu_vec(2) == (6,)

    def test_kappa_1(self):
        # mu + 3 lambda, componentwise
        assert kappa_p(1, 4) == (24, 27, 15)
        for n in range(2, 7):
            assert kappa_p(1, n) == vec_add(mu_vec(n), tuple(3 * x for x in lambda_vec(n)))

    def test_kappa_recurrence(self):
        for n in range(2, 7):
            for p in range(2, 7):
                assert kappa_p(p, n) == vec_add(
                    vec_add(kappa_p(p - 1, n), kappa_p(1, n)), lambda_vec(n)
                )


class TestSOf:
    def test_zero_vector(self):
        assert s_of((0, 0, 0)) == 0

    def test_single_slot(self):
        assert s_of((12,)) == 10

    def test_worked_value(self):
        assert s_of((24, 27, 15)) == 22 + 26 + 14 == 62

    def test_clamping(self):
        assert s_of((1, 0, 1)) == 0
        assert s_of((2, 1, 1)) == 0
        assert s_of((3, 2, 2)) == 3

    @settings(max_examples=80, deadline=None)
    @given(
        base=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=6),
        bump=st.lists(st.integers(min_value=0, max_value=5), min_size=6, max_size=6),
    )
    def test_monotone(self, base, bump):
        bigger = tuple(b + d for b, d in zip(base, bump))
        assert s_of(base) <= s_of(bigger)


class TestKappaOf:
    def test_empty(self, alg):
        assert HFactorList(alg, 3).kappa() == (0, 0)

    def test_counts(self, alg):
        two, three = alg.scalar(2), alg.scalar(3)
        hf = HFactorList(alg, 3, (HFactor(1, two), HFactor(1, three)))
        assert hf.kappa() == (2, 0)

    def test_concat_adds(self, alg, rng):
        f1 = HFactorList(alg, 4, (HFactor(1, rand_unit(alg, rng)), HFactor(3, rand_unit(alg, rng))))
        f2 = HFactorList(alg, 4, (HFactor(2, rand_unit(alg, rng)),))
        joined = f1.concat(f2)
        assert joined.kappa() == vec_add(f1.kappa(), f2.kappa())
        assert joined == HFactorList(alg, 4, f1.factors + f2.factors)

    def test_concat_refuses_other_shapes(self, alg, rng):
        f = HFactorList(alg, 4, (HFactor(1, rand_unit(alg, rng)),))
        for other in (HFactorList(alg, 3), HFactorList(QuaternionAlgebra(-1, -3), 4)):
            with pytest.raises(PreconditionError):
                f.concat(other)

    def test_invalid_factor_raises_at_construction(self, alg, rng):
        eps = rand_unit(alg, rng)
        for index in (0, 4):
            with pytest.raises(PreconditionError):
                HFactorList(alg, 4, (HFactor(index, eps),))
        with pytest.raises(ZeroInputError):
            HFactorList(alg, 4, (HFactor(2, eps), HFactor(1, alg.zero)))

    def test_evaluation_order(self, alg, rng):
        # slot products multiply in list order, which matters over D
        from commcert import h_elem

        facs = [HFactor(1, rand_unit(alg, rng)) for _ in range(3)]
        hf = HFactorList(alg, 2, tuple(facs))
        direct = MatD.identity(alg, 2)
        for f in facs:
            direct = direct * h_elem(alg, 2, 1, 2, f.eps)
        assert hf.evaluate() == direct


class TestHCommutatorFactors:
    def test_identity_second_argument(self, alg, rng):
        h1 = MatD.diagonal(alg, [rand_unit(alg, rng) for _ in range(3)])
        hf = h_commutator_factors(h1, MatD.identity(alg, 3))
        assert len(hf) == 0

    def test_printed_identity_n2(self, alg, rng):
        # diag([xi, zeta], 1) = h(xi) h(zeta) h(xi^-1 zeta^-1)
        xi, zeta = rand_unit(alg, rng), rand_unit(alg, rng)
        h1 = MatD.diagonal(alg, [xi, alg.one])
        h2 = MatD.diagonal(alg, [zeta, alg.one])
        hf = h_commutator_factors(h1, h2)
        assert hf.evaluate() == MatD.diagonal(alg, [comm(xi, zeta), alg.one])
        args = [f.eps for f in hf.factors]
        assert args == [xi, zeta, xi.inverse() * zeta.inverse()]

    def test_random_n3_within_mu(self, alg, rng):
        for _ in range(30):
            h1 = MatD.diagonal(alg, [rand_unit(alg, rng) for _ in range(3)])
            h2 = MatD.diagonal(alg, [rand_unit(alg, rng) for _ in range(3)])
            hf = h_commutator_factors(h1, h2)
            assert vec_leq(hf.kappa(), (6, 3))
            assert hf.evaluate() == mat_comm(h1, h2)

    def test_wrong_slot_factors_are_caught(self, monkeypatch, alg, rng):
        """The slotwise check catches a slot whose factors do not give
        [xi, zeta]: here each slot's first factor is doubled."""
        real = budget._slot_commutator_factors

        def doubled(slot, xi, zeta):
            first, *rest = real(slot, xi, zeta)
            return (HFactor(first.index, first.eps.scale(2)), *rest)

        monkeypatch.setattr(budget, "_slot_commutator_factors", doubled)
        h1 = MatD.diagonal(alg, [rand_unit(alg, rng) for _ in range(3)])
        h2 = MatD.diagonal(alg, [rand_unit(alg, rng) for _ in range(3)])
        with pytest.raises(InternalInvariantError, match="failed evaluation check"):
            h_commutator_factors(h1, h2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_eval_and_budget_random(self, alg, rng, n):
        for _ in range(20):
            h1 = MatD.diagonal(alg, [rand_unit(alg, rng) for _ in range(n)])
            h2 = MatD.diagonal(alg, [rand_unit(alg, rng) for _ in range(n)])
            hf = h_commutator_factors(h1, h2)
            assert hf.evaluate() == mat_comm(h1, h2)
            assert vec_leq(hf.kappa(), mu_vec(n))
