import itertools

import pytest

from commcert import (
    InternalInvariantError,
    MatD,
    UVUForm,
    absorb_V,
    absorb_lower_transvection,
    absorb_upper,
    commutator_normal_form,
    decompose_huvu,
    extract_H,
    factor_lower_unitriangular,
    kappa_p,
    lambda_vec,
    random_quat,
    transvection,
)
from commcert.budget import HFactor, HFactorList, vec_leq

from conftest import mat_comm, rand_invertible, rand_lower, rand_unit, rand_upper


def build_form(alg, n, rng, absorptions=3):
    """Random nontrivial form assembled through the public operations."""
    form = UVUForm.identity(alg, n)
    form = absorb_upper(form, rand_upper(alg, n, rng))
    form = absorb_V(form, rand_lower(alg, n, rng))
    for _ in range(absorptions):
        form = absorb_lower_transvection(form, rng.randrange(1, n), random_quat(alg, rng))
        form = absorb_upper(form, rand_upper(alg, n, rng))
    return form


class TestAbsorbLowerTransvection:
    def test_zero_argument_unchanged(self, alg, rng):
        form = build_form(alg, 3, rng)
        assert absorb_lower_transvection(form, 1, alg.zero) is form

    def test_identity_form_goes_to_v(self, alg, rng):
        xi = rand_unit(alg, rng)
        form = absorb_lower_transvection(UVUForm.identity(alg, 2), 1, xi)
        assert len(form.hfactors) == 0
        assert form.v == transvection(alg, 2, 2, 1, xi)
        assert form.u1.is_identity() and form.u2.is_identity()

    def test_unit_entry_case_exact_factors(self, alg):
        # u2 = t_{1,2}(1), xi = 1 costs exactly h(1), h(2) at index 1
        one = alg.one
        e = MatD.identity(alg, 2)
        form = UVUForm(alg, 2, HFactorList(alg, 2), e, e, transvection(alg, 2, 1, 2, one))
        out = absorb_lower_transvection(form, 1, one)
        assert [f.eps for f in out.hfactors.factors] == [one, alg.scalar(2)]
        assert out.evaluate() == form.evaluate() * transvection(alg, 2, 2, 1, one)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_eval_and_budget_random(self, alg, rng, n, trials=40):
        for _ in range(trials):
            form = build_form(alg, n, rng)
            k = rng.randrange(1, n)
            xi = random_quat(alg, rng)
            before = form.evaluate()
            kb = form.hfactors.kappa()
            out = absorb_lower_transvection(form, k, xi)
            assert out.evaluate() == before * transvection(alg, n, k + 1, k, xi)
            growth = tuple(a - b for a, b in zip(out.hfactors.kappa(), kb))
            assert all(g <= (2 if i == k - 1 else 0) for i, g in enumerate(growth))

    def test_braid_case_costs_nothing(self, alg, rng):
        # force zeta * xi = -1 and eta * zeta = -1
        n = 2
        xi = rand_unit(alg, rng)
        zeta = -xi.inverse()
        eta = xi
        e = MatD.identity(alg, n)
        form = UVUForm(
            alg,
            n,
            HFactorList(alg, n),
            e,
            transvection(alg, n, 2, 1, eta),
            transvection(alg, n, 1, 2, zeta),
        )
        out = absorb_lower_transvection(form, 1, xi)
        assert len(out.hfactors) == 0
        assert out.evaluate() == form.evaluate() * transvection(alg, n, 2, 1, xi)


def _with_entry(m, i, j, q):
    rows = [list(r) for r in m.rows]
    rows[i - 1][j - 1] = q
    return MatD(m.alg, rows)


class TestAbsorptionCase3:
    """zeta = u2[k, k+1] a unit and xi = -zeta^-1 make 1 + zeta xi = 0,
    so with 1 + eta zeta != 0 (eta = v[k+1, k]) the absorption has to
    fold u2's t_{k,k+1}(zeta) into the v side first."""

    def _absorb(self, alg, rng, n, eta_zero):
        form = build_form(alg, n, rng)
        k = rng.randrange(1, n)
        zeta = rand_unit(alg, rng)
        eta = alg.zero
        while not eta_zero and (eta.is_zero() or (alg.one + eta * zeta).is_zero()):
            eta = rand_unit(alg, rng)
        form = UVUForm(
            alg,
            n,
            form.hfactors,
            form.u1,
            _with_entry(form.v, k + 1, k, eta),
            _with_entry(form.u2, k, k + 1, zeta),
        )
        xi = -zeta.inverse()
        out = absorb_lower_transvection(form, k, xi)
        assert out.evaluate() == form.evaluate() * transvection(alg, n, k + 1, k, xi)
        growth = tuple(a - b for a, b in zip(out.hfactors.kappa(), form.hfactors.kappa()))
        assert all(g <= (2 if i == k - 1 else 0) for i, g in enumerate(growth))
        assert out.hfactors.factors[: len(form.hfactors)] == form.hfactors.factors
        return out.hfactors.factors[len(form.hfactors) :], k, eta, zeta

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_eta_zero_is_free(self, alg, rng, n, trials=30):
        for _ in range(trials):
            new, _, _, _ = self._absorb(alg, rng, n, eta_zero=True)
            assert new == ()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_eta_unit_costs_two_h_factors(self, alg, rng, n, trials=30):
        for _ in range(trials):
            new, k, eta, zeta = self._absorb(alg, rng, n, eta_zero=False)
            eta_inv = eta.inverse()
            assert new == (HFactor(k, eta_inv), HFactor(k, (eta_inv + zeta).inverse()))


class TestFactorLowerUnitriangular:
    def test_identity(self, alg):
        assert factor_lower_unitriangular(MatD.identity(alg, 4)) == []

    def test_bidiagonal_ascending(self, alg, rng):
        for n in (3, 4, 5):
            sub = [random_quat(alg, rng, nonzero=True) for _ in range(n - 1)]
            rows = [list(r) for r in MatD.identity(alg, n).rows]
            for k, x in enumerate(sub):
                rows[k + 1][k] = x
            v = MatD(alg, rows)
            assert factor_lower_unitriangular(v) == [(k + 1, x) for k, x in enumerate(sub)]

    def test_n3_four_factor_word(self, alg, rng):
        # (2,1) = x, (3,1) = y != 0, (3,2) = z gives the four-factor word
        one, zero = alg.one, alg.zero
        x, y, z = alg.scalar(4), rand_unit(alg, rng), random_quat(alg, rng)
        v = MatD(alg, [[one, zero, zero], [x, one, zero], [y, z, one]])
        facs = factor_lower_unitriangular(v)
        assert facs == [(1, x - one), (2, y), (1, one), (2, z - y)]
        prod = MatD.identity(alg, 3)
        for k, xi in facs:
            prod = prod * transvection(alg, 3, k + 1, k, xi)
        assert prod == v

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_random_reconstruction_and_counts(self, alg, rng, n, trials=60):
        budget = [n - 1] + [2 * (n - k) for k in range(2, n)]
        for _ in range(trials):
            v = rand_lower(alg, n, rng)
            facs = factor_lower_unitriangular(v)
            prod = MatD.identity(alg, n)
            counts = [0] * (n - 1)
            for k, xi in facs:
                prod = prod * transvection(alg, n, k + 1, k, xi)
                counts[k - 1] += 1
            assert prod == v
            assert all(c <= b for c, b in zip(counts, budget))

    def test_exhaustive_small_entries_n3(self, alg):
        one, zero, i = alg.one, alg.zero, alg.basis()[1]
        pool = [zero, one, -one, i]
        budget = [2, 2]
        for a, b, c in itertools.product(pool, repeat=3):
            v = MatD(alg, [[one, zero, zero], [a, one, zero], [b, c, one]])
            facs = factor_lower_unitriangular(v)
            prod = MatD.identity(alg, 3)
            counts = [0, 0]
            for k, xi in facs:
                prod = prod * transvection(alg, 3, k + 1, k, xi)
                counts[k - 1] += 1
            assert prod == v and all(x <= y for x, y in zip(counts, budget))


class TestAbsorbV:
    def test_identity_unchanged(self, alg, rng):
        form = build_form(alg, 3, rng)
        assert absorb_V(form, MatD.identity(alg, 3)) is form

    def test_identity_form_keeps_v(self, alg, rng):
        v = rand_lower(alg, 3, rng)
        out = absorb_V(UVUForm.identity(alg, 3), v)
        assert len(out.hfactors) == 0
        assert out.v == v

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_eval_and_lambda_budget(self, alg, rng, n, trials=25):
        for _ in range(trials):
            form = build_form(alg, n, rng)
            v = rand_lower(alg, n, rng)
            before = form.evaluate()
            kb = form.hfactors.kappa()
            out = absorb_V(form, v)
            assert out.evaluate() == before * v
            growth = tuple(a - b for a, b in zip(out.hfactors.kappa(), kb))
            assert vec_leq(growth, lambda_vec(n))


class TestDecomposeHUVU:
    def test_diagonal_input(self, alg, rng):
        g = MatD.diagonal(alg, [rand_unit(alg, rng) for _ in range(3)])
        head, form = decompose_huvu(g)
        assert head == g
        assert form.u1.is_identity() and form.v.is_identity() and form.u2.is_identity()

    def test_lower_transvection(self, alg, rng):
        xi = rand_unit(alg, rng)
        g = transvection(alg, 3, 2, 1, xi)
        head, form = decompose_huvu(g)
        assert head.is_identity()
        assert form.v == g

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_reconstruction(self, alg, rng, n, trials=60):
        for _ in range(trials):
            g = rand_invertible(alg, n, rng)
            head, form = decompose_huvu(g)
            assert head.is_diagonal()
            assert head * form.u1 * form.v * form.u2 == g


class TestCommutatorNormalForm:
    def test_identity_pair(self, alg):
        e = MatD.identity(alg, 3)
        form = commutator_normal_form([(e, e)])
        assert form.evaluate().is_identity()
        assert len(form.hfactors) == 0

    def test_diagonal_pair(self, alg, rng):
        from commcert import commutator

        a, b = rand_unit(alg, rng), rand_unit(alg, rng)
        x = MatD.diagonal(alg, [a, alg.one, alg.one])
        y = MatD.diagonal(alg, [b, alg.one, alg.one])
        form = commutator_normal_form([(x, y)])
        assert form.evaluate() == MatD.diagonal(alg, [commutator(a, b), alg.one, alg.one])
        assert vec_leq(form.hfactors.kappa(), kappa_p(1, 3))

    @pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
    def test_random_pairs(self, alg, rng, n, p, trials=6):
        for _ in range(trials):
            pairs = [(rand_invertible(alg, n, rng), rand_invertible(alg, n, rng)) for _ in range(p)]
            form = commutator_normal_form(pairs)
            target = MatD.identity(alg, n)
            for x, y in pairs:
                target = target * mat_comm(x, y)
            assert form.evaluate() == target
            assert vec_leq(form.hfactors.kappa(), kappa_p(p, n))


class TestExtractH:
    def test_identity_form(self, alg):
        assert len(extract_H(UVUForm.identity(alg, 3))) == 0

    def test_diagonal_commutator_pairs(self, alg, rng):
        x = MatD.diagonal(alg, [rand_unit(alg, rng) for _ in range(3)])
        y = MatD.diagonal(alg, [rand_unit(alg, rng) for _ in range(3)])
        form = commutator_normal_form([(x, y)])
        hf = extract_H(form)
        assert hf.evaluate() == mat_comm(x, y)

    def test_corrupted_fixture_raises(self, alg):
        e = MatD.identity(alg, 3)
        bad = UVUForm(
            alg, 3, HFactorList(alg, 3), transvection(alg, 3, 1, 2, alg.one), e, e
        )
        with pytest.raises(InternalInvariantError):
            extract_H(bad)
