from fractions import Fraction

import pytest

from commcert import (
    BasedInstance,
    CommutatorCert,
    MatD,
    PreconditionError,
    balanced_partition,
    commutator,
    dstar_length_bound,
    embed_instance,
    factor_commutators_e,
    factor_commutators_gl,
    is_central_in_E,
    is_elementary,
    kappa_p,
    lower_extract,
    make_instance,
    prescribed_gauss,
    prescribed_gauss_base,
    s_of,
    scalar_cert_from_hfactors,
    single_commutator,
    single_commutator_necessary_bound,
    stable_single_commutator,
    transvection,
    width_ratio_lower_bound,
    width_upper_bounds,
)
from commcert.budget import HFactor, HFactorList
from commcert.certify import _ceil_div, _pad_matrix
from commcert.quaternion import random_quat

from conftest import mat_comm, rand_lower, rand_unit, rand_upper


def quat_cert(alg, rng, c):
    pairs = tuple((rand_unit(alg, rng), rand_unit(alg, rng)) for _ in range(c))
    target = alg.one
    for a, b in pairs:
        target = target * commutator(a, b)
    return CommutatorCert(pairs, target)


def based_diag_instance(alg, rng, n, c):
    """Instance with v = u = gamma = identity: element is the based
    diagonal itself."""
    cert = quat_cert(alg, rng, c)
    return BasedInstance(
        alg, n, MatD.identity(alg, n), MatD.identity(alg, n), cert.target, cert
    )


class TestBoundFormulas:
    def test_scalar_length_bound_values(self):
        assert dstar_length_bound(2, 1) == 11
        assert dstar_length_bound(4, 1) == 63

    def test_scalar_bound_dominates_s_kappa(self):
        # the definitions give exactly one less than the closed form
        for n in range(2, 7):
            for d in range(1, 6):
                assert s_of(kappa_p(d, n)) <= dstar_length_bound(n, d)
                assert s_of(kappa_p(d, n)) == dstar_length_bound(n, d) - 1

    def test_width_ratio(self):
        assert width_ratio_lower_bound(2, 11) == 1
        assert width_ratio_lower_bound(2, 1) == Fraction(2, 7)
        with pytest.raises(PreconditionError):
            width_ratio_lower_bound(2, 0)

    def test_upper_bounds(self):
        assert width_upper_bounds(3, 1) == (1, 1)
        assert width_upper_bounds(2, 5) == (3, None)
        assert width_upper_bounds(4, 4) == (1, 2)

    def test_single_commutator_necessary(self):
        assert single_commutator_necessary_bound(3) == 54 - 30 + 7 == 31
        # equals the d = 1 scalar bound
        for n in range(2, 8):
            assert single_commutator_necessary_bound(n) == dstar_length_bound(n, 1)


class TestScalarCertExtraction:
    def test_empty_list(self, alg):
        cert = scalar_cert_from_hfactors(HFactorList(alg, 3), alg.one)
        assert len(cert) == 0

    def test_three_factor_commutator_n2(self, alg, rng):
        # h(xi) h(zeta) h(zeta^-1 xi^-1) evaluates to diag(1, tau)
        xi, zeta = rand_unit(alg, rng), rand_unit(alg, rng)
        hf = HFactorList(
            alg,
            2,
            (HFactor(1, xi), HFactor(1, zeta), HFactor(1, zeta.inverse() * xi.inverse())),
        )
        tau = hf.diagonal()[1]
        assert tau == commutator(xi.inverse(), zeta.inverse())
        cert = scalar_cert_from_hfactors(hf, tau)
        assert cert.verify()
        assert len(cert) <= s_of((3,)) == 1

    def test_random_n3_conditioned(self, alg, rng):
        for _ in range(25):
            facs = [
                HFactor(rng.randrange(1, 3), rand_unit(alg, rng))
                for _ in range(rng.randrange(0, 8))
            ]
            hf = HFactorList(alg, 3, tuple(facs))
            d = hf.diagonal()
            if not d[0].is_one():
                facs.append(HFactor(1, d[0].inverse()))
            hf = HFactorList(alg, 3, tuple(facs))
            d = hf.diagonal()
            if not d[1].is_one():
                facs.append(HFactor(2, d[1].inverse()))
            hf = HFactorList(alg, 3, tuple(facs))
            d = hf.diagonal()
            cert = scalar_cert_from_hfactors(hf, d[2])
            assert cert.verify()
            assert len(cert) <= s_of(hf.kappa())

    def test_vanishing_index_truncates(self, alg, rng):
        # factors only at index 2 of n = 3: index 1 never occurs
        xi = rand_unit(alg, rng)
        hf = HFactorList(alg, 3, (HFactor(2, xi), HFactor(2, xi.inverse())))
        assert hf.diagonal()[2].is_one()
        cert = scalar_cert_from_hfactors(hf, alg.one)
        assert cert.verify()


class TestLowerExtract:
    def test_trivial_identity_pair(self, alg):
        e = MatD.identity(alg, 3)
        cert = lower_extract([(e, e)], alg.one)
        assert len(cert) == 0

    def test_diagonal_commutator_d1(self, alg, rng):
        for n in (2, 3, 4):
            a, b = rand_unit(alg, rng), rand_unit(alg, rng)
            tau = commutator(a, b)
            x = MatD.diagonal(alg, [alg.one] * (n - 1) + [a])
            y = MatD.diagonal(alg, [alg.one] * (n - 1) + [b])
            cert = lower_extract([(x, y)], tau)
            assert cert.verify()
            assert len(cert) <= s_of(kappa_p(1, n)) <= dstar_length_bound(n, 1)

    def test_wrong_shape_rejected(self, alg, rng):
        x = transvection(alg, 3, 1, 2, alg.one)
        y = transvection(alg, 3, 2, 1, alg.one)
        with pytest.raises(PreconditionError):
            lower_extract([(x, y)], alg.one)


class TestPrescribedGaussBase:
    def test_already_decomposed_gives_identity_gamma(self, alg, rng):
        n = 3
        a, b = rand_unit(alg, rng), rand_unit(alg, rng)
        delta = commutator(a, b)
        v = rand_lower(alg, n, rng)
        u = rand_upper(alg, n, rng)
        g = v * MatD.diagonal(alg, [alg.one, alg.one, delta]) * u
        gamma, v2, d2, u2 = prescribed_gauss_base(g)
        assert gamma.is_identity()
        assert (v2, u2) == (v, u) and d2 == delta

    def test_transvection_product_n2(self, alg):
        g = transvection(alg, 2, 1, 2, alg.one) * transvection(alg, 2, 2, 1, alg.one)
        gamma, v, delta, u = prescribed_gauss_base(g)
        h = MatD.diagonal(alg, [alg.one, delta])
        assert gamma.inverse() * g * gamma == v * h * u
        from commcert import dieudonne_det

        assert delta.nrd() == dieudonne_det(g).invariant

    @pytest.mark.parametrize("n", [2, 3])
    def test_seeded_random_elementary(self, alg, rng, n):
        done = 0
        while done < 50:
            g = MatD.identity(alg, n)
            for _ in range(2 * n + 1):
                i, j = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
                if i != j:
                    g = g * transvection(alg, n, i, j, random_quat(alg, rng, span=1))
            if is_central_in_E(g):
                continue
            gamma, v, delta, u = prescribed_gauss_base(g, seed=done)
            h = MatD.diagonal(alg, [alg.one] * (n - 1) + [delta])
            assert gamma.inverse() * g * gamma == v * h * u
            done += 1

    def test_central_rejected(self, alg):
        with pytest.raises(PreconditionError):
            prescribed_gauss_base(MatD.identity(alg, 3))

    def test_nonelementary_rejected(self, alg):
        g = MatD.diagonal(alg, [alg.one, alg.scalar(2)])
        with pytest.raises(PreconditionError):
            prescribed_gauss_base(g)


class TestPrescribedGauss:
    def test_trivial_delta(self, alg, rng):
        n = 3
        inst = BasedInstance(
            alg,
            n,
            rand_lower(alg, n, rng),
            rand_upper(alg, n, rng),
            alg.one,
            CommutatorCert((), alg.one),
        )
        gamma, v, u, slots = prescribed_gauss(inst, (0, 0, 0))
        assert all(val.is_one() and len(cert) == 0 for val, cert in slots)

    def test_concentrated_partition_is_noop(self, alg, rng):
        n = 4
        c = 3
        inst = based_diag_instance(alg, rng, n, c)
        v0, u0 = rand_lower(alg, n, rng), rand_upper(alg, n, rng)
        inst = BasedInstance(alg, n, v0, u0, inst.delta, inst.delta_cert)
        gamma, v, u, slots = prescribed_gauss(inst, (0, 0, 0, c))
        assert gamma.is_identity() and v == v0 and u == u0
        assert slots[-1][0] == inst.delta

    def test_split_partition_n3(self, alg, rng):
        # delta = [a,b][c,d] split as (0, 1, 1)
        n = 3
        cert = quat_cert(alg, rng, 2)
        inst = BasedInstance(
            alg, n, rand_lower(alg, n, rng), rand_upper(alg, n, rng), cert.target, cert
        )
        gamma, v, u, slots = prescribed_gauss(inst, (0, 1, 1))
        for (val, slot_cert), budget in zip(slots, (0, 1, 1)):
            assert len(slot_cert) <= budget
            assert slot_cert.verify() and slot_cert.target == val
        d = [val for val, _ in slots]
        assert gamma.inverse() * inst.element() * gamma == v * MatD.diagonal(alg, d) * u

    @pytest.mark.parametrize("n,c", [(2, 3), (3, 5), (4, 7)])
    def test_balanced_partitions(self, alg, rng, n, c):
        for seed in range(4):
            g, inst = make_instance(1000 * n + c + seed, n, c)
            part = balanced_partition(c, n)
            gamma, v, u, slots = prescribed_gauss(inst, part)
            d = [val for val, _ in slots]
            assert gamma.inverse() * g * gamma == v * MatD.diagonal(alg, d) * u
            for (val, cert), budget in zip(slots, part):
                assert cert.verify() and cert.target == val and len(cert) <= budget

    def test_budget_infeasible(self, alg, rng):
        inst = based_diag_instance(alg, rng, 3, 4)
        with pytest.raises(PreconditionError):
            prescribed_gauss(inst, (1, 1, 1))

    def test_det_class_preserved(self, alg, rng):
        from commcert import dieudonne_det

        g, inst = make_instance(77, 3, 4)
        gamma, v, u, slots = prescribed_gauss(inst, balanced_partition(4, 3))
        d = [val for val, _ in slots]
        out = v * MatD.diagonal(alg, d) * u
        assert dieudonne_det(out).invariant == dieudonne_det(g).invariant


class TestSingleCommutator:
    def test_trivial_witnesses(self, alg):
        n = 3
        e = MatD.identity(alg, n)
        p, q = single_commutator(e, e, [(alg.one, alg.one)] * n, mode="gl")
        assert mat_comm(p, q).is_identity()
        assert p.is_diagonal() and q.is_diagonal()

    @pytest.mark.parametrize("n", [2, 3])
    def test_random_gl(self, alg, rng, n):
        for _ in range(10):
            v = rand_lower(alg, n, rng)
            u = rand_upper(alg, n, rng)
            wit = [(rand_unit(alg, rng), rand_unit(alg, rng)) for _ in range(n)]
            eps = [commutator(a, b) for a, b in wit]
            p, q = single_commutator(v, u, wit, mode="gl")
            assert mat_comm(p, q) == v * MatD.diagonal(alg, eps) * u

    def test_elementary_mode(self, alg, rng):
        n = 3
        for _ in range(8):
            v = rand_lower(alg, n, rng)
            u = rand_upper(alg, n, rng)
            wit = [(alg.one, alg.one), (alg.one, alg.one)] + [
                (rand_unit(alg, rng), rand_unit(alg, rng)) for _ in range(n - 2)
            ]
            eps = [commutator(a, b) for a, b in wit]
            p, q = single_commutator(v, u, wit, mode="e")
            assert mat_comm(p, q) == v * MatD.diagonal(alg, eps) * u
            assert is_elementary(p) and is_elementary(q)

    def test_e_mode_needs_trivial_heads(self, alg, rng):
        n = 3
        wit = [(alg.basis()[1], alg.basis()[2])] * n
        with pytest.raises(PreconditionError):
            single_commutator(
                MatD.identity(alg, n), MatD.identity(alg, n), wit, mode="e"
            )


class TestFactorCommutatorsGL:
    def test_c_equals_1_single_pair(self, alg, rng):
        for n in (2, 3, 4):
            g, inst = make_instance(500 + n, n, 1)
            cert = factor_commutators_gl(inst)
            assert len(cert) == 1 and cert.verify() and cert.target == g

    def test_c_equals_n_single_pair(self, alg, rng):
        for n in (2, 3, 4):
            g, inst = make_instance(600 + n, n, n)
            cert = factor_commutators_gl(inst)
            assert len(cert) == 1 and cert.verify() and cert.target == g

    def test_c_equals_n_plus_1_two_pairs(self, alg, rng):
        for n in (2, 3):
            g, inst = make_instance(700 + n, n, n + 1)
            cert = factor_commutators_gl(inst)
            assert len(cert) == 2 and cert.verify() and cert.target == g

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bound_sweep(self, alg, rng, n):
        for c in range(1, 2 * n + 1):
            g, inst = make_instance(811 * n + c, n, c)
            cert = factor_commutators_gl(inst)
            assert cert.verify() and cert.target == g
            assert len(cert) <= _ceil_div(c, n)

    def test_central_instance_rejected(self, alg):
        inst = BasedInstance(
            alg,
            3,
            MatD.identity(alg, 3),
            MatD.identity(alg, 3),
            alg.one,
            CommutatorCert(((alg.one, alg.one),), alg.one),
        )
        with pytest.raises(PreconditionError):
            factor_commutators_gl(inst)


class TestFactorCommutatorsE:
    def test_c_equals_nminus2_single_pair(self, alg, rng):
        for n in (3, 4):
            g, inst = make_instance(900 + n, n, n - 2)
            cert = factor_commutators_e(inst)
            assert len(cert) == 1 and cert.verify() and cert.target == g
            assert all(is_elementary(a) and is_elementary(b) for a, b in cert.pairs)

    def test_c1_n3_single_pair(self, alg, rng):
        g, inst = make_instance(901, 3, 1)
        cert = factor_commutators_e(inst)
        assert len(cert) == 1

    @pytest.mark.parametrize("n", [3, 4])
    def test_bound_sweep(self, alg, rng, n):
        for c in range(1, 2 * n + 1):
            g, inst = make_instance(733 * n + c, n, c)
            cert = factor_commutators_e(inst)
            assert cert.verify() and cert.target == g
            assert len(cert) <= _ceil_div(c, n - 2)
            assert all(is_elementary(a) and is_elementary(b) for a, b in cert.pairs)

    def test_n2_rejected(self, alg, rng):
        g, inst = make_instance(902, 2, 1)
        with pytest.raises(PreconditionError):
            factor_commutators_e(inst)

    def test_diagonal_pair_reassembly(self, alg, rng):
        # the explicit diagonal pairs used for the h' block rebuild it exactly
        n = 4
        a_col = [rand_unit(alg, rng) for _ in range(n - 2)]
        b_col = [rand_unit(alg, rng) for _ in range(n - 2)]
        prod_a = alg.one
        for q in a_col:
            prod_a = prod_a * q
        prod_b = alg.one
        for q in b_col:
            prod_b = prod_b * q
        h_a = MatD.diagonal(alg, [prod_a.inverse(), alg.one] + a_col)
        h_b = MatD.diagonal(alg, [alg.one, prod_b.inverse()] + b_col)
        expected = MatD.diagonal(
            alg,
            [alg.one, alg.one] + [commutator(x, y) for x, y in zip(a_col, b_col)],
        )
        assert mat_comm(h_a, h_b) == expected
        assert is_elementary(h_a) and is_elementary(h_b)


class TestStable:
    def test_no_padding_needed(self, alg, rng):
        g, inst = make_instance(903, 3, 1)
        n2, p, q = stable_single_commutator(inst)
        assert n2 == 3
        assert mat_comm(p, q) == g
        assert is_elementary(p) and is_elementary(q)

    def test_padding_to_6(self, alg, rng):
        g, inst = make_instance(904, 3, 4)
        n2, p, q = stable_single_commutator(inst)
        assert n2 == 6
        assert mat_comm(p, q) == _pad_matrix(g, 6)
        assert is_elementary(p) and is_elementary(q)

    def test_identity_instance_rejected(self, alg):
        inst = BasedInstance(
            alg,
            3,
            MatD.identity(alg, 3),
            MatD.identity(alg, 3),
            alg.one,
            CommutatorCert((), alg.one),
        )
        with pytest.raises(PreconditionError):
            stable_single_commutator(inst)

    def test_embedding_preserves_element(self, alg, rng):
        g, inst = make_instance(905, 3, 2)
        inst2 = embed_instance(inst, 5)
        assert inst2.element() == _pad_matrix(g, 5)


class TestMakeInstance:
    def test_deterministic(self, alg):
        g1, i1 = make_instance(42, 3, 2)
        g2, i2 = make_instance(42, 3, 2)
        assert g1 == g2 and i1.delta == i2.delta and i1.v == i2.v

    def test_reassembly(self, alg):
        for seed in (0, 1, 2):
            g, inst = make_instance(seed, 3, 2)
            h = MatD.diagonal(alg, [alg.one, alg.one, inst.delta])
            assert inst.gamma.inverse() * (inst.v * h * inst.u) * inst.gamma == g
            assert inst.delta_cert.verify()


class TestRoundTrip:
    @pytest.mark.parametrize("n", [2, 3])
    def test_factor_then_extract(self, alg, rng, n):
        c = n + 1
        inst = based_diag_instance(alg, rng, n, c)
        if inst.delta.is_one():
            pytest.skip("degenerate seed")
        cert = factor_commutators_gl(inst)
        assert cert.verify()
        dcert = lower_extract(list(cert.pairs), inst.delta)
        assert dcert.verify()
        assert dcert.target == inst.delta
        assert len(dcert) <= s_of(kappa_p(len(cert), n))

    def test_conjugation_invariance_of_certificates(self, alg, rng):
        g, inst = make_instance(321, 3, 2)
        cert = factor_commutators_gl(inst)
        from conftest import rand_invertible

        conj = cert.conjugated(rand_invertible(alg, 3, rng))
        assert conj.verify() and len(conj) == len(cert)


class TestOtherAlgebras:
    def test_pipelines_over_minus2_minus3(self):
        from commcert import QuaternionAlgebra

        alg = QuaternionAlgebra(-2, -3)
        g, inst = make_instance(5, 3, 4, alg)
        cert = factor_commutators_gl(inst)
        assert cert.verify() and cert.target == g and len(cert) <= 2
        cert_e = factor_commutators_e(inst)
        assert cert_e.verify()
        assert all(is_elementary(a) and is_elementary(b) for a, b in cert_e.pairs)

    def test_fractional_parameters(self):
        from commcert import QuaternionAlgebra

        alg = QuaternionAlgebra(Fraction(-1, 2), Fraction(-5, 3))
        g, inst = make_instance(6, 2, 3, alg)
        cert = factor_commutators_gl(inst)
        assert cert.verify() and cert.target == g
