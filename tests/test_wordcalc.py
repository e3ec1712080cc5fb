import dataclasses

import pytest

from commcert import (
    CommutatorCert,
    Letter,
    PreconditionError,
    VerificationError,
    cert_inverse_product,
    move_letter_end,
    move_letter_front,
    transfer_cert,
)
from commcert import wordcalc
from commcert.selftest import identity_product_list, make_interleaved_word
from commcert.serialize import cert_from_json, cert_to_json
from commcert.wordcalc import _move_pair, comm, group_identity, product

from conftest import rand_invertible, rand_unit


def quat_word(vals, role="a"):
    return tuple(Letter(role, v) for v in vals)


def evaluate(letters):
    return product((l.value for l in letters), group_identity(letters[0].value))


class TestCertVerify:
    def test_empty_identity(self, alg):
        assert CommutatorCert((), alg.one).verify()

    def test_single_pair(self, alg, rng):
        x, y = rand_unit(alg, rng), rand_unit(alg, rng)
        assert CommutatorCert(((x, y),), comm(x, y)).verify()

    def test_wrong_target_fails(self, alg, rng):
        x, y = alg.basis()[1], alg.basis()[2]
        assert not comm(x, y).is_one()
        assert not CommutatorCert(((x, y),), alg.one).verify()

    def test_conjugation_preserves_validity_and_length(self, alg, rng):
        pairs = tuple((rand_unit(alg, rng), rand_unit(alg, rng)) for _ in range(3))
        target = alg.one
        for g, h in pairs:
            target = target * comm(g, h)
        cert = CommutatorCert(pairs, target)
        conj = cert.conjugated(rand_unit(alg, rng))
        assert conj.verify() and len(conj) == len(cert)

    def test_inverse_preserves_validity(self, alg, rng):
        pairs = tuple((rand_unit(alg, rng), rand_unit(alg, rng)) for _ in range(3))
        target = alg.one
        for g, h in pairs:
            target = target * comm(g, h)
        inv = CommutatorCert(pairs, target).inverse()
        assert inv.verify() and inv.target == target.inverse()


class TestMoves:
    def test_front_noop(self, alg, rng):
        w = quat_word([rand_unit(alg, rng) for _ in range(3)])
        moved, pair = move_letter_front(w, 0)
        assert moved == w and comm(*pair).is_one()

    def test_front_two_letters(self, alg, rng):
        u, x = rand_unit(alg, rng), rand_unit(alg, rng)
        w = quat_word([u, x])
        moved, pair = move_letter_front(w, 1)
        assert [l.value for l in moved] == [x, u]
        assert evaluate(moved) * comm(*pair) == evaluate(w)

    def test_front_five_letters(self, alg, rng):
        for _ in range(25):
            w = quat_word([rand_unit(alg, rng) for _ in range(5)])
            idx = rng.randrange(5)
            moved, pair = move_letter_front(w, idx)
            assert evaluate(moved) * comm(*pair) == evaluate(w)

    def test_end_moves(self, alg, rng):
        for _ in range(25):
            w = quat_word([rand_unit(alg, rng) for _ in range(5)])
            idx = rng.randrange(5)
            moved, pair = move_letter_end(w, idx)
            assert evaluate(moved) * comm(*pair) == evaluate(w)
            assert moved[-1] == w[idx]


class TestInverseProductCert:
    def test_single_identity_element(self, alg):
        cert = cert_inverse_product([alg.one])
        assert len(cert) == 0 and cert.target.is_one()

    def test_pair_x_xinv(self, alg, rng):
        x = rand_unit(alg, rng)
        cert = cert_inverse_product([x, x.inverse()])
        assert len(cert) == 0 and cert.target.is_one()

    def test_four_random_quaternions(self, alg, rng):
        for _ in range(30):
            elems = identity_product_list(alg, rng, 4)
            cert = cert_inverse_product(elems)
            assert cert.verify() and len(cert) <= 2

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_bound_over_quats(self, alg, rng, k):
        for _ in range(20):
            cert = cert_inverse_product(identity_product_list(alg, rng, k))
            assert cert.verify()
            assert len(cert) <= max(0, k - 2)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_bound_over_matrices(self, alg, rng, k):
        for _ in range(8):
            cert = cert_inverse_product(identity_product_list(alg, rng, k, matrices=True))
            assert cert.verify()
            assert len(cert) <= max(0, k - 2)

    def test_nonidentity_product_rejected(self, alg, rng):
        with pytest.raises(PreconditionError):
            cert_inverse_product([alg.scalar(2)])


class TestTransferCert:
    def test_q1_returns_conjugated_cert(self, alg, rng):
        w, cert_a = make_interleaved_word(alg, rng, p=2, q=1)
        cert_b = transfer_cert(w, cert_a)
        assert cert_b.verify()
        assert len(cert_b) == len(cert_a)

    def test_p0_q3(self, alg, rng):
        for _ in range(20):
            w, cert_a = make_interleaved_word(alg, rng, p=0, q=3)
            cert_b = transfer_cert(w, cert_a)
            assert cert_b.verify() and len(cert_b) <= 2

    def test_p2_q2_random(self, alg, rng):
        for _ in range(20):
            w, cert_a = make_interleaved_word(alg, rng, p=2, q=2)
            cert_b = transfer_cert(w, cert_a)
            assert cert_b.verify()
            assert len(cert_b) <= len(cert_a) + 1

    @pytest.mark.parametrize("p,q", [(0, 1), (1, 2), (3, 3), (2, 4)])
    def test_bounds_quats(self, alg, rng, p, q):
        for _ in range(10):
            w, cert_a = make_interleaved_word(alg, rng, p, q)
            cert_b = transfer_cert(w, cert_a)
            assert cert_b.verify()
            assert len(cert_b) <= len(cert_a) + q - 1

    @pytest.mark.parametrize("p,q", [(1, 2), (2, 2)])
    def test_bounds_matrices(self, alg, rng, p, q):
        for _ in range(5):
            w, cert_a = make_interleaved_word(alg, rng, p, q, matrices=True)
            cert_b = transfer_cert(w, cert_a)
            assert cert_b.verify()
            assert len(cert_b) <= len(cert_a) + q - 1

    def test_wrong_conjugated_target_fails_the_link(self, alg, rng, monkeypatch):
        """transfer_cert does not multiply out its certificates; the link
        target_b * value == a' ties the conjugated certificate to the
        moves.  A conjugation that keeps the pairs but returns a target
        off by a factor i must not pass."""
        w, cert_a = make_interleaved_word(alg, rng, p=2, q=3)
        assert transfer_cert(w, cert_a).verify()
        real = CommutatorCert.conjugated

        def skewed(cert, c):
            out = real(cert, c)
            return CommutatorCert(out.pairs, out.target * alg.basis()[1])

        monkeypatch.setattr(CommutatorCert, "conjugated", skewed)
        with pytest.raises(VerificationError):
            transfer_cert(w, cert_a)

    def test_nonidentity_word_rejected(self, alg, rng):
        letters = (Letter("b", alg.scalar(2)),)
        with pytest.raises(PreconditionError):
            transfer_cert(letters, CommutatorCert((), alg.one))


def reference_inverse_product(elements):
    """The O(k^2) construction: every end-move goes through
    move_letter_end on an explicit word."""
    word = tuple(Letter("a", a) for a in elements)
    pairs = []
    for pos in range(len(elements) - 2, 0, -1):  # a_{pos+1} goes to the end
        word, pair = move_letter_end(word, pos)
        pairs.append(pair)
    rotated = CommutatorCert(tuple((h, g) for g, h in pairs), evaluate(word))
    return rotated.conjugated(elements[0]).inverse()


def reference_transfer(w, cert_a):
    """The O(k^2) construction: every front move goes through
    move_letter_front on an explicit word."""
    r = next(p for p, l in enumerate(w) if l.role == "b")
    prefix_a = product((l.value for l in w[:r]), group_identity(w[0].value))
    word = w[r:] + w[:r]
    pairs = []
    # moving a letter to the front leaves every later letter in place
    for pos in [p for p, l in enumerate(word) if l.role == "b"][1:]:
        word, pair = move_letter_front(word, pos)
        pairs.append(pair)
    return cert_a.conjugated(prefix_a).pairs + tuple(reversed(pairs))


class TestCachedMovesMatchReference:
    @pytest.mark.parametrize("k", [3, 4, 7])
    def test_inverse_product_quats(self, alg, rng, k):
        for _ in range(10):
            elems = identity_product_list(alg, rng, k)
            cert = cert_inverse_product(elems)
            ref = reference_inverse_product(elems)
            assert cert.pairs == ref.pairs and cert.target == ref.target

    def test_inverse_product_matrices(self, alg, rng):
        for k in (3, 5):
            elems = identity_product_list(alg, rng, k, matrices=True)
            assert cert_inverse_product(elems).pairs == reference_inverse_product(elems).pairs

    @pytest.mark.parametrize("p,q", [(0, 3), (2, 4), (3, 6), (5, 8)])
    def test_transfer_quats_shuffled(self, alg, rng, p, q):
        for _ in range(10):
            w, cert_a = make_interleaved_word(alg, rng, p, q)
            assert transfer_cert(w, cert_a).pairs == reference_transfer(w, cert_a)

    @pytest.mark.parametrize("p,q", [(1, 3), (2, 4)])
    def test_transfer_matrices_shuffled(self, alg, rng, p, q):
        for _ in range(3):
            w, cert_a = make_interleaved_word(alg, rng, p, q, matrices=True)
            assert transfer_cert(w, cert_a).pairs == reference_transfer(w, cert_a)


class TestMoveCheck:
    @pytest.mark.parametrize("front", [True, False])
    def test_running_value_passes(self, alg, rng, front):
        u, x, v = (rand_unit(alg, rng) for _ in range(3))
        (g, h), moved = _move_pair(u, x, v, u * x * v, front)
        assert moved * comm(g, h) == u * x * v
        assert moved == (x * u * v if front else u * v * x)

    @pytest.mark.parametrize("front", [True, False])
    def test_wrong_prefix_fails(self, alg, rng, front):
        u, x, v = (rand_unit(alg, rng) for _ in range(3))
        wrong_u = u * alg.basis()[1]
        with pytest.raises(VerificationError):
            _move_pair(wrong_u, x, v, u * x * v, front)

    def test_wrong_running_value_fails(self, alg, rng):
        mats = [rand_invertible(alg, 3, rng) for _ in range(3)]
        u, x, v = mats
        with pytest.raises(VerificationError):
            _move_pair(u, x, v, u * v * x, front=True)


def _cert(alg, rng, k=3):
    pairs = tuple((rand_unit(alg, rng), rand_unit(alg, rng)) for _ in range(k))
    target = alg.one
    for g, h in pairs:
        target = target * comm(g, h)
    return CommutatorCert(pairs, target)


@pytest.fixture
def comm_calls(monkeypatch):
    """Counts the commutators verify() evaluates."""
    calls = []

    def counting(g, h):
        calls.append((g, h))
        return comm(g, h)

    monkeypatch.setattr(wordcalc, "comm", counting)
    return calls


class TestVerifyOnce:
    """One verify() multiplies every pair out once; a certificate
    remembers nothing between calls."""

    def test_every_check_multiplies_out(self, alg, rng, comm_calls):
        cert = _cert(alg, rng)
        assert cert.check() is cert
        assert len(comm_calls) == 3
        assert cert.check() is cert
        assert len(comm_calls) == 6

    def test_failure_is_not_recorded(self, alg, rng, comm_calls):
        good = _cert(alg, rng)
        bad = CommutatorCert(good.pairs, good.target * alg.basis()[1])
        for attempt in range(1, 4):
            assert not bad.verify()
            with pytest.raises(VerificationError):
                bad.check()
            assert len(comm_calls) == 6 * attempt

    def test_new_objects_start_unverified(self, alg, rng, comm_calls):
        cert = _cert(alg, rng).check()
        derived = [
            cert.conjugated(rand_unit(alg, rng)),
            cert.inverse(),
            dataclasses.replace(cert),
            cert_from_json(cert_to_json(cert), alg),
        ]
        for new in derived:
            before = len(comm_calls)
            assert new.verify()
            assert len(comm_calls) - before == len(new)
        # a replaced target is checked, not inherited
        forged = dataclasses.replace(cert, target=alg.basis()[2])
        assert not forged.verify()

    def test_equality_and_hash_ignore_the_flag(self, alg, rng):
        """A check() leaves nothing behind on the object."""
        cert = _cert(alg, rng)
        fresh = CommutatorCert(cert.pairs, cert.target)
        cert.check()
        assert cert == fresh and hash(cert) == hash(fresh)
        assert repr(cert) == repr(fresh)
