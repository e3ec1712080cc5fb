import pytest

from commcert import (
    CommutatorCert,
    Letter,
    MatD,
    PreconditionError,
    VerificationError,
    Word,
    cert_inverse_product,
    commutator,
    move_letter_end,
    move_letter_front,
    transfer_cert,
)
from commcert.wordcalc import _move_pair, comm, group_identity, product

from conftest import rand_invertible, rand_unit


def quat_word(vals, role="a"):
    return Word(tuple(Letter(role, i + 1, v) for i, v in enumerate(vals)))


def identity_product_list(alg, rng, k, matrices=False, n=3):
    """k elements multiplying to the identity."""
    if matrices:
        elems = [rand_invertible(alg, n, rng) for _ in range(k - 1)]
        total = MatD.identity(alg, n)
        for m in elems:
            total = total * m
        elems.append(total.inverse())
    else:
        elems = [rand_unit(alg, rng) for _ in range(k - 1)]
        total = alg.one
        for q in elems:
            total = total * q
        elems.append(total.inverse())
    return elems


class TestCertVerify:
    def test_empty_identity(self, alg):
        assert CommutatorCert((), alg.one).verify()

    def test_single_pair(self, alg, rng):
        x, y = rand_unit(alg, rng), rand_unit(alg, rng)
        assert CommutatorCert(((x, y),), commutator(x, y)).verify()

    def test_wrong_target_fails(self, alg, rng):
        x, y = alg.basis()[1], alg.basis()[2]
        assert not commutator(x, y).is_one()
        assert not CommutatorCert(((x, y),), alg.one).verify()

    def test_conjugation_preserves_validity_and_length(self, alg, rng):
        pairs = tuple((rand_unit(alg, rng), rand_unit(alg, rng)) for _ in range(3))
        target = alg.one
        for g, h in pairs:
            target = target * commutator(g, h)
        cert = CommutatorCert(pairs, target)
        conj = cert.conjugated(rand_unit(alg, rng))
        assert conj.verify() and len(conj) == len(cert)

    def test_inverse_preserves_validity(self, alg, rng):
        pairs = tuple((rand_unit(alg, rng), rand_unit(alg, rng)) for _ in range(3))
        target = alg.one
        for g, h in pairs:
            target = target * commutator(g, h)
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
        assert [l.value for l in moved.letters] == [x, u]
        assert moved.evaluate() * comm(*pair) == w.evaluate()

    def test_front_five_letters(self, alg, rng):
        for _ in range(25):
            w = quat_word([rand_unit(alg, rng) for _ in range(5)])
            idx = rng.randrange(5)
            moved, pair = move_letter_front(w, idx)
            assert moved.evaluate() * comm(*pair) == w.evaluate()

    def test_end_moves(self, alg, rng):
        for _ in range(25):
            w = quat_word([rand_unit(alg, rng) for _ in range(5)])
            idx = rng.randrange(5)
            moved, pair = move_letter_end(w, idx)
            assert moved.evaluate() * comm(*pair) == w.evaluate()
            assert moved.letters[-1] == w.letters[idx]


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


def make_interleaved_word(alg, rng, p, q, matrices=False, n=3):
    """Identity word with a-letters (inverses, ascending) and b-letters,
    plus a valid certificate for the a product."""
    ident = MatD.identity(alg, n) if matrices else alg.one

    def unit():
        return rand_invertible(alg, n, rng) if matrices else rand_unit(alg, rng)

    if p > 0:
        g, h = unit(), unit()
        c = comm(g, h)
        avals = [unit() for _ in range(p - 1)]
        pre = ident
        for v in avals:
            pre = pre * v.inverse()
        avals.append((pre.inverse() * c).inverse())
        cert_a = CommutatorCert(((g, h),), c)
    else:
        avals, cert_a = [], CommutatorCert((), ident)
    bvals = [unit() for _ in range(q)]

    letters = [Letter("a", i + 1, avals[i].inverse()) for i in range(p)] + [
        Letter("b", j + 1, bvals[j]) for j in range(q)
    ]
    rng.shuffle(letters)
    positions = [ix for ix, l in enumerate(letters) if l.role == "a"]
    for pos, l in zip(positions, sorted((l for l in letters if l.role == "a"), key=lambda l: l.idx)):
        letters[pos] = l
    bpos = max(ix for ix, l in enumerate(letters) if l.role == "b")
    pre = ident
    for l in letters[:bpos]:
        pre = pre * l.value
    post = ident
    for l in letters[bpos + 1:]:
        post = post * l.value
    letters[bpos] = Letter("b", letters[bpos].idx, pre.inverse() * post.inverse())
    return Word(tuple(letters)), cert_a


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

    def test_nonidentity_word_rejected(self, alg, rng):
        letters = (Letter("b", 1, alg.scalar(2)),)
        with pytest.raises(PreconditionError):
            transfer_cert(Word(letters), CommutatorCert((), alg.one))


def reference_inverse_product(elements):
    """The O(k^2) construction: every end-move goes through
    move_letter_end on an explicit word."""
    k = len(elements)
    word = Word(tuple(Letter("a", i + 1, a) for i, a in enumerate(elements)))
    pairs = []
    for step in range(1, k - 1):
        pos = next(p for p, l in enumerate(word.letters) if l.idx == k - step)
        word, pair = move_letter_end(word, pos)
        pairs.append(pair)
    rotated = CommutatorCert(tuple((h, g) for g, h in pairs), word.evaluate())
    return rotated.conjugated(elements[0]).inverse()


def reference_transfer(w, cert_a):
    """The O(k^2) construction: every front move goes through
    move_letter_front on an explicit word."""
    letters = w.letters
    e = group_identity(letters[0].value)
    r = next(p for p, l in enumerate(letters) if l.role == "b" and l.idx == 1)
    prefix_a = product((l.value for l in letters[:r] if l.role == "a"), e)
    word = Word(letters[r:] + letters[:r])
    q = sum(1 for l in letters if l.role == "b")
    pairs = []
    for bidx in range(2, q + 1):
        pos = next(p for p, l in enumerate(word.letters) if l.role == "b" and l.idx == bidx)
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
        orders = set()
        for _ in range(10):
            w, cert_a = make_interleaved_word(alg, rng, p, q)
            orders.add(tuple(l.idx for l in w.letters if l.role == "b"))
            assert transfer_cert(w, cert_a).pairs == reference_transfer(w, cert_a)
        # the shuffle puts b letters out of index order, which the
        # cached loop handles by rebuilding its products
        assert any(list(o) != sorted(o) for o in orders)

    def test_transfer_quats_in_order(self, alg, rng):
        for _ in range(10):
            w, cert_a = make_interleaved_word(alg, rng, 3, 5)
            # relabel the b letters by position; the word keeps its value
            nb = iter(range(1, 6))
            ordered = Word(
                tuple(Letter("b", next(nb), l.value) if l.role == "b" else l for l in w.letters)
            )
            assert transfer_cert(ordered, cert_a).pairs == reference_transfer(ordered, cert_a)

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
