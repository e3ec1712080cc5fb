"""Inverses that constructions store on their matrices, and the
inverse-free check of the pairs that carry none.

A stored inverse must pass g * g^-1 = I before it is kept, must equal
the Gauss-Jordan inverse (mat_inv is the oracle here), and must never
let a corrupted witness through the pipelines' own checks.  The pairs
that single_commutator builds carry no inverse: the upward pipeline
checks them as R P Q = X Q P, and their invertibility rests on a shape
check that must refuse a corner factor that is not unitriangular.
"""

import pytest

from commcert import (
    InternalInvariantError,
    MatD,
    VerificationError,
    factor_commutators_e,
    factor_commutators_gl,
    make_instance,
)
from commcert import certify
from commcert import serialize as ser
from commcert.matrix import mat_inv
from commcert.wordcalc import CommutatorCert

from conftest import rand_invertible


def _shift_entry(m: MatD, i: int, j: int) -> MatD:
    rows = [list(r) for r in m.rows]
    rows[i][j] = rows[i][j] + m.alg.one
    return MatD(m.alg, rows)


def test_wrong_inverse_is_refused(alg, rng):
    g = rand_invertible(alg, 4, rng)
    wrong = _shift_entry(mat_inv(g), 1, 2)
    with pytest.raises(InternalInvariantError):
        g.with_inverse(wrong)
    assert g.known_inverse is None
    assert g.inverse() == mat_inv(g)


def test_true_inverse_is_kept(alg, rng):
    g = rand_invertible(alg, 4, rng)
    inv = mat_inv(g)
    assert g.with_inverse(inv) is g
    assert g.inverse() is inv


@pytest.fixture
def final_checks(monkeypatch):
    """Record every matrix check: the (pairs, element) of each
    _check_last_pair call and each matrix certificate that check()
    multiplies out."""
    seen = {"last_pair": [], "check": []}
    real_last_pair = certify._check_last_pair
    real_check = CommutatorCert.check

    def last_pair(pairs, element):
        seen["last_pair"].append((pairs, element))
        return real_last_pair(pairs, element)

    def check(self):
        if isinstance(self.target, MatD):
            seen["check"].append(self)
        return real_check(self)

    monkeypatch.setattr(certify, "_check_last_pair", last_pair)
    monkeypatch.setattr(CommutatorCert, "check", check)
    return seen


@pytest.mark.parametrize("factor", [factor_commutators_gl, factor_commutators_e])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_carried_inverses_match_mat_inv(final_checks, factor, seed):
    """The pipeline's one matrix check is R P Q = X Q P against the
    instance element X; e mode's diagonal pairs carry their Gauss-Jordan
    inverses, and the pairs single_commutator builds carry none."""
    g, inst = make_instance(seed, 6, 8)
    cert = factor(inst)
    assert final_checks["check"] == []
    ((pairs, element),) = final_checks["last_pair"]
    assert pairs == cert.pairs and element == g and cert.target == g
    assert len(cert) == 2
    diagonal_pairs = 0 if factor is factor_commutators_gl else len(cert) - 1
    for i, pair in enumerate(cert.pairs):
        for w in pair:
            if i < diagonal_pairs:
                assert w.known_inverse == mat_inv(w)
            else:
                assert w.known_inverse is None


def test_decoded_certificate_carries_no_inverse():
    _, inst = make_instance(3, 4, 5)
    cert = factor_commutators_gl(inst)
    decoded = ser.cert_from_json(ser.cert_to_json(cert), inst.alg)
    assert decoded == cert
    assert all(g.known_inverse is None for pair in decoded.pairs for g in pair)
    assert decoded.verify()


FACTOR = {
    # three rounds of single_commutator
    "gl": (factor_commutators_gl, 3, 7),
    # two diagonal pairs, then (P, Q)
    "e": (factor_commutators_e, 4, 5),
}


def _corrupt(pairs, index: int, which: int, stale: bool):
    """Right-multiply one witness by the transvection t_{n-1,n}(1),
    which keeps its class in E(n, D), so only a product check can see
    it; with `stale` the new matrix keeps the true witness's inverse.
    Slot n carries the longest certificate, so the transvection does
    not commute with the partner witness, even in a last round whose
    other slots are exhausted."""
    pairs = [list(pair) for pair in pairs]
    g = pairs[index][which]
    bad = g.add_col(g.n - 1, g.n, g.alg.one)
    if stale:
        bad.known_inverse = g.known_inverse
    pairs[index][which] = bad
    return tuple(tuple(pair) for pair in pairs)


@pytest.mark.parametrize("stale", [False, True], ids=["fresh", "stale-inverse"])
@pytest.mark.parametrize("which", [0, 1], ids=["P", "Q"])
@pytest.mark.parametrize("index", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("stage", ["core", "conjugated"])
@pytest.mark.parametrize("mode", sorted(FACTOR))
def test_corrupted_witness_is_caught(monkeypatch, mode, stage, index, which, stale):
    """One emitted witness is corrupted, either as a new matrix or
    keeping the inverse of the true witness (the pairs that
    single_commutator builds carry none).  The builders make the
    witnesses already conjugated by gamma^-1: stage "core" corrupts the
    pairs as they hand them to _factor_tail, stage "conjugated" the
    pairs that _factor_tail hands to its final check, _check_last_pair."""
    factor, n, c = FACTOR[mode]
    if stage == "core":
        real_tail = certify._factor_tail

        def tail(inst, element, pairs, support):
            return real_tail(inst, element, _corrupt(pairs, index, which, stale), support)

        monkeypatch.setattr(certify, "_factor_tail", tail)
    else:
        real_last_pair = certify._check_last_pair

        def last_pair(pairs, element):
            return real_last_pair(_corrupt(pairs, index, which, stale), element)

        monkeypatch.setattr(certify, "_check_last_pair", last_pair)
    _, inst = make_instance(4, n, c)
    with pytest.raises((InternalInvariantError, VerificationError)):
        factor(inst)


def test_corner_inverse_off_shape_is_refused(monkeypatch):
    """A v'^-1 that is not lower unitriangular fails the shape check that
    makes P and Q invertible, before single_commutator multiplies
    anything."""
    handed_back = []

    def off_shape(g):
        bad = _shift_entry(mat_inv(g), 0, g.n - 1)
        handed_back.append(bad)
        return bad

    real_mul = MatD.__mul__

    def mul(self, other):
        assert not handed_back, "a product after the shape check failed"
        return real_mul(self, other)

    monkeypatch.setattr(certify, "mat_inv", off_shape)
    monkeypatch.setattr(MatD, "__mul__", mul)
    _, inst = make_instance(4, *FACTOR["gl"][1:])
    with pytest.raises(InternalInvariantError, match="lost its unitriangular shape"):
        factor_commutators_gl(inst)
    assert len(handed_back) == 1


def test_wrong_corner_solve_is_caught(monkeypatch):
    """A twisted solve that is off by 1 makes the corner fail
    out * diag(a) = w * diag(a) * out."""
    real = certify.solve_twisted

    def off_by_one(p, q, r):
        return real(p, q, r) + p.alg.one

    monkeypatch.setattr(certify, "solve_twisted", off_by_one)
    _, inst = make_instance(4, *FACTOR["gl"][1:])
    with pytest.raises(InternalInvariantError, match="corner solve failed"):
        factor_commutators_gl(inst)


def test_scaled_witness_leaves_elementary_group(monkeypatch):
    """2 is central, so [2P, Q] = [P, Q] passes the product check, but
    nrd det(2P) = 2^(2n) puts 2P outside E(n, D)."""
    real = certify.single_commutator

    def scaled(*args, **kwargs):
        p, q = real(*args, **kwargs)
        return MatD(p.alg, [[e.scale(2) for e in row] for row in p.rows]), q

    monkeypatch.setattr(certify, "single_commutator", scaled)
    _, inst = make_instance(4, *FACTOR["e"][1:])
    with pytest.raises(InternalInvariantError, match="a witness left the elementary group"):
        factor_commutators_e(inst)
