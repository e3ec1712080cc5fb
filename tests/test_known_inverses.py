"""Inverses that constructions store on their matrices.

A stored inverse must pass g * g^-1 = I before it is kept, must equal
the Gauss-Jordan inverse (mat_inv is the oracle here), and must never
let a corrupted witness through the pipelines' own checks.
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
def conjugations(monkeypatch):
    """Record (core cert, conjugated cert) for every conjugation of a
    matrix certificate."""
    seen = []
    real = CommutatorCert.conjugated

    def spy(self, c):
        out = real(self, c)
        if isinstance(c, MatD):
            seen.append((self, out))
        return out

    monkeypatch.setattr(CommutatorCert, "conjugated", spy)
    return seen


@pytest.mark.parametrize("factor", [factor_commutators_gl, factor_commutators_e])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_carried_inverses_match_mat_inv(conjugations, factor, seed):
    _, inst = make_instance(seed, 6, 8)
    cert = factor(inst)
    (core, conj), = conjugations
    assert conj.pairs == cert.pairs
    assert len(core) == len(cert) == 2
    for certificate in (core, cert):
        for pair in certificate.pairs:
            for g in pair:
                assert g.known_inverse is not None
                assert g.known_inverse == mat_inv(g)


def test_decoded_certificate_carries_no_inverse():
    _, inst = make_instance(3, 4, 5)
    cert = factor_commutators_gl(inst)
    decoded = ser.cert_from_json(ser.cert_to_json(cert), inst.alg)
    assert decoded == cert
    assert all(g.known_inverse is None for pair in decoded.pairs for g in pair)
    assert decoded.verify()


@pytest.mark.parametrize("stale", [False, True], ids=["fresh", "stale-inverse"])
@pytest.mark.parametrize("which", [0, 1], ids=["P", "Q"])
def test_corrupted_witness_is_caught(monkeypatch, which, stale):
    """One entry of P or Q shifted by 1 after single_commutator, either
    as a new matrix or keeping the inverse of the true witness."""
    real = certify.single_commutator

    def corrupt(*args, **kwargs):
        pair = list(real(*args, **kwargs))
        bad = _shift_entry(pair[which], 0, 1)
        if stale:
            bad.known_inverse = pair[which].known_inverse
        pair[which] = bad
        return tuple(pair)

    monkeypatch.setattr(certify, "single_commutator", corrupt)
    _, inst = make_instance(4, 5, 5)
    with pytest.raises((InternalInvariantError, VerificationError)):
        factor_commutators_gl(inst)
