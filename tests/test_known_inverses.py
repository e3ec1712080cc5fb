"""The inverses the upward pipeline keeps, of the instance's gamma and
of the corner factor v', and the inverse-free check of the certificate
it emits, link by link through the last pair's frame.

_factor_head makes the conjugator gamma and c = gamma^-1 from the
instance's gamma, its inverse and the transvection word of
prescribed_gauss, checks c * gamma = I by one product and hands the
pair (c, gamma) on.  _commutator_frame checks V v' = I for the matrix V
it uses as v'^-1, and the shapes of v' and u'.  Every pair that factor
emits before the last is a diagonal layer (a, b), emitted as
(c^-1 diag(a) c, c^-1 diag(b) c).  _check_emitted checks, in both
modes, each such witness G as c G = diag(a) c, the last pair (P, Q) as
c P = R_P and c Q = R_Q against its frame, and the instance element X
as c X = Y c with Y = diag(r) v~ diag(eps) u.  No emitted witness is
inverted, and a corrupted witness, layer or corner inverse must never
get through.  In e mode the class of each witness is read from the same
links and from the reduced norm of its diagonal, with no determinant.
"""

import pytest

from commcert import (
    InternalInvariantError,
    MatD,
    VerificationError,
    balanced_partition,
    factor_commutators_e,
    factor_commutators_gl,
    make_instance,
    prescribed_gauss,
    stable_single_commutator,
)
from commcert import certify, matrix
from commcert import serialize as ser
from commcert.matrix import mat_inv
from commcert.wordcalc import CommutatorCert


def _shift_entry(m: MatD, i: int, j: int) -> MatD:
    rows = [list(r) for r in m.rows]
    rows[i][j] = rows[i][j] + m.alg.one
    return MatD(m.alg, rows)


def _spy(monkeypatch, name):
    """The argument tuples of every call to certify.<name> from now on."""
    calls = []
    real = getattr(certify, name)

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(certify, name, spy)
    return calls


def test_wrong_inverse_is_refused(monkeypatch):
    """A wrong inst.gamma^-1, where _factor_head makes it, fails
    c * gamma = I, before any witness is built."""
    _, inst = make_instance(4, *FACTOR["gl"][1:])

    def wrong(g):
        return _shift_entry(mat_inv(g), 1, 2) if g is inst.gamma else mat_inv(g)

    monkeypatch.setattr(certify, "mat_inv", wrong)
    built = _spy(monkeypatch, "_commutator_frame")
    with pytest.raises(InternalInvariantError, match="the conjugator fails c \\* gamma = I"):
        factor_commutators_gl(inst)
    assert built == []


def test_true_inverse_is_kept(monkeypatch):
    """The checked pair (c, gamma) reaches the pair builder as it is, and
    its c the final check, in both modes: gamma is the conjugator that
    prescribed_gauss returns, and c its Gauss-Jordan inverse."""
    for factor, n, c in FACTOR.values():
        _, inst = make_instance(4, n, c)
        built = _spy(monkeypatch, "_commutator_frame")
        checked = _spy(monkeypatch, "_check_emitted")
        factor(inst)
        (((_, kwargs),), ((args, _),)) = built, checked
        c_mat, gamma = kwargs["c"]
        assert args[0] is c_mat
        support = n if factor is factor_commutators_gl else n - 2
        assert gamma == prescribed_gauss(inst, balanced_partition(inst.c, n, support))[0]
        assert c_mat == mat_inv(gamma)
        monkeypatch.undo()


@pytest.fixture
def final_checks(monkeypatch):
    """Record every matrix check: the arguments of each _check_emitted
    call and each matrix certificate that check() multiplies out."""
    seen = {"emitted": [], "check": []}
    real_emitted = certify._check_emitted
    real_check = CommutatorCert.check

    def emitted(c, layers, pairs, element, *frame):
        seen["emitted"].append((c, layers, pairs, element))
        return real_emitted(c, layers, pairs, element, *frame)

    def check(self):
        if isinstance(self.target, MatD):
            seen["check"].append(self)
        return real_check(self)

    monkeypatch.setattr(certify, "_check_emitted", emitted)
    monkeypatch.setattr(CommutatorCert, "check", check)
    return seen


@pytest.mark.parametrize("factor", [factor_commutators_gl, factor_commutators_e])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_carried_inverses_match_mat_inv(final_checks, factor, seed):
    """The pipeline's one matrix check is _check_emitted against the
    instance element X.  Each pair before the last is its diagonal
    layer conjugated by c, so c^-1 diag(a^-1) c, the inverse the layer
    implies, is the Gauss-Jordan inverse of the witness."""
    g, inst = make_instance(seed, 6, 8)
    cert = factor(inst)
    assert final_checks["check"] == []
    ((c, layers, pairs, element),) = final_checks["emitted"]
    c_inv = mat_inv(c)
    assert pairs == cert.pairs and element == g and cert.target == g
    assert len(cert) == 2 and len(layers) == 1
    for layer, pair in zip(layers, cert.pairs):
        for d, w in zip(layer, pair):
            assert w == c_inv * MatD.diagonal(w.alg, d) * c
            assert c_inv * MatD.diagonal(w.alg, [e.inverse() for e in d]) * c == mat_inv(w)


@pytest.mark.parametrize("factor", [factor_commutators_gl, factor_commutators_e])
def test_inversions_do_not_grow_with_pairs(monkeypatch, factor):
    """No emitted witness is inverted.  A factor call inverts the
    instance's gamma once and the corner factor v' once, whether it
    emits 2 or 4 pairs: the conjugator and its inverse are made from
    inst.gamma^-1 and inst.gamma by the transvection word."""
    calls = []
    real = matrix.mat_inv

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(matrix, "mat_inv", counted)
    monkeypatch.setattr(certify, "mat_inv", counted)
    counts = []
    for c in (5, 13) if factor is factor_commutators_gl else (3, 7):
        _, inst = make_instance(1, 4, c)
        del calls[:]
        cert = factor(inst)
        counts.append((len(cert), len(calls)))
    assert [pairs for pairs, _ in counts] == [2, 4]
    assert counts[0][1] == counts[1][1] == 2


def test_stable_factor_inverts_the_padded_gamma_and_v_prime(monkeypatch):
    """The embedding is checked as core2 perm = perm pad(core), with no
    inverse, so a stable factor call inverts the padded gamma once, in
    _factor_head, and the corner factor v' once."""
    calls = []
    real = matrix.mat_inv

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(matrix, "mat_inv", counted)
    monkeypatch.setattr(certify, "mat_inv", counted)
    _, inst = make_instance(1, 3, 5)
    n2, _, _ = stable_single_commutator(inst)
    padded, v_prime = calls
    assert padded == certify.embed_instance(inst, n2).gamma
    assert v_prime.n == n2 and v_prime.is_lower_unitriangular()


def test_decoded_certificate_carries_no_inverse():
    _, inst = make_instance(3, 4, 5)
    cert = factor_commutators_gl(inst)
    decoded = ser.cert_from_json(ser.cert_to_json(cert), inst.alg)
    assert decoded == cert
    assert MatD.__slots__ == ("alg", "n", "rows")
    assert decoded.verify()


FACTOR = {
    # two diagonal layers, then (P, Q), in both modes
    "gl": (factor_commutators_gl, 3, 7),
    "e": (factor_commutators_e, 4, 5),
}


def _bump(layers, index: int, which: int, alg):
    """The layers with one added to slot n of one layer's diagonal."""
    layers = [list(layer) for layer in layers]
    d = layers[index][which]
    layers[index][which] = list(d[:-1]) + [d[-1] + alg.one]
    return [tuple(layer) for layer in layers]


def _transvect(pair, which: int):
    """The pair with one witness right-multiplied by t_{n-1,n}(1)."""
    pair = list(pair)
    g = pair[which]
    pair[which] = g.add_col(g.n - 1, g.n, g.alg.one)
    return tuple(pair)


@pytest.mark.parametrize("stale", [False, True], ids=["fresh", "stale-inverse"])
@pytest.mark.parametrize("which", [0, 1], ids=["P", "Q"])
@pytest.mark.parametrize("index", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("stage", ["core", "conjugated"])
@pytest.mark.parametrize("mode", sorted(FACTOR))
def test_corrupted_witness_is_caught(monkeypatch, mode, stage, index, which, stale):
    """One emitted witness is corrupted.  The last pair has no layer: its
    witness is right-multiplied by the transvection t_{n-1,n}(1), which
    keeps its class in E(n, D); c P = R_P (or c Q = R_Q) sees it.  A
    diagonal witness is corrupted either fresh, through its layer (slot
    n gains one and the witness is built from the new layer, so only
    c X = Y c can see it), or stale, by the same transvection, keeping
    the true witness's layer, which implied its inverse.  Slot n carries
    the longest certificate, so neither change commutes with the
    partner witness.

    Stage "core" corrupts a layer or the last pair as the builders hand
    them to _factor_tail; no diagonal witness is built yet, so there a
    layer is the only description of its witness and stale is fresh.
    Stage "conjugated" corrupts the layers and pairs that _factor_tail
    hands to its check, _check_emitted."""
    factor, n, c = FACTOR[mode]
    if stage == "core":
        real_tail = certify._factor_tail

        def tail(inst, element, c, layers, frame, *rest):
            if index < len(layers):
                layers = _bump(layers, index, which, inst.alg)
            else:
                frame = _transvect(frame[:2], which) + frame[2:]
            return real_tail(inst, element, c, layers, frame, *rest)

        monkeypatch.setattr(certify, "_factor_tail", tail)
    else:
        real_emitted = certify._check_emitted

        def emitted(c, layers, pairs, element, *frame):
            pairs = list(pairs)
            if index < len(layers) and not stale:
                layers = _bump(layers, index, which, element.alg)
                pairs[index] = tuple(mat_inv(c) * MatD.diagonal(element.alg, d) * c
                                     for d in layers[index])
            else:
                pairs[index] = _transvect(pairs[index], which)
            return real_emitted(c, layers, tuple(pairs), element, *frame)

        monkeypatch.setattr(certify, "_check_emitted", emitted)
    _, inst = make_instance(4, n, c)
    if index == 2:
        caught = "the last pair fails c P = R_P" if which == 0 else "c Q = R_Q"
    elif stage == "conjugated" and stale:
        caught = "an emitted witness is not its diagonal layer"
    else:
        caught = "emitted pairs do not multiply out to the instance element"
    with pytest.raises(VerificationError, match=caught):
        factor(inst)


def test_scaled_diagonal_witness_is_refused(monkeypatch):
    """2 is central, so [2G, H] = [G, H] and the certificate still
    multiplies out to X, but 2G is not its layer c^-1 diag(a) c."""
    real_emitted = certify._check_emitted

    def emitted(c, layers, pairs, element, *frame):
        (g, h), *rest = pairs
        scaled = MatD(g.alg, [[e.scale(2) for e in row] for row in g.rows])
        return real_emitted(c, layers, ((scaled, h), *rest), element, *frame)

    monkeypatch.setattr(certify, "_check_emitted", emitted)
    _, inst = make_instance(4, *FACTOR["gl"][1:])
    with pytest.raises(VerificationError, match="an emitted witness is not its diagonal layer"):
        factor_commutators_gl(inst)


def test_corner_inverse_off_shape_is_refused(monkeypatch):
    """A v'^-1 that is not lower unitriangular fails V v' = I, and that
    product is the only one after the corner inverse is made."""
    _, inst = make_instance(4, *FACTOR["gl"][1:])
    handed_back = []

    def off_shape(g):
        if g is inst.gamma:
            return mat_inv(g)
        bad = _shift_entry(mat_inv(g), 0, g.n - 1)
        handed_back.append(bad)
        return bad

    real_mul = MatD.__mul__
    after = []

    def mul(self, other):
        if handed_back:
            after.append((self, other))
        return real_mul(self, other)

    monkeypatch.setattr(certify, "mat_inv", off_shape)
    monkeypatch.setattr(MatD, "__mul__", mul)
    with pytest.raises(InternalInvariantError, match="fails V v' = I"):
        factor_commutators_gl(inst)
    assert len(handed_back) == 1
    assert after == [(handed_back[0], after[0][1])]


@pytest.mark.parametrize("which", ["v'", "u'"])
def test_corner_factor_off_shape_is_refused(monkeypatch, which):
    """A corner factor with an entry in the wrong triangle, handed on
    after its corner solve's own check; V is made from it, so only the
    shape check refuses it, before V is made."""
    real = certify._solve_corner
    solved = []

    def off_shape(w, a):
        x = real(w, a)
        solved.append(x)
        if len(solved) == (1 if which == "v'" else 2):  # v' is solved first
            return _shift_entry(x, *((0, x.n - 1) if which == "v'" else (x.n - 1, 0)))
        return x

    monkeypatch.setattr(certify, "_solve_corner", off_shape)
    inverted = _spy(monkeypatch, "mat_inv")
    _, inst = make_instance(4, *FACTOR["gl"][1:])
    with pytest.raises(InternalInvariantError, match="lost its unitriangular shape"):
        factor_commutators_gl(inst)
    assert len(solved) == 2 and len(inverted) == 1  # inst.gamma only


def test_wrong_lower_corner_inverse_is_caught(monkeypatch):
    """A v'^-1 that keeps its lower unitriangular shape but has one
    subdiagonal entry off by 1 still makes P and Q invertible; V v' = I
    refuses it before the pair is built, in both modes."""
    for factor, n, c in FACTOR.values():
        _, inst = make_instance(4, n, c)
        built = _spy(monkeypatch, "_check_emitted")

        def wrong(g):
            return mat_inv(g) if g is inst.gamma else _shift_entry(mat_inv(g), g.n - 1, 0)

        monkeypatch.setattr(certify, "mat_inv", wrong)
        with pytest.raises(InternalInvariantError, match="fails V v' = I"):
            factor(inst)
        assert built == []
        monkeypatch.undo()


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


def _scaled(m: MatD) -> MatD:
    return MatD(m.alg, [[e.scale(2) for e in row] for row in m.rows])


def _edit_frame(monkeypatch, edit):
    """Pass the (P, Q, R_P, R_Q, a, b) that the pair builder returns
    through edit."""
    real = certify._commutator_frame
    monkeypatch.setattr(certify, "_commutator_frame", lambda *a, **k: edit(*real(*a, **k)))


def test_scaled_witness_leaves_elementary_group(monkeypatch):
    """2 is central, so [2P, Q] = [P, Q] and the certificate multiplies
    out to X, but nrd det(2P) = 2^(2n) puts 2P outside E(n, D): c (2P)
    is not R_P."""
    _edit_frame(monkeypatch, lambda p, *rest: (_scaled(p), *rest))
    _, inst = make_instance(4, *FACTOR["e"][1:])
    with pytest.raises(VerificationError, match="the last pair fails c P = R_P"):
        factor_commutators_e(inst)


def test_scaled_second_witness_leaves_elementary_group(monkeypatch):
    """[P, 2Q] = [P, Q] as well; c (2Q) is not R_Q."""
    _edit_frame(monkeypatch, lambda p, q, *rest: (p, _scaled(q), *rest))
    _, inst = make_instance(4, *FACTOR["e"][1:])
    with pytest.raises(VerificationError, match="the last pair fails c Q = R_Q"):
        factor_commutators_e(inst)


@pytest.mark.parametrize("which", ["P", "Q"])
def test_consistently_scaled_last_pair_is_refused(monkeypatch, which):
    """One witness of the last pair, its frame matrix and its diagonal
    scaled by 2 together: c P = R_P (or c Q = R_Q) still holds and the
    commutator is unchanged, but nrd of the diagonal is 2^(2n)."""
    def edit(p, q, r_p, r_q, a, b):
        if which == "P":
            return _scaled(p), q, _scaled(r_p), r_q, [e.scale(2) for e in a], b
        return p, _scaled(q), r_p, _scaled(r_q), a, [e.scale(2) for e in b]

    _edit_frame(monkeypatch, edit)
    _, inst = make_instance(4, *FACTOR["e"][1:])
    with pytest.raises(InternalInvariantError, match="nrd of its diagonal"):
        factor_commutators_e(inst)


def test_consistently_scaled_layer_is_refused(monkeypatch):
    """A diagonal layer's a scaled by 2: its witness c^-1 diag(2a) c
    passes c G = diag(2a) c and [2G, H] = [G, H], but nrd(prod 2a) is
    2^(2n)."""
    real = certify._elementary_layers

    def scaled(rest, one):
        (a, b), *more = real(rest, one)
        return [([e.scale(2) for e in a], b), *more]

    monkeypatch.setattr(certify, "_elementary_layers", scaled)
    _, inst = make_instance(4, *FACTOR["e"][1:])
    with pytest.raises(InternalInvariantError, match="nrd of a layer"):
        factor_commutators_e(inst)


def test_elementary_factor_runs_no_determinant(monkeypatch):
    """e mode reads every witness's class from its frame and its
    diagonal, so factor_commutators_e and the stable padding run no
    Dieudonne determinant."""
    calls = []
    real = matrix.dieudonne_det

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(matrix, "dieudonne_det", counted)
    for seed in range(3):
        _, inst = make_instance(seed, 5, 9)
        assert len(factor_commutators_e(inst)) == 3
        stable_single_commutator(make_instance(seed, 3, 4)[1])
    assert calls == []
