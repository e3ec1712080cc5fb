"""Seeded outputs pinned by the sha256 of their canonical JSON.

A refactor that must keep the certificates byte-identical is checked
here in seconds: factor in gl, e and stable mode, with one and with
three diagonal layers before the last pair in gl and e, stable mode on
delta = 1 with and without padding, lower_extract round
trips at n = 3 and at n = 4 over (-1, -3) (two transfer slots), a
commutator normal form with an HUVU decomposition and every case
of the lower absorption, over (-1, -1) and over (-1/2, -3/7), whose
ad * bd is not 1, a prescribed decomposition that takes the
v-side move, instances over (-1, -3), and the eliminations' pivot
repairs: an HUVU decomposition with a zero (1, 1) entry, the lower
factorization of every small 3 x 3 matrix, and the inverse and
determinant of a padded gamma.  A digest changes only when
an output changes; a change that alters outputs on purpose re-pins the
digests and says why.
"""

import functools
import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from commcert import QuaternionAlgebra, random_quat
from commcert import certify
from commcert import serialize as ser
from commcert.certify import (
    BasedInstance,
    balanced_partition,
    factor_commutators_e,
    factor_commutators_gl,
    lower_extract,
    make_instance,
    prescribed_gauss,
    prescribed_gauss_base,
    random_unitriangular,
)
from commcert.matrix import MatD, dieudonne_det, is_central_in_E, mat_inv, random_invertible
from commcert.budget import HFactorList
from commcert.normalform import (
    UVUForm,
    absorb_lower_transvection,
    commutator_normal_form,
    decompose_huvu,
    factor_lower_unitriangular,
)
from commcert.wordcalc import comm

from conftest import diagonal_round_trip, with_entry


def _noncentral_instance(seed, n, c, alg=None):
    for attempt in range(100):
        _, inst = make_instance(1000 * seed + attempt, n, c, alg)
        if not inst.delta.is_one():
            return inst
    raise AssertionError("no instance with delta != 1")


def _factor(mode, seed, n, c, alg=None):
    inst = _noncentral_instance(seed, n, c, alg)
    if mode == "gl":
        cert = factor_commutators_gl(inst)
    elif mode == "e":
        cert = factor_commutators_e(inst)
    else:
        _, cert = certify._stable_factor(inst)
    return {"algebra": ser.algebra_to_json(inst.alg), "certificate": ser.cert_to_json(cert)}


def _stable_delta_one(n):
    """Stable mode on delta = 1 with an empty certificate, at the first
    seed whose element is noncentral; the pipeline gives delta the
    certificate [1, 1].  The pair is multiplied out here, outside the
    pipeline, against the padded element."""
    g, inst = next(x for x in (make_instance(s, n, 0) for s in itertools.count())
                   if not is_central_in_E(x[0]))
    n2, cert = certify._stable_factor(inst)
    assert n2 == max(n, 3)
    (p, q), = cert.pairs
    assert comm(p, q) == certify._pad_matrix(g, n2)
    return {"algebra": ser.algebra_to_json(inst.alg), "certificate": ser.cert_to_json(cert)}


def _round_trip(alg, n, c, seed):
    mcert, delta = diagonal_round_trip(alg, n, c, seed)
    scalar = lower_extract(list(mcert.pairs), delta)
    return {"matrix": ser.cert_to_json(mcert), "scalar": ser.cert_to_json(scalar)}


def _normal_form(alg):
    rng = random.Random(6)
    pairs = [tuple(random_invertible(alg, 4, rng, random_quat) for _ in "xy") for _ in range(2)]
    element = MatD.identity(alg, 4)
    for x, y in pairs:
        element = element * comm(x, y)
    head, dec = decompose_huvu(element)
    return {
        "form": ser.uvuform_to_json(commutator_normal_form(pairs)),
        "head": ser.mat_to_json(head),
        "decomposition": ser.uvuform_to_json(dec),
    }


def _absorptions(alg):
    """Every case of the lower absorption: 2, then 3 with eta = 0, 3 with
    eta a unit and 4 at each index."""
    n = 4
    rng = random.Random(8)
    u1, v, u2 = (random_unitriangular(alg, n, rng, lower=lower) for lower in (False, True, False))
    empty = HFactorList(alg, n)
    forms = []
    for k in range(1, n):
        zeta = random_quat(alg, rng, nonzero=True)
        xi = -zeta.inverse()
        forms.append(absorb_lower_transvection(UVUForm(alg, n, empty, u1, v, u2), k, zeta))
        for eta in (alg.zero, random_quat(alg, rng, nonzero=True), xi):
            form = UVUForm(alg, n, empty, u1, with_entry(v, k + 1, k, eta),
                           with_entry(u2, k, k + 1, zeta))
            forms.append(absorb_lower_transvection(form, k, xi))
    return [ser.uvuform_to_json(f) for f in forms]


def _v_side(alg):
    """u has a zero superdiagonal, so every slot move is a v-side move."""
    rng = random.Random(7)
    inst = _noncentral_instance(7, 4, 4, alg)
    v = random_unitriangular(alg, 4, rng, lower=True, span=2)
    inst = BasedInstance(alg, 4, v, MatD.identity(alg, 4), inst.delta, inst.delta_cert, inst.gamma)
    gamma, v2, u2, slots = prescribed_gauss(inst, balanced_partition(inst.c, 4))
    base = prescribed_gauss_base(inst.element())
    return {
        "gauss": [ser.mat_to_json(m) for m in (gamma, v2, u2)]
        + [[ser.quat_to_json(val), ser.cert_to_json(cert)] for val, cert in slots],
        "base": [ser.mat_to_json(base[0]), ser.mat_to_json(base[1]),
                 ser.quat_to_json(base[2]), ser.mat_to_json(base[3])],
    }


def _zero_corner_decomposition(alg):
    """decompose_huvu of an invertible g with g[1, 1] = 0, so its first
    pivot is fixed by a row operation."""
    rng = random.Random(9)
    x = random_invertible(alg, 4, rng, random_quat)
    while x.entry(2, 1).is_zero():
        x = random_invertible(alg, 4, rng, random_quat)
    g = x.add_row(1, 2, -(x.entry(1, 1) * x.entry(2, 1).inverse()))
    assert g.entry(1, 1).is_zero()
    head, dec = decompose_huvu(g)
    return {"head": ser.mat_to_json(head), "decomposition": ser.uvuform_to_json(dec)}


def _lower_factorizations():
    """Every 3 x 3 lower unitriangular matrix with entries in {0, 1, -1, i}."""
    alg = QuaternionAlgebra()
    one, zero = alg.one, alg.zero
    out = []
    for a, b, c in itertools.product((zero, one, -one, alg.basis()[1]), repeat=3):
        v = MatD(alg, [[one, zero, zero], [a, one, zero], [b, c, one]])
        out.append([[k, ser.quat_to_json(xi)] for k, xi in factor_lower_unitriangular(v)])
    return out


def _padded_gamma():
    """The stable padding moves a row of the identity into slot n of
    gamma, so column n meets a zero pivot in mat_inv and dieudonne_det."""
    inst = certify.embed_instance(_noncentral_instance(3, 3, 4), 6)
    gamma = inst.gamma
    assert gamma.entry(3, 3).is_zero()
    return {"inverse": ser.mat_to_json(mat_inv(gamma)),
            "det": ser.quat_to_json(dieudonne_det(gamma).representative)}


# ad * bd = 14 != 1, so the normal form's denominators are not those of (-1, -1)
HALVES = QuaternionAlgebra(Fraction(-1, 2), Fraction(-3, 7))

# (mode, seed, n, c[, algebra]) of each pinned factor case
FACTOR_CASES = {
    "factor-gl": ("gl", 1, 4, 5),
    "factor-e": ("e", 2, 4, 3),
    # three diagonal layers before (P, Q), so a change of layer order shows
    "factor-gl-layers": ("gl", 1, 4, 13),
    "factor-e-layers": ("e", 2, 4, 7),
    "factor-stable": ("stable", 3, 3, 2),
    "factor-gl-(-1,-3)": ("gl", 4, 3, 4, QuaternionAlgebra(-1, -3)),
}

CASES = {
    **{name: functools.partial(_factor, *args) for name, args in FACTOR_CASES.items()},
    # delta = 1: n = 2 is padded to n' = 3, n = 3 is not padded
    "factor-stable-delta-one-n2": lambda: _stable_delta_one(2),
    "factor-stable-delta-one-n3": lambda: _stable_delta_one(3),
    "lower-extract": lambda: _round_trip(QuaternionAlgebra(), 3, 3, 5),
    "lower-extract-n4-(-1,-3)": lambda: _round_trip(QuaternionAlgebra(-1, -3), 4, 5, 1),
    "normal-form": lambda: _normal_form(QuaternionAlgebra()),
    "normal-form-(-1/2,-3/7)": lambda: _normal_form(HALVES),
    "absorption-cases": lambda: _absorptions(QuaternionAlgebra()),
    "absorption-cases-(-1/2,-3/7)": lambda: _absorptions(HALVES),
    "v-side-move": lambda: _v_side(QuaternionAlgebra()),
    "v-side-move-(-1,-3)": lambda: _v_side(QuaternionAlgebra(-1, -3)),
    "huvu-pivot-fix": lambda: _zero_corner_decomposition(QuaternionAlgebra()),
    "huvu-pivot-fix-(-1,-3)": lambda: _zero_corner_decomposition(QuaternionAlgebra(-1, -3)),
    "lower-factorization-exhaustive": _lower_factorizations,
    "padded-gamma-inverse-det": _padded_gamma,
}

DIGESTS = {
    "absorption-cases": "29aad8e1ee229d028ff3593f53af5dce06204c6d5d81811607e5fe85a73f7c3d",
    "absorption-cases-(-1/2,-3/7)": (
        "a74c26c53b60b42bd3e29dd0bed144a94dbb8ae60ba2e45e492bdbf78e3b41ef"),
    "factor-e": "b45ecbb02edc9a2965acc9f5defb064d0182c7594715ea0b47b262b48b7a113d",
    "factor-e-layers": "7957c1d321343f43c1e0cb833d1be24dd9ba0d63bff76b629836fcf87aed9863",
    "factor-gl": "8c94e1b17554a977bfd7f8b212ec1e8873e8c0765fb1adb2994b61942eb9e69b",
    "factor-gl-(-1,-3)": "079964902fe4a8b2479423863b17adff2e8548ce2a102f9671aa929db5f665d2",
    "factor-gl-layers": "073a9987197096703cc3474c30d87496f9ad7c76cd2c2c5035876168b010dc1d",
    "factor-stable": "416fae952bc3d76ffeb7d27863979a24ebe687142e9cb9ea1e711c859f2e8c0c",
    "factor-stable-delta-one-n2": (
        "8f9dee47bfce94ac7f2a13fa8661976333b498530ca4dad1bc6ea739319e81bf"),
    "factor-stable-delta-one-n3": (
        "914d9f7ad11206c392d636ce0bce4148d2c6bb140aab76f39c28ab006095cd21"),
    "huvu-pivot-fix": "fa2c44bf88449e1fad7b3ee3428750ae8b40a165e8b2366191784cd9d368ca71",
    "huvu-pivot-fix-(-1,-3)": "574f855790ca6387a9f8ba5376b9f7e79a341fc2059da319bf8bb2aa4719b58c",
    "lower-extract": "36a7e87abf56ff6bd678b05d2c6ec35e01d85af8c6a061aa398e41d7c304eccb",
    "lower-extract-n4-(-1,-3)": "e5f0381bcbdef1795144e74bcddae3b59f717227a7653399a4f8e4dd4e7ccdcc",
    "lower-factorization-exhaustive": (
        "b80307d13ea0407151d62e29193c118267954e632af72b0113a90444f10b7c08"),
    "normal-form": "b5ea81e16a6d899f8f45404b9ce78eb5de25a7bd4d79db29ee2d90e0052503e6",
    "normal-form-(-1/2,-3/7)": "465a1ee4033a7fcfb8a0f3134d6e7e7a9339f4280c7c467688cb5a077af7a8d6",
    "padded-gamma-inverse-det": "3c509c1e6bd11b323c7ee194273b9312bfa0422d34152021af3b9b4c4afddd92",
    "v-side-move": "58b1b0d695b499f7dcca547c68a0a0e0a6084ceb491806c0ab1ac7e70c7d59bf",
    "v-side-move-(-1,-3)": "e268adb6206ae2fa4277eac6f62006132d250cb115aa1072ebc3361c882ea63b",
}


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_digest_is_pinned(name):
    assert digest(CASES[name]()) == DIGESTS[name]


def _calls_to(monkeypatch, name):
    """The argument tuples of every call to certify.<name> from now on."""
    calls = []
    fn = getattr(certify, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(certify, name, counted)
    return calls


def test_v_side_case_takes_the_v_side_move(monkeypatch):
    calls = _calls_to(monkeypatch, "_move_v_side")
    _v_side(QuaternionAlgebra())
    assert calls


def test_lower_extract_case_manufactures_a_unit(monkeypatch):
    """v = u = 1 in the round trip's instance, so zeta = eta = 0 at every
    slot that moves, and the slot step manufactures a unit first."""
    calls = _calls_to(monkeypatch, "_manufacture_unit")
    CASES["lower-extract"]()
    assert calls


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"    {name!r}: {digest(CASES[name]())!r},")
