import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commcert import CommutatorCert, MatD, PreconditionError, make_instance
from commcert import serialize as ser
from commcert.budget import HFactor, HFactorList
from commcert.normalform import decompose_huvu
from commcert.quaternion import QuaternionAlgebra, comm
from commcert.wordcalc import product

from conftest import rand_invertible, rand_unit


def test_rational_strings():
    assert ser.rat_to_json(Fraction(-3, 7)) == "-3/7"
    assert ser.rat_to_json(Fraction(5)) == "5"
    assert ser.rat_from_json("-3/7") == Fraction(-3, 7)


def test_algebra_roundtrip():
    alg = QuaternionAlgebra(Fraction(-1), Fraction(-2, 3))
    data = ser.algebra_to_json(alg)
    assert data == {"a": "-1", "b": "-2/3"}
    assert ser.algebra_from_json(data) == alg


def test_quat_roundtrip(alg, rng):
    q = alg.quat(Fraction(1, 2), -3, 0, Fraction(7, 5))
    data = ser.quat_to_json(q)
    assert data == ["1/2", "-3", "0", "7/5"]
    assert ser.quat_from_json(data, alg) == q


def test_matrix_roundtrip(alg, rng):
    m = rand_invertible(alg, 3, rng)
    data = json.loads(json.dumps(ser.mat_to_json(m)))
    assert ser.mat_from_json(data, alg) == m


def test_hfactors_roundtrip(alg, rng):
    hf = HFactorList(alg, 3, (HFactor(1, rand_unit(alg, rng)), HFactor(2, rand_unit(alg, rng))))
    data = json.loads(json.dumps(ser.hfactors_to_json(hf)))
    assert ser.hfactors_from_json(data, alg, 3) == hf


def test_uvuform_roundtrip(alg, rng):
    g = rand_invertible(alg, 3, rng)
    _, form = decompose_huvu(g)
    data = json.loads(json.dumps(ser.uvuform_to_json(form)))
    back = ser.uvuform_from_json(data, alg)
    assert back == form


def test_cert_and_instance_roundtrip(alg):
    g, inst = make_instance(5, 3, 2)
    data = json.loads(json.dumps(ser.instance_to_json(inst)))
    back = ser.instance_from_json(data)
    assert back.element() == g
    assert back.delta == inst.delta
    assert back.delta_cert.pairs == inst.delta_cert.pairs

    cert_data = json.loads(json.dumps(ser.cert_to_json(inst.delta_cert)))
    assert ser.cert_from_json(cert_data, inst.alg) == inst.delta_cert


def test_matrix_cert_elements_distinguished(alg, rng):
    from commcert import CommutatorCert
    from conftest import mat_comm

    x, y = rand_invertible(alg, 2, rng), rand_invertible(alg, 2, rng)
    cert = CommutatorCert(((x, y),), mat_comm(x, y))
    data = json.loads(json.dumps(ser.cert_to_json(cert)))
    back = ser.cert_from_json(data, alg)
    assert back == cert and back.verify()


def test_cert_roundtrip_past_the_int_str_limit(alg):
    # 5000 decimal digits: over the interpreter's default 4300-digit cap
    from commcert import CommutatorCert

    big = 10**4999 + 3
    g = alg.quat(Fraction(big, 7), 1, -2, 0)
    h = alg.basis()[2]
    cert = CommutatorCert(((g, h),), comm(g, h))
    text = json.dumps(ser.cert_to_json(cert))
    assert '"' + "1" + "0" * 4998 + "3/7" + '"' in text
    back = ser.cert_from_json(json.loads(text), alg)
    assert back == cert and back.verify()


def test_long_rational_strings_roundtrip():
    for num, den in ((-(10**6000) - 1, 1), (10**4400 + 9, 10**5000 + 1), (7, 10**9000 + 3)):
        r = Fraction(num, den)
        s = ser.rat_to_json(r)
        assert s.split("/")[0].lstrip("-").isdigit()
        assert ser.rat_from_json(s) == r
    assert ser.rat_to_json(Fraction(-(10**5000))) == "-1" + "0" * 5000


def test_cert_witnesses_must_match_the_target_kind(alg, rng):
    q = ser.quat_to_json(rand_unit(alg, rng))
    m2 = ser.mat_to_json(rand_invertible(alg, 2, rng))
    m3 = ser.mat_to_json(rand_invertible(alg, 3, rng))
    for pairs, target in (([[q, q]], [[q]]), ([[m2, q]], m2), ([[m2, m3]], m2), ([[m2, m2]], q)):
        with pytest.raises(PreconditionError):
            ser.cert_from_json({"pairs": pairs, "target": target}, alg)


@pytest.mark.parametrize("data", [
    "1000", {"1": 0, "0": 0, "2": 0, "3": 0}, ("1", "0", "0", "0"), ["1", "0", "0"], None,
], ids=["string", "four-key-object", "tuple", "three-coordinates", "null"])
def test_a_quaternion_is_an_array_of_four(alg, data):
    with pytest.raises(PreconditionError):
        ser.quat_from_json(data, alg)


@pytest.mark.parametrize("data", [
    [["1234"]], [[{"1": 0, "0": 0, "2": 0, "3": 0}]], "1234", [],
], ids=["one-string-row", "object-entry", "string", "no-rows"])
def test_a_matrix_is_an_array_of_arrays(alg, data):
    with pytest.raises(PreconditionError):
        ser.mat_from_json(data, alg)
    with pytest.raises(PreconditionError):
        ser.cert_from_json({"pairs": [], "target": data}, alg)


def test_a_bare_quaternion_is_no_matrix(alg):
    with pytest.raises(PreconditionError):
        ser.mat_from_json(["1", "0", "0", "0"], alg)


@pytest.mark.parametrize("index", [True, 1.0, "1", None])
def test_h_factor_index_is_an_int(alg, index):
    eps = ser.quat_to_json(alg.basis()[1])
    assert ser.hfactors_from_json([{"i": 1, "eps": eps}], alg, 3).factors[0].index == 1
    with pytest.raises(PreconditionError):
        ser.hfactors_from_json([{"i": index, "eps": eps}], alg, 3)


def test_coordinates_not_in_lowest_terms_decode_to_the_canonical_quat(alg):
    q = ser.quat_from_json(["2/4", "-0", "+3", "0/7"], alg)
    assert q == alg.quat(Fraction(1, 2), 0, 3, 0)
    assert ser.quat_to_json(q) == ["1/2", "0", "3", "0"]
    assert ser.quat_from_json(["6/3", "-4/6", "007", "-0/1"], alg) == alg.quat(2, Fraction(-2, 3), 7)


@pytest.mark.parametrize(
    "text", ["1.5", " 7 ", "1_000", "1e2000000", "", "/3", "1/", "1/-3", "--1", "+-1", "\u0663"]
)
def test_only_p_over_q_or_p_parses(text):
    with pytest.raises(ValueError):
        ser.rat_from_json(text)


# ---------------------------------------------------------------------------
# round trips over definite algebras, Hamilton and not
# ---------------------------------------------------------------------------

ALGEBRAS = st.sampled_from(
    [
        QuaternionAlgebra(-1, -3),
        QuaternionAlgebra(-2, -5),
        QuaternionAlgebra(Fraction(-1, 2), Fraction(-3, 7)),
    ]
)
RATIONALS = st.builds(
    Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)
)
# past the interpreter's 4300-digit int <-> str cap
HUGE_INTS = st.builds(
    lambda sign, digits, low: sign * (10**digits + low),
    st.sampled_from([1, -1]),
    st.integers(4300, 6000),
    st.integers(0, 10**50),
)
# canonical output: no sign but "-", no leading zeros, no "/1"
CANONICAL = re.compile(r"-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?")


def quats(alg, coords=RATIONALS):
    return st.builds(alg.quat, coords, coords, coords, coords)


def through_json(data):
    return json.loads(json.dumps(data))


@settings(max_examples=50, deadline=None)
@given(r=st.one_of(RATIONALS, st.builds(Fraction, HUGE_INTS, HUGE_INTS)))
def test_rat_to_json_is_canonical_and_strict(r):
    s = ser.rat_to_json(r)
    assert CANONICAL.fullmatch(s) and s != "-0"
    assert ser.rat_from_json(s) == r


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_quaternion_and_matrix_json_roundtrip(data):
    alg = data.draw(ALGEBRAS)
    q = data.draw(quats(alg))
    assert ser.quat_from_json(through_json(ser.quat_to_json(q)), alg) == q
    n = data.draw(st.integers(1, 3))
    m = MatD(alg, [[data.draw(quats(alg)) for _ in range(n)] for _ in range(n)])
    assert ser.mat_from_json(through_json(ser.mat_to_json(m)), alg) == m


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_certificate_json_roundtrip(data):
    alg = data.draw(ALGEBRAS)
    unit = quats(alg).filter(lambda q: not q.is_zero())
    pairs = tuple((data.draw(unit), data.draw(unit)) for _ in range(data.draw(st.integers(0, 3))))
    cert = CommutatorCert(pairs, product((comm(g, h) for g, h in pairs), alg.one))
    back = ser.cert_from_json(through_json(ser.cert_to_json(cert)), alg)
    assert back == cert and back.verify()


@settings(max_examples=10, deadline=None)
@given(alg=ALGEBRAS, num=HUGE_INTS, den=st.one_of(st.just(1), HUGE_INTS.map(abs)))
def test_huge_coordinates_roundtrip(alg, num, den):
    q = alg.quat(Fraction(num, den), 1, 0, Fraction(-1, 3))
    assert ser.quat_from_json(through_json(ser.quat_to_json(q)), alg) == q
    cert = CommutatorCert(((q, alg.basis()[2]),), comm(q, alg.basis()[2]))
    assert ser.cert_from_json(through_json(ser.cert_to_json(cert)), alg) == cert
