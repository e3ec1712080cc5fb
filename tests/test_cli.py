import json
import time

import pytest

from commcert import MatD, certify, cli, make_instance, matrix
from commcert.quaternion import comm
from commcert import normalform
from commcert import serialize as ser
from commcert.certify import _pad_matrix
from commcert.cli import main
from commcert.wordcalc import CommutatorCert

from conftest import rand_invertible, rand_unit


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_bounds_row(capsys):
    rc, out = run(capsys, "bounds", "--n", "2", "--d", "1", "--c", "11")
    assert rc == 0
    row = json.loads(out)
    assert row["scalar_length_bound"] == 11
    assert row["s_kappa_d"] == 10
    assert row["width_lower_bound"] == "1"
    assert row["e_upper"] is None


def test_bounds_necessary_constant(capsys):
    rc, out = run(capsys, "bounds", "--n", "3")
    assert json.loads(out)["single_commutator_necessary"] == 31


def test_gen_factor_verify_cycle(tmp_path, capsys):
    inst_file = tmp_path / "inst.json"
    cert_file = tmp_path / "cert.json"
    rc, _ = run(capsys, "gen", "--n", "3", "--c", "2", "--seed", "9", "--out", str(inst_file))
    assert rc == 0
    rc, _ = run(capsys, "factor", str(inst_file), "--mode", "gl", "--out", str(cert_file))
    assert rc == 0
    payload = json.loads(cert_file.read_text())
    assert payload["verified"] is True
    assert payload["achieved"] <= payload["bound"]

    rc, out = run(capsys, "selftest", "--verify", str(cert_file))
    assert rc == 0
    assert json.loads(out)["verified"] is True


def test_gen_deterministic(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "gen", "--n", "3", "--c", "2", "--seed", "4", "--out", str(f1))
    run(capsys, "gen", "--n", "3", "--c", "2", "--seed", "4", "--out", str(f2))
    assert f1.read_text() == f2.read_text()


def test_factor_modes(tmp_path, capsys):
    inst_file = tmp_path / "inst.json"
    run(capsys, "gen", "--n", "4", "--c", "3", "--seed", "2", "--out", str(inst_file))
    for mode, bound in (("gl", 1), ("e", 2), ("stable", 1)):
        rc, out = run(capsys, "factor", str(inst_file), "--mode", mode)
        assert rc == 0
        payload = json.loads(out)
        assert payload["verified"] and payload["achieved"] <= bound
    # the stable target is the element that gen wrote, padded to n'
    gen = json.loads(inst_file.read_text())
    alg = ser.algebra_from_json(gen["algebra"])
    target = ser.mat_from_json(payload["certificate"]["target"], alg)
    assert target.n == 5
    assert target == _pad_matrix(ser.mat_from_json(gen["element"], alg), 5)


def test_stable_certificate_is_checked_against_the_element(tmp_path, capsys, monkeypatch):
    """A pair whose commutator is not the element fails the pipeline's
    check and prints no payload: [q, p] is the inverse of [p, q].  The
    pair is swapped with its frame, so each witness keeps its class."""
    inst_file = tmp_path / "inst.json"
    run(capsys, "gen", "--n", "3", "--c", "2", "--seed", "2", "--out", str(inst_file))
    real = certify._commutator_frame

    def swapped(*args, **kwargs):
        p, q, r_p, r_q, a, b = real(*args, **kwargs)
        return q, p, r_q, r_p, b, a

    monkeypatch.setattr(certify, "_commutator_frame", swapped)
    rc, out = run(capsys, "factor", str(inst_file), "--mode", "stable")
    assert rc == 2
    assert out == ""


def _patch_mat_inv(monkeypatch, wrap):
    """Route every inversion, through MatD.inverse or certify's own
    import, to wrap(real mat_inv, g)."""
    real = matrix.mat_inv
    for module in (matrix, certify):
        monkeypatch.setattr(module, "mat_inv", lambda g: wrap(real, g))


def test_stable_target_is_the_element_the_pipeline_checked(tmp_path, capsys, monkeypatch):
    """A wrong inverse of the unpadded gamma, which no pipeline inverts,
    leaves the emitted target the padded input element."""
    inst_file = tmp_path / "inst.json"
    run(capsys, "gen", "--n", "3", "--c", "4", "--seed", "2", "--out", str(inst_file))
    gen = json.loads(inst_file.read_text())
    alg = ser.algebra_from_json(gen["algebra"])
    gamma = ser.mat_from_json(gen["gamma"], alg)
    twice = MatD.diagonal(alg, [alg.scalar(2), alg.one, alg.one])
    _patch_mat_inv(monkeypatch, lambda real, g: real(g) * twice if g == gamma else real(g))
    assert gamma.inverse() * gamma != MatD.identity(alg, 3)
    rc, out = run(capsys, "factor", str(inst_file), "--mode", "stable")
    assert rc == 0
    target = ser.mat_from_json(json.loads(out)["certificate"]["target"], alg)
    assert target == _pad_matrix(ser.mat_from_json(gen["element"], alg), target.n)


def test_cli_stable_inverts_the_padded_gamma_and_v_prime_only(tmp_path, capsys, monkeypatch):
    """The CLI inverts nothing outside the pipeline, which inverts the
    padded gamma and the corner factor v' (n' = c + 2 = 6)."""
    inst_file = tmp_path / "inst.json"
    run(capsys, "gen", "--n", "3", "--c", "4", "--seed", "2", "--out", str(inst_file))
    calls = []
    _patch_mat_inv(monkeypatch, lambda real, g: calls.append(g) or real(g))
    rc, _ = run(capsys, "factor", str(inst_file), "--mode", "stable")
    assert rc == 0
    padded, v_prime = calls
    inst = ser.instance_from_json(json.loads(inst_file.read_text()))
    assert padded == certify.embed_instance(inst, 6).gamma
    assert v_prime.n == 6 and v_prime.is_lower_unitriangular()


def test_instance_whose_delta_certificate_fails_exits_3(tmp_path, capsys, alg):
    """The input's own certificate is a precondition, not a pipeline
    check: a witness scaled by i keeps the target but not the product."""
    path = tmp_path / "inst.json"
    run(capsys, "gen", "--n", "3", "--c", "2", "--seed", "1", "--out", str(path))
    payload = json.loads(path.read_text())
    witness = ser.quat_from_json(payload["delta_cert"]["pairs"][0][0], alg)
    payload["delta_cert"]["pairs"][0][0] = ser.quat_to_json(alg.basis()[1] * witness)
    path.write_text(json.dumps(payload))
    rc = main(["factor", str(path)])
    captured = capsys.readouterr()
    assert rc == 3 and _one_precondition_line(captured)
    assert captured.err.strip() == (
        "precondition violation: certificate does not multiply out to delta")


def test_decompose(tmp_path, capsys, alg, rng):
    g = rand_invertible(alg, 3, rng)
    path = tmp_path / "mat.json"
    path.write_text(
        json.dumps({"algebra": ser.algebra_to_json(alg), "matrix": ser.mat_to_json(g)})
    )
    rc, out = run(capsys, "decompose", str(path))
    assert rc == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    head = ser.mat_from_json(payload["head"], alg)
    form = ser.uvuform_from_json(payload["form"], alg)
    assert head * form.u1 * form.v * form.u2 == g


def test_decompose_is_checked_by_the_pipeline(tmp_path, capsys, alg, rng, monkeypatch):
    """A decomposition that does not reassemble fails decompose_huvu's
    own check, exits 4 and prints no payload."""
    g = rand_invertible(alg, 3, rng)
    path = tmp_path / "mat.json"
    path.write_text(
        json.dumps({"algebra": ser.algebra_to_json(alg), "matrix": ser.mat_to_json(g)})
    )
    real = normalform.UVUForm

    def corrupted(alg, n, hfactors, u1, v, u2):
        # still lower unitriangular, so only the reassembly check sees it
        return real(alg, n, hfactors, u1, v.add_row(2, 1, alg.one), u2)

    monkeypatch.setattr(normalform, "UVUForm", corrupted)
    rc, out = run(capsys, "decompose", str(path))
    assert rc == 4
    assert out == ""


def _lower_input(tmp_path, alg, pairs, tau):
    path = tmp_path / "low.json"
    path.write_text(
        json.dumps(
            {
                "algebra": ser.algebra_to_json(alg),
                "pairs": [[ser.mat_to_json(x), ser.mat_to_json(y)] for x, y in pairs],
                "tau": ser.quat_to_json(tau),
            }
        )
    )
    return path


def test_certify_lower(tmp_path, capsys, alg, rng):
    a, b = rand_unit(alg, rng), rand_unit(alg, rng)
    one = alg.one
    pairs = [(MatD.diagonal(alg, [one, one, a]), MatD.diagonal(alg, [one, one, b]))]
    path = _lower_input(tmp_path, alg, pairs, comm(a, b))
    out_file = tmp_path / "cert.json"
    rc, _ = run(capsys, "certify-lower", str(path), "--out", str(out_file))
    assert rc == 0
    payload = json.loads(out_file.read_text())
    assert payload["verified"] and payload["achieved"] <= payload["bound"]
    rc, _ = run(capsys, "selftest", "--verify", str(out_file))
    assert rc == 0


def test_certify_lower_unverified_certificate_exits_2(tmp_path, capsys, monkeypatch, alg, rng):
    """A pair corrupted inside the pipeline fails the pipeline's own
    multiplication check: exit 2, and no payload is printed."""
    a, b = rand_unit(alg, rng), rand_unit(alg, rng)
    one = alg.one
    pairs = [(MatD.diagonal(alg, [one, one, a]), MatD.diagonal(alg, [one, one, b]))]
    path = _lower_input(tmp_path, alg, pairs, comm(a, b))
    real = certify.cert_inverse_product

    def swapped(elements):
        # [h, g] = [g, h]^-1, which differs from [g, h] here
        cert = real(elements)
        (g, h), *rest = cert.pairs
        assert comm(g, h) != comm(h, g)
        return CommutatorCert(((h, g), *rest), cert.target)

    monkeypatch.setattr(certify, "cert_inverse_product", swapped)
    rc = main(["certify-lower", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "commutator certificate failed to verify" in captured.err


def test_certify_lower_without_pairs_reports_the_empty_bound(tmp_path, capsys, alg):
    """No pairs certify tau = 1 by the empty certificate: bound 0, and no
    closed-form bound, since no n or d is given."""
    rc, out = run(capsys, "certify-lower", str(_lower_input(tmp_path, alg, [], alg.one)))
    assert rc == 0
    payload = json.loads(out)
    assert payload["certificate"]["pairs"] == []
    assert (payload["verified"], payload["achieved"]) == (True, 0)
    assert payload["bound"] == 0 and payload["closed_form_bound"] is None


def test_certify_lower_bad_shape_exits_3(tmp_path, capsys, alg, rng):
    x = rand_invertible(alg, 2, rng)
    path = _lower_input(tmp_path, alg, [(x, x)], alg.scalar(2))
    rc = main(["certify-lower", str(path)])
    capsys.readouterr()
    assert rc == 3


def test_corrupted_certificate_exits_2(tmp_path, capsys):
    g, inst = make_instance(3, 3, 1)
    from commcert import factor_commutators_gl

    cert = factor_commutators_gl(inst)
    payload = {
        "algebra": ser.algebra_to_json(inst.alg),
        "certificate": ser.cert_to_json(cert),
        "bound": 1,
    }
    # corrupt the target
    payload["certificate"]["target"][0][0][0] = "999"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    rc, out = run(capsys, "selftest", "--verify", str(path))
    assert rc == 2
    assert json.loads(out)["verified"] is False


def test_selftest_small(capsys):
    rc, out = run(capsys, "selftest", "--n", "2", "--seed", "1")
    assert rc == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("ok ") for line in lines)


def _verify_payload(tmp_path, capsys, payload):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    rc = main(["selftest", "--verify", str(path)])
    return rc, capsys.readouterr().err


def _valid_payload():
    g, inst = make_instance(3, 3, 1)
    from commcert import factor_commutators_gl

    cert = factor_commutators_gl(inst)
    return {
        "algebra": ser.algebra_to_json(inst.alg),
        "certificate": ser.cert_to_json(cert),
        "bound": 1,
    }


def test_zero_denominator_parameter_exits_3(tmp_path, capsys):
    payload = _valid_payload()
    payload["algebra"]["a"] = "1/0"
    rc, err = _verify_payload(tmp_path, capsys, payload)
    assert rc == 3
    assert err.startswith("precondition violation: malformed input")
    assert len(err.strip().splitlines()) == 1


def test_missing_key_exits_3(tmp_path, capsys):
    payload = _valid_payload()
    del payload["certificate"]
    rc, err = _verify_payload(tmp_path, capsys, payload)
    assert rc == 3
    assert "missing key 'certificate'" in err
    assert len(err.strip().splitlines()) == 1


def test_missing_input_file_exits_3(tmp_path, capsys):
    rc = main(["selftest", "--verify", str(tmp_path / "absent.json")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("precondition violation: cannot read input")


def test_unwritable_output_exits_3(tmp_path, capsys):
    rc = main(["bounds", "--n", "3", "--out", str(tmp_path / "absent" / "x.json")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("precondition violation: cannot write output")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--n", "0", "--c", "3"],
        ["selftest", "--n", "1"],
        ["bounds", "--n", "-3"],
        ["gen", "--n", "3", "--c", "-2"],
    ],
)
def test_out_of_range_sizes_exit_3(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("precondition violation: ")


def test_mixed_kind_certificate_exits_3(tmp_path, capsys, alg):
    q = ser.quat_to_json(alg.basis()[1])
    payload = {
        "algebra": ser.algebra_to_json(alg),
        "certificate": {"pairs": [[q, q]], "target": [[q]]},  # 1x1 matrix target
    }
    rc, err = _verify_payload(tmp_path, capsys, payload)
    assert rc == 3
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("precondition violation: ")


def test_instance_with_matrix_delta_witnesses_exits_3(tmp_path, capsys, alg):
    path = tmp_path / "inst.json"
    run(capsys, "gen", "--n", "3", "--c", "2", "--seed", "1", "--out", str(path))
    payload = json.loads(path.read_text())
    ident = ser.mat_to_json(MatD.identity(alg, 2))
    payload["delta_cert"]["pairs"] = [[ident, ident]]
    path.write_text(json.dumps(payload))
    rc = main(["factor", str(path)])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("precondition violation: ")


def _two_by_two(payload):
    return [row[:2] for row in payload[:2]]


@pytest.mark.parametrize("edit", [
    lambda p: p.update(n="3"),
    lambda p: p.update(n=True),
    lambda p: p.update(gamma=_two_by_two(p["gamma"])),
    lambda p: p.update(v=_two_by_two(p["v"])),
], ids=["string-n", "bool-n", "2x2-gamma", "2x2-v"])
def test_instance_of_the_wrong_size_exits_3(tmp_path, capsys, edit):
    path = tmp_path / "inst.json"
    run(capsys, "gen", "--n", "3", "--c", "2", "--seed", "1", "--out", str(path))
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    rc = main(["factor", str(path)])
    captured = capsys.readouterr()
    assert rc == 3 and "Traceback" not in captured.err
    assert _one_precondition_line(captured)


@pytest.mark.parametrize("mode", ["gl", "e"])
def test_one_by_one_instance_exits_3_before_the_pipeline(tmp_path, capsys, monkeypatch, mode):
    """gen makes an instance at n = 1, whose bound ceil(c/n) the paper
    does not state (n >= 2); factor refuses it before the pipeline runs."""
    path = tmp_path / "inst.json"
    run(capsys, "gen", "--n", "1", "--c", "2", "--seed", "1", "--out", str(path))
    called = []
    for name in ("factor_commutators_gl", "factor_commutators_e"):
        monkeypatch.setattr(cli, name, lambda inst: called.append(inst))
    rc = main(["factor", str(path), "--mode", mode])
    captured = capsys.readouterr()
    assert rc == 3 and called == []
    assert captured.err.strip() == "precondition violation: need n >= 2 and c >= 1"


@pytest.mark.parametrize("bound", ["x", [1], True, 1.5])
def test_verify_bound_that_is_no_integer_exits_3(tmp_path, capsys, bound):
    payload = _valid_payload()
    payload["bound"] = bound
    rc, err = _verify_payload(tmp_path, capsys, payload)
    assert rc == 3 and "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("precondition violation: ")


@pytest.mark.parametrize("argv", [
    ["factor"], ["certify-lower"], ["decompose"], ["selftest", "--verify"],
], ids=["factor", "certify-lower", "decompose", "selftest-verify"])
def test_deeply_nested_json_exits_3(tmp_path, capsys, argv):
    depth = 100_000
    path = tmp_path / "deep.json"
    path.write_text('{"algebra": ' + "[" * depth + "]" * depth + "}")
    rc = main(argv + [str(path)])
    captured = capsys.readouterr()
    assert rc == 3 and "Traceback" not in captured.err
    assert _one_precondition_line(captured)


# The documented rational format is "p/q" or "p"; Fraction(str) would
# also take these, and "1e2000000" would build a two-million-digit integer.
NOT_RATIONALS = ["1.5", " 7 ", "1_000", "1e2000000"]


def _one_precondition_line(captured):
    lines = captured.err.strip().splitlines()
    return captured.out == "" and len(lines) == 1 and lines[0].startswith("precondition violation: ")


@pytest.mark.parametrize("coord", NOT_RATIONALS)
def test_non_rational_coordinate_exits_3(tmp_path, capsys, alg, coord):
    zero, one = ["0"] * 4, ["1", "0", "0", "0"]
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "algebra": ser.algebra_to_json(alg),
        "matrix": [[[coord, "0", "0", "0"], zero], [zero, one]],
    }))
    start = time.perf_counter()
    rc = main(["decompose", str(path)])
    assert time.perf_counter() - start < 1.0
    assert rc == 3 and _one_precondition_line(capsys.readouterr())


@pytest.mark.parametrize("param", NOT_RATIONALS)
def test_non_rational_algebra_option_exits_3(capsys, param):
    rc = main(["gen", "--n", "2", "--c", "1", f"--algebra=-1,{param}"])
    assert rc == 3 and _one_precondition_line(capsys.readouterr())


def test_usage_error_exits_3(capsys):
    rc = main(["bounds", "--n", "2", "--c", "x"])
    captured = capsys.readouterr()
    assert rc == 3 and _one_precondition_line(captured)
    assert "invalid int value: 'x'" in captured.err


def test_negative_algebra_parameters_as_separate_argument(capsys):
    rc, out = run(capsys, "gen", "--n", "2", "--c", "1", "--algebra", "-1,-3")
    assert rc == 0
    assert json.loads(out)["algebra"] == {"a": "-1", "b": "-3"}
    rc, joined = run(capsys, "gen", "--n", "2", "--c", "1", "--algebra=-1,-3")
    assert rc == 0 and joined == out


def test_missing_algebra_value_exits_3(capsys):
    rc = main(["gen", "--n", "2", "--c", "1", "--algebra"])
    assert rc == 3 and _one_precondition_line(capsys.readouterr())


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--help"])
    assert exc.value.code == 0
    assert "--algebra" in capsys.readouterr().out


# A quaternion is an array of four strings and a matrix an array of
# arrays; a string, an object or a bare quaternion in a matrix's place
# used to decode by iteration ("1000" as the quaternion 1).
@pytest.mark.parametrize("target", [
    "1000",
    {"1": 0, "0": 0, "2": 0, "3": 0},
    [["1234"]],
    [[{"1": 0, "0": 0, "2": 0, "3": 0}]],
    ["1", "0", "0"],
], ids=["string", "four-key-object", "one-string-row", "object-entry", "three-coordinates"])
def test_verify_target_that_is_no_array_encoding_exits_3(tmp_path, capsys, target):
    payload = {"algebra": {"a": "-1", "b": "-1"}, "certificate": {"pairs": [], "target": target}}
    rc, err = _verify_payload(tmp_path, capsys, payload)
    assert rc == 3 and "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("precondition violation: ")


def test_zero_denominator_witness_coordinate_exits_3(tmp_path, capsys):
    payload = _valid_payload()
    payload["certificate"]["pairs"][0][0][0][0][0] = "1/0"
    rc, err = _verify_payload(tmp_path, capsys, payload)
    assert rc == 3 and "Traceback" not in err
    lines = err.strip().splitlines()
    assert lines == ["precondition violation: malformed input: zero denominator in '1/0'"]


@pytest.mark.parametrize("tau", [
    ["1_0", "0", "0", "0"], "1000", {"1": 0, "0": 0, "2": 0, "3": 0},
], ids=["underscore-coordinate", "string", "four-key-object"])
def test_certify_lower_malformed_tau_exits_3(tmp_path, capsys, alg, tau):
    x = MatD.identity(alg, 2)
    path = tmp_path / "low.json"
    path.write_text(json.dumps({
        "algebra": ser.algebra_to_json(alg),
        "pairs": [[ser.mat_to_json(x), ser.mat_to_json(x)]],
        "tau": tau,
    }))
    rc = main(["certify-lower", str(path)])
    captured = capsys.readouterr()
    assert rc == 3 and "Traceback" not in captured.err
    assert _one_precondition_line(captured)
