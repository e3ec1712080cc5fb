import json

from commcert import MatD, commutator, make_instance
from commcert import serialize as ser
from commcert.cli import main

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


def test_certify_lower(tmp_path, capsys, alg, rng):
    a, b = rand_unit(alg, rng), rand_unit(alg, rng)
    tau = commutator(a, b)
    one = alg.one
    x = MatD.diagonal(alg, [one, one, a])
    y = MatD.diagonal(alg, [one, one, b])
    path = tmp_path / "low.json"
    path.write_text(
        json.dumps(
            {
                "algebra": ser.algebra_to_json(alg),
                "pairs": [[ser.mat_to_json(x), ser.mat_to_json(y)]],
                "tau": ser.quat_to_json(tau),
            }
        )
    )
    out_file = tmp_path / "cert.json"
    rc, _ = run(capsys, "certify-lower", str(path), "--out", str(out_file))
    assert rc == 0
    payload = json.loads(out_file.read_text())
    assert payload["verified"] and payload["achieved"] <= payload["bound"]
    rc, _ = run(capsys, "selftest", "--verify", str(out_file))
    assert rc == 0


def test_certify_lower_bad_shape_exits_3(tmp_path, capsys, alg, rng):
    x = rand_invertible(alg, 2, rng)
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "algebra": ser.algebra_to_json(alg),
                "pairs": [[ser.mat_to_json(x), ser.mat_to_json(x)]],
                "tau": ser.quat_to_json(alg.scalar(2)),
            }
        )
    )
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
