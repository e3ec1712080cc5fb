"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench

The checker's arithmetic must agree with the algebra, accept what the
library emits and refuse forged documents; the tracer must see calls
made through names a module imported from another one; a run's record
must be compared with the baseline's.
"""

from __future__ import annotations

import json
import random

import pytest

import checker
import library
import run
from tracer import Tracer
from workloads import WORKLOADS


@pytest.fixture(scope="module")
def lib():
    return library.load()


def first_instances(lib, name, count=1):
    insts = WORKLOADS[name].generate(lib, seed=7)[:count]
    for inst in insts:
        inst.expected = checker.expected(name, inst)
    return insts


def test_checker_arithmetic_matches_the_algebra(lib):
    """Products, inverses and norms in (-1, -1 | Q) and (-2, 5 | Q)."""
    rng = random.Random(3)
    for a, b in ((-1, -1), (-2, 5)):
        alg = checker.Algebra(a, b)
        for _ in range(20):
            p, q = (
                checker.reduced(*(rng.randint(-9, 9) for _ in range(4)), rng.randint(1, 5))
                for _ in range(2)
            )
            if p == checker.ZERO or q == checker.ZERO:
                continue
            assert alg.mul(p, alg.inv(p)) == checker.ONE
            assert alg.norm(alg.mul(p, q)) == alg.norm(p) * alg.norm(q)
        # i j = k = -j i, i^2 = a, j^2 = b, k^2 = -ab
        i, j, k = (0, 1, 0, 0, 1), (0, 0, 1, 0, 1), (0, 0, 0, 1, 1)
        assert alg.mul(i, j) == k == checker.neg(alg.mul(j, i))
        assert alg.mul(i, i) == (a, 0, 0, 0, 1) and alg.mul(j, j) == (b, 0, 0, 0, 1)
        assert alg.mul(k, k) == (-a * b, 0, 0, 0, 1)
    rows = [[["1", "0", "0", "0"], ["0", "1/2", "0", "0"]], [["0", "0", "3", "0"], ["2", "0", "0", "1"]]]
    alg, m = checker.Algebra(-1, -1), checker.parse_mat(rows)
    inv, nrd = alg.mat_inv(m)
    assert alg.mat_mul(m, inv) == checker.identity(2) == alg.mat_mul(inv, m)
    lib_m = lib.serialize.mat_from_json(rows, lib.quaternion.QuaternionAlgebra())
    assert nrd == lib.matrix.dieudonne_det(lib_m).invariant


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checker_accepts_output_and_refuses_forgeries(lib, name):
    wl = WORKLOADS[name]
    (inst,) = first_instances(lib, name)
    text = wl.emit(lib, inst, wl.build(lib, inst))
    verdict = checker.verify(lib, name, inst, text)
    assert verdict.ok, verdict.problems
    assert 1 <= verdict.achieved <= verdict.bound

    forged = checker.forgeries(name, text)
    assert set(forged) == {"altered witness", "empty certificate"}
    for label, doc in forged.items():
        assert checker.rejects(lib, name, inst, doc), label


def test_checker_binds_to_the_instance_not_the_target(lib):
    """A valid certificate of another instance names its own target, and
    must still be refused for this one."""
    wl = WORKLOADS["up"]
    first, second = first_instances(lib, "up", 2)
    text = wl.emit(lib, second, wl.build(lib, second))
    assert checker.verify(lib, "up", second, text).ok
    assert checker.rejects(lib, "up", first, text)


def test_bounds_match_the_library(lib):
    for n in range(2, 9):
        for p in range(1, 5):
            assert checker.kappa_bound(p, n) == list(lib.budget.kappa_p(p, n))
            assert checker.s_of(checker.kappa_bound(p, n)) == lib.budget.s_of(
                lib.budget.kappa_p(p, n)
            )
    assert [checker.s_of(checker.kappa_bound(d, n)) for n, d in ((3, 2), (3, 3), (4, 2))] == [
        71, 112, 146,
    ]


def test_tracer_sees_calls_through_imported_names(lib):
    wl = WORKLOADS["down"]
    (inst,) = first_instances(lib, "down")
    tracer = Tracer()
    tracer.install(lib)
    # certify imports commutator_normal_form from normalform by name
    assert lib.certify.commutator_normal_form is lib.normalform.commutator_normal_form
    assert lib.certify.commutator_normal_form.__wrapped__ is not None
    wl.build(lib, inst)
    assert tracer.calls["certify.factor"] == 1
    assert tracer.calls["certify.lower_extract"] == 1
    assert tracer.calls["normalform.cnf"] >= 1
    assert tracer.calls["quaternion.mul"] > 0
    spans = [s for s in tracer.spans if s is not None]
    roots = [name for name, _, _, parent in spans if parent == -1]
    assert roots == ["certify.factor", "certify.lower_extract"]
    assert all(-1 <= parent < i for i, (_, _, _, parent) in enumerate(spans))


def test_tail_keeps_ten_samples_beyond():
    values = [float(i) for i in range(1, 61)]
    q, value, beyond = run.tail(values)
    assert (q, value, beyond) == (83, 50.0, 10)
    assert run.tail([1.0, 2.0]) == (100, 2.0, 0)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((library.ROOT / "BENCHMARK.json").read_text())
    ops = [run.Op(i, build_s=1.0, verify_s=0.1, wall_s=1.2, verdict=checker.Verdict(1, 1)) for i in range(12)]
    record = {"out_bits_p50": 1, "out_bytes_p50": 1, "pairs_per_bound": 1.0}
    e2e, _ = run.end_to_end(ops, 0.5, record)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    layers = Tracer().metrics(1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_record_is_compared_with_the_baseline():
    stored = json.loads(run.BASELINE.read_text())["records"]["up"]["1"]
    record = {k: v for k, v in stored.items() if k != "calls"}
    assert run.compare_with_baseline(record, "up", 1)[0] == []
    record["digests"] = ["0" * 64] + record["digests"][1:]
    assert run.compare_with_baseline(record, "up", 1)[0] == ["digests differs from the baseline record"]
    assert run.compare_with_baseline(record, "up", 10**9)[0] == []


def test_a_run_in_which_every_build_fails_still_reports():
    ops = [run.Op(i, wall_s=0.01, error="ValueError: no build") for i in range(3)]
    record = {"out_bits_p50": 0, "out_bytes_p50": 0, "pairs_per_bound": 0.0}
    e2e, _ = run.end_to_end(ops, 0.5, record)
    assert e2e["ok_ratio"][0] == 0 and e2e["build_p50_s"][0] == e2e["verify_p50_s"][0] == 0.01
