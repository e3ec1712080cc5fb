from fractions import Fraction

import pytest

from commcert import selftest
from commcert.quaternion import QuaternionAlgebra
from commcert.selftest import run_selftest

# Readers of the report may rely on this order: new checks are appended
# after it, never inserted.
PINNED = ["scalar-arithmetic", "word-calculus", "bound-formulas"] + [
    f"{check}-n{n}"
    for n in (2, 3, 4)
    for check in (
        "relations",
        "determinant",
        "lower-factorization",
        "huvu-decomposition",
        "absorption",
        "commutator-form",
        "pipelines",
    )
]
APPENDED = ["lower-factorization-exhaustive"] + [f"stable-padding-n{n}" for n in (2, 3, 4)]


def test_report_order_is_pinned_and_reproducible():
    reports = []
    for _ in range(2):
        lines = []
        assert run_selftest(seed=0, emit=lines.append) == 0, lines
        reports.append("\n".join(lines).encode())
    assert reports[0] == reports[1]
    assert reports[0].decode().splitlines() == [f"ok {name}" for name in PINNED + APPENDED]


@pytest.mark.parametrize("a,b", [(-1, -3), (Fraction(-1, 2), Fraction(-3, 7))])
def test_pipelines_run_in_the_given_algebra(monkeypatch, a, b):
    alg = QuaternionAlgebra(a, b)
    seen = []
    make_instance = selftest.make_instance

    def recording(seed, n, c, alg=None):
        seen.append(alg)
        return make_instance(seed, n, c, alg)

    monkeypatch.setattr(selftest, "make_instance", recording)
    lines = []
    assert run_selftest(sizes=(2, 3), algebra=alg, emit=lines.append) == 0, lines
    assert seen and all(x == alg for x in seen)


def test_pipelines_draw_a_different_delta_at_each_size(monkeypatch):
    first_delta = {}  # n -> delta of the first c = 1 instance, drawn by pipelines-n{n}
    make_instance = selftest.make_instance

    def recording(seed, n, c, alg=None):
        g, inst = make_instance(seed, n, c, alg)
        if c == 1:
            first_delta.setdefault(n, inst.delta)
        return g, inst

    monkeypatch.setattr(selftest, "make_instance", recording)
    lines = []
    assert run_selftest(seed=0, emit=lines.append) == 0, lines
    deltas = [first_delta[n] for n in (2, 3, 4)]
    assert all(a != b for i, a in enumerate(deltas) for b in deltas[i + 1:])
