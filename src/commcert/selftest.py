"""Deterministic property suite behind the `selftest` subcommand.

Every check is a pure function of the seed, so a pinned seed gives a
byte-identical report.  These are smaller, faster versions of the
acceptance tests; the full-scale versions live in the pytest suite.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable

from .budget import h_commutator_factors, kappa_p, mu_vec, s_of, vec_leq
from .certify import (
    _ceil_div,
    dstar_length_bound,
    factor_commutators_e,
    factor_commutators_gl,
    lower_extract,
    make_instance,
    width_upper_bounds,
)
from .errors import PreconditionError
from .matrix import (
    MatD,
    dieudonne_det,
    is_elementary,
    random_invertible,
    transvection,
    verify_relation,
)
from .normalform import (
    UVUForm,
    absorb_V,
    absorb_lower_transvection,
    commutator_normal_form,
    decompose_huvu,
    factor_lower_unitriangular,
)
from .quaternion import QuaternionAlgebra, commutator, random_quat, solve_twisted
from .wordcalc import cert_inverse_product


class CheckFailure(AssertionError):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


def check_scalar_arithmetic(alg, seed, rounds=200):
    rng = random.Random(seed)
    one = alg.one
    for _ in range(rounds):
        p = random_quat(alg, rng, nonzero=True)
        q = random_quat(alg, rng, nonzero=True)
        _require(p.nrd() * q.nrd() == (p * q).nrd(), "nrd is not multiplicative")
        _require((p * p.inverse()).is_one(), "inverse failed")
        _require((p * q).conj() == q.conj() * p.conj(), "conj is not an anti-automorphism")
        _require(commutator(p, q).nrd() == 1, "commutator nrd is not 1")
        r = random_quat(alg, rng)
        if p.nrd() * q.nrd() != 1:
            x = solve_twisted(p, q, r)
            _require(x - p * x * q == r, "twisted solve is wrong")
    _require((one + alg.basis()[1]) * (one - alg.basis()[1]) == alg.scalar(1 - alg.a),
             "defining relation i^2 = a failed")


def check_relations(alg, seed, n, rounds=120):
    rng = random.Random(seed)
    one = alg.one
    idx = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    for _ in range(rounds):
        i, j = idx[rng.randrange(len(idx))]
        xi = random_quat(alg, rng)
        zeta = random_quat(alg, rng)
        _require(verify_relation(1, alg, n, i=i, j=j, xi=xi, zeta=zeta), "relation 1 failed")
        p, q = idx[rng.randrange(len(idx))]
        if i != q and (j == p or (j != p and i != q)):
            _require(
                verify_relation(2, alg, n, i=i, j=j, p=p, q=q, xi=xi, zeta=zeta),
                f"relation 2 failed at {(i, j, p, q)}",
            )
        if not zeta.is_zero() and not (one + zeta * xi).is_zero():
            _require(verify_relation(3, alg, n, i=i, j=j, xi=xi, zeta=zeta), "relation 3 failed")
        if not xi.is_zero():
            _require(verify_relation(4, alg, n, i=i, j=j, xi=xi), "relation 4 failed")


def check_determinant(alg, seed, n, rounds=40):
    rng = random.Random(seed)
    for _ in range(rounds):
        g = random_invertible(alg, n, rng, random_quat)
        h = random_invertible(alg, n, rng, random_quat)
        _require(
            dieudonne_det(g * h).invariant
            == dieudonne_det(g).invariant * dieudonne_det(h).invariant,
            "determinant is not multiplicative on nrd invariants",
        )
        xi = random_quat(alg, rng)
        i = rng.randrange(1, n + 1)
        j = rng.randrange(1, n + 1)
        if i != j:
            _require(
                dieudonne_det(transvection(alg, n, i, j, xi)).invariant == 1,
                "transvection has nontrivial determinant",
            )


def check_lower_factorization(alg, seed, n, rounds=60):
    from .certify import random_unitriangular

    rng = random.Random(seed)
    budget = [n - 1] + [2 * (n - k) for k in range(2, n)]
    for _ in range(rounds):
        v = random_unitriangular(alg, n, rng, lower=True)
        facs = factor_lower_unitriangular(v)
        m = MatD.identity(alg, n)
        counts = [0] * (n - 1)
        for k, xi in facs:
            m = m * transvection(alg, n, k + 1, k, xi)
            counts[k - 1] += 1
        _require(m == v, "lower factorization does not multiply back")
        _require(all(c <= b for c, b in zip(counts, budget)), "factor count contract broken")


def check_decomposition(alg, seed, n, rounds=60):
    rng = random.Random(seed)
    for _ in range(rounds):
        g = random_invertible(alg, n, rng, random_quat)
        head, form = decompose_huvu(g)
        _require(head.is_diagonal(), "head is not diagonal")
        _require(head * form.u1 * form.v * form.u2 == g, "HUVU reassembly failed")


def check_absorption(alg, seed, n, rounds=40):
    from .certify import random_unitriangular

    rng = random.Random(seed)
    for _ in range(rounds):
        form = UVUForm.identity(alg, n)
        form = absorb_V(form, random_unitriangular(alg, n, rng, lower=True))
        k = rng.randrange(1, n)
        xi = random_quat(alg, rng)
        before, bk = form.evaluate(), form.hfactors.kappa()
        form = absorb_lower_transvection(form, k, xi)
        _require(
            form.evaluate() == before * transvection(alg, n, k + 1, k, xi),
            "absorption broke the evaluation",
        )
        growth = tuple(a - b for a, b in zip(form.hfactors.kappa(), bk))
        _require(
            all(g <= (2 if i == k - 1 else 0) for i, g in enumerate(growth)),
            "absorption exceeded 2e_k",
        )


def check_commutator_form(alg, seed, n, p=2, rounds=6):
    rng = random.Random(seed)
    for _ in range(rounds):
        pairs = [
            (random_invertible(alg, n, rng, random_quat),
             random_invertible(alg, n, rng, random_quat))
            for _ in range(p)
        ]
        form = commutator_normal_form(pairs)
        target = MatD.identity(alg, n)
        for x, y in pairs:
            target = target * x * y * x.inverse() * y.inverse()
        _require(form.evaluate() == target, "commutator normal form evaluation failed")
        _require(vec_leq(form.hfactors.kappa(), kappa_p(p, n)), "kappa^p budget broken")
        hx = MatD.diagonal(alg, [random_quat(alg, rng, nonzero=True) for _ in range(n)])
        hy = MatD.diagonal(alg, [random_quat(alg, rng, nonzero=True) for _ in range(n)])
        _require(
            vec_leq(h_commutator_factors(hx, hy).kappa(), mu_vec(n)),
            "mu budget broken",
        )


def check_word_calculus(alg, seed, rounds=120):
    rng = random.Random(seed)
    one = alg.one
    for _ in range(rounds):
        k = rng.randrange(1, 7)
        vals = [random_quat(alg, rng, nonzero=True) for _ in range(k - 1)]
        total = one
        for v in vals:
            total = total * v
        vals.append(total.inverse())
        cert = cert_inverse_product(vals)
        _require(cert.verify(), "inverse-product certificate failed")
        _require(len(cert) <= max(0, k - 2), "inverse-product bound broken")


def check_pipelines(alg, seed, n):
    one = alg.one
    for c in (1, n, n + 1):
        g, inst = make_instance(seed + c, n, c)
        cert = factor_commutators_gl(inst)
        _require(cert.verify() and cert.target == g, "GL factorization failed")
        _require(len(cert) <= _ceil_div(c, n), "GL pair bound broken")
        if n >= 3:
            cert_e = factor_commutators_e(inst)
            _require(cert_e.verify() and cert_e.target == g, "E factorization failed")
            _require(len(cert_e) <= _ceil_div(c, n - 2), "E pair bound broken")
            _require(
                all(is_elementary(a) and is_elementary(b) for a, b in cert_e.pairs),
                "E witnesses not elementary",
            )
    rng = random.Random(seed)
    a = random_quat(alg, rng, nonzero=True)
    b = random_quat(alg, rng, nonzero=True)
    tau = commutator(a, b)
    pair = (
        MatD.diagonal(alg, [one] * (n - 1) + [a]),
        MatD.diagonal(alg, [one] * (n - 1) + [b]),
    )
    dcert = lower_extract([pair], tau)
    _require(dcert.verify(), "lower extraction failed")
    _require(len(dcert) <= s_of(kappa_p(1, n)), "lower extraction bound broken")


def check_bounds():
    _require(dstar_length_bound(2, 1) == 11, "closed-form bound wrong at (2,1)")
    _require(width_upper_bounds(3, 1) == (1, 1), "upper bounds wrong at (3,1)")
    for n in range(2, 7):
        for d in range(1, 6):
            _require(
                s_of(kappa_p(d, n)) <= dstar_length_bound(n, d),
                f"s(kappa^d) exceeds the closed form at {(n, d)}",
            )


def run_selftest(
    seed: int = 0,
    sizes: Iterable[int] = (2, 3, 4),
    algebra: QuaternionAlgebra | None = None,
    emit: Callable[[str], None] = print,
) -> int:
    """Run every check; returns the number of failures."""
    sizes = tuple(sizes)
    if any(n < 2 for n in sizes):
        raise PreconditionError("selftest sizes must be n >= 2")
    alg = algebra or QuaternionAlgebra()
    checks: list[tuple[str, Callable[[], None]]] = [
        ("scalar-arithmetic", lambda: check_scalar_arithmetic(alg, seed)),
        ("word-calculus", lambda: check_word_calculus(alg, seed)),
        ("bound-formulas", check_bounds),
    ]
    for n in sizes:
        checks += [
            (f"relations-n{n}", lambda n=n: check_relations(alg, seed, n)),
            (f"determinant-n{n}", lambda n=n: check_determinant(alg, seed, n)),
            (f"lower-factorization-n{n}", lambda n=n: check_lower_factorization(alg, seed, n)),
            (f"huvu-decomposition-n{n}", lambda n=n: check_decomposition(alg, seed, n)),
            (f"absorption-n{n}", lambda n=n: check_absorption(alg, seed, n)),
            (f"commutator-form-n{n}", lambda n=n: check_commutator_form(alg, seed, n)),
            (f"pipelines-n{n}", lambda n=n: check_pipelines(alg, seed, n)),
        ]
    failures = 0
    for name, fn in checks:
        try:
            fn()
        except CheckFailure as exc:
            failures += 1
            emit(f"FAIL {name}: {exc}")
        else:
            emit(f"ok {name}")
    return failures
