"""The paper's properties, written once, behind the `selftest` subcommand.

Each check_* that runs at more than one scale takes it (counts, sizes,
p values, the c range) as arguments; every check raises CheckFailure at
the first violation.
`run_selftest` runs every check at a small scale; the acceptance tests
run the same checks at their full stated scales.  A pipeline's own
multiplication check is not repeated here: its target is compared with
the input element.  The word calculus builders, which do not check
their certificates, are multiplied out here.  Every check is a pure
function of its seed, so a pinned seed gives a byte-identical report.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from functools import partial
from typing import Callable, Iterable

from .budget import h_commutator_factors, kappa_p, mu_vec, s_of, vec_leq
from .certify import (
    BasedInstance,
    _pad_matrix,
    dstar_length_bound,
    factor_commutators_e,
    factor_commutators_gl,
    lower_extract,
    make_instance,
    random_unitriangular,
    stable_single_commutator,
    width_upper_bounds,
)
from .errors import PreconditionError
from .matrix import (
    MatD,
    dieudonne_det,
    is_central_in_E,
    is_elementary,
    random_invertible,
    transvection,
    verify_relation,
)
from .normalform import (
    UVUForm,
    absorb_V,
    absorb_lower_transvection,
    absorb_upper,
    commutator_normal_form,
    decompose_huvu,
    factor_lower_unitriangular,
)
from .quaternion import QuaternionAlgebra, random_quat, solve_twisted
from .wordcalc import (
    CommutatorCert,
    Letter,
    cert_inverse_product,
    comm,
    product,
    transfer_cert,
)


class CheckFailure(AssertionError):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def _unit(alg, rng, matrices, n):
    if matrices:
        return random_invertible(alg, n, rng, random_quat)
    return random_quat(alg, rng, span=2, nonzero=True)


def identity_product_list(alg, rng, k, matrices=False, n=3):
    """k units (quaternions, or n x n matrices) multiplying to the identity."""
    elems = [_unit(alg, rng, matrices, n) for _ in range(k - 1)]
    ident = MatD.identity(alg, n) if matrices else alg.one
    elems.append(product(elems, ident).inverse())
    return elems


def make_interleaved_word(alg, rng, p, q, matrices=False, n=3):
    """Identity word with p a-letters (inverses of a_1 ... a_p) and q
    b-letters in shuffled roles, plus a valid certificate for the a
    product."""
    ident = MatD.identity(alg, n) if matrices else alg.one
    if p > 0:
        g, h = _unit(alg, rng, matrices, n), _unit(alg, rng, matrices, n)
        c = comm(g, h)
        avals = [_unit(alg, rng, matrices, n) for _ in range(p - 1)]
        pre = product((v.inverse() for v in avals), ident)
        avals.append((pre.inverse() * c).inverse())
        cert_a = CommutatorCert(((g, h),), c)
    else:
        avals, cert_a = [], CommutatorCert((), ident)
    bvals = [_unit(alg, rng, matrices, n) for _ in range(q)]

    roles = ["a"] * p + ["b"] * q
    rng.shuffle(roles)
    values = {"a": iter(v.inverse() for v in avals), "b": iter(bvals)}
    letters = [Letter(role, next(values[role])) for role in roles]
    bpos = max(ix for ix, role in enumerate(roles) if role == "b")
    pre = product((l.value for l in letters[:bpos]), ident)
    post = product((l.value for l in letters[bpos + 1:]), ident)
    letters[bpos] = Letter("b", pre.inverse() * post.inverse())
    return tuple(letters), cert_a


def make_instance_checked(seed, n, c, alg=None):
    """make_instance, shifting the seed until the element is noncentral
    in E (the pipelines reject central elements by contract)."""
    for shift in range(16):
        g, inst = make_instance(seed + 10_000 * shift, n, c, alg)
        if not is_central_in_E(inst.core()):
            return g, inst
    raise CheckFailure(f"no noncentral seeded instance at {(seed, n, c)}")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_scalar_arithmetic(alg, seed, rounds=200):
    rng = random.Random(seed)
    one = alg.one
    for _ in range(rounds):
        p = random_quat(alg, rng, nonzero=True)
        q = random_quat(alg, rng, nonzero=True)
        _require(p.nrd() * q.nrd() == (p * q).nrd(), "nrd is not multiplicative")
        _require((p * p.inverse()).is_one(), "inverse failed")
        _require((p * q).conj() == q.conj() * p.conj(), "conj is not an anti-automorphism")
        _require(comm(p, q).nrd() == 1, "commutator nrd is not 1")
        r = random_quat(alg, rng)
        if p.nrd() * q.nrd() != 1:
            x = solve_twisted(p, q, r)
            _require(x - p * x * q == r, "twisted solve is wrong")
    _require((one + alg.basis()[1]) * (one - alg.basis()[1]) == alg.scalar(1 - alg.a),
             "defining relation i^2 = a failed")


def check_relations(alg, seed, n, count=40):
    """Relations (1)-(4) on seeded instances until each has held `count` times."""
    rng = random.Random(seed)
    one = alg.one
    idx = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    done = Counter()
    while min(done[rel] for rel in (1, 2, 3, 4)) < count:
        i, j = idx[rng.randrange(len(idx))]
        xi = random_quat(alg, rng)
        zeta = random_quat(alg, rng)
        p, q = idx[rng.randrange(len(idx))]
        cases = (
            (1, True, dict(i=i, j=j, xi=xi, zeta=zeta)),
            (2, i != q, dict(i=i, j=j, p=p, q=q, xi=xi, zeta=zeta)),
            (3, not zeta.is_zero() and not (one + zeta * xi).is_zero(),
             dict(i=i, j=j, xi=xi, zeta=zeta)),
            (4, not xi.is_zero(), dict(i=i, j=j, xi=xi)),
        )
        for rel, applies, params in cases:
            if applies and done[rel] < count:
                _require(verify_relation(rel, alg, n, **params),
                         f"relation {rel} failed at {(i, j, p, q)}")
                done[rel] += 1


def check_determinant(alg, seed, n, pairs=40, transvections=40):
    """Multiplicativity on `pairs` random products and a trivial
    determinant for `transvections` random transvections."""
    rng = random.Random(seed)
    for _ in range(pairs):
        g = random_invertible(alg, n, rng, random_quat)
        h = random_invertible(alg, n, rng, random_quat)
        _require(
            dieudonne_det(g * h).invariant
            == dieudonne_det(g).invariant * dieudonne_det(h).invariant,
            "determinant is not multiplicative on nrd invariants",
        )
    for _ in range(transvections):
        i, j = rng.sample(range(1, n + 1), 2)
        _require(
            dieudonne_det(transvection(alg, n, i, j, random_quat(alg, rng))).invariant == 1,
            "transvection has nontrivial determinant",
        )


def _check_lower_factors(v: MatD) -> None:
    alg, n = v.alg, v.n
    facs = factor_lower_unitriangular(v)
    back = product((transvection(alg, n, k + 1, k, xi) for k, xi in facs), MatD.identity(alg, n))
    _require(back == v, "lower factorization does not multiply back")
    counts = Counter(k for k, _ in facs)
    budget = [n - 1] + [2 * (n - k) for k in range(2, n)]
    _require(all(counts[k] <= b for k, b in enumerate(budget, start=1)),
             "factor count contract broken")


def check_lower_factorization(alg, seed, n, rounds=60):
    rng = random.Random(seed)
    for _ in range(rounds):
        _check_lower_factors(random_unitriangular(alg, n, rng, lower=True))


def check_lower_factorization_exhaustive(alg):
    """Every 3 x 3 lower unitriangular matrix with entries in {0, 1, -1, i}."""
    one, zero = alg.one, alg.zero
    for a, b, c in itertools.product((zero, one, -one, alg.basis()[1]), repeat=3):
        _check_lower_factors(MatD(alg, [[one, zero, zero], [a, one, zero], [b, c, one]]))


def check_decomposition(alg, seed, n, rounds=60):
    rng = random.Random(seed)
    for _ in range(rounds):
        g = random_invertible(alg, n, rng, random_quat)
        head, form = decompose_huvu(g)
        _require(head.is_diagonal(), "head is not diagonal")
        _require(head * form.u1 * form.v * form.u2 == g, "HUVU reassembly failed")


def check_absorption(alg, seed, n, rounds=20):
    """A chained form: each step absorbs a lower transvection, within
    2e_k and with the exact evaluation, then an upper unitriangular
    factor."""
    rng = random.Random(seed)
    form = absorb_V(UVUForm.identity(alg, n), random_unitriangular(alg, n, rng, lower=True))
    value = form.evaluate()
    for _ in range(rounds):
        k = rng.randrange(1, n)
        xi = random_quat(alg, rng)
        bk = form.hfactors.kappa()
        form = absorb_lower_transvection(form, k, xi)
        value = value * transvection(alg, n, k + 1, k, xi)
        _require(form.evaluate() == value, "absorption broke the evaluation")
        growth = tuple(a - b for a, b in zip(form.hfactors.kappa(), bk))
        _require(
            all(g <= (2 if i == k - 1 else 0) for i, g in enumerate(growth)),
            "absorption exceeded 2e_k",
        )
        u = random_unitriangular(alg, n, rng, lower=False)
        form = absorb_upper(form, u)
        value = value * u


def check_commutator_form(alg, seed, n, ps=(2,), rounds=6):
    """`rounds` diagonal commutators whose h factors stay within mu and
    evaluate to the commutator; then, for each p in ps, `rounds`
    commutator normal forms of p pairs within kappa^p with the exact
    evaluation."""
    rng = random.Random(seed)
    for _ in range(rounds):
        hx = MatD.diagonal(alg, [random_quat(alg, rng, nonzero=True) for _ in range(n)])
        hy = MatD.diagonal(alg, [random_quat(alg, rng, nonzero=True) for _ in range(n)])
        hf = h_commutator_factors(hx, hy)
        _require(vec_leq(hf.kappa(), mu_vec(n)), "mu budget broken")
        _require(hf.evaluate() == comm(hx, hy), "h factors do not evaluate to the commutator")
    for p in ps:
        for _ in range(rounds):
            pairs = [
                (random_invertible(alg, n, rng, random_quat),
                 random_invertible(alg, n, rng, random_quat))
                for _ in range(p)
            ]
            form = commutator_normal_form(pairs)
            target = product((comm(x, y) for x, y in pairs), MatD.identity(alg, n))
            _require(form.evaluate() == target, "commutator normal form evaluation failed")
            _require(vec_leq(form.hfactors.kappa(), kappa_p(p, n)), "kappa^p budget broken")


def check_word_calculus(alg, seed, rounds=40, matrices=False):
    """`rounds` inverse-product certificates within max(0, k - 2) pairs
    and `rounds` transfer certificates within |cert_a| + q - 1 pairs,
    over quaternions or over 3 x 3 matrices."""
    rng = random.Random(seed)
    for _ in range(rounds):
        k = rng.randrange(1, 7)
        cert = cert_inverse_product(identity_product_list(alg, rng, k, matrices))
        _require(cert.verify(), "inverse-product certificate failed")
        _require(len(cert) <= max(0, k - 2), "inverse-product bound broken")
    for _ in range(rounds):
        p, q = rng.randrange(0, 3), rng.randrange(1, 4)
        w, cert_a = make_interleaved_word(alg, rng, p, q, matrices)
        cert_b = transfer_cert(w, cert_a)
        _require(cert_b.verify(), "transferred certificate failed")
        _require(len(cert_b) <= len(cert_a) + q - 1, "transfer bound broken")


def check_factorization(alg, seed, n, cs, mode):
    """For each c in cs, the noncentral seeded instance seed + c factors
    in `mode`: "gl" within ceil(c/n) pairs, one at c = n; "e" within
    ceil(c/(n-2)) elementary pairs, one at c = n - 2.  Returns the
    certificates."""
    certs = []
    for c in cs:
        g, inst = make_instance_checked(seed + c, n, c, alg)
        if mode == "gl":
            cert, bound, threshold = factor_commutators_gl(inst), width_upper_bounds(n, c)[0], n
        else:
            cert, bound, threshold = factor_commutators_e(inst), width_upper_bounds(n, c)[1], n - 2
        _require(cert.target == g, f"{mode} factorization failed at c={c}")
        _require(len(cert) <= bound, f"{mode} pair bound broken at c={c}")
        _require(c != threshold or len(cert) == 1, f"{mode} threshold case c={c} needs one pair")
        if mode == "e":
            _require(all(is_elementary(a) and is_elementary(b) for a, b in cert.pairs),
                     f"e witnesses not elementary at c={c}")
        certs.append(cert)
    return certs


def check_stable_padding(alg, seed, n, c):
    """The noncentral seeded instance `seed` pads to n' = max(n, c + 2, 3)
    and is one elementary commutator there."""
    g, inst = make_instance_checked(seed, n, c, alg)
    n2, p, q = stable_single_commutator(inst)
    _require(n2 == max(n, c + 2, 3), f"stable padding went to n'={n2} at c={c}")
    _require(comm(p, q) == _pad_matrix(g, n2), f"stable commutator is not g at c={c}")
    _require(is_elementary(p) and is_elementary(q), f"stable witnesses not elementary at c={c}")


def check_round_trips(alg, seed, n, cs):
    """A diagonal commutator pair gives a scalar certificate within
    s(kappa^1); then, for each c in cs, diag(1, ..., 1, delta) with
    delta and its certificate from make_instance(seed + c) factors in
    GL, and lower_extract recovers delta from those d pairs within
    s(kappa^d)."""
    one = alg.one
    rng = random.Random(seed)
    a = random_quat(alg, rng, nonzero=True)
    b = random_quat(alg, rng, nonzero=True)
    tau = comm(a, b)
    pair = (
        MatD.diagonal(alg, [one] * (n - 1) + [a]),
        MatD.diagonal(alg, [one] * (n - 1) + [b]),
    )
    dcert = lower_extract([pair], tau)
    _require(dcert.target == tau, "lower extraction failed")
    _require(len(dcert) <= s_of(kappa_p(1, n)), "lower extraction bound broken")
    ident = MatD.identity(alg, n)
    for c in cs:
        _, inst = make_instance(seed + c, n, c, alg)
        if inst.delta.is_one():
            continue  # central: the pipelines reject it by contract
        diag = BasedInstance(alg, n, ident, ident, inst.delta, inst.delta_cert)
        mcert = factor_commutators_gl(diag)
        _require(mcert.target == diag.element(),
                 f"round trip factorization failed at c={c}")
        dcert = lower_extract(list(mcert.pairs), inst.delta)
        _require(dcert.target == inst.delta,
                 f"round trip extraction failed at c={c}")
        _require(len(dcert) <= s_of(kappa_p(len(mcert), n)),
                 f"round trip exceeded s(kappa^d) at c={c}")


def check_bounds():
    _require(dstar_length_bound(2, 1) == 11, "closed-form bound wrong at (2,1)")
    _require(width_upper_bounds(3, 1) == (1, 1), "upper bounds wrong at (3,1)")
    # the computed s(kappa^d) sits one below the closed form
    _require(s_of(kappa_p(1, 4)) == 62 and dstar_length_bound(4, 1) == 63,
             "s(kappa^1) or the closed form wrong at n=4")
    for n in range(2, 7):
        for d in range(1, 6):
            _require(
                s_of(kappa_p(d, n)) <= dstar_length_bound(n, d),
                f"s(kappa^d) exceeds the closed form at {(n, d)}",
            )


def _check_pipelines(alg, seed, n):
    check_factorization(alg, seed, n, (1, n, n + 1), "gl")
    if n >= 3:
        check_factorization(alg, seed, n, (1, n, n + 1), "e")
    check_round_trips(alg, seed, n, (1,))


def run_selftest(
    seed: int = 0,
    sizes: Iterable[int] | None = None,
    algebra: QuaternionAlgebra | None = None,
    emit: Callable[[str], None] = print,
) -> int:
    """Run every check at small scale over sizes (default 2, 3, 4);
    returns the number of failures."""
    sizes = (2, 3, 4) if sizes is None else tuple(sizes)
    if any(n < 2 for n in sizes):
        raise PreconditionError("selftest sizes must be n >= 2")
    alg = algebra or QuaternionAlgebra()
    checks: list[tuple[str, Callable[[], object]]] = [
        ("scalar-arithmetic", lambda: check_scalar_arithmetic(alg, seed)),
        ("word-calculus", lambda: (check_word_calculus(alg, seed),
                                   check_word_calculus(alg, seed, rounds=4, matrices=True))),
        ("bound-formulas", check_bounds),
    ]
    per_size = (
        ("relations", check_relations),
        ("determinant", check_determinant),
        ("lower-factorization", check_lower_factorization),
        ("huvu-decomposition", check_decomposition),
        ("absorption", check_absorption),
        ("commutator-form", check_commutator_form),
        ("pipelines", _check_pipelines),
    )
    # One seed per (seed, n): with the bare seed every size would draw
    # the same instances (make_instance draws delta before any matrix).
    nseed = {n: random.Random(f"{seed}/{n}").getrandbits(32) for n in sizes}
    checks += [
        (f"{name}-n{n}", partial(fn, alg, nseed[n], n)) for n in sizes for name, fn in per_size
    ]
    checks.append(("lower-factorization-exhaustive",
                   lambda: check_lower_factorization_exhaustive(alg)))
    checks += [
        (f"stable-padding-n{n}", partial(check_stable_padding, alg, nseed[n], n, n - 1))
        for n in sizes
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
