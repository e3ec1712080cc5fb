"""End-to-end certificate pipelines and the bound formulas.

The downward pipeline turns a product of d matrix commutator pairs
hitting diag(1, ..., 1, tau) into an explicit commutator certificate for
tau inside D*, of length at most s(kappa^d).  The upward pipeline turns
a based instance (v, diag(1, ..., 1, delta), u, conjugator, certificate
for delta of length c) into ceil(c/n) matrix commutator pairs, or
ceil(c/(n-2)) pairs with elementary witnesses.  Every certificate is
verified by multiplication before it is returned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .budget import HFactorList, kappa_p, s_of
from .errors import (
    InternalInvariantError,
    PreconditionError,
    VerificationError,
    ZeroInputError,
)
from .matrix import MatD, is_central_in_E, is_elementary
from .normalform import commutator_normal_form, extract_H, rewrite_relation3
from .quaternion import Quat, QuaternionAlgebra, commutator, random_quat, solve_twisted
from .wordcalc import (
    CommutatorCert,
    Letter,
    Word,
    cert_inverse_product,
    comm,
    product,
    transfer_cert,
)


# ---------------------------------------------------------------------------
# bound formulas
# ---------------------------------------------------------------------------


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def dstar_length_bound(n: int, d: int) -> int:
    """d(8n^2 - 13n + 8) - 2n^2 + 3n - 1: if diag(1, ..., 1, tau) is a
    product of d commutators in GL(n, D), tau is a product of at most
    this many commutators in D*.

    Expanding s(kappa^d) from the definitions gives one less than this
    closed form; the formula is kept as the published upper envelope and
    the acceptance suite checks s_of(kappa_p(d, n)) <= this value.
    """
    if n < 2 or d < 1:
        raise PreconditionError("need n >= 2 and d >= 1")
    return d * (8 * n * n - 13 * n + 8) - 2 * n * n + 3 * n - 1


def width_ratio_lower_bound(n: int, c: int) -> Fraction:
    """(c + 2n^2 - 3n + 1) / (8n^2 - 13n + 8): lower bound for the
    GL-commutator width of E(n, D) given width c in D*."""
    if c < 1:
        raise PreconditionError("need c >= 1")
    return Fraction(c + 2 * n * n - 3 * n + 1, 8 * n * n - 13 * n + 8)


def width_upper_bounds(n: int, c: int) -> tuple[int, int | None]:
    """(ceil(c/n), ceil(c/(n-2))); the second component only for n >= 3."""
    if c < 1:
        raise PreconditionError("need c >= 1")
    second = _ceil_div(c, n - 2) if n >= 3 else None
    return _ceil_div(c, n), second


def single_commutator_necessary_bound(n: int) -> int:
    """6n^2 - 10n + 7: the width of D* may not exceed this if every
    noncentral element of E(n, D) is one commutator in GL(n, D)."""
    return 6 * n * n - 10 * n + 7


# ---------------------------------------------------------------------------
# scalar certificate extraction from an h-factor ledger
# ---------------------------------------------------------------------------


def scalar_cert_from_hfactors(hf: HFactorList, tau: Quat) -> CommutatorCert:
    """Turn an h-factor list evaluating to diag(1, ..., 1, tau) into a
    D* certificate for tau of length at most s_of(kappa).

    Factors are grouped by index with per-index order preserved.
    Vanishing indices split off a trailing block inside which every
    index occurs; the index-1 slot equation certifies the first partial
    product via the inverse-product construction, and each later slot
    equation transfers the certificate across an interleaved identity
    word at a cost of kappa_i - 1 pairs.
    """
    n = hf.n
    diag = hf.diagonal()
    one = hf.alg.one
    if any(not e.is_one() for e in diag[:-1]) or diag[-1] != tau:
        raise PreconditionError("factor list does not evaluate to diag(1, ..., 1, tau)")
    kappa = hf.kappa()
    if kappa[-1] == 0:
        if not tau.is_one():
            raise InternalInvariantError("no index n-1 factors but tau != 1")
        return CommutatorCert((), one).check()

    zero_idxs = [i for i, cnt in enumerate(kappa, start=1) if cnt == 0]
    kstar = max(zero_idxs) if zero_idxs else 0
    block = [(f.index - kstar, f.eps) for f in hf.factors if f.index > kstar]
    m = n - kstar  # block size; every local index 1..m-1 occurs

    slot1 = [eps for idx, eps in block if idx == 1]
    cert = cert_inverse_product(slot1)
    for i in range(2, m):
        letters = []
        na = nb = 0
        for idx, eps in block:
            if idx == i - 1:
                na += 1
                letters.append(Letter("a", na, eps.inverse()))
            elif idx == i:
                nb += 1
                letters.append(Letter("b", nb, eps))
        cert = transfer_cert(Word(tuple(letters)), cert)

    if cert.target != tau:
        raise InternalInvariantError("scalar extraction produced the wrong target")
    if len(cert) > s_of(kappa):
        raise VerificationError("scalar certificate exceeded s(kappa)")
    return cert.check()


def lower_extract(pairs: list[tuple[MatD, MatD]], tau: Quat) -> CommutatorCert:
    """From d commutator pairs whose product is exactly
    diag(1, ..., 1, tau), extract a verified certificate for tau in D*
    with at most s_of(kappa_p(d, n)) pairs."""
    if not pairs:
        if not tau.is_one():
            raise PreconditionError("no pairs but tau != 1")
        return CommutatorCert((), tau).check()
    alg, n = pairs[0][0].alg, pairs[0][0].n
    target = MatD.identity(alg, n)
    for x, y in pairs:
        target = target * comm(x, y)
    expected = MatD.diagonal(alg, [alg.one] * (n - 1) + [tau])
    if target != expected:
        raise PreconditionError("commutator product is not diag(1, ..., 1, tau)")
    form = commutator_normal_form(pairs)
    if form.evaluate() != target:
        raise InternalInvariantError("normal form does not evaluate to its input")
    hf = extract_H(form)
    cert = scalar_cert_from_hfactors(hf, tau)
    if len(cert) > s_of(kappa_p(len(pairs), n)):
        raise VerificationError("extracted certificate exceeded s(kappa^d)")
    return cert


# ---------------------------------------------------------------------------
# based instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasedInstance:
    """An element presented as gamma^-1 * v * diag(1, ..., 1, delta) * u
    * gamma together with a commutator certificate for delta in D*."""

    alg: QuaternionAlgebra
    n: int
    v: MatD
    u: MatD
    delta: Quat
    delta_cert: CommutatorCert
    gamma: MatD = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.gamma is None:
            object.__setattr__(self, "gamma", MatD.identity(self.alg, self.n))
        if not self.v.is_lower_unitriangular():
            raise PreconditionError("v must be lower unitriangular")
        if not self.u.is_upper_unitriangular():
            raise PreconditionError("u must be upper unitriangular")
        if self.delta.is_zero():
            raise ZeroInputError("delta must be a unit")
        if self.delta_cert.target != self.delta:
            raise PreconditionError("certificate target is not delta")
        self.delta_cert.check()

    def h(self) -> MatD:
        return MatD.diagonal(self.alg, [self.alg.one] * (self.n - 1) + [self.delta])

    def core(self) -> MatD:
        return self.v * self.h() * self.u

    def element(self) -> MatD:
        return self.gamma.inverse() * self.core() * self.gamma

    @property
    def c(self) -> int:
        return len(self.delta_cert)


def _empty_cert(alg: QuaternionAlgebra) -> CommutatorCert:
    return CommutatorCert((), alg.one)


def _split_cert(cert: CommutatorCert, at: int, alg) -> tuple[CommutatorCert, CommutatorCert]:
    """cert = prefix * suffix split at pair index `at`, with recomputed
    targets."""
    pre, suf = cert.pairs[:at], cert.pairs[at:]
    e = alg.one
    pre_t = product((comm(g, h) for g, h in pre), e)
    suf_t = product((comm(g, h) for g, h in suf), e)
    if pre_t * suf_t != cert.target:
        raise InternalInvariantError("certificate split lost its product")
    return CommutatorCert(pre, pre_t), CommutatorCert(suf, suf_t)


# ---------------------------------------------------------------------------
# conjugation moves shared by the diagonal redistributors
#
# State is (v, diag, u) meaning v * diag(...) * u.  Each move conjugates
# by one adjacent transvection and returns the re-normalized state.
# ---------------------------------------------------------------------------


def _move_u_side(alg, n, v, diag, u, k, xi):
    """Conjugate by t_{k+1,k}(xi); requires zeta = u[k,k+1] in D* and
    1 + zeta*xi != 0.  Slot k is multiplied by 1 + zeta*xi and slot k+1
    by its zeta-conjugated inverse."""
    zeta = u.entry(k, k + 1)
    r, xi2, zeta2 = rewrite_relation3(zeta, xi)
    h2 = [alg.one] * n
    # zeta r = 1 + zeta xi and zeta^-1 zeta2 = zeta^-1 (1 + zeta xi)^-1 zeta
    h2[k - 1], h2[k] = zeta * r, zeta.inverse() * zeta2
    new_diag = [diag[i] * h2[i] for i in range(n)]
    u_hat = u.add_col(k, k + 1, -zeta).conjugate_by_diagonal(h2).conj_t(k + 1, k, xi2)
    chi = new_diag[k] * xi2 * new_diag[k - 1].inverse()
    new_v = v.add_row(k + 1, k, -xi).add_col(k + 1, k, chi)
    return new_v, new_diag, u_hat.add_col(k, k + 1, zeta2)


def _move_v_side(alg, n, v, diag, u, k, xi):
    """Conjugate by t_{k,k+1}(xi); requires zeta = v[k+1,k] in D*, xi != 0
    and 1 - xi*zeta != 0.  Slot k is multiplied on the left by
    1 - xi*zeta and slot k+1 by (1 - zeta*xi)^-1."""
    zeta = v.entry(k + 1, k)
    # relation 3 for t_{k,k+1}(-xi) t_{k+1,k}(zeta)
    r, zeta2, xi2 = rewrite_relation3(-xi, zeta)
    h2 = [alg.one] * n
    # -xi r = 1 - xi zeta and (-xi)^-1 xi2 = (1 - zeta xi)^-1
    h2[k - 1], h2[k] = -xi * r, -(xi.inverse() * xi2)
    v_hat = v.add_row(k + 1, k, -zeta).conj_t(k, k + 1, -xi2).add_row(k + 1, k, zeta2)
    new_v = v_hat.conjugate_by_diagonal([e.inverse() for e in h2])
    new_diag = [h2[i] * diag[i] for i in range(n)]
    u_arg = diag[k - 1].inverse() * xi2 * diag[k]
    new_u = u.add_row(k, k + 1, u_arg).add_col(k, k + 1, xi)
    return new_v, new_diag, new_u


def _manufacture_unit(alg, v, diag, u, k):
    """When both adjacent entries at index k vanish, conjugate by
    t_{k,k+1}(s) so that u picks up the unit s - d_k^-1 s d_{k+1} at
    (k, k+1); s runs over 1, i, j, k and fails for all of them only if
    d_k = d_{k+1} is central.  Returns (v, u, s) or None."""
    dk_inv = diag[k - 1].inverse()
    dk1 = diag[k]
    for s in alg.basis():
        shift = s - dk_inv * s * dk1
        if not shift.is_zero():
            v2 = v.conj_t(k, k + 1, s)
            u2 = u.conj_t(k, k + 1, s).add_row(k, k + 1, shift)
            return v2, u2, s
    return None


def prescribed_gauss(
    inst: BasedInstance, partition: tuple[int, ...]
) -> tuple[MatD, MatD, MatD, list[tuple[Quat, CommutatorCert]]]:
    """Redistribute the slot-n certificate across the whole diagonal.

    Returns (gamma, v, u, slots) with
    gamma^-1 * element * gamma = v * diag(eps_1, ..., eps_n) * u and a
    verified certificate of length at most partition[i] for each eps_i.

    Walking k = n-1 down to 1, the overweight suffix (u side) or prefix
    (v side) theta of the slot k+1 certificate is moved into slot k by
    one adjacent conjugation; the moved certificate is transported along
    the conjugacy by the unit zeta that the move consumes.  When both
    adjacent entries vanish, a t_{k,k+1}(1) conjugation manufactures the
    unit out of the commutator with the diagonal first.
    """
    alg, n = inst.alg, inst.n
    one = alg.one
    if len(partition) != n or any(d < 0 for d in partition):
        raise PreconditionError("partition must be n nonnegative integers")
    if inst.c > sum(partition):
        raise PreconditionError(
            f"budget infeasible: certificate length {inst.c} exceeds {sum(partition)}"
        )

    v, u = inst.v, inst.u
    diag: list[Quat] = [one] * (n - 1) + [inst.delta]
    certs: list[CommutatorCert] = [_empty_cert(alg) for _ in range(n - 1)] + [inst.delta_cert]
    accum = MatD.identity(alg, n)
    x0 = inst.core()

    for k in range(n - 1, 0, -1):
        while True:
            cur = certs[k]
            keep = partition[k]
            if len(cur) <= keep:
                break
            eps_t = cur.target
            if diag[k] != eps_t:
                raise InternalInvariantError("slot value drifted from its certificate")
            if eps_t.is_one():
                certs[k] = _empty_cert(alg)
                break
            zeta = u.entry(k, k + 1)
            eta = v.entry(k + 1, k)
            if not zeta.is_zero():
                prefix, suffix = _split_cert(cur, keep, alg)
                theta = suffix.target
                if theta.is_one():
                    certs[k] = CommutatorCert(prefix.pairs, eps_t)
                    break
                xi = (theta - one) * zeta.inverse()
                v, diag, u = _move_u_side(alg, n, v, diag, u, k, xi)
                accum = accum.add_col(k + 1, k, xi)
                certs[k] = prefix
                certs[k - 1] = suffix.conjugated(zeta.inverse())
            elif not eta.is_zero():
                moved = len(cur) - keep
                prefix, suffix = _split_cert(cur, moved, alg)
                theta = prefix.target
                if theta.is_one():
                    certs[k] = CommutatorCert(suffix.pairs, eps_t)
                    break
                xi = eta.inverse() * (one - theta)
                v, diag, u = _move_v_side(alg, n, v, diag, u, k, xi)
                accum = accum.add_col(k, k + 1, xi)
                certs[k] = suffix
                certs[k - 1] = prefix.conjugated(eta)
            else:
                made = _manufacture_unit(alg, v, diag, u, k)
                if made is None:
                    raise InternalInvariantError(
                        "cannot manufacture a unit although the slot value is not 1"
                    )
                v, u, s = made
                accum = accum.add_col(k, k + 1, s)
                continue
            if diag[k] != certs[k].target or diag[k - 1] != certs[k - 1].target:
                raise InternalInvariantError("moved certificates disagree with the diagonal")
            break

    if not v.is_lower_unitriangular() or not u.is_upper_unitriangular():
        raise InternalInvariantError("prescribed decomposition lost its shape")
    for d_i, cert in zip(partition, certs):
        if len(cert) > d_i:
            raise InternalInvariantError("a slot certificate exceeded its budget")
        cert.check()
    if accum.inverse() * x0 * accum != v * MatD.diagonal(alg, diag) * u:
        raise InternalInvariantError("prescribed decomposition failed to reassemble")
    gamma_out = inst.gamma.inverse() * accum
    return gamma_out, v, u, list(zip(diag, certs))


def prescribed_gauss_base(
    g: MatD, seed: int = 0, retries: int = 64
) -> tuple[MatD, MatD, Quat, MatD]:
    """Conjugate g in E(n, D) to v * diag(1, ..., 1, delta) * u.

    A plain unpivoted two-sided elimination is tried first (so inputs
    already in that shape come back with gamma = identity); on pivot
    failure, or when the rightward diagonal normalization gets stuck on
    equal central neighbours, g is conjugated by seeded random
    transvections and the attempt repeats, at most `retries` times.
    """
    alg, n = g.alg, g.n
    one = alg.one
    if not is_elementary(g):
        raise PreconditionError("input is not in the elementary group")
    if is_central_in_E(g):
        raise PreconditionError("input is central")
    rng = random.Random(seed)

    def try_ldu(m: MatD):
        work = [list(row) for row in m.rows]
        v_rows = [list(r) for r in MatD.identity(alg, n).rows]
        for kk in range(n):
            piv = work[kk][kk]
            if piv.is_zero():
                return None
            piv_inv = piv.inverse()
            for r in range(kk + 1, n):
                if work[r][kk].is_zero():
                    continue
                f = work[r][kk] * piv_inv
                v_rows[r][kk] = f
                work[r] = [x - f * y for x, y in zip(work[r], work[kk])]
        d = [work[i][i] for i in range(n)]
        d_inv = [e.inverse() for e in d]
        u_m = MatD(alg, [[d_inv[i] * work[i][j] for j in range(n)] for i in range(n)])
        return MatD(alg, v_rows), d, u_m

    def normalize_rightward(v, diag, u):
        """Push slots 1..n-1 to 1; returns (v, diag, u, extra_conj) or
        None when stuck."""
        extra = MatD.identity(alg, n)
        for k in range(1, n):
            guard = 0
            while not diag[k - 1].is_one():
                guard += 1
                if guard > 4:
                    raise InternalInvariantError("diagonal normalization loop")
                d_k = diag[k - 1]
                zeta = u.entry(k, k + 1)
                eta = v.entry(k + 1, k)
                if not zeta.is_zero():
                    xi = zeta.inverse() * (d_k.inverse() - one)
                    v, diag, u = _move_u_side(alg, n, v, diag, u, k, xi)
                    extra = extra.add_col(k + 1, k, xi)
                elif not eta.is_zero():
                    xi = (one - d_k.inverse()) * eta.inverse()
                    v, diag, u = _move_v_side(alg, n, v, diag, u, k, xi)
                    extra = extra.add_col(k, k + 1, xi)
                else:
                    made = _manufacture_unit(alg, v, diag, u, k)
                    if made is None:
                        return None
                    v, u, s = made
                    extra = extra.add_col(k, k + 1, s)
        return v, diag, u, extra

    gamma = MatD.identity(alg, n)
    for attempt in range(retries):
        cand = gamma.inverse() * g * gamma if attempt else g
        got = try_ldu(cand)
        if got is not None:
            v, diag, u = got
            pushed = normalize_rightward(v, list(diag), u)
            if pushed is not None:
                v, diag, u, extra = pushed
                accum = gamma * extra
                delta = diag[n - 1]
                entries = [one] * (n - 1) + [delta]
                if accum.inverse() * g * accum != v * MatD.diagonal(alg, entries) * u:
                    raise InternalInvariantError("base decomposition failed to reassemble")
                return accum, v, delta, u
        gamma = MatD.identity(alg, n)
        for _ in range(n + 2):
            i = rng.randrange(1, n + 1)
            j = rng.randrange(1, n + 1)
            if i != j:
                gamma = gamma.add_col(i, j, random_quat(alg, rng, span=1))
    raise VerificationError("no pivot-free decomposition found within the retry budget")


# ---------------------------------------------------------------------------
# single-commutator construction
# ---------------------------------------------------------------------------


def _solve_corner_lower(v: MatD, a: list[Quat]) -> MatD:
    """v' in V with [v', diag(a)] = v, entry by entry along the
    subdiagonals; each entry is one twisted 4x4 solve."""
    alg, n = v.alg, v.n
    rows = [list(r) for r in MatD.identity(alg, n).rows]
    for depth in range(1, n):
        for j in range(1, n - depth + 1):
            i = j + depth
            rhs = v.entry(i, j) * a[j - 1]
            for m in range(j + 1, i):
                if not v.entry(i, m).is_zero() and not rows[m - 1][j - 1].is_zero():
                    rhs = rhs + v.entry(i, m) * a[m - 1] * rows[m - 1][j - 1]
            if rhs.is_zero():
                continue
            rows[i - 1][j - 1] = solve_twisted(
                a[i - 1], a[j - 1].inverse(), rhs * a[j - 1].inverse()
            )
    out = MatD(alg, rows)
    if comm(out, MatD.diagonal(alg, a)) != v:
        raise InternalInvariantError("lower corner solve failed")
    return out


def _solve_corner_upper(u: MatD, c: list[Quat]) -> MatD:
    """u' in U with [diag(c)^-1, u'] = u."""
    alg, n = u.alg, u.n
    rows = [list(r) for r in MatD.identity(alg, n).rows]
    for depth in range(1, n):
        for i in range(1, n - depth + 1):
            j = i + depth
            rhs = u.entry(i, j)
            for m in range(i + 1, j):
                if not u.entry(i, m).is_zero() and not rows[m - 1][j - 1].is_zero():
                    rhs = rhs + u.entry(i, m) * rows[m - 1][j - 1]
            if rhs.is_zero():
                continue
            rows[i - 1][j - 1] = solve_twisted(c[i - 1].inverse(), c[j - 1], -rhs)
    out = MatD(alg, rows)
    if comm(MatD.diagonal(alg, c).inverse(), out) != u:
        raise InternalInvariantError("upper corner solve failed")
    return out


def _rescale_witnesses(a: list[Quat], mode: str, max_tries: int = 64) -> list[Quat]:
    """Multiply a_2 ... a_n by central integers until the reduced norms
    are pairwise distinct (nrd(t a) = t^2 nrd(a), so advancing t always
    escapes a coincidence).  In elementary mode a_1 is recomputed as
    (a_2 ... a_n)^-1, preserving its constraint."""
    n = len(a)
    for round_shift in range(max_tries):
        out = list(a)
        used = set()
        if mode == "gl":
            used.add(out[0].nrd())
        for i in range(1, n):
            ti = 1 + (round_shift if i == n - 1 else 0)
            while out[i].scale(ti).nrd() in used:
                ti += 1
            out[i] = out[i].scale(ti)
            used.add(out[i].nrd())
        if mode == "e":
            head = out[0].alg.one
            for q in out[1:]:
                head = head * q
            out[0] = head.inverse()
            if out[0].nrd() in used:
                continue
        return out
    raise VerificationError("witness rescaling search exhausted")


def single_commutator(
    v: MatD, u: MatD, witnesses: list[tuple[Quat, Quat]], mode: str = "gl"
) -> tuple[MatD, MatD]:
    """Express v * diag(eps_1, ..., eps_n) * u as one commutator [P, Q],
    where eps_i = [a_i, b_i] for the supplied witness pairs.

    After rescaling the a_i to pairwise distinct reduced norms, set
    h1 = diag(a), tau = diag(b), h2 = tau h1^-1 tau^-1 and solve
    v = [v', h1], u = [h2^-1, u'] entrywise; then P = v' h1 v'^-1 and
    Q = u' tau v'^-1.

    In mode "e" the first two eps must be 1; the witnesses there are
    renormalized with a_2, b_1 central and a_1, b_2 compensating
    inverses, which puts both P and Q inside the elementary group.
    """
    alg, n = v.alg, v.n
    one = alg.one
    if mode not in ("gl", "e"):
        raise PreconditionError("mode must be 'gl' or 'e'")
    if len(witnesses) != n:
        raise PreconditionError("need one witness pair per diagonal slot")
    if not v.is_lower_unitriangular() or not u.is_upper_unitriangular():
        raise PreconditionError("v must be lower and u upper unitriangular")
    a = [w[0] for w in witnesses]
    b = [w[1] for w in witnesses]
    if any(q.is_zero() for q in a + b):
        raise ZeroInputError("witnesses must be units")
    eps = [commutator(a[i], b[i]) for i in range(n)]
    if mode == "e":
        if not (eps[0].is_one() and eps[1].is_one()):
            raise PreconditionError("elementary mode needs eps_1 = eps_2 = 1")
        b[0] = one
        a[1] = one
        tail = one
        for q in b[2:]:
            tail = tail * q
        b[1] = (b[0] * tail).inverse()
    a = _rescale_witnesses(a, mode)
    for i in range(n):
        if commutator(a[i], b[i]) != eps[i]:
            raise InternalInvariantError("rescaling changed a commutator value")

    h1 = MatD.diagonal(alg, a)
    tau_m = MatD.diagonal(alg, b)
    c = [b[i] * a[i].inverse() * b[i].inverse() for i in range(n)]
    v_pr = _solve_corner_lower(v, a)
    u_pr = _solve_corner_upper(u, c)
    p = v_pr * h1 * v_pr.inverse()
    q = u_pr * tau_m * v_pr.inverse()
    if comm(p, q) != v * MatD.diagonal(alg, eps) * u:
        raise InternalInvariantError("single-commutator construction failed")
    if mode == "e" and not (is_elementary(p) and is_elementary(q)):
        raise InternalInvariantError("elementary-mode witnesses left the elementary group")
    return p, q


# ---------------------------------------------------------------------------
# full factorization pipelines
# ---------------------------------------------------------------------------


def balanced_partition(c: int, n: int, support: int | None = None) -> tuple[int, ...]:
    """Split c into parts differing by at most one, heavier tail last;
    with `support` only the last `support` slots are used."""
    width = support if support is not None else n
    base, r = divmod(c, width)
    return tuple([0] * (n - width) + [base] * (width - r) + [base + 1] * r)


def _peel_last_pairs(slots, alg):
    """Take the final witness pair of every slot certificate (identity
    witnesses where a slot is exhausted); return (witnesses, remainder)."""
    one = alg.one
    witnesses = []
    rest = []
    for value, cert in slots:
        if len(cert) == 0:
            witnesses.append((one, one))
            rest.append((value, cert))
        else:
            head, _last = _split_cert(cert, len(cert) - 1, alg)
            witnesses.append(cert.pairs[-1])
            rest.append((head.target, head))
    return witnesses, rest


def factor_commutators_gl(inst: BasedInstance) -> CommutatorCert:
    """Factor the instance element into at most ceil(c/n) commutators in
    GL(n, D): spread the certificate with a balanced partition, then per
    round peel one witness layer off every slot into a single
    commutator, leaving a shorter diagonal for the next round."""
    if inst.c < 1:
        raise PreconditionError("need a certificate of length >= 1")
    if is_central_in_E(inst.core()):
        raise PreconditionError("instance element is central")
    alg, n = inst.alg, inst.n
    bound = _ceil_div(inst.c, n)
    gamma, v, u, slots = prescribed_gauss(inst, balanced_partition(inst.c, n))
    x = v * MatD.diagonal(alg, [val for val, _ in slots]) * u

    pairs_rev: list[tuple[MatD, MatD]] = []
    identity = MatD.identity(alg, n)
    cur_v, cur_u = v, u
    while True:
        witnesses, slots = _peel_last_pairs(slots, alg)
        v_tilde = cur_v.conjugate_by_diagonal([val for val, _ in slots])
        p, q = single_commutator(v_tilde, cur_u, witnesses, mode="gl")
        pairs_rev.append((p, q))
        cur_v, cur_u = identity, identity
        if all(len(cert) == 0 for _, cert in slots):
            if any(not val.is_one() for val, _ in slots):
                raise InternalInvariantError("certificates exhausted but diagonal remains")
            break

    core_cert = CommutatorCert(tuple(reversed(pairs_rev)), x).check()
    cert = core_cert.conjugated(gamma.inverse())
    if cert.target != inst.element():
        raise InternalInvariantError("certificate target is not the instance element")
    if len(cert) > bound:
        raise VerificationError(f"emitted {len(cert)} pairs, bound is {bound}")
    return cert.check()


def factor_commutators_e(inst: BasedInstance) -> CommutatorCert:
    """Factor the instance element into at most ceil(c/(n-2)) commutators
    with witnesses in E(n, D): the certificate lives on slots 3..n, one
    elementary-mode single commutator absorbs the unipotent parts plus a
    witness layer, and the remaining diagonal splits into explicit
    diagonal commutator pairs with trivial determinant."""
    alg, n = inst.alg, inst.n
    one = alg.one
    if n < 3:
        raise PreconditionError("elementary factorization needs n >= 3")
    if inst.c < 1:
        raise PreconditionError("need a certificate of length >= 1")
    if is_central_in_E(inst.core()):
        raise PreconditionError("instance element is central")
    bound = _ceil_div(inst.c, n - 2)
    gamma, v, u, slots = prescribed_gauss(
        inst, balanced_partition(inst.c, n, support=n - 2)
    )
    x = v * MatD.diagonal(alg, [val for val, _ in slots]) * u

    witnesses, rest = _peel_last_pairs(slots, alg)
    v_tilde = v.conjugate_by_diagonal([val for val, _ in rest])
    p, q = single_commutator(v_tilde, u, witnesses, mode="e")

    depth = max((len(cert) for _, cert in rest), default=0)
    hpairs: list[tuple[MatD, MatD]] = []
    for layer in range(depth):
        a_col, b_col = [], []
        for slot in range(2, n):
            _, cert = rest[slot]
            if layer < len(cert):
                ai, bi = cert.pairs[layer]
            else:
                ai, bi = one, one
            a_col.append(ai)
            b_col.append(bi)
        prod_a = product(a_col, one)
        prod_b = product(b_col, one)
        h_a = MatD.diagonal(alg, [prod_a.inverse(), one] + a_col)
        h_b = MatD.diagonal(alg, [one, prod_b.inverse()] + b_col)
        hpairs.append((h_a, h_b))

    h_rest = MatD.diagonal(alg, [val for val, _ in rest])
    acc = MatD.identity(alg, n)
    for h_a, h_b in hpairs:
        acc = acc * comm(h_a, h_b)
    if acc != h_rest:
        raise InternalInvariantError("diagonal commutator pairs do not rebuild h'")

    core_cert = CommutatorCert(tuple(hpairs) + ((p, q),), x).check()
    cert = core_cert.conjugated(gamma.inverse())
    if cert.target != inst.element():
        raise InternalInvariantError("certificate target is not the instance element")
    if len(cert) > bound:
        raise VerificationError(f"emitted {len(cert)} pairs, bound is {bound}")
    for g1, g2 in cert.pairs:
        if not (is_elementary(g1) and is_elementary(g2)):
            raise InternalInvariantError("a witness left the elementary group")
    return cert.check()


def _pad_matrix(m: MatD, n2: int) -> MatD:
    alg = m.alg
    rows = [list(r) + [alg.zero] * (n2 - m.n) for r in m.rows]
    ident = MatD.identity(alg, n2)
    for i in range(m.n, n2):
        rows.append(list(ident.rows[i]))
    return MatD(alg, rows)


def _swap_matrix(alg, n2: int, i: int, j: int) -> MatD:
    rows = [list(r) for r in MatD.identity(alg, n2).rows]
    rows[i - 1], rows[j - 1] = rows[j - 1], rows[i - 1]
    return MatD(alg, rows)


def embed_instance(inst: BasedInstance, n2: int) -> BasedInstance:
    """Corner-pad to size n2 and move delta from slot n to slot n2 by a
    permutation conjugation, keeping the based shape."""
    if n2 < inst.n:
        raise PreconditionError("cannot shrink an instance")
    if n2 == inst.n:
        return inst
    alg = inst.alg
    perm = _swap_matrix(alg, n2, inst.n, n2)
    v2 = perm * _pad_matrix(inst.v, n2) * perm
    u2 = perm * _pad_matrix(inst.u, n2) * perm
    gamma2 = perm * _pad_matrix(inst.gamma, n2)
    out = BasedInstance(alg, n2, v2, u2, inst.delta, inst.delta_cert, gamma2)
    if out.element() != _pad_matrix(inst.element(), n2):
        raise InternalInvariantError("instance embedding changed the element")
    return out


def stable_single_commutator(inst: BasedInstance) -> tuple[int, MatD, MatD]:
    """Embed the instance into GL(n', D) with n' = max(n, d+2, 3) and
    return one elementary commutator pair for the padded element."""
    if is_central_in_E(inst.core()):
        raise PreconditionError("instance element is central")
    d = inst.c
    n2 = max(inst.n, d + 2, 3)
    inst2 = embed_instance(inst, n2)
    if inst2.c == 0:
        one = inst.alg.one
        inst2 = BasedInstance(
            inst2.alg,
            inst2.n,
            inst2.v,
            inst2.u,
            inst2.delta,
            CommutatorCert(((one, one),), inst2.delta),
            inst2.gamma,
        )
    cert = factor_commutators_e(inst2)
    if len(cert) != 1:
        raise InternalInvariantError("stable factorization did not give one pair")
    p, q = cert.pairs[0]
    return n2, p, q


# ---------------------------------------------------------------------------
# seeded instance generation
# ---------------------------------------------------------------------------


def random_unitriangular(alg, n, rng, lower: bool, span: int = 1) -> MatD:
    rows = [list(r) for r in MatD.identity(alg, n).rows]
    for i in range(n):
        for j in range(n):
            if (i > j) if lower else (i < j):
                rows[i][j] = random_quat(alg, rng, span=span)
    return MatD(alg, rows)


def make_instance(
    seed: int, n: int, c: int, alg: QuaternionAlgebra | None = None
) -> tuple[MatD, BasedInstance]:
    """Seeded random based instance: v, u, gamma random with small
    entries, delta a product of c random quaternion commutators with the
    witnesses recorded as its certificate."""
    if alg is None:
        alg = QuaternionAlgebra()
    rng = random.Random(seed)
    pairs = tuple(
        (
            random_quat(alg, rng, span=1, nonzero=True),
            random_quat(alg, rng, span=1, nonzero=True),
        )
        for _ in range(c)
    )
    delta = alg.one
    for qa, qb in pairs:
        delta = delta * commutator(qa, qb)
    cert = CommutatorCert(pairs, delta)
    v = random_unitriangular(alg, n, rng, lower=True)
    u = random_unitriangular(alg, n, rng, lower=False)
    gamma = MatD.identity(alg, n)
    for _ in range(n):
        i = rng.randrange(1, n + 1)
        j = rng.randrange(1, n + 1)
        if i != j:
            gamma = gamma.add_col(i, j, random_quat(alg, rng, span=1))
    inst = BasedInstance(alg, n, v, u, delta, cert, gamma)
    return inst.element(), inst
