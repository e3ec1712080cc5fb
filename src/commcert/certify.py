"""End-to-end certificate pipelines and the bound formulas.

The downward pipeline turns a product of d matrix commutator pairs
hitting diag(1, ..., 1, tau) into an explicit commutator certificate for
tau inside D*, of length at most s(kappa^d).  The upward pipeline turns
a based instance (v, diag(1, ..., 1, delta), u, conjugator, certificate
for delta of length c) into ceil(c/n) matrix commutator pairs, or
ceil(c/(n-2)) pairs with elementary witnesses.  Every certificate is
verified by multiplication before it is returned.  Every fact is
checked once, where it is made: a moved slot value against its
certificate, the conjugator's inverse by one product in _factor_head,
the normal form's residual in extract_H, the redistribution's slot
certificates and reassembly by link 6 below in factor (prescribed_gauss
multiplies them out itself).

`factor` builds its witnesses already conjugated by c = gamma^-1.  In
both modes the last pair (P, Q) is built from v~ = [v', A] and
u = [H2^-1, u'] with A = diag(a), B = diag(b) and H2 = B A^-1 B^-1, and
every earlier pair is a diagonal layer, emitted as
(c^-1 diag(a) c, c^-1 diag(b) c).  The certificate is checked once,
link by link, against the instance element X; only gamma is inverted.
Each link names its check:
  1. c gamma = I (_factor_head): c is invertible.
  2. V lower and u' upper unitriangular (_commutator_frame): V and u'
     lie in E(n, D); v' = V^-1 is never built.
  3. A V = V v~ A (_commutator_frame) and u' H2 = W H2 u' with W =
     H2 u H2^-1 (_solve_corner): v' A V = v~ A and u' H2 u'^-1 = H2 u.
  4. c P = R_P and c Q = R_Q (_check_emitted), R_P = v~ A c and
     R_Q = u' B V c the frame's products: by 1-3,
     [P, Q] = c^-1 v~ A H2 u c = c^-1 v~ diag(eps) u c, eps_i = [a_i, b_i].
  5. c G = diag(a) c for each diagonal witness G (_check_emitted): the
     earlier pairs multiply out to R = c^-1 diag(r) c, r_i the slotwise
     product of their [a_i, b_i].
  6. c X = Y c with Y = diag(r) v~ diag(eps) u (_check_emitted): by 4
     and 5, R [P, Q] = c^-1 Y c = X.  As v~ = diag(r)^-1 v diag(r), Y =
     v diag(r_i eps_i) u is also the redistribution's reassembly.
In e mode the class of each witness in D*/[D*, D*] (its Dieudonne
determinant) follows from links 2, 4 and 5, with no determinant:
class(P) = prod a_i, class(Q) = prod b_i and class(G) = prod a_i.  SK_1
of D is trivial, the model assumption that DetClass records, so a
witness lies in E(n, D) iff nrd of its product is 1, which
factor_commutators_e checks for the last pair's a and b and for every
layer.  A P scaled by a central 2 keeps [P, Q] but fails c (2P) = R_P.
single_commutator does not check its pair.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import zip_longest

from .budget import HFactorList, kappa_p, s_of
from .errors import (
    InternalInvariantError,
    PreconditionError,
    VerificationError,
    ZeroInputError,
)
from .matrix import MatD, _plus_product, is_central_in_E, is_elementary, mat_inv
from .normalform import commutator_normal_form, extract_H, rewrite_adjacent
from .quaternion import Quat, QuaternionAlgebra, random_quat, solve_twisted
from .wordcalc import (
    CommutatorCert,
    Letter,
    cert_inverse_product,
    comm,
    product,
    transfer_cert,
)

GAUSS_RETRIES = 64  # conjugation attempts of prescribed_gauss_base
RESCALE_TRIES = 64  # rescaling rounds of _rescale_witnesses


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
    if n < 2 or c < 1:
        raise PreconditionError("need n >= 2 and c >= 1")
    return Fraction(c + 2 * n * n - 3 * n + 1, 8 * n * n - 13 * n + 8)


def width_upper_bounds(n: int, c: int) -> tuple[int, int | None]:
    """(ceil(c/n), ceil(c/(n-2))); the second component only for n >= 3."""
    if n < 2 or c < 1:
        raise PreconditionError("need n >= 2 and c >= 1")
    second = _ceil_div(c, n - 2) if n >= 3 else None
    return _ceil_div(c, n), second


def single_commutator_necessary_bound(n: int) -> int:
    """6n^2 - 10n + 7: the width of D* may not exceed this if every
    noncentral element of E(n, D) is one commutator in GL(n, D)."""
    if n < 2:
        raise PreconditionError("need n >= 2")
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

    The inverse product and the transfers check their moves and links
    in O(1) products each; the check() at the end is the pipeline's one
    full multiplication of the certificate.
    """
    if not _evaluates_to(hf, tau):
        raise PreconditionError("factor list does not evaluate to diag(1, ..., 1, tau)")
    return _scalar_cert(hf, tau)


def _evaluates_to(hf: HFactorList, tau: Quat) -> bool:
    """Whether the h ledger evaluates to diag(1, ..., 1, tau)."""
    return hf.diagonal() == (hf.alg.one,) * (hf.n - 1) + (tau,)


def _scalar_cert(hf: HFactorList, tau: Quat) -> CommutatorCert:
    """scalar_cert_from_hfactors for a ledger known to evaluate to
    diag(1, ..., 1, tau)."""
    n = hf.n
    one = hf.alg.one
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
        letters = tuple(
            Letter("a", eps.inverse()) if idx == i - 1 else Letter("b", eps)
            for idx, eps in block
            if idx in (i - 1, i)
        )
        cert = transfer_cert(letters, cert)

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
    target = product((comm(x, y) for x, y in pairs), MatD.identity(alg, n))
    expected = MatD.diagonal(alg, [alg.one] * (n - 1) + [tau])
    if target != expected:
        raise PreconditionError("commutator product is not diag(1, ..., 1, tau)")
    hf = extract_H(commutator_normal_form(pairs))
    if not _evaluates_to(hf, tau):  # target is diag(1, ..., 1, tau)
        raise InternalInvariantError("normal form does not evaluate to its input")
    cert = _scalar_cert(hf, tau)
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
        if type(self.n) is not int:
            raise PreconditionError("n must be an integer")
        if self.gamma is None:
            object.__setattr__(self, "gamma", MatD.identity(self.alg, self.n))
        if any(m.n != self.n for m in (self.v, self.u, self.gamma)):
            raise PreconditionError("v, u and gamma must be n x n")
        if not self.v.is_lower_unitriangular():
            raise PreconditionError("v must be lower unitriangular")
        if not self.u.is_upper_unitriangular():
            raise PreconditionError("u must be upper unitriangular")
        if self.delta.is_zero():
            raise ZeroInputError("delta must be a unit")
        if self.delta_cert.target != self.delta:
            raise PreconditionError("certificate target is not delta")
        if not self.delta_cert.verify():
            raise PreconditionError("certificate does not multiply out to delta")

    def h(self) -> MatD:
        return MatD.diagonal(self.alg, [self.alg.one] * (self.n - 1) + [self.delta])

    def core(self) -> MatD:
        return self.v * self.h() * self.u

    def element(self) -> MatD:
        return self.gamma.inverse() * self.core() * self.gamma

    @property
    def c(self) -> int:
        return len(self.delta_cert)


def _split_cert(cert: CommutatorCert, at: int, alg) -> tuple[CommutatorCert, CommutatorCert]:
    """cert = prefix * suffix split at pair index `at`; each half's
    target is the product of its own pairs."""
    return tuple(CommutatorCert(half, product((comm(g, h) for g, h in half), alg.one))
                 for half in (cert.pairs[:at], cert.pairs[at:]))


# ---------------------------------------------------------------------------
# conjugation moves shared by the diagonal redistributors
#
# State is (v, diag, u) meaning v * diag(...) * u.  Each move conjugates
# by one adjacent transvection and returns the re-normalized state.
# ---------------------------------------------------------------------------


def _move_u_side(v, diag, u, k, xi):
    """Conjugate by t_{k+1,k}(xi); requires zeta = u[k,k+1] in D* and
    1 + zeta*xi != 0.  u t_{k+1,k}(xi) = diag(d) t_{k+1,k}(xi2) new_u,
    and the new diagonal turns t_{k+1,k}(xi2) into t_{k+1,k}(chi) for v."""
    d, _, xi2, new_u = rewrite_adjacent(u, k, k + 1, xi)
    new_diag = [a * b for a, b in zip(diag, d)]
    chi = new_diag[k] * xi2 * new_diag[k - 1].inverse()
    new_v = v.add_row(k + 1, k, -xi).add_col(k + 1, k, chi)
    return new_v, new_diag, new_u


def _move_v_side(v, diag, u, k, xi):
    """Conjugate by t_{k,k+1}(xi); requires eta = v[k+1,k] in D* and
    1 - xi*eta != 0.  The conjugate transpose * reverses products and
    takes t_{k,k+1}(xi)^-1 x t_{k,k+1}(xi) to the conjugate of x* by
    t_{k+1,k}(-conj(xi)), a u-side move on (u*, diag*, v*); starring
    back gives the state, as unitriangular LDU factors are unique."""
    v_s, diag_s, u_s = _move_u_side(u.star(), [e.conj() for e in diag], v.star(), k, -xi.conj())
    return u_s.star(), [e.conj() for e in diag_s], v_s.star()


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


def _times_word(m: MatD, word) -> MatD:
    """m * t_1 * ... * t_k for the word [(i, j, xi), ...] of
    transvections t = t_{i,j}(xi): column operations, first letter first."""
    for i, j, xi in word:
        m = m.add_col(i, j, xi)
    return m


def _word_inverse_times(word, m: MatD) -> MatD:
    """(t_1 * ... * t_k)^-1 * m = t_k^-1 * ... * t_1^-1 * m, by
    t_{i,j}(xi)^-1 = t_{i,j}(-xi): row operations, first letter first."""
    for i, j, xi in word:
        m = m.add_row(i, j, -xi)
    return m


def prescribed_gauss(
    inst: BasedInstance, partition: tuple[int, ...]
) -> tuple[MatD, MatD, MatD, list[tuple[Quat, CommutatorCert]]]:
    """Redistribute the slot-n certificate across the whole diagonal.

    Returns (gamma, v, u, slots) with
    gamma^-1 * element * gamma = v * diag(eps_1, ..., eps_n) * u and a
    verified certificate of length at most partition[i] for each eps_i;
    gamma is inst.gamma^-1 times the word of _gauss_word.  The slot
    certificates and the reassembly are multiplied out here.
    """
    word, v, u, slots = _gauss_word(inst, partition)
    for _, cert in slots:
        cert.check()
    diag = MatD.diagonal(inst.alg, [eps for eps, _ in slots])
    if _word_inverse_times(word, _times_word(inst.core(), word)) != v * diag * u:
        raise InternalInvariantError("prescribed decomposition failed to reassemble")
    return _times_word(mat_inv(inst.gamma), word), v, u, slots


def _gauss_word(inst: BasedInstance, partition: tuple[int, ...]):
    """The redistribution of prescribed_gauss: (word, v, u, slots) with
    word^-1 * core * word = v * diag(eps_1, ..., eps_n) * u, the
    conjugator kept as its word of transvections (see _times_word).  It
    multiplies out neither the slot certificates nor the reassembly;
    its callers check both (module docstring).

    Walking k = n-1 down to 1, the overweight suffix (u side) or prefix
    (v side) theta of the slot k+1 certificate is moved into slot k by
    one adjacent conjugation; the moved certificate is transported along
    the conjugacy by the unit zeta that the move consumes.  When both
    adjacent entries vanish, a t_{k,k+1}(s) conjugation first
    manufactures a unit zeta out of the commutator with the diagonal, so
    the move is then a u-side one: at most one move per slot.
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
    certs: list[CommutatorCert] = [CommutatorCert((), one)] * (n - 1) + [inst.delta_cert]
    word = []

    for k in range(n - 1, 0, -1):
        cur = certs[k]
        keep = partition[k]
        if len(cur) <= keep:
            continue
        if cur.target.is_one():
            certs[k] = CommutatorCert((), one)
            continue
        zeta = u.entry(k, k + 1)
        eta = v.entry(k + 1, k)
        if zeta.is_zero() and eta.is_zero():
            made = _manufacture_unit(alg, v, diag, u, k)
            if made is None:
                raise InternalInvariantError(
                    "cannot manufacture a unit although the slot value is not 1"
                )
            v, u, s = made
            word.append((k, k + 1, s))
            zeta = u.entry(k, k + 1)
        if not zeta.is_zero():
            certs[k], moved = _split_cert(cur, keep, alg)
            if not moved.target.is_one():
                xi = (moved.target - one) * zeta.inverse()
                v, diag, u = _move_u_side(v, diag, u, k, xi)
                word.append((k + 1, k, xi))
                certs[k - 1] = moved.conjugated(zeta.inverse())
        else:
            moved, certs[k] = _split_cert(cur, len(cur) - keep, alg)
            if not moved.target.is_one():
                xi = eta.inverse() * (one - moved.target)
                v, diag, u = _move_v_side(v, diag, u, k, xi)
                word.append((k, k + 1, xi))
                certs[k - 1] = moved.conjugated(eta)
        if diag[k] != certs[k].target or diag[k - 1] != certs[k - 1].target:
            raise InternalInvariantError("moved certificates disagree with the diagonal")

    if not v.is_lower_unitriangular() or not u.is_upper_unitriangular():
        raise InternalInvariantError("prescribed decomposition lost its shape")
    if any(len(cert) > d_i for d_i, cert in zip(partition, certs)):
        raise InternalInvariantError("a slot certificate exceeded its budget")
    return word, v, u, list(zip(diag, certs))


def _try_ldu(m: MatD):
    """m = v * diag(d) * u by unpivoted elimination, v lower and u upper
    unitriangular; None when a pivot is zero."""
    work, v = m, MatD.identity(m.alg, m.n)
    for kk in range(1, m.n + 1):
        piv = work.entry(kk, kk)
        if piv.is_zero():
            return None
        piv_inv = piv.inverse()
        for r in range(kk + 1, m.n + 1):
            if not work.entry(r, kk).is_zero():
                f = work.entry(r, kk) * piv_inv
                work = work.add_row(r, kk, -f)
                v = v.add_col(r, kk, f)
    d = work.diagonal_entries()
    d_inv = [e.inverse() for e in d]
    u = MatD(m.alg, [[di * q for q in row] for di, row in zip(d_inv, work.rows)])
    return v, d, u


def prescribed_gauss_base(g: MatD, seed: int = 0) -> tuple[MatD, MatD, Quat, MatD]:
    """Conjugate g in E(n, D) to v * diag(1, ..., 1, delta) * u.

    A plain unpivoted two-sided elimination is tried first (so inputs
    already in that shape come back with gamma = identity); on pivot
    failure, or when the rightward diagonal normalization gets stuck on
    equal central neighbours, g is conjugated by seeded random
    transvections and the attempt repeats, at most GAUSS_RETRIES times.
    """
    alg, n = g.alg, g.n
    one = alg.one
    if not is_elementary(g):
        raise PreconditionError("input is not in the elementary group")
    if is_central_in_E(g):
        raise PreconditionError("input is central")
    rng = random.Random(seed)

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
                    v, diag, u = _move_u_side(v, diag, u, k, xi)
                    extra = extra.add_col(k + 1, k, xi)
                elif not eta.is_zero():
                    xi = (one - d_k.inverse()) * eta.inverse()
                    v, diag, u = _move_v_side(v, diag, u, k, xi)
                    extra = extra.add_col(k, k + 1, xi)
                else:
                    made = _manufacture_unit(alg, v, diag, u, k)
                    if made is None:
                        return None
                    v, u, s = made
                    extra = extra.add_col(k, k + 1, s)
        return v, diag, u, extra

    gamma = MatD.identity(alg, n)
    for attempt in range(GAUSS_RETRIES):
        cand = gamma.inverse() * g * gamma if attempt else g
        got = _try_ldu(cand)
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


def _solve_corner(w: MatD, a: list[Quat]) -> MatD:
    """The upper unitriangular x with [x, diag(a)] = w, entry by entry
    above the diagonal: with y = w diag(a), x diag(a) = y x reads, at
    (i, j), x_ij a_j - a_i x_ij = y_ij + sum_m y_im x_mj over the m
    strictly between i and j, one twisted solve; the result is checked
    on that identity, which needs no inverse."""
    alg, n = w.alg, w.n
    a_inv = [q.inverse() for q in a]
    d = MatD.diagonal(alg, a)
    y = w * d
    rows = [list(r) for r in MatD.identity(alg, n).rows]
    for depth in range(1, n):
        for i in range(1, n - depth + 1):
            j = i + depth
            rhs = y.entry(i, j)
            for m in range(i + 1, j):
                if not y.entry(i, m).is_zero() and not rows[m - 1][j - 1].is_zero():
                    rhs = _plus_product(rhs, y.entry(i, m), rows[m - 1][j - 1])
            if rhs.is_zero():
                continue
            rows[i - 1][j - 1] = solve_twisted(a[i - 1], a_inv[j - 1], rhs * a_inv[j - 1])
    out = MatD(alg, rows)
    if out * d != y * out:
        raise InternalInvariantError("corner solve failed")
    return out


def _rescale_witnesses(a: list[Quat], mode: str) -> list[Quat]:
    """Multiply a_2 ... a_n by central integers until the reduced norms
    are pairwise distinct (nrd(t a) = t^2 nrd(a), so advancing t always
    escapes a coincidence).  In elementary mode a_1 is recomputed as
    (a_2 ... a_n)^-1, preserving its constraint."""
    n = len(a)
    for round_shift in range(RESCALE_TRIES):
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
            out[0] = product(out[1:], out[0].alg.one).inverse()
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
    h1 V = V v h1 (V = v'^-1 for v = [v', h1]) and u = [h2^-1, u']
    entrywise.  Then P = v h1 and Q = u' tau V.  V and u' must be
    unitriangular and h1 V = V v h1 must hold (InternalInvariantError
    otherwise), which makes P and Q invertible.

    In mode "e" the first two eps must be 1; the witnesses there are
    renormalized with a_2, b_1 central and a_1, b_2 compensating
    inverses, which puts both P and Q inside the elementary group.

    The pair is built, not checked: comm(P, Q) is not multiplied out and
    the class of P and Q is not tested.  The factor pipelines check the
    certificate they emit through its frame, without inverting P or Q
    (module docstring); an outside caller checks the pair with
    CommutatorCert(((P, Q),), target).check(), which inverts them.
    """
    return _commutator_frame(v, u, witnesses, mode, c=None)[:2]


def _commutator_frame(v, u, witnesses, mode, *, c):
    """single_commutator's pair for c^-1 v diag(eps) u c, c the pair
    (c, c^-1) or None for I, with its frame (P, Q, R_P, R_Q, a, b):
    P = c^-1 R_P, Q = c^-1 R_Q, R_P = v diag(a) c and R_Q = u' diag(b)
    (V c), V = v'^-1 solved as the star of an upper corner solve, and
    a, b the witnesses after renormalization and rescaling."""
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
    eps = [comm(a[i], b[i]) for i in range(n)]
    if mode == "e":
        if not (eps[0].is_one() and eps[1].is_one()):
            raise PreconditionError("elementary mode needs eps_1 = eps_2 = 1")
        b[0] = one
        a[1] = one
        b[1] = (b[0] * product(b[2:], one)).inverse()
    a = _rescale_witnesses(a, mode)
    for i in range(n):
        if comm(a[i], b[i]) != eps[i]:
            raise InternalInvariantError("rescaling changed a commutator value")

    h2 = [b[i] * a[i].inverse() * b[i].inverse() for i in range(n)]
    # A V = V v A starred is V* A* = A* v* V*: [V*, A*] = A* v* A*^-1
    a_s = [q.conj() for q in a]
    big_v = _solve_corner(v.star().conjugate_by_diagonal([q.inverse() for q in a_s]), a_s).star()
    # [diag(h2)^-1, u'] = u is [u', diag(h2)] = diag(h2) u diag(h2)^-1
    u_pr = _solve_corner(u.conjugate_by_diagonal([e.inverse() for e in h2]), h2)
    # links 2 and 3 of the module docstring's chain; the V* solve checked V*, not V
    if not (big_v.is_lower_unitriangular() and u_pr.is_upper_unitriangular()):
        raise InternalInvariantError("a corner factor lost its unitriangular shape")
    d_a = MatD.diagonal(alg, a)
    y = v * d_a
    if d_a * big_v != big_v * y:
        raise InternalInvariantError("the corner factor fails A V = V v~ A")
    c, c_inv = c if c is not None else (MatD.identity(alg, n),) * 2
    r_p = y * c
    r_q = u_pr * MatD.diagonal(alg, b) * (big_v * c)
    return c_inv * r_p, c_inv * r_q, r_p, r_q, a, b


# ---------------------------------------------------------------------------
# full factorization pipelines
# ---------------------------------------------------------------------------


def balanced_partition(c: int, n: int, support: int | None = None) -> tuple[int, ...]:
    """Split c into parts differing by at most one, heavier tail last;
    with `support` only the last `support` slots are used."""
    width = support if support is not None else n
    base, r = divmod(c, width)
    return tuple([0] * (n - width) + [base] * (width - r) + [base + 1] * r)


def _peel_last_pairs(slots, one):
    """Split every slot certificate into its last pair ((1, 1) where the
    slot is empty) and the pairs before it; returns one
    (last, before, value of before) per slot, one product per slot."""
    peeled = []
    for _, cert in slots:
        *before, last = cert.pairs or ((one, one),)
        peeled.append((last, tuple(before), product((comm(g, h) for g, h in before), one)))
    return peeled


def _factor_head(inst: BasedInstance, support: int):
    """Spread the certificate over the last `support` slots and peel
    them; returns (element, (c, gamma), v~, u, _peel_last_pairs' list)
    with c = gamma^-1, checked by c * gamma = I, and v~ = diag(r)^-1 v
    diag(r), r the values of the pairs before the last.  inst.gamma is
    inverted once, and the core is made once."""
    if inst.c < 1:
        raise PreconditionError("need a certificate of length >= 1")
    core = inst.core()
    gamma_inv = mat_inv(inst.gamma)
    element = gamma_inv * core * inst.gamma
    if is_central_in_E(element):
        raise PreconditionError("instance element is central")
    word, v, u, slots = _gauss_word(inst, balanced_partition(inst.c, inst.n, support))
    # gamma = inst.gamma^-1 word and c = word^-1 inst.gamma, by row and
    # column operations; over a division ring a one-sided inverse of a
    # square matrix is two-sided
    gamma = _times_word(gamma_inv, word)
    c = _word_inverse_times(word, inst.gamma)
    if not (c * gamma).is_identity():
        raise InternalInvariantError("the conjugator fails c * gamma = I")
    peeled = _peel_last_pairs(slots, inst.alg.one)
    v_tilde = v.conjugate_by_diagonal([value for _, _, value in peeled])
    return element, (c, gamma), v_tilde, u, peeled


def _check_emitted(c: MatD, layers, pairs, element: MatD, frame, v_tilde: MatD,
                   u: MatD) -> None:
    """The emitted pairs multiply out to element, checked by links 4-6 of
    the module docstring's chain, without inverting a witness: c G =
    diag(a) c for each witness G of a diagonal layer (a, b), c P = R_P and
    c Q = R_Q for the last pair (P, Q), frame being (R_P, R_Q, a, b), and
    c element = diag(r) v_tilde diag(eps) u c.  comm inverts every a_i
    and b_i, so a layer or frame entry that is not a unit raises."""
    alg, n = element.alg, element.n
    *diagonal, (p, q) = pairs
    for layer, pair in zip(layers, diagonal, strict=True):
        for d, g in zip(layer, pair):
            if c * g != MatD.diagonal(alg, d) * c:
                raise VerificationError("an emitted witness is not its diagonal layer")
    r_p, r_q, a, b = frame
    if c * p != r_p:
        raise VerificationError("the last pair fails c P = R_P")
    if c * q != r_q:
        raise VerificationError("the last pair fails c Q = R_Q")
    r = [product((comm(x[i], y[i]) for x, y in layers), alg.one) for i in range(n)]
    eps = MatD.diagonal(alg, [comm(x, y) for x, y in zip(a, b)])
    if c * element != MatD.diagonal(alg, r) * v_tilde * eps * u * c:
        raise VerificationError("emitted pairs do not multiply out to the instance element")


def _factor_tail(inst: BasedInstance, element: MatD, c, layers, frame, v_tilde, u,
                 support: int):
    """Emit each diagonal layer (a, b) as (c^-1 diag(a) c, c^-1 diag(b) c),
    then the last pair of frame = (P, Q, R_P, R_Q, a, b), as a certificate
    for the instance element with at most ceil(inst.c/support) pairs; the
    upward pipeline's one check of its pairs runs here.  c is the pair
    (c, c^-1), and v_tilde and u are the matrices the last pair was built
    from."""
    c_mat, c_inv = c
    pairs = tuple(tuple(c_inv * MatD.diagonal(inst.alg, d) * c_mat for d in layer)
                  for layer in layers)
    cert = CommutatorCert(pairs + (frame[:2],), element)
    bound = _ceil_div(inst.c, support)
    if len(cert) > bound:
        raise VerificationError(f"emitted {len(cert)} pairs, bound is {bound}")
    _check_emitted(c_mat, layers, cert.pairs, element, frame[2:], v_tilde, u)
    return cert


def factor_commutators_gl(inst: BasedInstance) -> CommutatorCert:
    """Factor the instance element into at most ceil(c/n) commutators in
    GL(n, D): spread the certificate with a balanced partition, peel one
    witness layer off every slot into a single commutator, and peel the
    rest into diagonal layers, deepest first."""
    n, one = inst.n, inst.alg.one
    element, c, v_tilde, u, peeled = _factor_head(inst, n)
    frame = _commutator_frame(v_tilde, u, [last for last, _, _ in peeled], "gl", c=c)
    # the diagonal layers, deepest first: layer l takes the l-th pair
    # before the last of every slot, each slot padded with (1, 1) in
    # front so that the slots line up at their end
    depth = max(len(before) for _, before, _ in peeled)
    layers = [
        # the rescaling that single_commutator gives its a_i, so the
        # emitted witnesses stay byte-identical
        (_rescale_witnesses([a for a, _ in col], "gl"), [b for _, b in col])
        for col in zip(*(((one, one),) * (depth - len(before)) + before
                         for _, before, _ in peeled))
    ]
    return _factor_tail(inst, element, c, layers, frame, v_tilde, u, n)


def factor_commutators_e(inst: BasedInstance) -> CommutatorCert:
    """Factor the instance element into at most ceil(c/(n-2)) commutators
    with witnesses in E(n, D): the certificate lives on slots 3..n, one
    elementary-mode single commutator absorbs the unipotent parts plus a
    witness layer, and the remaining diagonal splits into diagonal
    layers with trivial determinant.  The class of every witness is read
    from its frame and its diagonal (module docstring), so no Dieudonne
    determinant runs."""
    n, one = inst.n, inst.alg.one
    if n < 3:
        raise PreconditionError("elementary factorization needs n >= 3")
    element, c, v_tilde, u, peeled = _factor_head(inst, n - 2)
    frame = _commutator_frame(v_tilde, u, [last for last, _, _ in peeled], "e", c=c)
    layers = _elementary_layers(peeled, one)
    # the class of each witness, read from its frame (module docstring)
    if not (_nrd_is_one(frame[4]) and _nrd_is_one(frame[5])):
        raise InternalInvariantError("a witness left the elementary group: nrd of its diagonal")
    if any(not _nrd_is_one(d) for layer in layers for d in layer):
        raise InternalInvariantError("a witness left the elementary group: nrd of a layer")
    return _factor_tail(inst, element, c, layers, frame, v_tilde, u, n - 2)


def _elementary_layers(peeled, one):
    """The diagonal layers of e mode, deepest first: layer l takes the
    l-th pair (a_i, b_i) before the last of each of slots 3..n, the
    slots lined up at their start, and fills slots 1 and 2 with
    (prod a)^-1 and (prod b)^-1, so prod a = prod b = 1."""
    layers = []
    for col in zip_longest(*(before for _, before, _ in peeled[2:]), fillvalue=(one, one)):
        a_col, b_col = [a for a, _ in col], [b for _, b in col]
        layers.append(([product(a_col, one).inverse(), one] + a_col,
                       [one, product(b_col, one).inverse()] + b_col))
    return layers


def _nrd_is_one(d: list[Quat]) -> bool:
    """nrd(d_1 ... d_n) = 1, by the multiplicativity of the reduced norm."""
    return math.prod(e.nrd() for e in d) == 1


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
    # out.element() = pad(inst.element()), as perm^2 = I and
    # gamma2 = perm pad(gamma)
    if out.core() * perm != perm * _pad_matrix(inst.core(), n2):
        raise InternalInvariantError("instance embedding changed the element")
    return out


def _stable_factor(inst: BasedInstance) -> tuple[int, CommutatorCert]:
    """Embed the instance into GL(n', D) with n' = max(n, c+2, 3) and
    return (n', the one-pair certificate that factor_commutators_e
    checked against the padded instance's element).  embed_instance
    checked that element to be the padded input element, and n' >= c+2
    makes _factor_tail's bound ceil(c/(n'-2)) = 1.  delta = 1 with an
    empty certificate is given the certificate [1, 1]."""
    if is_central_in_E(inst.core()):
        raise PreconditionError("instance element is central")
    if inst.c == 0:
        one = inst.alg.one
        inst = replace(inst, delta_cert=CommutatorCert(((one, one),), inst.delta))
    n2 = max(inst.n, inst.c + 2, 3)
    return n2, factor_commutators_e(embed_instance(inst, n2))


def stable_single_commutator(inst: BasedInstance) -> tuple[int, MatD, MatD]:
    """(n', P, Q) with [P, Q] the padded instance element in E(n', D),
    from _stable_factor's checked certificate."""
    n2, cert = _stable_factor(inst)
    return (n2, *cert.pairs[0])


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
    witnesses recorded as its certificate.  gamma is drawn as a word of
    transvections, so the element needs no inverse of gamma."""
    if c < 0:
        raise PreconditionError("need c >= 0")
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
    delta = product((comm(qa, qb) for qa, qb in pairs), alg.one)
    cert = CommutatorCert(pairs, delta)
    v = random_unitriangular(alg, n, rng, lower=True)
    u = random_unitriangular(alg, n, rng, lower=False)
    word = []
    for _ in range(n):
        i = rng.randrange(1, n + 1)
        j = rng.randrange(1, n + 1)
        if i != j:
            word.append((i, j, random_quat(alg, rng, span=1)))
    inst = BasedInstance(alg, n, v, u, delta, cert, _times_word(MatD.identity(alg, n), word))
    # the element gamma^-1 core gamma, with gamma the word drawn
    return _word_inverse_times(word, _times_word(inst.core(), word)), inst
