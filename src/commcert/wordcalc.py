"""Certificate-producing word calculus over any group with exact equality.

The group elements are duck-typed: anything with *, inverse() and ==
works, and both Quat and MatD qualify.  Every move on a word emits an
explicit commutator pair that repairs the evaluation, and the move
multiplies that pair into the word's running value, so every pair is
checked once, when it is made.  The builders here check their moves,
targets and bounds in O(1) products each; they do not multiply out the
certificate they return.  A pipeline that chains them (the scalar
extraction in certify.scalar_cert_from_hfactors) multiplies out its
final certificate once, with check().  A certificate remembers nothing:
every verify() and check() multiplies all of its pairs out again, so a
caller does not re-check what a pipeline has already checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import PreconditionError, VerificationError
from .matrix import MatD
from .quaternion import Quat, comm


def group_identity(elem):
    if isinstance(elem, Quat):
        return elem.alg.one
    if isinstance(elem, MatD):
        return MatD.identity(elem.alg, elem.n)
    raise PreconditionError(f"unsupported group element {type(elem)!r}")


def product(elems: Iterable, identity):
    out = identity
    for e in elems:
        out = out * e
    return out


class Letter(NamedTuple):
    """One letter of a word; a word is a tuple of letters, read left to
    right, and a letter's position in it is its index."""

    role: str  # 'a' or 'b'
    value: object


@dataclass(frozen=True)
class CommutatorCert:
    """Ordered witness pairs whose commutator product equals target.

    verify() multiplies every pair out and compares the product with
    target, on every call; nothing is remembered between calls.
    """

    pairs: tuple[tuple[object, object], ...]
    target: object

    def __len__(self) -> int:
        return len(self.pairs)

    def verify(self) -> bool:
        e = group_identity(self.target)
        return product((comm(g, h) for g, h in self.pairs), e) == self.target

    def check(self) -> "CommutatorCert":
        if not self.verify():
            raise VerificationError("commutator certificate failed to verify")
        return self

    def conjugated(self, c) -> "CommutatorCert":
        """Apply x -> c^-1 x c to the target and every witness."""
        ci = c.inverse()
        return CommutatorCert(
            tuple((ci * g * c, ci * h * c) for g, h in self.pairs),
            ci * self.target * c,
        )

    def inverse(self) -> "CommutatorCert":
        """[g, h]^-1 = [h, g], so reverse and swap."""
        return CommutatorCert(
            tuple((h, g) for g, h in reversed(self.pairs)),
            self.target.inverse(),
        )


def _move_pair(u, x, v, value, front: bool):
    """One letter move on a word that evaluates to u x v.

    `value` is the running value of the word before the move; the
    product u x v of the caller's cached pieces must equal it.  Returns
    the emitted pair (g, h) and the running value of the moved word,
    value * [g, h]^-1, so a wrong pair or a stale cache fails the next
    move's check or the caller's final comparison with the letters.
    """
    if u * x * v != value:
        raise VerificationError("letter move failed its multiplication check")
    if front:
        # u x v = x u v * (v^-1 [u^-1, x^-1] v)
        vi = v.inverse()
        g, h = vi * u.inverse() * v, vi * x.inverse() * v
    else:
        # u x v = u v x * [x^-1, v^-1]
        g, h = x.inverse(), v.inverse()
    return (g, h), value * comm(h, g)


def _checked_move(letters: tuple, idx: int, moved: tuple, front: bool):
    values = [l.value for l in letters]
    e = group_identity(values[0])
    u, v = product(values[:idx], e), product(values[idx + 1:], e)
    pair, value = _move_pair(u, values[idx], v, product(values, e), front)
    if value != product((l.value for l in moved), e):
        raise VerificationError("letter move failed its multiplication check")
    return moved, pair


def move_letter_front(letters: tuple, idx: int) -> tuple[tuple, tuple[object, object]]:
    """Move letter idx to the front; the emitted pair (g, h) satisfies
    eval(letters) = eval(result) * [g, h] exactly.

    From u x v = x u v * (v^-1 [u^-1, x^-1] v) the pair is the
    v-conjugate (v^-1 u^-1 v, v^-1 x^-1 v).
    """
    if not (0 <= idx < len(letters)):
        raise PreconditionError("letter index out of range")
    if idx == 0:
        e = group_identity(letters[0].value)
        return letters, (e, e)
    moved = (letters[idx],) + letters[:idx] + letters[idx + 1:]
    return _checked_move(letters, idx, moved, front=True)


def move_letter_end(letters: tuple, idx: int) -> tuple[tuple, tuple[object, object]]:
    """Move letter idx to the end; from u x v = u v x * [x^-1, v^-1]
    the emitted pair is (x^-1, v^-1)."""
    if not (0 <= idx < len(letters)):
        raise PreconditionError("letter index out of range")
    if idx == len(letters) - 1:
        e = group_identity(letters[0].value)
        return letters, (e, e)
    moved = letters[:idx] + letters[idx + 1:] + (letters[idx],)
    return _checked_move(letters, idx, moved, front=False)


def cert_inverse_product(elements: Sequence) -> CommutatorCert:
    """Given a_1 ... a_k = e, certify a_1^-1 ... a_k^-1 with at most
    max(0, k - 2) pairs.

    The element equals (a_k ... a_1)^-1; conjugating by a_1 turns that
    product into a_1 a_k ... a_2, which is reached from a_1 ... a_k by
    k - 2 end-moves, each emitting one pair.  Before the move of a_j
    the word is (a_1 ... a_{j-1}) a_j (a_k ... a_{j+1}): the prefix
    products are computed once and the tail grows by one letter per
    move, so each move costs O(1) products.

    Checks: every move against the running value, the final value
    against the rotated word, the target and the bound.  The returned
    certificate is not multiplied out; a caller that does not check it
    itself must call check().
    """
    k = len(elements)
    if k == 0:
        raise PreconditionError("need at least one element")
    e = group_identity(elements[0])
    prefix = [e]
    for a in elements:
        prefix.append(prefix[-1] * a)
    value = prefix[-1]
    if value != e:
        raise PreconditionError("elements do not multiply to the identity")
    target = product((a.inverse() for a in elements), e)
    if k <= 2:
        return CommutatorCert((), target).check()

    pairs: list[tuple[object, object]] = []
    tail = elements[-1]
    for j in range(k - 1, 1, -1):  # letter a_j goes to the end
        x = elements[j - 1]
        pair, value = _move_pair(prefix[j - 1], x, tail, value, front=False)
        pairs.append(pair)
        tail = tail * x
    final = product([elements[0], *elements[:0:-1]], e)
    if value != final:
        raise VerificationError("inverse-product moves do not reach the final word")
    # e = eval(final) * [p_m] ... [p_1], so eval(final) factors as
    # [p_1]^-1 ... [p_m]^-1.
    rotated = CommutatorCert(tuple((h, g) for g, h in pairs), final)
    cert = rotated.conjugated(elements[0]).inverse()
    if cert.target != target:
        raise VerificationError("inverse-product certificate has the wrong target")
    if len(cert) > max(0, k - 2):
        raise VerificationError("inverse-product certificate exceeded its bound")
    return cert


def transfer_cert(letters: tuple, cert_a: CommutatorCert) -> CommutatorCert:
    """Given an identity word whose a-letters read a_1^-1 ... a_p^-1 and
    whose b-letters read b_1 ... b_q, in word order and interleaved, turn
    a certificate for a = a_1^-1 ... a_p^-1 into one for
    b = b_1^-1 ... b_q^-1 with at most |cert_a| + q - 1 extra moves.

    Rotation makes b_1 the leading letter (conjugating a), then each of
    b_2 ... b_q is moved to the front in word order, emitting one pair
    per move.  Before the move of the letter at position p the word is
    M H x S: M = b_{j-1} ... b_2 is the running product of the moved
    letters, H the product of the unmoved letters before p, x the
    moving letter and S the suffix product after it, computed once.
    So each move costs O(1) products.

    Checks: every move against the running value, the final value
    against the moved word, the link and the bound.  The moves prove
    that the final value is b^-1 a', with a' the conjugated target, so
    the link is target_b * value == a'.  Neither cert_a nor the returned
    certificate is multiplied out; a caller that does not check the
    result itself must call check().
    """
    q = sum(1 for l in letters if l.role == "b")
    if q < 1:
        raise PreconditionError("need at least one b letter")
    e = group_identity(letters[0].value)
    a_value = product((l.value for l in letters if l.role == "a"), e)
    if cert_a.target != a_value:
        raise PreconditionError("certificate target does not match the a product")
    target_b = product((l.value.inverse() for l in letters if l.role == "b"), e)

    # Rotate so that b_1 leads; a becomes a conjugate.
    r = next(p for p, l in enumerate(letters) if l.role == "b")
    rotated = letters[r:] + letters[:r]
    cert = cert_a.conjugated(product((l.value for l in letters[:r]), e))

    suffix = [e] * (len(rotated) + 1)
    for p in range(len(rotated) - 1, -1, -1):
        suffix[p] = rotated[p].value * suffix[p + 1]
    value = suffix[0]
    if value != e:
        raise PreconditionError("word does not evaluate to the identity")
    moved_value, head = e, rotated[0].value  # M, and H before position 1
    pairs: list[tuple[object, object]] = []
    for p in range(1, len(rotated)):
        x = rotated[p].value
        if rotated[p].role == "a":
            head = head * x
            continue
        pair, value = _move_pair(moved_value * head, x, suffix[p + 1], value, front=True)
        pairs.append(pair)
        moved_value = x * moved_value
    if value != moved_value * head:
        raise VerificationError("front moves do not reach the final word")
    if target_b * value != cert.target:
        raise VerificationError("transferred certificate does not link to the conjugated target")

    # e = eval(final) * [p_m] ... [p_1] and eval(final) = b^-1 * a', so
    # b = a' * [p_m] ... [p_1].
    out = CommutatorCert(cert.pairs + tuple(reversed(pairs)), target_b)
    if len(out) > len(cert_a) + q - 1:
        raise VerificationError("transferred certificate exceeded its bound")
    return out
