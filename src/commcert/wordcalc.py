"""Certificate-producing word calculus over any group with exact equality.

The group elements are duck-typed: anything with *, inverse() and ==
works, and both Quat and MatD qualify.  Every move on a word emits an
explicit commutator pair that repairs the evaluation, so certificates
are built by construction and re-verified before they are returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import PreconditionError, VerificationError
from .matrix import MatD
from .quaternion import Quat


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


def comm(g, h):
    return g * h * g.inverse() * h.inverse()


class Letter(NamedTuple):
    role: str  # 'a' or 'b'
    idx: int
    value: object


@dataclass(frozen=True)
class Word:
    letters: tuple[Letter, ...]

    def evaluate(self):
        if not self.letters:
            raise PreconditionError("cannot evaluate an empty word without context")
        e = group_identity(self.letters[0].value)
        return product((l.value for l in self.letters), e)

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class CommutatorCert:
    """Ordered witness pairs whose commutator product equals target."""

    pairs: tuple[tuple[object, object], ...]
    target: object

    def __len__(self) -> int:
        return len(self.pairs)

    def verify(self) -> bool:
        e = group_identity(self.target)
        acc = e
        for g, h in self.pairs:
            acc = acc * comm(g, h)
        return acc == self.target

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

    def concat(self, other: "CommutatorCert") -> "CommutatorCert":
        return CommutatorCert(self.pairs + other.pairs, self.target * other.target)


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


def _checked_move(w: Word, idx: int, moved: tuple, front: bool):
    letters = w.letters
    e = group_identity(letters[0].value)
    u = product((l.value for l in letters[:idx]), e)
    v = product((l.value for l in letters[idx + 1:]), e)
    pair, value = _move_pair(u, letters[idx].value, v, w.evaluate(), front)
    out = Word(moved)
    if value != out.evaluate():
        raise VerificationError("letter move failed its multiplication check")
    return out, pair


def move_letter_front(w: Word, idx: int) -> tuple[Word, tuple[object, object]]:
    """Move letter idx to the front; the emitted pair (g, h) satisfies
    eval(w) = eval(result) * [g, h] exactly.

    From u x v = x u v * (v^-1 [u^-1, x^-1] v) the pair is the
    v-conjugate (v^-1 u^-1 v, v^-1 x^-1 v).
    """
    letters = w.letters
    if not (0 <= idx < len(letters)):
        raise PreconditionError("letter index out of range")
    if idx == 0:
        e = group_identity(letters[0].value)
        return w, (e, e)
    moved = (letters[idx],) + letters[:idx] + letters[idx + 1:]
    return _checked_move(w, idx, moved, front=True)


def move_letter_end(w: Word, idx: int) -> tuple[Word, tuple[object, object]]:
    """Move letter idx to the end; from u x v = u v x * [x^-1, v^-1]
    the emitted pair is (x^-1, v^-1)."""
    letters = w.letters
    if not (0 <= idx < len(letters)):
        raise PreconditionError("letter index out of range")
    if idx == len(letters) - 1:
        e = group_identity(letters[0].value)
        return w, (e, e)
    moved = letters[:idx] + letters[idx + 1:] + (letters[idx],)
    return _checked_move(w, idx, moved, front=False)


def cert_inverse_product(elements: Sequence) -> CommutatorCert:
    """Given a_1 ... a_k = e, certify a_1^-1 ... a_k^-1 with at most
    max(0, k - 2) pairs.

    The element equals (a_k ... a_1)^-1; conjugating by a_1 turns that
    product into a_1 a_k ... a_2, which is reached from a_1 ... a_k by
    k - 2 end-moves, each emitting one pair.  Before the move of a_j
    the word is (a_1 ... a_{j-1}) a_j (a_k ... a_{j+1}): the prefix
    products are computed once and the tail grows by one letter per
    move, so each move costs O(1) products.
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
    return cert.check()


def _suffix_products(values: Sequence, skip: set, e) -> list:
    """out[p] = product of values[p:] leaving out the positions in skip."""
    out = [e] * (len(values) + 1)
    for p in range(len(values) - 1, -1, -1):
        out[p] = out[p + 1] if p in skip else values[p] * out[p + 1]
    return out


def transfer_cert(w: Word, cert_a: CommutatorCert) -> CommutatorCert:
    """Given an identity word whose letters are a_1^-1 ... a_p^-1 (in
    ascending index order) interleaved with b_1 ... b_q, turn a
    certificate for a = a_1^-1 ... a_p^-1 into one for
    b = b_1^-1 ... b_q^-1 with at most |cert_a| + q - 1 extra moves.

    Rotation makes b_1 the leading letter (conjugating a), then each of
    b_2 ... b_q is moved to the front, emitting one pair per move.
    Before a move the word is M R, where M = b_{j-1} ... b_2 is the
    running product of the moved letters and R the remaining letters
    in rotated order.  The product of R before the moving letter grows
    along the word and the products after it are cached suffixes, so a
    move costs O(1) products; a letter that sits before an already
    moved one rebuilds both caches.
    """
    letters = w.letters
    a_letters = [l for l in letters if l.role == "a"]
    b_letters = [l for l in letters if l.role == "b"]
    q = len(b_letters)
    if q < 1:
        raise PreconditionError("need at least one b letter")
    if sorted(l.idx for l in b_letters) != list(range(1, q + 1)):
        raise PreconditionError("b letters must be indexed 1..q, once each")
    if [l.idx for l in a_letters] != sorted(l.idx for l in a_letters):
        raise PreconditionError("a letters must appear in ascending index order")
    e = group_identity(letters[0].value)
    if w.evaluate() != e:
        raise PreconditionError("word does not evaluate to the identity")
    a_value = product((l.value for l in a_letters), e)
    if cert_a.target != a_value:
        raise PreconditionError("certificate target does not match the a product")
    target_b = product((l.value.inverse() for l in sorted(b_letters, key=lambda l: l.idx)), e)

    # Rotate so that b_1 leads; a becomes a conjugate.
    r = next(p for p, l in enumerate(letters) if l.role == "b" and l.idx == 1)
    prefix_a = product((l.value for l in letters[:r] if l.role == "a"), e)
    rotated = letters[r:] + letters[:r]
    cert = cert_a.conjugated(prefix_a)

    values = [l.value for l in rotated]
    where = {l.idx: p for p, l in enumerate(rotated) if l.role == "b"}
    value = product(values, e)
    moved: set[int] = set()
    moved_value, last = e, -1  # M, and the rightmost moved position
    suffix = _suffix_products(values, moved, e)
    head, scanned = e, 0  # product of the unmoved letters of rotated[:scanned]
    pairs: list[tuple[object, object]] = []
    for bidx in range(2, q + 1):
        pos = where[bidx]
        if pos < last:
            suffix = _suffix_products(values, moved, e)
            head, scanned = e, 0
        for p in range(scanned, pos):
            if p not in moved:
                head = head * values[p]
        x = values[pos]
        pair, value = _move_pair(moved_value * head, x, suffix[pos + 1], value, front=True)
        pairs.append(pair)
        moved.add(pos)
        moved_value = x * moved_value
        scanned, last = pos + 1, max(last, pos)
    rest = (values[p] for p in range(len(values)) if p not in moved)
    if value != product(rest, moved_value):
        raise VerificationError("front moves do not reach the final word")

    # e = eval(final) * [p_m] ... [p_1] and eval(final) = b^-1 * a', so
    # b = a' * [p_m] ... [p_1].
    out = CommutatorCert(cert.pairs + tuple(reversed(pairs)), target_b)
    if len(out) > len(cert_a) + q - 1:
        raise VerificationError("transferred certificate exceeded its bound")
    return out.check()
