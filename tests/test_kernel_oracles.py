"""The integer matrix product, inverse and determinant, the diagonal
twist, the transvection kernel and the integer twisted solve against
the Quat-level and Fraction algorithms they replaced, kept here or in
tests/test_mirrors.py as oracles, plus algebraic properties of the
kernels.

Every case runs over five algebras: (-1/2, -3/7) has ad * bd != 1, and
the last one is indefinite, where twisted systems with
nrd(p) * nrd(q) != 1 can still be singular and some pivots are zero
divisors.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from commcert import (
    MatD,
    Quat,
    QuaternionAlgebra,
    SingularMatrixError,
    dieudonne_det,
    mat_inv,
    random_quat,
    solve_twisted,
)
from commcert.certify import random_unitriangular
from commcert.errors import (
    AlgebraMismatchError,
    NotDivisionAlgebraError,
    PreconditionError,
    SingularTwistedSystemError,
    ZeroInputError,
)
from commcert.matrix import random_invertible
from commcert.quaternion import int_mul

PARAMS = [(-1, -1), (-1, -3), (-2, -5), (Fraction(-1, 2), Fraction(-3, 7)),
          (Fraction(3, 2), Fraction(-5, 3))]
ALGEBRAS = [QuaternionAlgebra(a, b) for a, b in PARAMS]
IDS = [f"({a},{b})" for a, b in PARAMS]


@pytest.fixture(params=ALGEBRAS, ids=IDS)
def any_alg(request):
    return request.param


# -- oracles: the algorithms before the integer kernels ----------------------


def fraction_quat_mul(p, q):
    """The product from the multiplication table of the basis, on Fractions."""
    a, b = p.alg.a, p.alg.b
    # e_s * e_t = coef * e_u for the basis 1, i, j, k
    table = {
        (1, 1): (a, 0), (2, 2): (b, 0), (3, 3): (-a * b, 0),
        (1, 2): (1, 3), (2, 1): (-1, 3), (1, 3): (a, 2), (3, 1): (-a, 2),
        (2, 3): (-b, 1), (3, 2): (b, 1),
    }
    out = [Fraction(0)] * 4
    for s, u in enumerate(p.coords()):
        for t, v in enumerate(q.coords()):
            coef, e = (1, s + t) if s == 0 or t == 0 else table[s, t]
            out[e] += coef * u * v
    return p.alg.quat(*out)


def dense_mat_mul(x, y):
    """The Quat-level product loop: one Quat per term and per partial sum."""
    n, zero = x.n, x.alg.zero
    out = []
    for arow in x.rows:
        row = [zero] * n
        for j, aij in enumerate(arow):
            if aij.is_zero():
                continue
            for k, bjk in enumerate(y.rows[j]):
                if not bjk.is_zero():
                    term = bjk if aij.is_one() else aij * bjk
                    row[k] = term if row[k].is_zero() else row[k] + term
        out.append(row)
    return MatD(x.alg, out)


def dense_mat_inv(g):
    n, alg = g.n, g.alg
    work = [list(row) for row in g.rows]
    aug = [list(MatD.identity(alg, n).rows[i]) for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not work[r][col].is_zero()), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            aug[col], aug[piv] = aug[piv], aug[col]
        pinv = work[col][col].inverse()
        work[col] = [pinv * v for v in work[col]]
        aug[col] = [pinv * v for v in aug[col]]
        for r in range(n):
            if r != col and not work[r][col].is_zero():
                f = work[r][col]
                work[r] = [vr - f * vc for vr, vc in zip(work[r], work[col])]
                aug[r] = [vr - f * vc for vr, vc in zip(aug[r], aug[col])]
    return MatD(alg, aug)


def dense_det(g):
    """(representative, reduced norm) by the full row-update loop."""
    n = g.n
    work = [list(row) for row in g.rows]
    for col in range(n):
        if work[col][col].is_zero():
            src = next((r for r in range(col + 1, n) if not work[r][col].is_zero()), None)
            if src is None:
                raise SingularMatrixError("matrix is singular")
            work[col] = [a + b for a, b in zip(work[col], work[src])]
        pinv = work[col][col].inverse()
        for r in range(n):
            if r != col and not work[r][col].is_zero():
                f = work[r][col] * pinv
                work[r] = [vr - f * vc for vr, vc in zip(work[r], work[col])]
    rep = g.alg.one
    for i in range(n):
        rep = rep * work[i][i]
    return rep, rep.nrd()


def _solve4(mat, rhs):
    m = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(4):
        piv = next((r for r in range(col, 4) if m[r][col] != 0), None)
        if piv is None:
            raise SingularTwistedSystemError(
                "singular twisted system: reduced norms are not separated"
            )
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(4):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [vr - f * vc for vr, vc in zip(m[r], m[col])]
    return [m[r][4] for r in range(4)]


def fraction_solve_twisted(p, q, r):
    alg = p.alg
    cols = [(e - p * e * q).coords() for e in alg.basis()]
    mat = [[cols[c][ro] for c in range(4)] for ro in range(4)]
    x = alg.quat(*_solve4(mat, list(r.coords())))
    if x - p * x * q != r:
        raise SingularTwistedSystemError("twisted solve verification failed")
    return x


def det4(m):
    """Determinant of a 4x4 integer matrix by fraction-free (Bareiss)
    elimination: every division is exact, so entries stay integers of
    the size of the minors."""
    m = [row[:] for row in m]
    sign, prev = 1, 1
    for k in range(3):
        if m[k][k] == 0:
            piv = next((r for r in range(k + 1, 4) if m[r][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pk, mkk = m[k], m[k][k]
        for r in range(k + 1, 4):
            mr = m[r]
            mrk = mr[k]
            for j in range(k + 1, 4):
                mr[j] = (mkk * mr[j] - mrk * pk[j]) // prev
        prev = mkk
    return sign * m[3][3]


def bareiss_solve_twisted(p, q, r):
    """The integer 4x4 route: column c holds the coordinates of
    e_c - p*e_c*q; scaling it by their common denominator den_c and the
    right-hand side by r.den leaves an integer system A y = b with
    x_c = den_c * y_c / r.den, solved by Cramer's rule with Bareiss
    determinants."""
    alg = p.alg
    imgs = [e - p * e * q for e in alg.basis()]
    # rows index the coordinate, columns the basis element
    a = [[img.wn for img in imgs], [img.xn for img in imgs],
         [img.yn for img in imgs], [img.zn for img in imgs]]
    det = det4(a)
    if det == 0:
        raise SingularTwistedSystemError(
            "singular twisted system: reduced norms are not separated"
        )
    b = (r.wn, r.xn, r.yn, r.zn)
    num = []
    for c, img in enumerate(imgs):
        cramer = [row[:c] + [b[ro]] + row[c + 1:] for ro, row in enumerate(a)]
        num.append(img.den * det4(cramer))
    x = Quat(alg, num[0], num[1], num[2], num[3], r.den * det)
    if x - p * x * q != r:
        raise SingularTwistedSystemError("twisted solve verification failed")
    return x


def leibniz_det4(m):
    total = 0
    for perm in itertools.permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
        term = -1 if inversions % 2 else 1
        for row, col in enumerate(perm):
            term *= m[row][col]
        total += term
    return total


def outcome(fn, *args):
    """The value, or the exception class and message, of fn(*args)."""
    try:
        return fn(*args)
    except (SingularMatrixError, SingularTwistedSystemError, NotDivisionAlgebraError) as exc:
        return type(exc), str(exc)


def det_outcome(g):
    try:
        d = dieudonne_det(g)
    except (SingularMatrixError, NotDivisionAlgebraError) as exc:
        return type(exc), str(exc)
    return d.representative, d.invariant


# -- matrix families ---------------------------------------------------------


def unit(alg, rng):
    """A random unit; the indefinite algebra has zero divisors too."""
    while True:
        q = random_quat(alg, rng, span=2, nonzero=True)
        if q.nrd() != 0:
            return q


def permutation_matrix(alg, perm, entries=None):
    n = len(perm)
    rows = [[alg.zero] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = entries[i] if entries else alg.one
    return MatD(alg, rows)


def ldu(alg, n, rng, perm=None):
    """L * P * U with L lower and U upper unitriangular and P a
    permutation (identity by default) with unit entries."""
    perm = perm or list(range(n))
    p = permutation_matrix(alg, perm, [unit(alg, rng) for _ in range(n)])
    lower = random_unitriangular(alg, n, rng, lower=True, span=2)
    upper = random_unitriangular(alg, n, rng, lower=False, span=2)
    return lower * p * upper


def with_zero_leading_pivots(alg, n, rng):
    """Invertible, with row 1 of L P U equal to a multiple of row 2 of
    U, so the (1, 1) entry is zero and elimination must swap or repair."""
    return ldu(alg, n, rng, list(range(1, n)) + [0])


def singular_in_last_column(alg, n, rng):
    """Invertible leading (n-1) x (n-1) block, last row a left
    combination of the others: elimination meets a zero pivot only in
    column n."""
    rows = [list(r) for r in ldu(alg, n, rng).rows[:-1]]
    last = [alg.zero] * n
    for row in rows:
        c = random_quat(alg, rng)
        last = [v + c * w for v, w in zip(last, row)]
    return MatD(alg, rows + [last])


def matrix_cases(alg, seed):
    rng = random.Random(seed)
    cases = []
    for n in range(1, 6):
        cases.append(random_invertible(alg, n, rng, random_quat))
        cases.append(random_invertible(alg, n, rng, random_quat, extra_factors=3 * n))
        cases.append(MatD.diagonal(alg, [unit(alg, rng) for _ in range(n)]))
        cases.append(random_unitriangular(alg, n, rng, lower=True, span=2))
        cases.append(random_unitriangular(alg, n, rng, lower=False, span=2))
        cases.append(ldu(alg, n, rng))
        if n >= 2:
            cases.append(with_zero_leading_pivots(alg, n, rng))
            cases.append(singular_in_last_column(alg, n, rng))
    for perm in itertools.permutations(range(3)):
        cases.append(permutation_matrix(alg, perm))
        cases.append(permutation_matrix(alg, perm, [unit(alg, rng) for _ in range(3)]))
    for perm in ((3, 2, 1, 0), (1, 0, 3, 2), (1, 2, 3, 0)):
        cases.append(permutation_matrix(alg, perm, [unit(alg, rng) for _ in range(4)]))
    return cases


def dense_quat(alg, rng, dens=(1, 1, 2, 3, 35)):
    return random_quat(alg, rng, span=9, denominators=dens)


def random_dense(alg, n, rng):
    return MatD(alg, [[dense_quat(alg, rng) for _ in range(n)] for _ in range(n)])


def with_zero_lines(alg, n, rng):
    """Dense, except one zero row and one zero column."""
    rows = [list(r) for r in random_dense(alg, n, rng).rows]
    i, j = rng.randrange(n), rng.randrange(n)
    rows[i] = [alg.zero] * n
    for row in rows:
        row[j] = alg.zero
    return MatD(alg, rows)


def with_units(alg, n, rng):
    """Entries 0, 1 and -1 with a few dense ones."""
    pick = (alg.zero, alg.one, -alg.one, None)
    return MatD(alg, [[rng.choice(pick) or dense_quat(alg, rng) for _ in range(n)]
                      for _ in range(n)])


def with_huge_entry(alg, n, rng):
    """One entry past 4300 digits, over a large denominator."""
    rows = [list(r) for r in random_dense(alg, n, rng).rows]
    rows[rng.randrange(n)][rng.randrange(n)] = Quat(
        alg, 10 ** 4400 + 7, -(3 ** 9000), 1, 2 ** 14700 + 1, 7 ** 5200)
    return MatD(alg, rows)


def product_cases(alg, seed):
    rng = random.Random(seed)
    families = [
        random_dense,
        lambda alg, n, rng: random_unitriangular(alg, n, rng, lower=True, span=3),
        lambda alg, n, rng: random_unitriangular(alg, n, rng, lower=False, span=3),
        lambda alg, n, rng: MatD.diagonal(alg, [dense_quat(alg, rng) for _ in range(n)]),
        with_zero_lines,
        with_units,
        lambda alg, n, rng: MatD.identity(alg, n),
    ]
    cases = []
    for n in (1, 2, 3, 5):
        for fx in families:
            for fy in families:
                cases.append((fx(alg, n, rng), fy(alg, n, rng)))
    for n in (2, 3):
        cases.append((with_huge_entry(alg, n, rng), random_dense(alg, n, rng)))
        cases.append((with_units(alg, n, rng), with_huge_entry(alg, n, rng)))
        cases.append((with_huge_entry(alg, n, rng), with_huge_entry(alg, n, rng)))
    return cases


# -- matrix product ----------------------------------------------------------


class TestProductMatchesOracles:
    def test_quat_product_matches_basis_table(self, any_alg):
        rng = random.Random(7)
        for _ in range(300):
            p, q = dense_quat(any_alg, rng), dense_quat(any_alg, rng)
            assert p * q == fraction_quat_mul(p, q)
        huge = with_huge_entry(any_alg, 1, rng).entry(1, 1)
        assert huge * p == fraction_quat_mul(huge, p)
        assert p * huge == fraction_quat_mul(p, huge)

    def test_int_mul_of_conjugate_is_the_norm(self, any_alg):
        rng = random.Random(8)
        for _ in range(100):
            p = dense_quat(any_alg, rng, dens=(1,))
            w, x, y, z = p.wn, p.xn, p.yn, p.zn
            assert int_mul(any_alg.consts, w, -x, -y, -z, w, x, y, z) == (
                p.nrd() * any_alg.consts[0], 0, 0, 0)

    @pytest.mark.parametrize("seed", range(2))
    def test_mat_mul(self, any_alg, seed):
        for x, y in product_cases(any_alg, seed):
            assert x * y == dense_mat_mul(x, y)

    @pytest.mark.parametrize("dens", [
        ((3, 3, 3), (5, 5, 5)),  # every term over the same denominator
        ((12, 6, 2), (1, 1, 1)),  # each later denominator divides the lcm
        ((5, 7, 11), (1, 1, 1)),  # coprime: the lcm grows by the whole term's
        ((2, 6, 30), (1, 1, 1)),  # the lcm divides the term's and grows
        ((4, 1, 9), (3, 8, 1)),  # all three kinds in one entry
    ], ids=["equal", "dividing", "coprime", "multiple", "mixed"])
    def test_running_lcm_branches(self, any_alg, dens):
        """Entry (1, 1) sums three terms over the denominators
        ad bd dx_j dy_j, so each relation between a term's denominator
        and the running lcm is taken; the first row and column are
        unit-free, so no term passes through."""
        rng = random.Random(11)
        zero = any_alg.zero

        def over(den):
            # a numerator coordinate 1 keeps den in lowest terms
            return Quat(any_alg, 1, rng.randrange(-5, 6), rng.randrange(-5, 6), 2, den)

        (dx, dy), n = dens, 3
        rows_x = [[over(d) for d in dx]] + [[zero] * n for _ in range(n - 1)]
        rows_y = [[over(d)] + [zero] * (n - 1) for d in dy]
        x, y = MatD(any_alg, rows_x), MatD(any_alg, rows_y)
        assert x * y == dense_mat_mul(x, y)
        dense = random_dense(any_alg, n, rng)
        assert x * dense == dense_mat_mul(x, dense) and dense * y == dense_mat_mul(dense, y)

    def test_sum_cancelling_to_zero(self, any_alg):
        """q r / 2 and (2q)(-r / 4) cancel over a grown lcm, and q r and
        q (-r) over an equal one: each entry is the stored zero."""
        rng = random.Random(12)
        q, r = dense_quat(any_alg, rng), dense_quat(any_alg, rng)
        zero, half, quarter = any_alg.zero, any_alg.scalar(Fraction(1, 2)), any_alg.scalar(
            Fraction(-1, 4))
        x = MatD(any_alg, [[q, q.scale(2)], [q, q]])
        y = MatD(any_alg, [[r * half, zero], [r * quarter, zero]])
        y2 = MatD(any_alg, [[r, zero], [-r, zero]])
        for a, b, cancelled in ((x, y, (1, 1)), (x, y2, (2, 1))):
            got = a * b
            assert got == dense_mat_mul(a, b)
            entry = got.entry(*cancelled)
            assert entry.is_zero() and entry.den == 1

    def test_unit_rows_pass_entries_through(self, any_alg):
        y = random_dense(any_alg, 3, random.Random(9))
        assert all(a is b for ra, rb in zip((MatD.identity(any_alg, 3) * y).rows, y.rows)
                   for a, b in zip(ra, rb))


# -- properties --------------------------------------------------------------


@st.composite
def matrices(draw, alg, n):
    entry = st.one_of(
        st.sampled_from((alg.zero, alg.one)),
        st.builds(lambda w, x, y, z, d: Quat(alg, w, x, y, z, d),
                  *[st.integers(-40, 40)] * 4, st.sampled_from((1, 2, 3, 35))),
    )
    return MatD(alg, [[draw(entry) for _ in range(n)] for _ in range(n)])


def drawn(data, n, count):
    alg = data.draw(st.sampled_from(ALGEBRAS), label="algebra")
    return [data.draw(matrices(alg, n)) for _ in range(count)]


class TestKernelProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 4))
    def test_product_is_associative(self, data, n):
        x, y, z = drawn(data, n, 3)
        assert (x * y) * z == x * (y * z)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 4))
    def test_inverse_is_two_sided(self, data, n):
        (g,) = drawn(data, n, 1)
        try:
            inv = mat_inv(g)
        except (SingularMatrixError, NotDivisionAlgebraError):
            assume(False)
        ident = MatD.identity(g.alg, n)
        assert g * inv == ident
        assert inv * g == ident

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 4))
    def test_det_norm_is_multiplicative(self, data, n):
        x, y = drawn(data, n, 2)
        try:
            dx, dy, dxy = (dieudonne_det(m).invariant for m in (x, y, x * y))
        except (SingularMatrixError, NotDivisionAlgebraError):
            assume(False)
        assert dxy == dx * dy


# -- Gauss-Jordan inverse and Dieudonne determinant --------------------------


def check_inverse_against_oracle(g):
    """mat_inv agrees with the dense oracle, except where the oracle
    pivots on a zero divisor and mat_inv finds a unit pivot: then the
    inverse must be two-sided.  Returns True in that case."""
    got, want = outcome(mat_inv, g), outcome(dense_mat_inv, g)
    if isinstance(got, MatD) and isinstance(want, tuple):
        assert want[0] is NotDivisionAlgebraError
        ident = MatD.identity(g.alg, g.n)
        assert g * got == ident
        assert got * g == ident
        return True
    assert got == want
    return False


def check_det_against_oracle(g):
    """dieudonne_det agrees with the dense oracle, except where the oracle
    pivots on a zero divisor: then dieudonne_det has a class if g is
    invertible and raises otherwise.  Returns True for an invertible g
    that the oracle failed on."""
    got, want = det_outcome(g), outcome(dense_det, g)
    if want[0] is not NotDivisionAlgebraError:
        assert got == want
        return False
    if not isinstance(outcome(mat_inv, g), MatD):
        assert got[0] in (SingularMatrixError, NotDivisionAlgebraError)
        return False
    assert isinstance(got[0], Quat) and got[1] != 0
    return True


def check_det_class(g, y):
    """For invertible g: nrd(det g) nrd(det g^-1) = 1, and the invariant
    is multiplicative over g * y and y * g."""
    dg, dy = dieudonne_det(g).invariant, dieudonne_det(y).invariant
    assert dg * dieudonne_det(mat_inv(g)).invariant == 1
    assert dieudonne_det(g * y).invariant == dg * dy == dieudonne_det(y * g).invariant


class TestEliminationsMatchDenseOracles:
    @pytest.mark.parametrize("seed", range(3))
    def test_mat_inv(self, any_alg, seed):
        for g in matrix_cases(any_alg, seed):
            check_inverse_against_oracle(g)

    def test_unit_pivots_invert_past_zero_divisors(self):
        """Over the indefinite algebra the dense oracle meets zero-divisor
        pivots on invertible matrices; mat_inv inverts every one of them."""
        alg = ALGEBRAS[-1]
        rescued = sum(check_inverse_against_oracle(g)
                      for seed in range(3) for g in matrix_cases(alg, seed))
        assert rescued > 0
        z = alg.quat(-1, 3, -3, 1)
        assert z.nrd() == 0
        one, zero = alg.one, alg.zero
        g = MatD(alg, [[z, one], [one, zero]])
        assert mat_inv(g) == MatD(alg, [[zero, one], [one, -z]])
        assert check_inverse_against_oracle(g)
        with pytest.raises(NotDivisionAlgebraError):
            mat_inv(MatD(alg, [[z, one], [z, zero]]))  # no unit in column 1
        with pytest.raises(SingularMatrixError):
            mat_inv(MatD(alg, [[zero, one], [zero, z]]))

    def test_zero_divisor_products_leave_no_entry(self):
        """z * conj(z) = 0 for a zero divisor z.  An elimination step whose
        product is that zero must leave the entry empty, as the dense
        oracle does: otherwise the pivot search takes it for a nonzero
        entry."""
        alg = ALGEBRAS[-1]
        z = alg.quat(-1, 3, -3, 1)
        assert z * z.conj() == alg.zero
        one, zero = alg.one, alg.zero
        g = MatD(alg, [[one, z.conj(), zero], [z, zero, one], [zero, one, zero]])
        assert det_outcome(g) == outcome(dense_det, g) == (-one, 1)
        check_inverse_against_oracle(g)
        s = MatD(alg, [[one, z.conj()], [z, zero]])
        assert outcome(mat_inv, s) == outcome(dense_mat_inv, s)
        with pytest.raises(SingularMatrixError):
            mat_inv(s)

    @pytest.mark.parametrize("seed", range(3))
    def test_dieudonne_det(self, any_alg, seed):
        rng = random.Random(seed)
        for g in matrix_cases(any_alg, seed):
            if check_det_against_oracle(g):
                check_det_class(g, random_invertible(any_alg, g.n, rng, random_quat))

    def test_zero_leading_pivot_needs_a_swap(self, any_alg):
        g = with_zero_leading_pivots(any_alg, 3, random.Random(1))
        assert g.entry(1, 1).is_zero()
        ident = MatD.identity(any_alg, 3)
        assert g * mat_inv(g) == ident == mat_inv(g) * g
        # a zero-divisor pivot gains a unit lower row, so the class exists
        # in the indefinite algebra too
        assert check_det_against_oracle(g) == (any_alg == ALGEBRAS[-1])
        check_det_class(g, random_invertible(any_alg, 3, random.Random(2), random_quat))

    def test_unit_pivots_give_classes_past_zero_divisors(self):
        """Over the indefinite algebra the dense oracle meets zero-divisor
        pivots on invertible matrices; dieudonne_det gives each one a class."""
        alg = ALGEBRAS[-1]
        rescued = sum(check_det_against_oracle(g)
                      for seed in range(3) for g in matrix_cases(alg, seed))
        assert rescued > 0
        z = alg.quat(-1, 3, -3, 1)
        one, zero = alg.one, alg.zero
        g = MatD(alg, [[z, one], [one, zero]])  # the pivot z + 1 is a unit
        assert check_det_against_oracle(g)
        check_det_class(g, g)
        # z + t z = (1 + t) z is never a unit: no unit below the pivot
        with pytest.raises(NotDivisionAlgebraError):
            dieudonne_det(MatD(alg, [[z, one], [z, zero]]))
        with pytest.raises(SingularMatrixError):
            dieudonne_det(MatD(alg, [[zero, one], [zero, z]]))

    def test_singular_only_in_last_column(self, any_alg):
        rng = random.Random(2)
        for n in (2, 3, 4):
            g = singular_in_last_column(any_alg, n, rng)
            head = MatD(any_alg, [row[:-1] for row in g.rows[:-1]])
            assert mat_inv(head) == dense_mat_inv(head)  # the block is invertible
            with pytest.raises(SingularMatrixError):
                mat_inv(g)
            with pytest.raises(SingularMatrixError):
                dieudonne_det(g)
            with pytest.raises(SingularMatrixError):
                dense_mat_inv(g)

    @pytest.mark.parametrize("perm", [(1, 0), (2, 0, 1), (1, 0, 3, 2), (3, 2, 1, 0)])
    def test_pivot_repair(self, any_alg, perm):
        """The (1, 1) entry of these is zero, so dieudonne_det repairs the
        pivot by adding a lower row; the class of a permutation matrix
        with unit entries has the product of the entries' norms."""
        rng = random.Random(3)
        entries = [unit(any_alg, rng) for _ in perm]
        g = permutation_matrix(any_alg, perm, entries)
        assert det_outcome(g) == dense_det(g)
        norm = 1
        for e in entries:
            norm *= e.nrd()
        assert dieudonne_det(g).invariant == norm


# -- diagonal twist ----------------------------------------------------------


def sparse(alg, n, rng):
    """About one entry in four nonzero, the diagonal included."""
    return MatD(alg, [[dense_quat(alg, rng) if rng.random() < 0.25 else alg.zero
                       for _ in range(n)] for _ in range(n)])


TWIST_FAMILIES = {
    "dense": random_dense,
    "upper": lambda alg, n, rng: random_unitriangular(alg, n, rng, lower=False, span=3),
    "lower": lambda alg, n, rng: random_unitriangular(alg, n, rng, lower=True, span=3),
    "sparse": sparse,
}


def twist_factors(alg, n, rng):
    """All ones, the two slots k, k + 1 of an absorption at every k, and
    every slot; factors are units with denominators up to 35."""
    def factor():
        while True:
            q = dense_quat(alg, rng)
            if not q.is_zero() and q.nrd() != 0:
                return q

    out = [[alg.one] * n]
    for k in range(n - 1):
        d = [alg.one] * n
        d[k], d[k + 1] = factor(), factor()
        out.append(d)
    out.append([factor() for _ in range(n)])
    return out


def twist_outcome(fn, m, d):
    try:
        return fn(m, d)
    except (ZeroInputError, NotDivisionAlgebraError, AlgebraMismatchError) as exc:
        return type(exc), str(exc)


def numerators(m):
    return [[(q.wn, q.xn, q.yn, q.zn, q.den) for q in row] for row in m.rows]


def mirrors():
    """tests/test_mirrors.py, which keeps the old bodies of the twist and
    the transvection kernel; imported on use, because it imports this
    module at its top."""
    import test_mirrors
    return test_mirrors


class TestDiagonalTwistMatchesOracle:
    @pytest.mark.parametrize("family", sorted(TWIST_FAMILIES))
    def test_matches_oracle(self, any_alg, family):
        oracle = mirrors().oracle_conjugate_by_diagonal
        rng = random.Random(sorted(TWIST_FAMILIES).index(family))
        for n in range(1, 7):
            for _ in range(3):
                m = TWIST_FAMILIES[family](any_alg, n, rng)
                for d in twist_factors(any_alg, n, rng):
                    got, want = m.conjugate_by_diagonal(d), oracle(m, d)
                    assert got.rows == want.rows
                    assert numerators(got) == numerators(want)

    def test_only_moved_entries_are_rebuilt(self, any_alg):
        rng = random.Random(5)
        for family in TWIST_FAMILIES.values():
            m = family(any_alg, 5, rng)
            for d in twist_factors(any_alg, 5, rng):
                got = m.conjugate_by_diagonal(d)
                if all(e.is_one() for e in d):
                    assert got is m
                    continue
                for i, j in itertools.product(range(5), repeat=2):
                    q = m.rows[i][j]
                    kept = ((d[i].is_one() and d[j].is_one()) or q.is_zero()
                            or (i == j and q.is_one()))
                    if kept:
                        assert got.rows[i][j] is q

    def test_zero_and_zero_divisor_factors_in_slot_order(self):
        """Over (3/2, -5/3), a zero factor raises ZeroInputError and a
        zero divisor NotDivisionAlgebraError, the first in slot order,
        before any entry is made: as the oracle's inverses do."""
        alg = ALGEBRAS[-1]
        z = alg.quat(-1, 3, -3, 1)
        assert not z.is_zero() and z.nrd() == 0
        rng = random.Random(6)
        u = unit(alg, rng)
        oracle = mirrors().oracle_conjugate_by_diagonal
        zero = MatD(alg, [[alg.zero] * 3] * 3)
        for m in (MatD.identity(alg, 3), random_dense(alg, 3, rng), zero):
            for d, exc in [([u, alg.zero, u], ZeroInputError),
                           ([alg.one, z, u], NotDivisionAlgebraError),
                           ([z, alg.zero, alg.one], NotDivisionAlgebraError),
                           ([alg.zero, z, alg.one], ZeroInputError)]:
                with pytest.raises(exc):
                    m.conjugate_by_diagonal(d)
                assert twist_outcome(MatD.conjugate_by_diagonal, m, d) == twist_outcome(
                    oracle, m, d)

    def test_factor_from_another_algebra(self):
        alg, other = ALGEBRAS[0], ALGEBRAS[1]
        m = random_unitriangular(alg, 3, random.Random(7), lower=False, span=2)
        d = [alg.one, other.basis()[1], alg.one]
        for fn in (MatD.conjugate_by_diagonal, mirrors().oracle_conjugate_by_diagonal):
            assert twist_outcome(fn, m, d)[0] is AlgebraMismatchError

    def test_factor_count_must_match(self, any_alg):
        m = MatD.identity(any_alg, 3)
        for d in ([any_alg.one] * 2, [any_alg.one] * 4):
            with pytest.raises(PreconditionError):
                m.conjugate_by_diagonal(d)


# -- transvection kernel -----------------------------------------------------


class TestTransvectionKernelMatchesOracle:
    @pytest.mark.parametrize("seed", range(2))
    def test_matches_oracle(self, any_alg, seed):
        oracle_add_row, oracle_add_col = mirrors().oracle_add_row, mirrors().oracle_add_col
        rng = random.Random(seed)
        families = list(TWIST_FAMILIES.values()) + [with_units, with_zero_lines]
        for n in (2, 3, 5):
            for family in families:
                m = family(any_alg, n, rng)
                for i, j in itertools.permutations(range(1, n + 1), 2):
                    # 1 and -1 pass entries through; -m[i, j] cancels
                    # entry (i, j) of a unitriangular m
                    for xi in (any_alg.one, -any_alg.one, dense_quat(any_alg, rng),
                               -m.entry(i, j)):
                        for got, want in ((m.add_row(i, j, xi), oracle_add_row(m, i, j, xi)),
                                          (m.add_col(i, j, xi), oracle_add_col(m, i, j, xi))):
                            assert got.rows == want.rows
                            assert numerators(got) == numerators(want)

    def test_huge_entries(self, any_alg):
        oracle_add_row, oracle_add_col = mirrors().oracle_add_row, mirrors().oracle_add_col
        rng = random.Random(3)
        m = with_huge_entry(any_alg, 3, rng)
        xi = Quat(any_alg, 3 ** 2000, -1, 7, 2 ** 3000, 5 ** 1000)
        for i, j in itertools.permutations(range(1, 4), 2):
            assert m.add_row(i, j, xi) == oracle_add_row(m, i, j, xi)
            assert m.add_col(i, j, xi) == oracle_add_col(m, i, j, xi)

    def test_factor_from_another_algebra(self):
        m = MatD.identity(ALGEBRAS[0], 3)
        xi = ALGEBRAS[1].basis()[1]
        with pytest.raises(AlgebraMismatchError):
            m.add_row(1, 2, xi)
        with pytest.raises(AlgebraMismatchError):
            m.add_col(1, 2, xi)


# -- integer twisted solve ---------------------------------------------------


def integer_matrices(rng, count):
    """Random 4x4 integer matrices, including zero leading entries,
    repeated rows and large values."""
    out = []
    for t in range(count):
        span = 10 ** (t % 40) if t % 3 == 0 else 3
        m = [[rng.randint(-span, span) for _ in range(4)] for _ in range(4)]
        if t % 4 == 1:
            m[0][0] = 0
            m[1][0] = 0
        if t % 5 == 2:
            m[3] = m[1][:]
        if t % 7 == 3:
            m[2] = [2 * a - b for a, b in zip(m[0], m[1])]
        if t % 6 == 4:
            for row in m:
                row[t % 4] = 0
        out.append(m)
    return out


def zero_divisors(alg, span=3):
    """The nonzero elements with coordinates in [-span, span] and nrd 0;
    none in a division algebra."""
    rng = range(-span, span + 1)
    return [q for c in itertools.product(rng, repeat=4)
            if (q := alg.quat(*c)).nrd() == 0 and not q.is_zero()]


INDEFINITE_ZERO_DIVISORS = zero_divisors(ALGEBRAS[-1])


def twisted_outcomes(p, q, r):
    """The closed form and both oracles, which must agree."""
    got = outcome(solve_twisted, p, q, r)
    assert outcome(fraction_solve_twisted, p, q, r) == got
    assert outcome(bareiss_solve_twisted, p, q, r) == got
    return got


@st.composite
def twisted_systems(draw):
    """(p, q, r, singular) over one of the five algebras: random at 4, 64
    or 1100 bits, or with p = 0, p central, q a conjugate of p^-1
    (nrd(p) * nrd(q) = 1), or, in the indefinite algebra, eigenvalues
    alpha of p and beta of q with alpha * beta = 1 made from zero
    divisors; `singular` is True where the construction forces a
    singular system."""
    kind = draw(st.sampled_from(["random", "zero", "central", "unit-norms", "indefinite"]))
    alg = ALGEBRAS[-1] if kind == "indefinite" else draw(st.sampled_from(ALGEBRAS))
    bits = draw(st.sampled_from((4, 64, 1100)))
    coord = st.integers(-(1 << bits), 1 << bits)

    def quat():
        return Quat(alg, *(draw(coord) for _ in range(4)), draw(st.integers(1, 1 << bits)))

    p, q, r = quat(), quat(), quat()
    singular = kind == "indefinite" or (kind == "unit-norms" and p.nrd() != 0)
    if kind == "zero":
        p = alg.zero
    elif kind == "central":
        p = Quat(alg, p.wn, 0, 0, 0, p.den)
    elif kind == "unit-norms" and p.nrd() != 0:
        t = draw(st.sampled_from(alg.basis()[1:]))
        q = t * p.inverse() * t.inverse()
    elif kind == "indefinite":
        # z has eigenvalues 0 and trd z, so lam + z has lam and lam^-1 + z' has lam^-1
        z, z2 = (draw(st.sampled_from(INDEFINITE_ZERO_DIVISORS)) for _ in range(2))
        lam = alg.scalar(draw(st.sampled_from((1, -2, Fraction(3, 5)))))
        p, q = lam + z, lam.inverse() + z2
    return p, q, r, singular


class TestIntegerTwistedSolve:
    """solve_twisted's closed form against the Fraction elimination and
    the integer Cramer route on Bareiss determinants, which it replaced."""

    def test_bareiss_matches_leibniz(self):
        rng = random.Random(5)
        singular = 0
        for m in integer_matrices(rng, 400):
            copy = [row[:] for row in m]
            assert det4(m) == leibniz_det4(m)
            assert m == copy  # the input is not modified
            singular += leibniz_det4(m) == 0
        assert singular > 50

    def test_bareiss_on_permutations(self):
        for perm in itertools.permutations(range(4)):
            m = [[7 if perm[r] == c else 0 for c in range(4)] for r in range(4)]
            assert det4(m) == leibniz_det4(m) in (7 ** 4, -(7 ** 4))

    @pytest.mark.parametrize("seed", range(2))
    def test_matches_fraction_oracle(self, any_alg, seed):
        rng = random.Random(seed)
        for t in range(80):
            span = 1 if t % 2 else 3
            dens = (1, 1, 2, 3)
            p = random_quat(any_alg, rng, span=span, denominators=dens)
            q = random_quat(any_alg, rng, span=span, denominators=dens)
            r = random_quat(any_alg, rng, span=span, denominators=dens)
            twisted_outcomes(p, q, r)

    @settings(max_examples=150, deadline=None)
    @given(twisted_systems())
    def test_closed_form_matches_both_oracles(self, system):
        p, q, r, singular = system
        got = twisted_outcomes(p, q, r)
        if singular:
            assert got == (SingularTwistedSystemError,
                           "singular twisted system: reduced norms are not separated")

    def test_singular_systems_raise(self, any_alg):
        """x - i x i^-1 vanishes on the centre, whatever the algebra."""
        i = any_alg.basis()[1]
        for r in (any_alg.one, any_alg.quat(2, 1, 0, 3)):
            with pytest.raises(SingularTwistedSystemError, match="not separated"):
                solve_twisted(i, i.inverse(), r)
            twisted_outcomes(i, i.inverse(), r)

    def test_indefinite_singular_beyond_unit_norms(self):
        """In the indefinite algebra the system is singular for some p, q
        with nrd(p) * nrd(q) != 1; all three solvers must refuse them,
        with no NotDivisionAlgebraError from a zero-divisor N."""
        alg = ALGEBRAS[-1]
        assert not alg.is_definite()
        rng = random.Random(11)
        found = 0
        for _ in range(3000):
            p = random_quat(alg, rng, span=2)
            q = random_quat(alg, rng, span=2)
            if p.nrd() * q.nrd() == 1:
                continue
            got = outcome(solve_twisted, p, q, alg.one)
            if isinstance(got, tuple):
                found += 1
                assert got == (SingularTwistedSystemError,
                               "singular twisted system: reduced norms are not separated")
                assert twisted_outcomes(p, q, alg.one) == got
        assert found > 0
