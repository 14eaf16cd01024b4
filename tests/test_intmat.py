"""Exact linear algebra: Smith normal form, determinants, inverses."""

import fractions
import random
import re
import sys
from fractions import Fraction
from itertools import chain, compress
from math import gcd
from operator import itemgetter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torsiontraj import intmat
from torsiontraj.abgroup import (
    FGAbGroup,
    FinAbHom,
    cokernel_group,
    group_from_cokernel,
    hom_analyze,
)
from torsiontraj.errors import (
    DimensionError,
    InvariantError,
    SingularMatrixError,
    ValidationError,
)
from torsiontraj.intmat import (
    IntMatrix,
    RatMatrix,
    SnfDecomposition,
    _ratio_text,
    char_poly,
    det,
    kernel_basis,
    rat_inverse,
    snf,
)
from torsiontraj.lattice import IntersectionLattice, cartan_matrix, discriminant_package
from torsiontraj.links import PlumbingBoundary, Seifert, link_profile
from torsiontraj.monodromy import coxeter_element, variation_cokernel

BRIESKORN_STAR = IntMatrix([[-1, 1, 1, 1], [1, -2, 0, 0], [1, 0, -3, 0], [1, 0, 0, -11]])
NEG_D4 = IntMatrix([[-2, 1, 1, 1], [1, -2, 0, 0], [1, 0, -2, 0], [1, 0, 0, -2]])


def neg_ak(k):
    return IntMatrix(
        [[-2 if i == j else (1 if abs(i - j) == 1 else 0) for j in range(k)] for i in range(k)]
    )


def check_snf(matrix):
    decomp = snf(matrix)
    assert decomp.reconstruct() == matrix
    assert abs(det(decomp.u)) == 1
    assert abs(det(decomp.v)) == 1
    diag = list(decomp.d.diagonal())
    d = decomp.d.to_lists()
    assert all(x == 0 for i, row in enumerate(d) for j, x in enumerate(row) if i != j)
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    assert diag == nonzero + [0] * (len(diag) - len(nonzero))
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    return decomp


def test_snf_minus_two():
    assert check_snf(IntMatrix([[-2]])).d.to_lists() == [[2]]


def test_snf_negative_d4_cartan():
    assert check_snf(NEG_D4).d.diagonal() == (1, 1, 2, 2)


def test_snf_identity():
    for n in (1, 2, 5):
        assert check_snf(IntMatrix.identity(n)).d == IntMatrix.identity(n)


def test_snf_negative_e8_cartan():
    edges = [(1, 3), (3, 4), (2, 4), (4, 5), (5, 6), (6, 7), (7, 8)]
    gram = [[-2 if i == j else 0 for j in range(8)] for i in range(8)]
    for a, b in edges:
        gram[a - 1][b - 1] = gram[b - 1][a - 1] = 1
    assert check_snf(IntMatrix(gram)).d.diagonal() == (1,) * 8


def test_snf_rectangular():
    check_snf(IntMatrix([[2, 4, 6], [4, 8, 12]]))
    check_snf(IntMatrix([[0, 0], [0, 0], [1, 2]]))


def test_det_negative_a3_cartan():
    assert abs(det(neg_ak(3))) == 4


def test_det_brieskorn_star():
    assert det(BRIESKORN_STAR) == 5


def test_det_identity():
    assert det(IntMatrix.identity(4)) == 1


def test_det_requires_square():
    with pytest.raises(DimensionError):
        det(IntMatrix([[1, 2]]))


def test_rat_inverse_brieskorn_fourth_column():
    inv = rat_inverse(BRIESKORN_STAR)
    assert inv.column(3) == (
        Fraction(-6, 5),
        Fraction(-3, 5),
        Fraction(-2, 5),
        Fraction(-1, 5),
    )


def test_rat_inverse_ak_corner():
    for k in (*range(1, 8), 20, 32, 60):
        inv = rat_inverse(neg_ak(k))
        assert inv.entry(0, 0) == Fraction(-k, k + 1)


def test_rat_inverse_identity():
    assert rat_inverse(IntMatrix.identity(3)) == RatMatrix.identity(3)


def test_rat_inverse_singular():
    with pytest.raises(SingularMatrixError):
        rat_inverse(IntMatrix([[1, 2], [2, 4]]))


def random_matrix(rng, max_size=6, bound=9):
    rows = rng.randint(1, max_size)
    cols = rng.randint(1, max_size)
    return IntMatrix(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def test_snf_random_properties():
    rng = random.Random(2026)
    for _ in range(150):
        check_snf(random_matrix(rng))


def minor_gcd_invariant_factors(matrix):
    """Independent oracle: d_k = gcd(k-minors) / gcd((k-1)-minors).

    Computes every k x k minor directly; exponential, so only for tiny
    matrices.
    """
    import itertools
    from math import gcd

    rows, cols = matrix.rows, matrix.cols
    factors = []
    previous = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in itertools.combinations(range(rows), k):
            for csel in itertools.combinations(range(cols), k):
                sub = IntMatrix([[matrix.entry(i, j) for j in csel] for i in rsel])
                g = gcd(g, det(sub))
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return tuple(factors)


def test_snf_against_minor_gcd_oracle():
    rng = random.Random(13)
    for _ in range(80):
        m = random_matrix(rng, max_size=4, bound=6)
        assert snf(m).invariant_factors() == minor_gcd_invariant_factors(m)
    assert minor_gcd_invariant_factors(NEG_D4) == (1, 1, 2, 2)


def test_invariant_factor_product_is_abs_det():
    rng = random.Random(7)
    done = 0
    while done < 60:
        rows = rng.randint(1, 5)
        m = IntMatrix([[rng.randint(-6, 6) for _ in range(rows)] for _ in range(rows)])
        d = det(m)
        if d == 0:
            continue
        product = 1
        for x in snf(m).invariant_factors():
            product *= x
        assert product == abs(d)
        done += 1


def test_rat_inverse_roundtrip():
    rng = random.Random(11)
    done = 0
    while done < 40:
        n = rng.randint(1, 5)
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        if det(m) == 0:
            continue
        assert rat_inverse(m) @ m == RatMatrix.identity(n)
        done += 1


def test_char_poly_basics():
    assert char_poly(IntMatrix([[-1]])) == (1, 1)
    assert char_poly(IntMatrix.identity(3)) == (1, -3, 3, -1)
    # det(tI - M) at t = 0 is det(-M)
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = IntMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        assert char_poly(m)[-1] == det(-1 * m)


def test_kernel_basis():
    m = IntMatrix([[1, 2, 3], [2, 4, 6]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    for vec in basis:
        assert m.apply(vec) == (0, 0)
    assert kernel_basis(IntMatrix.identity(3)) == []


def dense_apply(matrix, vector):
    """Every row dotted with the vector, zeros included: the previous
    ``apply``."""
    return tuple(sum(a * b for a, b in zip(row, vector)) for row in matrix.to_lists())


@st.composite
def matrices_and_vectors(draw):
    """An Int or Rat matrix and a vector, with zero rows and zero vectors
    drawn often."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        kind, entries = IntMatrix, st.integers(-9, 9)
    else:
        kind, entries = RatMatrix, st.fractions(-9, 9, max_denominator=6)
    entries = st.one_of(st.just(0), entries)
    matrix = [draw(st.one_of(st.just([0] * cols),
                             st.lists(entries, min_size=cols, max_size=cols)))
              for _ in range(rows)]
    vector = draw(st.one_of(st.just([0] * cols),
                            st.lists(entries, min_size=cols, max_size=cols)))
    return kind(matrix), vector


@given(matrices_and_vectors())
def test_apply_matches_dense_sum(case):
    matrix, vector = case
    assert matrix.apply(vector) == dense_apply(matrix, vector)


def test_apply_refuses_a_vector_of_the_wrong_length():
    with pytest.raises(DimensionError, match="vector length"):
        IntMatrix([[0, 0], [1, 2]]).apply([1])


@pytest.mark.parametrize("kind", [IntMatrix, RatMatrix])
@pytest.mark.parametrize("bad", [1.5, True, "2"], ids=["float", "bool", "string"])
def test_apply_refuses_an_entry_that_is_not_an_integer_or_fraction(kind, bad):
    # A float came back as floats ((5.5, 12.5) for [1.5, 2]), and a bool
    # was summed as 0 or 1.
    with pytest.raises(ValidationError, match=f"vector entry must be an integer, got {bad!r}"):
        kind([[1, 2], [3, 4]]).apply([bad, 2])


def test_apply_keeps_ints_and_fractions_exact():
    ints = IntMatrix([[1, 2], [3, 4]]).apply([5, -1])
    assert ints == (3, 11) and all(type(x) is int for x in ints)
    assert RatMatrix([[1]]).apply([Fraction(1, 2)]) == (Fraction(1, 2),)
    assert IntMatrix([[2]]).apply([Fraction(1, 3)]) == (Fraction(2, 3),)


def test_matrix_validation():
    with pytest.raises(DimensionError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(DimensionError):
        IntMatrix([])


def test_int_matrix_refuses_inexact_entries():
    # int() truncated these: [[2.7, 1/2]] became [[2, 0]], and True was 1.
    for bad in (2.7, Fraction(1, 2), Fraction(4, 2), "3", True):
        with pytest.raises(ValidationError,
                           match=re.escape(f"IntMatrix entry must be an integer, got {bad!r}")):
            IntMatrix([[1, bad]])
    assert IntMatrix([[2**80]]).to_lists() == [[2**80]]


def test_rat_matrix_refuses_inexact_entries():
    # Fraction() took these: 2.7 became 3039929748475085/1125899906842624
    # (the binary value of the float) and "1/2" became 1/2.
    for bad in (2.7, "1/2", "3", None):
        with pytest.raises(ValidationError,
                           match=re.escape(f"RatMatrix entry must be an integer, got {bad!r}")):
            RatMatrix([[1, bad]])


def test_rat_matrix_entries_are_plain_fractions():
    class Half(Fraction):
        def __str__(self):
            return "one half"

    m = RatMatrix([[Half(1, 2), 3, Fraction(4, 6)]])
    assert all(type(x) is Fraction for row in m.to_lists() for x in row)
    assert str(m) == "[[1/2, 3, 2/3]]"
    third = Fraction(1, 3)
    entry = RatMatrix([[third]]).entry(0, 0)
    assert entry == third and type(entry) is Fraction and repr(entry) == repr(third)
    # True was taken as 1.
    with pytest.raises(ValidationError, match="RatMatrix entry must be an integer, got True"):
        RatMatrix([[Half(1, 2), True]])


# Numerators with 0, negatives and values past 2^4000; denominators >= 1.
RATIO_NUMERATORS = st.integers(-60, 60) | st.integers(-2**4100, 2**4100)
RATIO_DENOMINATORS = st.integers(1, 60) | st.integers(1, 2**4100)


@given(RATIO_NUMERATORS, RATIO_DENOMINATORS)
def test_ratio_text_is_the_fraction_text(num, den):
    assert _ratio_text(num, den) == str(Fraction(num, den))


@given(st.integers(1, 3).flatmap(
    lambda width: st.lists(st.lists(RATIO_NUMERATORS, min_size=width, max_size=width),
                           min_size=1, max_size=3)), RATIO_DENOMINATORS)
def test_rat_matrix_text_is_the_fraction_rendering(numerators, den):
    # str and repr format the numerators over the one denominator; the
    # reference renders each entry as a Fraction, as they did before.
    f = [[Fraction(x, den) for x in row] for row in numerators]
    m = RatMatrix(f)
    assert str(m) == "[" + ", ".join("[" + ", ".join(map(str, row)) + "]" for row in f) + "]"
    assert repr(m) == f"RatMatrix({[[str(x) for x in row] for row in f]!r})"


class IntSub(int):
    pass


class FractionSub(Fraction):
    pass


class Index:
    """An integer that is no int: it has only ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def _plain_entry(cls, x):
    """The entry ``cls`` stores for ``x``, converted on its own."""
    if cls is RatMatrix:
        return Fraction(x if isinstance(x, Fraction) else intmat._integer(x, "entry"))
    return intmat._integer(x, "entry")


@pytest.mark.parametrize("cls, exact", [(IntMatrix, int), (RatMatrix, Fraction)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_constructor_converts_each_entry_by_the_integer_rule(cls, exact, data):
    # Rows that mix the exact type with __index__-only values and
    # subclasses take the entry-by-entry path; the others are kept.
    ints = st.integers(-2**70, 2**70)
    kinds = [ints, ints.map(Index), ints.map(IntSub)]
    if cls is RatMatrix:
        kinds += [st.fractions().map(Fraction), st.fractions().map(FractionSub)]
    width = data.draw(st.integers(1, 4))
    row = st.lists(st.one_of(*kinds), min_size=width, max_size=width)
    rows = data.draw(st.lists(row, min_size=1, max_size=4))
    m = cls(rows)
    assert m.to_lists() == [[_plain_entry(cls, x) for x in r] for r in rows]
    assert {type(x) for r in m.to_lists() for x in r} == {exact}


def test_char_poly_integrality_check():
    # A matrix that bypassed the IntMatrix constructor can carry a
    # non-integer entry; the check is an explicit error, so it also fires
    # under python -O.
    m = object.__new__(IntMatrix)
    m._rows = ((Fraction(1, 2),),)
    with pytest.raises(InvariantError, match="non-integer coefficients 1, -1/2"):
        char_poly(m)


@pytest.mark.parametrize("product, shown", [
    ([[10**400, 0], [0, 10**400 + 1]], f"1, {-(2 * 10**400 + 1)}, {-(2 * 10**400 + 1)}/2"),
    ([[1, 0], [0, 2]], "1, -3, -3/2"),
])
def test_char_poly_refusal_shows_exact_coefficients(monkeypatch, product, shown):
    # An odd trace at k = 2 is refused with its coefficient as a fraction:
    # a float overflowed past 10^308 and printed -3/2 as -1.5.
    monkeypatch.setattr(intmat, "_row_product", lambda rows, m: [row[:] for row in product])
    with pytest.raises(InvariantError) as refusal:
        char_poly(IntMatrix([[0, 0], [0, 0]]))
    assert str(refusal.value).endswith(shown)


# -- reference kernels --------------------------------------------------------
#
# The straightforward versions the library used before its kernels were
# made sparse and fraction-free.  The properties below compare the two.

def fraction_char_poly(matrix):
    """Faddeev-LeVerrier in Fraction arithmetic with dense products."""
    n = matrix.rows
    a = [[Fraction(x) for x in row] for row in matrix.to_lists()]

    def mul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    coeffs = [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += coeffs[-1]
        m = mul(a, m)
        coeffs.append(-sum(m[i][i] for i in range(n)) / k)
    assert all(c.denominator == 1 for c in coeffs)
    return tuple(int(c) for c in coeffs)


def dense_product(x, y):
    """Every entry as the full dot product of a row and a column; rational
    when either factor is."""
    cols = y.columns()
    kind = RatMatrix if RatMatrix in (type(x), type(y)) else IntMatrix
    return kind([[sum(a * b for a, b in zip(row, col)) for col in cols]
                 for row in x.to_lists()])


def fraction_inverse(matrix):
    """Gauss-Jordan on [M | I] in Fraction arithmetic, same pivot search."""
    n = matrix.rows
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(matrix.to_lists())]
    for c in range(n):
        pivot_row = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError()
        if pivot_row != c:
            a[c], a[pivot_row] = a[pivot_row], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return RatMatrix([row[n:] for row in a])


def gauss_jordan_bareiss(a, n):
    """Fraction-free Gauss-Jordan (Bareiss) on the leading n x n block of
    the n rows of ``a``, in place: the pass ``det`` and ``rat_inverse``
    shared before the forward pass and back substitution replaced it.
    Column c takes the first nonzero entry at or below the diagonal as
    pivot p and replaces every other row by (row * p - f * pivot_row) //
    prev, where f is the row's entry in column c and prev the previous
    pivot; the division is exact because every entry stays a minor.

    A row with f = 0 would only be scaled by p / prev, so it is left as it
    is and scaled lazily.  ``pivots[s]`` is the divisor in force at stage s
    (pivots[0] = 1), and ``stage[r]`` the stage row r was last brought up
    to.  The scalings telescope, so a row from stage s is brought to stage
    c in one pass as x * pivots[c] // pivots[s]; that division is exact
    because the result is the eager row, whose entries are minors.  A row
    is brought up to date only when it is read: as the pivot row, as a row
    with f != 0 (f is read again after scaling), and at the end.  A swap
    swaps stages too, and the pivot row, which its own column leaves as it
    is, moves on to stage c + 1.  The rows with a nonzero in the pivot
    column are found by ``compress`` in C, so a zero there costs no
    interpreted step.

    The block ends as p * I for the last pivot p, and the columns beyond
    it as p times the block's inverse applied to them.  Returns det of the
    block (the swap sign times p), or 0 when a column has no pivot.
    """
    sign = 1
    pivots = [1]
    stage = [0] * n

    def current(r, c):
        s = stage[r]
        if s != c:
            scale, divisor = pivots[c], pivots[s]
            a[r] = [x * scale // divisor for x in a[r]]
            stage[r] = c
        return a[r]

    for c in range(n):
        pivot_row = next((r for r in range(c, n) if a[r][c]), None)
        if pivot_row is None:
            return 0
        if pivot_row != c:
            a[c], a[pivot_row] = a[pivot_row], a[c]
            stage[c], stage[pivot_row] = stage[pivot_row], stage[c]
            sign = -sign
        top = current(c, c)
        p, prev = top[c], pivots[c]
        for r in compress(range(n), list(map(itemgetter(c), a))):
            if r != c:
                row = current(r, c)
                f = row[c]
                a[r] = [(x * p - f * y) // prev for x, y in zip(row, top)]
                stage[r] = c + 1
        stage[c] = c + 1
        pivots.append(p)
    for r in range(n):
        current(r, n)
    return sign * pivots[n]


def gauss_jordan_inverse(matrix):
    """M^-1 from the Gauss-Jordan pass on [M | I], which leaves
    [p * I | p * M^-1] for the last pivot p: ``rat_inverse`` before it ran
    back substitution."""
    n = matrix.rows
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(matrix.to_lists())]
    if gauss_jordan_bareiss(a, n) == 0:
        raise SingularMatrixError("matrix is singular")
    p = a[0][0]
    return RatMatrix([[Fraction(x, p) for x in row[n:]] for row in a])


def forward_bareiss_det(matrix):
    """Forward-only Bareiss elimination that rewrites every entry below and
    right of the pivot at every step: ``det`` without its lazy scaling and
    its skipping of zeros."""
    n = matrix.rows
    a = matrix.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def inverse_kernel_basis(matrix):
    """Kernel columns of V^-1 read from rat_inverse(V), in Fractions."""
    decomp = snf(matrix)
    rank = decomp.rank()
    if rank == matrix.cols:
        return []
    v_inv = rat_inverse(decomp.v).to_lists()
    assert all(x.denominator == 1 for row in v_inv for x in row)
    return [tuple(row[j].numerator for row in v_inv) for j in range(rank, matrix.cols)]


def reference_snf(matrix):
    """Smith normal form with a full pivot search and divisibility scan at
    every step, even when the pivot is a unit."""
    a = matrix.to_lists()
    nr, nc = matrix.rows, matrix.cols
    u = IntMatrix.identity(nr).to_lists()
    v = IntMatrix.identity(nc).to_lists()

    def row_add(i, j, c):
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for r in u:
            r[j] -= c * r[i]

    def col_add(i, j, c):
        for r in a:
            r[i] += c * r[j]
        v[j] = [x - c * y for x, y in zip(v[j], v[i])]

    t = 0
    while t < min(nr, nc):
        pivot = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            for r in u:
                r[t], r[pi] = r[pi], r[t]
        if pj != t:
            for r in a:
                r[t], r[pj] = r[pj], r[t]
            v[t], v[pj] = v[pj], v[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            for r in u:
                r[t] = -r[t]
        p = a[t][t]
        dirty = False
        for i in range(t + 1, nr):
            if a[i][t] != 0:
                q = a[i][t] // p
                if q:
                    row_add(i, t, -q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, nc):
            if a[t][j] != 0:
                q = a[t][j] // p
                if q:
                    col_add(j, t, -q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        offender = None
        for i in range(t + 1, nr):
            if any(a[i][j] % p for j in range(t + 1, nc)):
                offender = i
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        t += 1
    return IntMatrix(u), IntMatrix(a), IntMatrix(v)


SMALL = st.integers(-9, 9)
# Entries beyond 2^64, so no fixed-width shortcut can pass.
HUGE = st.integers(2**64, 2**80) | st.integers(-(2**80), -(2**64))
SIZES = st.integers(1, 6)
# Entries that often cancel to a zero pivot during elimination.
TINY = st.integers(-2, 2)


@st.composite
def int_matrices(draw, rows, cols):
    """Dense, sparse (mostly zero) or reflection-shaped (the identity but
    for one row) matrices, with small or huge entries."""
    entries = draw(st.sampled_from([SMALL, SMALL | HUGE]))
    kind = draw(st.sampled_from(["dense", "sparse", "reflection"]))
    if kind == "sparse":
        entries = st.just(0) | st.just(0) | st.just(0) | entries
    if kind == "reflection" and rows == cols:
        k = draw(st.integers(0, rows - 1))
        data = IntMatrix.identity(rows).to_lists()
        data[k] = draw(st.lists(entries, min_size=cols, max_size=cols))
        return IntMatrix(data)
    return IntMatrix(draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                                   min_size=rows, max_size=rows)))


@st.composite
def product_pairs(draw):
    r, k, c = draw(SIZES), draw(SIZES), draw(SIZES)
    return draw(int_matrices(r, k)), draw(int_matrices(k, c))


@st.composite
def square_matrices(draw):
    n = draw(SIZES)
    return draw(int_matrices(n, n))


@st.composite
def singular_matrices(draw):
    """Square matrices whose last row is an integer combination of the
    others (the zero row when n = 1)."""
    data = draw(square_matrices()).to_lists()
    coeffs = draw(st.lists(SMALL | HUGE, min_size=len(data) - 1, max_size=len(data) - 1))
    data[-1] = [sum(c * row[j] for c, row in zip(coeffs, data)) for j in range(len(data))]
    return IntMatrix(data)


@settings(deadline=None)
@given(product_pairs())
def test_matmul_matches_dense_reference(pair):
    x, y = pair
    assert x @ y == dense_product(x, y)


WIDE = st.integers(-(2**70), 2**70)


@st.composite
def wrapped_product_pairs(draw):
    """Pairs of shapes r x k and k x c with 1 <= r, k, c <= 12 (1 x 1 and
    non-square products among them), entries zero, small or up to 2^70 in
    size and of either sign."""
    r, k, c = (draw(st.integers(1, 12)) for _ in range(3))
    entries = draw(st.sampled_from([SMALL, WIDE, st.just(0) | SMALL | WIDE]))
    x, y = ([[draw(entries) for _ in range(cols)] for _ in range(rows)]
            for rows, cols in ((r, k), (k, c)))
    return IntMatrix(x), IntMatrix(y)


@settings(deadline=None)
@given(wrapped_product_pairs())
def test_int_product_is_wrapped_unchecked_yet_equal_to_a_checked_one(pair):
    # An IntMatrix @ IntMatrix skips the constructor's entry scan, so its
    # rows must already be what the constructor would have stored.
    x, y = pair
    product = x @ y
    checked = IntMatrix(product.to_lists())
    assert type(product) is IntMatrix
    assert product == dense_product(x, y)
    assert all(type(row) is tuple for row in product._rows)
    assert all(type(e) is int for row in product._rows for e in row)
    assert product == checked and hash(product) == hash(checked)
    assert repr(product) == repr(checked)


@st.composite
def symmetry_cases(draw):
    """Int or Fraction matrices: any shape, or symmetric with at most one
    entry changed."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.one_of(st.just(rows), st.integers(1, 5)))
    rational = draw(st.booleans())
    entries = st.fractions(-2, 2, max_denominator=3) if rational else st.integers(-2, 2)
    grid = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    if rows == cols and draw(st.booleans()):
        grid = [[grid[min(i, j)][max(i, j)] for j in range(rows)] for i in range(rows)]
        if draw(st.booleans()):
            i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
            grid[i][j] += 1
    return (RatMatrix if rational else IntMatrix)(grid)


@given(symmetry_cases())
def test_is_symmetric_matches_the_pairwise_definition(matrix):
    pairwise = matrix.rows == matrix.cols and all(
        matrix.entry(i, j) == matrix.entry(j, i) for i in range(matrix.rows) for j in range(i))
    assert matrix.is_symmetric() == pairwise


@pytest.mark.parametrize(
    "operation, operands",
    [
        (lambda: IntMatrix([[1]]) @ [[1]], "'IntMatrix' and 'list'"),
        (lambda: IntMatrix([[1]]) - [[1]], "'IntMatrix' and 'list'"),
        (lambda: RatMatrix([[1]]) @ 3, "'RatMatrix' and 'int'"),
    ],
    ids=["int-matmul-list", "int-sub-list", "rat-matmul-int"],
)
def test_matrix_operators_leave_a_non_matrix_operand_to_python(operation, operands):
    # Each raised AttributeError: 'list' object has no attribute 'rows'.
    with pytest.raises(TypeError, match=f"unsupported operand.*{operands}"):
        operation()


@pytest.mark.parametrize("operation", [lambda m: True * m, lambda m: m * False],
                         ids=["bool-times-matrix", "matrix-times-bool"])
def test_scalar_product_refuses_a_bool(operation):
    # True * m was m: a bool passed as the integer 1.
    with pytest.raises(TypeError, match="unsupported operand"):
        operation(IntMatrix([[1, -2]]))
    assert -1 * IntMatrix([[1, -2]]) == IntMatrix([[-1, 2]]) == IntMatrix([[1, -2]]) * -1


class FloatProductInt(int):
    """An int whose products are floats."""

    def __mul__(self, other):
        return float(int(self) * other)

    __rmul__ = __mul__


@pytest.mark.parametrize(
    "operation, expected",
    [(lambda m: m - IntMatrix([[1, 1], [1, 1]]), [[0, -3], [2, -1]]),
     (lambda m: m.hstack(IntMatrix([[5], [6]])), [[1, -2, 5], [3, 0, 6]]),
     (lambda m: m * FloatProductInt(3), [[3, -6], [9, 0]])],
    ids=["sub", "hstack", "times-int-subclass"],
)
def test_int_operations_return_plain_int_matrices(operation, expected):
    # These results are wrapped unchecked, as products are: their entries
    # are ints by construction, and a scalar is read through index() first.
    result = operation(IntMatrix([[1, -2], [3, 0]]))
    assert type(result) is IntMatrix and result == IntMatrix(expected)
    assert all(type(x) is int for row in result.to_lists() for x in row)


@pytest.mark.parametrize(
    "operation, error, message",
    [
        (lambda: IntMatrix([[3]]) - RatMatrix([[1]]), TypeError,
         "unsupported operand.*'IntMatrix' and 'RatMatrix'"),
        (lambda: IntMatrix([[1]]).hstack(RatMatrix([[1]])), ValidationError,
         "hstack takes an IntMatrix, got RatMatrix"),
    ],
    ids=["sub", "hstack"],
)
def test_int_operations_refuse_a_rat_matrix_operand(operation, error, message):
    # A RatMatrix's rows are numerators over its denominator, so combining
    # them with an IntMatrix's entries would be silently wrong.
    with pytest.raises(error, match=message):
        operation()


def test_int_rat_equality_is_symmetric():
    ints, rats = IntMatrix.identity(2), RatMatrix.identity(2)
    assert ints == rats and rats == ints
    assert hash(ints) == hash(rats)
    half, zero = RatMatrix([[Fraction(1, 2)]]), IntMatrix([[0]])
    assert half != zero and zero != half


@settings(deadline=None)
@given(product_pairs(), st.integers(1, 6))
def test_mixed_products_are_rational(pair, den):
    x, y = pair
    reference = dense_product(x, y)
    scaled = RatMatrix([[Fraction(v, den) for v in row] for row in reference.to_lists()])
    rx = RatMatrix([[Fraction(a, den) for a in row] for row in x.to_lists()])
    ry = RatMatrix(y.to_lists())
    products = {"int@rat": x @ ry, "rat@int": rx @ y, "rat@rat": rx @ ry}
    assert all(type(p) is RatMatrix for p in products.values())
    assert products["int@rat"] == reference
    assert products["rat@int"] == scaled and products["rat@rat"] == scaled


def fraction_entries(rows):
    """The entries a RatMatrix of ``rows`` holds, as plain Fractions, each
    converted on its own: the Fraction-entry reference."""
    return [[_plain_entry(RatMatrix, x) for x in row] for row in rows]


def fraction_product(x, y):
    """Full dot products of Fraction-entry rows."""
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*y)]
            for row in x]


def assert_matches_fraction_entries(m, f, vector):
    """``m`` reads as the Fraction-entry rows ``f`` through every public
    accessor, and keeps its rows in lowest terms over a positive
    denominator."""
    assert type(m) is RatMatrix
    assert m.to_lists() == f and all(type(x) is Fraction for row in m.to_lists() for x in row)
    assert all(m.entry(i, j) == x and type(m.entry(i, j)) is Fraction
               for i, row in enumerate(f) for j, x in enumerate(row))
    assert m.columns() == [tuple(col) for col in zip(*f)]
    assert m.transpose().to_lists() == [list(col) for col in zip(*f)]
    assert str(m) == "[" + ", ".join("[" + ", ".join(map(str, row)) + "]" for row in f) + "]"
    assert repr(m) == f"RatMatrix({[[str(x) for x in row] for row in f]!r})"
    applied = m.apply(vector)
    assert applied == tuple(fraction_product(f, [[Fraction(x)] for x in vector])[i][0]
                            for i in range(len(f)))
    assert all(type(x) is Fraction for x in applied)
    assert m._den > 0 and gcd(m._den, *chain.from_iterable(m._rows)) == 1
    rebuilt = RatMatrix(f)
    assert m == rebuilt and hash(m) == hash(rebuilt)
    if all(x.denominator == 1 for row in f for x in row):
        ints = IntMatrix([[x.numerator for x in row] for row in f])
        assert m == ints and ints == m and hash(m) == hash(ints)
    else:
        floors = IntMatrix([[x.numerator // x.denominator for x in row] for row in f])
        assert m != floors and floors != m


@st.composite
def rational_literals(draw, rows, cols):
    """Rows that mix ints, int subclasses, ``__index__``-only values,
    Fractions and Fraction subclasses, small or huge; all of them integral
    a third of the time."""
    ints = st.one_of(st.just(0), SMALL, HUGE)
    kinds = [ints, ints.map(IntSub), ints.map(Index)]
    if draw(st.integers(0, 2)):
        rationals = st.fractions(max_denominator=12) | st.fractions(max_denominator=2**70)
        kinds += [rationals, rationals.map(FractionSub)]
    else:
        kinds += [ints.map(Fraction), ints.map(FractionSub)]
    entry = st.one_of(*kinds)
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@settings(deadline=None)
@given(st.data())
def test_rat_matrix_matches_the_fraction_entry_reference(data):
    # Rows of numerators over one denominator read, multiply, compare and
    # hash as the matrix of their Fractions does.
    r, k, c, left = (data.draw(SIZES) for _ in range(4))
    x_rows, y_rows = data.draw(rational_literals(r, k)), data.draw(rational_literals(k, c))
    x, y = RatMatrix(x_rows), RatMatrix(y_rows)
    fx, fy = fraction_entries(x_rows), fraction_entries(y_rows)
    ints_right, ints_left = data.draw(int_matrices(k, c)), data.draw(int_matrices(left, r))
    cases = [(x, fx, k), (y, fy, c), (x @ y, fraction_product(fx, fy), c),
             (x @ ints_right, fraction_product(fx, fraction_entries(ints_right.to_lists())), c),
             (ints_left @ x, fraction_product(fraction_entries(ints_left.to_lists()), fx), k)]
    for m, f, width in cases:
        vector = data.draw(st.lists(st.one_of(SMALL, st.fractions(max_denominator=6)),
                                    min_size=width, max_size=width))
        assert_matches_fraction_entries(m, f, vector)


def count_fraction_calls(operation):
    """``operation()`` and the names of the ``fractions`` module functions
    it called, Fraction construction and arithmetic alike."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = operation()
    finally:
        sys.setprofile(previous)
    return result, calls


def test_inverse_and_products_build_no_fraction():
    # The package's duals and form, rat_inverse(gram) @ G and
    # duals^T @ G, run on integers alone; reading an entry builds one.
    gram = cartan_matrix("A", 60).gram
    gens = IntMatrix.from_columns([col for order, col in group_from_cokernel(gram)[1]])

    def package_products():
        duals = rat_inverse(gram) @ gens
        return duals, duals.transpose() @ gens

    (duals, form), calls = count_fraction_calls(package_products)
    assert calls == []
    entry, calls = count_fraction_calls(lambda: form.entry(0, 0))
    assert entry == Fraction(-60, 61) and "__new__" in calls
    assert duals.to_lists() == fraction_product(rat_inverse(gram).to_lists(),
                                                fraction_entries(gens.to_lists()))
    rat_by_rat, calls = count_fraction_calls(lambda: duals.transpose() @ duals)
    assert calls == [] and type(rat_by_rat) is RatMatrix


@settings(deadline=None)
@given(square_matrices())
def test_rat_inverse_matches_fraction_reference(m):
    try:
        expected = fraction_inverse(m)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            rat_inverse(m)
        return
    inverse = rat_inverse(m)
    assert repr(inverse) == repr(expected)
    assert inverse @ m == RatMatrix.identity(m.rows)


@settings(deadline=None)
@given(singular_matrices())
def test_rat_inverse_singular_property(m):
    with pytest.raises(SingularMatrixError):
        rat_inverse(m)
    with pytest.raises(SingularMatrixError):
        fraction_inverse(m)


@settings(deadline=None)
@given(square_matrices())
def test_char_poly_matches_fraction_reference(m):
    poly = char_poly(m)
    assert poly == fraction_char_poly(m)
    assert all(type(c) is int for c in poly)


def test_char_poly_32x32_constant_term():
    rng = random.Random(32)
    m = IntMatrix([[rng.randint(-9, 9) for _ in range(32)] for _ in range(32)])
    poly = char_poly(m)
    assert len(poly) == 33 and poly[0] == 1
    assert poly[-1] == det(-1 * m)
    assert poly[1] == -sum(m.diagonal())


def rebuilding_snf(matrix):
    """``snf`` as it was before its row operations ran in place: each
    row_add rebuilds the whole target row.  Returns (D, log)."""
    a = matrix.to_lists()
    nr, nc = matrix.rows, matrix.cols
    log = []

    def row_add(i, j, c):
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        log.append((intmat._ROW_ADD, i, j, c))

    t = 0
    bound = min(nr, nc)
    while t < bound:
        pivot = None
        best = None
        for i in range(t, nr):
            row = a[i]
            for j in range(t, nc):
                x = row[j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            log.append((intmat._ROW_SWAP, t, pi, 0))
        if pj != t:
            for r in a:
                r[t], r[pj] = r[pj], r[t]
            log.append((intmat._COL_SWAP, t, pj, 0))
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            log.append((intmat._ROW_NEGATE, t, t, 0))
        p = a[t][t]
        dirty = False
        for i in range(t + 1, nr):
            if a[i][t] != 0:
                q = a[i][t] // p
                if q:
                    row_add(i, t, -q)
                if a[i][t] != 0:
                    dirty = True
        steps = [(j, q) for j in range(t + 1, nc) if (q := a[t][j] // p)]
        if steps:
            for r in a:
                x = r[t]
                if x:
                    for j, q in steps:
                        r[j] -= q * x
            log.extend((intmat._COL_ADD, j, t, -q) for j, q in steps)
        if dirty or any(a[t][t + 1:]):
            continue
        offender = None
        if p > 1:
            for i in range(t + 1, nr):
                if any(a[i][j] % p for j in range(t + 1, nc)):
                    offender = i
                    break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        t += 1
    return IntMatrix(a), log


def assert_snf_matches_reference(m):
    decomp = check_snf(m)
    assert (decomp.u, decomp.d, decomp.v) == reference_snf(m)


def test_snf_matches_reference_on_lattices_and_random_matrices():
    grams = [cartan_matrix("A", k).gram for k in (1, 2, 7, 20, 32)]
    grams += [cartan_matrix("D", n).gram for n in (4, 5, 8, 13)]
    for gram in grams + [cartan_matrix("E8").gram, BRIESKORN_STAR]:
        assert_snf_matches_reference(gram)
    rng = random.Random(5)
    for _ in range(40):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        dense = [[rng.randint(-60, 60) for _ in range(c)] for _ in range(r)]
        sparse = [[rng.choice((0, 0, 0, rng.randint(-9, 9))) for _ in range(c)]
                  for _ in range(r)]
        units = [[rng.choice((-1, 0, 1, 1, 2)) for _ in range(c)] for _ in range(r)]
        for data in (dense, sparse, units):
            assert_snf_matches_reference(IntMatrix(data))


@st.composite
def snf_inputs(draw):
    """Rectangular matrices of every kind above, plus ones rich in +-1,
    where the unit-pivot exit is taken most."""
    r, c = draw(SIZES), draw(SIZES)
    if draw(st.booleans()):
        return draw(int_matrices(r, c))
    units = st.sampled_from([-1, 0, 1, 1, 2, 3])
    return IntMatrix(draw(st.lists(st.lists(units, min_size=c, max_size=c),
                                   min_size=r, max_size=r)))


@settings(deadline=None)
@given(snf_inputs())
def test_snf_properties_and_reference(m):
    # U D V = M, |det U| = |det V| = 1, D a nonnegative divisibility chain
    assert_snf_matches_reference(m)


@settings(deadline=None)
@given(st.one_of(square_matrices(), square_matrices(), singular_matrices()))
def test_det_matches_forward_bareiss(m):
    # About half the draws are singular, a third of all by a row combination.
    d = det(m)
    assert type(d) is int and d == forward_bareiss_det(m)


@st.composite
def structured_matrices(draw):
    """Square matrices up to 24x24 that are tridiagonal, banded or
    block-diagonal, with their rows permuted half of the time.  Most rows
    hold a zero in most pivot columns, so Bareiss leaves them stale across
    many pivots; permuted rows put zeros on the diagonal, so stale rows are
    swapped and become pivot rows."""
    n = draw(st.integers(1, 24))
    entries = draw(st.sampled_from([SMALL, SMALL | HUGE, TINY]))
    shape = draw(st.sampled_from(["tridiagonal", "banded", "block"]))
    if shape == "block":
        # Block b has sizes[b] rows; n sizes of at least 1 cover n rows.
        sizes = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
        owner = [b for b, size in enumerate(sizes) for _ in range(size)][:n]
        inside = lambda i, j: owner[i] == owner[j]
    else:
        width = 1 if shape == "tridiagonal" else draw(st.integers(0, 4))
        inside = lambda i, j: abs(i - j) <= width
    rows = [[draw(entries) if inside(i, j) else 0 for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    return IntMatrix(rows)


def lists_product(x, y):
    """Product of two list-of-rows matrices, each entry a full dot product."""
    cols = list(zip(*y))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in x]


@st.composite
def unimodular_factors(draw, n):
    """P L R: L unit lower and R unit upper triangular, their other entries
    in [-2, 2], and P a row permutation, so the determinant is +-1."""
    def triangular(below):
        return [[int(i == j) if (i <= j if below else i >= j) else draw(TINY)
                 for j in range(n)] for i in range(n)]
    return draw(st.permutations(lists_product(triangular(True), triangular(False))))


@st.composite
def dense_presentations(draw):
    """U diag(d) V with n = 6..15, shaped like the dense cokernel
    presentations that the Smith form reduces most: d is a divisibility
    chain whose last entry is 0 (a free column) half of the time, and U and
    V are each a product of two P L R factors.  The entries of the
    replayed U grow to hundreds of bits."""
    n = draw(st.integers(6, 15))
    free = int(draw(st.booleans()))
    d, current = [], 1
    for _ in range(n - free):
        current *= draw(st.sampled_from([1, 1, 1, 2, 2, 3, 5]))
        d.append(current)
    d += [0] * free
    diag = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
    u, v = (lists_product(draw(unimodular_factors(n)), draw(unimodular_factors(n)))
            for _ in range(2))
    return IntMatrix(lists_product(lists_product(u, diag), v))


def assert_int_entries(rows):
    """Every entry is an int: the Smith form wraps D, U and V unchecked."""
    assert all(type(x) is int for row in rows for x in row)


@settings(deadline=None)
@given(st.one_of(snf_inputs(), structured_matrices(), singular_matrices(),
                 wrapped_product_pairs().map(lambda pair: pair[0] @ pair[1]),
                 dense_presentations()))
def test_in_place_row_operations_keep_the_smith_log(m):
    # Adding only the source row's nonzeros from column t on, in place,
    # leaves D and every logged operation as rebuilding whole rows did, so
    # U, V and every generator replayed from the log are unchanged too.
    decomp = snf(m)
    d, log = rebuilding_snf(m)
    assert decomp.d == d and decomp._log == log
    assert_int_entries(decomp.d._rows)


@settings(deadline=None, max_examples=60)
@given(structured_matrices())
def test_lazy_bareiss_det_matches_forward_bareiss_at_size(m):
    d = det(m)
    assert type(d) is int and d == forward_bareiss_det(m)


@settings(deadline=None, max_examples=60)
@given(structured_matrices())
def test_lazy_bareiss_inverse_matches_fraction_reference_at_size(m):
    try:
        expected = fraction_inverse(m)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            rat_inverse(m)
        return
    assert repr(rat_inverse(m)) == repr(expected)


@settings(deadline=None)
@given(st.one_of(structured_matrices(), square_matrices(), singular_matrices()))
def test_rat_inverse_matches_gauss_jordan_reference(m):
    # Back substitution after the forward pass gives the inverse the
    # Gauss-Jordan pass gave, entry for entry, and both refuse a singular m.
    try:
        expected = gauss_jordan_inverse(m)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            rat_inverse(m)
        return
    assert repr(rat_inverse(m)) == repr(expected)


def entrywise_rat_inverse(matrix):
    """The forward pass and back substitution of ``rat_inverse``, with one
    Fraction(y, d) built for every entry y of the adjugate, as the inverse
    was built before it was kept over one denominator."""
    n = matrix.rows
    a = matrix.to_lists()
    for i, row in enumerate(a):
        row += [0] * n
        row[n + i] = 1
    d = intmat._bareiss(a, n)
    if d == 0:
        raise SingularMatrixError("matrix is singular")
    y = [None] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = [d * b for b in row[n:]]
        for j in compress(range(i + 1, n), row[i + 1:n]):
            u = row[j]
            acc = [s - u * t for s, t in zip(acc, y[j])]
        u = row[i]
        y[i] = [s // u for s in acc]
    return RatMatrix([[Fraction(x, d) for x in row] for row in y])


@settings(deadline=None)
@given(st.one_of(structured_matrices(), square_matrices(),
                 st.builds(lambda k: cartan_matrix("A", k).gram, st.integers(1, 40))))
def test_rat_inverse_matches_the_entrywise_reference(m):
    # The adjugate over det, in lowest terms, gives entry for entry the
    # inverse that one Fraction per entry gave, symmetric or not.
    assume(det(m) != 0)
    inverse, expected = rat_inverse(m), entrywise_rat_inverse(m)
    assert inverse == expected and repr(inverse) == repr(expected)
    assert type(inverse) is RatMatrix and hash(inverse) == hash(expected)
    entries = inverse.to_lists()
    assert entries == expected.to_lists()
    assert all(type(x) is Fraction for row in entries for x in row)


@st.composite
def permuted_banded_matrices(draw):
    """Banded matrices with 25 to 60 rows, beyond ``structured_matrices``,
    with their rows permuted: swapped rows reach back substitution with
    nonzeros far right of the diagonal of U."""
    n = draw(st.integers(25, 60))
    width = draw(st.integers(1, 3))
    entries = draw(st.sampled_from([SMALL, TINY]))
    rows = [[draw(entries) if abs(i - j) <= width else 0 for j in range(n)]
            for i in range(n)]
    return IntMatrix(draw(st.permutations(rows)))


@settings(deadline=None, max_examples=25)
@given(permuted_banded_matrices())
def test_forward_pass_and_back_substitution_at_size(m):
    d = det(m)
    assert type(d) is int and d == forward_bareiss_det(m)
    if d == 0:
        with pytest.raises(SingularMatrixError):
            rat_inverse(m)
    else:
        assert rat_inverse(m) @ m == RatMatrix.identity(m.rows)


# Right-hand entries of hundreds of bits, of either sign: the size of the
# Smith generator columns of dense grams.
WIDER = st.integers(2**200, 2**400) | st.integers(-(2**400), -(2**200))


@st.composite
def solve_systems(draw, matrices):
    """A square M drawn from ``matrices``, its first row negated half of the
    time, so det M takes both signs, and B of 1..n columns with zero, small,
    huge or hundred-bit entries."""
    m = draw(matrices).to_lists()
    if draw(st.booleans()):
        m[0] = [-x for x in m[0]]
    n = len(m)
    entries = draw(st.sampled_from([SMALL, SMALL | WIDER, st.just(0) | HUGE | WIDER]))
    k = draw(st.integers(1, n))
    return IntMatrix(m), IntMatrix([[draw(entries) for _ in range(k)] for _ in range(n)])


@settings(deadline=None)
@given(solve_systems(st.one_of(square_matrices(), structured_matrices(),
                               dense_presentations())))
def test_solve_matches_the_inverse_times_the_columns(system):
    # One kernel on [M | B] gives what the inverse on [M | I] and a product
    # give, in lowest terms over the same positive denominator.
    m, b = system
    assume(det(m) != 0)
    solved, expected = rat_inverse(m, b), rat_inverse(m) @ b
    assert type(solved) is RatMatrix and solved._den > 0
    assert solved == expected and repr(solved) == repr(expected)
    assert m @ solved == b


@settings(deadline=None)
@given(solve_systems(st.one_of(square_matrices(), structured_matrices())))
def test_solve_matches_the_fraction_inverse_times_the_columns(system):
    # An oracle that does not run through the kernel: Gauss-Jordan in
    # Fractions, then every entry of the product as a full dot product.
    m, b = system
    assume(det(m) != 0)
    solved, expected = rat_inverse(m, b), dense_product(fraction_inverse(m), b)
    assert solved == expected and repr(solved) == repr(expected)


@settings(deadline=None)
@given(solve_systems(singular_matrices()))
def test_solve_refuses_a_singular_matrix_as_the_inverse_does(system):
    m, b = system
    with pytest.raises(SingularMatrixError) as inverse_refusal:
        rat_inverse(m)
    with pytest.raises(SingularMatrixError) as solve_refusal:
        rat_inverse(m, b)
    assert str(solve_refusal.value) == str(inverse_refusal.value) == "matrix is singular"


@pytest.mark.parametrize("m, b", [
    (IntMatrix([[1, 2]]), IntMatrix([[1]])),
    (IntMatrix.identity(2), IntMatrix([[1]])),
], ids=["not-square", "rows-differ"])
def test_solve_refuses_mismatched_shapes(m, b):
    with pytest.raises(DimensionError, match="cannot solve"):
        rat_inverse(m, b)


def test_solve_refuses_a_rat_matrix_on_either_side():
    for m, b in ((RatMatrix.identity(2), IntMatrix([[1], [0]])),
                 (IntMatrix.identity(2), RatMatrix([[Fraction(1, 2)], [0]]))):
        with pytest.raises(ValidationError,
                           match="rat_inverse takes an IntMatrix, got RatMatrix"):
            rat_inverse(m, b)


@pytest.mark.parametrize(
    "kernel",
    [det, rat_inverse, char_poly, snf, kernel_basis, cokernel_group, group_from_cokernel,
     variation_cokernel, IntersectionLattice],
    ids=lambda f: f.__name__,
)
def test_integer_kernels_refuse_a_rat_matrix(kernel):
    # Floor division on Fractions gave det 0 and "singular" here; the
    # refusal comes before any elimination and names the function called
    # and the class, not an inner kernel ("snf takes ...").
    message = re.escape(f"{kernel.__name__} takes an IntMatrix, got RatMatrix")
    for m in (RatMatrix([[Fraction(1, 2), 0], [0, Fraction(1, 2)]]), RatMatrix.identity(2)):
        with pytest.raises(ValidationError, match=message):
            kernel(m)


def test_lazy_bareiss_on_cancelling_entries():
    # Entries in -2..2 often cancel to a zero in the pivot column, so a row
    # brought up to date at one step swaps with a row left stale since an
    # earlier one; a swap that kept the stages in place fails here.
    rng = random.Random(18)
    for _ in range(400):
        n = rng.randint(2, 8)
        m = IntMatrix([[rng.choice((0, 0, 1, -1, 2, -2)) for _ in range(n)] for _ in range(n)])
        assert det(m) == forward_bareiss_det(m)
        try:
            expected = fraction_inverse(m)
        except SingularMatrixError:
            continue
        assert rat_inverse(m) == expected


@st.composite
def sparse_factors(draw, rows, cols):
    """An IntMatrix or RatMatrix with at most a tenth of its entries nonzero."""
    if draw(st.booleans()):
        kind, values = IntMatrix, SMALL | HUGE
    else:
        kind, values = RatMatrix, st.fractions(-9, 9, max_denominator=6)
    data = [[0] * cols for _ in range(rows)]
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    for (i, j) in draw(st.lists(cells, max_size=rows * cols // 10, unique=True)):
        data[i][j] = draw(values.filter(bool))
    return kind(data)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 30), st.data())
def test_sparse_products_match_dense_reference_at_size(r, k, c, data):
    x, y = data.draw(sparse_factors(r, k)), data.draw(sparse_factors(k, c))
    product = x @ y
    expected = dense_product(x, y)
    assert product == expected and type(product) is type(expected)


@st.composite
def unit_row_factors(draw, rows, cols):
    """An IntMatrix or RatMatrix whose rows are unit rows e_k (often the
    same k twice), zero rows or arbitrary rows.  A RatMatrix stores its
    unit rows with Fraction(1)."""
    if draw(st.booleans()):
        kind, entries = IntMatrix, SMALL | HUGE
    else:
        kind, entries = RatMatrix, st.fractions(-9, 9, max_denominator=6)
    units = draw(st.lists(st.integers(0, cols - 1), min_size=1, max_size=2))

    def unit(k):
        row = [0] * cols
        row[k] = 1
        return row

    row = st.one_of(st.sampled_from(units).map(unit), st.just([0] * cols),
                    st.lists(entries, min_size=cols, max_size=cols))
    return kind(draw(st.lists(row, min_size=rows, max_size=rows)))


@settings(deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.data())
def test_products_with_unit_rows_match_dense_reference(r, k, c, data):
    # The sums, types and entries are those of the full dot products.
    x, y = data.draw(unit_row_factors(r, k)), data.draw(unit_row_factors(k, c))
    expected = dense_product(x, y)
    product = x @ y
    assert product == expected and type(product) is type(expected)
    assert repr(product) == repr(expected)
    # The product runs on the stored rows, numerators over a denominator
    # (1 for an IntMatrix), and divides by the product of the two.
    den = x._den * y._den
    assert [[Fraction(v, den) for v in row]
            for row in intmat._row_product(x._rows, y._rows)] == expected.to_lists()
    # List rows on the right, as ``char_poly`` passes them, are never
    # shared.
    right = y.to_lists()
    rows = intmat._row_product(x._rows, right)
    assert [[Fraction(v, x._den) for v in row] for row in rows] == expected.to_lists()
    assert not any(row is b_row for row in rows for b_row in right)
    vector = data.draw(st.lists(SMALL, min_size=k, max_size=k))
    assert x.apply(vector) == dense_apply(x, vector)
    if r == k and type(x) is IntMatrix:
        assert char_poly(x) == fraction_char_poly(x)


def test_char_poly_of_repeated_unit_rows():
    # Rows 0 and 1 are both e_1, so each product shares one row of the
    # previous power twice; char_poly must not add to it in place.
    m = IntMatrix([[0, 1, 0], [0, 1, 0], [1, 0, 1]])
    assert char_poly(m) == fraction_char_poly(m) == (1, -2, 1, 0)


@pytest.mark.parametrize("left_kind, right_kind",
                         [(IntMatrix, IntMatrix), (IntMatrix, RatMatrix), (RatMatrix, RatMatrix)])
def test_unit_rows_share_the_right_factors_row(left_kind, right_kind):
    # A unit row e_k of P is summed like any other row: row i of P @ M
    # equals row k of M in value and type, and is a new row, never one of
    # M's own row objects.
    cases = [(left_kind([[0, 0, 1], [1, 0, 0], [2, 0, 1], [0, 0, 1], [0, 0, 0]]),
              right_kind([[1, -2], [3, 4], [5, 6]])),
             (left_kind([[1]]), right_kind([[5, 0]]))]
    for p, m in cases:
        product, expected = p @ m, dense_product(p, m)
        assert product == expected and type(product) is type(expected)
        assert repr(product) == repr(expected)
        assert not any(row is m_row for row in product._rows for m_row in m._rows)


@pytest.mark.parametrize("k", [*range(1, 13), 20, 33, 47, 60, 79, 80, 200, 400])
def test_ak_gram_inverse_closed_form(k):
    # (A_k gram)^-1 has entry -min(i, j) (k + 1 - max(i, j)) / (k + 1), 1-indexed.
    expected = [[Fraction(-min(i, j) * (k + 1 - max(i, j)), k + 1)
                 for j in range(1, k + 1)] for i in range(1, k + 1)]
    assert rat_inverse(neg_ak(k)).to_lists() == expected


@settings(deadline=None)
@given(snf_inputs())
def test_kernel_basis_matches_inverse_reference(m):
    basis = kernel_basis(m)
    assert basis == inverse_kernel_basis(m)
    assert all(type(x) is int for vec in basis for x in vec)
    assert all(m.apply(vec) == (0,) * m.rows for vec in basis)


@settings(deadline=None)
@given(square_matrices())
def test_cokernel_order_is_abs_det(m):
    group, _ = group_from_cokernel(m)
    d = det(m)
    if d == 0:
        assert not group.is_finite()
    else:
        assert group.is_finite() and group.torsion_order() == abs(d)


def bareiss_v_inverse(v):
    """V^-1 of a unimodular V from one Gauss-Jordan Bareiss pass on [V | I]:
    the elimination ``kernel_basis`` ran before V^-1 was replayed from the
    log."""
    n = v.rows
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(v.to_lists())]
    gauss_jordan_bareiss(a, n)
    p = a[0][0]
    return IntMatrix([[p * x for x in row[n:]] for row in a])


@settings(deadline=None)
@given(st.one_of(snf_inputs(), dense_presentations()), st.permutations(["u", "v", "v_inv"]))
def test_replayed_transforms_match_eager_reference(m, order):
    # U, V and V^-1 are replayed from the log in any order of reading;
    # each equals the transform the eager reference carried along.
    decomp = snf(m)
    u, d, v = reference_snf(m)
    assert decomp.d == d
    read = {
        "u": lambda: decomp.u,
        "v": lambda: decomp.v,
        "v_inv": lambda: IntMatrix.from_columns(decomp.v_inverse_columns(range(m.cols))),
    }
    built = {name: read[name]() for name in order}
    assert (built["u"], built["v"]) == (u, v)
    assert built["v_inv"] @ v == IntMatrix.identity(m.cols)
    assert built["v_inv"] == bareiss_v_inverse(v)
    # Nothing is kept: a second read replays the same transforms afresh.
    assert (decomp.u, decomp.v) == (built["u"], built["v"])
    assert decomp.v == forward_replay_v(decomp)
    for rows in (decomp.d._rows, decomp.u._rows, decomp.v._rows,
                 decomp.v_inverse_columns(range(m.cols))):
        assert_int_entries(rows)


def forward_replay_u(decomp):
    """U replayed from the log forwards: each row operation on A as the
    inverse column operation on the columns of U, as ``u`` was built
    before U's columns were replayed from the right."""
    cols = IntMatrix.identity(decomp.d.rows).to_lists()
    for kind, i, j, c in decomp._log:
        if kind == intmat._ROW_ADD:
            cols[j] = [x - c * y for x, y in zip(cols[j], cols[i])]
        elif kind == intmat._ROW_SWAP:
            cols[i], cols[j] = cols[j], cols[i]
        elif kind == intmat._ROW_NEGATE:
            cols[i] = [-x for x in cols[i]]
    return IntMatrix.from_columns(cols)


def forward_replay_v(decomp):
    """V replayed from the log forwards: each column operation on A as the
    inverse row operation on the rows of V, as ``v`` was built before one
    undo of the log gave both U's columns and V's rows."""
    rows = IntMatrix.identity(decomp.d.cols).to_lists()
    for kind, i, j, c in decomp._log:
        if kind == intmat._COL_ADD:
            rows[j] = [x - c * y for x, y in zip(rows[j], rows[i])]
        elif kind == intmat._COL_SWAP:
            rows[i], rows[j] = rows[j], rows[i]
    return IntMatrix(rows)


@settings(deadline=None)
@given(st.one_of(snf_inputs(), dense_presentations()), st.data())
def test_u_columns_match_the_eager_reference(m, data):
    # Any set of U's columns, in any order, replayed from the right, is
    # those columns of the U the eager reference carried along.  The replay
    # runs in place on a block of its own, so a second call gives the same.
    decomp = snf(m)
    u = reference_snf(m)[0]
    n = m.rows
    single = [data.draw(st.integers(0, n - 1))]
    subset = data.draw(st.lists(st.integers(0, n - 1), unique=True))
    for indices in ([], single, subset, list(range(n))):
        columns = decomp.u_columns(indices)
        assert columns == [u.column(s) for s in indices]
        assert decomp.u_columns(indices) == columns
        assert_int_entries(columns)
    assert decomp.u == u == forward_replay_u(decomp)
    assert_int_entries(decomp.u._rows)


@settings(deadline=None)
@given(st.one_of(snf_inputs(), dense_presentations()), st.data())
def test_v_inverse_columns_match_the_eager_reference(m, data):
    # Any set of V^-1's columns, in any order, replayed from the right, is
    # those columns of the inverse of the V the eager reference carried
    # along.  The replay runs on a block of its own, so a second call
    # gives the same.
    decomp = snf(m)
    v_inv = bareiss_v_inverse(reference_snf(m)[2])
    n = m.cols
    single = [data.draw(st.integers(0, n - 1))]
    subset = data.draw(st.lists(st.integers(0, n - 1), unique=True))
    for indices in ([], single, subset, list(range(n))):
        columns = decomp.v_inverse_columns(indices)
        assert columns == [v_inv.column(s) for s in indices]
        assert decomp.v_inverse_columns(indices) == columns
        assert_int_entries(columns)


def test_empty_log_replays_identity_transforms():
    d = IntMatrix([[1, 0, 0], [0, 2, 0]])
    decomp = SnfDecomposition(d, [])
    assert decomp.u == IntMatrix.identity(2)
    assert decomp.v == IntMatrix.identity(3)
    assert IntMatrix.from_columns(decomp.v_inverse_columns(range(3))) == IntMatrix.identity(3)
    assert decomp.reconstruct() == d


@pytest.mark.parametrize("replay, size, what", [
    ("u_columns", 2, "U column index"),
    ("v_inverse_columns", 3, "V^-1 column index"),
], ids=["u", "v_inv"])
def test_smith_replays_refuse_an_index_out_of_range(replay, size, what):
    # U has one column per row of M and V^-1 one per column; a negative
    # index is not read from the end, and a bool is not read as 0 or 1.
    decomp = snf(IntMatrix([[2, 0, 0], [0, 3, 0]]))
    columns = getattr(decomp, replay)
    for index, message in ((-1, "must be >= 0, got -1"),
                           (size, f"must be <= {size - 1}, got {size}"),
                           (True, "must be an integer, got True")):
        with pytest.raises(ValidationError, match=f"^{re.escape(what)} {message}$"):
            columns([0, index])
    every = columns(range(size))
    assert columns([size - 1, 0]) == [every[size - 1], every[0]]


class Recorded(list):
    """Every decomposition ``snf`` returned, in call order; ``asked`` maps
    each to the column replays it was asked for."""

    def __init__(self):
        super().__init__()
        self.asked = {}


@pytest.fixture
def recorded(monkeypatch):
    """Every decomposition ``snf`` returns, under any module's name, the
    columns of U and V^-1 each is asked to replay, and each read of V."""
    decomps = Recorded()
    real_snf = intmat.snf
    real_replays = {"u": SnfDecomposition.u_columns, "v_inv": SnfDecomposition.v_inverse_columns}
    real_v = SnfDecomposition.v.fget

    def recording_snf(matrix):
        decomps.append(real_snf(matrix))
        return decomps[-1]

    def recording(name):
        def replay(self, indices):
            indices = list(indices)
            decomps.asked.setdefault(self, []).append((name, indices))
            return real_replays[name](self, indices)
        return replay

    def recording_v(self):
        decomps.asked.setdefault(self, []).append(("v", None))
        return real_v(self)

    for module in list(sys.modules.values()):
        if getattr(module, "snf", None) is real_snf:
            monkeypatch.setattr(module, "snf", recording_snf)
    monkeypatch.setattr(SnfDecomposition, "u_columns", recording("u"))
    monkeypatch.setattr(SnfDecomposition, "v_inverse_columns", recording("v_inv"))
    monkeypatch.setattr(SnfDecomposition, "v", property(recording_v))
    return decomps


def transforms_built(decomps):
    """For each decomposition, what was replayed from its log, in order:
    ("u", indices) per ``u_columns`` call (``u`` asks for all of them),
    ("v_inv", indices) per ``v_inverse_columns`` call, and ("v", None)
    per read of V."""
    return [decomps.asked.get(d, []) for d in decomps]


def kernel_replay(decomp):
    """What ``kernel_basis`` asks of its decomposition: V^-1's columns
    for the zero invariant factors."""
    return [("v_inv", list(range(decomp.rank(), decomp.d.cols)))]


def test_diagonal_only_stations_build_no_transform(recorded):
    lat = cartan_matrix("D", 4)
    stations = [
        lambda: variation_cokernel(coxeter_element("A", 6)),
        lambda: link_profile(PlumbingBoundary(lat)),
        lambda: link_profile(Seifert(-1, ((2, 1), (3, 1), (11, 1)))),
    ]
    for station in stations:
        recorded.clear()
        station()
        assert transforms_built(recorded) == [[]]


def test_hom_analyze_builds_only_the_kernel_basis_inverse(recorded):
    # cokernel, solution kernel, preimage basis, cokernel of the dual map
    g = FGAbGroup.from_orders([2, 4])
    hom_analyze(FinAbHom(g, FGAbGroup.cyclic(4), IntMatrix([[2, 1]])))
    assert transforms_built(recorded) == [[], kernel_replay(recorded[1]), [], []]


def test_generators_build_u_and_kernels_build_v_inverse(recorded):
    # Generators replay only U's generator columns (the two of order 2 for
    # D_4), kernels replay only V^-1's columns for the zero invariant
    # factors, a D-only caller replays nothing, and a Smith-generator
    # package asks U and V^-1 for the same generator columns.
    group_from_cokernel(NEG_D4)
    kernel_basis(IntMatrix([[1, 2, 3], [2, 4, 6]]))
    cokernel_group(NEG_D4)
    discriminant_package(IntersectionLattice(NEG_D4))
    assert transforms_built(recorded) == [
        [("u", [2, 3])],
        [("v_inv", [1, 2])],
        [],
        [("u", [2, 3]), ("v_inv", [2, 3])],
    ]


def test_supplied_generators_build_no_u(recorded):
    # Only the default generators are read from U; supplied ones need the
    # group alone (and the span check's group).
    generators = IntMatrix.from_columns([(0, -1, 1, 0), (0, -1, 0, 1)])
    package = discriminant_package(cartan_matrix("D", 4), generators=generators)
    assert package.group == FGAbGroup.from_orders([2, 2])
    assert recorded
    assert transforms_built(recorded) == [[]] * len(recorded)


def test_reconstruct_replays_u_and_v_once(recorded):
    # reconstruct reads all of U's columns and V once each, and V^-1 never.
    m = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    assert snf(m).reconstruct() == m
    assert transforms_built(recorded) == [[("u", [0, 1, 2]), ("v", None)]]
