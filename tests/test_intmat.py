"""Exact linear algebra: Smith normal form, determinants, inverses."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsiontraj import abgroup, intmat
from torsiontraj.abgroup import FGAbGroup, FinAbHom, group_from_cokernel, hom_analyze
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
    char_poly,
    det,
    kernel_basis,
    rat_inverse,
    snf,
)
from torsiontraj.lattice import cartan_matrix, discriminant_package
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
    assert decomp.d.is_diagonal()
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


def test_matrix_validation():
    with pytest.raises(DimensionError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(DimensionError):
        IntMatrix([])


def test_int_matrix_refuses_inexact_entries():
    # int() truncated these: [[2.7, 1/2]] became [[2, 0]].
    for bad in (2.7, Fraction(1, 2), Fraction(4, 2), "3"):
        with pytest.raises(ValidationError, match=re.escape(repr(bad))):
            IntMatrix([[1, bad]])
    assert IntMatrix([[True, 2**80]]).to_lists() == [[1, 2**80]]


def test_to_int_matrix_round_trips():
    ints = IntMatrix([[-3, 0], [2**70, 1]])
    back = RatMatrix(ints.to_lists()).to_int_matrix()
    assert type(back) is IntMatrix and back == ints
    assert all(type(x) is int for row in back.to_lists() for x in row)
    assert RatMatrix([[Fraction(4, 2)]]).to_int_matrix().to_lists() == [[2]]
    with pytest.raises(DimensionError):
        RatMatrix([[Fraction(1, 2)]]).to_int_matrix()


def test_rat_matrix_refuses_inexact_entries():
    # Fraction() took these: 2.7 became 3039929748475085/1125899906842624
    # (the binary value of the float) and "1/2" became 1/2.
    for bad in (2.7, "1/2", "3", None):
        with pytest.raises(ValidationError, match=re.escape(repr(bad))):
            RatMatrix([[1, bad]])


def test_rat_matrix_entries_are_plain_fractions():
    class Half(Fraction):
        def __str__(self):
            return "one half"

    m = RatMatrix([[Half(1, 2), 3, True, Fraction(4, 6)]])
    assert all(type(x) is Fraction for row in m.to_lists() for x in row)
    assert str(m) == "[[1/2, 3, 1, 2/3]]"
    third = Fraction(1, 3)
    assert RatMatrix([[third]]).entry(0, 0) is third


def test_char_poly_integrality_check():
    # A matrix that bypassed the IntMatrix constructor can carry a
    # non-integer entry; the check is an explicit error, so it also fires
    # under python -O.
    m = object.__new__(IntMatrix)
    m._rows = ((Fraction(1, 2),),)
    with pytest.raises(InvariantError, match="non-integer coefficients 1, -1/2"):
        char_poly(m)


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
    """Every entry as the full dot product of a row and a column."""
    cols = y.columns()
    return IntMatrix([[sum(a * b for a, b in zip(row, col)) for col in cols]
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


def forward_bareiss_det(matrix):
    """Forward-only Bareiss elimination, the determinant before it shared
    one Gauss-Jordan pass with rat_inverse."""
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
    v_inv = rat_inverse(decomp.v).to_int_matrix()
    return [v_inv.column(j) for j in range(rank, matrix.cols)]


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
    """V^-1 of a unimodular V from one Bareiss pass on [V | I]: the
    elimination ``kernel_basis`` ran before V^-1 was replayed from the log."""
    n = v.rows
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(v.to_lists())]
    intmat._bareiss(a, n)
    p = a[0][0]
    return IntMatrix([[p * x for x in row[n:]] for row in a])


@settings(deadline=None)
@given(snf_inputs(), st.permutations(["u", "v", "v_inv"]))
def test_replayed_transforms_match_eager_reference(m, order):
    # U, V and V^-1 are replayed from the log in any order of reading;
    # each equals the transform the eager reference carried along.
    decomp = snf(m)
    u, d, v = reference_snf(m)
    assert decomp.d == d
    read = {
        "u": lambda: decomp.u,
        "v": lambda: decomp.v,
        "v_inv": lambda: IntMatrix.from_columns(decomp._v_inverse_columns()),
    }
    built = {name: read[name]() for name in order}
    assert (built["u"], built["v"]) == (u, v)
    assert built["v_inv"] @ v == IntMatrix.identity(m.cols)
    assert built["v_inv"] == bareiss_v_inverse(v)
    assert decomp.u is built["u"] and decomp.v is built["v"]


def test_empty_log_replays_identity_transforms():
    d = IntMatrix([[1, 0, 0], [0, 2, 0]])
    decomp = SnfDecomposition(d, [])
    assert decomp.u == IntMatrix.identity(2)
    assert decomp.v == IntMatrix.identity(3)
    assert IntMatrix.from_columns(decomp._v_inverse_columns()) == IntMatrix.identity(3)
    assert decomp.reconstruct() == d


@pytest.fixture
def recorded(monkeypatch):
    """Every decomposition ``snf`` returns, under either module's name."""
    decomps = []
    real_snf = intmat.snf

    def recording_snf(matrix):
        decomps.append(real_snf(matrix))
        return decomps[-1]

    monkeypatch.setattr(intmat, "snf", recording_snf)
    monkeypatch.setattr(abgroup, "snf", recording_snf)
    return decomps


def transforms_built(decomps):
    """For each decomposition, the transforms replayed from its log."""
    return [{name for name in ("u", "v", "v_inv") if getattr(d, "_" + name) is not None}
            for d in decomps]


def test_diagonal_only_stations_build_no_transform(recorded):
    lat = cartan_matrix("D", 4)
    package = discriminant_package(lat)
    stations = [
        lambda: variation_cokernel(coxeter_element("A", 6)),
        lambda: link_profile(PlumbingBoundary(lat)),
        lambda: link_profile(Seifert(-1, ((2, 1), (3, 1), (11, 1)))),
        package.is_nondegenerate,
    ]
    for station in stations:
        recorded.clear()
        station()
        assert transforms_built(recorded) == [set()]


def test_hom_analyze_builds_only_the_kernel_basis_inverse(recorded):
    # cokernel, solution kernel, preimage basis, cokernel of the dual map
    g = FGAbGroup.from_orders([2, 4])
    hom_analyze(FinAbHom(g, FGAbGroup.cyclic(4), IntMatrix([[2, 1]])))
    assert transforms_built(recorded) == [set(), {"v_inv"}, set(), set()]


def test_generators_build_u_and_kernels_build_v_inverse(recorded):
    group_from_cokernel(NEG_D4)
    kernel_basis(IntMatrix([[1, 2, 3], [2, 4, 6]]))
    assert transforms_built(recorded) == [{"u"}, {"v_inv"}]


def test_supplied_generators_build_no_u(recorded):
    # Only the default generators are read from U; supplied ones need the
    # group alone (and the span check's group).
    generators = IntMatrix.from_columns([(0, -1, 1, 0), (0, -1, 0, 1)])
    package = discriminant_package(cartan_matrix("D", 4), generators=generators)
    assert package.group == FGAbGroup.from_orders([2, 2])
    assert recorded
    assert all("u" not in built for built in transforms_built(recorded))
