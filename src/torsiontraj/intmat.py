"""Exact integer and rational matrix algebra.

Everything here runs on Python's arbitrary-precision integers and
``fractions.Fraction``; no floating point is used anywhere.  One base
class holds shape, access, equality and the product; ``IntMatrix`` and
``RatMatrix`` differ only in their entry type (``int`` or ``Fraction``)
and in a few type-specific operations; an IntMatrix refuses a float or
``Fraction`` entry instead of truncating it, and a RatMatrix refuses a
float or a string instead of converting it.  Equality compares entries,
so an integral RatMatrix equals the IntMatrix with the same entries, and
a product with a RatMatrix on either side is a RatMatrix.  There is one
product, over row lists, shared by ``@``, ``apply`` and the integer
``char_poly``.

Sizes range from 8x8 intersection matrices to Coxeter elements of A_60
and beyond, so the kernels follow two rules:

* Zeros cost nothing in products.  The product sums only over the
  nonzero entries of both factors, so multiplying by a reflection (the
  identity but for one row) costs O(n^2).
* Elimination stays fraction-free.  One Bareiss Gauss-Jordan pass with
  exact divisions serves ``det`` and ``rat_inverse`` (on [M | I], forming
  each Fraction once, at the end).

The centrepiece is ``snf``, a Smith normal form M = U * D * V with
unimodular U, V.  It reduces M alone and logs its elementary operations;
the transforms are replayed from that log on demand: U for cokernel
generator representatives, V^-1 for ``kernel_basis``.  Most callers read
only the diagonal and build no transform.
"""

from fractions import Fraction
from operator import index

from .errors import DimensionError, InvariantError, SingularMatrixError, ValidationError


def _row_product(left, right):
    """Rows of left @ right.  Row i sums a * (row k of right) over the
    nonzero a = left[i][k], and rows of right keep only their nonzero
    (j, b) pairs, so a reflection factor costs O(n^2), not O(n^3)."""
    width = len(right[0])
    sparse_rows = [[(j, b) for j, b in enumerate(row) if b] for row in right]
    product = []
    for row in left:
        acc = [0] * width
        for a, terms in zip(row, sparse_rows):
            if a:
                for j, b in terms:
                    acc[j] += a * b
        product.append(acc)
    return product


class _Matrix:
    """Shape, access and products shared by IntMatrix and RatMatrix.

    A subclass names its entry type in ``_entry``; the constructor applies
    it once to every entry.  Results keep the caller's entry type, and a
    product with a RatMatrix on either side is a RatMatrix.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows):
        entry = self._entry
        converted = []
        for row in rows:
            try:
                converted.append(tuple(map(entry, row)))
            except TypeError:
                for x in row:
                    try:
                        entry(x)
                    except TypeError:
                        raise ValidationError(
                            f"{x!r} is not a valid {type(self).__name__} entry"
                        ) from None
                raise
        rows = tuple(converted)
        if not rows or not rows[0]:
            raise DimensionError("matrix must have at least one row and column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DimensionError("ragged rows in matrix literal")
        self._rows = rows

    @classmethod
    def identity(cls, n):
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns):
        return cls(list(zip(*columns)))

    @property
    def rows(self):
        return len(self._rows)

    @property
    def cols(self):
        return len(self._rows[0])

    def entry(self, i, j):
        return self._rows[i][j]

    def column(self, j):
        return tuple(r[j] for r in self._rows)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def to_lists(self):
        return [list(r) for r in self._rows]

    def transpose(self):
        return type(self)(list(zip(*self._rows)))

    def is_square(self):
        return self.rows == self.cols

    def is_symmetric(self):
        return self.is_square() and all(
            self._rows[i][j] == self._rows[j][i]
            for i in range(self.rows)
            for j in range(i)
        )

    def apply(self, vector):
        """Matrix times column vector, returned as a tuple of entries."""
        if len(vector) != self.cols:
            raise DimensionError("vector length does not match column count")
        return tuple(row[0] for row in _row_product(self._rows, [[x] for x in vector]))

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        product = _row_product(self._rows, other._rows)
        rational = isinstance(self, RatMatrix) or isinstance(other, RatMatrix)
        return (RatMatrix if rational else IntMatrix)(product)

    def __eq__(self, other):
        return isinstance(other, _Matrix) and self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __str__(self):
        return "[" + ", ".join(
            "[" + ", ".join(str(x) for x in row) + "]" for row in self._rows
        ) + "]"


class IntMatrix(_Matrix):
    """An immutable matrix with integer entries.

    >>> m = IntMatrix([[-2]])
    >>> m.rows, m.cols
    (1, 1)
    >>> print(IntMatrix.identity(2))
    [[1, 0], [0, 1]]
    """

    __slots__ = ()
    _entry = index

    # Bound here as well, so the integer product is an attribute of
    # IntMatrix itself and can be wrapped without touching RatMatrix.
    __matmul__ = _Matrix.__matmul__

    @classmethod
    def zero(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)])

    def is_diagonal(self):
        return all(
            self._rows[i][j] == 0
            for i in range(self.rows)
            for j in range(self.cols)
            if i != j
        )

    def diagonal(self):
        return tuple(self._rows[i][i] for i in range(min(self.rows, self.cols)))

    def hstack(self, other):
        if self.rows != other.rows:
            raise DimensionError("row counts differ in hstack")
        return IntMatrix([a + b for a, b in zip(self._rows, other._rows)])

    def __mul__(self, scalar):
        if not isinstance(scalar, int):
            return NotImplemented
        return IntMatrix([[scalar * x for x in row] for row in self._rows])

    __rmul__ = __mul__

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in subtraction")
        return IntMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self._rows, other._rows)]
        )

    def __repr__(self):
        return f"IntMatrix({self.to_lists()!r})"


def _fraction(x):
    """A RatMatrix entry: a Fraction as it is, an integer as a Fraction.
    A float or a string raises TypeError instead of being converted."""
    if type(x) is Fraction:
        return x
    if isinstance(x, Fraction):
        return Fraction(x.numerator, x.denominator)
    return Fraction(index(x))


class RatMatrix(_Matrix):
    """An immutable matrix with exact rational entries.

    Entries are ``fractions.Fraction`` values, hence always in lowest
    terms with positive denominator.  Fractions and integers are accepted;
    a float or a string is refused rather than converted.
    """

    __slots__ = ()
    _entry = staticmethod(_fraction)

    def to_int_matrix(self):
        if any(x.denominator != 1 for row in self._rows for x in row):
            raise DimensionError("matrix has non-integer entries")
        return IntMatrix([[x.numerator for x in row] for row in self._rows])

    def __repr__(self):
        return f"RatMatrix({[[str(x) for x in row] for row in self._rows]!r})"


# Kinds of the (kind, i, j, c) entries in the operation log of ``snf``:
# swap rows (columns) i and j, negate row i, add c * row (column) j to i.
_ROW_SWAP, _ROW_NEGATE, _ROW_ADD, _COL_SWAP, _COL_ADD = range(5)


class SnfDecomposition:
    """Smith normal form M = U * D * V with unimodular U and V.

    The diagonal of D is nonnegative, satisfies d_i | d_{i+1}, and lists
    zeros last; it is the invariant-factor sequence of M.

    ``snf`` reduces M alone and keeps the log of its elementary operations;
    U, V and V^-1 are replayed from that log the first time each is read,
    and then kept.  A caller that reads only D builds no transform.  The
    one constructor takes D and that log; an empty log replays to U = I
    and V = V^-1 = I.
    """

    __slots__ = ("d", "_log", "_u", "_v", "_v_inv")

    def __init__(self, d, log):
        self.d = d
        self._log = log
        self._u = self._v = self._v_inv = None

    @property
    def u(self):
        """U: each row operation on A, replayed as the inverse column
        operation on the columns of U."""
        if self._u is None:
            cols = IntMatrix.identity(self.d.rows).to_lists()
            for kind, i, j, c in self._log:
                if kind == _ROW_ADD:
                    cols[j] = [x - c * y for x, y in zip(cols[j], cols[i])]
                elif kind == _ROW_SWAP:
                    cols[i], cols[j] = cols[j], cols[i]
                elif kind == _ROW_NEGATE:
                    cols[i] = [-x for x in cols[i]]
            self._u = IntMatrix.from_columns(cols)
        return self._u

    @property
    def v(self):
        """V: each column operation on A, replayed as the inverse row
        operation on the rows of V."""
        if self._v is None:
            rows = IntMatrix.identity(self.d.cols).to_lists()
            for kind, i, j, c in self._log:
                if kind == _COL_ADD:
                    rows[j] = [x - c * y for x, y in zip(rows[j], rows[i])]
                elif kind == _COL_SWAP:
                    rows[i], rows[j] = rows[j], rows[i]
            self._v = IntMatrix(rows)
        return self._v

    def _v_inverse_columns(self):
        """Columns of V^-1: each column operation on A, replayed as the
        same column operation on V^-1."""
        if self._v_inv is None:
            cols = IntMatrix.identity(self.d.cols).to_lists()
            for kind, i, j, c in self._log:
                if kind == _COL_ADD:
                    cols[i] = [x + c * y for x, y in zip(cols[i], cols[j])]
                elif kind == _COL_SWAP:
                    cols[i], cols[j] = cols[j], cols[i]
            self._v_inv = [tuple(col) for col in cols]
        return self._v_inv

    def reconstruct(self):
        return self.u @ self.d @ self.v

    def invariant_factors(self):
        """Nonzero diagonal entries of D, in divisibility order."""
        return tuple(x for x in self.d.diagonal() if x != 0)

    def rank(self):
        return len(self.invariant_factors())

    def __repr__(self):
        return f"SnfDecomposition(d={list(self.d.diagonal())!r})"


def snf(matrix):
    """Smith normal form of an integer matrix (rectangular allowed).

    Only D is computed here; U, V and V^-1 are built from the operation
    log when first read (see ``SnfDecomposition``).

    >>> snf(IntMatrix([[-2]])).d.to_lists()
    [[2]]
    >>> snf(IntMatrix([[2, 4], [6, 8]])).invariant_factors()
    (2, 4)
    """
    a = matrix.to_lists()
    nr, nc = matrix.rows, matrix.cols
    # Every operation on A is logged once; replaying the log keeps
    # matrix == U @ A @ V (see SnfDecomposition).
    log = []

    def row_add(i, j, c):
        # a[i] += c * a[j]
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        log.append((_ROW_ADD, i, j, c))

    t = 0
    bound = min(nr, nc)
    while t < bound:
        # The first smallest nonzero entry of the trailing block, in
        # row-major order, becomes the pivot; nothing can replace a unit.
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
            log.append((_ROW_SWAP, t, pi, 0))
        if pj != t:
            for r in a:
                r[t], r[pj] = r[pj], r[t]
            log.append((_COL_SWAP, t, pj, 0))
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            log.append((_ROW_NEGATE, t, t, 0))

        p = a[t][t]
        dirty = False
        for i in range(t + 1, nr):
            if a[i][t] != 0:
                q = a[i][t] // p
                if q:
                    row_add(i, t, -q)
                if a[i][t] != 0:
                    dirty = True
        # Column j -= q_j * column t for every j > t at once: column t does
        # not change, so each row is visited once and rows with a zero in
        # column t are skipped.
        steps = [(j, q) for j in range(t + 1, nc) if (q := a[t][j] // p)]
        if steps:
            for r in a:
                x = r[t]
                if x:
                    for j, q in steps:
                        r[j] -= q * x
            log.extend((_COL_ADD, j, t, -q) for j, q in steps)
        if dirty or any(a[t][t + 1:]):
            continue

        offender = None
        if p > 1:  # a unit pivot divides every entry
            for i in range(t + 1, nr):
                if any(a[i][j] % p for j in range(t + 1, nc)):
                    offender = i
                    break
        if offender is not None:
            # Pull the non-divisible row up so the next pass shrinks the pivot.
            row_add(t, offender, 1)
            continue
        t += 1

    return SnfDecomposition(IntMatrix(a), log)


def _bareiss(a, n):
    """Fraction-free Gauss-Jordan (Bareiss) on the leading n x n block of
    the n rows of ``a``, in place; ``det`` and ``rat_inverse`` share it.
    Each column takes the first nonzero entry at or below the diagonal as
    pivot p and replaces every other row by (row * p - f * pivot_row) //
    prev, exact because every entry stays a minor.  The block ends as p * I
    for the last pivot p, and the columns beyond it as p times the block's
    inverse applied to them.  Returns det of the block (the swap sign
    times p), or 0 when a column has no pivot.
    """
    sign = 1
    prev = 1
    for c in range(n):
        pivot_row = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != c:
            a[c], a[pivot_row] = a[pivot_row], a[c]
            sign = -sign
        top = a[c]
        p = top[c]
        for r in range(n):
            if r != c:
                row = a[r]
                f = row[c]
                a[r] = [(x * p - f * y) // prev for x, y in zip(row, top)]
        prev = p
    return sign * prev


def det(matrix):
    """Exact determinant of a square integer matrix: one Bareiss pass.

    >>> det(IntMatrix([[-1, 1, 1, 1], [1, -2, 0, 0], [1, 0, -3, 0], [1, 0, 0, -11]]))
    5
    """
    if not matrix.is_square():
        raise DimensionError("determinant requires a square matrix")
    return _bareiss(matrix.to_lists(), matrix.rows)


def rat_inverse(matrix):
    """Exact inverse of a nonsingular integer matrix, as a RatMatrix.

    One Bareiss pass on [M | I] leaves [p * I | p * M^-1] for the last
    pivot p, so each entry is built once, as Fraction(x, p).

    >>> print(rat_inverse(IntMatrix([[2, 1], [1, 1]])))
    [[1, -1], [-1, 2]]
    >>> print(rat_inverse(IntMatrix([[-2, 1], [1, -2]])))
    [[-2/3, -1/3], [-1/3, -2/3]]

    Raises SingularMatrixError when the matrix is singular.
    """
    if not matrix.is_square():
        raise DimensionError("inverse requires a square matrix")
    n = matrix.rows
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(matrix.to_lists())]
    if _bareiss(a, n) == 0:
        raise SingularMatrixError("matrix is singular")
    p = a[0][0]
    return RatMatrix([[Fraction(x, p) for x in row[n:]] for row in a])


def char_poly(matrix):
    """Characteristic polynomial det(tI - M), leading coefficient first.

    Faddeev-LeVerrier in integers: M_k = M (M_{k-1} + c_{k-1} I) and
    c_k = -tr(M_k) / k, each division exact for an integer matrix.  The
    products share the sparse row product of ``@``.

    >>> char_poly(IntMatrix([[-1]]))
    (1, 1)
    """
    if not matrix.is_square():
        raise DimensionError("characteristic polynomial requires a square matrix")
    n = matrix.rows
    coeffs = [1]
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += coeffs[-1]
        m = _row_product(matrix._rows, m)
        trace = sum(m[i][i] for i in range(n))
        if trace % k:
            shown = ", ".join(str(c) for c in coeffs + [-trace / k])
            raise InvariantError(
                f"characteristic polynomial has non-integer coefficients {shown}"
            )
        coeffs.append(-trace // k)
    return tuple(coeffs)


def kernel_basis(matrix):
    """Basis of the integer kernel {x : Mx = 0}, as a list of int tuples.

    Derived from the Smith normal form: with M = U D V, the kernel is
    spanned by the columns of V^-1 matching zero diagonal entries of D.
    V^-1 is replayed from the operation log of ``snf``, in integers and
    with no elimination of V.
    """
    decomp = snf(matrix)
    rank = decomp.rank()
    if rank == matrix.cols:
        return []
    return decomp._v_inverse_columns()[rank:]
