"""Exact integer and rational matrix algebra.

Everything here runs on Python's arbitrary-precision integers; no
floating point is used anywhere.  One base class holds shape, access,
equality and the product.  Both classes store integer rows over one
positive denominator, in lowest terms: 1 for an ``IntMatrix``, the lcm
of the entries' denominators for a ``RatMatrix``.  So every product runs
on ints, ``str`` formats the numerators (``_ratio_text``), and
``fractions`` is imported only by the readers that take or return a
Fraction.  One rule decides which entries are checked: the
constructor checks its input, and a product is wrapped unchecked.  In
the constructor an entry that is not a Fraction (in an IntMatrix, any
entry) passes ``_integer``, the library's one integer rule, so a bool,
float or string is refused, never converted.  An IntMatrix @ IntMatrix
sums int * int products, which are ints by construction, so its rows are
wrapped with no second scan (``IntMatrix._wrap``); a product with a
RatMatrix on either side is a RatMatrix over the product of the
denominators, brought to lowest terms by one gcd (``RatMatrix._reduced``).
Equality and hashing compare (rows, denominator), so an integral
RatMatrix equals the IntMatrix with the same entries.  There is one
product, over row lists, shared by ``@``, ``apply`` and the integer
``char_poly``.  The integer kernels (``snf``, ``det``, ``rat_inverse``,
``char_poly``) divide with ``//``, so they take an IntMatrix only and
refuse any other matrix up front; so does each library function that
hands a matrix on to them, under its own name (``_require_int_matrix``),
and so do ``hstack`` and ``-``, which combine rows entry by entry.

Sizes range from 8x8 intersection matrices to Coxeter elements of A_60
and beyond, so the kernels follow two rules:

* Zeros cost nothing.  The product sums only over the nonzero entries
  of both factors, and finds them with ``itertools.compress`` in C, so a
  zero costs no interpreted step.  A reflection (the identity but for one
  row) changes only that row of what it multiplies from the left, so
  ``coxeter_element`` computes just that row, as a one-row product, and
  shares every other row.  Elimination rewrites only the rows below the
  pivot with a nonzero in its column; every other row is scaled lazily, in
  one pass when it is next read.  Back substitution sums only over the
  nonzero entries of U.  The Smith form finds each pivot row's nonzeros
  from the pivot column on once, and every row operation and every
  column quotient of that pivot reads them; its replays add only the
  source row's (or column's) nonzeros, in place.
* Elimination stays fraction-free.  One forward Bareiss pass with exact
  divisions serves ``det`` and the one solve, ``rat_inverse(M, B)``: on
  [M | B] it runs that pass, then exact back substitution, and keeps
  M^-1 B as integers over |det M|: one denominator, no Fraction until an
  entry is read.  B defaults to the identity, which gives the inverse; a
  caller that needs M^-1 B for k columns B solves for those alone, and
  pays for the columns it reads, not for all of M^-1.  For the
  tridiagonal A_k gram the inverse is O(k^2) steps and the solve
  O(k * (k + columns)).

The centrepiece is ``snf``, a Smith normal form M = U * D * V with
unimodular U, V.  It reduces M alone and logs its elementary operations;
the transforms are replayed from that log on demand, only the columns
asked for, and nothing is kept.  One undo of the log gives U's columns
and V's rows (the columns of V^T); V^-1's columns have their own replay.
U's generator columns give cokernel generator representatives; V^-1's
columns for the zero invariant factors span the kernel
(``kernel_basis``), and for a nonsingular M, V^-1 e_s / d_s is
M^-1 U e_s, the dual of U's column s, so the discriminant package needs
no second elimination.  Most callers read only the diagonal and build
no transform.  D, U and V hold ints by construction, so they are
wrapped unchecked.
"""

import sys
from itertools import chain, compress
from math import gcd, lcm
from operator import index, itemgetter

from .errors import DimensionError, InvariantError, SingularMatrixError, ValidationError


# The greatest length a list can be asked for: a parameter that sizes a
# list, such as A_k's k, is refused above it, where building the list
# would raise OverflowError.
_LENGTH_MAX = sys.maxsize


def _integer(value, what, least=None, greatest=None):
    """``value`` as an int, or a ValidationError naming it as ``what``.

    The one check of every integer parameter and matrix entry.  A bool,
    float or string is refused ("must be an integer, got 1.5"), never
    truncated, and so is a value below ``least`` or above ``greatest``
    when one is given ("must be >= 2, got 1").
    """
    if not isinstance(value, bool):
        try:
            value = index(value)
        except TypeError:
            pass
        else:
            if least is None or value >= least:
                if greatest is None or value <= greatest:
                    return value
                raise ValidationError(f"{what} must be <= {greatest}, got {value}")
            raise ValidationError(f"{what} must be >= {least}, got {value}")
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def _ratio_text(num, den):
    """num/den, for den >= 1, as ``str(Fraction(num, den))`` writes it."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}" if g != den else str(num // g)


def _row_product(left, right):
    """Rows of left @ right.  Row i sums a * (row k of right) over the
    nonzero a = left[i][k], found by ``itertools.compress`` on the
    entries' truth values, so a zero is skipped in C.
    A right row keeps only its nonzero (j, b) pairs, built once, when the
    first sum reads it.  So the interpreted work is one step per nonzero
    a = left[i][k], plus one per pair of nonzeros a, b = right[k][j]: a
    zero row k of the right factor still costs a step for each nonzero a
    in column k of the left.  For example a dense k x k left factor
    times a k x 1 right factor takes k^2 steps."""
    width = len(right[0])
    columns, inner = range(width), range(len(right))
    sparse_rows = [None] * len(right)
    product = []
    for row in left:
        acc = [0] * width
        for k in compress(inner, row):
            terms = sparse_rows[k]
            if terms is None:
                b_row = right[k]
                terms = sparse_rows[k] = [(j, b_row[j]) for j in compress(columns, b_row)]
            a = row[k]
            for j, b in terms:
                acc[j] += a * b
        product.append(acc)
    return product


_INT = frozenset({int})


def _shaped(rows):
    """``rows`` as a tuple, or a DimensionError when it is empty or ragged."""
    rows = tuple(rows)
    if not rows or not rows[0]:
        raise DimensionError("matrix must have at least one row and column")
    if len(set(map(len, rows))) != 1:
        raise DimensionError("ragged rows in matrix literal")
    return rows


class _Matrix:
    """Shape, access and products shared by IntMatrix and RatMatrix.

    Both store integer rows over one positive denominator ``_den``, which
    is 1 for an IntMatrix, in lowest terms: gcd(den, every entry) = 1.  So
    products, equality and hashing run on int rows, and equal matrices
    have equal (rows, den) whatever their class.  A product with a
    RatMatrix on either side is a RatMatrix.  Rows are tuples, never
    changed once built, so matrices may share them.  The base methods
    read entries as they are stored; RatMatrix overrides those that hand
    an entry to the caller, which then gets a Fraction.
    """

    __slots__ = ("_rows",)

    @classmethod
    def identity(cls, n):
        rows = [[0] * n for _ in range(n)]
        for i, row in enumerate(rows):
            row[i] = 1
        return cls(rows)

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

    def is_square(self):
        return self.rows == self.cols

    def is_symmetric(self):
        # Rows against columns, compared as tuples in C; a non-square
        # matrix has a different number of each, so it never matches.
        # One denominator scales every entry alike.
        return self._rows == tuple(zip(*self._rows))

    def apply(self, vector):
        """Matrix times column vector, returned as a tuple of entries: ints
        when an IntMatrix meets ints, Fractions otherwise.  An entry that is
        not a Fraction must pass ``_integer``.  The vector is a one-column
        matrix, so the product runs on ints as ``@`` does."""
        from fractions import Fraction
        if len(vector) != self.cols:
            raise DimensionError("vector length does not match column count")
        vector = [x if isinstance(x, Fraction) else _integer(x, "vector entry") for x in vector]
        kind = RatMatrix if any(isinstance(x, Fraction) for x in vector) else IntMatrix
        return (self @ kind([[x] for x in vector])).column(0)

    def __matmul__(self, other):
        if not isinstance(other, _Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        product = _row_product(self._rows, other._rows)
        if isinstance(self, RatMatrix) or isinstance(other, RatMatrix):
            return RatMatrix._reduced(product, self._den * other._den)
        # Sums of int * int products are ints: nothing to check.
        return IntMatrix._wrap(product)

    def __eq__(self, other):
        return (isinstance(other, _Matrix) and self._den == other._den
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self._rows, self._den))

    def __str__(self):
        return "[" + ", ".join(
            "[" + ", ".join(_ratio_text(x, self._den) for x in row) + "]" for row in self._rows
        ) + "]"


class IntMatrix(_Matrix):
    """An immutable matrix with integer entries.

    The constructor keeps a row of ints as it is (a type scan in C) and
    passes any other row through ``_integer``; a product, difference,
    ``hstack`` or scalar multiple of IntMatrices is wrapped unchecked by
    ``_wrap``, since its entries are ints by construction.

    >>> m = IntMatrix([[-2]])
    >>> m.rows, m.cols
    (1, 1)
    >>> print(IntMatrix.identity(2))
    [[1, 0], [0, 1]]
    """

    __slots__ = ()
    _den = 1

    def __init__(self, rows):
        self._rows = _shaped([row if _INT.issuperset(map(type, row))
                              else tuple([_integer(x, "IntMatrix entry") for x in row])
                              for row in map(tuple, rows)])

    @classmethod
    def _wrap(cls, rows):
        """A matrix the library has built, with no entry or shape check.
        Only for int rows of one nonzero length, such as the rows of an
        int * int product.  A tuple row is kept as it is, with no copy, so
        ``coxeter_element`` shares the rows it does not change."""
        matrix = object.__new__(cls)
        matrix._rows = tuple(map(tuple, rows))
        return matrix

    # Bound here as well, so the integer product is an attribute of
    # IntMatrix itself and can be wrapped without touching RatMatrix.
    __matmul__ = _Matrix.__matmul__

    def transpose(self):
        return IntMatrix._wrap(zip(*self._rows))

    def diagonal(self):
        return tuple(self._rows[i][i] for i in range(min(self.rows, self.cols)))

    def hstack(self, other):
        _require_int_matrix(other, "hstack")
        if self.rows != other.rows:
            raise DimensionError("row counts differ in hstack")
        return IntMatrix._wrap([a + b for a, b in zip(self._rows, other._rows)])

    def __mul__(self, scalar):
        if not isinstance(scalar, int) or isinstance(scalar, bool):
            return NotImplemented
        scalar = index(scalar)
        return IntMatrix._wrap([[scalar * x for x in row] for row in self._rows])

    __rmul__ = __mul__

    def __sub__(self, other):
        # Only an IntMatrix: a RatMatrix's rows are numerators over its
        # denominator, not its entries.
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in subtraction")
        return IntMatrix._wrap(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self._rows, other._rows)]
        )

    def __repr__(self):
        return f"IntMatrix({self.to_lists()!r})"


class RatMatrix(_Matrix):
    """An immutable matrix with exact rational entries.

    Stored as integer numerator rows over one positive common denominator,
    in lowest terms (gcd(den, every numerator) = 1).  Products run on the
    numerators and multiply the denominators, ``str`` and ``repr`` format
    them, and a Fraction is built only when a caller reads an entry
    (``entry``, ``column``, ``to_lists``), in lowest terms.  The
    constructor takes Fractions and integers alike, entry by entry; a
    bool, float or string is refused rather than converted.
    """

    __slots__ = ("_den",)

    def __init__(self, rows):
        from fractions import Fraction
        rows = _shaped([[x if isinstance(x, Fraction) else _integer(x, "RatMatrix entry")
                         for x in row] for row in rows])
        # Each entry is in lowest terms, so over the lcm of their
        # denominators the whole matrix is too.
        den = lcm(*(x.denominator for row in rows for x in row))
        self._rows = tuple([tuple([x.numerator * (den // x.denominator) for x in row])
                            for row in rows])
        self._den = den

    @classmethod
    def _over(cls, rows, den):
        """The matrix (rows) / den, with no check: rows of ints of one
        nonzero length, already in lowest terms over den > 0."""
        matrix = object.__new__(cls)
        matrix._rows = tuple(map(tuple, rows))
        matrix._den = den
        return matrix

    @classmethod
    def _reduced(cls, rows, den):
        """The matrix (rows) / den for int rows and any nonzero den,
        brought to lowest terms over a positive denominator by one gcd."""
        g = gcd(den, *chain.from_iterable(rows))
        if den < 0:
            g = -g
        if g != 1:
            rows = [[x // g for x in row] for row in rows]
            den //= g
        return cls._over(rows, den)

    def entry(self, i, j):
        from fractions import Fraction
        return Fraction(self._rows[i][j], self._den)

    def column(self, j):
        from fractions import Fraction
        den = self._den
        return tuple(Fraction(r[j], den) for r in self._rows)

    def to_lists(self):
        from fractions import Fraction
        den = self._den
        return [[Fraction(x, den) for x in r] for r in self._rows]

    def transpose(self):
        return RatMatrix._over(zip(*self._rows), self._den)

    def __repr__(self):
        return f"RatMatrix({[[_ratio_text(x, self._den) for x in row] for row in self._rows]!r})"


def _require_int_matrix(matrix, what):
    """Refuse anything but an IntMatrix: the integer kernels floor-divide,
    which on Fractions gives wrong answers rather than an error."""
    if not isinstance(matrix, IntMatrix):
        raise ValidationError(f"{what} takes an IntMatrix, got {type(matrix).__name__}")


# Kinds of the (kind, i, j, c) entries in the operation log of ``snf``:
# swap rows (columns) i and j, negate row i, add c * row (column) j to i.
_ROW_SWAP, _ROW_NEGATE, _ROW_ADD, _COL_SWAP, _COL_ADD = range(5)


def _unit_block(size, indices, what):
    """Columns ``indices`` of the size x size identity, as ``size`` row
    lists, in that order: the block a Smith replay starts from.  Each
    index passes ``_integer`` as ``what``, in range(size), so a negative
    or bool index is refused, not read from the end or as 0 or 1."""
    indices = [_integer(s, what, 0, size - 1) for s in indices]
    block = [[0] * len(indices) for _ in range(size)]
    for s, row in enumerate(indices):
        block[row][s] = 1
    return block


class SnfDecomposition:
    """Smith normal form M = U * D * V with unimodular U and V.

    The diagonal of D is nonnegative, satisfies d_i | d_{i+1}, and lists
    zeros last; it is the invariant-factor sequence of M.

    ``snf`` reduces M alone and keeps the log of its elementary operations;
    the transforms are replayed from that log each time they are read, only
    the columns asked for, and nothing is cached.  One undo of the log
    (``_undo``) gives U's columns (``u_columns``; ``u`` is all of them) and
    V's rows (``v``); V^-1 = C_1 ... C_p over the column operations C_i,
    so its columns have their own replay (``v_inverse_columns``).  Each
    replayed addition changes its target in place, over the source's
    nonzeros only, found by ``compress`` in C.  The entries are ints by
    construction, so U and V are wrapped unchecked.  A caller that reads
    only D builds no transform.  The one constructor takes D and that log;
    an empty log replays to U = I and V = V^-1 = I.
    """

    __slots__ = ("d", "_log")

    def __init__(self, d, log):
        self.d = d
        self._log = log

    def _undo(self, block, kinds):
        """Undo one family of logged operations on ``block``, unit columns
        from ``_unit_block``, changed in place: the result is those columns,
        as int tuples, of the product of the operations' inverses, in log
        order.  ``kinds`` names the family's addition, swap and negation.

        The log runs in reverse on the block of the wanted unit columns, so
        the work scales with the number of columns asked for.  A logged
        "row i += c * row j" is undone by subtracting c times block row
        j's nonzeros from block row i, in place.  The row operations on A
        give U = E_1^-1 ... E_m^-1.  A logged column i += c * column j is
        C = I + c e_j e_i^T, whose C^-T is that same row step, so the
        column operations give V^T = C_1^-T ... C_p^-T: its columns are
        V's rows."""
        add, swap, negate = kinds
        width = range(len(block[0]))
        for kind, i, j, c in reversed(self._log):
            if kind == add:
                target, source = block[i], block[j]
                for s in compress(width, source):
                    target[s] -= c * source[s]
            elif kind == swap:
                block[i], block[j] = block[j], block[i]
            elif kind == negate:
                block[i] = [-x for x in block[i]]
        return list(zip(*block))

    def u_columns(self, indices):
        """Columns ``indices`` of U, as int tuples, in that order:
        U = E_1^-1 ... E_m^-1 over the row operations on A."""
        block = _unit_block(self.d.rows, indices, "U column index")
        return self._undo(block, (_ROW_ADD, _ROW_SWAP, _ROW_NEGATE))

    def v_inverse_columns(self, indices):
        """Columns ``indices`` of V^-1, as int tuples, in that order.

        V^-1 e_s = C_1 (C_2 (... (C_p e_s))), so the log runs in reverse,
        each column operation on A applied from the left to the block of
        the wanted unit columns.  Column i += c * column j is
        C = I + c e_j e_i^T, which adds c times block row i to block row
        j, in place over the source row's nonzeros; a column swap swaps
        the two block rows.  The work scales with the number of columns
        asked for, not with all of V^-1."""
        block = _unit_block(self.d.cols, indices, "V^-1 column index")
        width = range(len(block[0]))
        for kind, i, j, c in reversed(self._log):
            if kind == _COL_ADD:
                target, source = block[j], block[i]
                for s in compress(width, source):
                    target[s] += c * source[s]
            elif kind == _COL_SWAP:
                block[i], block[j] = block[j], block[i]
        return list(zip(*block))

    @property
    def u(self):
        """U: all of its columns, from ``u_columns``, wrapped unchecked."""
        return IntMatrix._wrap(zip(*self.u_columns(range(self.d.rows))))

    @property
    def v(self):
        """V: its rows are the columns of V^T, undone from the column
        operations, wrapped unchecked."""
        n = self.d.cols
        return IntMatrix._wrap(self._undo(_unit_block(n, range(n), "V row index"),
                                          (_COL_ADD, _COL_SWAP, None)))

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

    Only D is computed here; U's columns, V and V^-1 are replayed from the
    operation log when read (see ``SnfDecomposition``).  Each pivot p is
    the least nonzero |entry| of the trailing block.  Its row's nonzero
    (column, entry) pairs are found once; every row operation of the row
    pass subtracts a multiple of just those pairs, in place, and the same
    pairs give the column quotients.  D is wrapped unchecked.

    >>> snf(IntMatrix([[-2]])).d.to_lists()
    [[2]]
    >>> snf(IntMatrix([[2, 4], [6, 8]])).invariant_factors()
    (2, 4)
    """
    _require_int_matrix(matrix, "snf")
    a = matrix.to_lists()
    nr, nc = matrix.rows, matrix.cols
    # Every operation on A is logged once; replaying the log keeps
    # matrix == U @ A @ V (see SnfDecomposition).
    log = []
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
        top = a[t]
        if top[t] < 0:
            top = a[t] = [-x for x in top]
            log.append((_ROW_NEGATE, t, t, 0))

        p = top[t]
        # The pivot row's nonzero (k, b) pairs, found once by ``compress``
        # in C.  Every row from t down is zero before column t, and the row
        # pass leaves row t as it is, so these pairs serve every row
        # operation and every column quotient of this pass.
        terms = [(k, top[k]) for k in compress(range(t, nc), top[t:])]
        dirty = False
        for i in range(t + 1, nr):
            row = a[i]
            if row[t] != 0:
                q = row[t] // p
                if q:
                    for k, b in terms:
                        row[k] -= q * b
                    log.append((_ROW_ADD, i, t, -q))
                if row[t] != 0:
                    dirty = True
        # Column j -= q_j * column t for every j > t at once: column t does
        # not change, so each row is visited once and rows with a zero in
        # column t are skipped.  p is the least nonzero |entry| of the
        # block, so each nonzero b of row t has a nonzero quotient b // p.
        steps = [(j, b // p) for j, b in terms[1:]]
        if steps:
            for r in a:
                x = r[t]
                if x:
                    for j, q in steps:
                        r[j] -= q * x
            log.extend((_COL_ADD, j, t, -q) for j, q in steps)
        if dirty or any(top[t + 1:]):
            continue

        offender = None
        if p > 1:  # a unit pivot divides every entry
            for i in range(t + 1, nr):
                if any(a[i][j] % p for j in range(t + 1, nc)):
                    offender = i
                    break
        if offender is not None:
            # Pull the non-divisible row up so the next pass shrinks the
            # pivot: row t += row offender, over the offender's nonzeros.
            source = a[offender]
            for k in compress(range(t, nc), source[t:]):
                top[k] += source[k]
            log.append((_ROW_ADD, t, offender, 1))
            continue
        t += 1

    # Every entry is an int, built from ints by - and *: nothing to check.
    return SnfDecomposition(IntMatrix._wrap(a), log)


def _bareiss(a, n):
    """Forward fraction-free (Bareiss) elimination on the leading n x n
    block of the n rows of ``a``, in place; ``det`` and ``rat_inverse``
    share it.  Column c takes the first nonzero entry at or below the
    diagonal as pivot p and replaces each row r below it by
    (row * p - f * pivot_row) // prev, where f is the row's entry in column
    c and prev the previous pivot; the division is exact because every
    entry stays a minor.  Rows above the pivot are not touched.

    A row below with f = 0 would only be scaled by p / prev, so it is left
    as it is and scaled lazily.  ``pivots[s]`` is the divisor in force at
    stage s (pivots[0] = 1), and ``stage[r]`` the stage row r was last
    brought up to.  The scalings telescope, so a row from stage s is brought
    to stage c in one pass as x * pivots[c] // pivots[s]; that division is
    exact because the result is the eager row, whose entries are minors.  A
    row is brought up to date only when it is read: as the pivot row, or as
    a row with f != 0 (f is read again after scaling).  A swap swaps stages
    too.  The rows below the pivot with a nonzero in its column are found by
    ``compress`` in C, so a zero there costs no interpreted step.

    Row r ends at stage r, as row r of an upper-triangular U (in the block)
    with U_rr = pivots[r + 1]; the columns beyond the block carry the same
    row operations.  Returns det of the block (the swap sign times the last
    pivot), or 0 when a column has no pivot.
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
        # a[c + 1:] is a snapshot of the row lists, which are replaced, never
        # changed in place, so the lazy map reads each row's entry as found.
        for r in compress(range(c + 1, n), map(itemgetter(c), a[c + 1:])):
            row = current(r, c)
            f = row[c]
            a[r] = [(x * p - f * y) // prev for x, y in zip(row, top)]
            stage[r] = c + 1
        pivots.append(p)
    return sign * pivots[n]


def det(matrix):
    """Exact determinant of a square integer matrix: one forward Bareiss
    pass.

    >>> det(IntMatrix([[-1, 1, 1, 1], [1, -2, 0, 0], [1, 0, -3, 0], [1, 0, 0, -11]]))
    5
    """
    _require_int_matrix(matrix, "det")
    if not matrix.is_square():
        raise DimensionError("determinant requires a square matrix")
    return _bareiss(matrix.to_lists(), matrix.rows)


def rat_inverse(matrix, columns=None):
    """M^-1 B for a nonsingular square IntMatrix M and an IntMatrix B with
    as many rows, as a RatMatrix over |det M| in lowest terms; B = I when
    ``columns`` is omitted, which gives the inverse.  Only B's columns
    ride along, so with k of them the forward pass rewrites rows of n + k
    entries, not 2n, and back substitution costs k steps per nonzero of
    U, not n.

    The forward Bareiss pass leaves [U | C] with U upper triangular and
    U M^-1 B = C (see ``_bareiss``).  With d = |det M|, Y = d M^-1 B is
    integral, so exact fraction-free back substitution gives it row by
    row, last row first: Y_i = (d C_i - sum of U_ij Y_j over j > i) // U_ii,
    every division exact.  The sum runs only over the nonzero U_ij, found
    by ``compress`` in C, and each term costs one step per column of B;
    for the tridiagonal A_k gram that is one term per row.  The result is
    Y over the positive d, brought to lowest terms by one gcd, so no sign
    pass follows, and no Fraction is built.

    >>> print(rat_inverse(IntMatrix([[2, 1], [1, 1]])))
    [[1, -1], [-1, 2]]
    >>> print(rat_inverse(IntMatrix([[-2, 1], [1, -2]])))
    [[-2/3, -1/3], [-1/3, -2/3]]
    >>> print(rat_inverse(IntMatrix([[-2, 1], [1, -2]]), IntMatrix([[1], [0]])))
    [[-2/3], [-1/3]]

    Both sides are checked before any elimination: a RatMatrix is a
    ValidationError, a non-square M or a B with other rows a
    DimensionError.  Raises SingularMatrixError when M is singular.
    """
    _require_int_matrix(matrix, "rat_inverse")
    n = matrix.rows
    if columns is None:
        columns = IntMatrix._wrap((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))
    else:
        _require_int_matrix(columns, "rat_inverse")
    if not matrix.is_square() or columns.rows != n:
        raise DimensionError(f"cannot solve a {n}x{matrix.cols} system"
                             f" for {columns.rows}x{columns.cols} columns")
    a = [[*m, *b] for m, b in zip(matrix._rows, columns._rows)]
    d = abs(_bareiss(a, n))
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
    return RatMatrix._reduced(y, d)


def char_poly(matrix):
    """Characteristic polynomial det(tI - M), leading coefficient first.

    Faddeev-LeVerrier in integers: M_k = M (M_{k-1} + c_{k-1} I) and
    c_k = -tr(M_k) / k, each division exact for an integer matrix.  The
    products share the sparse row product of ``@``.

    >>> char_poly(IntMatrix([[-1]]))
    (1, 1)
    """
    _require_int_matrix(matrix, "char_poly")
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
            from fractions import Fraction  # bypassed IntMatrix rows may hold one
            last = _ratio_text(*Fraction(-trace, k).as_integer_ratio())
            shown = ", ".join([*map(str, coeffs), last])
            raise InvariantError(
                f"characteristic polynomial has non-integer coefficients {shown}"
            )
        coeffs.append(-trace // k)
    return tuple(coeffs)


def kernel_basis(matrix):
    """Basis of the integer kernel {x : Mx = 0}, as a list of int tuples.

    Derived from the Smith normal form: with M = U D V, Mx = 0 exactly
    when D V x = 0, so the kernel is spanned by the columns of V^-1
    matching the zero diagonal entries of D, ``range(rank, cols)``.  Only
    those columns are replayed from the operation log of ``snf``, in
    integers and with no elimination of V.
    """
    _require_int_matrix(matrix, "kernel_basis")
    decomp = snf(matrix)
    rank = decomp.rank()
    if rank == matrix.cols:
        return []
    return decomp.v_inverse_columns(range(rank, matrix.cols))
