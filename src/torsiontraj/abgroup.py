"""Finitely generated abelian groups and their homological algebra.

A group is stored canonically as a free rank plus the invariant-factor
chain d_1 | d_2 | ... (each >= 2).  Equality is equality of that data,
i.e. groups are compared up to isomorphism.  A primary (prime-power)
decomposition is available as a derived view.

Both fields and every cyclic order must be integers (``operator.index``);
floats, strings and booleans are refused, not truncated.  Finite
coefficients go through ``tensor`` and ``tor`` alone: Hom and Ext into
Z/n are G (x) Z/n and Tor(G, Z/n), the n-torsion of G is Tor(G, Z/n)
and G/nG is G (x) Z/n, so none of them has a formula of its own.

Homomorphisms between finite groups are integer matrices of generator
images; kernels, images and cokernels are computed by reducing combined
presentations with the Smith normal form, all in integers, and read
only its diagonal (``cokernel_group``).  The kernel is the cokernel of
the dual map on character groups.
"""

from math import gcd, lcm, prod
from operator import index

from ._record import Record
from .errors import DimensionError, InvariantError, ValidationError
from .intmat import IntMatrix, kernel_basis, snf


def _factorize(n):
    """Prime factorization {p: e} by trial division.

    Used only by the derived views ``prime_support`` and
    ``primary_decomposition``; normalization never factors.
    """
    result = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            result[p] = result.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        result[n] = result.get(n, 0) + 1
    return result


def _integer(value, what, error=ValidationError):
    """``value`` as an int, or ``error`` naming it; a bool is refused too."""
    if not isinstance(value, bool):
        try:
            return index(value)
        except TypeError:
            pass
    raise error(f"{what} must be an integer, got {value!r}")


def _invariant_factors(orders):
    """Canonical invariant-factor chain of a direct sum of cyclic groups.

    One pairwise pass replaces (a_i, a_j), i < j, by (gcd, lcm).  That
    keeps the product and, prime by prime, sorts the exponents upwards,
    so the result is a divisibility chain; the 1s are then dropped.

    >>> _invariant_factors([2, 3])
    (6,)
    >>> _invariant_factors([4, 6, 2])
    (2, 2, 12)
    """
    factors = list(orders)
    for d in factors:
        if d < 1:
            raise ValidationError(f"cyclic order must be positive, got {d}")
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            a, b = factors[i], factors[j]
            factors[i], factors[j] = gcd(a, b), lcm(a, b)
    return tuple(d for d in factors if d != 1)


class FGAbGroup(Record):
    """A finitely generated abelian group Z^r + Z/d_1 + ... + Z/d_k.

    >>> FGAbGroup.from_orders([2, 3]) == FGAbGroup.from_orders([6])
    True
    >>> print(FGAbGroup(1, (2, 4)))
    Z + Z/2 + Z/4
    """

    free_rank: int = 0
    invariant_factors: tuple = ()

    # Most records built are groups, so this initializer checks and
    # normalizes its arguments itself instead of the generic one.
    def __init__(self, free_rank=0, invariant_factors=()):
        rank = _integer(free_rank, "free rank")
        if rank < 0:
            raise ValidationError("free rank must be nonnegative")
        factors = tuple(_integer(d, "invariant factor") for d in invariant_factors)
        for d in factors:
            if d < 2:
                raise ValidationError("invariant factors must be >= 2")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValidationError(f"invariant factors must form a divisibility chain, got {factors}")
        fields = self.__dict__
        fields["free_rank"] = rank
        fields["invariant_factors"] = factors

    @classmethod
    def from_orders(cls, orders, free_rank=0):
        """Normalize an arbitrary list of cyclic orders (1s are dropped)."""
        orders = [_integer(d, "cyclic order") for d in orders]
        return cls(free_rank, _invariant_factors([d for d in orders if d != 1]))

    @classmethod
    def trivial(cls):
        return cls(0, ())

    @classmethod
    def free(cls, rank):
        return cls(rank, ())

    @classmethod
    def cyclic(cls, n):
        return cls.from_orders([n])

    def is_trivial(self):
        return self.free_rank == 0 and not self.invariant_factors

    def is_free(self):
        return not self.invariant_factors

    def is_finite(self):
        return self.free_rank == 0

    def torsion_order(self):
        """Order of the torsion subgroup (1 when torsion-free)."""
        return prod(self.invariant_factors) if self.invariant_factors else 1

    def torsion(self):
        return FGAbGroup(0, self.invariant_factors)

    def prime_support(self):
        """Primes dividing the torsion order."""
        support = set()
        for d in self.invariant_factors:
            support |= set(_factorize(d))
        return frozenset(support)

    def primary_decomposition(self):
        """Derived view: sorted tuple of prime-power cyclic orders."""
        powers = []
        for d in self.invariant_factors:
            powers.extend(p ** e for p, e in _factorize(d).items())
        return tuple(sorted(powers))

    def direct_sum(self, *others):
        orders = list(self.invariant_factors)
        rank = self.free_rank
        for g in others:
            orders.extend(g.invariant_factors)
            rank += g.free_rank
        return FGAbGroup.from_orders(orders, rank)

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        i = 0
        factors = self.invariant_factors
        while i < len(factors):
            j = i
            while j < len(factors) and factors[j] == factors[i]:
                j += 1
            count = j - i
            parts.append(f"Z/{factors[i]}" if count == 1 else f"(Z/{factors[i]})^{count}")
            i = j
        return " + ".join(parts) if parts else "0"


def _cokernel(decomp, rows):
    """coker(M) from its Smith form, and D's diagonal padded to ``rows``:
    rows beyond the diagonal (wide-or-tall cases) are free directions too."""
    diag = list(decomp.d.diagonal())
    diag += [0] * (rows - len(diag))
    group = FGAbGroup.from_orders([d for d in diag if d > 1], free_rank=diag.count(0))
    return group, diag


def cokernel_group(matrix):
    """Cokernel of M : Z^cols -> Z^rows, read from D alone, so the Smith
    form builds no transform.

    >>> print(cokernel_group(IntMatrix([[2, 0], [0, 0]])))
    Z + Z/2
    """
    return _cokernel(snf(matrix), matrix.rows)[0]


def group_from_cokernel(matrix):
    """Cokernel of M : Z^cols -> Z^rows, with generator representatives.

    Returns ``(group, generators)`` where ``generators`` is a list of
    ``(order, column)`` pairs: the columns of the unimodular factor U of
    the Smith normal form whose classes generate the cokernel.  Order 0
    marks a free generator.  Trivial (order-1) columns are omitted.  Reads
    D and U; a caller that needs only the group uses ``cokernel_group``.

    >>> g, gens = group_from_cokernel(IntMatrix([[-2]]))
    >>> print(g)
    Z/2
    """
    decomp = snf(matrix)
    group, diag = _cokernel(decomp, matrix.rows)
    u = decomp.u
    return group, [(d, u.column(i)) for i, d in enumerate(diag) if d != 1]


def ext1_to_Z(group):
    """Ext^1(G, Z): the torsion part of G; free summands contribute nothing."""
    return group.torsion()


def tensor(g, h):
    """G (x) H with Z/m (x) Z/n = Z/gcd(m, n) and Z (x) H = H.

    >>> print(tensor(FGAbGroup.cyclic(4), FGAbGroup.cyclic(2)))
    Z/2
    """
    orders = []
    for m in g.invariant_factors:
        for n in h.invariant_factors:
            orders.append(gcd(m, n))
    orders.extend(list(g.invariant_factors) * h.free_rank)
    orders.extend(list(h.invariant_factors) * g.free_rank)
    return FGAbGroup.from_orders(orders, g.free_rank * h.free_rank)


def tor(g, h):
    """Tor_1(G, H): torsion-to-torsion pairing Z/gcd; free parts vanish."""
    orders = [gcd(m, n) for m in g.invariant_factors for n in h.invariant_factors]
    return FGAbGroup.from_orders(orders)


def n_torsion(group, n):
    """Kernel of multiplication by n, which is Tor(G, Z/n).

    >>> print(n_torsion(FGAbGroup.cyclic(4), 2))
    Z/2
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    return tor(group, FGAbGroup.cyclic(n))


def scale_subgroup(group, n):
    """The subgroup nG and the quotient G/nG = G (x) Z/n.

    On torsion, nG = sum Z/(d_i / gcd(n, d_i)); n times a free summand
    is still free of the same rank.

    >>> sub, quot = scale_subgroup(FGAbGroup.cyclic(4), 2)
    >>> print(sub, "|", quot)
    Z/2 | Z/2
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    sub = FGAbGroup.from_orders(
        [d // gcd(n, d) for d in group.invariant_factors], group.free_rank
    )
    return sub, tensor(group, FGAbGroup.cyclic(n))


def rationalize(group):
    """dim_Q (G (x) Q): the free rank; all torsion dies."""
    return group.free_rank


class FinAbHom(Record):
    """A homomorphism between finite abelian groups.

    ``matrix`` holds generator images: column i lists the coordinates of
    f(s_i) in the target's generators, where s_i is the source generator
    of order ``source.invariant_factors[i]``.  Both groups are finite and
    nontrivial, since a matrix has at least one row and one column.
    """

    source: FGAbGroup
    target: FGAbGroup
    matrix: IntMatrix

    def __post_init__(self):
        if not self.source.is_finite() or not self.target.is_finite():
            raise ValidationError("homomorphism analysis supports torsion groups only")
        for side, group in (("source", self.source), ("target", self.target)):
            if group.is_trivial():
                raise ValidationError(
                    f"the {side} of a homomorphism is the trivial group 0; "
                    "it must be a nontrivial finite group"
                )
        n_src = len(self.source.invariant_factors)
        n_tgt = len(self.target.invariant_factors)
        if (self.matrix.rows, self.matrix.cols) != (n_tgt, n_src):
            raise DimensionError(
                f"matrix must be {n_tgt}x{n_src} for these groups, "
                f"got {self.matrix.rows}x{self.matrix.cols}"
            )
        for i, d in enumerate(self.source.invariant_factors):
            for j, t in enumerate(self.target.invariant_factors):
                if (d * self.matrix.entry(j, i)) % t:
                    raise ValidationError(
                        f"generator {i} of order {d} maps outside the target: "
                        f"entry ({j},{i}) violates order compatibility"
                    )

    @classmethod
    def identity(cls, group):
        n = len(group.invariant_factors)
        return cls(group, group, IntMatrix.identity(n))

    @classmethod
    def zero(cls, source, target):
        return cls(
            source,
            target,
            IntMatrix.zero(len(target.invariant_factors), len(source.invariant_factors)),
        )


class HomAnalysis(Record):
    kernel: FGAbGroup
    image: FGAbGroup
    cokernel: FGAbGroup


def hom_analyze(f):
    """Kernel, image and cokernel of a homomorphism of finite groups.

    Source and target are presented by their relation matrices
    D = diag(d_i) and R = diag(t_j); everything reduces to Smith normal
    forms of combined presentations:

    * cokernel = coker([M | R]) on the target's generators,
    * the preimage lattice P = {x : Mx in R Z^m} gives image = Z^n / P,
    * kernel = coker([N | D]) for the dual map f^ with N_ij = d_i M_ji / t_j
      on the dual generators, as ker f is isomorphic to coker f^.

    Satisfies |kernel| * |image| = |source|.
    """
    src = f.source.invariant_factors
    tgt = f.target.invariant_factors
    n, m = len(src), len(tgt)

    r_mat = IntMatrix([[tgt[i] if i == j else 0 for j in range(m)] for i in range(m)])

    cokernel = cokernel_group(f.matrix.hstack(r_mat))

    # Solutions of Mx = Ry, projected to x, form a basis of the preimage
    # lattice P = {x : Mx in R Z^m}.  R is nonsingular, so the projection
    # is injective, and P contains D Z^n because f respects the orders.
    solution_kernel = kernel_basis(f.matrix.hstack(-1 * r_mat))
    basis = IntMatrix.from_columns([vec[:n] for vec in solution_kernel])
    image = cokernel_group(basis)
    if not image.is_finite():
        raise InvariantError(
            f"preimage lattice has rank {n - image.free_rank}, expected full rank {n}"
        )
    # Each N_ij is an integer because f respects the orders.
    dual = [[d * f.matrix.entry(j, i) // t for j, t in enumerate(tgt)]
            + [d * (i == k) for k in range(n)] for i, d in enumerate(src)]
    kernel = cokernel_group(IntMatrix(dual))

    return HomAnalysis(kernel, image, cokernel)


def element_order(coords, factors):
    """Order of an element given by coordinates in cyclic factors."""
    o = 1
    for c, d in zip(coords, factors):
        if c % d:
            o = lcm(o, d // gcd(c, d))
    return o
