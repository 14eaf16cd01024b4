"""Cohomology profiles of singularity links.

A profile is a finitely supported map degree -> group; degrees outside
the support are the zero group.  Built-in links: lens spaces L(p, q),
Seifert fibered spaces over S^2 with finite first homology, boundaries of
negative definite plumbings, and S^2 x S^3 (the threefold node link).

All groups are obtained through the universal coefficient theorem from
homology, so torsion lands one degree up from where it is born.  Every
3-manifold link enters it through the homology of a closed 3-manifold
with its H_1.

``plumbing_link`` maps a plumbing lattice to the lens space or Seifert
space that bounds it, by plumbing calculus on its weighted graph: a chain
gives L(p, q) and a star gives Seifert invariants, each from continued
fractions of the weights, so that space's H_1 is computed without the
gram's Smith form.  Continued fractions stay (p, q) pairs of ints.
"""

from itertools import compress
from math import gcd

from ._record import Record
from .abgroup import FGAbGroup, cokernel_group
from .errors import CapabilityError, InvariantError, ValidationError
from .intmat import IntMatrix, _integer
from .lattice import IntersectionLattice, hj_recompose


class SpaceProfile(Record):
    """Per-degree integral cohomology, plus an optional h^{0,q} column."""

    name: str
    cohomology: dict
    hodge_h0q: dict = None

    def __post_init__(self):
        clean = {_integer(k, "degree", 0): g
                 for k, g in self.cohomology.items() if not g.is_trivial()}
        object.__setattr__(self, "cohomology", clean)
        if self.hodge_h0q is not None:
            hodge = {_integer(k, "degree", 0):
                     _integer(v, "Hodge number", 0) for k, v in self.hodge_h0q.items()}
            object.__setattr__(self, "hodge_h0q", {k: v for k, v in hodge.items() if v})

    def group(self, degree):
        return self.cohomology.get(degree, FGAbGroup.trivial())

    def max_degree(self):
        return max(self.cohomology, default=0)

    def torsion(self, degree):
        return self.group(degree).torsion()

    def is_torsion_free(self):
        return all(g.is_free() for g in self.cohomology.values())

    def h0q(self, q):
        if self.hodge_h0q is None:
            raise CapabilityError(f"profile {self.name!r} carries no Hodge data")
        return self.hodge_h0q.get(q, 0)


# -- link models ------------------------------------------------------------

class LensSpace(Record):
    p: int
    q: int

    def __post_init__(self):
        p = _integer(self.p, "lens space p", 2)
        q = _integer(self.q, "lens space q")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if gcd(p, q) != 1:
            raise ValidationError(f"lens space L({p},{q}) needs gcd(p, q) = 1")


class Seifert(Record):
    """Seifert data (b; (alpha_1, beta_1), ..., (alpha_n, beta_n)) over S^2."""

    b: int
    arms: tuple

    def __post_init__(self):
        b = _integer(self.b, "Seifert b")
        try:
            arms = tuple((_integer(a, "a Seifert alpha", 2),
                          _integer(c, "a Seifert beta")) for a, c in self.arms)
        except (TypeError, ValueError):  # not an iterable of pairs
            raise ValidationError(
                f"Seifert arms must be integer pairs (alpha, beta), got {self.arms!r}"
            ) from None
        for a, c in arms:
            if gcd(a, c) != 1:
                raise ValidationError(f"Seifert arm ({a}, {c}) needs gcd(alpha, beta) = 1")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "arms", arms)


class SphereProduct(Record):
    """S^2 x S^3, the link of the threefold ordinary double point."""


class PlumbingBoundary(Record):
    lattice: IntersectionLattice


# -- plumbing calculus --------------------------------------------------------

_CHAINS_AND_STARS = "only a chain or a star maps to a link model"


def plumbing_link(lattice):
    """The lens space or Seifert space bounding a chain or star plumbing
    (Neumann, Trans. AMS 268, 1981).

    Vertex i has weight b_i = -gram[i][i], and each off-diagonal 1 is an
    edge.  A chain with weights b_1, ..., b_s, read from its
    lower-numbered end, bounds L(p, q) with p/q = b_1 - 1/(b_2 - ...).  A
    star with centre weight c bounds the Seifert space
    (-c; (alpha_1, beta_1), ...), where arm i, read from the centre
    outwards, has alpha_i/beta_i = b_1 - 1/(b_2 - ...).  Chain and arm
    weights must be >= 2.  Any other graph raises a ValidationError that
    names its shape.

    >>> from .lattice import cartan_matrix
    >>> plumbing_link(cartan_matrix("A", 3))
    LensSpace(p=4, q=3)
    >>> plumbing_link(cartan_matrix("D4"))
    Seifert(b=-2, arms=((2, 1), (2, 1), (2, 1)))
    """
    rows = lattice.gram.to_lists()
    n = len(rows)
    neighbours = []
    for i, row in enumerate(rows):
        adjacent = [j for j in compress(range(n), row) if j != i]
        for j in adjacent:
            if row[j] != 1:
                raise ValidationError(
                    f"a plumbing graph has 0 or 1 off the diagonal, got {row[j]} at ({i}, {j})")
        neighbours.append(adjacent)

    seen, todo = {0}, [0]
    while todo:
        for j in neighbours[todo.pop()]:
            if j not in seen:
                seen.add(j)
                todo.append(j)
    if len(seen) < n:
        raise ValidationError(f"the plumbing graph is disconnected ({len(seen)} of {n} vertices"
                              f" reachable from vertex 0); {_CHAINS_AND_STARS}")
    if sum(map(len, neighbours)) // 2 >= n:
        raise ValidationError(f"the plumbing graph has a cycle; {_CHAINS_AND_STARS}")
    branches = [i for i, adjacent in enumerate(neighbours) if len(adjacent) > 2]
    if len(branches) > 1:
        raise ValidationError(f"the plumbing graph is a tree with {len(branches)} branch"
                              f" vertices; {_CHAINS_AND_STARS}")

    def fraction(previous, vertex):
        """(alpha, beta) of the path that leaves ``previous`` through ``vertex``."""
        weights = []
        while True:
            weights.append(-rows[vertex][vertex])
            ahead = [j for j in neighbours[vertex] if j != previous]
            if not ahead:
                break
            previous, vertex = vertex, ahead[0]
        if min(weights) < 2:
            raise ValidationError(f"a plumbing chain or arm needs weights >= 2, got {weights}")
        return hj_recompose(weights)

    if not branches:
        end = next(i for i, adjacent in enumerate(neighbours) if len(adjacent) < 2)
        return LensSpace(*fraction(None, end))
    centre = branches[0]
    return Seifert(rows[centre][centre], tuple(fraction(centre, j) for j in neighbours[centre]))


# -- universal coefficient theorem --------------------------------------------

_TRIVIAL = FGAbGroup.trivial()


def uct_cohomology_from_homology(homology):
    """H^k = Hom(H_k, Z) + Ext^1(H_{k-1}, Z): free part plus torsion,
    degreewise, trivial degrees dropped.

    The sequence splits abstractly, which is all that matters at the
    level of isomorphism classes.
    """
    degrees = set(homology)
    out = {}
    for k in degrees | {d + 1 for d in degrees}:
        h_k = homology.get(k, _TRIVIAL)
        h_prev = homology.get(k - 1, _TRIVIAL)
        # Z^{rank H_k} + tors(H_{k-1}) is already in canonical form.
        group = FGAbGroup(h_k.free_rank, h_prev.invariant_factors)
        if not group.is_trivial():
            out[k] = group
    return out


# -- lens spaces --------------------------------------------------------------

def lens_profile(p, q):
    """Integral cohomology of L(p, q): H^2 = Z/p via Ext, the rest free.

    >>> print(lens_profile(2, 1).group(2))
    Z/2
    """
    return link_profile(LensSpace(p, q))


# -- Seifert fibered spaces ---------------------------------------------------

def seifert_h1_order(b, arms):
    """|H_1| of the Seifert space (b; (a_i, b_i)) when finite, else None.

    The order is |a_1 ... a_n (b + sum b_i/a_i)|, summed in integers over
    the common denominator; a zero value means H_1 is infinite (None).

    >>> seifert_h1_order(-1, [(2, 1), (3, 1), (11, 1)])
    5
    >>> seifert_h1_order(-1, [(2, 1), (2, 1)]) is None
    True
    """
    data = Seifert(b, tuple(arms))
    value, product = data.b, 1
    for alpha, beta in data.arms:
        value, product = value * alpha + beta * product, product * alpha
    return abs(value) if value else None


def seifert_homology(b, arms):
    """H_1 from the standard presentation: alpha_i x_i + beta_i h = 0 and
    x_1 + ... + x_n = b h."""
    data = Seifert(b, tuple(arms))
    n = len(data.arms)
    columns = []
    for i, (alpha, beta) in enumerate(data.arms):
        col = [0] * (n + 1)
        col[i] = alpha
        col[n] = beta
        columns.append(col)
    columns.append([1] * n + [-data.b])
    h1 = cokernel_group(IntMatrix.from_columns(columns))
    return h1


# -- profile assembly ---------------------------------------------------------

def link_profile(model):
    """Cohomology profile of a link model.

    Every model but S^2 x S^3 is a closed oriented 3-manifold given by
    its H_1: Z/p for L(p, q), coker(gram) for a plumbing boundary, and
    the Seifert presentation's cokernel, accepted only when finite.

    >>> link_profile(SphereProduct()).is_torsion_free()
    True
    """
    if isinstance(model, SphereProduct):
        return SpaceProfile("S^2 x S^3", {d: FGAbGroup.free(1) for d in (0, 2, 3, 5)})
    if isinstance(model, LensSpace):
        h1 = FGAbGroup.cyclic(model.p)
        name = f"L({model.p},{model.q})"
    elif isinstance(model, Seifert):
        order = seifert_h1_order(model.b, model.arms)
        if order is None:
            raise CapabilityError("Seifert space has infinite H_1; profile not constructed")
        h1 = seifert_homology(model.b, model.arms)
        if not h1.is_finite() or h1.torsion_order() != order:
            raise InvariantError(
                f"Seifert H_1 from its presentation is {h1}, but the closed "
                f"formula gives order {order}"
            )
        arms = ",".join(f"({a},{b})" for a, b in model.arms)
        name = f"Seifert({model.b};{arms})"
    elif isinstance(model, PlumbingBoundary):
        h1 = cokernel_group(model.lattice.gram)
        name = f"plumbing boundary (rank {model.lattice.rank})"
    else:
        raise ValidationError(f"unknown link model {model!r}")
    return SpaceProfile(name, uct_cohomology_from_homology(_closed3_homology(h1)))


def _closed3_homology(h1):
    """Homology of a closed oriented 3-manifold from its H_1.

    H_2 is free of the same rank as H_1 by Poincare duality, H_0 and H_3
    are Z.
    """
    return {
        0: FGAbGroup.free(1),
        1: h1,
        2: FGAbGroup.free(h1.free_rank),
        3: FGAbGroup.free(1),
    }


def stalk_profile(link, n):
    """Stalk table of the open-cone model: degree m holds H^{m+n}(link).

    >>> table = stalk_profile(lens_profile(2, 1), 2)
    >>> print(table[0])
    Z/2
    """
    n = _integer(n, "complex dimension", 0)
    return {deg - n: group for deg, group in link.cohomology.items()}
