"""Link profiles, universal-coefficient conversions, stalk tables."""

from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torsiontraj.abgroup import FGAbGroup, cokernel_group
from torsiontraj import links
from torsiontraj.errors import CapabilityError, InvariantError, ValidationError
from torsiontraj.intmat import IntMatrix
from torsiontraj.lattice import (
    IntersectionLattice,
    cartan_matrix,
    chain_matrix,
    discriminant_package,
    hj_expansion,
    star_matrix,
)
from torsiontraj.links import (
    LensSpace,
    PlumbingBoundary,
    Seifert,
    SpaceProfile,
    SphereProduct,
    lens_profile,
    link_profile,
    plumbing_link,
    seifert_h1_order,
    seifert_homology,
    stalk_profile,
    uct_cohomology_from_homology,
)

from uct_references import reference_uct

Z = FGAbGroup.free(1)


def test_lens_rp3():
    profile = lens_profile(2, 1)
    assert profile.group(0) == Z
    assert profile.group(1).is_trivial()
    assert profile.group(2) == FGAbGroup.cyclic(2)
    assert profile.group(3) == Z


def test_lens_4_1():
    assert lens_profile(4, 1).group(2) == FGAbGroup.cyclic(4)


def test_lens_5_2():
    assert lens_profile(5, 2).group(2) == FGAbGroup.cyclic(5)


def test_lens_profile_independent_of_q():
    for p in range(2, 31):
        profiles = [lens_profile(p, q) for q in range(1, p) if gcd(p, q) == 1]
        assert all(pr.cohomology == profiles[0].cohomology for pr in profiles)


def test_lens_validation():
    with pytest.raises(ValidationError):
        lens_profile(4, 2)
    with pytest.raises(ValidationError):
        lens_profile(1, 1)


def test_lens_profile_is_link_profile():
    for p, q in [(2, 1), (7, 3), (12, 5)]:
        profile = link_profile(LensSpace(p, q))
        assert profile.name == f"L({p},{q})"
        homology = {0: Z, 1: FGAbGroup.cyclic(p), 3: Z}
        assert profile.cohomology == uct_cohomology_from_homology(homology)


@pytest.mark.parametrize(
    "build",
    [lambda: LensSpace(3, True), lambda: LensSpace(2.5, 1), lambda: Seifert(True, ((2, 1),))],
    ids=["lens-bool-q", "lens-float-p", "seifert-bool-b"],
)
def test_link_data_must_be_integers(build):
    # L(3,True) was accepted under that name, gcd raised a bare TypeError
    # for 2.5, and True was stored as b = 1.
    with pytest.raises(ValidationError, match="must be an integer"):
        build()


def test_seifert_order_brieskorn():
    assert seifert_h1_order(-1, [(2, 1), (3, 1), (11, 1)]) == 5


def test_seifert_order_poincare_sphere():
    assert seifert_h1_order(-1, [(2, 1), (3, 1), (5, 1)]) == 1


def test_seifert_order_infinite():
    assert seifert_h1_order(-1, [(2, 1), (2, 1)]) is None


def test_seifert_homology_structure():
    assert seifert_homology(-1, [(2, 1), (3, 1), (11, 1)]) == FGAbGroup.cyclic(5)
    assert seifert_homology(-1, [(2, 1), (3, 1), (5, 1)]).is_trivial()


def test_link_profile_sphere_product():
    profile = link_profile(SphereProduct())
    assert profile.is_torsion_free()
    assert sorted(profile.cohomology) == [0, 2, 3, 5]


def test_link_profile_e8_homology_sphere():
    profile = link_profile(PlumbingBoundary(cartan_matrix("E8")))
    assert profile.cohomology == {0: Z, 3: Z}


def test_link_profile_brieskorn_plumbing():
    profile = link_profile(PlumbingBoundary(star_matrix(1, [2, 3, 11])))
    assert profile.torsion(2) == FGAbGroup.cyclic(5)
    assert profile.group(1).is_trivial()


def test_link_profile_seifert_infinite_h1_refused():
    with pytest.raises(CapabilityError):
        link_profile(Seifert(-1, ((2, 1), (2, 1))))


def test_link_profile_plumbing_with_free_part():
    # a singular gram matrix gives first Betti number 1 on the boundary
    from torsiontraj.intmat import IntMatrix
    from torsiontraj.lattice import IntersectionLattice

    profile = link_profile(PlumbingBoundary(IntersectionLattice(IntMatrix([[0]]))))
    assert profile.group(1) == Z
    assert profile.group(2) == Z


def test_stalk_profile_rp3():
    table = stalk_profile(lens_profile(2, 1), 2)
    assert table[-2] == Z
    assert -1 not in table
    assert table[0] == FGAbGroup.cyclic(2)
    assert table[1] == Z


def test_stalk_profile_odp():
    table = stalk_profile(link_profile(SphereProduct()), 3)
    assert table == {
        -3: Z,
        -1: Z,
        0: Z,
        2: Z,
    }
    assert all(g.is_free() for g in table.values())


def test_stalk_profile_identity_shift():
    profile = lens_profile(3, 1)
    assert stalk_profile(profile, 0) == profile.cohomology


def test_uct_rp3():
    homology = {0: Z, 1: FGAbGroup.cyclic(2), 3: Z}
    cohomology = uct_cohomology_from_homology(homology)
    assert cohomology == {0: Z, 2: FGAbGroup.cyclic(2), 3: Z}


def test_uct_brieskorn_link():
    homology = {0: Z, 1: FGAbGroup.cyclic(5), 3: Z}
    assert uct_cohomology_from_homology(homology)[2] == FGAbGroup.cyclic(5)


def test_uct_free_homology_is_degreewise_dual():
    homology = {0: Z, 1: FGAbGroup.free(4), 2: FGAbGroup.free(2)}
    assert uct_cohomology_from_homology(homology) == homology


def test_plumbing_duality_torsion():
    for lat in (cartan_matrix("A", 4), cartan_matrix("D", 5), star_matrix(1, [2, 3, 11])):
        profile = link_profile(PlumbingBoundary(lat))
        coker = discriminant_package(lat).group
        h1_torsion = profile.torsion(2)  # = Ext(H_1) by construction
        assert h1_torsion == coker
        assert profile.torsion(2) == profile.torsion(2).torsion()


def test_lens_matches_chain_discriminant():
    for p in range(2, 31):
        chain = chain_matrix(hj_expansion(p, 1))
        assert lens_profile(p, 1).torsion(2) == discriminant_package(chain).group


def test_profile_helpers():
    profile = SpaceProfile("x", {0: Z, 2: FGAbGroup.trivial()})
    assert 2 not in profile.cohomology
    assert profile.max_degree() == 0
    with pytest.raises(CapabilityError):
        profile.h0q(0)


seifert_arms = st.tuples(st.integers(2, 40) | st.integers(2, 2**80),
                         st.integers(-40, 40) | st.integers(-2**80, 2**80)
                         ).filter(lambda arm: gcd(*arm) == 1)


@given(st.integers(-6, 6), st.lists(seifert_arms, max_size=5))
def test_seifert_order_matches_the_fraction_sum(b, arms):
    # The reference sums e = b + sum beta_i/alpha_i as Fractions; the
    # library folds the same value over the common denominator in ints.
    e = Fraction(b) + sum(Fraction(beta, alpha) for alpha, beta in arms)
    order = prod(alpha for alpha, _ in arms) * e
    assert order.denominator == 1
    assert seifert_h1_order(b, arms) == (abs(order.numerator) if e else None)


@pytest.mark.parametrize(
    "b, arms",
    [
        (-1, ((2.7, 1), (3, 1))),
        (-1, ((2, 1), (3, 1.9))),
        (Fraction(1, 7), ((2, 1), (3, 1))),
        (-1.0, ((2, 1), (3, 1))),
        (-1, (("2", 1), (3, 1))),
        (-1, ((2, 1, 3), (3, 1))),
    ],
)
def test_seifert_refuses_non_integer_data(b, arms):
    # int() truncated these: (2.7, 1) became (2, 1)
    with pytest.raises(ValidationError, match="integer"):
        Seifert(b, arms)


@pytest.mark.parametrize("arms", [((2, 0), (3, 1), (11, 1)), ((4, 2), (3, 1), (11, 1))])
def test_seifert_refuses_non_coprime_arm(arms):
    # not Seifert invariants; they printed H^2 = Z/38 and Z/10
    with pytest.raises(ValidationError, match="gcd"):
        link_profile(Seifert(-1, arms))


def test_seifert_presentation_must_match_closed_formula(monkeypatch):
    monkeypatch.setattr(links, "seifert_homology", lambda b, arms: FGAbGroup.cyclic(7))
    with pytest.raises(InvariantError, match="closed formula gives order 5"):
        link_profile(Seifert(-1, ((2, 1), (3, 1), (11, 1))))


groups = st.builds(
    FGAbGroup.from_orders,
    st.lists(st.integers(2, 60), max_size=3),
    st.integers(0, 3),
)


@given(st.dictionaries(st.integers(0, 5), groups, max_size=6))
def test_uct_matches_reference_loops(homology):
    assert list(uct_cohomology_from_homology(homology).items()) == list(
        reference_uct(homology).items()
    )


def plumbing_lattice(weights, edges, order):
    """The plumbing gram of a weighted graph, vertex v placed at row order[v]."""
    gram = [[0] * len(weights) for _ in weights]
    for v, b in enumerate(weights):
        gram[order[v]][order[v]] = -b
    for u, v in edges:
        gram[order[u]][order[v]] = gram[order[v]][order[u]] = 1
    return IntersectionLattice(IntMatrix(gram))


@st.composite
def chains(draw):
    weights = draw(st.lists(st.integers(2, 9), min_size=1, max_size=30))
    edges = [(i, i + 1) for i in range(len(weights) - 1)]
    return weights, edges, draw(st.permutations(range(len(weights))))


@st.composite
def stars(draw):
    weights, edges = [draw(st.integers(1, 6))], []
    for _ in range(draw(st.integers(3, 4))):
        previous = 0
        for b in draw(st.lists(st.integers(2, 6), min_size=1, max_size=5)):
            edges.append((previous, len(weights)))
            previous = len(weights)
            weights.append(b)
    return weights, edges, draw(st.permutations(range(len(weights))))


@settings(deadline=None)
@given(st.one_of(chains(), stars()))
def test_plumbing_calculus_gives_the_cokernel_of_the_gram(graph):
    # The lens or Seifert presentation of the boundary against coker(gram),
    # with the vertices numbered in any order.
    lattice = plumbing_lattice(*graph)
    coker = cokernel_group(lattice.gram)
    assume(coker.is_finite())
    assert link_profile(plumbing_link(lattice)).torsion(2) == coker


def test_plumbing_link_reads_chains_from_the_lower_numbered_end():
    assert plumbing_link(chain_matrix([3, 2, 2])) == LensSpace(7, 3)
    assert plumbing_link(plumbing_lattice([3, 2, 2], [(0, 1), (1, 2)], [2, 1, 0])) == LensSpace(7, 5)
    assert plumbing_link(cartan_matrix("E8")) == Seifert(-2, ((2, 1), (3, 2), (5, 4)))


@pytest.mark.parametrize(
    "graph, message",
    [
        (([2, 2, 2], [(0, 1), (1, 2), (2, 0)], range(3)), "has a cycle"),
        (([2] * 6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)], range(6)), "tree with 2 branch vertices"),
        (([2, 2, 2], [(0, 1)], range(3)), "disconnected"),
        (([2, 1, 2], [(0, 1), (1, 2)], range(3)), "weights >= 2"),
    ],
    ids=["cycle", "two-branch-vertices", "disconnected", "chain-weight-1"],
)
def test_plumbing_link_names_a_graph_it_cannot_read(graph, message):
    with pytest.raises(ValidationError, match=message):
        plumbing_link(plumbing_lattice(*graph))


def test_plumbing_link_refuses_an_edge_of_weight_two():
    with pytest.raises(ValidationError, match=r"got 2 at \(0, 1\)"):
        plumbing_link(IntersectionLattice(IntMatrix([[-2, 2], [2, -2]])))
