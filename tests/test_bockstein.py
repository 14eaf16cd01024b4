"""Bockstein images, shadow subpackages, the middle Kunneth direction."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsiontraj import bockstein
from torsiontraj.abgroup import FGAbGroup, group_from_cokernel, scale_subgroup
from torsiontraj.bockstein import (
    ShadowPackage,
    bo_direction_span,
    bockstein_image,
    shadow,
)
from torsiontraj.errors import InvariantError, ValidationError
from torsiontraj.intmat import IntMatrix, RatMatrix
from torsiontraj.lattice import (
    DiscriminantPackage,
    IntersectionLattice,
    abstract_package,
    cartan_matrix,
    chain_matrix,
    discriminant_package,
    trivial_package,
)

from test_intmat import count_fraction_calls
from test_lattice import negative_definite_grams
from uct_references import reference_mod_n

Z2 = FGAbGroup.cyclic(2)
Z4 = FGAbGroup.cyclic(4)


def test_bockstein_image_coble():
    image, kernel_size = bockstein_image(FGAbGroup.trivial(), Z4, 2)
    assert image == Z2
    assert kernel_size == 1


def test_bockstein_image_free_target():
    image, _ = bockstein_image(FGAbGroup.free(2), FGAbGroup.free(3), 7)
    assert image.is_trivial()


def test_bockstein_image_z6():
    # ker(multiplication by 4 on Z/6) = {0, 3} by brute force
    brute = {x for x in range(6) if (4 * x) % 6 == 0}
    image, kernel_size = bockstein_image(FGAbGroup.free(1), FGAbGroup.cyclic(6), 4)
    assert image == Z2
    assert len(brute) == image.torsion_order()
    assert kernel_size == 4  # |Z / 4Z|


def test_bockstein_validation():
    with pytest.raises(ValidationError):
        bockstein_image(Z2, Z2, 1)


def gcd_bockstein_image(h_r, h_r1, n):
    """Image and kernel size by their own gcd formulas: the previous
    construction, with n-torsion and H^r / n written out."""
    image = FGAbGroup.from_orders([gcd(n, d) for d in h_r1.invariant_factors])
    reduction = FGAbGroup.from_orders(
        [gcd(n, d) for d in h_r.invariant_factors] + [n] * h_r.free_rank
    )
    return image, reduction.torsion_order()


groups_with_free_part = st.builds(
    lambda orders, rank: FGAbGroup.from_orders(orders, rank),
    st.lists(st.integers(1, 36), max_size=4), st.integers(0, 3),
)


@given(groups_with_free_part, groups_with_free_part, st.integers(2, 40))
def test_bockstein_image_matches_gcd_formulas(h_r, h_r1, n):
    assert bockstein_image(h_r, h_r1, n) == gcd_bockstein_image(h_r, h_r1, n)


def test_exactness_accounting_for_lens_spaces():
    for p in range(2, 21):
        homology = {0: FGAbGroup.free(1), 1: FGAbGroup.cyclic(p), 3: FGAbGroup.free(1)}
        integral = {0: FGAbGroup.free(1), 2: FGAbGroup.cyclic(p), 3: FGAbGroup.free(1)}
        for n in (2, 3, 4):
            finite = reference_mod_n(homology, n)
            for r in (1, 2):
                h_r = integral.get(r, FGAbGroup.trivial())
                h_next = integral.get(r + 1, FGAbGroup.trivial())
                image, kernel_size = bockstein_image(h_r, h_next, n)
                total = finite.get(r, FGAbGroup.trivial()).torsion_order()
                assert total == kernel_size * image.torsion_order()


def test_shadow_coble():
    coble = discriminant_package(chain_matrix([4]))
    result = shadow(coble, 2)
    assert result.sub.group == Z2
    assert result.sub.form.entry(0, 0) == 0
    assert result.isotropic
    assert result.quotient == Z2


def test_shadow_a1_trivial():
    a1 = discriminant_package(chain_matrix([2]))
    result = shadow(a1, 2)
    assert result.sub.group.is_trivial()
    assert result.quotient == Z2
    assert result.isotropic


def test_shadow_z8():
    z8 = abstract_package(FGAbGroup.cyclic(8), [[Fraction(1, 8)]])
    result = shadow(z8, 2)
    assert result.sub.group == Z4
    # brute-force restricted value: q(2g, 2g) = 4/8 = 1/2
    assert result.sub.form.entry(0, 0) == Fraction(1, 2)
    assert not result.isotropic


def test_shadow_order_law_cyclic():
    for order in range(2, 65):
        pkg = abstract_package(FGAbGroup.cyclic(order), [[Fraction(1, order)]])
        for n in range(2, 9):
            result = shadow(pkg, n)
            assert (
                result.sub.group.torsion_order() * result.quotient.torsion_order()
                == order
            )


def test_shadow_order_law_check(monkeypatch):
    # |nE| |E/nE| = |E| is an identity, so a failure is a library defect,
    # not a usage error; the check is explicit, so it also fires under -O.
    monkeypatch.setattr(bockstein, "scale_subgroup", lambda group, n: (Z2, Z4))
    coble = abstract_package(Z4, [[Fraction(3, 4)]])
    with pytest.raises(InvariantError, match="order law"):
        shadow(coble, 2)


def test_shadow_tower():
    z8 = abstract_package(FGAbGroup.cyclic(8), [[Fraction(1, 8)]])
    twice = shadow(z8, 2).sub
    four_times = shadow(twice, 2).sub
    assert four_times.group == Z2
    # q(4g, 4g) = 16/8 = 0 mod 1
    assert four_times.form.entry(0, 0) == 0
    assert four_times.group == shadow(z8, 4).sub.group


def test_shadow_multi_generator():
    pkg = abstract_package(
        FGAbGroup.from_orders([2, 4]),
        [[Fraction(1, 2), 0], [0, Fraction(1, 4)]],
    )
    result = shadow(pkg, 2)
    assert result.sub.group == Z2
    assert result.quotient == FGAbGroup.from_orders([2, 2])


def fraction_shadow(package, n):
    """The previous construction: each restricted entry n^2 q_ij read as a
    Fraction and reduced mod 1, each generator column scaled entry by entry."""
    sub_group, quotient = scale_subgroup(package.group, n)
    if sub_group.is_trivial():
        return ShadowPackage(trivial_package(), quotient, True)
    factors = package.group.invariant_factors
    keep = [i for i, d in enumerate(factors) if d // gcd(n, d) > 1]
    entries = [[(n * n * package.form.entry(i, j)) % 1 for j in keep] for i in keep]
    generators = None
    if package.generators is not None:
        generators = RatMatrix.from_columns(
            [tuple(n * x for x in package.generators.column(i)) for i in keep]
        )
    isotropic = all(x == 0 for row in entries for x in row)
    return ShadowPackage(DiscriminantPackage(sub_group, RatMatrix(entries), generators),
                         quotient, isotropic)


@st.composite
def abstract_packages(draw):
    """A valid package on one to three cyclic factors d_1 | d_2 | d_3, its
    entries q_ij = a / d_min(i, j) drawn off [0, 1) as well."""
    orders = [draw(st.integers(2, 12))]
    for _ in range(draw(st.integers(0, 2))):
        orders.append(orders[-1] * draw(st.integers(1, 4)))
    k = len(orders)
    form = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            d = orders[i]
            form[i][j] = form[j][i] = Fraction(draw(st.integers(-2 * d, 2 * d)), d)
    return abstract_package(FGAbGroup.from_orders(orders), form)


@settings(deadline=None)
@given(st.one_of(abstract_packages(), negative_definite_grams().map(discriminant_package)))
def test_shadow_matches_fraction_reference(pkg):
    # Abstract packages have no generators; lattice packages have duals.
    for n in range(2, 7):
        assert repr(shadow(pkg, n)) == repr(fraction_shadow(pkg, n))


NON_ADE = IntersectionLattice(IntMatrix([[-3, 1, 0], [1, -5, 2], [0, 2, -7]]))
A60 = cartan_matrix("A", 60)
A60_GENERATORS = IntMatrix.from_columns([col for _, col in group_from_cokernel(A60.gram)[1]])
COBLE = discriminant_package(chain_matrix([4]))


@pytest.mark.parametrize("build", [
    lambda: discriminant_package(A60, A60_GENERATORS),
    lambda: discriminant_package(A60),
    lambda: discriminant_package(NON_ADE),
    lambda: discriminant_package(cartan_matrix("D4")),
    lambda: abstract_package(Z4, [[3]]),
    lambda: abstract_package(FGAbGroup.from_orders([2, 4]), [[1, 0], [0, -2]]),
    lambda: shadow(COBLE, 2),
], ids=["a60-supplied", "a60-smith", "non-ade", "d4", "z4-integer", "z2-z4-integer",
        "coble-shadow"])
def test_package_layer_builds_no_fraction(build):
    # Forms are reduced mod 1 on their numerators, and shadow pulls the
    # form back by the one product, so no Fraction is built until an
    # entry is read.
    _, calls = count_fraction_calls(build)
    assert calls == []


def test_bo_direction_span():
    assert bo_direction_span(Z2, FGAbGroup.free(4)) == FGAbGroup.from_orders([2] * 4)
    assert bo_direction_span(FGAbGroup.trivial(), FGAbGroup.free(4)).is_trivial()
    assert bo_direction_span(Z4, FGAbGroup.free(2)) == FGAbGroup.from_orders([4, 4])
    with pytest.raises(ValidationError):
        bo_direction_span(FGAbGroup.free(1), FGAbGroup.free(1))
    with pytest.raises(ValidationError):
        bo_direction_span(Z2, Z2)
