"""Bockstein images, shadow subpackages, the middle Kunneth direction."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from torsiontraj import bockstein
from torsiontraj.abgroup import FGAbGroup
from torsiontraj.bockstein import bo_direction_span, bockstein_image, shadow
from torsiontraj.errors import InvariantError, ValidationError
from torsiontraj.lattice import abstract_package, chain_matrix, discriminant_package

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


def test_bo_direction_span():
    assert bo_direction_span(Z2, FGAbGroup.free(4)) == FGAbGroup.from_orders([2] * 4)
    assert bo_direction_span(FGAbGroup.trivial(), FGAbGroup.free(4)).is_trivial()
    assert bo_direction_span(Z4, FGAbGroup.free(2)) == FGAbGroup.from_orders([4, 4])
    with pytest.raises(ValidationError):
        bo_direction_span(FGAbGroup.free(1), FGAbGroup.free(1))
    with pytest.raises(ValidationError):
        bo_direction_span(Z2, Z2)
