"""Kunneth products, coherent Hodge column, Brauer gate."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from torsiontraj.abgroup import FGAbGroup, rationalize, tensor, tor
from torsiontraj.errors import CapabilityError, ValidationError
from torsiontraj.links import SpaceProfile
from torsiontraj.products import (
    GateRefusal,
    ProductReport,
    brauer_comparison,
    builtin_profile,
    h0q_product,
    product_cohomology,
    product_profile,
)
from torsiontraj.trajectory import stratum_cohomology

Z2 = FGAbGroup.cyclic(2)


def test_builtin_enriques():
    s = builtin_profile("enriques")
    assert s.group(2) == FGAbGroup(10, (2,))
    assert s.group(3) == Z2
    assert s.h0q(0) == 1 and s.h0q(1) == 0 and s.h0q(2) == 0


def test_builtin_curves():
    assert builtin_profile("curve", genus=0).group(1).is_trivial()
    assert builtin_profile("curve", genus=3).group(1) == FGAbGroup.free(6)
    with pytest.raises(ValidationError):
        builtin_profile("curve", genus=-1)


@pytest.mark.parametrize("genus", [True, 1.5])
def test_genus_is_an_integer(genus):
    # genus=1.5 was refused as a "free rank 3.0", and a boolean genus was
    # taken as 1 by stratum_cohomology.
    with pytest.raises(ValidationError, match="genus"):
        builtin_profile("curve", genus=genus)
    with pytest.raises(ValidationError, match="genus"):
        stratum_cohomology(Z2, genus)


def test_builtin_lens_and_odp():
    assert builtin_profile("lens", p=4, q=1).group(2) == FGAbGroup.cyclic(4)
    assert builtin_profile("odp_link").is_torsion_free()
    with pytest.raises(ValidationError):
        builtin_profile("sphere23")
    with pytest.raises(ValidationError):
        builtin_profile("nope")


# Each answered, with the parameter dropped.
@pytest.mark.parametrize("name, parameters, refused", [
    ("enriques", {"genus": 5}, "genus"),
    ("curve", {"genus": 1, "p": 3, "q": 9}, "p"),
    ("curve", {"genus": 1, "q": 9}, "q"),
    ("odp_link", {"p": 7}, "p"),
    ("lens", {"p": 4, "genus": 3}, "genus"),
], ids=["enriques-genus", "curve-p-q", "curve-q", "odp-p", "lens-genus"])
def test_builtin_profile_refuses_a_parameter_it_does_not_take(name, parameters, refused):
    with pytest.raises(ValidationError) as caught:
        builtin_profile(name, **parameters)
    assert str(caught.value) == (
        f"the {name} profile takes no parameter {refused}, got {refused}={parameters[refused]!r}")


def test_product_degree4_torsion():
    for g in range(1, 6):
        report = product_cohomology(
            builtin_profile("enriques"), builtin_profile("curve", genus=g), 4
        )
        assert report.total_torsion == FGAbGroup.from_orders([2] * (2 * g + 1))
        terms = {(a, b): grp for a, b, grp in report.summands}
        assert terms[(3, 1)] == FGAbGroup.from_orders([2] * (2 * g))
        assert terms[(2, 2)].torsion() == Z2
        assert report.tor_terms == ()


def test_product_degree3_torsion():
    for g in range(1, 6):
        report = product_cohomology(
            builtin_profile("enriques"), builtin_profile("curve", genus=g), 3
        )
        assert report.total_torsion == FGAbGroup.from_orders([2] * (2 * g + 1))


def test_product_torsion_free_factors():
    x = builtin_profile("curve", genus=2)
    y = builtin_profile("odp_link")
    for k in range(0, 8):
        report = product_cohomology(x, y, k)
        assert report.total_torsion.is_trivial()
        assert report.tor_terms == ()


def brute_kunneth(x, y, k):
    """Hand expansion of the Kunneth formula over the full support."""
    total = FGAbGroup.trivial()
    for a in range(0, k + 1):
        total = total.direct_sum(tensor(x.group(a), y.group(k - a)))
    for a in range(0, k + 2):
        total = total.direct_sum(tor(x.group(a), y.group(k + 1 - a)))
    return total


def unbounded_product_cohomology(x, y, k):
    """The report with every a in 0..k (0..k+1 for Tor), however far past
    the profiles' top degrees: the previous loops."""
    summands = []
    for a in range(0, k + 1):
        term = tensor(x.group(a), y.group(k - a))
        if not term.is_trivial():
            summands.append((a, k - a, term))
    tor_terms = []
    for a in range(0, k + 2):
        term = tor(x.group(a), y.group(k + 1 - a))
        if not term.is_trivial():
            tor_terms.append((a, k + 1 - a, term))
    total = FGAbGroup.trivial().direct_sum(
        *(t for _, _, t in summands), *(t for _, _, t in tor_terms)
    )
    return ProductReport(k, tuple(summands), tuple(tor_terms), total, total.torsion())


profiles = st.builds(
    lambda groups: SpaceProfile("random", groups),
    st.dictionaries(
        st.integers(0, 6),
        st.builds(FGAbGroup.from_orders, st.lists(st.integers(1, 12), max_size=3),
                  st.integers(0, 2)),
        max_size=4,
    ),
)


@given(profiles, profiles, st.data())
def test_product_cohomology_matches_unbounded_loops(x, y, data):
    k = data.draw(st.integers(0, x.max_degree() + y.max_degree() + 3))
    assert product_cohomology(x, y, k) == unbounded_product_cohomology(x, y, k)


def test_product_cohomology_at_a_huge_degree():
    # The loops once ran over every degree up to k.
    report = product_cohomology(builtin_profile("enriques"), builtin_profile("curve", genus=1), 10**9)
    assert report.summands == report.tor_terms == ()
    assert report.total.is_trivial()


def test_product_formal_torsion_profiles():
    # A formal profile supported in degree one only: the Tor correction
    # of H^1 (x) H^1 lands one degree below the tensor term.
    x = SpaceProfile("formal", {1: Z2})
    report1 = product_cohomology(x, x, 1)
    assert report1.tor_terms == ((1, 1, Z2),)
    assert report1.total == Z2
    report2 = product_cohomology(x, x, 2)
    assert report2.summands == ((1, 1, Z2),)
    for k in range(0, 5):
        assert product_cohomology(x, x, k).total == brute_kunneth(x, x, k)


def test_kunneth_symmetry():
    profiles = [
        builtin_profile("enriques"),
        builtin_profile("curve", genus=2),
        builtin_profile("lens", p=4, q=1),
        builtin_profile("odp_link"),
    ]
    for x in profiles:
        for y in profiles:
            for k in range(0, 9):
                assert (
                    product_cohomology(x, y, k).total
                    == product_cohomology(y, x, k).total
                )


def euler_char(profile):
    top = profile.max_degree()
    return sum((-1) ** k * profile.group(k).free_rank for k in range(top + 1))


def test_euler_characteristic_multiplicative():
    profiles = [
        builtin_profile("enriques"),
        builtin_profile("curve", genus=2),
        builtin_profile("curve", genus=0),
        builtin_profile("lens", p=5, q=1),
    ]
    for x in profiles:
        for y in profiles:
            product = product_profile(x, y)
            total = sum(
                (-1) ** k * rationalize(product.group(k))
                for k in range(product.max_degree() + 1)
            )
            assert total == euler_char(x) * euler_char(y)


def test_h0q_product():
    enr = builtin_profile("enriques")
    for g in range(0, 5):
        cur = builtin_profile("curve", genus=g)
        assert h0q_product(enr, cur, 2) == 0
        assert h0q_product(enr, cur, 0) == 1
        assert h0q_product(enr, cur, 1) == g
    assert h0q_product(builtin_profile("curve", genus=2), builtin_profile("curve", genus=3), 2) == 6


def test_h0q_needs_hodge_data():
    with pytest.raises(CapabilityError):
        h0q_product(builtin_profile("enriques"), builtin_profile("lens", p=2, q=1), 2)


def test_brauer_gate_passes_for_products():
    for g in range(1, 6):
        y = product_profile(builtin_profile("enriques"), builtin_profile("curve", genus=g))
        assert y.h0q(2) == 0
        result = brauer_comparison(y)
        assert result == FGAbGroup.from_orders([2] * (2 * g + 1))


def test_brauer_enriques_alone():
    assert brauer_comparison(builtin_profile("enriques")) == Z2


def test_brauer_gate_refusal():
    k3ish = SpaceProfile("h02-one", {0: FGAbGroup.free(1)}, {0: 1, 2: 1})
    result = brauer_comparison(k3ish)
    assert isinstance(result, GateRefusal)
    assert "h^(0,2)" in str(result)


def test_gate_soundness():
    # never returns a group when h^{0,2} is nonzero
    for h02 in (1, 2, 5):
        profile = SpaceProfile("x", {3: Z2}, {2: h02})
        assert isinstance(brauer_comparison(profile), GateRefusal)
