"""Trajectory rows, cross-realization, transport kernels, strata."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsiontraj.abgroup import FGAbGroup, FinAbHom
from torsiontraj.bockstein import bo_direction_span, bockstein_image, shadow
from torsiontraj import serialize, trajectory
from torsiontraj.errors import InvariantError, ParameterError, ValidationError
from torsiontraj.intmat import IntMatrix
from torsiontraj.lattice import discriminant_package, forms_isomorphic
from torsiontraj.links import PlumbingBoundary, lens_profile, mod_n_cohomology
from torsiontraj.products import builtin_profile, product_cohomology
from torsiontraj.trajectory import (
    BENOIST_OTTEM_ROW,
    NODAL_THREEFOLD_ROW,
    SingularityModel,
    TransportProblem,
    local_package,
    realization_crosscheck,
    stratum_cohomology,
    trajectory_row,
    trajectory_table,
    transport_kernel,
)

Z2 = FGAbGroup.cyclic(2)


def test_model_validation():
    with pytest.raises(ParameterError):
        SingularityModel.ak(0)
    for q in (2, 4, 0):  # gcd(4, 2) = 2, q = n, q < 1
        with pytest.raises(ParameterError):
            SingularityModel.cyclic_quotient(4, q)
    with pytest.raises(ParameterError):
        SingularityModel.brieskorn(2, 3, 7)
    with pytest.raises(ParameterError):
        SingularityModel("nope")
    with pytest.raises(ParameterError):
        SingularityModel(["ak"])


@pytest.mark.parametrize(
    "build",
    [
        lambda: SingularityModel("e8", 5),
        lambda: SingularityModel("odp", 3),
        lambda: SingularityModel("d4", 4),
        lambda: SingularityModel("brieskorn", 11),
        lambda: SingularityModel.ak(2.5),
        lambda: SingularityModel.ak(True),
        lambda: SingularityModel.cyclic_quotient(4.0),
        lambda: SingularityModel.cyclic_quotient(4, True),
        lambda: SingularityModel.brieskorn(2.0, 3, 11),
    ],
    ids=["e8-parameter", "odp-parameter", "d4-parameter", "brieskorn-parameter",
         "ak-float", "ak-bool", "quotient-float", "quotient-bool-q", "brieskorn-float"],
)
def test_model_parameters_checked(build):
    # Each was accepted: the parameter was dropped from an ordinary row,
    # a float failed later with a TypeError in trajectory_row, True
    # was read as 1 ("A_1 surface"), and (2.0, 3, 11) compared equal to
    # the built-in exponents.
    with pytest.raises(ParameterError):
        build()


def test_brieskorn_spelled_out_is_builtin():
    assert SingularityModel.brieskorn(2, 3, 11) == SingularityModel.brieskorn()


def test_local_package_values():
    assert local_package(SingularityModel.ak(1)).form.entry(0, 0) == Fraction(1, 2)
    coble = local_package(SingularityModel.cyclic_quotient(4))
    assert coble.group == FGAbGroup.cyclic(4)
    assert coble.form.entry(0, 0) == Fraction(3, 4)
    assert local_package(SingularityModel.odp()) is None
    assert local_package(SingularityModel.e8()).group.is_trivial()


def test_crosscheck_d4():
    checks = realization_crosscheck(SingularityModel.d4())
    expected = FGAbGroup.from_orders([2, 2])
    assert set(checks.stations) == {"lattice", "link", "pair-sequence", "monodromy"}
    assert all(g == expected for g in checks.stations.values())
    assert checks.agree


def test_crosscheck_e8():
    checks = realization_crosscheck(SingularityModel.e8())
    assert all(g.is_trivial() for g in checks.stations.values())
    assert checks.agree


def test_crosscheck_brieskorn_wang_route():
    checks = realization_crosscheck(SingularityModel.brieskorn())
    assert all(g == FGAbGroup.cyclic(5) for g in checks.stations.values())
    assert checks.notes["monodromy"] == "wang-sequence"
    assert checks.agree


def test_crosscheck_quotient_monodromy_na():
    checks = realization_crosscheck(SingularityModel.cyclic_quotient(4))
    assert "monodromy" not in checks.stations
    assert checks.notes["monodromy"] == "not-applicable"
    assert all(g == FGAbGroup.cyclic(4) for g in checks.stations.values())
    assert checks.agree


def test_crosscheck_odp():
    checks = realization_crosscheck(SingularityModel.odp())
    assert all(g.is_trivial() for g in checks.stations.values())
    assert checks.agree


def test_crosscheck_all_surface_models_agree():
    models = [SingularityModel.ak(k) for k in range(1, 7)] + [
        SingularityModel.d4(),
        SingularityModel.e8(),
        SingularityModel.brieskorn(),
    ]
    for model in models:
        checks = realization_crosscheck(model)
        groups = list(checks.stations.values())
        assert all(g == groups[0] for g in groups)
        assert checks.agree


@pytest.mark.parametrize("kind", sorted(trajectory._KINDS))
def test_every_built_in_kind_assembles(kind):
    # A kind with parameters is sampled a little above their least values.
    rule = trajectory._KINDS[kind].parameters
    model = SingularityModel(kind, tuple(least + 3 for _, least in rule))
    row = trajectory_row(model)
    checks = realization_crosscheck(model)
    assert row.realizations == checks
    assert serialize.row_to_json(row)["example"] == serialize.row_cells(row)[0] == model.display_name()
    assert "monodromy" in checks.stations or "monodromy" in checks.notes
    # The link station reads the kind's own link, not the lattice's boundary.
    assert not isinstance(model.link_model(), PlumbingBoundary)
    groups = list(checks.stations.values())
    assert checks.agree and all(g == groups[0] for g in groups)
    package = local_package(model)
    if package is None:
        assert model.resolution_lattice() is None and groups[0].is_trivial()
    else:
        assert package.group == checks.stations["lattice"] == groups[0]


@st.composite
def coprime_pairs(draw):
    n = draw(st.integers(2, 60))
    q = draw(st.integers(1, n - 1).filter(lambda q: gcd(n, q) == 1))
    return n, q


@settings(deadline=None)
@given(coprime_pairs())
def test_cyclic_quotient_package_and_stations(pair):
    n, q = pair
    model = SingularityModel.cyclic_quotient(n, q)
    package = local_package(model)
    assert package.group == FGAbGroup.cyclic(n)
    assert package.form.to_lists() == [[Fraction(-q % n, n)]]
    # The preferred generator is the dual of the first node: gram * g = e_1.
    gram = model.resolution_lattice().gram.to_lists()
    column = [row[0] for row in package.generators.to_lists()]
    assert [sum(a * c for a, c in zip(row, column)) for row in gram] == [1] + [0] * (len(gram) - 1)
    checks = realization_crosscheck(model)
    assert checks.stations == {s: FGAbGroup.cyclic(n) for s in ("lattice", "link", "pair-sequence")}
    assert checks.notes == {"monodromy": "not-applicable"} and checks.agree
    # Smith-form generators give -q*/n with q q* = 1 mod n: another form, an isomorphic package.
    assert forms_isomorphic(package, discriminant_package(model.resolution_lattice()))


def test_cyclic_quotient_smith_generators_give_the_inverse_form():
    model = SingularityModel.cyclic_quotient(7, 3)
    assert local_package(model).form.to_lists() == [[Fraction(4, 7)]]
    assert discriminant_package(model.resolution_lattice()).form.to_lists() == [[Fraction(2, 7)]]


@pytest.mark.parametrize("k", range(1, 13))
def test_cyclic_quotient_of_type_k_is_ak(k):
    assert local_package(SingularityModel.cyclic_quotient(k + 1, k)) == local_package(SingularityModel.ak(k))


def test_only_the_coble_quotient_gets_its_name_and_shadow():
    coble = trajectory_row(SingularityModel.cyclic_quotient(4, 1))
    assert coble.example == "Coble boundary 1/4(1,1)"
    assert coble.shadow_note and coble.transport_note == "shadow-selected"
    other = trajectory_row(SingularityModel.cyclic_quotient(4, 3))
    assert other.example == "cyclic quotient 1/4(1,3)"
    assert other.shadow_note is None and other.transport_note == "exceptional-relations"


def test_order_equals_det_for_surface_models():
    from torsiontraj.intmat import det

    models = [SingularityModel.ak(k) for k in range(1, 7)] + [
        SingularityModel.d4(),
        SingularityModel.e8(),
        SingularityModel.brieskorn(),
        SingularityModel.cyclic_quotient(6),
    ]
    for model in models:
        package = local_package(model)
        gram = model.resolution_lattice().gram
        assert package.group.torsion_order() == abs(det(gram))


def test_rows():
    row = trajectory_row(SingularityModel.ak(3))
    assert row.group() == FGAbGroup.cyclic(4)
    assert row.support_degree == 2
    assert row.transport_note == "exceptional-relations"
    assert row.brauer_residue_status == "local-undefined"
    assert row.rational_death == 0

    e8 = trajectory_row(SingularityModel.e8())
    assert e8.global_image_note == "no birth: lattice unimodular"
    assert e8.transport_note == "no-finite-torsion"

    odp = trajectory_row(SingularityModel.odp())
    assert odp.support_degree is None
    assert odp.transport_note == "no-finite-torsion"

    coble = trajectory_row(SingularityModel.cyclic_quotient(4))
    assert coble.transport_note == "shadow-selected"
    assert "2E = Z/2" in coble.shadow_note


def test_ak_row_prime_support():
    for k in (1, 3, 5, 11):
        row = trajectory_row(SingularityModel.ak(k))
        assert row.group() == FGAbGroup.cyclic(k + 1)
        assert row.group().prime_support() == FGAbGroup.cyclic(k + 1).prime_support()


def test_shadow_consistency_coble():
    # the Bockstein image of the link equals the scale subgroup 2E
    profile = lens_profile(4, 1)
    image, _ = bockstein_image(profile.group(1), profile.group(2), 2)
    package = local_package(SingularityModel.cyclic_quotient(4))
    assert image == shadow(package, 2).sub.group == Z2


def test_bo_shape_coincidence():
    package = local_package(SingularityModel.cyclic_quotient(4))
    half = shadow(package, 2).sub.group
    for g in range(1, 6):
        stratum = stratum_cohomology(half, g)[1]
        span = bo_direction_span(Z2, FGAbGroup.free(2 * g))
        report = product_cohomology(
            builtin_profile("enriques"), builtin_profile("curve", genus=g), 4
        )
        middle = {(a, b): grp for a, b, grp in report.summands}[(3, 1)]
        assert stratum == span == middle == FGAbGroup.from_orders([2] * (2 * g))


def test_transport_kernel_cases():
    two = FGAbGroup.from_orders([2, 2])
    identity = FinAbHom.identity(two)
    assert transport_kernel(TransportProblem((Z2, Z2), identity)).is_trivial()

    zero = FinAbHom.zero(two, Z2)
    assert transport_kernel(TransportProblem((Z2, Z2), zero)) == two

    sum_map = FinAbHom(two, Z2, IntMatrix([[1, 1]]))
    assert transport_kernel(TransportProblem((Z2, Z2), sum_map)) == Z2


def test_transport_problem_validation():
    with pytest.raises(ValidationError):
        TransportProblem((Z2,), FinAbHom.identity(FGAbGroup.from_orders([2, 2])))


def test_stratum_cohomology():
    table = stratum_cohomology(Z2, 2)
    assert table == {0: Z2, 1: FGAbGroup.from_orders([2] * 4), 2: Z2}
    z4 = FGAbGroup.cyclic(4)
    assert stratum_cohomology(z4, 3)[1] == FGAbGroup.from_orders([4] * 6)
    assert stratum_cohomology(FGAbGroup.trivial(), 5) == {}
    with pytest.raises(ParameterError):
        stratum_cohomology(FGAbGroup.free(1), 2)


def factorwise_stratum_cohomology(coefficients, genus):
    """Mod-d cohomology of the curve summed over the invariant factors d
    of E: the previous construction."""
    curve_homology = {0: FGAbGroup.free(1), 1: FGAbGroup.free(2 * genus), 2: FGAbGroup.free(1)}
    out = {}
    for d in coefficients.invariant_factors:
        for deg, group in mod_n_cohomology(curve_homology, d).items():
            out[deg] = out.get(deg, FGAbGroup.trivial()).direct_sum(group)
    return out


@given(st.lists(st.integers(1, 36), max_size=4), st.integers(0, 6))
def test_stratum_cohomology_matches_factorwise_reference(orders, genus):
    coefficients = FGAbGroup.from_orders(orders)
    table = stratum_cohomology(coefficients, genus)
    reference = factorwise_stratum_cohomology(coefficients, genus)
    assert list(table.items()) == list(reference.items())


def test_stratum_cohomology_refuses_a_negative_genus():
    with pytest.raises(ParameterError, match="nonnegative"):
        stratum_cohomology(Z2, -1)


def test_table_layout():
    rows = trajectory_table()
    assert len(rows) == 9
    assert rows[6] is NODAL_THREEFOLD_ROW
    assert rows[7] is BENOIST_OTTEM_ROW
    names = [getattr(r, "example") for r in rows]
    assert names[0] == "A_1 surface"
    assert names[-1] == "Coble boundary 1/4(1,1)"
    assert rows[7].brauer_residue_status == "global-benchmark"


def test_rational_death_check(monkeypatch):
    # A torsion package has no rational part; the check is an explicit
    # error, so it also fires under python -O.
    monkeypatch.setattr(trajectory, "rationalize", lambda group: 1)
    with pytest.raises(InvariantError, match="rational death"):
        trajectory_row(SingularityModel.ak(1))
