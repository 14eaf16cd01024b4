"""Trajectory rows, cross-realization, transport kernels, strata."""

import inspect
import json
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsiontraj import cli, intmat, lattice, serialize, trajectory
from torsiontraj.abgroup import FGAbGroup, FinAbHom
from torsiontraj.bockstein import bo_direction_span, bockstein_image, shadow
from torsiontraj.errors import InvariantError, ValidationError
from torsiontraj.intmat import IntMatrix
from torsiontraj.lattice import cartan_matrix, discriminant_package, forms_isomorphic
from torsiontraj.links import (
    LensSpace,
    PlumbingBoundary,
    Seifert,
    lens_profile,
    link_profile,
    plumbing_link,
)
from torsiontraj.monodromy import coxeter_element, odp_package, variation_cokernel
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

from uct_references import reference_mod_n

Z2 = FGAbGroup.cyclic(2)


def test_model_validation():
    with pytest.raises(ValidationError):
        SingularityModel.ak(0)
    for q in (2, 4, 0):  # gcd(4, 2) = 2, q = n, q < 1
        with pytest.raises(ValidationError):
            SingularityModel.cyclic_quotient(4, q)
    with pytest.raises(ValidationError):
        SingularityModel.brieskorn(2, 3, 7)
    with pytest.raises(ValidationError):
        SingularityModel("nope")
    with pytest.raises(ValidationError):
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
    with pytest.raises(ValidationError):
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


# Each kind's monodromy station, stated here and not read from ``_KINDS``: the
# Coxeter family of its T, or the note of a station that takes no Coxeter element.
COXETER_FAMILIES = {"ak": "A", "d4": "D4", "e8": "E8"}
MONODROMY_NOTES = {"brieskorn": "wang-sequence", "quotient": "not-applicable",
                   "odp": "free-cokernel"}


@pytest.mark.parametrize("kind", sorted(trajectory._KINDS))
def test_every_built_in_kind_assembles(kind):
    # A kind with parameters is sampled a little above their least values.
    rule = trajectory._KINDS[kind].parameters
    model = SingularityModel(kind, tuple(least + 3 for _, least, *_ in rule))
    row = trajectory_row(model)
    checks = realization_crosscheck(model)
    assert row.realizations == checks
    assert serialize.row_to_json(row)["example"] == serialize.row_cells(row)[0] == model.display_name()
    assert "monodromy" in checks.stations or "monodromy" in checks.notes
    # The link station reads the kind's own link, not the lattice's boundary.
    assert not isinstance(model.link_model(), PlumbingBoundary)
    # A Coxeter kind spells its lattice and its monodromy the same way.
    if kind in COXETER_FAMILIES:
        assert model.resolution_lattice() == cartan_matrix(COXETER_FAMILIES[kind], *model.parameters)
        assert "monodromy" not in checks.notes
    else:
        assert checks.notes["monodromy"] == MONODROMY_NOTES[kind]
    groups = list(checks.stations.values())
    assert checks.agree and all(g == groups[0] for g in groups)
    package = local_package(model)
    if package is None:
        assert model.resolution_lattice() is None and groups[0].is_trivial()
    else:
        assert package.group == checks.stations["lattice"] == groups[0]


def test_crosscheck_reads_the_lattice_station_from_the_package():
    row = trajectory_row(SingularityModel.ak(5))
    assert row.realizations.stations["lattice"] is row.package.group


def reference_local_package(model):
    """The package assembled on its own: a fresh lattice and the kind's
    generators padded with zeros to its rank."""
    lat = model.resolution_lattice()
    if lat is None:
        return None
    generators = trajectory._KINDS[model.kind].generators
    if generators is not None:
        generators = IntMatrix.from_columns(
            [col + (0,) * (lat.rank - len(col)) for col in generators])
    return discriminant_package(lat, generators)


def reference_realization_crosscheck(model):
    """The stations assembled on their own, each from a fresh lattice."""
    stations = {}
    notes = {}
    lat = model.resolution_lattice()
    if lat is None:
        notes["lattice"] = "no finite discriminant"
        notes["pair-sequence"] = "free pair data"
    else:
        stations["lattice"] = reference_local_package(model).group
    stations["link"] = link_profile(model.link_model()).torsion(2)
    if lat is not None:
        stations["pair-sequence"] = link_profile(plumbing_link(lat)).torsion(2)

    if model.kind in COXETER_FAMILIES:
        t = coxeter_element(COXETER_FAMILIES[model.kind], *model.parameters)
        stations["monodromy"] = variation_cokernel(t).torsion()
    else:
        notes["monodromy"] = MONODROMY_NOTES[model.kind]
        if model.kind == "odp":
            stations["monodromy"] = odp_package()[0].torsion()
        elif model.kind == "brieskorn":
            stations["monodromy"] = stations["link"]

    groups = list(stations.values())
    agree = all(g == groups[0] for g in groups)
    return trajectory.Crosscheck(stations, notes, agree)


BUILT_IN_FAMILIES = {
    "ak": [SingularityModel.ak(k) for k in range(1, 41)],
    "quotient": [SingularityModel.cyclic_quotient(n, q)
                 for n in range(2, 41) for q in range(1, n) if gcd(n, q) == 1],
    "d4-e8-brieskorn-odp": [SingularityModel.d4(), SingularityModel.e8(),
                            SingularityModel.brieskorn(), SingularityModel.odp()],
}


def test_package_and_crosscheck_take_the_model_alone():
    for read in (local_package, realization_crosscheck):
        assert list(inspect.signature(read).parameters) == ["model"]


@pytest.mark.parametrize("family", sorted(BUILT_IN_FAMILIES))
def test_package_and_crosscheck_match_their_references(family):
    for model in BUILT_IN_FAMILIES[family]:
        assert local_package(model) == reference_local_package(model), model
        assert realization_crosscheck(model) == reference_realization_crosscheck(model), model


@pytest.mark.parametrize("family", sorted(BUILT_IN_FAMILIES))
def test_local_package_runs_no_station(monkeypatch, family):
    # The package alone: no link, plumbing-calculus or monodromy work.
    def station(*args):
        raise AssertionError("local_package ran a station")

    for name in ("coxeter_element", "link_profile", "plumbing_link", "variation_cokernel"):
        monkeypatch.setattr(trajectory, name, station)
    for model in BUILT_IN_FAMILIES[family]:
        assert local_package(model) == reference_local_package(model), model


@pytest.mark.parametrize(
    "model, builds",
    [(SingularityModel.ak(1), 2), (SingularityModel.ak(12), 2), (SingularityModel.d4(), 2),
     (SingularityModel.e8(), 2), (SingularityModel.brieskorn(), 1),
     (SingularityModel.cyclic_quotient(4), 1), (SingularityModel.cyclic_quotient(7, 3), 1),
     (SingularityModel.odp(), 0)],
    ids=["a1", "a12", "d4", "e8", "brieskorn", "quotient-4-1", "quotient-7-3", "odp"],
)
def test_a_row_builds_its_lattice_once(monkeypatch, model, builds):
    # One build for the package and the lattice and pair-sequence
    # stations; a Coxeter monodromy builds its own Cartan matrix.
    calls = []
    real_plumbing = lattice._plumbing

    def counting_plumbing(weights, edges):
        calls.append(weights)
        return real_plumbing(weights, edges)

    monkeypatch.setattr(lattice, "_plumbing", counting_plumbing)
    trajectory_row(model)
    assert len(calls) == builds


@pytest.mark.parametrize(
    "model, calls",
    [(SingularityModel.ak(1), 1), (SingularityModel.ak(12), 1), (SingularityModel.d4(), 1),
     (SingularityModel.e8(), 1), (SingularityModel.brieskorn(), 0),
     (SingularityModel.cyclic_quotient(7, 3), 0), (SingularityModel.odp(), 0)],
    ids=["a1", "a12", "d4", "e8", "brieskorn", "quotient-7-3", "odp"],
)
def test_monodromy_stations_call_through_the_module_names(monkeypatch, model, calls):
    # A tracer rebinds trajectory.coxeter_element and variation_cokernel, so
    # a Coxeter station must look both up at call time, once per row.
    seen = []
    for name in ("coxeter_element", "variation_cokernel"):
        real = getattr(trajectory, name)
        monkeypatch.setattr(trajectory, name,
                            lambda *args, _name=name, _real=real: seen.append(_name) or _real(*args))
    trajectory_row(model)
    assert seen == ["coxeter_element", "variation_cokernel"] * calls


def test_disagreeing_stations_show_in_every_format(monkeypatch, capsys):
    # A pair-sequence boundary of the wrong order must surface, not be
    # overwritten by the other stations.
    monkeypatch.setattr(trajectory, "plumbing_link", lambda lat: LensSpace(5, 1))
    assert cli.run(["singularity", "ak", "--k", "3"]) == 0
    header, _, cells = ([c.strip() for c in line.split("|")]
                        for line in capsys.readouterr().out.splitlines())
    assert cells[header.index("Local")] == "stations disagree"
    assert cli.run(["singularity", "ak", "--k", "3", "--format", "json"]) == 0
    realizations = json.loads(capsys.readouterr().out)["realizations"]
    assert realizations["agree"] is False
    stations = realizations["stations"]
    assert stations["pair-sequence"]["invariant_factors"] == [5]
    assert stations["lattice"]["invariant_factors"] == [4]


def _arms_as_multiset(link):
    if isinstance(link, Seifert):
        return Seifert(link.b, tuple(sorted(link.arms)))
    return link


@pytest.mark.parametrize(
    "models",
    [
        [SingularityModel.ak(k) for k in range(1, 41)],
        [SingularityModel.cyclic_quotient(n, q)
         for n in range(2, 41) for q in range(1, n) if gcd(n, q) == 1],
        [SingularityModel.d4(), SingularityModel.e8(), SingularityModel.brieskorn()],
    ],
    ids=["ak", "quotient", "d4-e8-brieskorn"],
)
def test_plumbing_link_of_each_kind_is_its_own_link(models):
    # _KINDS gives each kind a lattice and a link as separate data;
    # plumbing calculus on the lattice must land on the link.
    for model in models:
        link = plumbing_link(model.resolution_lattice())
        assert _arms_as_multiset(link) == _arms_as_multiset(model.link_model()), model


@pytest.fixture
def snf_calls(monkeypatch):
    """The matrices passed to ``snf``, under the name of every
    ``torsiontraj`` module that binds it."""
    calls = []
    real_snf = intmat.snf

    def counting_snf(matrix):
        calls.append(matrix)
        return real_snf(matrix)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "torsiontraj" and getattr(module, "snf", None) is real_snf:
            monkeypatch.setattr(module, "snf", counting_snf)
    return calls


@pytest.mark.parametrize("k", [1, 3, 12])
def test_an_ak_row_runs_two_smith_forms(snf_calls, k):
    # coker(gram) in the package and coker(T - I) at the monodromy station
    model = SingularityModel.ak(k)
    trajectory_row(model)
    assert len(snf_calls) == 2 and snf_calls[0] == model.resolution_lattice().gram


def test_a_quotient_row_runs_one_smith_form(snf_calls, capsys):
    assert cli.run(["singularity", "quotient", "7", "3"]) == 0
    assert "Z/7" in capsys.readouterr().out
    assert len(snf_calls) == 1


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


def prime_support(n):
    """The primes dividing n, by trial division."""
    return {p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))}


def test_ak_row_prime_support():
    for k in (1, 3, 5, 11):
        row = trajectory_row(SingularityModel.ak(k))
        assert row.group() == FGAbGroup.cyclic(k + 1)
        assert prime_support(row.group().torsion_order()) == prime_support(k + 1)


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
    identity = FinAbHom(two, two, IntMatrix.identity(2))
    assert transport_kernel(TransportProblem((Z2, Z2), identity)).is_trivial()

    zero = FinAbHom(two, Z2, IntMatrix([[0, 0]]))
    assert transport_kernel(TransportProblem((Z2, Z2), zero)) == two

    sum_map = FinAbHom(two, Z2, IntMatrix([[1, 1]]))
    assert transport_kernel(TransportProblem((Z2, Z2), sum_map)) == Z2


def test_transport_problem_validation():
    two = FGAbGroup.from_orders([2, 2])
    with pytest.raises(ValidationError):
        TransportProblem((Z2,), FinAbHom(two, two, IntMatrix.identity(2)))


def test_stratum_cohomology():
    table = stratum_cohomology(Z2, 2)
    assert table == {0: Z2, 1: FGAbGroup.from_orders([2] * 4), 2: Z2}
    z4 = FGAbGroup.cyclic(4)
    assert stratum_cohomology(z4, 3)[1] == FGAbGroup.from_orders([4] * 6)
    assert stratum_cohomology(FGAbGroup.trivial(), 5) == {}
    with pytest.raises(ValidationError):
        stratum_cohomology(FGAbGroup.free(1), 2)


def factorwise_stratum_cohomology(coefficients, genus):
    """Mod-d cohomology of the curve summed over the invariant factors d
    of E: the previous construction."""
    curve_homology = {0: FGAbGroup.free(1), 1: FGAbGroup.free(2 * genus), 2: FGAbGroup.free(1)}
    out = {}
    for d in coefficients.invariant_factors:
        for deg, group in reference_mod_n(curve_homology, d).items():
            out[deg] = out.get(deg, FGAbGroup.trivial()).direct_sum(group)
    return out


@given(st.lists(st.integers(1, 36), max_size=4), st.integers(0, 6))
def test_stratum_cohomology_matches_factorwise_reference(orders, genus):
    coefficients = FGAbGroup.from_orders(orders)
    table = stratum_cohomology(coefficients, genus)
    reference = factorwise_stratum_cohomology(coefficients, genus)
    assert list(table.items()) == list(reference.items())


def test_stratum_cohomology_refuses_a_negative_genus():
    with pytest.raises(ValidationError, match="genus must be >= 0, got -1"):
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
