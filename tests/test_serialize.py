"""JSON round-trips, Markdown and CSV rendering."""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torsiontraj import serialize
from torsiontraj.abgroup import FGAbGroup
from torsiontraj.errors import ValidationError
from torsiontraj.intmat import IntMatrix, RatMatrix, det
from torsiontraj.lattice import (
    DiscriminantPackage,
    IntersectionLattice,
    abstract_package,
    cartan_matrix,
    discriminant_package,
)
from torsiontraj.links import SpaceProfile
from torsiontraj.products import builtin_profile, product_cohomology
from torsiontraj.trajectory import SingularityModel, trajectory_row, trajectory_table


def test_fraction_strings():
    # A 1x1 form shows its [0, 1) value and the (-1, 0] alias, and 0 bare;
    # JSON writes every entry as "num/den", 0 as "0/1".
    half = Fraction(1, 2)
    z4 = abstract_package(FGAbGroup.cyclic(4), [[Fraction(3, 4)]])
    z2 = abstract_package(FGAbGroup.cyclic(2), [[0]])
    hyperbolic = abstract_package(FGAbGroup.from_orders([2, 2]), [[0, half], [half, 0]])
    assert serialize.form_display(z4.form) == "3/4 (= -1/4)"
    assert serialize.form_display(z2.form) == "0"
    assert serialize.form_display(hyperbolic.form) == "[[0, 1/2], [1/2, 0]]"
    assert serialize.package_to_json(z4)["form"] == [["3/4"]]
    assert serialize.package_to_json(z2)["form"] == [["0/1"]]
    assert serialize.package_to_json(hyperbolic)["form"] == [["0/1", "1/2"], ["1/2", "0/1"]]


def test_fraction_display_reduces_its_canonical_value_mod_1():
    # Both halves name one Q/Z value: [0, 1), then the (-1, 0] alias.  The
    # package reduces its form's numerators mod 1, so the display shows
    # the reduced value.
    def display(value):
        return serialize.form_display(abstract_package(FGAbGroup.cyclic(4), [[value]]).form)

    assert display(Fraction(5, 4)) == "1/4 (= -3/4)"
    assert display(2) == "0"
    assert display(Fraction(-1, 4)) == "3/4 (= -1/4)"


@given(st.integers(1, 3).flatmap(
    lambda width: st.lists(st.lists(st.integers(-60, 60) | st.integers(-2**4100, 2**4100),
                                    min_size=width, max_size=width), min_size=1, max_size=3)),
    st.integers(1, 60) | st.integers(1, 2**4100))
def test_fraction_rows_are_the_fractions_num_den(numerators, den):
    f = [[Fraction(x, den) for x in row] for row in numerators]
    assert serialize._fraction_rows(RatMatrix(f)) == [
        [f"{F.numerator}/{F.denominator}" for F in row] for row in f]


def test_group_roundtrip():
    for group in (FGAbGroup.trivial(), FGAbGroup(2, (2, 4)), FGAbGroup.cyclic(5)):
        assert serialize.group_from_json(serialize.group_to_json(group)) == group


def read_package(data):
    """The package that a printed JSON value holds: its rationals are
    "num/den" strings, which Fraction reads as they are."""
    def rows(key):
        if key not in data:
            return None
        return RatMatrix([[Fraction(x) for x in row] for row in data[key]])
    return DiscriminantPackage(serialize.group_from_json(data["group"]), rows("form"),
                               rows("generators"))


@pytest.mark.parametrize("rows, bad", [
    ([[1, 2], [3, True]], "True"),
    ([[1, 2.5], ["4", 1]], "2.5"),
    ([[1, 2], [None, "x"], [3.5, 4]], "None"),
], ids=["bool", "float-before-string", "first-of-a-row"])
def test_int_matrix_from_json_names_its_first_bad_entry(rows, bad):
    with pytest.raises(ValidationError) as caught:
        serialize.int_matrix_from_json(rows, "gram")
    assert str(caught.value) == f"gram entry must be an integer, got {bad}"


def test_lattice_and_package_roundtrip():
    lat = cartan_matrix("D", 4)
    assert serialize.lattice_from_json({"gram": lat.gram.to_lists()}) == lat
    pkg = discriminant_package(lat)
    again = read_package(serialize.package_to_json(pkg))
    assert again.group == pkg.group
    assert again.form == pkg.form
    assert again.generators == pkg.generators


def test_space_profile_integers_are_strict():
    with pytest.raises(ValidationError):
        SpaceProfile("X", {1.5: FGAbGroup.cyclic(2)})
    for hodge in ({2: 1.9}, {2: 0.0}, {1: False}):
        with pytest.raises(ValidationError):
            SpaceProfile("X", {}, hodge)


def test_json_emission_is_stable():
    row = trajectory_row(SingularityModel.ak(3))
    text = serialize.to_json_text(serialize.row_to_json(row))
    # parsing and re-rendering is byte-identical
    assert serialize.to_json_text(json.loads(text)) == text


def test_report_json():
    report = product_cohomology(
        builtin_profile("enriques"), builtin_profile("curve", genus=2), 4
    )
    data = serialize.report_to_json(report)
    kinds = {entry["kind"] for entry in data["summands"]}
    assert kinds == {"tensor"}
    assert data["total_torsion"] == {"free_rank": 0, "invariant_factors": [2, 2, 2, 2, 2]}


def test_markdown_headers():
    rows = trajectory_table()
    text = serialize.markdown_table(
        serialize.TABLE_HEADERS, [serialize.row_cells(r) for r in rows]
    )
    header = text.splitlines()[0]
    assert header == "| Example | E | q | Local | Supp. | Global image | Br/res. | Q |"
    assert len(text.splitlines()) == 2 + 9


def test_csv_rendering():
    rows = trajectory_table()
    text = serialize.csv_table(
        serialize.TABLE_HEADERS, [serialize.row_cells(r) for r in rows]
    )
    lines = text.splitlines()
    assert lines[0].startswith("Example,E,q,")
    assert len(lines) == 10


def test_row_cells_values():
    cells = serialize.row_cells(trajectory_row(SingularityModel.ak(1)))
    assert cells[0] == "A_1 surface"
    assert cells[1] == "Z/2"
    assert cells[2] == "1/2 (= -1/2)"
    assert cells[3] == "six agree"
    assert cells[4] == "deg. 2"
    assert cells[7] == "0"

    coble = serialize.row_cells(trajectory_row(SingularityModel.cyclic_quotient(4)))
    assert coble[2] == "3/4 (= -1/4)"
    assert "monodromy n/a" in coble[3]


ORDERS = st.integers(1, 12) | st.integers(2**64, 2**80)


@st.composite
def groups(draw):
    return FGAbGroup.from_orders(draw(st.lists(ORDERS, max_size=5)), draw(st.integers(0, 3)))


@st.composite
def packages(draw):
    """Discriminant packages of nonsingular symmetric grams, some with
    entries beyond 2^64; the trivial package when the gram is unimodular."""
    n = draw(st.integers(1, 5))
    entries = st.integers(-6, 6) | st.integers(-(2**70), 2**70)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = draw(entries)
    gram = IntMatrix(rows)
    assume(det(gram) != 0)
    return discriminant_package(IntersectionLattice(gram))


def assert_text_round_trip(to_json, from_json, value):
    text = serialize.to_json_text(to_json(value))
    assert serialize.to_json_text(to_json(from_json(json.loads(text)))) == text


@given(groups())
def test_group_json_round_trip_is_byte_identical(group):
    assert_text_round_trip(serialize.group_to_json, serialize.group_from_json, group)


@settings(deadline=None)
@given(packages())
def test_package_json_round_trip_is_byte_identical(pkg):
    assert_text_round_trip(serialize.package_to_json, read_package, pkg)
