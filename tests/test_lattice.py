"""Lattice families, discriminant packages, form isomorphism testing."""

import random
import sys
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torsiontraj.abgroup import FGAbGroup, cokernel_group, element_order, group_from_cokernel
from torsiontraj.errors import CapabilityError, SingularMatrixError, ValidationError
from torsiontraj import intmat
from torsiontraj.intmat import IntMatrix, RatMatrix, SnfDecomposition, det, rat_inverse
from torsiontraj.lattice import (
    DiscriminantPackage,
    IntersectionLattice,
    abstract_package,
    cartan_matrix,
    chain_matrix,
    discriminant_package,
    forms_isomorphic,
    geometric_rep,
    hj_expansion,
    hj_recompose,
    star_matrix,
    trivial_package,
)
from torsiontraj.bockstein import shadow
from torsiontraj.serialize import package_to_json, to_json_text
from torsiontraj.trajectory import SingularityModel, local_package

from test_intmat import count_fraction_calls

HALF = Fraction(1, 2)


def test_cartan_a1():
    assert cartan_matrix("A", 1).gram.to_lists() == [[-2]]


def test_cartan_d4_matrix():
    assert cartan_matrix("D", 4).gram.to_lists() == [
        [-2, 1, 1, 1],
        [1, -2, 0, 0],
        [1, 0, -2, 0],
        [1, 0, 0, -2],
    ]


def test_cartan_a3_determinant():
    assert abs(det(cartan_matrix("A", 3).gram)) == 4


def test_cartan_families_negative_definite():
    for lat in (cartan_matrix("A", 5), cartan_matrix("D", 6), cartan_matrix("E8")):
        assert sylvester_negative_definite(lat)


def sylvester_negative_definite(lat):
    """Sylvester's criterion: leading principal minors alternate in sign,
    starting negative.  The previous test, with one determinant per minor."""
    rows = lat.gram.to_lists()
    for k in range(1, lat.rank + 1):
        if det(IntMatrix([row[:k] for row in rows[:k]])) * (-1) ** k <= 0:
            return False
    return True


def test_cartan_validation():
    with pytest.raises(ValidationError):
        cartan_matrix("A", 0)
    with pytest.raises(ValidationError):
        cartan_matrix("D", 3)
    with pytest.raises(ValidationError):
        cartan_matrix("F", 4)


@pytest.mark.parametrize(
    "call",
    [
        lambda: cartan_matrix("A", 2.5),
        lambda: cartan_matrix("A", True),
        lambda: cartan_matrix("D", 4.0),
        lambda: hj_expansion(4.5, 1),
        lambda: hj_expansion(4, True),
    ],
    ids=["a-float", "a-bool", "d-float", "hj-float", "hj-bool"],
)
def test_non_integer_parameters_rejected(call):
    # The floats ended in a TypeError from list repetition or gcd, and
    # True was read as 1.
    with pytest.raises(ValidationError, match="must be an integer"):
        call()


@pytest.mark.parametrize("parameter", [8, 8.0, True], ids=["int", "float", "bool"])
def test_e8_refuses_every_parameter(parameter):
    # 8 and 8.0 were accepted, as E8 has rank 8; every other
    # parameterless family refuses any parameter.
    with pytest.raises(ValidationError, match="E8 takes no parameter"):
        cartan_matrix("E8", parameter)


def test_hj_expansion_examples():
    assert hj_expansion(4, 1) == [4]
    assert hj_expansion(2, 1) == [2]
    weights = hj_expansion(7, 3)
    assert all(b >= 2 for b in weights)
    assert hj_recompose(weights) == (7, 3)


def test_hj_expansion_exact_for_all_coprime_pairs():
    from math import gcd

    for n in range(2, 51):
        for q in range(1, n):
            if gcd(n, q) != 1:
                continue
            assert hj_recompose(hj_expansion(n, q)) == (n, q)


def fraction_fold(weights):
    """b1 - 1/(b2 - 1/(...)), one Fraction operation per weight."""
    value = Fraction(weights[-1])
    for b in reversed(weights[:-1]):
        value = b - 1 / value
    return value


@given(st.lists(st.integers(-3, 9), min_size=1, max_size=12))
def test_hj_recompose_matches_the_fraction_fold(weights):
    # Weights below 2 included, so partial values of 0 and sign changes occur.
    # Where the fold divides by zero, the weights are a usage error.  The
    # pair is p/q in lowest terms with q > 0, so it equals the fold's
    # numerator and denominator.
    try:
        expected = fraction_fold(weights)
    except ZeroDivisionError:
        with pytest.raises(ValidationError, match="partial continued fraction"):
            hj_recompose(weights)
    else:
        p, q = hj_recompose(weights)
        assert Fraction(p, q) == expected
        assert q > 0 and gcd(p, q) == 1


@pytest.mark.parametrize(
    "weights, message",
    [([], "at least one"), ([True, 2], r"\[True, 2\] must be an integer, got True"),
     ([2.5], r"\[2.5\] must be an integer, got 2.5"), ([2, 1, 1], r"\[2, 1, 1\] is 0")],
    ids=["empty", "bool", "float", "zero-partial"],
)
def test_hj_recompose_refuses_bad_weights(weights, message):
    with pytest.raises(ValidationError, match=message):
        hj_recompose(weights)


class ReprCountingList(list):
    """A list that counts the calls of its ``repr``."""

    reprs = 0

    def __repr__(self):
        self.reprs += 1
        return super().__repr__()


def test_hj_recompose_builds_no_label_for_a_valid_chain():
    # The label repr(weights) was built once per weight: O(n^2) per chain.
    chain = ReprCountingList([2] * 60)
    assert hj_recompose(chain) == (61, 60)
    assert chain.reprs == 0


@pytest.mark.parametrize(
    "weights, message",
    [([2, 1.5], "a Hirzebruch-Jung weight of [2, 1.5] must be an integer, got 1.5"),
     ([True, 2], "a Hirzebruch-Jung weight of [True, 2] must be an integer, got True"),
     (["2"], "a Hirzebruch-Jung weight of ['2'] must be an integer, got '2'"),
     ([3, "2", 2], "a Hirzebruch-Jung weight of [3, '2', 2] must be an integer, got '2'")],
    ids=["float", "bool", "string", "string-inside"],
)
def test_hj_recompose_refusal_names_the_weights_as_given(weights, message):
    weights = ReprCountingList(weights)
    with pytest.raises(ValidationError) as refused:
        hj_recompose(weights)
    assert str(refused.value) == message
    assert weights.reprs == 1


def test_hj_validation():
    with pytest.raises(ValidationError):
        hj_expansion(4, 2)
    with pytest.raises(ValidationError):
        hj_expansion(3, 3)


def test_hj_expansion_lying_gt_gets_the_joint_refusal():
    # A ">" that lies once slipped past the parameter check and yielded a
    # weight of 1; the check now compares the exact ints it converted.
    class LyingInt(int):
        def __gt__(self, other):
            return True

    with pytest.raises(ValidationError) as caught:
        hj_expansion(LyingInt(1), 2)
    assert str(caught.value) == "need n > q >= 1, got n = 1, q = 2"


def test_hj_expansion_reads_index_only_values():
    # An object with only __index__ passed the check, then failed at n > q.
    class I:
        def __init__(self, value):
            self.value = value

        def __index__(self):
            return self.value

    assert hj_expansion(I(7), I(3)) == [3, 2, 2]


def test_chain_matrix():
    assert chain_matrix([4]).gram.to_lists() == [[-4]]
    assert chain_matrix([2]).gram.to_lists() == [[-2]]
    assert chain_matrix([2, 2]).gram == cartan_matrix("A", 2).gram
    with pytest.raises(ValidationError):
        chain_matrix([1])
    with pytest.raises(ValidationError):
        chain_matrix([])


def test_star_matrix():
    assert star_matrix(1, [2, 3, 11]).gram.to_lists() == [
        [-1, 1, 1, 1],
        [1, -2, 0, 0],
        [1, 0, -3, 0],
        [1, 0, 0, -11],
    ]
    assert star_matrix(2, [2, 2, 2]).gram == cartan_matrix("D", 4).gram
    assert abs(det(star_matrix(1, [2, 3, 5]).gram)) == 1


# The literal builders that preceded the shared plumbing builder, kept
# as references: every gram must come out unchanged.
def reference_cartan(family, parameter=None):
    if family == "A":
        k = parameter
        gram = [[-2 if i == j else (1 if abs(i - j) == 1 else 0) for j in range(k)]
                for i in range(k)]
    elif family == "D":
        n = parameter
        edges = [(0, 1), (0, 2), (0, 3)] + [(i, i + 1) for i in range(3, n - 1)]
        gram = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
        for a, b in edges:
            gram[a][b] = gram[b][a] = 1
    else:
        edges = [(1, 3), (3, 4), (2, 4), (4, 5), (5, 6), (6, 7), (7, 8)]
        gram = [[-2 if i == j else 0 for j in range(8)] for i in range(8)]
        for a, b in edges:
            gram[a - 1][b - 1] = gram[b - 1][a - 1] = 1
    return gram


def reference_chain(weights):
    r = len(weights)
    gram = [[-weights[i] if i == j else (1 if abs(i - j) == 1 else 0) for j in range(r)]
            for i in range(r)]
    return gram


def reference_star(central_weight, arms):
    size = 1 + len(arms)
    gram = [[0] * size for _ in range(size)]
    gram[0][0] = -central_weight
    for i, a in enumerate(arms, start=1):
        gram[i][i] = -a
        gram[0][i] = gram[i][0] = 1
    return gram


def test_cartan_families_match_literal_builders():
    cases = [("A", k) for k in range(1, 61)] + [("D", n) for n in range(4, 13)]
    for family, parameter in cases + [("E8", None)]:
        assert cartan_matrix(family, parameter).gram.to_lists() == reference_cartan(
            family, parameter
        )


@given(st.lists(st.integers(2, 40), min_size=1, max_size=12))
def test_chain_matches_literal_builder(weights):
    assert chain_matrix(weights).gram.to_lists() == reference_chain(weights)


@given(st.integers(1, 40), st.lists(st.integers(1, 40), max_size=8))
def test_star_matches_literal_builder(central_weight, arms):
    assert star_matrix(central_weight, arms).gram.to_lists() == reference_star(
        central_weight, arms
    )


def test_lattice_validation():
    with pytest.raises(ValidationError):
        IntersectionLattice(IntMatrix([[0, 1], [2, 0]]))


def test_lattice_refuses_a_gram_that_is_not_a_matrix():
    # A list raised AttributeError; a RatMatrix gram is refused with the
    # integer kernels (tests/test_intmat.py).
    with pytest.raises(ValidationError, match="IntersectionLattice takes an IntMatrix, got list"):
        IntersectionLattice([[-2]])


def test_package_a1():
    pkg = discriminant_package(chain_matrix([2]))
    assert pkg.group == FGAbGroup.cyclic(2)
    assert pkg.form.entry(0, 0) == HALF
    assert geometric_rep(pkg.form.entry(0, 0)) == -HALF


def test_package_coble():
    pkg = discriminant_package(chain_matrix([4]))
    assert pkg.group == FGAbGroup.cyclic(4)
    assert pkg.form.entry(0, 0) == Fraction(3, 4)
    assert geometric_rep(Fraction(3, 4)) == Fraction(-1, 4)


def test_geometric_rep_takes_a_fraction_or_an_integer():
    assert geometric_rep(Fraction(-5, 4)) == Fraction(-1, 4)
    assert geometric_rep(HALF) == -HALF
    assert geometric_rep(3) == 0 and type(geometric_rep(3)) is Fraction


@pytest.mark.parametrize("value", [0.1, True, "1/2", None])
def test_geometric_rep_refuses_what_the_library_refuses(value):
    # A float became a 2^55-denominator Fraction, True became 0 and a
    # string was parsed.
    with pytest.raises(ValidationError, match="not a Fraction must be an integer"):
        geometric_rep(value)


def dual_basis_ak_package(k):
    gens = IntMatrix.from_columns([tuple(int(i == 0) for i in range(k))])
    return discriminant_package(cartan_matrix("A", k), gens)


def test_package_ak_family():
    for k in range(1, 10):
        pkg = dual_basis_ak_package(k)
        assert pkg.group == FGAbGroup.cyclic(k + 1)
        assert pkg.form.entry(0, 0) == Fraction(1, k + 1)
        default = discriminant_package(cartan_matrix("A", k))
        assert forms_isomorphic(default, pkg)


def test_package_d4():
    # the half-difference classes (C1 - C2)/2 and (C1 - C3)/2
    gens = IntMatrix.from_columns([(0, -1, 1, 0), (0, -1, 0, 1)])
    pkg = discriminant_package(cartan_matrix("D", 4), gens)
    assert pkg.group == FGAbGroup.from_orders([2, 2])
    assert pkg.form == RatMatrix([[0, HALF], [HALF, 0]])


def test_package_singular_gram():
    with pytest.raises(SingularMatrixError):
        discriminant_package(IntersectionLattice(IntMatrix([[0]])))


def test_unimodular_package_builds_no_inverse(monkeypatch):
    import torsiontraj.lattice

    def no_inverse(*args):
        raise AssertionError("a unimodular gram built its inverse or replayed a transform")

    monkeypatch.setattr(torsiontraj.lattice, "rat_inverse", no_inverse)
    monkeypatch.setattr(SnfDecomposition, "u_columns", no_inverse)
    monkeypatch.setattr(SnfDecomposition, "v_inverse_columns", no_inverse)
    assert discriminant_package(cartan_matrix("E8")) == trivial_package()
    assert discriminant_package(IntersectionLattice(IntMatrix([[-2, 1], [1, -1]]))) == trivial_package()


def test_package_generator_validation():
    lat = cartan_matrix("A", 3)
    with pytest.raises(ValidationError):
        # the class of 2*e1 has order 2, not 4
        discriminant_package(lat, IntMatrix.from_columns([(2, 0, 0)]))
    with pytest.raises(ValidationError):
        discriminant_package(lat, IntMatrix.from_columns([(1, 0, 0), (0, 1, 0)]))
    with pytest.raises(ValidationError, match="do not generate"):
        # both columns are (C1 - C2)/2: each has order 2, but they span Z/2
        discriminant_package(
            cartan_matrix("D", 4), IntMatrix.from_columns([(0, -1, 1, 0)] * 2)
        )
    # Generators that are not an IntMatrix are refused under the package's name.
    for generators, kind in (([[1], [0], [0]], "list"),
                             (RatMatrix([[1], [0], [0]]), "RatMatrix")):
        with pytest.raises(ValidationError,
                           match=f"discriminant_package takes an IntMatrix, got {kind}"):
            discriminant_package(lat, generators)


def test_package_takes_no_determinant(monkeypatch):
    import torsiontraj.intmat

    def no_det(matrix):
        raise AssertionError("discriminant_package called det")

    for module in list(sys.modules.values()):
        if getattr(module, "det", None) is torsiontraj.intmat.det:
            monkeypatch.setattr(module, "det", no_det)
    d4 = cartan_matrix("D", 4)
    gens = IntMatrix.from_columns([(0, -1, 1, 0), (0, -1, 0, 1)])
    assert discriminant_package(d4, gens).form == RatMatrix([[0, HALF], [HALF, 0]])
    assert discriminant_package(cartan_matrix("A", 12)).group == FGAbGroup.cyclic(13)
    with pytest.raises(SingularMatrixError):
        discriminant_package(IntersectionLattice(IntMatrix([[0]])))


def test_form_well_defined_under_representative_perturbation():
    rng = random.Random(23)
    for lat in (cartan_matrix("A", 4), cartan_matrix("D", 5), star_matrix(1, [2, 3, 11])):
        base = discriminant_package(lat)
        _, gens = _cokernel_generators(lat)
        for _ in range(10):
            shifted = []
            for column in gens:
                shift = [rng.randint(-3, 3) for _ in range(lat.rank)]
                moved = lat.gram.apply(shift)
                shifted.append(tuple(c + m for c, m in zip(column, moved)))
            perturbed = discriminant_package(lat, IntMatrix.from_columns(shifted))
            assert perturbed.form == base.form


def dense_discriminant_package(lat, generators=None):
    """The previous construction: each dual a dense matrix-vector product
    with gram^-1, each form entry a dot product of a dual and a column."""
    gram = lat.gram
    if generators is None:
        group, snf_generators = group_from_cokernel(gram)
        columns = [col for order, col in snf_generators]
    else:
        group, columns = cokernel_group(gram), generators.columns()
    if group.is_trivial():
        return trivial_package()
    inverse = rat_inverse(gram).to_lists()
    duals = [tuple(sum(a * b for a, b in zip(row, col)) for row in inverse) for col in columns]
    if generators is not None:
        for dual, d_i in zip(duals, group.invariant_factors):
            assert lcm(*(f.denominator for f in dual)) == d_i
        span = IntMatrix.from_columns(columns).hstack(gram)
        assert cokernel_group(span).is_trivial()
    form = RatMatrix(
        [[(sum(a * b for a, b in zip(duals[i], columns[j])) % 1) for j in range(len(columns))]
         for i in range(len(columns))]
    )
    return DiscriminantPackage(group, form, RatMatrix.from_columns(duals))


def package_text(pkg):
    return to_json_text(package_to_json(pkg))


@st.composite
def negative_definite_grams(draw):
    """-(B^T B) for a nonsingular B."""
    n = draw(st.integers(1, 6))
    b = IntMatrix(draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                                min_size=n, max_size=n)))
    assume(det(b) != 0)
    return IntersectionLattice(-1 * (b.transpose() @ b))


@st.composite
def dense_grams(draw):
    """Dense symmetric nonsingular grams of rank 1..10 and any signature,
    with entries up to 9 or up to 10^6 in size: their Smith generator
    columns, and so the solved duals, reach hundreds of bits."""
    n = draw(st.integers(1, 10))
    bound = draw(st.sampled_from([9, 10**6]))
    entries = st.integers(-bound, bound)
    upper = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    gram = IntMatrix([[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])
    assume(det(gram) != 0)
    return IntersectionLattice(gram)


@settings(deadline=None)
@given(st.one_of(negative_definite_grams(), dense_grams()))
def test_package_matches_dense_reference(lat):
    assert package_text(discriminant_package(lat)) == package_text(dense_discriminant_package(lat))


@st.composite
def tridiagonal_grams(draw):
    """Symmetric nonsingular tridiagonal grams of rank 1..12, any sign."""
    n = draw(st.integers(1, 12))
    diagonal = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    off = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
    rows = [[0] * n for _ in range(n)]
    for i, b in enumerate(diagonal):
        rows[i][i] = b
    for i, c in enumerate(off):
        rows[i][i + 1] = rows[i + 1][i] = c
    gram = IntMatrix(rows)
    assume(det(gram) != 0)
    return IntersectionLattice(gram)


@st.composite
def divisor_chain_grams(draw):
    """U diag(d) U^T for a unimodular U (the identity after random row
    additions and swaps) and a divisor chain d, up to sign, with at least
    two nontrivial factors: E has two or more Smith generators."""
    n = draw(st.integers(2, 7))
    factors = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    d = [prod(factors[: i + 1]) for i in range(n)]
    assume(sum(x > 1 for x in d) >= 2)
    sign = draw(st.sampled_from([-1, 1]))
    u = IntMatrix.identity(n).to_lists()
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            continue
        if draw(st.booleans()):
            c = draw(st.integers(-3, 3))
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        else:
            u[i], u[j] = u[j], u[i]
    u = IntMatrix(u)
    diag = IntMatrix([[sign * d[i] if i == j else 0 for j in range(n)] for i in range(n)])
    return IntersectionLattice(u @ diag @ u.transpose())


@settings(deadline=None)
@given(st.one_of(dense_grams(), tridiagonal_grams(), divisor_chain_grams()))
def test_smith_duals_read_off_v_inverse_match_the_solve(lat):
    # The Smith-generator duals, V^-1's columns over d_s, are gram^-1 G as
    # the solve and the inverse give it, and the whole package is the
    # dense reference's.
    package = discriminant_package(lat)
    group, columns = _cokernel_generators(lat)
    assert package.group == group
    if group.is_trivial():
        assert package == trivial_package()
        return
    gens = IntMatrix.from_columns(columns)
    assert package.generators == intmat._solve(lat.gram, gens) == rat_inverse(lat.gram) @ gens
    assert package_text(package) == package_text(dense_discriminant_package(lat))


@st.composite
def plumbings_with_shifted_generators(draw):
    """A chain or a star, and its Smith generators each moved by gram * s
    for a sparse integer vector s, as in the perturbation property."""
    if draw(st.booleans()):
        lat = chain_matrix(draw(st.lists(st.integers(2, 9), min_size=1, max_size=8)))
    else:
        lat = star_matrix(draw(st.integers(1, 4)),
                          draw(st.lists(st.integers(2, 7), min_size=1, max_size=4)))
        assume(det(lat.gram) != 0)
    _, columns = _cokernel_generators(lat)
    assume(columns)
    sparse = st.lists(st.one_of(st.just(0), st.integers(-4, 4)),
                      min_size=lat.rank, max_size=lat.rank)
    shifted = []
    for column in columns:
        move = lat.gram.apply(draw(sparse))
        shifted.append(tuple(c + m for c, m in zip(column, move)))
    return lat, IntMatrix.from_columns(shifted)


@settings(deadline=None)
@given(plumbings_with_shifted_generators())
def test_package_with_supplied_generators_matches_dense_reference(case):
    lat, generators = case
    assert (package_text(discriminant_package(lat, generators))
            == package_text(dense_discriminant_package(lat, generators)))


def _cokernel_generators(lat):
    from torsiontraj.abgroup import group_from_cokernel

    group, gens = group_from_cokernel(lat.gram)
    return group, [column for _, column in gens]


def test_discriminant_order_matches_det():
    rng = random.Random(31)
    done = 0
    while done < 40:
        n = rng.randint(1, 5)
        b = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if det(b) == 0:
            continue
        gram = -1 * (b.transpose() @ b)
        lat = IntersectionLattice(gram)
        assert sylvester_negative_definite(lat)
        pkg = discriminant_package(lat)
        assert pkg.group.torsion_order() == abs(det(gram))
        done += 1


def test_builtin_family_forms_symmetric_nondegenerate():
    families = [
        discriminant_package(cartan_matrix("A", k)) for k in range(1, 7)
    ] + [
        discriminant_package(cartan_matrix("D", n)) for n in range(4, 8)
    ] + [
        discriminant_package(star_matrix(1, [2, 3, 11])),
        discriminant_package(chain_matrix([4])),
    ]
    for pkg in families:
        assert pkg.form.is_symmetric()
        assert brute_force_nondegenerate(pkg)


def form_value(pkg, coords_a, coords_b):
    """Pairing of two elements given by generator coordinates, in [0, 1)."""
    total = Fraction(0)
    for i, a in enumerate(coords_a):
        for j, b in enumerate(coords_b):
            total += a * b * pkg.form.entry(i, j)
    return total % 1


def brute_force_nondegenerate(pkg):
    """Whether some nonzero element pairs to zero with every generator,
    by enumerating every element."""
    k = len(pkg.orders())
    units = [tuple(int(t == j) for t in range(k)) for j in range(k)]
    for coords in pkg.elements():
        if any(coords) and all(form_value(pkg, coords, u) == 0 for u in units):
            return False
    return True


def test_dn_parity_law():
    for n in range(4, 11):
        pkg = discriminant_package(cartan_matrix("D", n))
        if n % 2:
            assert pkg.group == FGAbGroup.cyclic(4)
        else:
            assert pkg.group == FGAbGroup.from_orders([2, 2])


def test_chain_of_lens_type_has_cyclic_group():
    for n in range(2, 51):
        pkg = discriminant_package(chain_matrix(hj_expansion(n, 1)))
        assert pkg.group == FGAbGroup.cyclic(n)


def test_forms_isomorphic_d4_vs_a1_square():
    d4 = discriminant_package(cartan_matrix("D", 4))
    split = abstract_package(
        FGAbGroup.from_orders([2, 2]), [[HALF, 0], [0, HALF]]
    )
    assert not forms_isomorphic(d4, split)
    assert forms_isomorphic(d4, d4)
    assert forms_isomorphic(split, split)


def test_forms_isomorphic_unimodular_conjugates():
    # the same rank-one package presented inside a rank-two lattice
    a1 = discriminant_package(chain_matrix([2]))
    p = IntMatrix([[1, 1], [0, 1]])
    conjugated = IntersectionLattice(p.transpose() @ IntMatrix([[-2, 0], [0, -1]]) @ p)
    other = discriminant_package(conjugated)
    assert forms_isomorphic(a1, other)


def test_forms_isomorphic_detects_scaled_generator():
    five_a = abstract_package(FGAbGroup.cyclic(5), [[Fraction(1, 5)]])
    five_b = abstract_package(FGAbGroup.cyclic(5), [[Fraction(4, 5)]])
    # 2g has q = 4/5 when g has q = 1/5
    assert forms_isomorphic(five_a, five_b)
    five_c = abstract_package(FGAbGroup.cyclic(5), [[Fraction(2, 5)]])
    assert not forms_isomorphic(five_a, five_c)


def test_forms_isomorphic_bound():
    big = abstract_package(FGAbGroup.cyclic(128), [[Fraction(1, 128)]])
    with pytest.raises(CapabilityError, match=r"must be <= 64, got 128$"):
        forms_isomorphic(big, big)


def test_forms_isomorphic_on_different_groups_is_false_at_any_order():
    # The groups are compared before the order bound: Z/101 is not Z/2.
    a100 = local_package(SingularityModel.ak(100))
    a1 = local_package(SingularityModel.ak(1))
    assert forms_isomorphic(a100, a1) is False
    assert forms_isomorphic(a1, a100) is False
    big = abstract_package(FGAbGroup.cyclic(128), [[Fraction(1, 128)]])
    other = abstract_package(FGAbGroup.from_orders([2, 64]), [[HALF, 0], [0, Fraction(1, 64)]])
    assert forms_isomorphic(big, other) is False


def test_forms_isomorphic_at_the_bound():
    # order exactly 64 with six generators: the worst case for the search
    g6 = FGAbGroup.from_orders([2] * 6)
    zero = abstract_package(g6, [[0] * 6 for _ in range(6)])
    hyperbolic = [[Fraction(0)] * 6 for _ in range(6)]
    for b in range(3):
        hyperbolic[2 * b][2 * b + 1] = hyperbolic[2 * b + 1][2 * b] = HALF
    hyp = abstract_package(g6, hyperbolic)
    permuted = [[Fraction(0)] * 6 for _ in range(6)]
    for i, j in [(0, 3), (1, 4), (2, 5)]:
        permuted[i][j] = permuted[j][i] = HALF
    perm = abstract_package(g6, permuted)

    assert forms_isomorphic(zero, zero)
    assert forms_isomorphic(hyp, perm)
    assert not forms_isomorphic(zero, hyp)


def test_forms_isomorphic_refuses_a_non_injective_assignment():
    # On Z/2 + Z/8, s_1 -> 4 t_2 and s_2 -> t_2 match every pairing value
    # of the first form, but 4 t_2 lies in the span of t_2: the map is not
    # injective.  The forms are not isomorphic: the elements orthogonal to
    # everything are {0, s_1, 4 s_2, s_1 + 4 s_2} = (Z/2)^2 for the first
    # and the Z/4 generated by t_1 + 2 t_2 for the second.
    group = FGAbGroup.from_orders([2, 8])
    split = abstract_package(group, [[0, 0], [0, Fraction(1, 4)]])
    linked = abstract_package(group, [[0, HALF], [HALF, Fraction(1, 4)]])
    assert forms_isomorphic(split, linked) is False
    assert fraction_forms_isomorphic(split, linked) is False


def fraction_pairing_table(pkg):
    """All pairing values of a package, as {(x, y): Fraction} over elements."""
    elements = list(pkg.elements())
    k = len(pkg.orders())
    unit_values = {}
    for x in elements:
        unit_values[x] = [
            form_value(pkg, x, tuple(int(t == j) for t in range(k))) for j in range(k)
        ]
    table = {}
    for x in elements:
        row = unit_values[x]
        for y in elements:
            table[x, y] = sum(c * v for c, v in zip(y, row)) % 1
    return elements, table


def bfs_span(span, generator, factors):
    """The subgroup generated by an existing span and one more element,
    found by adding the element until nothing new appears."""
    seen = set(span)
    frontier = list(span)
    while frontier:
        current = frontier.pop()
        nxt = tuple((a + b) % d for a, b, d in zip(current, generator, factors))
        if nxt not in seen:
            seen.add(nxt)
            frontier.append(nxt)
    return seen


def fraction_forms_isomorphic(p1, p2):
    """The brute-force search over Fraction pairing values, with the same
    screens, search order and span pruning as forms_isomorphic."""
    if p1.group != p2.group:
        return False
    if p1.group.is_trivial():
        return True
    factors = p1.group.invariant_factors
    k = len(factors)
    elements1, table1 = fraction_pairing_table(p1)
    elements2, table2 = fraction_pairing_table(p2)
    profile1 = sorted((element_order(x, factors), table1[x, x]) for x in elements1)
    profile2 = sorted((element_order(x, factors), table2[x, x]) for x in elements2)
    if profile1 != profile2:
        return False
    if sorted(table1.values()) != sorted(table2.values()):
        return False
    by_order = {}
    for coords in elements2:
        by_order.setdefault(element_order(coords, factors), []).append(coords)
    unit = [tuple(int(t == j) for t in range(k)) for j in range(k)]
    wanted = [[table1[unit[i], unit[j]] for j in range(k)] for i in range(k)]

    def extend(i, chosen, span):
        if i == k:
            return True
        for cand in by_order.get(factors[i], ()):
            if table2[cand, cand] != wanted[i][i]:
                continue
            if any(table2[chosen[j], cand] != wanted[j][i] for j in range(i)):
                continue
            new_span = bfs_span(span, cand, factors)
            if len(new_span) != prod(factors[: i + 1]):
                continue
            if extend(i + 1, chosen + [cand], new_span):
                return True
        return False

    return extend(0, [], {tuple([0] * k)})


def random_form(rng, orders):
    """A symmetric form compatible with the orders: d_i q_ij is an integer."""
    k = len(orders)
    form = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            g = gcd(orders[i], orders[j])
            form[i][j] = form[j][i] = Fraction(rng.randrange(g), g)
    return form


def automorphism_image(rng, orders, form):
    """The form pulled back along a random automorphism of the group: each
    generator s_i goes to an element g_i whose order divides d_i, redrawn
    until the g_i generate, and q'(s_i, s_j) = q(g_i, g_j)."""
    k = len(orders)
    while True:
        images = [tuple(rng.randrange(0, d_j, d_j // gcd(d_i, d_j)) for d_j in orders)
                  for d_i in orders]
        span = {tuple([0] * k)}
        for g in images:
            span = bfs_span(span, g, orders)
        if len(span) == prod(orders):
            break
    return [[sum(a * b * form[s][t]
                 for s, a in enumerate(images[i]) for t, b in enumerate(images[j])) % 1
             for j in range(k)] for i in range(k)]


SMALL_GROUP_TYPES = [[2], [2, 2], [2, 2, 2], [2, 2, 2, 2], [2, 2, 2, 2, 2],
                     [2, 4], [3, 9], [4, 8], [2, 2, 4]]
# The types the presentations benchmark draws, and others up to the bound.
WORKLOAD_GROUP_TYPES = [[5], [61], [64], [3, 3, 3], [2, 32], [8, 8], [2, 2, 4, 4]]


def assert_matches_fraction_reference(orders, as_image, rng):
    group = FGAbGroup.from_orders(orders)
    form = random_form(rng, orders)
    other = automorphism_image(rng, orders, form) if as_image else random_form(rng, orders)
    p1, p2 = abstract_package(group, form), abstract_package(group, other)
    answer = forms_isomorphic(p1, p2)
    # The same bool object, not only an equal value.
    assert answer is fraction_forms_isomorphic(p1, p2)
    if as_image:
        assert answer is True


@settings(deadline=None, max_examples=120)
@given(st.sampled_from(SMALL_GROUP_TYPES), st.booleans(), st.randoms(use_true_random=False))
def test_forms_isomorphic_matches_fraction_reference(orders, as_image, rng):
    assert_matches_fraction_reference(orders, as_image, rng)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(WORKLOAD_GROUP_TYPES), st.booleans(), st.randoms(use_true_random=False))
def test_forms_isomorphic_matches_fraction_reference_on_workload_types(orders, as_image, rng):
    assert_matches_fraction_reference(orders, as_image, rng)


@pytest.mark.parametrize("orders", [[64], [2] * 5])
def test_forms_isomorphic_builds_no_fraction(orders):
    # The search reads the forms as integer numerators over their one
    # denominator, so no pairing value is a Fraction.
    rng = random.Random(29)
    group = FGAbGroup.from_orders(orders)
    form = random_form(rng, orders)
    p1 = abstract_package(group, form)
    image = abstract_package(group, automorphism_image(rng, orders, form))
    answer, calls = count_fraction_calls(lambda: forms_isomorphic(p1, image))
    assert answer is True and calls == []


@pytest.mark.parametrize("orders", [[4, 4, 4], [2] * 6])
def test_forms_isomorphic_matches_fraction_reference_at_the_bound(orders):
    rng = random.Random(64)
    group = FGAbGroup.from_orders(orders)
    form = random_form(rng, orders)
    p1 = abstract_package(group, form)
    image = abstract_package(group, automorphism_image(rng, orders, form))
    other = abstract_package(group, random_form(rng, orders))
    assert forms_isomorphic(p1, image) and fraction_forms_isomorphic(p1, image)
    assert forms_isomorphic(p1, other) == fraction_forms_isomorphic(p1, other)


def test_package_validation():
    with pytest.raises(ValidationError):
        abstract_package(FGAbGroup.cyclic(4), [[Fraction(1, 3)]])
    with pytest.raises(ValidationError):
        DiscriminantPackage(FGAbGroup.free(1), None, None)
    with pytest.raises(ValidationError):
        abstract_package(FGAbGroup.from_orders([2, 2]), [[0, 0], [HALF, 0]])
    assert trivial_package().group.is_trivial()
    # The trivial group has no form and no generators.
    with pytest.raises(ValidationError, match="takes no form and no generators"):
        abstract_package(FGAbGroup.trivial(), [[HALF]])
    with pytest.raises(ValidationError, match="takes no form and no generators"):
        DiscriminantPackage(FGAbGroup.trivial(), None, RatMatrix([[HALF]]))
    # One generator column per invariant factor, or shadow could not
    # multiply the generators by its inclusion.
    z4 = FGAbGroup.cyclic(4)
    form = RatMatrix([[Fraction(3, 4)]])
    with pytest.raises(ValidationError,
                       match="need 1 generator columns, one per invariant factor, got 3"):
        DiscriminantPackage(z4, form, RatMatrix([[1, 2, 3]]))
    with pytest.raises(ValidationError,
                       match="need 2 generator columns, one per invariant factor, got 1"):
        DiscriminantPackage(FGAbGroup.from_orders([2, 2]), RatMatrix([[0, 0], [0, 0]]),
                            RatMatrix([[HALF]]))
    with pytest.raises(ValidationError, match=r"^need 2 generator columns, got 1$"):
        discriminant_package(cartan_matrix("D", 4), generators=IntMatrix([[0], [-1], [1], [0]]))
    package = DiscriminantPackage(z4, form, RatMatrix([[Fraction(1, 4)], [HALF]]))
    assert shadow(package, 2).sub.generators == RatMatrix([[HALF], [1]])


def fraction_form_refusal(group, form):
    """The package check of a form, entry by entry on Fractions: the
    refusal message, or None when the form is accepted."""
    k = len(group.invariant_factors)
    if any(form[i][j] != form[j][i] for i in range(k) for j in range(k)):
        return "form must be symmetric"
    for i in range(k):
        for j in range(k):
            if not (0 <= form[i][j] < 1):
                return "form entries must lie in [0, 1)"
    for i, d in enumerate(group.invariant_factors):
        for j in range(k):
            if (d * form[i][j]) % 1 != 0:
                return f"form is incompatible with generator order {d} at ({i},{j})"
    return None


@st.composite
def package_forms(draw):
    """A group and a k x k form: a valid one, or one with an entry pair
    moved off [0, 1), off the generator orders, or off symmetry."""
    orders = draw(st.sampled_from(SMALL_GROUP_TYPES + WORKLOAD_GROUP_TYPES))
    form = random_form(draw(st.randoms(use_true_random=False)), orders)
    k = len(orders)
    i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
    change = draw(st.sampled_from(["none", "shift", "denominator", "one side"]))
    if change == "shift":
        form[i][j] = form[j][i] = form[i][j] + draw(st.sampled_from([-1, 1, 2]))
    elif change == "denominator":
        form[i][j] = form[j][i] = Fraction(draw(st.integers(0, 11)), draw(st.integers(1, 12)))
    elif change == "one side":
        form[i][j] = Fraction(draw(st.integers(0, 11)), draw(st.integers(1, 12)))
    return FGAbGroup.from_orders(orders), form


@settings(deadline=None, max_examples=200)
@given(package_forms())
def test_package_check_matches_fraction_reference(case):
    group, form = case
    try:
        DiscriminantPackage(group, RatMatrix(form), None)
    except ValidationError as error:
        refusal = str(error)
    else:
        refusal = None
    assert refusal == fraction_form_refusal(group, form)


@pytest.mark.parametrize("entry", [0.5, 2.5, "1/2"], ids=["float", "float-above-one", "string"])
def test_abstract_package_refuses_inexact_entries(entry):
    # Each of these used to be converted by Fraction() and reduced to 1/2.
    with pytest.raises(ValidationError):
        abstract_package(FGAbGroup.cyclic(2), [[entry]])


def test_abstract_package_reduces_fractions_mod_one():
    pkg = abstract_package(FGAbGroup.cyclic(2), [[Fraction(5, 2)]])
    assert pkg.form.entry(0, 0) == HALF
