"""Acceptance suite: every numbered criterion at zero tolerance.

Each test carries a criterion label; the conftest hook prints one
PASS/FAIL line per criterion at the end of the run.  All arithmetic is
exact, so every comparison below is equality, never approximation.
"""

import random
from fractions import Fraction

from torsiontraj.abgroup import (
    FGAbGroup,
    FinAbHom,
    group_from_cokernel,
    hom_analyze,
    tensor,
    tor,
)
from torsiontraj.bockstein import bo_direction_span, bockstein_image, shadow
from torsiontraj.intmat import IntMatrix, RatMatrix, char_poly, det, rat_inverse, snf
from torsiontraj.lattice import (
    IntersectionLattice,
    abstract_package,
    cartan_matrix,
    chain_matrix,
    discriminant_package,
    forms_isomorphic,
    geometric_rep,
    hj_expansion,
    star_matrix,
)
from torsiontraj.links import (
    LensSpace,
    PlumbingBoundary,
    SphereProduct,
    lens_profile,
    link_profile,
    stalk_profile,
)
from torsiontraj.monodromy import coxeter_element, milnor_number, odp_package, variation_cokernel
from torsiontraj.products import (
    brauer_comparison,
    builtin_profile,
    product_cohomology,
    product_profile,
)
from torsiontraj.serialize import TABLE_HEADERS, markdown_table, row_cells
from torsiontraj.trajectory import (
    SingularityModel,
    local_package,
    realization_crosscheck,
    stratum_cohomology,
    trajectory_table,
)

Z = FGAbGroup.free(1)
Z2 = FGAbGroup.cyclic(2)
HALF = Fraction(1, 2)


def criterion(label):
    def mark(fn):
        fn._criterion = label
        return fn

    return mark


@criterion("1: A_1 row")
def test_criterion_1_a1_row():
    package = local_package(SingularityModel.ak(1))
    assert package.group == Z2
    assert package.form.entry(0, 0) == HALF
    assert geometric_rep(package.form.entry(0, 0)) == -HALF
    assert snf(IntMatrix([[-2]])).d.to_lists() == [[2]]
    rp3 = lens_profile(2, 1)
    assert rp3.group(2) == Z2
    variation = variation_cokernel(coxeter_element("A", 1))
    assert variation.cokernel == Z2
    assert variation.det_abs == 2


@criterion("2: A_k family k=1..12")
def test_criterion_2_ak_family():
    for k in range(1, 13):
        package = local_package(SingularityModel.ak(k))
        assert package.group.torsion_order() == k + 1
        assert package.form.entry(0, 0) == Fraction(1, k + 1)
        assert geometric_rep(package.form.entry(0, 0)) == Fraction(-k, k + 1)
        gram = cartan_matrix("A", k).gram
        assert rat_inverse(gram).entry(0, 0) == Fraction(-k, k + 1)
        variation = variation_cokernel(coxeter_element("A", k))
        assert snf(variation.variation).d.diagonal() == (1,) * (k - 1) + (k + 1,)
        assert char_poly(coxeter_element("A", k)) == (1,) * (k + 1)


@criterion("3: D_4 package and monodromy")
def test_criterion_3_d4():
    package = local_package(SingularityModel.d4())
    assert package.group == FGAbGroup.from_orders([2, 2])
    assert snf(cartan_matrix("D", 4).gram).d.diagonal() == (1, 1, 2, 2)
    assert package.form == RatMatrix([[0, HALF], [HALF, 0]])
    t = coxeter_element("D4")
    assert t.to_lists() == [[2, -1, -1, -1], [1, -1, 0, 0], [1, 0, -1, 0], [1, 0, 0, -1]]
    variation = variation_cokernel(t)
    assert snf(variation.variation).d.diagonal() == (1, 1, 2, 2)
    assert variation.det_abs == 4


@criterion("4: D_4 vs A_1+A_1 forms differ")
def test_criterion_4_d4_vs_split_form():
    d4 = local_package(SingularityModel.d4())
    split = abstract_package(FGAbGroup.from_orders([2, 2]), [[HALF, 0], [0, HALF]])
    assert d4.group == split.group
    assert not forms_isomorphic(d4, split)


@criterion("5: E_8 null control")
def test_criterion_5_e8():
    package = local_package(SingularityModel.e8())
    assert package.group.is_trivial()
    assert snf(cartan_matrix("E8").gram).d.diagonal() == (1,) * 8
    assert variation_cokernel(coxeter_element("E8")).det_abs == 1
    boundary = link_profile(PlumbingBoundary(cartan_matrix("E8")))
    assert boundary.cohomology == {0: Z, 3: Z}


@criterion("6: Brieskorn (2,3,11)")
def test_criterion_6_brieskorn():
    star = star_matrix(1, [2, 3, 11])
    assert det(star.gram) == 5
    inv = rat_inverse(star.gram)
    assert inv.column(3) == (
        Fraction(-6, 5),
        Fraction(-3, 5),
        Fraction(-2, 5),
        Fraction(-1, 5),
    )
    from torsiontraj.links import seifert_h1_order

    assert seifert_h1_order(-1, [(2, 1), (3, 1), (11, 1)]) == 5
    package = local_package(SingularityModel.brieskorn())
    assert package.group == FGAbGroup.cyclic(5)
    assert package.form.entry(0, 0) == Fraction(4, 5)
    assert geometric_rep(package.form.entry(0, 0)) == Fraction(-1, 5)
    assert milnor_number("BP", (2, 3, 11)) == 20


@criterion("7: Coble 1/4(1,1)")
def test_criterion_7_coble():
    assert hj_expansion(4, 1) == [4]
    package = local_package(SingularityModel.cyclic_quotient(4))
    assert package.group == FGAbGroup.cyclic(4)
    assert package.form.entry(0, 0) == Fraction(3, 4)
    assert geometric_rep(package.form.entry(0, 0)) == Fraction(-1, 4)
    l41 = lens_profile(4, 1)
    image, _ = bockstein_image(l41.group(1), l41.group(2), 2)
    assert image == Z2
    result = shadow(package, 2)
    assert result.sub.group == Z2
    assert result.isotropic
    assert result.quotient == Z2


@criterion("8: threefold ODP")
def test_criterion_8_odp():
    profile = link_profile(SphereProduct())
    assert profile.is_torsion_free()
    assert stalk_profile(profile, 3) == {-3: Z, -1: Z, 0: Z, 2: Z}
    variation, link = odp_package()
    assert variation.cokernel == Z
    assert variation.torsion().is_trivial()
    assert isinstance(link, SphereProduct)


@criterion("9: Enriques x curve, g=1..5")
def test_criterion_9_enriques_products():
    enriques = builtin_profile("enriques")
    for g in range(1, 6):
        curve = builtin_profile("curve", genus=g)
        h4 = product_cohomology(enriques, curve, 4)
        assert h4.total_torsion == FGAbGroup.from_orders([2] * (2 * g + 1))
        terms = {(a, b): grp for a, b, grp in h4.summands}
        assert terms[(3, 1)] == FGAbGroup.from_orders([2] * (2 * g))
        assert terms[(2, 2)].torsion() == Z2
        h3 = product_cohomology(enriques, curve, 3)
        assert h3.total_torsion == FGAbGroup.from_orders([2] * (2 * g + 1))
        full = product_profile(enriques, curve)
        assert full.h0q(2) == 0
        assert brauer_comparison(full) == FGAbGroup.from_orders([2] * (2 * g + 1))


@criterion("10: BO shape coincidence")
def test_criterion_10_bo_shape():
    package = local_package(SingularityModel.cyclic_quotient(4))
    half = shadow(package, 2).sub.group
    enriques = builtin_profile("enriques")
    for g in range(1, 6):
        expected = FGAbGroup.from_orders([2] * (2 * g))
        stratum = stratum_cohomology(half, g)[1]
        span = bo_direction_span(Z2, FGAbGroup.free(2 * g))
        report = product_cohomology(enriques, builtin_profile("curve", genus=g), 4)
        middle = {(a, b): grp for a, b, grp in report.summands}[(3, 1)]
        assert stratum == span == middle == expected


TABLE3_EXPECTED = {
    "ak": lambda model: FGAbGroup.cyclic(model.parameters[0] + 1),
    "d4": lambda model: FGAbGroup.from_orders([2, 2]),
    "e8": lambda model: FGAbGroup.trivial(),
    "brieskorn": lambda model: FGAbGroup.cyclic(5),
    "quotient": lambda model: FGAbGroup.cyclic(model.parameters[0]),
}


@criterion("11: cross-realization suite")
def test_criterion_11_cross_realization():
    models = [SingularityModel.ak(k) for k in range(1, 13)] + [
        SingularityModel.d4(),
        SingularityModel.e8(),
        SingularityModel.brieskorn(),
    ]
    for model in models:
        checks = realization_crosscheck(model)
        expected = TABLE3_EXPECTED[model.kind](model)
        assert set(checks.stations) == {"lattice", "link", "pair-sequence", "monodromy"}
        for group in checks.stations.values():
            assert group == expected
        assert checks.agree

    coble = realization_crosscheck(SingularityModel.cyclic_quotient(4))
    assert "monodromy" not in coble.stations
    assert coble.notes["monodromy"] == "not-applicable"
    for group in coble.stations.values():
        assert group == FGAbGroup.cyclic(4)
    assert coble.agree

    odp = realization_crosscheck(SingularityModel.odp())
    assert all(group.is_trivial() for group in odp.stations.values())


@criterion("12: property suites")
def test_criterion_12_properties():
    rng = random.Random(20260809)

    # Smith normal form on 500 random matrices
    for _ in range(500):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        decomp = snf(m)
        assert decomp.reconstruct() == m
        assert abs(det(decomp.u)) == 1
        assert abs(det(decomp.v)) == 1
        diag = list(decomp.d.diagonal())
        nonzero = [x for x in diag if x]
        assert all(x >= 0 for x in diag)
        assert diag == nonzero + [0] * (len(diag) - len(nonzero))
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0

    # |coker| = |det| on random nonsingular square matrices
    done = 0
    while done < 60:
        n = rng.randint(1, 5)
        m = IntMatrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        d = det(m)
        if d == 0:
            continue
        group, _ = group_from_cokernel(m)
        assert group.torsion_order() == abs(d)
        done += 1

    # discriminant-form well-definedness under representative perturbation
    for lat in (cartan_matrix("A", 3), cartan_matrix("D", 4), star_matrix(1, [2, 3, 11])):
        base = discriminant_package(lat)
        _, gens = group_from_cokernel(lat.gram)
        for _ in range(20):
            shifted = []
            for _, column in gens:
                move = lat.gram.apply([rng.randint(-4, 4) for _ in range(lat.rank)])
                shifted.append(tuple(c + m_ for c, m_ in zip(column, move)))
            perturbed = discriminant_package(lat, IntMatrix.from_columns(shifted))
            assert perturbed.form == base.form

    # Kunneth symmetry across built-in profiles
    profiles = [
        builtin_profile("enriques"),
        builtin_profile("curve", genus=2),
        builtin_profile("lens", p=4, q=1),
        builtin_profile("odp_link"),
    ]
    for x in profiles:
        for y in profiles:
            for k in range(0, 9):
                assert product_cohomology(x, y, k).total == product_cohomology(y, x, k).total

    # tensor/Tor against the free-resolution oracle on cyclic groups
    for m_ord in range(1, 13):
        for n_ord in range(1, 13):
            image = {(m_ord * x) % n_ord for x in range(n_ord)}
            kernel = {x for x in range(n_ord) if (m_ord * x) % n_ord == 0}
            gm = FGAbGroup.from_orders([m_ord])
            gn = FGAbGroup.from_orders([n_ord])
            assert tensor(gm, gn).torsion_order() == n_ord // len(image)
            assert tor(gm, gn).torsion_order() == len(kernel)

    # |ker| * |im| = |source| for valid homomorphisms
    from math import gcd

    for _ in range(60):
        src = FGAbGroup.from_orders([rng.choice([2, 3, 4, 6, 8]) for _ in range(rng.randint(1, 3))])
        tgt = FGAbGroup.from_orders([rng.choice([2, 4, 6, 12]) for _ in range(rng.randint(1, 3))])
        entries = []
        for t in tgt.invariant_factors:
            row = []
            for d in src.invariant_factors:
                step = t // gcd(d, t)
                row.append(step * rng.randint(0, t // step - 1) if step < t else 0)
            entries.append(row)
        analysis = hom_analyze(FinAbHom(src, tgt, IntMatrix(entries)))
        assert (
            analysis.kernel.torsion_order() * analysis.image.torsion_order()
            == src.torsion_order()
        )


EXPECTED_TABLE_COLUMNS = {
    "A_1 surface": ("Z/2", "1/2 (= -1/2)", "six agree"),
    "A_3 surface": ("Z/4", "1/4 (= -3/4)", "six agree"),
    "D_4 surface": ("(Z/2)^2", "[[0, 1/2], [1/2, 0]]", "six agree"),
    "E_8 surface": ("0", "0", "all vanish"),
    "x^2+y^3+z^11 (Brieskorn)": ("Z/5", "4/5 (= -1/5)", "six agree"),
    "Coble boundary 1/4(1,1)": ("Z/4", "3/4 (= -1/4)", "3 agree; monodromy n/a"),
}


@criterion("13: table reproduction")
def test_criterion_13_table():
    rows = trajectory_table()
    assert len(rows) == 9
    text = markdown_table(TABLE_HEADERS, [row_cells(r) for r in rows])
    lines = text.splitlines()
    assert lines[0] == "| " + " | ".join(TABLE_HEADERS) + " |"

    cells_by_example = {cells[0]: cells for cells in (row_cells(r) for r in rows)}
    for example, (e_text, q_text, local_text) in EXPECTED_TABLE_COLUMNS.items():
        cells = cells_by_example[example]
        assert cells[1] == e_text
        assert cells[2] == q_text
        assert cells[3] == local_text
        assert cells[7] == "0"

    odp = cells_by_example["threefold ODP"]
    assert "no finite torsion" in odp[1]
    nodal = cells_by_example["nodal threefold"]
    assert "no finite torsion" in nodal[1]
    assert "free" in nodal[5]
    bo = cells_by_example["Benoist-Ottem S x C"]
    assert bo[6] == "global Brauer/unramified benchmark"
    assert [r.brauer_residue_status for r in rows][7] == "global-benchmark"
    coble = cells_by_example["Coble boundary 1/4(1,1)"]
    assert "BO sees 2E" in coble[5]
