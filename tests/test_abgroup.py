"""Finitely generated abelian groups, with brute-force oracles."""

import itertools
import random
from math import gcd, lcm, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from torsiontraj.abgroup import (
    FGAbGroup,
    FinAbHom,
    element_order,
    ext1_to_Z,
    group_from_cokernel,
    hom_analyze,
    n_torsion,
    rationalize,
    scale_subgroup,
    tensor,
    tor,
)
from torsiontraj import abgroup, intmat
from torsiontraj.errors import DimensionError, InvariantError, ValidationError
from torsiontraj.intmat import IntMatrix, SnfDecomposition
from torsiontraj.links import lens_profile

Z2 = FGAbGroup.cyclic(2)
Z4 = FGAbGroup.cyclic(4)


def test_normalization():
    assert FGAbGroup.from_orders([2, 3]) == FGAbGroup.cyclic(6)
    assert FGAbGroup.from_orders([4, 6, 2]).invariant_factors == (2, 2, 12)
    assert FGAbGroup.from_orders([1, 1]) == FGAbGroup.trivial()
    assert str(FGAbGroup(1, (2, 2, 4))) == "Z + (Z/2)^2 + Z/4"


@pytest.mark.parametrize(
    "build, shown",
    [
        (lambda: FGAbGroup(0, (2.5,)), "2.5"),
        (lambda: FGAbGroup(0, ("6",)), "'6'"),
        (lambda: FGAbGroup(1.5, ()), "1.5"),
        (lambda: FGAbGroup.from_orders([2.7, 4]), "2.7"),
        (lambda: FGAbGroup(True, (2,)), "True"),
        (lambda: FGAbGroup(0, (2, True)), "True"),
        (lambda: FGAbGroup.from_orders([True, 2]), "True"),
        (lambda: FGAbGroup.cyclic(True), "True"),
        (lambda: FGAbGroup.cyclic(False), "False"),
    ],
    ids=["float-factor", "string-factor", "float-rank", "float-order", "bool-rank",
         "bool-factor", "bool-order", "cyclic-true", "cyclic-false"],
)
def test_non_integer_group_data_rejected(build, shown):
    # Each was truncated, parsed or left as a float, ended in a TypeError
    # from gcd, or read True as 1 and False as 0 (Z + Z/2, Z/2, the
    # trivial group); now a ValidationError names the value.
    with pytest.raises(ValidationError, match=f"got {shown}$"):
        build()


def test_invalid_chain_rejected():
    with pytest.raises(ValidationError):
        FGAbGroup(0, (4, 2))
    with pytest.raises(ValidationError):
        FGAbGroup(0, (1,))
    with pytest.raises(ValidationError):
        FGAbGroup(-1, ())


def test_primary_decomposition_view():
    assert FGAbGroup.from_orders([12, 60]).primary_decomposition() == (3, 3, 4, 4, 5)
    assert FGAbGroup.cyclic(6).prime_support() == {2, 3}


# -- normalization against a factoring reference ------------------------------

def factoring_invariant_factors(orders):
    """The chain by prime factorization, as the library once computed it:
    the i-th largest factor is the product over p of p^(i-th largest
    exponent of p)."""
    exponents = {}
    for d in orders:
        for p, e in abgroup._factorize(d).items():
            exponents.setdefault(p, []).append(e)
    width = max((len(v) for v in exponents.values()), default=0)
    factors = []
    for i in range(width):
        f = 1
        for p, exps in exponents.items():
            exps_sorted = sorted(exps, reverse=True)
            if i < len(exps_sorted):
                f *= p ** exps_sorted[i]
        factors.append(f)
    return tuple(sorted(factors))


PRIME_POWERS = st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49])
# Products of small prime powers (1 included); every other order repeated.
ORDERS = st.lists(st.lists(PRIME_POWERS, max_size=3).map(prod), max_size=8).map(
    lambda xs: xs + xs[::2]
)


@given(ORDERS)
def test_from_orders_matches_factoring_reference(orders):
    expected = factoring_invariant_factors(orders)
    assert abgroup._invariant_factors(orders) == expected
    assert FGAbGroup.from_orders(orders, 2) == FGAbGroup(2, expected)


def test_nonpositive_order_rejected():
    for bad in ([0], [2, -3]):
        with pytest.raises(ValidationError, match="must be positive"):
            FGAbGroup.from_orders(bad)


M61, M31 = 2**61 - 1, 2**31 - 1  # Mersenne primes


def test_big_prime_orders():
    # Normalization never factors, so primes far beyond trial division
    # cost no more than small ones.
    assert FGAbGroup.cyclic(M61).invariant_factors == (M61,)
    assert FGAbGroup.from_orders([M61, M31]) == FGAbGroup.cyclic(M61 * M31)
    assert FGAbGroup.from_orders([M61 * M31, M31]).invariant_factors == (M31, M61 * M31)
    assert lens_profile(M61, 1).group(2) == FGAbGroup.cyclic(M61)


def test_cokernel_minus_two():
    group, gens = group_from_cokernel(IntMatrix([[-2]]))
    assert group == Z2
    assert [order for order, _ in gens] == [2]


def test_cokernel_negative_d4():
    gram = IntMatrix([[-2, 1, 1, 1], [1, -2, 0, 0], [1, 0, -2, 0], [1, 0, 0, -2]])
    group, _ = group_from_cokernel(gram)
    assert group == FGAbGroup.from_orders([2, 2])


def test_cokernel_zero_matrix():
    group, gens = group_from_cokernel(IntMatrix([[0]]))
    assert group == FGAbGroup.free(1)
    assert [order for order, _ in gens] == [0]


def test_cokernel_generator_orders():
    # d * (class of the generator column) must vanish in the cokernel:
    # d * u_i lies in the column span of M.
    gram = IntMatrix([[-2, 1, 1, 1], [1, -2, 0, 0], [1, 0, -2, 0], [1, 0, 0, -2]])
    from torsiontraj.intmat import rat_inverse

    inv = rat_inverse(gram)
    _, gens = group_from_cokernel(gram)
    for order, column in gens:
        image = inv.apply(tuple(order * x for x in column))
        assert all(f.denominator == 1 for f in image)


def test_ext1():
    assert ext1_to_Z(FGAbGroup.cyclic(5)) == FGAbGroup.cyclic(5)
    assert ext1_to_Z(FGAbGroup.free(1)) == FGAbGroup.trivial()
    assert ext1_to_Z(Z4) == Z4
    for d in range(2, 101):
        assert ext1_to_Z(FGAbGroup.cyclic(d)).invariant_factors == (d,)
    rng = random.Random(41)
    for _ in range(50):
        g = FGAbGroup.from_orders(
            [rng.randint(2, 100) for _ in range(rng.randint(1, 4))],
            free_rank=rng.randint(0, 3),
        )
        assert ext1_to_Z(g).invariant_factors == g.invariant_factors
        assert ext1_to_Z(g).free_rank == 0


def test_tensor_examples():
    g = FGAbGroup.free(6)  # Z^{2g} with g = 3
    assert tensor(Z2, g) == FGAbGroup.from_orders([2] * 6)
    assert tensor(Z4, Z2) == Z2
    assert tensor(FGAbGroup.trivial(), Z4) == FGAbGroup.trivial()


def test_tor_examples():
    assert tor(Z2, FGAbGroup.free(6)) == FGAbGroup.trivial()
    assert tor(Z4, Z2) == Z2
    assert tor(FGAbGroup.free(1), FGAbGroup.cyclic(5)) == FGAbGroup.trivial()


def cyclic_map_kernel_cokernel(m, n):
    """Brute-force kernel/cokernel sizes of Z/n --m--> Z/n.

    Tensoring the free resolution 0 -> Z --m--> Z -> Z/m -> 0 with Z/n
    identifies Tor(Z/m, Z/n) with the kernel and (Z/m) (x) (Z/n) with
    the cokernel of this map.
    """
    elements = set(range(n))
    image = {(m * x) % n for x in elements}
    kernel = {x for x in elements if (m * x) % n == 0}
    return len(kernel), n // len(image)


def test_tensor_tor_against_resolution_oracle():
    for m in range(1, 13):
        for n in range(1, 13):
            ker, coker = cyclic_map_kernel_cokernel(m, n)
            assert tor(FGAbGroup.from_orders([m]), FGAbGroup.from_orders([n])).torsion_order() == ker
            assert (
                tensor(FGAbGroup.from_orders([m]), FGAbGroup.from_orders([n])).torsion_order()
                == coker
            )
            # both are cyclic of order gcd, so orders determine the groups
            assert ker == coker == gcd(m, n)


def brute_torsion_structure(factors, predicate):
    """Element-order multiset of {x in prod Z/d_i : predicate(x)}."""
    orders = sorted(
        element_order(coords, factors)
        for coords in itertools.product(*(range(d) for d in factors))
        if predicate(coords)
    )
    return orders


def group_element_orders(group):
    return brute_torsion_structure(group.invariant_factors, lambda coords: True)


def test_n_torsion_examples():
    assert n_torsion(Z4, 2) == Z2
    assert n_torsion(FGAbGroup.free(3), 5) == FGAbGroup.trivial()
    big = FGAbGroup.from_orders([6, 12])
    expected = brute_torsion_structure(
        big.invariant_factors, lambda c: all((4 * x) % d == 0 for x, d in zip(c, big.invariant_factors))
    )
    assert n_torsion(big, 4) == FGAbGroup.from_orders([2, 4])
    assert group_element_orders(n_torsion(big, 4)) == expected


def test_scale_subgroup_examples():
    assert scale_subgroup(Z4, 2) == (Z2, Z2)
    assert scale_subgroup(Z2, 2) == (FGAbGroup.trivial(), Z2)
    sub, quot = scale_subgroup(FGAbGroup.cyclic(6), 2)
    assert (sub, quot) == (FGAbGroup.cyclic(3), Z2)
    # brute force over the 6 elements of Z/6
    doubled = sorted({(2 * x) % 6 for x in range(6)})
    assert len(doubled) == sub.torsion_order()


def test_scale_subgroup_order_law():
    rng = random.Random(5)
    for _ in range(100):
        factors = sorted(rng.choice([2, 3, 4, 6, 8, 12, 24]) for _ in range(rng.randint(1, 3)))
        try:
            g = FGAbGroup.from_orders(factors)
        except ValidationError:
            continue
        n = rng.randint(1, 10)
        sub, quot = scale_subgroup(g, n)
        assert sub.torsion_order() * quot.torsion_order() == g.torsion_order()


def test_scale_subgroup_free_part():
    sub, quot = scale_subgroup(FGAbGroup(2, (4,)), 2)
    assert sub == FGAbGroup(2, (2,))
    assert quot == FGAbGroup.from_orders([2, 2, 2])


def gcd_n_torsion(group, n):
    """n-torsion by its own gcd formula: the previous construction."""
    return FGAbGroup.from_orders([gcd(n, d) for d in group.invariant_factors])


def gcd_scale_subgroup(group, n):
    """nG and G/nG by their own gcd formulas: the previous construction."""
    sub = FGAbGroup.from_orders(
        [d // gcd(n, d) for d in group.invariant_factors], group.free_rank
    )
    quot_orders = [gcd(n, d) for d in group.invariant_factors] + [n] * group.free_rank
    return sub, FGAbGroup.from_orders(quot_orders)


groups_with_free_part = st.builds(
    lambda orders, rank: FGAbGroup.from_orders(orders, rank),
    st.lists(st.integers(1, 36), max_size=4), st.integers(0, 3),
)


@given(groups_with_free_part, st.integers(1, 40))
def test_finite_coefficients_match_gcd_formulas(group, n):
    assert n_torsion(group, n) == gcd_n_torsion(group, n)
    assert scale_subgroup(group, n) == gcd_scale_subgroup(group, n)


@pytest.mark.parametrize("call", [n_torsion, scale_subgroup])
def test_finite_coefficients_refuse_n_below_one(call):
    with pytest.raises(ValidationError, match="n must be >= 1"):
        call(Z4, 0)


def test_rationalize():
    assert rationalize(FGAbGroup.cyclic(7)) == 0
    assert rationalize(FGAbGroup(3, (2,))) == 3
    assert rationalize(FGAbGroup.trivial()) == 0


# -- homomorphism analysis ----------------------------------------------------

def brute_hom_analysis(f):
    """Kernel/image/cokernel element-order multisets by enumeration."""
    src = f.source.invariant_factors
    tgt = f.target.invariant_factors
    columns = [f.matrix.column(i) for i in range(len(src))]

    def apply(coords):
        out = [0] * len(tgt)
        for c, col in zip(coords, columns):
            for j, entry in enumerate(col):
                out[j] = (out[j] + c * entry) % tgt[j]
        return tuple(out)

    kernel = []
    image = set()
    for coords in itertools.product(*(range(d) for d in src)):
        value = apply(coords)
        image.add(value)
        if all(v == 0 for v in value):
            kernel.append(coords)
    kernel_orders = sorted(element_order(c, src) for c in kernel)
    image_orders = sorted(element_order(c, tgt) for c in image)
    total = 1
    for d in tgt:
        total *= d
    return kernel_orders, image_orders, total // len(image)


def test_hom_identity():
    g = FGAbGroup.from_orders([2, 2])
    result = hom_analyze(FinAbHom.identity(g))
    assert result.kernel == FGAbGroup.trivial()
    assert result.image == g
    assert result.cokernel == FGAbGroup.trivial()


def test_hom_zero():
    g = FGAbGroup.from_orders([2, 2])
    result = hom_analyze(FinAbHom.zero(g, g))
    assert result.kernel == g
    assert result.image == FGAbGroup.trivial()
    assert result.cokernel == g


def test_hom_sum_map():
    g = FGAbGroup.from_orders([2, 2])
    f = FinAbHom(g, Z2, IntMatrix([[1, 1]]))
    result = hom_analyze(f)
    assert result.kernel == Z2
    assert result.image == Z2
    assert result.cokernel == FGAbGroup.trivial()
    kernel_orders, image_orders, coker_order = brute_hom_analysis(f)
    assert kernel_orders == [1, 2]
    assert image_orders == [1, 2]
    assert coker_order == 1


def test_hom_validation():
    with pytest.raises(ValidationError):
        FinAbHom(Z2, Z4, IntMatrix([[1]]))  # 2 * 1 != 0 mod 4
    with pytest.raises(DimensionError):
        FinAbHom(Z2, Z2, IntMatrix([[1, 0]]))
    with pytest.raises(ValidationError):
        FinAbHom(FGAbGroup.free(1), Z2, IntMatrix([[0]]))


def test_hom_refuses_a_trivial_side_by_name():
    # A matrix has at least one row and column, so no matrix fits a
    # trivial side; the shape check asked for a 1x0 or 0x1 matrix.
    with pytest.raises(ValidationError, match="source of a homomorphism is the trivial group"):
        FinAbHom(FGAbGroup.trivial(), Z2, IntMatrix([[1]]))
    with pytest.raises(ValidationError, match="target of a homomorphism is the trivial group"):
        FinAbHom(Z2, FGAbGroup.trivial(), IntMatrix([[1]]))


def random_hom(rng):
    src = FGAbGroup.from_orders(
        [rng.choice([2, 3, 4, 6, 8, 12]) for _ in range(rng.randint(1, 3))]
    )
    tgt = FGAbGroup.from_orders(
        [rng.choice([2, 3, 4, 6, 12]) for _ in range(rng.randint(1, 3))]
    )
    entries = []
    for t in tgt.invariant_factors:
        row = []
        for d in src.invariant_factors:
            # valid entries are multiples of t / gcd(d, t)
            step = t // gcd(d, t)
            row.append(step * rng.randint(0, t // step - 1) if step < t else 0)
        entries.append(row)
    return FinAbHom(src, tgt, IntMatrix(entries))


def test_hom_against_brute_force():
    rng = random.Random(17)
    for _ in range(60):
        f = random_hom(rng)
        result = hom_analyze(f)
        kernel_orders, image_orders, coker_order = brute_hom_analysis(f)
        assert group_element_orders(result.kernel) == kernel_orders
        assert group_element_orders(result.image) == image_orders
        assert result.cokernel.torsion_order() == coker_order
        assert (
            result.kernel.torsion_order() * result.image.torsion_order()
            == f.source.torsion_order()
        )


@st.composite
def fin_ab_homs(draw):
    src = FGAbGroup.from_orders(draw(st.lists(st.integers(2, 24), min_size=1, max_size=3)))
    tgt = FGAbGroup.from_orders(draw(st.lists(st.integers(2, 24), min_size=1, max_size=3)))
    # entry (j, i) must be a multiple of t_j / gcd(d_i, t_j)
    entries = [[(t // gcd(d, t)) * draw(st.integers(0, gcd(d, t) - 1))
                for d in src.invariant_factors]
               for t in tgt.invariant_factors]
    return FinAbHom(src, tgt, IntMatrix(entries))


@given(fin_ab_homs())
def test_hom_analyze_order_laws(f):
    result = hom_analyze(f)
    assert result.kernel.is_finite() and result.image.is_finite()
    image_order = result.image.torsion_order()
    assert result.kernel.torsion_order() * image_order == f.source.torsion_order()
    assert image_order * result.cokernel.torsion_order() == f.target.torsion_order()


def test_element_order():
    assert element_order((1, 0), (2, 4)) == 2
    assert element_order((0, 2), (2, 4)) == 2
    assert element_order((1, 1), (2, 4)) == lcm(2, 4)
    assert element_order((0, 0), (2, 4)) == 1


def test_hom_preimage_rank_check(monkeypatch):
    # A Smith form that loses rank makes the preimage lattice deficient;
    # the check is an explicit error, so it also fires under python -O.
    def rank_zero_snf(matrix):
        return SnfDecomposition(IntMatrix.zero(matrix.rows, matrix.cols), [])

    monkeypatch.setattr(abgroup, "snf", rank_zero_snf)
    with pytest.raises(InvariantError, match="preimage lattice"):
        hom_analyze(FinAbHom.identity(Z2))


def test_hom_analyze_one_snf_per_matrix(monkeypatch):
    # Four presentations (cokernel, solution kernel, preimage basis,
    # cokernel of the dual map), each put in Smith form exactly once.
    real_snf = intmat.snf
    seen = []

    def counting_snf(matrix):
        seen.append(matrix)
        return real_snf(matrix)

    monkeypatch.setattr(abgroup, "snf", counting_snf)
    monkeypatch.setattr(intmat, "snf", counting_snf)
    g = FGAbGroup.from_orders([2, 4])
    result = hom_analyze(FinAbHom(g, Z4, IntMatrix([[2, 1]])))
    assert len(seen) == 4 and len(set(seen)) == 4
    assert result.kernel.torsion_order() * result.image.torsion_order() == 8


def preimage_hom_kernel(f):
    """The kernel as P / D Z^n, with D Z^n written in a basis of the
    preimage lattice P through rat_inverse: the previous construction."""
    src = f.source.invariant_factors
    tgt = f.target.invariant_factors
    n, m = len(src), len(tgt)
    d_mat = IntMatrix([[src[i] if i == j else 0 for j in range(n)] for i in range(n)])
    r_mat = IntMatrix([[tgt[i] if i == j else 0 for j in range(m)] for i in range(m)])
    solution_kernel = intmat.kernel_basis(f.matrix.hstack(-1 * r_mat))
    basis = IntMatrix.from_columns([vec[:n] for vec in solution_kernel])
    in_basis = (intmat.rat_inverse(basis) @ d_mat).to_int_matrix()
    return group_from_cokernel(in_basis)[0]


@given(fin_ab_homs())
def test_hom_kernel_matches_preimage_reference(f):
    assert hom_analyze(f).kernel == preimage_hom_kernel(f)


def test_hom_analyze_and_kernel_basis_stay_in_integers(monkeypatch):
    def refuse(matrix):
        raise AssertionError("rat_inverse called")

    monkeypatch.setattr(intmat, "rat_inverse", refuse)
    monkeypatch.setattr(abgroup, "rat_inverse", refuse, raising=False)
    m = IntMatrix([[1, 2, 3], [2, 4, 6]])
    assert intmat.kernel_basis(m) == [(-2, 1, 0), (-3, 0, 1)]
    g = FGAbGroup.from_orders([2, 4])
    result = hom_analyze(FinAbHom(g, Z4, IntMatrix([[2, 1]])))
    assert result.kernel == Z2 and result.image == Z4

