"""Coxeter elements, variation cokernels, Milnor numbers."""

import itertools
import random

import pytest

from torsiontraj.abgroup import FGAbGroup
from torsiontraj import monodromy
from torsiontraj.errors import InvariantError, ValidationError
from torsiontraj.intmat import IntMatrix, char_poly, det, snf
from torsiontraj.lattice import cartan_matrix
from torsiontraj.monodromy import (
    coxeter_element,
    milnor_number,
    odp_package,
    variation_cokernel,
)

D4_COXETER = IntMatrix([[2, -1, -1, -1], [1, -1, 0, 0], [1, 0, -1, 0], [1, 0, 0, -1]])


def positive_cartan(family, parameter=None):
    return -1 * cartan_matrix(family, parameter).gram


def test_coxeter_a1():
    assert coxeter_element("A", 1).to_lists() == [[-1]]


def test_coxeter_d4_matrix():
    assert coxeter_element("D4") == D4_COXETER


def test_coxeter_ak_char_poly():
    for k in range(1, 13):
        # t^k + t^{k-1} + ... + 1
        assert char_poly(coxeter_element("A", k)) == (1,) * (k + 1)


@pytest.mark.parametrize("k", [20, 32, 60])
def test_coxeter_ak_scaling(k):
    # The Coxeter element of A_k has order exactly k + 1, and its
    # variation T - id has determinant of absolute value k + 1.
    t = coxeter_element("A", k)
    identity = IntMatrix.identity(k)
    power = t
    for _ in range(k):
        assert power != identity
        power = power @ t
    assert power == identity
    assert abs(det(t - identity)) == k + 1


def test_variation_a1():
    result = variation_cokernel(IntMatrix([[-1]]))
    assert result.variation.to_lists() == [[-2]]
    assert result.cokernel == FGAbGroup.cyclic(2)
    assert result.det_abs == 2


def test_variation_d4():
    result = variation_cokernel(coxeter_element("D4"))
    assert snf(result.variation).d.diagonal() == (1, 1, 2, 2)
    assert result.cokernel == FGAbGroup.from_orders([2, 2])
    assert result.det_abs == 4


def test_variation_identity():
    result = variation_cokernel(IntMatrix.identity(1))
    assert result.cokernel == FGAbGroup.free(1)
    assert result.torsion().is_trivial()
    assert result.det_abs is None


def test_variation_e8():
    result = variation_cokernel(coxeter_element("E8"))
    assert result.det_abs == 1
    assert result.torsion().is_trivial()


def det_abs_reference(t):
    d = det(t - IntMatrix.identity(t.rows))
    return abs(d) if d != 0 else None


def random_monodromy(rng):
    n = rng.randint(1, 6)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.3:  # last row of T - id := its first row (singular if n > 1)
        rows[-1] = [a + int(i == n - 1) - int(i == 0)
                    for i, a in enumerate(rows[0])]
    return IntMatrix(rows)


def test_det_abs_matches_determinant():
    # det_abs is read off the Smith form; the determinant is the reference.
    ts = [coxeter_element("A", k) for k in range(1, 61)]
    ts += [coxeter_element("D4"), coxeter_element("E8"), IntMatrix.identity(1)]
    rng = random.Random(2024)
    ts += [random_monodromy(rng) for _ in range(200)]
    singular = 0
    for t in ts:
        expected = det_abs_reference(t)
        singular += expected is None
        assert variation_cokernel(t).det_abs == expected
    assert singular > 10


def test_ak_variation_family():
    for k in range(1, 13):
        result = variation_cokernel(coxeter_element("A", k))
        assert result.det_abs == k + 1
        assert snf(result.variation).d.diagonal() == (1,) * (k - 1) + (k + 1,)
        assert result.cokernel == FGAbGroup.cyclic(k + 1)


def simple_reflection(cartan, i):
    """Matrix of s_i on the simple-root basis: alpha_j -> alpha_j - A_ij alpha_i,
    built whole, entry by entry, through the checking constructor."""
    n = cartan.rows
    rows = [[0] * n for _ in range(n)]
    for j, row in enumerate(rows):
        row[j] = 1
    rows[i] = [int(i == j) - cartan.entry(i, j) for j in range(n)]
    return IntMatrix(rows)


def product_of_reflections(cartan, order):
    """The simple reflections of ``cartan`` multiplied in ``order``."""
    result = IntMatrix.identity(cartan.rows)
    for i in order:
        result = result @ simple_reflection(cartan, i)
    return result


@pytest.mark.parametrize(
    "family, parameter",
    [("A", k) for k in range(1, 121)] + [("D", n) for n in range(4, 31)]
    + [("D4", None), ("E8", None)],
)
def test_coxeter_element_matches_the_reference_product(family, parameter):
    # coxeter_element builds each reflection from shared identity rows and
    # one Cartan row, and multiplies from the left, s_{n-1} first; the
    # reference builds every reflection whole and multiplies from the
    # right, s_0 first.
    cartan = positive_cartan(family, parameter)
    expected = product_of_reflections(cartan, range(cartan.rows))
    t = coxeter_element(family, parameter)
    assert t == expected and repr(t) == repr(expected)
    assert all(type(e) is int for row in t.to_lists() for e in row)


@pytest.mark.parametrize(
    "family, parameter",
    [("A", 1), ("A", 3), ("A", 12), ("A", 60)] + [("D", n) for n in range(4, 13)]
    + [("D4", None), ("E8", None)],
)
def test_coxeter_element_makes_one_product_per_reflection(monkeypatch, family, parameter):
    # One IntMatrix @ per simple reflection, so an A_3 row makes three,
    # and each left factor is the one new row e_i - A_i.
    calls = []
    real_matmul = IntMatrix.__matmul__

    def counting_matmul(self, other):
        calls.append(self.rows)
        return real_matmul(self, other)

    monkeypatch.setattr(IntMatrix, "__matmul__", counting_matmul)
    t = coxeter_element(family, parameter)
    assert len(calls) == t.rows == milnor_number(family, parameter)
    assert calls == [1] * t.rows


def test_coxeter_preserves_cartan_form():
    cases = [("A", 4), ("A", 7), ("D4", None), ("E8", None)]
    for family, parameter in cases:
        cartan = positive_cartan(family, parameter)
        n = cartan.rows
        natural = product_of_reflections(cartan, range(n))
        assert natural == coxeter_element(family, parameter)
        for t in (natural, product_of_reflections(cartan, reversed(range(n)))):
            assert t.transpose() @ cartan @ t == cartan


def test_coxeter_char_poly_order_invariant():
    # Every order gives a conjugate element, hence the same variation cokernel.
    cartan = positive_cartan("D4")
    reference = char_poly(coxeter_element("D4"))
    assert product_of_reflections(cartan, range(4)) == coxeter_element("D4")
    for order in itertools.permutations(range(4)):
        t = product_of_reflections(cartan, order)
        assert char_poly(t) == reference
        assert snf(t - IntMatrix.identity(4)).d.diagonal() == (1, 1, 2, 2)


def test_coxeter_validation():
    with pytest.raises(ValidationError):
        coxeter_element("A")
    with pytest.raises(ValidationError):
        coxeter_element("B", 2)


def dense_dn_coxeter(n):
    """s_0 s_1 ... s_{n-1} for D_n in plain lists: the central node 0
    joined to 1, 2 and 3, then the chain 3 - 4 - ... - (n - 1)."""
    edges = {(0, 1), (0, 2), (0, 3)} | {(i, i + 1) for i in range(3, n - 1)}
    cartan = [[2 if i == j else -int((i, j) in edges or (j, i) in edges) for j in range(n)]
              for i in range(n)]
    result = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        s = [[int(r == j) - (cartan[i][j] if r == i else 0) for j in range(n)]
             for r in range(n)]
        result = [[sum(result[r][m] * s[m][j] for m in range(n)) for j in range(n)]
                  for r in range(n)]
    return result


@pytest.mark.parametrize("n", range(4, 31))
def test_coxeter_dn_family(n):
    # D_n's discriminant group is Z/4 for odd n and (Z/2)^2 for even n,
    # and its Coxeter number is 2n - 2.
    t = coxeter_element("D", n)
    assert t.to_lists() == dense_dn_coxeter(n)
    expected = FGAbGroup.cyclic(4) if n % 2 else FGAbGroup.from_orders([2, 2])
    assert variation_cokernel(t).cokernel == expected
    power = IntMatrix.identity(n)
    for _ in range(2 * n - 2):
        power = power @ t
    assert power == IntMatrix.identity(n)
    assert milnor_number("D", n) == n
    if n == 4:
        assert t == coxeter_element("D4")


@pytest.mark.parametrize("k", [*range(1, 13), 20, 31, 44, 60])
def test_coxeter_ak_companion_shape(k):
    # s_1 ... s_k on the A_k chain is the companion matrix of
    # 1 + t + ... + t^k: ones below the diagonal, -1 down the last column.
    expected = [[-1 if j == k - 1 else int(i == j + 1) for j in range(k)] for i in range(k)]
    assert coxeter_element("A", k).to_lists() == expected


def test_simple_reflection_involution():
    cartan = positive_cartan("D4")
    for i in range(4):
        s = simple_reflection(cartan, i)
        assert s @ s == IntMatrix.identity(4)


def test_milnor_numbers():
    assert milnor_number("BP", (2, 3, 11)) == 20
    assert milnor_number("D4") == 4
    assert milnor_number("BP", (2, 2, 2)) == 1
    assert milnor_number("A", 7) == 7
    assert milnor_number("E8") == 8
    with pytest.raises(ValidationError):
        milnor_number("BP", (1, 2, 3))
    with pytest.raises(ValidationError):
        milnor_number("A", 0)


def test_milnor_number_is_cartan_rank():
    cases = [("A", k) for k in range(1, 13)] + [("D4", None), ("E8", None)]
    for family, parameter in cases:
        assert milnor_number(family, parameter) == positive_cartan(family, parameter).rows
    for args in [("D4", 3), ("A", 0)]:
        with pytest.raises(ValidationError):
            milnor_number(*args)
    with pytest.raises(ValidationError, match="'X'"):
        milnor_number("X")


@pytest.mark.parametrize(
    "call",
    [
        lambda: coxeter_element("E8", 5),
        lambda: coxeter_element("D4", 17),
        lambda: milnor_number("D4", 17),
        lambda: milnor_number("E8", 8),
        lambda: coxeter_element("A", 2.5),
        lambda: milnor_number("A", 2.5),
        lambda: milnor_number("A", True),
        lambda: milnor_number("BP", (2, 3, 11.5)),
    ],
    ids=["coxeter-e8-5", "coxeter-d4-17", "milnor-d4-17", "milnor-e8-8",
         "coxeter-a-float", "milnor-a-float", "milnor-a-bool", "milnor-bp-float"],
)
def test_family_parameters_checked(call):
    # The first four returned the D_4 or E_8 answer, ignoring the
    # parameter; the float cases ran on or failed with a TypeError.
    with pytest.raises(ValidationError):
        call()


def test_odp_package():
    result, link = odp_package()
    assert result.torsion().is_trivial()
    assert result.det_abs is None
    assert result.variation.to_lists() == [[0]]
    from torsiontraj.links import link_profile

    assert link_profile(link).is_torsion_free()


def test_odp_package_check(monkeypatch):
    # A variation with nonzero determinant contradicts T = id; the check
    # is an explicit error, so it also fires under python -O.
    real = monodromy.variation_cokernel
    monkeypatch.setattr(monodromy, "variation_cokernel", lambda t: real(2 * t))
    with pytest.raises(InvariantError, match="expected Z from a singular variation"):
        odp_package()
