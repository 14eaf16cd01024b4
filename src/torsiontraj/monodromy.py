"""Milnor monodromy via Coxeter elements of ADE root lattices.

The monodromy of an ADE hypersurface singularity is the Coxeter element
of the corresponding root system, realized on the simple-root basis of
the positive Cartan matrix by s_i(alpha_j) = alpha_j - A_ij alpha_i.
The variation map T - id has a finite cokernel whose torsion recovers
the local discriminant group; the ordinary double point in dimension
three instead has T = id with free cokernel.
"""

from ._record import Record
from .abgroup import FGAbGroup, cokernel_group
from .errors import InvariantError, ValidationError
from .intmat import IntMatrix, _integer, _require_int_matrix
from .lattice import cartan_matrix
from .links import SphereProduct


def coxeter_element(family, parameter=None):
    """Product s_0 s_1 ... s_{n-1} of the simple reflections of the
    positive Cartan matrix A = ``-cartan_matrix(family, parameter).gram``,
    in its node order: 1..k along the A_k chain, and the central node
    first for D_n (the rightmost factor acts first).

    s_i differs from the identity only in row i, which is e_i - A_i
    (alpha_j -> alpha_j - A_ij alpha_i), so s_i @ R differs from R only
    in row i, which is (e_i - A_i) @ R.  The product is formed from the
    left, R = s_i @ R for i = n-1 down to 0, which is the same matrix by
    associativity, and each step computes only that new row: one 1 x n
    ``@`` product of e_i - A_i with R, over the nonzeros of e_i - A_i.
    The new row is spliced into the row tuple of R, and every other row
    stays shared.  That is n ``@`` products per element, one per
    reflection, each with a one-row left factor.

    Any other order gives a conjugate element, so T - id and hence the
    variation cokernel are the same up to isomorphism; one order suffices.

    >>> coxeter_element("A", 1).to_lists()
    [[-1]]
    """
    gram_rows = cartan_matrix(family, parameter).gram.to_lists()
    # The rows of R, as tuples, so that wrapping shares them.
    rows = list(IntMatrix.identity(len(gram_rows))._rows)
    for i in reversed(range(len(rows))):
        # e_i - A_i = e_i + (row i of the gram), since A = -gram.
        gram_rows[i][i] += 1
        new_row = IntMatrix._wrap([gram_rows[i]]) @ IntMatrix._wrap(rows)
        rows[i] = new_row._rows[0]
    return IntMatrix._wrap(rows)


class VariationResult(Record):
    """The variation map T - id of a monodromy T, with its cokernel data.

    ``det_abs`` is |det(T - id)| when the map is rationally invertible
    and None when it is singular (the zero-flag case of the ordinary
    double point).
    """

    variation: IntMatrix
    cokernel: FGAbGroup
    det_abs: int

    def torsion(self):
        return self.cokernel.torsion()


def variation_cokernel(t_matrix):
    """Cokernel of T - id and |det(T - id)| from one Smith form: the
    determinant is the cokernel's order when finite, else 0 (None).

    >>> print(variation_cokernel(IntMatrix([[-1]])).cokernel)
    Z/2
    """
    _require_int_matrix(t_matrix, "variation_cokernel")
    if not t_matrix.is_square():
        raise ValidationError("monodromy matrix must be square")
    variation = t_matrix - IntMatrix.identity(t_matrix.rows)
    cokernel = cokernel_group(variation)
    det_abs = cokernel.torsion_order() if cokernel.is_finite() else None
    return VariationResult(variation, cokernel, det_abs)


def milnor_number(family, parameter=None):
    """Milnor number: the rank of ``cartan_matrix(family, parameter)``
    for an ADE family ("A" k, "D" n, "D4", "E8"), and (a-1)(b-1)(c-1)
    for the Brieskorn-Pham singularity x^a + y^b + z^c ("BP", with the
    triple (a, b, c)).

    >>> milnor_number("A", 7), milnor_number("E8")
    (7, 8)
    >>> milnor_number("BP", (2, 3, 11))
    20
    """
    if family == "BP":
        try:
            a, b, c = (_integer(e, "a Brieskorn-Pham exponent", 2) for e in parameter)
        except (TypeError, ValueError):
            raise ValidationError("Brieskorn-Pham exponents must be a triple") from None
        return (a - 1) * (b - 1) * (c - 1)
    return cartan_matrix(family, parameter).rank


def odp_package():
    """The threefold ordinary double point: T = id on Z, so the
    variation map is zero, the cokernel is free of rank one, and the
    link is S^2 x S^3."""
    t = IntMatrix.identity(1)
    result = variation_cokernel(t)
    if result.det_abs is not None or result.cokernel != FGAbGroup.free(1):
        raise InvariantError(
            f"ODP variation cokernel is {result.cokernel} (|det| {result.det_abs}), "
            "expected Z from a singular variation"
        )
    return result, SphereProduct()
