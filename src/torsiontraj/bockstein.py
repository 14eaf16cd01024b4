"""Coefficient Bocksteins and shadow subpackages nE inside E.

The Bockstein of 0 -> Z -> Z -> Z/n -> 0 has image equal to the
n-torsion of the next integral group; applied to a discriminant package
it selects the subgroup nE with the restricted pairing, the "shadow"
that a mod-n cover class can see.
"""

from math import gcd

from ._record import Record
from .abgroup import FGAbGroup, n_torsion, scale_subgroup, tensor
from .errors import InvariantError, ValidationError
from .intmat import IntMatrix, _integer
from .lattice import DiscriminantPackage, _mod1, trivial_package


def bockstein_image(h_r, h_r1, n):
    """Image and kernel size of beta : H^r(X, Z/n) -> H^{r+1}(X, Z).

    By exactness of the coefficient sequence the image is the n-torsion
    of H^{r+1}(X, Z), and the kernel of beta is the image of reduction,
    of size |H^r(X, Z) / n|.

    >>> image, kernel = bockstein_image(FGAbGroup.trivial(), FGAbGroup.cyclic(4), 2)
    >>> print(image, kernel)
    Z/2 1
    """
    n = _integer(n, "coefficient modulus", 2)
    image = n_torsion(h_r1, n)
    _, reduction_image = scale_subgroup(h_r, n)
    kernel_size = reduction_image.torsion_order()
    return image, kernel_size


class ShadowPackage(Record):
    """The subgroup nE with restricted form, the quotient E/nE, and whether
    nE is isotropic.  With E itself these make up the short exact sequence
    0 -> nE -> E -> E/nE -> 0, whose order law ``shadow`` checks."""

    sub: DiscriminantPackage
    quotient: FGAbGroup
    isotropic: bool


def shadow(package, n):
    """Shadow subpackage nE of a discriminant package, with isotropy flag.

    Generators of nE are the n s_i with n s_i != 0, so the inclusion
    nE -> E is the integer matrix n S, where S has one column e_i for each.
    The restricted form is the pullback n^2 S^T q S, reduced mod 1 on
    numerators, and nE is isotropic when every restricted numerator is 0.

    >>> from fractions import Fraction
    >>> from .lattice import abstract_package
    >>> coble = abstract_package(FGAbGroup.cyclic(4), [[Fraction(3, 4)]])
    >>> s = shadow(coble, 2)
    >>> s.isotropic, str(s.quotient)
    (True, 'Z/2')
    """
    n = _integer(n, "shadow index", 2)
    sub_group, quotient = scale_subgroup(package.group, n)
    if sub_group.is_trivial():
        sub_pkg = trivial_package()
        isotropic = True
    else:
        factors = package.group.invariant_factors
        inclusion = IntMatrix([[n if r == i else 0 for i, d in enumerate(factors)
                                if d // gcd(n, d) > 1] for r in range(len(factors))])
        # The rational factor stays on the left: no IntMatrix.__matmul__ call.
        form = _mod1((package.form @ inclusion).transpose() @ inclusion)
        generators = None
        if package.generators is not None:
            generators = package.generators @ inclusion
        sub_pkg = DiscriminantPackage(sub_group, form, generators)
        isotropic = not any(map(any, form._rows))
    if sub_group.torsion_order() * quotient.torsion_order() != package.group.torsion_order():
        raise InvariantError("shadow order law violated")
    return ShadowPackage(sub_pkg, quotient, isotropic)


def bo_direction_span(torsion_factor, free_factor):
    """Span of Bockstein images of mod-2 product classes: the middle
    Kunneth torsion direction, i.e. torsion_factor (x) free_factor.

    >>> print(bo_direction_span(FGAbGroup.cyclic(2), FGAbGroup.free(4)))
    (Z/2)^4
    """
    if not torsion_factor.is_finite():
        raise ValidationError("first factor must be finite torsion")
    if not free_factor.is_free():
        raise ValidationError("second factor must be free")
    return tensor(torsion_factor, free_factor)
