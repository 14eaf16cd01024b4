"""Integral Kunneth cohomology of products and the Brauer-torsion gate.

Product cohomology is assembled degreewise from tensor terms in matching
degrees plus Tor corrections one degree up.  The coherent h^{0,q} column
multiplies the same way, and feeds the gate for the Brauer comparison:
when h^{0,2} vanishes, the Brauer group is the torsion of H^3.
"""

from ._record import Record
from .abgroup import FGAbGroup, tensor, tor
from .errors import ValidationError
from .intmat import _integer
from .links import SpaceProfile, SphereProduct, lens_profile, link_profile


# The parameters each built-in profile takes.
_PROFILE_PARAMETERS = {"enriques": (), "curve": ("genus",), "lens": ("p", "q"), "odp_link": ()}


def builtin_profile(name, genus=None, p=None, q=None):
    """Built-in factor profiles for products, by name.

    * "enriques": H^0 = Z, H^2 = Z^10 + Z/2, H^3 = Z/2, H^4 = Z,
      with h^{0,*} = (1, 0, 0).
    * "curve": genus g, H^1 = Z^{2g}, h^{0,*} = (1, g).
    * "lens": L(p, q), q = 1 when omitted.
    * "odp_link": S^2 x S^3.

    Any other name, and a parameter the named profile does not take,
    raise ValidationError.

    >>> print(builtin_profile("enriques").group(3))
    Z/2
    """
    takes = _PROFILE_PARAMETERS.get(name) if isinstance(name, str) else None
    if takes is None:
        raise ValidationError(f"unknown builtin profile {name!r}")
    for parameter, value in (("genus", genus), ("p", p), ("q", q)):
        if value is not None and parameter not in takes:
            raise ValidationError(f"the {name} profile takes no parameter {parameter},"
                                  f" got {parameter}={value!r}")
    if name == "enriques":
        groups = {
            0: FGAbGroup.free(1),
            2: FGAbGroup(10, (2,)),
            3: FGAbGroup.cyclic(2),
            4: FGAbGroup.free(1),
        }
        return SpaceProfile("Enriques surface", groups, {0: 1, 1: 0, 2: 0})
    if name == "curve":
        genus = _integer(genus, "genus", 0)
        groups = {0: FGAbGroup.free(1), 1: FGAbGroup.free(2 * genus), 2: FGAbGroup.free(1)}
        return SpaceProfile(f"genus-{genus} curve", groups, {0: 1, 1: genus})
    if name == "lens":
        if p is None:
            raise ValidationError("lens profile needs p (and optionally q)")
        return lens_profile(p, 1 if q is None else q)
    return link_profile(SphereProduct())


class ProductReport(Record):
    """Kunneth data of H^k(X x Y): tensor summands, Tor corrections, and
    their direct sum with its torsion part."""

    degree: int
    summands: tuple  # (a, b, H^a(X) (x) H^b(Y))
    tor_terms: tuple  # (a, b, Tor(H^a(X), H^b(Y))), a + b = degree + 1
    total: FGAbGroup
    total_torsion: FGAbGroup


def _degree_window(x, y, total):
    """The degrees a with a + b = total, a <= top(X) and b <= top(Y): above
    its top degree a profile holds only zero groups, so no other pair can
    give a nonzero term, and the loops cost nothing at a huge degree."""
    return range(max(0, total - y.max_degree()), min(total, x.max_degree()) + 1)


def product_cohomology(x, y, k):
    """H^k(X x Y) by the Kunneth formula with Tor corrections.

    >>> report = product_cohomology(builtin_profile("enriques"), builtin_profile("curve", genus=2), 4)
    >>> print(report.total_torsion)
    (Z/2)^5
    """
    k = _integer(k, "Kunneth degree", 0)
    summands = []
    for a in _degree_window(x, y, k):
        term = tensor(x.group(a), y.group(k - a))
        if not term.is_trivial():
            summands.append((a, k - a, term))
    tor_terms = []
    for a in _degree_window(x, y, k + 1):
        term = tor(x.group(a), y.group(k + 1 - a))
        if not term.is_trivial():
            tor_terms.append((a, k + 1 - a, term))
    total = FGAbGroup.trivial().direct_sum(
        *(t for _, _, t in summands), *(t for _, _, t in tor_terms)
    )
    return ProductReport(k, tuple(summands), tuple(tor_terms), total, total.torsion())


def h0q_product(x, y, q):
    """Coherent Kunneth column: sum of h^{0,a}(X) h^{0,b}(Y) over a + b = q.

    >>> h0q_product(builtin_profile("enriques"), builtin_profile("curve", genus=3), 2)
    0
    """
    q = _integer(q, "Hodge degree q")
    return sum(x.h0q(a) * y.h0q(q - a) for a in range(0, q + 1))


def product_profile(x, y):
    """Full profile of X x Y: every Kunneth degree plus the h^{0,q} column."""
    top = x.max_degree() + y.max_degree()
    groups = {}
    for k in range(0, top + 1):
        total = product_cohomology(x, y, k).total
        if not total.is_trivial():
            groups[k] = total
    hodge = None
    if x.hodge_h0q is not None and y.hodge_h0q is not None:
        hodge_top = max(x.hodge_h0q, default=0) + max(y.hodge_h0q, default=0)
        hodge = {qq: h0q_product(x, y, qq) for qq in range(0, hodge_top + 1)}
    return SpaceProfile(f"{x.name} x {y.name}", groups, hodge)


class GateRefusal(Record):
    """Refusal value of a gated comparison, naming the failed hypothesis."""

    failed_hypothesis: str

    def __str__(self):
        return f"gate refused: {self.failed_hypothesis}"


def brauer_comparison(profile):
    """Brauer group of a smooth projective profile, through the
    exponential-sequence gate.

    When h^{0,2} = 0 the comparison applies and Br = H^3(Y, Z)_tors is
    returned; otherwise the refusal names the failed hypothesis.  The
    refusal is a value, not an error.

    >>> y = product_profile(builtin_profile("enriques"), builtin_profile("curve", genus=1))
    >>> print(brauer_comparison(y))
    (Z/2)^3
    """
    h02 = profile.h0q(2)
    if h02 != 0:
        return GateRefusal(f"h^(0,2) = {h02} is nonzero; the comparison needs h^(0,2) = 0")
    return profile.torsion(3)
