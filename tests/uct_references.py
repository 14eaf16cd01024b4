"""Universal coefficient references for the tests, with Hom and Ext
written out degree by degree.

``reference_uct`` checks the library's one degree loop over Z.  The
library has no loop over Z/n: finite coefficients go through ``tensor``
and ``tor``, and ``reference_mod_n`` is the oracle for those results.
"""

from math import gcd

from torsiontraj.abgroup import FGAbGroup


def reference_uct(homology):
    """H^k = Hom(H_k, Z) + Ext(H_{k-1}, Z), with Hom(Z^r + T, Z) = Z^r and
    Ext(Z/d, Z) = Z/d; trivial degrees dropped."""
    degrees = set(homology)
    out = {}
    for k in degrees | {d + 1 for d in degrees}:
        h_k = homology.get(k, FGAbGroup.trivial())
        h_prev = homology.get(k - 1, FGAbGroup.trivial())
        ext = FGAbGroup.from_orders(h_prev.invariant_factors)
        group = FGAbGroup.free(h_k.free_rank).direct_sum(ext)
        if not group.is_trivial():
            out[k] = group
    return out


def reference_mod_n(homology, n):
    """H^r(X; Z/n) = Hom(H_r, Z/n) + Ext(H_{r-1}, Z/n), with
    Hom(Z/d, Z/n) = Ext(Z/d, Z/n) = Z/gcd(d, n) and Hom(Z, Z/n) = Z/n;
    trivial degrees dropped."""
    degrees = set(homology)
    out = {}
    for r in degrees | {d + 1 for d in degrees}:
        h_r = homology.get(r, FGAbGroup.trivial())
        h_prev = homology.get(r - 1, FGAbGroup.trivial())
        hom = FGAbGroup.from_orders(
            [gcd(d, n) for d in h_r.invariant_factors] + [n] * h_r.free_rank
        )
        ext = FGAbGroup.from_orders([gcd(d, n) for d in h_prev.invariant_factors])
        group = hom.direct_sum(ext)
        if not group.is_trivial():
            out[r] = group
    return out
