"""One integer rule for every library parameter and matrix entry.

Each site is one integer parameter of the library, or an entry of an
``IntMatrix`` or ``RatMatrix``: the name its refusals print, its least
value (None: any integer) and a call that passes it a value.  Every site refuses a bool, a float and the value just below its
least with a ValidationError; the message names the parameter and the
value, and for a low value the bound too.  A site that sizes a list also
refuses the values above its greatest, in the same words.
"""

import sys
from fractions import Fraction

import pytest

from torsiontraj.abgroup import FGAbGroup, FinAbHom, n_torsion, scale_subgroup
from torsiontraj.bockstein import bockstein_image, shadow
from torsiontraj.cli import REFUSAL_EXIT, run
from torsiontraj.errors import ValidationError
from torsiontraj.intmat import _LENGTH_MAX, IntMatrix, RatMatrix
from torsiontraj.lattice import abstract_package, cartan_matrix, chain_matrix, hj_expansion, star_matrix
from torsiontraj.links import (
    LensSpace,
    Seifert,
    SpaceProfile,
    lens_profile,
    stalk_profile,
)
from torsiontraj.monodromy import milnor_number
from torsiontraj.products import builtin_profile, h0q_product, product_cohomology
from torsiontraj.trajectory import SingularityModel, stratum_cohomology, trajectory_row

Z = FGAbGroup.free(1)
Z2 = FGAbGroup.cyclic(2)
Z4 = FGAbGroup.cyclic(4)
COBLE = abstract_package(Z4, [[Fraction(3, 4)]])
L21 = lens_profile(2, 1)
ENRIQUES = builtin_profile("enriques")
CURVE = builtin_profile("curve", genus=1)

SITES = {
    "free-rank": ("free rank", 0, lambda v: FGAbGroup(v)),
    "invariant-factor": ("invariant factor", 2, lambda v: FGAbGroup(0, (v,))),
    "cyclic-order": ("cyclic order", 1, lambda v: FGAbGroup.from_orders([2, v])),
    "n-torsion": ("n", 1, lambda v: n_torsion(Z4, v)),
    "scale-subgroup": ("n", 1, lambda v: scale_subgroup(Z4, v)),
    "bockstein-modulus": ("coefficient modulus", 2, lambda v: bockstein_image(FGAbGroup.trivial(), Z4, v)),
    "shadow-index": ("shadow index", 2, lambda v: shadow(COBLE, v)),
    "cartan-a": ("A_k parameter k", 1, lambda v: cartan_matrix("A", v)),
    "cartan-d": ("D_n parameter n", 4, lambda v: cartan_matrix("D", v)),
    "chain-weight": ("chain weight", 2, lambda v: chain_matrix([2, v])),
    "star-central": ("star central weight", 1, lambda v: star_matrix(v, [2])),
    "star-arm": ("star arm weight", 1, lambda v: star_matrix(1, [2, v])),
    "profile-degree": ("degree", 0, lambda v: SpaceProfile("x", {v: Z2})),
    "hodge-degree": ("degree", 0, lambda v: SpaceProfile("x", {}, {v: 1})),
    "hodge-number": ("Hodge number", 0, lambda v: SpaceProfile("x", {}, {0: v})),
    "lens-p": ("lens space p", 2, lambda v: LensSpace(v, 1)),
    "seifert-alpha": ("a Seifert alpha", 2, lambda v: Seifert(-1, ((2, 1), (v, 1)))),
    "stalk-dimension": ("complex dimension", 0, lambda v: stalk_profile(L21, v)),
    "bp-exponent": ("a Brieskorn-Pham exponent", 2, lambda v: milnor_number("BP", (2, v, 11))),
    "curve-genus": ("genus", 0, lambda v: builtin_profile("curve", genus=v)),
    "kunneth-degree": ("Kunneth degree", 0, lambda v: product_cohomology(ENRIQUES, CURVE, v)),
    "hodge-q": ("Hodge degree q", None, lambda v: h0q_product(ENRIQUES, CURVE, v)),
    "ak-model": ("A_k surface parameter k", 1, lambda v: SingularityModel.ak(v)),
    "quotient-n": ("cyclic quotient 1/n(1,q) parameter n", 2,
                   lambda v: SingularityModel.cyclic_quotient(v, 1)),
    "quotient-q": ("cyclic quotient 1/n(1,q) parameter q", 1,
                   lambda v: SingularityModel.cyclic_quotient(4, v)),
    "stratum-genus": ("genus", 0, lambda v: stratum_cohomology(Z2, v)),
    "int-matrix-entry": ("IntMatrix entry", None, lambda v: IntMatrix([[v]])),
    "rat-matrix-entry": ("RatMatrix entry", None, lambda v: RatMatrix([[v]])),
}

# Values that once got through, or ended in a bare TypeError or a message
# about another parameter.
DEFECTS = [
    ("scale-subgroup", 2.5),
    ("shadow-index", 2.0),
    ("bockstein-modulus", 2.0),
    ("chain-weight", 2.5),
    ("star-central", True),
    ("hodge-number", -1),
    ("stalk-dimension", 1.5),
    ("stalk-dimension", True),
    ("kunneth-degree", 2.5),
    ("kunneth-degree", True),
    ("hodge-q", 1.5),
]


def _row(site, value):
    """(call, bad value, message fragment) of one refusal."""
    what, least, call = SITES[site]
    if isinstance(value, int) and not isinstance(value, bool):
        fragment = f"{what} must be >= {least}, got {value}"
    else:
        fragment = f"{what} must be an integer, got {value!r}"
    return call, value, fragment


ROWS = [pytest.param(*_row(site, value), id=f"{site}-{value!r}")
        for site, (_, least, _) in SITES.items()
        for value in (True, 2.5) + (() if least is None else (least - 1,))]
ROWS += [pytest.param(*_row(site, value), id=f"defect-{site}-{value!r}") for site, value in DEFECTS]


@pytest.mark.parametrize("call, value, fragment", ROWS)
def test_parameter_refusal_names_parameter_bound_and_value(call, value, fragment):
    with pytest.raises(ValidationError) as caught:
        call(value)
    assert fragment in str(caught.value)


@pytest.mark.parametrize("site", sorted(SITES))
def test_least_value_is_accepted(site):
    _, least, call = SITES[site]
    call(0 if least is None else least)


# Parameters that size a list, with their greatest values: above it the
# list raised OverflowError, a traceback with exit 1 from the CLI.  Only
# refused values are tried, so no test builds a huge list.
GREATEST = {
    "cartan-a": sys.maxsize,
    "cartan-d": sys.maxsize,
    "ak-model": sys.maxsize,
    "curve-genus": sys.maxsize // 2,
}


@pytest.mark.parametrize("value_above", [1, 10**23], ids=["next", "huge"])
@pytest.mark.parametrize("site", sorted(GREATEST))
def test_parameter_above_greatest_names_parameter_bound_and_value(site, value_above):
    what, _, call = SITES[site]
    greatest = GREATEST[site]
    value = greatest + value_above
    with pytest.raises(ValidationError) as caught:
        call(value)
    assert str(caught.value) == f"{what} must be <= {greatest}, got {value}"


class Index:
    """An integer that is no int: it has only ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


# A model keeps the ints it converted: these once passed the check, then
# failed with a bare TypeError at k + 1 or n > q.
@pytest.mark.parametrize("build", [
    lambda v: trajectory_row(SingularityModel.ak(v(3))),
    lambda v: trajectory_row(SingularityModel.cyclic_quotient(v(4), v(1))),
], ids=["ak-row", "coble-row"])
def test_index_only_value_acts_as_its_int(build):
    # The int rows are A_3 and the Coble row with its shadow note.
    assert build(Index) == build(int)


# The groups are checked before the matrix's shape, so each refusal names
# the group even when a 1x1 matrix could not fit it.
@pytest.mark.parametrize("source, target, fragment", [
    (FGAbGroup.trivial(), Z2, "source of a homomorphism is the trivial group"),
    (Z2, FGAbGroup.trivial(), "target of a homomorphism is the trivial group"),
    (Z, Z2, "torsion groups only"),
], ids=["trivial-source", "trivial-target", "free-source"])
def test_homomorphism_refuses_groups_by_name(source, target, fragment):
    with pytest.raises(ValidationError, match=fragment):
        FinAbHom(source, target, IntMatrix([[1]]))


# The joint checks of 1/n(1,q) name both values, as the single-parameter
# refusals name theirs; the CLI prints the same text as a usage error.
JOINT_REFUSALS = pytest.mark.parametrize("n, q, fragment", [
    (4, 5, "need n > q >= 1, got n = 4, q = 5"),
    (4, 2, "need gcd(n, q) = 1, got n = 4, q = 2"),
], ids=["order", "gcd"])


@JOINT_REFUSALS
def test_hj_expansion_joint_refusal_names_n_and_q(n, q, fragment):
    with pytest.raises(ValidationError) as caught:
        hj_expansion(n, q)
    assert str(caught.value) == fragment


@JOINT_REFUSALS
def test_cli_quotient_joint_refusal_names_n_and_q(capsys, n, q, fragment):
    code = run(["singularity", "quotient", str(n), str(q)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"usage error: {fragment}\n"


@pytest.mark.parametrize("argv", [
    ("singularity", "ak", "--k", "0"),
    ("singularity", "quotient", "1", "1"),
    ("link", "lens", "1", "1"),
    ("link", "seifert", "--b", "-1", "--arms", "1,1;3,1"),
    ("product", "enriques", "--genus", "-1"),
    ("product", "enriques", "--genus", "1", "--degree", "-1"),
], ids=" ".join)
def test_cli_parameter_below_least_is_a_usage_error(capsys, argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("usage error: ") and "must be >= " in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, fragment", [
    (("singularity", "ak", "--k", "99999999999999999999999"),
     f"A_k surface parameter k must be <= {sys.maxsize}, got 99999999999999999999999"),
    (("product", "enriques", "--genus", "99999999999999999999999"),
     f"genus must be <= {sys.maxsize // 2}, got 99999999999999999999999"),
], ids=["ak", "genus"])
def test_cli_parameter_above_greatest_is_a_usage_error(capsys, argv, fragment):
    # Each ended in an OverflowError traceback and exit 1.
    code = run(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"usage error: {fragment}\n")


# The greatest value itself passes the check.  Its first list, [2] * n,
# raises MemoryError at once: list repetition refuses a size it cannot
# hold before it allocates.  D_n built its edge list first, and grew
# memory until the process was killed.
def test_cartan_d_at_greatest_raises_memory_error_before_any_list():
    with pytest.raises(MemoryError):
        cartan_matrix("D", _LENGTH_MAX)


def test_cli_memory_exhaustion_is_a_refusal(capsys):
    # It ended in a MemoryError traceback, exit 1, at A_k's [2] * k.
    code = run(["singularity", "ak", "--k", str(_LENGTH_MAX)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (REFUSAL_EXIT, "")
    assert captured.err.startswith("refused: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
