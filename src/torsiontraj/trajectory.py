"""Assembly of trajectory rows for the built-in singularity models.

A row records where a local torsion package is born (group and form),
the stations that recompute it (lattice, link, pair sequence, monodromy),
the degree in which it supports, how it transports, its Brauer/residue
status, and its rational death.  The built-in models are the ADE
families, the Brieskorn (2,3,11) singularity, cyclic quotients 1/n(1,q),
and the threefold ordinary double point.

Each model kind's facts sit in one row of the private table ``_KINDS``:
its parameter rule (named integer parameters with least values, and a
joint check), display name, resolution lattice, link, preferred
generators, monodromy and global-image note.  The model, the row
assembly and the command line read that table, so a new model is one
table entry plus a factory classmethod.
"""

from ._record import Record
from .abgroup import FGAbGroup, FinAbHom, _integer, cokernel_group, hom_analyze, rationalize, tensor
from .bockstein import shadow
from .errors import InvariantError, ParameterError, ValidationError
from .intmat import IntMatrix
from .lattice import (
    DiscriminantPackage,
    cartan_matrix,
    chain_matrix,
    discriminant_package,
    hj_expansion,
    star_matrix,
)
from .links import (
    LensSpace,
    PlumbingBoundary,
    Seifert,
    SphereProduct,
    link_profile,
)
from .monodromy import coxeter_element, odp_package, variation_cokernel

BRIESKORN_EXPONENTS = (2, 3, 11)
BRIESKORN_SEIFERT = (-1, ((2, 1), (3, 1), (11, 1)))

STATION_LATTICE = "lattice"
STATION_LINK = "link"
STATION_PAIR = "pair-sequence"
STATION_MONODROMY = "monodromy"

NOTE_EXCEPTIONAL = "exceptional-relations"
NOTE_NO_TORSION = "no-finite-torsion"
NOTE_SHADOW = "shadow-selected"

BRAUER_LOCAL_UNDEFINED = "local-undefined"
BRAUER_GLOBAL_BENCHMARK = "global-benchmark"
BRAUER_GATE_PASSED = "gate-passed"

# Monodromy station notes of the kinds whose monodromy is no Coxeter element.
_MONODROMY_NOTES = ("wang-sequence", "free-cokernel", "not-applicable")


class _Kind(Record):
    """The facts of one built-in model kind.

    ``parameters`` is the rule: ``(name, least)`` pairs in order.  A
    model's parameters are one integer per pair, at least its least value,
    that then pass ``check`` (None, or a joint check raising
    ``ParameterError``).  ``name``, ``lattice`` and ``link`` are functions
    of the parameters; a refusal calls ``name`` with their symbols, as in
    "A_k surface requires k >= 1".  ``generators`` lists the leading
    entries of each preferred generator column; the rest of a column is
    zero up to the lattice rank.  ``monodromy`` is a Coxeter family for
    ``coxeter_element`` or one of the station notes in ``_MONODROMY_NOTES``.
    """

    parameters: tuple
    check: object
    name: object
    lattice: object  # None: no resolution lattice (the ODP)
    link: object
    generators: tuple  # None: the Smith form's generators
    monodromy: str
    global_image: str


# Preferred generators are the customary geometric basis: a dual basis
# vector for the cyclic families (first node of a chain, the heaviest arm
# of the Brieskorn star) and, for D_4, the half-difference classes
# (C1 - C2)/2 and (C1 - C3)/2.  The reported pairing values then take
# their standard form, e.g. q = -k/(k+1) mod 1 on A_k and -q/n on 1/n(1,q).
# The D_4 and E_8 links are the Seifert data (b; each arm's n/q) of their stars.
_KINDS = {
    "ak": _Kind(
        (("k", 1),), None, lambda k: f"A_{k} surface", lambda k: cartan_matrix("A", k),
        lambda k: LensSpace(k + 1, k), ((1,),), "A",
        "depends on global exceptional-chain relations"),
    "d4": _Kind(
        (), None, lambda: "D_4 surface", lambda: cartan_matrix("D", 4),
        lambda: Seifert(-2, ((2, 1), (2, 1), (2, 1))), ((0, -1, 1, 0), (0, -1, 0, 1)), "D4",
        "depends on global relations and form data"),
    "e8": _Kind(
        (), None, lambda: "E_8 surface", lambda: cartan_matrix("E8"),
        lambda: Seifert(-2, ((2, 1), (3, 2), (5, 4))), None, "E8", "no birth: lattice unimodular"),
    "brieskorn": _Kind(
        (), None, lambda: "x^2+y^3+z^11 (Brieskorn)", lambda: star_matrix(1, [2, 3, 11]),
        lambda: Seifert(*BRIESKORN_SEIFERT), ((0, 0, 0, 1),), "wang-sequence",
        "depends on global plumbing/support relations"),
    # hj_expansion refuses q >= n and gcd(n, q) != 1, so it is the joint check.
    "quotient": _Kind(
        (("n", 2), ("q", 1)), hj_expansion,
        lambda n, q: "Coble boundary 1/4(1,1)" if (n, q) == (4, 1) else f"cyclic quotient 1/{n}(1,{q})",
        lambda n, q: chain_matrix(hj_expansion(n, q)),
        LensSpace, ((1,),), "not-applicable",
        "depends on global exceptional-chain relations"),
    "odp": _Kind(
        (), None, lambda: "threefold ODP", None, SphereProduct, None,
        "free-cokernel", "no finite torsion image; free relations may create defect"),
}


class SingularityModel(Record):
    """One of the built-in local models; use the factory classmethods."""

    kind: str
    parameters: tuple = ()

    def __post_init__(self):
        spec = _KINDS.get(self.kind) if isinstance(self.kind, str) else None
        if spec is None:
            raise ParameterError(f"unknown singularity model {self.kind!r}")
        rule, given = spec.parameters, self.parameters
        symbols = [name for name, _ in rule]
        if not isinstance(given, tuple) or len(given) != len(rule):
            raise ParameterError(f"the {self.kind} model takes {len(rule)} integer parameters"
                                 f" ({', '.join(symbols)}), got {given!r}")
        for value, (name, least) in zip(given, rule):
            if _integer(value, name, ParameterError) < least:
                raise ParameterError(f"{spec.name(*symbols)} requires {name} >= {least}")
        if spec.check is not None:
            spec.check(*given)

    @classmethod
    def ak(cls, k):
        return cls("ak", (k,))

    @classmethod
    def d4(cls):
        return cls("d4")

    @classmethod
    def e8(cls):
        return cls("e8")

    @classmethod
    def brieskorn(cls, *exponents):
        exponents = tuple(_integer(e, "an exponent", ParameterError) for e in exponents)
        return cls("brieskorn", () if exponents == BRIESKORN_EXPONENTS else exponents)

    @classmethod
    def cyclic_quotient(cls, n, q=1):
        return cls("quotient", (n, q))

    @classmethod
    def odp(cls):
        return cls("odp")

    def display_name(self):
        return _KINDS[self.kind].name(*self.parameters)

    def resolution_lattice(self):
        """Exceptional intersection lattice, or None for the ODP."""
        lattice = _KINDS[self.kind].lattice
        return None if lattice is None else lattice(*self.parameters)

    def link_model(self):
        return _KINDS[self.kind].link(*self.parameters)


def local_package(model):
    """The local discriminant package of a model; None for the ODP.

    >>> print(local_package(SingularityModel.cyclic_quotient(4)).form)
    [[3/4]]
    """
    lat = model.resolution_lattice()
    if lat is None:
        return None
    generators = _KINDS[model.kind].generators
    if generators is not None:
        generators = IntMatrix.from_columns(
            [col + (0,) * (lat.rank - len(col)) for col in generators])
    return discriminant_package(lat, generators)


class Crosscheck(Record):
    """Station groups, per-station notes, and the agreement flag."""

    stations: dict
    notes: dict
    agree: bool


def realization_crosscheck(model):
    """Recompute the local group through every applicable station.

    Stations: "lattice" (cokernel of the gram matrix), "link" (H^2
    torsion of the model's own link), "pair-sequence" (independent
    recomputation through the plumbing-boundary pipeline), "monodromy"
    (torsion cokernel of the variation map; recorded through the
    link equality for the Brieskorn case, not applicable for cyclic
    quotients).  The ODP has no lattice, so its lattice and pair-sequence
    stations are notes, and its monodromy is the free cokernel of T = id.
    """
    stations = {}
    notes = {}
    lat = model.resolution_lattice()
    if lat is None:
        notes[STATION_LATTICE] = "no finite discriminant"
        notes[STATION_PAIR] = "free pair data"
    else:
        coker = cokernel_group(lat.gram)
        stations[STATION_LATTICE] = coker.torsion()
    stations[STATION_LINK] = link_profile(model.link_model()).torsion(2)
    if lat is not None:
        stations[STATION_PAIR] = link_profile(PlumbingBoundary(lat)).torsion(2)

    monodromy = _KINDS[model.kind].monodromy
    if monodromy not in _MONODROMY_NOTES:
        t = coxeter_element(monodromy, *model.parameters)
        stations[STATION_MONODROMY] = variation_cokernel(t).torsion()
    else:
        notes[STATION_MONODROMY] = monodromy
        if monodromy == "free-cokernel":
            stations[STATION_MONODROMY] = odp_package()[0].torsion()
        elif monodromy == "wang-sequence":
            stations[STATION_MONODROMY] = stations[STATION_LINK]

    groups = list(stations.values())
    agree = all(g == groups[0] for g in groups)
    return Crosscheck(stations, notes, agree)


class TrajectoryRow(Record):
    """One example's assembled trajectory data."""

    example: str
    package: DiscriminantPackage  # None when no finite package exists
    realizations: Crosscheck
    support_degree: int  # 2 for surface germs; None exactly when there is no package
    transport_note: str
    global_image_note: str
    brauer_residue_status: str
    rational_death: int
    shadow_note: str = None

    def group(self):
        return self.package.group if self.package is not None else None


def trajectory_row(model):
    """Assemble the trajectory row of a built-in model.

    >>> row = trajectory_row(SingularityModel.ak(1))
    >>> print(row.group())
    Z/2
    """
    package = local_package(model)
    checks = realization_crosscheck(model)
    group = package.group if package is not None else FGAbGroup.trivial()
    coble = model.kind == "quotient" and model.parameters == (4, 1)
    if group.is_trivial():
        note = NOTE_NO_TORSION
    else:
        note = NOTE_SHADOW if coble else NOTE_EXCEPTIONAL
    shadow_note = None
    if coble:
        sh = shadow(package, 2)
        shadow_note = (
            f"BO 2-torsion selects 2E = {sh.sub.group}"
            f" ({'isotropic' if sh.isotropic else 'non-isotropic'})"
        )
        global_image = f"full local image {package.group}; BO sees 2E"
    elif model.kind == "ak" and model.parameters == (1,):
        global_image = "depends on global exceptional-curve relations"
    else:
        global_image = _KINDS[model.kind].global_image

    death = rationalize(group)
    if death != 0:
        raise InvariantError(f"rational death of a torsion package is {death}, expected 0")
    return TrajectoryRow(
        example=model.display_name(),
        package=package,
        realizations=checks,
        support_degree=None if package is None else 2,
        transport_note=note,
        global_image_note=global_image,
        brauer_residue_status=BRAUER_LOCAL_UNDEFINED,
        rational_death=death,
        shadow_note=shadow_note,
    )


class TransportProblem(Record):
    """Local torsion packages plus the forget-support composite acting on
    their direct sum."""

    local_packages: tuple
    relation_map: FinAbHom

    def __post_init__(self):
        packages = tuple(self.local_packages)
        object.__setattr__(self, "local_packages", packages)
        total = FGAbGroup.trivial().direct_sum(*packages)
        if total != self.relation_map.source:
            raise ValidationError(
                f"relation map source {self.relation_map.source} does not match "
                f"the direct sum {total} of the local packages"
            )


def transport_kernel(problem):
    """Classes killed globally: the kernel of the relation map.

    >>> g = FGAbGroup.from_orders([2, 2])
    >>> f = FinAbHom(g, FGAbGroup.cyclic(2), IntMatrix([[1, 1]]))
    >>> print(transport_kernel(TransportProblem((FGAbGroup.cyclic(2),) * 2, f)))
    Z/2
    """
    return hom_analyze(problem.relation_map).kernel


def stratum_cohomology(coefficients, genus):
    """H^r of a genus-g curve with constant finite coefficients E.

    The curve's integral homology (Z, Z^{2g}, Z) is free, so every Ext
    term of the universal coefficient theorem vanishes and
    H^r(C; E) = H_r(C) (x) E: H^0 = E, H^1 = E^{2g}, H^2 = E.  Trivial
    degrees are dropped.

    >>> print(stratum_cohomology(FGAbGroup.cyclic(2), 2)[1])
    (Z/2)^4
    """
    if not coefficients.is_finite():
        raise ParameterError("coefficients must be a finite group")
    if _integer(genus, "genus", ParameterError) < 0:
        raise ParameterError("genus must be nonnegative")
    curve_homology = {
        0: FGAbGroup.free(1),
        1: FGAbGroup.free(2 * genus),
        2: FGAbGroup.free(1),
    }
    groups = {deg: tensor(h, coefficients) for deg, h in curve_homology.items()}
    return {deg: group for deg, group in groups.items() if not group.is_trivial()}


# -- the nine-row table -------------------------------------------------------

class MarkerRow(Record):
    """A table row carried as literal status text (no local computation)."""

    example: str
    e_text: str
    q_text: str
    local_text: str
    support_text: str
    global_image_note: str
    brauer_residue_status: str
    brauer_text: str
    rational_death: int = 0


NODAL_THREEFOLD_ROW = MarkerRow(
    example="nodal threefold",
    e_text="0 (no finite torsion at each node)",
    q_text="none",
    local_text="torsion stations vanish; free vanishing cycles exist",
    support_text="none finite",
    global_image_note="defect records free global relations, not finite torsion",
    brauer_residue_status=BRAUER_LOCAL_UNDEFINED,
    brauer_text="none local",
)

BENOIST_OTTEM_ROW = MarkerRow(
    example="Benoist-Ottem S x C",
    e_text="none on smooth fiber",
    q_text="none local",
    local_text="global Enriques 2-torsion",
    support_text="none local",
    global_image_note="H^4 torsion nonzero; not from a direct local map",
    brauer_residue_status=BRAUER_GLOBAL_BENCHMARK,
    brauer_text="global Brauer/unramified benchmark",
)

# The table in order: each model becomes its computed row, each marker
# row stands as it is.
TABLE_ENTRIES = (
    SingularityModel.ak(1),
    SingularityModel.ak(3),
    SingularityModel.d4(),
    SingularityModel.e8(),
    SingularityModel.brieskorn(),
    SingularityModel.odp(),
    NODAL_THREEFOLD_ROW,
    BENOIST_OTTEM_ROW,
    SingularityModel.cyclic_quotient(4),
)


def trajectory_table():
    """All nine table rows, in the order of ``TABLE_ENTRIES``: the six
    benchmark models, the nodal-threefold and Benoist-Ottem marker rows,
    and the Coble boundary 1/4(1,1)."""
    return [entry if isinstance(entry, MarkerRow) else trajectory_row(entry)
            for entry in TABLE_ENTRIES]
