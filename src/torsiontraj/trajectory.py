"""Assembly of trajectory rows for the built-in singularity models.

A row records where a local torsion package is born (group and form),
the stations that recompute it (lattice, link, pair sequence, monodromy),
the degree in which it supports, how it transports, its Brauer/residue
status, and its rational death.  The built-in models are the ADE
families, the Brieskorn (2,3,11) singularity, cyclic quotients 1/n(1,q),
and the threefold ordinary double point.

Each station has its own method.  The lattice station reads the group of
the discriminant package, coker(gram).  The link station takes H^2 of the
model's own link.  The pair-sequence station takes H^2 of the lens or
Seifert space that plumbing calculus reads off the resolution graph's
weights (``links.plumbing_link``).  Each kind declares its monodromy
station: coker(T - I) for the Coxeter element T of A_k, D_4 or E_8,
built from its own Cartan matrix, so an A_k row runs two Smith forms (of
the gram and of T - I); the link group itself on the Brieskorn row, by
the Wang sequence (Milnor 1968, section 8), so no independent
computation; the free cokernel of T = id on the ODP; none on a cyclic
quotient.  ``trajectory_row`` assembles a row, and
``realization_crosscheck`` reads its stations off it; ``local_package``
builds the row's package by the same step and runs no station.

Each model kind's facts sit in one row of the private table ``_KINDS``:
its parameter rule (named integer parameters with least values, and a
joint check), display name, resolution lattice, link, preferred
generators, monodromy station and global-image note.  The model, the row
assembly and the command line read that table, so a new model is one
table entry plus a factory classmethod.
"""

from ._record import Record
from .abgroup import FGAbGroup, FinAbHom, hom_analyze, rationalize, tensor
from .bockstein import shadow
from .errors import InvariantError, ValidationError
from .intmat import IntMatrix, _integer
from .lattice import (
    DiscriminantPackage,
    cartan_matrix,
    chain_matrix,
    discriminant_package,
    hj_expansion,
    star_matrix,
)
from .links import LensSpace, Seifert, SphereProduct, link_profile, plumbing_link
from .monodromy import coxeter_element, odp_package, variation_cokernel
from .products import builtin_profile

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


class _Kind(Record):
    """The facts of one built-in model kind.

    ``parameters`` is the rule: ``(name, least)`` pairs in order.  A
    model's parameters are one integer per pair, at least its least value,
    that then pass ``check`` (None, or a joint check raising
    ``ValidationError``).  ``name``, ``lattice`` and ``link`` are functions
    of the parameters; a refusal names the parameter after ``name`` called
    with the symbols, as in "A_k surface parameter k must be >= 1, got 0".
    ``generators`` lists the leading entries of each preferred generator
    column; the rest of a column is zero up to the lattice rank.
    ``monodromy`` is the kind's monodromy station: a function of the link
    station's group and the parameters that returns ``(group, note)``,
    either one None when the station has none.
    """

    parameters: tuple
    check: object
    name: object
    lattice: object  # None: no resolution lattice (the ODP)
    link: object
    generators: tuple  # None: the Smith form's generators
    monodromy: object
    global_image: str


def _coxeter(family):
    # Both names are looked up at call time, so a tracer's rebinding sees each call.
    return lambda link, *parameters: (
        variation_cokernel(coxeter_element(family, *parameters)).torsion(), None)


# Preferred generators are the customary geometric basis: a dual basis
# vector for the cyclic families (first node of a chain, the heaviest arm
# of the Brieskorn star) and, for D_4, the half-difference classes
# (C1 - C2)/2 and (C1 - C3)/2.  The reported pairing values then take
# their standard form, e.g. q = -k/(k+1) mod 1 on A_k and -q/n on 1/n(1,q).
# The D_4 and E_8 links are the Seifert data (b; each arm's n/q) of their stars.
_KINDS = {
    "ak": _Kind(
        (("k", 1),), None, lambda k: f"A_{k} surface", lambda k: cartan_matrix("A", k),
        lambda k: LensSpace(k + 1, k), ((1,),), _coxeter("A"),
        "depends on global exceptional-chain relations"),
    "d4": _Kind(
        (), None, lambda: "D_4 surface", lambda: cartan_matrix("D4"),
        lambda: Seifert(-2, ((2, 1), (2, 1), (2, 1))), ((0, -1, 1, 0), (0, -1, 0, 1)),
        _coxeter("D4"), "depends on global relations and form data"),
    "e8": _Kind(
        (), None, lambda: "E_8 surface", lambda: cartan_matrix("E8"),
        lambda: Seifert(-2, ((2, 1), (3, 2), (5, 4))), None, _coxeter("E8"),
        "no birth: lattice unimodular"),
    "brieskorn": _Kind(
        (), None, lambda: "x^2+y^3+z^11 (Brieskorn)", lambda: star_matrix(1, [2, 3, 11]),
        lambda: Seifert(*BRIESKORN_SEIFERT), ((0, 0, 0, 1),),
        lambda link: (link, "wang-sequence"), "depends on global plumbing/support relations"),
    # hj_expansion refuses q >= n and gcd(n, q) != 1, so it is the joint check.
    "quotient": _Kind(
        (("n", 2), ("q", 1)), hj_expansion,
        lambda n, q: "Coble boundary 1/4(1,1)" if (n, q) == (4, 1) else f"cyclic quotient 1/{n}(1,{q})",
        lambda n, q: chain_matrix(hj_expansion(n, q)),
        LensSpace, ((1,),), lambda link, n, q: (None, "not-applicable"),
        "depends on global exceptional-chain relations"),
    "odp": _Kind(
        (), None, lambda: "threefold ODP", None, SphereProduct, None,
        lambda link: (odp_package()[0].torsion(), "free-cokernel"),
        "no finite torsion image; free relations may create defect"),
}


class SingularityModel(Record):
    """One of the built-in local models; use the factory classmethods."""

    kind: str
    parameters: tuple = ()

    def __post_init__(self):
        spec = _KINDS.get(self.kind) if isinstance(self.kind, str) else None
        if spec is None:
            raise ValidationError(f"unknown singularity model {self.kind!r}")
        rule, given = spec.parameters, self.parameters
        symbols = [name for name, _ in rule]
        if not isinstance(given, tuple) or len(given) != len(rule):
            count = f"{len(rule)} integer parameter{'s' if len(rule) > 1 else ''}"
            takes = f"{count} ({', '.join(symbols)})" if rule else "no parameters"
            raise ValidationError(f"the {self.kind} model takes {takes}, got {given!r}")
        given = tuple(_integer(value, f"{spec.name(*symbols)} parameter {name}", least)
                      for value, (name, least) in zip(given, rule))
        object.__setattr__(self, "parameters", given)
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
        exponents = tuple(_integer(e, "an exponent") for e in exponents)
        if exponents not in ((), BRIESKORN_EXPONENTS):
            raise ValidationError("the brieskorn model takes no parameters or the exponents"
                                  f" {' '.join(map(str, BRIESKORN_EXPONENTS))}, got {exponents!r}")
        return cls("brieskorn")

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


def _lattice_and_package(model):
    """A model's resolution lattice and its discriminant package on the
    kind's preferred generators, zero-padded to the lattice rank; (None,
    None) for the ODP.  The one place a package is built, so a row and
    ``local_package`` each build the lattice once."""
    lat = model.resolution_lattice()
    if lat is None:
        return None, None
    generators = _KINDS[model.kind].generators
    if generators is not None:
        generators = IntMatrix.from_columns(
            [col + (0,) * (lat.rank - len(col)) for col in generators])
    return lat, discriminant_package(lat, generators)


def local_package(model):
    """The local discriminant package of a model, None for the ODP: the
    package of its trajectory row, built by the same step and with no
    station of the row.

    >>> print(local_package(SingularityModel.cyclic_quotient(4)).form)
    [[3/4]]
    """
    return _lattice_and_package(model)[1]


class Crosscheck(Record):
    """Station groups, per-station notes, and the agreement flag."""

    stations: dict
    notes: dict
    agree: bool


def realization_crosscheck(model):
    """The stations of a model's local group, read off its trajectory row
    (see ``trajectory_row`` for each station's method)."""
    return trajectory_row(model).realizations


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

    The model's lattice is built once.  The package is its discriminant
    package on the kind's preferred generators, zero-padded to the
    lattice rank; the lattice and pair-sequence stations read that
    package and lattice (see the module docstring for each station).
    The ODP has no lattice, so its package is None and its lattice and
    pair-sequence stations are notes.  The kind's monodromy station is
    called once, with the link station's group and the parameters.

    >>> row = trajectory_row(SingularityModel.ak(1))
    >>> print(row.group())
    Z/2
    """
    spec = _KINDS[model.kind]
    lat, package = _lattice_and_package(model)
    link = link_profile(model.link_model()).torsion(2)
    if lat is None:
        stations = {STATION_LINK: link}
        notes = {STATION_LATTICE: "no finite discriminant", STATION_PAIR: "free pair data"}
    else:
        stations = {STATION_LATTICE: package.group, STATION_LINK: link,
                    STATION_PAIR: link_profile(plumbing_link(lat)).torsion(2)}
        notes = {}
    monodromy, monodromy_note = spec.monodromy(link, *model.parameters)
    if monodromy is not None:
        stations[STATION_MONODROMY] = monodromy
    if monodromy_note is not None:
        notes[STATION_MONODROMY] = monodromy_note
    groups = list(stations.values())
    checks = Crosscheck(stations, notes, all(g == groups[0] for g in groups))

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
        global_image = spec.global_image

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

    The curve's groups (Z, Z^{2g}, Z), in homology and cohomology alike,
    are read from its built-in profile (``products.builtin_profile``).
    They are free, so every Ext term of the universal coefficient theorem
    vanishes and H^r(C; E) = H_r(C) (x) E: H^0 = E, H^1 = E^{2g},
    H^2 = E.  Trivial degrees are dropped.

    >>> print(stratum_cohomology(FGAbGroup.cyclic(2), 2)[1])
    (Z/2)^4
    """
    if not coefficients.is_finite():
        raise ValidationError("coefficients must be a finite group")
    curve = builtin_profile("curve", genus=genus)
    groups = {deg: tensor(h, coefficients) for deg, h in curve.cohomology.items()}
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
