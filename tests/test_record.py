"""Frozen-record semantics, checked on every record class of the library."""

import copy
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import torsiontraj
from torsiontraj._record import Record
from torsiontraj.abgroup import FGAbGroup, FinAbHom, HomAnalysis, hom_analyze
from torsiontraj.bockstein import ShadowPackage, shadow
from torsiontraj.intmat import IntMatrix
from torsiontraj.lattice import (
    DiscriminantPackage,
    IntersectionLattice,
    abstract_package,
    cartan_matrix,
    discriminant_package,
)
from torsiontraj.links import (
    LensSpace,
    PlumbingBoundary,
    Seifert,
    SpaceProfile,
    SphereProduct,
    link_profile,
)
from torsiontraj.monodromy import VariationResult, coxeter_element, variation_cokernel
from torsiontraj.products import GateRefusal, ProductReport, builtin_profile, product_cohomology
from torsiontraj.trajectory import (
    BRIESKORN_SEIFERT,
    NODAL_THREEFOLD_ROW,
    Crosscheck,
    MarkerRow,
    SingularityModel,
    TrajectoryRow,
    TransportProblem,
    _Kind,
    realization_crosscheck,
    trajectory_row,
)

Z2 = FGAbGroup.cyclic(2)
Z4 = FGAbGroup.cyclic(4)
A2 = cartan_matrix("A", 2)


def no_monodromy(link, *parameters):
    """A monodromy station for the ``_Kind`` sample, picklable by name."""
    return None, "not-applicable"


SAMPLES = {
    FGAbGroup: lambda: FGAbGroup(1, (2,)),
    FinAbHom: lambda: FinAbHom(Z2, Z4, IntMatrix([[2]])),
    HomAnalysis: lambda: hom_analyze(FinAbHom(Z2, Z4, IntMatrix([[2]]))),
    ShadowPackage: lambda: shadow(abstract_package(Z4, [[Fraction(3, 4)]]), 2),
    IntersectionLattice: lambda: A2,
    DiscriminantPackage: lambda: discriminant_package(A2),
    SpaceProfile: lambda: link_profile(LensSpace(4, 5)),
    LensSpace: lambda: LensSpace(5, 2),
    Seifert: lambda: Seifert(*BRIESKORN_SEIFERT),
    SphereProduct: SphereProduct,
    PlumbingBoundary: lambda: PlumbingBoundary(A2),
    VariationResult: lambda: variation_cokernel(coxeter_element("A", 2)),
    ProductReport: lambda: product_cohomology(
        builtin_profile("enriques"), builtin_profile("curve", genus=2), 4),
    GateRefusal: lambda: GateRefusal("h^(0,2) = 1 is nonzero"),
    _Kind: lambda: _Kind((), None, str, None, None, None, no_monodromy, "a note"),
    SingularityModel: lambda: SingularityModel.ak(3),
    Crosscheck: lambda: realization_crosscheck(SingularityModel.ak(1)),
    TrajectoryRow: lambda: trajectory_row(SingularityModel.ak(1)),
    TransportProblem: lambda: TransportProblem(
        (Z2, Z2), FinAbHom(FGAbGroup.from_orders([2, 2]), Z2, IntMatrix([[1, 1]]))),
    MarkerRow: lambda: NODAL_THREEFOLD_ROW,
}

# Per class with defaults: the arguments it is built from, then the
# defaulted fields and their values.  Every other class has no default.
DEFAULTS = {
    FGAbGroup: ((), {"free_rank": 0, "invariant_factors": ()}),
    SphereProduct: ((), {}),
    DiscriminantPackage: ((FGAbGroup(),), {"form": None, "generators": None}),
    SpaceProfile: (("X", {}), {"hodge_h0q": None}),
    SingularityModel: (("d4",), {"parameters": ()}),
    TrajectoryRow: (
        ("A_1", None, Crosscheck({}, {}, True), None, "t", "g", "b", 0),
        {"shadow_note": None}),
    MarkerRow: (tuple("abcdefgh"), {"rational_death": 0}),
}

CLASSES = sorted(SAMPLES, key=lambda cls: cls.__name__)


def _fields(record):
    return tuple(getattr(record, name) for name in type(record)._fields)


def test_every_record_class_has_a_sample():
    library = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("torsiontraj.")}
    assert library == set(SAMPLES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = SAMPLES[cls]()
    for name in cls._fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _fields(record) == _fields(SAMPLES[cls]())


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equality_holds_within_one_class_only(cls):
    record = SAMPLES[cls]()
    assert record == cls(*_fields(record))
    twin_class = type(cls.__name__, (Record,), {"__annotations__": dict(cls.__annotations__)})
    twin = twin_class(*_fields(record))
    assert _fields(twin) == _fields(record)
    assert record != twin and twin != record


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_hash_is_the_hash_of_the_field_tuple(cls):
    record = SAMPLES[cls]()
    values = _fields(record)
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_arguments(cls):
    record = SAMPLES[cls]()
    values = _fields(record)
    assert cls(**dict(zip(cls._fields, values))) == record
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, other=None)
    if values:
        with pytest.raises(TypeError):
            cls(*values, **{cls._fields[0]: values[0]})
    args, defaults = DEFAULTS.get(cls, (values, {}))
    built = cls(*args)
    assert {name: getattr(built, name) for name in defaults} == defaults
    if args:
        with pytest.raises(TypeError):
            cls(*args[:-1])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_copy_and_pickle_round_trip(cls):
    record = SAMPLES[cls]()
    for clone in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls
        assert clone == record


def test_repr():
    assert repr(FGAbGroup(1, (2,))) == "FGAbGroup(free_rank=1, invariant_factors=(2,))"
    assert repr(LensSpace(5, 2)) == "LensSpace(p=5, q=2)"
    assert repr(link_profile(LensSpace(4, 5))) == (
        "SpaceProfile(name='L(4,5)', cohomology={"
        "0: FGAbGroup(free_rank=1, invariant_factors=()), "
        "2: FGAbGroup(free_rank=0, invariant_factors=(4,)), "
        "3: FGAbGroup(free_rank=1, invariant_factors=())}, hodge_h0q=None)"
    )
    assert repr(SphereProduct()) == "SphereProduct()"


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    src = pathlib.Path(torsiontraj.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import torsiontraj.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
