"""The package's records keep the semantics they had as frozen dataclasses.

Most records are ``typing.NamedTuple`` classes made records by
``lattice.record``; ``Subdivision`` (which caches its hash) and
``TropicalCurve`` (whose regions refer back to it) are classes with
``__slots__``. Whatever the form, a record equals only a record of its own
type with equal fields, equal records hash equal, a field cannot be
assigned, and the repr names the class.
"""

import collections
import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import tropcoh
from tropcoh.bundles import PhiMap, phi_map
from tropcoh.cohomology import CohomologyDims, WindingTheoremReport
from tropcoh.examples import local_p2
from tropcoh.fan import Fan, make_fan
from tropcoh.io import InputDocument, TwistingSet
from tropcoh.lattice import record
from tropcoh.polytope import (
    CheckedSubdivision,
    Subdivision,
    SubdivisionEdge,
    ValidationIssue,
    ValidationReport,
    checked,
    validate,
)
from tropcoh.spheres import GammaCurve, SemiIntegralSupport, Twisting, gamma_curve, theta_from_twisting, twisting
from tropcoh.tropical import BoundedRegion, TropicalCurve, tropical_curve
from tropcoh.winding import WindingTable

P2_FAN = make_fan([(1, 0), (0, 1), (-1, -1)])
CURVE = tropical_curve(local_p2())


def _theta():
    return theta_from_twisting(twisting(P2_FAN, (3, 3, 3)))


# each maker builds a new record with the same fields at every call
MAKERS = {
    TwistingSet: lambda: TwistingSet((3, 3, 3), (0, 0)),
    InputDocument: lambda: InputDocument(((0, 0),), ((0, 0, 0),), (0,), {"k": TwistingSet((1,))}, {}),
    Subdivision: local_p2,
    ValidationIssue: lambda: ValidationIssue("parity", "edge 0: twist 2 and self-intersection 1"),
    ValidationReport: lambda: ValidationReport((ValidationIssue("balance", "edge sum (1, 0) is not zero"),)),
    SubdivisionEdge: lambda: SubdivisionEdge((0, 0), (1, 0), False, 0, 1, (0, 1)),
    CheckedSubdivision: lambda: CheckedSubdivision(*checked(local_p2())),
    Fan: lambda: make_fan([(0, 1), (-1, -1), (1, 0)]),
    TropicalCurve: lambda: tropical_curve(local_p2()),
    BoundedRegion: lambda: BoundedRegion(*CURVE.regions[0]),
    PhiMap: lambda: phi_map(CURVE),
    Twisting: lambda: twisting(P2_FAN, (3, 3, 3)),
    SemiIntegralSupport: _theta,
    GammaCurve: lambda: gamma_curve(_theta()),
}
# a field holds a dict or a mapping proxy, so hashing raises, as it did for the dataclasses
UNHASHABLE = {InputDocument, CheckedSubdivision}
BY_IDENTITY = {TropicalCurve}


def _fields(rec) -> tuple[str, ...]:
    cls = type(rec)
    return getattr(cls, "_fields", None) or tuple(n for n in cls.__slots__ if not n.startswith("_"))


def _package_records() -> set[type]:
    """Every class of a package module that is a NamedTuple or has __slots__."""
    found = set()
    for info in pkgutil.iter_modules(tropcoh.__path__):
        module = importlib.import_module(f"tropcoh.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and ("_fields" in vars(cls) or "__slots__" in vars(cls)):
                found.add(cls)
    return found


def test_every_record_is_checked_here():
    assert _package_records() == set(MAKERS)


def test_the_records_tropbench_replaces_stay_dataclasses():
    # tropbench's twist_count corruptions call dataclasses.replace on these three
    for cls in (WindingTheoremReport, CohomologyDims, WindingTable):
        assert dataclasses.is_dataclass(cls)


@pytest.mark.parametrize("cls", MAKERS, ids=lambda c: c.__name__)
def test_a_record_equals_only_a_record_of_its_type_with_equal_fields(cls):
    a, b = MAKERS[cls](), MAKERS[cls]()
    assert type(a) is cls and a is not b
    assert a == a and not a != a
    if cls in BY_IDENTITY:
        assert a != b and not a == b
    else:
        assert a == b and not a != b
    names = _fields(a)
    values = tuple(getattr(a, name) for name in names)
    twin = record(collections.namedtuple("Twin", names))(*values)
    for other in (values, list(values), twin):
        assert a != other and other != a
        assert not a == other and not other == a
    # a tuple subclass that is no record compares as a tuple when it is on the left
    assert a != collections.namedtuple("Plain", names)(*values)


def test_a_validation_report_ignores_its_index():
    valid = validate(local_p2())
    assert valid.index is not None
    assert valid == ValidationReport(()) and not valid != ValidationReport(())
    assert hash(valid) == hash(ValidationReport(()))
    assert valid != MAKERS[ValidationReport]()


@pytest.mark.parametrize("cls", MAKERS, ids=lambda c: c.__name__)
def test_equal_records_hash_equal(cls):
    a, b = MAKERS[cls](), MAKERS[cls]()
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    elif cls in BY_IDENTITY:
        assert hash(a) == hash(a) and len({a, b, a}) == 2
    else:
        assert hash(a) == hash(b) and len({a, b}) == 1


def test_a_subdivision_hashes_its_fields_once():
    hashed = []

    class CountingTuple(tuple):
        def __hash__(self):
            hashed.append(1)
            return tuple.__hash__(self)

    p2 = local_p2()
    sub = Subdivision(p2.points, p2.triangles, CountingTuple(p2.nu))
    for _ in range(3):
        hash(sub)
        checked(sub)
    assert sub == p2 and hash(sub) == hash(p2)
    assert len(hashed) == 1


@pytest.mark.parametrize("cls", MAKERS, ids=lambda c: c.__name__)
def test_assigning_an_attribute_raises(cls):
    rec = MAKERS[cls]()
    for name in _fields(rec):
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    with pytest.raises(AttributeError):
        rec.note = "extra"


@pytest.mark.parametrize("cls", MAKERS, ids=lambda c: c.__name__)
def test_the_repr_names_the_class(cls):
    assert cls.__name__ in repr(MAKERS[cls]())
