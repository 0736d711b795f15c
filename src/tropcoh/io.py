"""Strict JSON input parsing and deterministic report serialization.

Input documents are checked against the rules of ``schema/input.schema.json``
before any geometry is built, so unknown fields and type errors are reported
with a JSON-pointer path, while syntax errors carry the line and column from
the decoder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Any, Mapping, Optional, Sequence

from .bundles import _check_cocycle
from .lattice import LatticeError, Vec
from .polytope import Subdivision, checked, interior_edge_keys, subdivision
from .tropical import tropical_curve

REPORT_FORMAT = "tropcoh-report"
REPORT_VERSION = 1


class InputError(ValueError):
    """Raised for malformed or invalid input documents."""


@lru_cache(maxsize=1)
def input_schema() -> dict:
    """The published JSON Schema of input documents; ``parse_input`` checks its rules itself."""
    from importlib import resources

    text = resources.files("tropcoh").joinpath("schema/input.schema.json").read_text()
    return json.loads(text)


@dataclass(frozen=True)
class TwistingSet:
    values: tuple[int, ...]
    region: Optional[Vec] = None


@dataclass(frozen=True)
class InputOptions:
    margin: int = 0
    epsilon: Optional[float] = None
    quadrature_order: Optional[int] = None


@dataclass(frozen=True)
class InputDocument:
    points: tuple[Vec, ...]
    triangles: tuple[tuple[int, int, int], ...]
    nu: tuple[int, ...]
    twisting_sets: Mapping[str, TwistingSet] = field(default_factory=dict)
    kink_sets: Mapping[str, tuple[int, ...]] = field(default_factory=dict)
    options: InputOptions = InputOptions()

    def subdivision(self) -> Subdivision:
        return subdivision(self.points, self.triangles, self.nu)


def _pointer(path) -> str:
    """RFC 6901 JSON pointer: "~" is written "~0" and "/" is written "~1" in each part."""
    if not path:
        return "document root"
    return "".join("/" + str(p).replace("~", "~0").replace("/", "~1") for p in path)


def _reject_constant(token: str):
    raise InputError(f"parse error: {token} is not a JSON value")


# The rules of schema/input.schema.json, checked without jsonschema. Each check
# takes (value, path) and returns the (path, message) that jsonschema's Draft 7
# validator lists first when its errors are sorted by path, or None. An error at
# a path sorts before every error below it, and jsonschema applies a schema's
# keywords in the order the file lists them, so a check stops at its first
# failing keyword and visits children in sorted key order. The messages are
# jsonschema's, word for word. One rule is stricter: "integer" means a JSON
# integer, so 2.0 is rejected where Draft 7 would accept it.


def _integer(minimum=None):
    def check(value, path):
        if type(value) is not int:
            return path, f"{value!r} is not of type 'integer'"
        if minimum is not None and value < minimum:
            return path, f"{value!r} is less than the minimum of {minimum!r}"
        return None

    return check


def _positive_number(value, path):
    if type(value) not in (int, float):
        return path, f"{value!r} is not of type 'number'"
    if value <= 0:
        return path, f"{value!r} is less than or equal to the minimum of 0"
    return None


def _const(expected):
    def check(value, path):
        # jsonschema's equality: 1.0 matches 1, but True does not
        if type(value) is bool or value != expected:
            return path, f"{expected!r} was expected"
        return None

    return check


def _array(items, min_items=0, max_items=None):
    def check(value, path):
        if type(value) is not list:
            return path, f"{value!r} is not of type 'array'"
        if len(value) < min_items:
            return path, f"{value!r} " + ("should be non-empty" if min_items == 1 else "is too short")
        if max_items is not None and len(value) > max_items:
            return path, f"{value!r} is too long"
        for i, item in enumerate(value):
            error = items(item, path + (i,))
            if error is not None:
                return error
        return None

    return check


def _object(properties, required=(), others=None):
    """Keys outside ``properties`` take the check ``others``; with None they are rejected."""

    def check(value, path):
        if type(value) is not dict:
            return path, f"{value!r} is not of type 'object'"
        if others is None:
            unexpected = sorted(key for key in value if key not in properties)
            if unexpected:
                verb = "was" if len(unexpected) == 1 else "were"
                listed = ", ".join(map(repr, unexpected))
                return path, f"Additional properties are not allowed ({listed} {verb} unexpected)"
        for name in required:
            if name not in value:
                return path, f"{name!r} is a required property"
        for key in sorted(value):
            error = properties.get(key, others)(value[key], path + (key,))
            if error is not None:
                return error
        return None

    return check


_lattice_point = _array(_integer(), 2, 2)
_integers = _array(_integer())
_check_document = _object(
    {
        "format": _const("tropcoh-input"),
        "version": _const(1),
        "points": _array(_lattice_point, 3),
        "triangles": _array(_array(_integer(minimum=0), 3, 3), 1),
        "nu": _integers,
        "twisting_sets": _object(
            {},
            others=_object(
                {"region": _lattice_point, "values": _array(_integer(), 3)}, required=("values",)
            ),
        ),
        "kink_sets": _object({}, others=_integers),
        "options": _object(
            {
                "margin": _integer(minimum=0),
                "epsilon": _positive_number,
                "quadrature_order": _integer(minimum=1),
            }
        ),
    },
    required=("format", "version", "points", "triangles", "nu"),
)


def parse_input(data: bytes) -> InputDocument:
    if not data.strip():
        raise InputError("empty document")
    try:
        raw = json.loads(data.decode("utf-8"), parse_constant=_reject_constant)
    except UnicodeDecodeError as exc:
        raise InputError(f"input is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise InputError("parse error: arrays or objects nested too deeply") from exc
    except InputError:
        raise
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise InputError(f"parse error: {exc}") from exc
    error = _check_document(raw, ())
    if error is not None:
        path, message = error
        raise InputError(f"invalid input at {_pointer(path)}: {message}")

    points = tuple((p[0], p[1]) for p in raw["points"])
    triangles = tuple(tuple(t) for t in raw["triangles"])
    nu = tuple(raw["nu"])
    if len(nu) != len(points):
        raise InputError("invalid input at /nu: one value per lattice point required")

    sub = subdivision(points, triangles, nu)
    try:
        checked(sub)
    except ValueError as exc:
        raise InputError(str(exc)) from exc

    tsets = {}
    for name, entry in raw.get("twisting_sets", {}).items():
        region = tuple(entry["region"]) if "region" in entry else None
        tsets[name] = TwistingSet(tuple(entry["values"]), region)
    ksets = {name: tuple(vals) for name, vals in raw.get("kink_sets", {}).items()}
    order = interior_edge_keys(sub)
    curve = tropical_curve(sub) if ksets else None
    for name, vals in ksets.items():
        where = f"invalid input at {_pointer(('kink_sets', name))}"
        if len(vals) != len(order):
            raise InputError(f"{where}: {len(vals)} kinks for {len(order)} interior edges")
        try:
            _check_cocycle(curve, dict(zip(order, vals)))
        except LatticeError as exc:
            raise InputError(f"{where}: {exc}") from exc
    opts = raw.get("options", {})
    options = InputOptions(
        margin=opts.get("margin", 0),
        epsilon=opts.get("epsilon"),
        quadrature_order=opts.get("quadrature_order"),
    )
    return InputDocument(points, triangles, nu, tsets, ksets, options)


def serialize_input(doc: InputDocument) -> bytes:
    raw: dict[str, Any] = {
        "format": "tropcoh-input",
        "version": 1,
        "points": [list(p) for p in doc.points],
        "triangles": [list(t) for t in doc.triangles],
        "nu": list(doc.nu),
    }
    if doc.twisting_sets:
        raw["twisting_sets"] = {
            name: (
                {"region": list(ts.region), "values": list(ts.values)}
                if ts.region is not None
                else {"values": list(ts.values)}
            )
            for name, ts in doc.twisting_sets.items()
        }
    if doc.kink_sets:
        raw["kink_sets"] = {name: list(v) for name, v in doc.kink_sets.items()}
    opt_fields = {}
    if doc.options.margin:
        opt_fields["margin"] = doc.options.margin
    if doc.options.epsilon is not None:
        opt_fields["epsilon"] = doc.options.epsilon
    if doc.options.quadrature_order is not None:
        opt_fields["quadrature_order"] = doc.options.quadrature_order
    if opt_fields:
        raw["options"] = opt_fields
    return (json.dumps(raw, indent=2, sort_keys=True) + "\n").encode("utf-8")


def encode_exact(value):
    """Ints stay ints; non-integral rationals become "p/q" strings."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, Mapping):
        return {str(k): encode_exact(v) for k, v in value.items()}
    if isinstance(value, Sequence):
        return [encode_exact(v) for v in value]
    if value is None:
        return None
    raise TypeError(f"cannot encode {type(value).__name__} in a report")


def report_bytes(command: str, result, seed: Optional[int] = None) -> bytes:
    doc = {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "command": command,
        "seed": seed,
        "result": encode_exact(result),
    }
    return (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")
