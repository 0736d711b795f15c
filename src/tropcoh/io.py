"""Strict JSON input parsing and deterministic report serialization.

Input documents are schema checked before any geometry is built, so unknown
fields and type errors are reported with a JSON-pointer path, while syntax
errors carry the line and column from the decoder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import Any, Mapping, Optional, Sequence

from .bundles import _check_cocycle
from .lattice import LatticeError, Vec
from .polytope import Subdivision, interior_edge_keys, require_valid, subdivision
from .tropical import tropical_curve

REPORT_FORMAT = "tropcoh-report"
REPORT_VERSION = 1


class InputError(ValueError):
    """Raised for malformed or invalid input documents."""


@lru_cache(maxsize=1)
def input_schema() -> dict:
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
    import jsonschema  # only documents need it, so report-only commands skip the import

    validator = jsonschema.Draft7Validator(input_schema())
    errors = sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
    if errors:
        first = errors[0]
        raise InputError(f"invalid input at {_pointer(first.absolute_path)}: {first.message}")

    points = tuple((p[0], p[1]) for p in raw["points"])
    triangles = tuple(tuple(t) for t in raw["triangles"])
    nu = tuple(raw["nu"])
    if len(nu) != len(points):
        raise InputError("invalid input at /nu: one value per lattice point required")

    sub = subdivision(points, triangles, nu)
    try:
        require_valid(sub)
    except ValueError as exc:
        raise InputError(str(exc)) from exc

    tsets = {}
    for name, entry in raw.get("twisting_sets", {}).items():
        region = tuple(entry["region"]) if "region" in entry else None
        tsets[name] = TwistingSet(tuple(entry["values"]), region)
    ksets = {name: tuple(vals) for name, vals in raw.get("kink_sets", {}).items()}
    order = interior_edge_keys(sub)
    for name, vals in ksets.items():
        where = f"invalid input at {_pointer(('kink_sets', name))}"
        if len(vals) != len(order):
            raise InputError(f"{where}: {len(vals)} kinks for {len(order)} interior edges")
        try:
            _check_cocycle(tropical_curve(sub), dict(zip(order, vals)))
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
