"""Strict JSON input parsing and deterministic report serialization.

Input documents are checked against the rules of ``schema/input.schema.json``
before any geometry is built, so unknown fields and type errors are reported
with a JSON-pointer path, while syntax errors carry the line and column from
the decoder.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Sequence

from .lattice import LatticeError, Vec, record
from .polytope import Subdivision, check_cocycle, checked, interior_edge_keys, subdivision

REPORT_FORMAT = "tropcoh-report"
REPORT_VERSION = 1


class InputError(ValueError):
    """Raised for malformed or invalid input documents."""


@lru_cache(maxsize=1)
def input_schema() -> dict:
    """The published JSON Schema of input documents, read once; ``parse_input`` walks it."""
    path = os.path.join(os.path.dirname(__file__), "schema", "input.schema.json")
    with open(path, "rb") as f:
        return json.load(f)


@record
class TwistingSet(NamedTuple):
    values: tuple[int, ...]
    region: Optional[Vec] = None


@record
class InputDocument(NamedTuple):
    points: tuple[Vec, ...]
    triangles: tuple[tuple[int, int, int], ...]
    nu: tuple[int, ...]
    twisting_sets: Mapping[str, TwistingSet] = MappingProxyType({})
    kink_sets: Mapping[str, tuple[int, ...]] = MappingProxyType({})

    def subdivision(self) -> Subdivision:
        return subdivision(self.points, self.triangles, self.nu)


def _pointer(path) -> str:
    """RFC 6901 JSON pointer: "~" is written "~0" and "/" is written "~1" in each part."""
    if not path:
        return "document root"
    return "".join("/" + str(p).replace("~", "~0").replace("/", "~1") for p in path)


def _reject_constant(token: str):
    raise InputError(f"parse error: {token} is not a JSON value")


def _unique_keys(pairs: list) -> dict:
    """A JSON object from its members; json.loads would keep the last value of a repeated key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise InputError(f"parse error: duplicate key {key!r}")
    return obj


# The walker behind parse_input. It reads schema/input.schema.json and returns
# the (path, message) that jsonschema's Draft 7 validator lists first when its
# errors are sorted by path, or None. An error at a path sorts before every
# error below it, and jsonschema applies a node's keywords in the order the
# file lists them, so the walker stops at a node's first failing keyword and
# visits children in sorted key order. The messages are jsonschema's, word for
# word. One rule is stricter: "integer" means a JSON integer, so 2.0 is
# rejected where Draft 7 would accept it.

_TYPES = {"integer": (int,), "array": (list,), "object": (dict,)}
_KEYWORDS = frozenset(
    {"type", "const", "minimum", "minItems", "maxItems", "required"}
    | {"additionalProperties", "properties", "items", "$ref"}
    | {"$schema", "$id", "title", "description", "definitions"}  # annotations
)


def _keyword_error(word: str, arg, value, node: dict) -> Optional[str]:
    """jsonschema's message when keyword ``word`` of ``node`` rejects ``value``, or None.

    As in jsonschema, a keyword other than "type" and "const" passes every
    value of a JSON type it does not apply to.
    """
    kind = type(value)
    if word == "type" and kind not in _TYPES[arg]:
        return f"{value!r} is not of type {arg!r}"
    # jsonschema's equality: 1.0 matches 1, but True does not
    if word == "const" and ((kind is bool) != (type(arg) is bool) or value != arg):
        return f"{arg!r} was expected"
    if word == "minimum" and kind in (int, float) and value < arg:
        return f"{value!r} is less than the minimum of {arg!r}"
    if word == "minItems" and kind is list and len(value) < arg:
        return f"{value!r} " + ("should be non-empty" if arg == 1 else "is too short")
    if word == "maxItems" and kind is list and len(value) > arg:
        return f"{value!r} " + ("is expected to be empty" if arg == 0 else "is too long")
    if word == "required" and kind is dict:
        missing = [name for name in arg if name not in value]
        if missing:
            return f"{missing[0]!r} is a required property"
    if word == "additionalProperties" and arg is False and kind is dict:
        unexpected = sorted(key for key in value if key not in node.get("properties", {}))
        if unexpected:
            verb = "was" if len(unexpected) == 1 else "were"
            listed = ", ".join(map(repr, unexpected))
            return f"Additional properties are not allowed ({listed} {verb} unexpected)"
    if word not in _KEYWORDS:
        raise NotImplementedError(f"input schema keyword {word!r} is not implemented")
    return None


def _walk(value, node: dict, root: dict, path: tuple):
    if "$ref" in node:  # Draft 7 ignores the siblings of "$ref"
        node = root["definitions"][node["$ref"].removeprefix("#/definitions/")]
    for word, arg in node.items():
        message = _keyword_error(word, arg, value, node)
        if message is not None:
            return path, message
    if type(value) is list and "items" in node:
        children = ((i, node["items"]) for i in range(len(value)))
    elif type(value) is dict:
        named, others = node.get("properties", {}), node.get("additionalProperties")
        children = ((key, named.get(key, others)) for key in sorted(value))
    else:
        return None
    for key, child in children:
        # None, False and {} hold no rule for the child: absent, rejected above, or empty
        if child:
            error = _walk(value[key], child, root, path + (key,))
            if error is not None:
                return error
    return None


def _schema_error(raw, schema: Optional[dict] = None):
    """(path, message) of jsonschema's first error under ``schema``, the published one by default."""
    root = input_schema() if schema is None else schema
    return _walk(raw, root, root, ())


def parse_input(data: bytes) -> InputDocument:
    if not data.strip():
        raise InputError("empty document")
    try:
        raw = json.loads(
            data.decode("utf-8"), parse_constant=_reject_constant, object_pairs_hook=_unique_keys
        )
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
    error = _schema_error(raw)
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
    for name, vals in ksets.items():
        where = f"invalid input at {_pointer(('kink_sets', name))}"
        if len(vals) != len(order):
            raise InputError(f"{where}: {len(vals)} kinks for {len(order)} interior edges")
        try:
            check_cocycle(sub, dict(zip(order, vals)))
        except LatticeError as exc:
            raise InputError(f"{where}: {exc}") from exc
    return InputDocument(points, triangles, nu, tsets, ksets)


def _json(value, nl: str) -> str:
    """``value`` as json.dumps(indent=2, sort_keys=True, allow_nan=False) writes it after ``nl``.

    ``nl`` is the newline and indent of the line ``value`` starts on. Fractions become ints
    or "p/q" strings and mapping keys str(key); the exact types of report trees go first.
    """
    kind = type(value)
    if kind is int:
        return repr(value)
    if kind is str:
        return _quote(value)
    inner = nl + "  "
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        ints = all(type(v) is int for v in value)
        parts = map(repr, value) if ints else [_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(parts) + nl + "]"
    if kind is dict:
        # every value is written, so one that str() merges with another key still raises
        items = {str(k): _json(v, inner) for k, v in value.items()}
        parts = [_quote(k) + ": " + items[k] for k in sorted(items)]
        return "{" + inner + ("," + inner).join(parts) + nl + "}" if parts else "{}"
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return repr(int(value))
        return _quote(f"{value.numerator}/{value.denominator}")
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, Mapping):
        return _json(dict(value.items()), nl)
    if isinstance(value, Sequence):
        return _json(list(value), nl)
    raise TypeError(f"cannot encode {type(value).__name__} in a report")


def report_bytes(command: str, result, seed: Optional[int] = None) -> bytes:
    """The report envelope, in the bytes json.dumps(..., indent=2, sort_keys=True) writes."""
    doc = dict(
        format=REPORT_FORMAT, version=REPORT_VERSION, command=command, seed=seed, result=result
    )
    return (_json(doc, "\n") + "\n").encode("utf-8")
