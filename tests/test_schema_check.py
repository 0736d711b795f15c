"""The package's own input check against jsonschema on mutated documents.

The oracle is Draft 7 with "integer" meaning a JSON integer, applied to the
published schema. Both must name the same first error, pointer and message,
and accept the same documents.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from oracles import schema_first_error
from test_io_schema import FIXTURE_NAMES, minimal_doc
from tropcoh.io import _KEYWORDS, _TYPES, _schema_error, input_schema

BASES = {name: json.loads((FIXTURES / name).read_bytes()) for name in FIXTURE_NAMES}
BASES["minimal"] = minimal_doc()
BASES["every_section"] = minimal_doc(
    twisting_sets={"a": {"values": [3, 3, 3]}, "b/c": {"region": [0, 0], "values": [1, 1, 1]}},
    kink_sets={"k": [-3, -3, -3]},
)

VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-3, 30).map(float),
    st.text(max_size=3),
    st.lists(st.integers(-2, 3), max_size=4),
    st.dictionaries(st.sampled_from(["values", "region", "x"]), st.integers(0, 3), max_size=2),
)
NAMES = st.sampled_from(["x", "format", "values", "margin", "region", "~", "é"]) | st.text(max_size=3)


def nodes(value, path=()):
    """Every (path, value) pair of the document, the root first."""
    yield path, value
    if isinstance(value, dict):
        for key, child in value.items():
            yield from nodes(child, path + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from nodes(child, path + (i,))


def replace(doc, path, new):
    if not path:
        return new
    parent = doc
    for part in path[:-1]:
        parent = parent[part]
    parent[path[-1]] = new
    return doc


@st.composite
def mutated(draw):
    doc = copy.deepcopy(draw(st.sampled_from(list(BASES.values()))))
    for _ in range(draw(st.integers(1, 2))):
        found = list(nodes(doc))
        dicts = [v for _, v in found if isinstance(v, dict)]
        lists = [v for _, v in found if isinstance(v, list)]
        # replacing is drawn three times as often: the value rules sit at the leaves
        kind = draw(st.sampled_from(["drop", "add", "resize", "replace", "replace", "replace"]))
        nonempty = [d for d in dicts if d]
        if kind == "drop" and nonempty:
            target = draw(st.sampled_from(nonempty))
            del target[draw(st.sampled_from(sorted(target)))]
        elif kind == "add" and dicts:
            # the root, a twisting set, or any other object
            draw(st.sampled_from(dicts))[draw(NAMES)] = draw(VALUES)
        elif kind == "resize" and lists:
            target = draw(st.sampled_from(lists))
            if target and draw(st.booleans()):
                del target[draw(st.integers(0, len(target) - 1))]
            else:
                target.append(copy.deepcopy(draw(st.sampled_from(target))) if target else 0)
        else:
            path, _ = draw(st.sampled_from(found))
            doc = replace(doc, path, draw(VALUES))
    return json.loads(json.dumps(doc))


@pytest.mark.parametrize("name", ["p2.json", "minimal", "every_section"])
def test_check_matches_jsonschema_on_every_replaced_value(name):
    """Each node in turn becomes each kind of JSON value, so every rule meets every value."""
    base = BASES[name]
    for path, _ in nodes(base):
        for value in (None, True, -1, 0, 0.5, 2.0, "s", [], {}, {"x": 0}):
            doc = replace(copy.deepcopy(base), path, value)
            assert _schema_error(doc) == schema_first_error(doc), (path, value)


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
def test_check_matches_jsonschema_on_mutated_documents(doc):
    assert _schema_error(doc) == schema_first_error(doc)


@pytest.mark.parametrize("name", list(BASES))
def test_check_accepts_what_jsonschema_accepts(name):
    doc = BASES[name]
    assert _schema_error(doc) is None
    assert schema_first_error(doc) is None


@pytest.mark.parametrize(
    "doc, pointer, message",
    [
        (minimal_doc(x=1, nu=None), (), "Additional properties are not allowed ('x' was unexpected)"),
        ({"b": 1, "a": 2}, (), "Additional properties are not allowed ('a', 'b' were unexpected)"),
        ({k: v for k, v in minimal_doc().items() if k != "nu"}, (), "'nu' is a required property"),
        (minimal_doc(triangles=[]), ("triangles",), "[] should be non-empty"),
        (minimal_doc(points=[[0, 0], [1, 0]]), ("points",), "[[0, 0], [1, 0]] is too short"),
        (minimal_doc(points=[[0, 0, 0]]), ("points",), "[[0, 0, 0]] is too short"),
        (minimal_doc(triangles=[[0, 1, 2, 3]]), ("triangles", 0), "[0, 1, 2, 3] is too long"),
        (minimal_doc(nu=[0, True]), ("nu", 1), "True is not of type 'integer'"),
        (minimal_doc(format="other"), ("format",), "'tropcoh-input' was expected"),
        (minimal_doc(version=True), ("version",), "1 was expected"),
        (minimal_doc(triangles=[[0, -1, 2]]), ("triangles", 0, 1), "-1 is less than the minimum of 0"),
        (
            minimal_doc(twisting_sets={"a": {"values": [3, 3, 3], "seed": 1}}),
            ("twisting_sets", "a"),
            "Additional properties are not allowed ('seed' was unexpected)",
        ),
        (
            minimal_doc(triangles=[[0, 1, 2], [0, 2, -3], [0, 3, 1]]),
            ("triangles", 1, 2),
            "-3 is less than the minimum of 0",
        ),
        (minimal_doc(nu=[2.0, 1, 1, 1]), ("nu", 0), "2.0 is not of type 'integer'"),
    ],
)
def test_check_names_jsonschemas_first_error(doc, pointer, message):
    assert _schema_error(doc) == schema_first_error(doc) == (pointer, message)


def schema_nodes(node):
    """Every schema node of the published schema's tree, the root first."""
    yield node
    for word in ("properties", "definitions"):
        for child in node.get(word, {}).values():
            yield from schema_nodes(child)
    for word in ("items", "additionalProperties"):
        if isinstance(node.get(word), dict):
            yield from schema_nodes(node[word])


def test_every_keyword_of_the_published_schema_is_implemented():
    used = {word for node in schema_nodes(input_schema()) for word in node}
    assert used <= _KEYWORDS, used - _KEYWORDS


def test_every_keyword_and_type_the_walker_implements_is_in_the_published_schema():
    """A walker branch that no schema node reaches is dead code."""
    found = list(schema_nodes(input_schema()))
    used = {word for node in found for word in node}
    assert _KEYWORDS <= used, _KEYWORDS - used
    types = {node["type"] for node in found if "type" in node}
    assert set(_TYPES) <= types, set(_TYPES) - types


def test_a_keyword_the_walker_does_not_implement_raises():
    schema = copy.deepcopy(input_schema())
    schema["properties"]["format"]["pattern"] = "^tropcoh-"
    with pytest.raises(NotImplementedError, match="input schema keyword 'pattern' is not implemented"):
        _schema_error(minimal_doc(), schema)
