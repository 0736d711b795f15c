"""Strict input parsing, canonical serialization, and exact JSON encoding."""

import json
import math
from collections import OrderedDict
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import encode_exact
from tropcoh.examples import local_p2
from tropcoh.io import (
    InputError,
    input_schema,
    parse_input,
    report_bytes,
)

FIXTURE_NAMES = ("p2.json", "blowup_p2.json", "a2d_d3.json")

pytestmark = pytest.mark.usefixtures("schema_oracle")


def minimal_doc(**extra):
    doc = {
        "format": "tropcoh-input",
        "version": 1,
        "points": [[0, 0], [1, 0], [0, 1], [-1, -1]],
        "triangles": [[0, 1, 2], [0, 2, 3], [0, 3, 1]],
        "nu": [0, 1, 1, 1],
    }
    doc.update(extra)
    return doc


def as_bytes(doc):
    return json.dumps(doc).encode()


def test_schema_is_valid_draft7():
    jsonschema.Draft7Validator.check_schema(input_schema())


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixtures_are_canonical_and_round_trip(fixture_dir, gen_fixtures, name):
    serialize_input = gen_fixtures.serialize_input
    data = (fixture_dir / name).read_bytes()
    doc = parse_input(data)
    assert serialize_input(doc) == data
    again = parse_input(serialize_input(doc))
    assert serialize_input(again) == data


def test_fixture_generator_reproduces_the_fixtures(fixture_dir, gen_fixtures):
    built = gen_fixtures.build()
    assert sorted(built) == sorted(FIXTURE_NAMES)
    for name, data in built.items():
        assert data == (fixture_dir / name).read_bytes(), name


def test_parsed_p2_matches_the_stock_subdivision(fixture_dir):
    doc = parse_input((fixture_dir / "p2.json").read_bytes())
    assert doc.subdivision() == local_p2()


def test_p2_named_sets(fixture_dir):
    doc = parse_input((fixture_dir / "p2.json").read_bytes())
    assert doc.twisting_sets["cap_k1"].values == (3, 3, 3)
    assert doc.twisting_sets["cap_k1"].region == (0, 0)
    assert doc.twisting_sets["bad_parity"].values == (2, 3, 3)
    assert doc.kink_sets["canonical"] == (-3, -3, -3)


def test_empty_document():
    with pytest.raises(InputError, match="empty document"):
        parse_input(b"")


def test_binary_garbage():
    with pytest.raises(InputError, match="not UTF-8"):
        parse_input(b"\xff\xfe\x00")


def test_syntax_error_reports_location():
    with pytest.raises(InputError, match=r"parse error at line 2, column"):
        parse_input(b'{\n  "format": ,\n}')


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(InputError, match="parse error: arrays or objects nested too deeply"):
        parse_input(b"[" * 100000 + b"]" * 100000)


def test_integer_literal_past_the_digit_limit_is_a_parse_error(fixture_dir):
    text = (fixture_dir / "p2.json").read_text()
    data = text.replace('"nu": [', '"nu": [' + "9" * 5000 + ",", 1).encode()
    with pytest.raises(InputError, match=r"^parse error: Exceeds the limit \(4300 digits\)"):
        parse_input(data)


def test_duplicate_top_level_key_is_a_parse_error():
    # json keeps the last value: the document would be checked on the second list
    data = as_bytes(minimal_doc()).replace(b'"nu": [0, 1, 1, 1]', b'"nu": [0, 1, 1, 1], "nu": [5, 5, 5, 5]')
    assert data.count(b'"nu"') == 2
    with pytest.raises(InputError, match=r"^parse error: duplicate key 'nu'$"):
        parse_input(data)


def test_duplicate_nested_key_is_a_parse_error():
    doc = minimal_doc(twisting_sets={"a": {"values": [3, 3, 3]}, "b": {"values": [1, 1, 1]}})
    data = as_bytes(doc).replace(b'"b"', b'"a"')
    with pytest.raises(InputError, match=r"^parse error: duplicate key 'a'$"):
        parse_input(data)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_json_constants_are_rejected(token):
    data = as_bytes(minimal_doc(nu=[0.5, 1, 1, 1])).replace(b"0.5", token.encode())
    with pytest.raises(InputError, match=f"parse error: {token} is not a JSON value"):
        parse_input(data)


def test_unknown_top_level_field():
    with pytest.raises(InputError, match="invalid input"):
        parse_input(as_bytes(minimal_doc(flavor="mint")))


def test_wrong_format_tag():
    with pytest.raises(InputError, match="invalid input at /format"):
        parse_input(as_bytes(minimal_doc(format="other")))


def test_wrong_nu_type_names_the_path():
    with pytest.raises(InputError, match="invalid input at /nu"):
        parse_input(as_bytes(minimal_doc(nu="abc")))


def test_nu_length_mismatch():
    with pytest.raises(InputError, match="one value per lattice point"):
        parse_input(as_bytes(minimal_doc(nu=[0, 1, 1])))


def test_area_two_triangle_is_rejected():
    doc = {
        "format": "tropcoh-input",
        "version": 1,
        "points": [[0, 0], [2, 0], [0, 1]],
        "triangles": [[0, 1, 2]],
        "nu": [0, 0, 0],
    }
    with pytest.raises(InputError, match="not-elementary"):
        parse_input(as_bytes(doc))


def test_twisting_set_requires_values():
    doc = minimal_doc(twisting_sets={"broken": {"region": [0, 0]}})
    with pytest.raises(InputError, match="invalid input at /twisting_sets/broken"):
        parse_input(as_bytes(doc))


def test_options_margin_must_be_nonnegative():
    """margin widened a cohomology search box that is gone; now no value of it is taken.

    The options section that held it is gone too, so the document root refuses it.
    """
    for value in (-1, 0, 3):
        doc = minimal_doc(options={"margin": value})
        with pytest.raises(InputError) as raised:
            parse_input(as_bytes(doc))
        assert str(raised.value) == (
            "invalid input at document root: Additional properties are not allowed ('options' was unexpected)"
        )


@pytest.mark.parametrize(
    "field, value, pointer",
    [
        ("points", [[0.0, 0], [1, 0], [0, 1], [-1, -1]], "/points/0/0"),
        ("triangles", [[0.0, 1, 2], [0, 2, 3], [0, 3, 1]], "/triangles/0/0"),
        ("nu", [0.0, 1, 1, 1], "/nu/0"),
    ],
)
def test_integral_floats_are_not_integers(field, value, pointer):
    """Draft 7 would take 0.0 as an integer; the exact fields hold JSON integers only."""
    with pytest.raises(InputError, match=f"invalid input at {pointer}: 0.0 is not of type 'integer'"):
        parse_input(as_bytes(minimal_doc(**{field: value})))


def test_serialize_omits_empty_sections(gen_fixtures):
    doc = parse_input(as_bytes(minimal_doc()))
    out = gen_fixtures.serialize_input(doc).decode()
    parsed = json.loads(out)
    assert "twisting_sets" not in parsed
    assert "kink_sets" not in parsed
    assert out.endswith("\n")


class TestEncodeExact:
    def test_integral_fraction_becomes_int(self):
        assert encode_exact(Fraction(4, 2)) == 2
        assert isinstance(encode_exact(Fraction(4, 2)), int)

    def test_proper_fraction_becomes_string(self):
        assert encode_exact(Fraction(3, 2)) == "3/2"
        assert encode_exact(Fraction(-1, 2)) == "-1/2"

    def test_containers_recurse(self):
        got = encode_exact({"a": [Fraction(1, 2), (1, 2)], "b": None})
        assert got == {"a": ["1/2", [1, 2]], "b": None}

    def test_scalars_pass_through(self):
        assert encode_exact(True) is True
        assert encode_exact(7) == 7
        assert encode_exact("x") == "x"

    def test_unknown_types_fail(self):
        with pytest.raises(TypeError):
            encode_exact(object())


def test_report_envelope():
    data = report_bytes("winding", {"h_even": 10}, seed=5)
    rep = json.loads(data)
    assert rep["format"] == "tropcoh-report"
    assert rep["version"] == 1
    assert rep["command"] == "winding"
    assert rep["seed"] == 5
    assert rep["result"] == {"h_even": 10}
    assert data.endswith(b"\n")
    assert report_bytes("winding", {"h_even": 10}, seed=5) == data


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_report_rejects_non_finite_floats(bad):
    # strict JSON: no report may print Infinity or NaN
    with pytest.raises(ValueError):
        report_bytes("smooth-check", {"min_abs_eigenvalue": bad})


class Count(int):
    def __repr__(self):
        return "Count()"


class Label(str):
    def __str__(self):
        return "label:" + self


class Ratio(float):
    def __repr__(self):
        return "Ratio()"


# Leaves of every type a report may hold, some through the writer's slow path:
# bools among ints, int, str and float subclasses, and strings JSON must escape.
LEAVES = st.one_of(
    st.integers(),
    st.integers(-(10**60), 10**60),
    st.booleans(),
    st.none(),
    st.fractions(max_denominator=4),
    st.integers(-5, 5).map(Fraction),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\u2028", "é", "😀", "\ud800"]),
    st.integers(-5, 5).map(Count),
    st.text(max_size=3).map(Label),
    st.floats(allow_nan=False, allow_infinity=False).map(Ratio),
)
# Keys that are not str, and strings they equal after str(): 1 and "1", None
# and "None", Fraction(1, 2) and "1/2", Label("a") and "label:a", ...
KEYS = st.one_of(
    st.text(max_size=3),
    st.integers(-3, 3),
    st.booleans(),
    st.none(),
    st.fractions(max_denominator=2, min_value=-2, max_value=2),
    st.sampled_from([1.5, "1.5", "1", "-1", "True", "False", "None", "1/2", "label:a"]),
    st.sampled_from(["a", ""]).map(Label),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
)
TREES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(st.integers(), max_size=5),
        st.dictionaries(KEYS, children, max_size=5),
        st.dictionaries(KEYS, children, max_size=3).map(OrderedDict),
    ),
    max_leaves=30,
)


@given(TREES, st.sampled_from(["winding", "a2d"]), st.none() | st.integers(0, 10**6))
@settings(max_examples=400, deadline=None)
@example([1, True, 2], "winding", None)
@example([1, Count(2)], "winding", None)
@example({"b": 1, "a": 2, 1: [3], "1": [4]}, "winding", 5)
def test_report_bytes_are_json_dumps_of_the_exact_encoding(value, command, seed):
    doc = {"format": "tropcoh-report", "version": 1, "command": command, "seed": seed}
    doc["result"] = encode_exact(value)
    expected = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert report_bytes(command, value, seed) == expected.encode()


@pytest.mark.parametrize("bad", [object(), [1, object()], {"a": {"b": object()}}, {1: object(), "1": 2}])
def test_report_rejects_values_of_no_report_type(bad):
    with pytest.raises(TypeError):
        report_bytes("winding", bad)
