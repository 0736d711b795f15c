"""Every document command on mutated fixtures: exit 0, 1 or 2, and nothing else escapes.

The fixtures' points move (up to 10^15), their nu values change (up to 2^63,
or to floats), their triangles are dropped, repeated or permuted, and their
twisting and kink entries are replaced.  Each command then runs in process.
Exit 2 writes one ``error:`` line and no report; exits 0 and 1 write a strict
JSON envelope or a well-formed SVG and nothing on stderr.  A document that
the schema oracle refuses exits 2 everywhere, and one that ``validate``
accepts tiles its polygon.
"""

import contextlib
import copy
import io
import json
import xml.etree.ElementTree as ET

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from oracles import is_tiling, schema_first_error
from tropcoh import cli

BASES = {path.name: json.loads(path.read_bytes()) for path in sorted(FIXTURES.glob("*.json"))}

COORDS = st.integers(-3, 3) | st.integers(-(10**15), 10**15)
NU = st.integers(-3, 40) | st.integers(-(2**63), 2**63) | st.integers(-3, 40).map(float) | st.floats()
TWISTS = st.integers(-9, 9) | st.sampled_from([10**15, -(2**63)])
REGIONS = st.none() | st.sampled_from(["0", "1", "2", "7", "-1", "1,1", "2,1", "0,0", "9,9", "x"])
INLINE_ELL = st.sampled_from(["1,1,1", "3,3,3", "-3,-3,-3", "1,1,1,2,2", "-14,5,-14,-9"])


def _pick(draw, seq):
    return draw(st.integers(0, len(seq) - 1))


@st.composite
def cases(draw):
    """A mutated fixture document, and the --ell and --region flags to run it with."""
    doc = copy.deepcopy(BASES[draw(st.sampled_from(sorted(BASES)))])
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["point", "nu", "drop", "repeat", "permute", "twist", "kink"]))
        if kind == "point":
            doc["points"][_pick(draw, doc["points"])][draw(st.integers(0, 1))] = draw(COORDS)
        elif kind == "nu":
            doc["nu"][_pick(draw, doc["nu"])] = draw(NU)
        elif kind == "drop" and doc["triangles"]:
            doc["triangles"].pop(_pick(draw, doc["triangles"]))
        elif kind == "repeat" and doc["triangles"]:
            i = _pick(draw, doc["triangles"])
            doc["triangles"].insert(i, list(doc["triangles"][i]))
        elif kind == "permute":
            doc["triangles"] = draw(st.permutations(doc["triangles"]))
        elif kind == "twist" and doc.get("twisting_sets"):
            values = doc["twisting_sets"][draw(st.sampled_from(sorted(doc["twisting_sets"])))]["values"]
            values[_pick(draw, values)] = draw(TWISTS)
        elif kind == "kink" and doc.get("kink_sets"):
            values = doc["kink_sets"][draw(st.sampled_from(sorted(doc["kink_sets"])))]
            values[_pick(draw, values)] = draw(TWISTS)
    ell = draw(st.sampled_from(sorted(doc.get("twisting_sets", {}))) | INLINE_ELL)
    return doc, ell, draw(REGIONS)


def _argvs(path, ell, region):
    doc = ["--input", str(path)]
    pick = doc + ["--ell", ell] + ([] if region is None else ["--region", region])
    return [
        ["validate", *doc],
        ["tropical", *doc],
        ["tropical", *doc, "--format", "svg"],
        ["picard", *doc],
        ["sphere", *pick],
        ["winding", *pick],
        ["cohomology", *pick],
        ["verify-winding-theorem", *pick],
        ["smooth-check", *pick, "--samples", "2", "--order", "16"],
    ]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _strict_constant(token):
    raise ValueError(f"{token} in a report")


@settings(max_examples=120, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(case=cases())
def test_every_command_exits_0_1_or_2_on_mutated_documents(tmp_path_factory, case):
    doc, ell, region = case
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc))
    refused = schema_first_error(json.loads(path.read_text())) is not None
    for argv in _argvs(path, ell, region):
        code, out, err = _run(argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), argv
            continue
        assert not refused, argv
        assert err == "", argv
        if out.startswith("<?xml"):
            assert ET.fromstring(out.encode()).tag.endswith("svg"), argv
        else:
            assert json.loads(out, parse_constant=_strict_constant)["command"] == argv[0], argv
        if argv[0] == "validate":
            points = [tuple(p) for p in doc["points"]]
            assert is_tiling(points, [tuple(t) for t in doc["triangles"]]), argv
