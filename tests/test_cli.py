"""Command line behavior: exit codes, report contents, determinism."""

import ast
import importlib
import json
import math
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import tropcoh
import tropcoh.cohomology as cohomology
from conftest import hex_grid
from tropcoh import bundles, cli, polytope, smoothing
from tropcoh.bundles import MAX_PICARD_CELLS
from tropcoh.cohomology import (
    CohomologyDims,
    WindingTheoremReport,
    divisor_coeffs,
    psi_from_ray_values,
    psi_from_theta,
)
from tropcoh.ext_chains import MAX_A2D_D
from tropcoh.winding import MAX_SWEEP_ROWS, MAX_TABLE_POINTS

P2 = "p2.json"
BLOWUP = "blowup_p2.json"
A2D = "a2d_d3.json"
OPTIONS_UNEXPECTED = "Additional properties are not allowed ('options' was unexpected)"

pytestmark = pytest.mark.usefixtures("schema_oracle")


@pytest.fixture
def run(fixture_dir, capsys):
    def _run(command, fixture=None, *extra):
        argv = [command]
        if fixture is not None:
            argv += ["--input", str(fixture_dir / fixture)]
        argv += list(extra)
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


def out_json(out):
    return json.loads(out)


def test_validate_p2(run):
    code, out, err = run("validate", P2)
    assert code == 0
    rep = out_json(out)
    assert rep["command"] == "validate"
    assert rep["result"]["points"] == 4
    assert rep["result"]["triangles"] == 3
    assert rep["result"]["bounded_regions"] == 1
    assert rep["result"]["twisting_sets"] == ["bad_parity", "cap_k1", "cap_k_minus2"]


def test_validate_a2d(run):
    code, out, _ = run("validate", A2D)
    assert code == 0
    result = out_json(out)["result"]
    assert result["interior_edges"] == 13
    assert result["bounded_regions"] == 2


def test_validate_a_thin_triangle_in_a_huge_box(tmp_path):
    """One elementary triangle whose bounding box holds about 10**18 lattice points."""
    n = 10**9
    doc = tmp_path / "thin.json"
    doc.write_text(json.dumps({
        "format": "tropcoh-input", "version": 1, "points": [[0, 0], [n, n - 1], [n - 1, n - 2]],
        "triangles": [[0, 1, 2]], "nu": [0, 0, 0],
    }))
    src = str(Path(tropcoh.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "tropcoh.cli", "validate", "--input", str(doc)],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert out_json(done.stdout)["result"]["triangles"] == 1


def test_validate_overlapping_triangles_names_the_edge(run, tmp_path):
    doc = tmp_path / "overlap.json"
    doc.write_text(json.dumps({
        "format": "tropcoh-input", "version": 1, "points": [[0, 0], [1, 0], [0, 1], [1, 1]],
        "triangles": [[0, 1, 2], [0, 1, 3]], "nu": [0, 0, 0, 0],
    }))
    assert run("validate", None, "--input", str(doc)) == (
        2,
        "",
        "error: invalid subdivision: overlapping-triangles: "
        "triangles 0 and 1 lie on one side of edge ((0, 0), (1, 0))\n",
    )


def test_validate_rejects_a_chord_in_one_triangle(run, tmp_path):
    """Triangles of the 2 x 1 rectangle whose areas add up, but which overlap."""
    doc = tmp_path / "chord.json"
    doc.write_text(json.dumps({
        "format": "tropcoh-input", "version": 1,
        "points": [[0, 0], [0, 1], [1, 0], [1, 1], [2, 0], [2, 1]],
        "triangles": [[1, 3, 4], [0, 1, 2], [1, 2, 4], [2, 3, 5]], "nu": [0, 0, 0, 2, 1, 0],
    }))
    assert run("validate", None, "--input", str(doc)) == (
        2,
        "",
        "error: invalid subdivision: dangling-edge: "
        "edge ((1, 0), (1, 1)) lies in one triangle but is not on the boundary\n",
    )
    assert run("picard", None, "--input", str(doc))[0] == 2


def test_validate_a_huge_triangle_listed_by_its_corners(run, tmp_path):
    """P holds about 5 * 10**17 lattice points; none is scanned for."""
    n = 10**9
    doc = tmp_path / "corners.json"
    doc.write_text(json.dumps({
        "format": "tropcoh-input", "version": 1, "points": [[0, 0], [n, 0], [0, n]],
        "triangles": [[0, 1, 2]], "nu": [0, 0, 0],
    }))
    start = time.perf_counter()
    code, out, err = run("validate", None, "--input", str(doc))
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid subdivision: not-elementary: triangle 0 ")
    assert time.perf_counter() - start < 1.0


def test_validate_rejects_a_duplicate_key(run, fixture_dir, tmp_path):
    doc = tmp_path / "twice.json"
    doc.write_text((fixture_dir / P2).read_text().replace('"version": 1', '"version": 1, "version": 1'))
    assert run("validate", None, "--input", str(doc)) == (2, "", "error: parse error: duplicate key 'version'\n")


def test_tropical_json_counts(run):
    code, out, _ = run("tropical", P2)
    assert code == 0
    result = out_json(out)["result"]
    assert len(result["vertices"]) == 3
    assert len(result["bounded_edges"]) == 3
    assert len(result["rays"]) == 3


def test_tropical_svg(run):
    code, out, _ = run("tropical", P2, "--format", "svg")
    assert code == 0
    assert out.startswith('<?xml version="1.0"')
    assert out.count('class="ray"') == 3


def test_picard_ranks(run):
    code, out, _ = run("picard", P2)
    assert code == 0
    assert out_json(out)["result"]["rank"] == 1
    code, out2, _ = run("picard", A2D)
    assert code == 0
    assert json.loads(out2)["result"]["rank"] == 9


def test_picard_size_limit(run, monkeypatch, tmp_path):
    """hex_grid(21) has 484 points and 1281 interior edges: refused before the balancing map is built."""
    sub = hex_grid(21)
    doc = tmp_path / "hex21.json"
    doc.write_text(json.dumps({
        "format": "tropcoh-input", "version": 1, "points": [list(p) for p in sub.points],
        "triangles": [list(t) for t in sub.triangles], "nu": list(sub.nu),
    }))

    def no_kernel_work(curve):
        raise AssertionError("phi_map ran")

    monkeypatch.setattr(bundles, "phi_map", no_kernel_work)
    code, out, err = run("picard", None, "--input", str(doc))
    assert (code, out) == (2, "")
    assert err == (
        f"error: the Picard basis of 481 vectors on 1281 interior edges has {481 * 1281} entries, "
        f"above the limit of {MAX_PICARD_CELLS}\n"
    )
    assert 481 * 1281 > MAX_PICARD_CELLS


def test_sphere_reports_rational_parts(run):
    code, out, _ = run("sphere", P2, "--ell", "cap_k1")
    assert code == 0
    result = out_json(out)["result"]
    assert result["thetas"][0] == ["1/2", 0]


def test_winding_named_set(run):
    code, out, _ = run("winding", BLOWUP, "--ell", "mixed_sign")
    assert code == 0
    result = out_json(out)["result"]
    assert result["h_even"] == 10
    assert result["h_odd"] == 3
    assert len(result["entries"]) == 13
    assert [3, -6, 1] in result["entries"]
    assert [1, 0, -1] in result["entries"]


def test_winding_inline_ell(run):
    code, out, _ = run("winding", P2, "--ell", "3,3,3")
    assert code == 0
    assert out_json(out)["result"]["h_even"] == 1


def test_winding_is_deterministic(run):
    _, first, _ = run("winding", BLOWUP, "--ell", "mixed_sign", "--seed", "7")
    _, second, _ = run("winding", BLOWUP, "--ell", "mixed_sign", "--seed", "7")
    assert first == second
    assert out_json(first)["seed"] == 7


def test_winding_svg_marks(run):
    code, out, _ = run("winding", BLOWUP, "--ell", "mixed_sign", "--format", "svg")
    assert code == 0
    assert out.count('class="winding-point"') == 13


def test_winding_requires_ell(run):
    code, _, err = run("winding", P2)
    assert code == 2
    assert "--ell is required" in err


def test_winding_rejects_bad_parity(run):
    code, _, err = run("winding", P2, "--ell", "bad_parity")
    assert code == 2
    assert "parity" in err


@pytest.mark.parametrize(
    "command", ["sphere", "winding", "cohomology", "verify-winding-theorem", "smooth-check"]
)
def test_twisting_commands_name_every_issue(run, command):
    code, out, err = run(command, P2, "--ell", "2,3,3")
    assert code == 2
    assert out == ""
    assert err == (
        "error: invalid twisting numbers: parity: edge 0: twist 2 and self-intersection 1 "
        "differ mod 2; balance: edge sum (-1, 1) is not zero\n"
    )


@pytest.mark.parametrize(
    "command, extra",
    [
        ("validate", ()),
        ("picard", ()),
        ("cohomology", ("--ell", "3,3,3")),
        ("verify-winding-theorem", ("--ell", "3,3,3")),
        ("smooth-check", ("--ell", "3,3,3")),
        ("a2d", ("--d", "3")),
    ],
)
def test_format_only_where_an_svg_exists(run, command, extra):
    """Only tropical, sphere and winding draw a figure; elsewhere --format is unknown."""
    fixture = None if command == "a2d" else P2
    code, out, err = run(command, fixture, *extra, "--format", "svg")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --format svg" in err
    assert run(command, fixture, *extra)[0] == 0


def test_cohomology_golden(run):
    code, out, _ = run("cohomology", BLOWUP, "--ell", "mixed_sign")
    assert code == 0
    result = out_json(out)["result"]
    assert result["dims"] == [10, 3, 0]
    assert result["divisor_coeffs"] == [0, 0, -3, 6]
    assert result["restriction_degrees"] == [6, -3, 6, 3]


def test_verify_winding_theorem_passes(run):
    code, out, _ = run("verify-winding-theorem", BLOWUP, "--ell", "mixed_sign")
    assert code == 0
    result = out_json(out)["result"]
    assert result["ok"] is True
    assert result["dims"] == [10, 3, 0]


def test_verify_winding_theorem_mismatch_exit(run, monkeypatch):
    def fake(theta):
        return WindingTheoremReport(5, 0, CohomologyDims(4, 0, 0), False)

    monkeypatch.setattr(cohomology, "verify_winding_theorem", fake)
    code, out, _ = run("verify-winding-theorem", BLOWUP, "--ell", "mixed_sign")
    assert code == 1
    assert out_json(out)["result"]["ok"] is False


def test_passing_report_has_no_witness(run):
    _, out, _ = run("verify-winding-theorem", BLOWUP, "--ell", "mixed_sign")
    assert "witness" not in out_json(out)["result"]


def test_mismatch_report_names_the_witness(run, monkeypatch):
    def shifted(theta):
        psi = psi_from_theta(theta)
        values = list(divisor_coeffs(psi))
        values[-1] += 2
        return psi_from_ray_values(psi.fan, values)

    monkeypatch.setattr(cohomology, "psi_from_theta", shifted)
    code, out, _ = run("verify-winding-theorem", BLOWUP, "--ell", "mixed_sign")
    assert code == 1
    result = out_json(out)["result"]
    assert result["ok"] is False
    # test_cohomology checks this point against a brute-force scan
    assert result["witness"] == {"point": [3, -8], "winding": 0, "sign_pattern": 1}


def test_winding_table_size_limit(run):
    code, out, err = run("winding", P2, "--ell", "100001,100001,100001")
    assert code == 2
    assert out == ""
    assert f"winding table box has 2500400016 points, above the limit of {MAX_TABLE_POINTS}" in err


@pytest.mark.parametrize(
    "command, what",
    [("cohomology", "the cohomology search box"), ("verify-winding-theorem", "the winding sweep")],
)
def test_sweep_row_limit(run, command, what):
    ell = 2 * MAX_SWEEP_ROWS + 1
    code, out, err = run(command, P2, "--ell", f"{ell},{ell},{ell}")
    assert code == 2
    assert out == ""
    assert f"{what} spans " in err
    rows = int(err.split(" spans ")[1].split()[0])
    assert rows > MAX_SWEEP_ROWS
    assert f"above the limit of {MAX_SWEEP_ROWS}" in err


def test_twists_far_beyond_the_box_scan_run(run):
    code, out, _ = run("verify-winding-theorem", P2, "--ell", "100001,100001,100001")
    assert code == 0
    assert out_json(out)["result"]["h_even"] == 50000 * 50001 // 2


def test_cli_import_loads_neither_numpy_nor_jsonschema(fixture_dir):
    """A fresh process loads only the modules its command runs, and neither jsonschema nor numpy.

    Nor does it load `dataclasses` (with `inspect`) before a command that needs it, or the
    curve modules before a command that builds a curve.
    """
    src = str(Path(tropcoh.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    p2, blowup, a2d = (str(fixture_dir / name) for name in (P2, BLOWUP, A2D))
    # p2's kink set is checked on the index, so no validate builds a fan or a curve
    validate = [["validate", "--input", blowup], ["validate", "--input", a2d], ["validate", "--input", p2]]
    lean = [
        ["tropical", "--input", blowup],
        ["tropical", "--input", a2d, "--format", "svg"],
    ]
    rest = [
        ["sphere", "--input", p2, "--ell", "cap_k1"],
        ["winding", "--input", blowup, "--ell", "mixed_sign"],
        ["cohomology", "--input", a2d, "--ell", "difference_c1"],
        ["verify-winding-theorem", "--input", blowup, "--ell", "mixed_sign"],
    ]
    picard = [["picard", "--input", a2d]]
    sphere = [
        ["sphere", "--input", p2, "--ell", "cap_k1"],
        ["sphere", "--input", a2d, "--ell", "difference_c2", "--format", "svg"],
    ]
    chain = [["a2d", "--d", "3"]]
    smooth = [["smooth-check", "--input", p2, "--ell", "cap_k1", "--samples", "4"]]
    code = textwrap.dedent(
        """
        import contextlib, io, json, sys
        from tropcoh.cli import main
        watched = {"numpy", "jsonschema", "dataclasses", "tropcoh.fan", "tropcoh.tropical", "tropcoh.spheres",
                   "tropcoh.winding", "tropcoh.cohomology", "tropcoh.ext_chains", "tropcoh.bundles"}
        loaded = [sorted(watched & set(sys.modules))]
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for group in json.loads(sys.argv[1]):
                codes += [main(argv) for argv in group]
                loaded.append(sorted(watched & set(sys.modules)))
        print(json.dumps([codes, loaded]))
        """
    )

    def loaded_after(*groups):
        out = subprocess.run(
            [sys.executable, "-c", code, json.dumps(groups)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        codes, loaded = json.loads(out)
        assert codes == [0] * sum(map(len, groups))
        return loaded

    after_import, after_validate, after_lean, after_rest = loaded_after(validate, lean, rest)
    assert after_import == after_validate == []
    assert after_lean == ["tropcoh.fan", "tropcoh.tropical"]
    assert "numpy" not in after_rest and "jsonschema" not in after_rest
    assert "tropcoh.cohomology" in after_rest
    # winding and cohomology keep their reports as dataclasses: tropbench's twist_count
    # corruptions call dataclasses.replace on WindingTheoremReport, CohomologyDims and
    # WindingTable (tropbench/workloads.py, TwistCount.corruptions)
    assert "dataclasses" in after_rest
    # only picard (the balancing map) and a2d (the canonical classes) load bundles
    assert "tropcoh.bundles" not in after_rest
    assert loaded_after(validate, picard, sphere)[1:] == [
        [],
        ["tropcoh.bundles", "tropcoh.fan", "tropcoh.tropical"],
        ["tropcoh.bundles", "tropcoh.fan", "tropcoh.spheres", "tropcoh.tropical"],
    ]
    # a2d reads its chain off the curve; smooth-check needs neither winding counts nor cohomology
    assert loaded_after(chain)[1:] == [
        ["dataclasses", "tropcoh.bundles", "tropcoh.ext_chains", "tropcoh.fan", "tropcoh.tropical"]
    ]
    after_smooth = loaded_after(smooth)[1]
    assert "tropcoh.winding" not in after_smooth and "tropcoh.cohomology" not in after_smooth


@pytest.mark.parametrize("field, value", [("margin", 2.0), ("nu", 2.0)])
def test_options_take_json_integers_only(run, fixture_dir, tmp_path, field, value):
    """Draft 7 takes 2.0 as an integer; cohomology then failed with a TypeError traceback.

    margin and the options section that held it are gone, so any value of it is
    refused as unexpected.
    """
    raw = json.loads((fixture_dir / P2).read_bytes())
    if field == "margin":
        raw["options"] = {field: value}
        expected = f"invalid input at document root: {OPTIONS_UNEXPECTED}"
    else:
        raw["nu"][0] = value
        expected = f"invalid input at /nu/0: {value!r} is not of type 'integer'"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    for command in ("cohomology", "smooth-check"):
        code, out, err = run(command, None, "--input", str(bad), "--ell", "cap_k1")
        assert code == 2
        assert out == ""
        assert err == f"error: {expected}\n"


def test_deeply_nested_document(run, tmp_path):
    bad = tmp_path / "deep.json"
    bad.write_bytes(b"[" * 100000 + b"]" * 100000)
    code, out, err = run("validate", None, "--input", str(bad))
    assert code == 2
    assert out == ""
    assert err == "error: parse error: arrays or objects nested too deeply\n"


def test_region_by_index_and_vertex(run):
    code1, out1, _ = run("winding", A2D, "--ell", "difference_c2", "--region", "1")
    code2, out2, _ = run("winding", A2D, "--ell", "difference_c2", "--region", "2,1")
    assert code1 == code2 == 0
    assert out1 == out2


def test_region_out_of_range(run):
    # a negative index must not count regions from the end
    for index in ("5", "-1", "-3"):
        code, out, err = run("winding", A2D, "--ell", "difference_c1", "--region", index)
        assert code == 2
        assert out == ""
        assert f"region index {index} out of range" in err


def test_threads_flag_is_gone(run):
    code, out, err = run("winding", BLOWUP, "--ell", "mixed_sign", "--threads", "2")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --threads" in err


def test_a2d_passes(run):
    code, out, _ = run("a2d", None, "--d", "3")
    assert code == 0
    result = out_json(out)["result"]
    assert result["ok"] is True
    assert result["chain"] == ["N1", "L1", "N2", "L2", "N3"]
    assert len(result["checks"]) == 10
    assert len(result["assumptions"]) == 3


def test_a2d_rejects_zero(run):
    code, _, err = run("a2d", None, "--d", "0")
    assert code == 2
    assert "must be positive" in err


@pytest.mark.parametrize("d", [MAX_A2D_D + 1, 10**5])
def test_a2d_size_limit(run, d):
    code, out, err = run("a2d", None, "--d", str(d))
    assert code == 2
    assert out == ""
    assert f"the a2d chain at d = {d} is above the limit of d = {MAX_A2D_D}" in err


def test_smooth_check(run):
    code, out, _ = run("smooth-check", P2, "--ell", "cap_k1", "--samples", "4")
    assert code == 0
    result = out_json(out)["result"]
    assert result["ok"] is True
    assert result["convexity"] == "convex"
    assert "witness" not in result


@pytest.mark.parametrize(
    "ell, eps", [("cap_k1", "0.075"), ("cap_k1", "0.05"), ("cap_k_minus2", "0.075"), ("cap_k_minus2", "0.05")]
)
def test_smooth_check_passes_at_small_radii(run, ell, eps):
    """Near the fan vertex one eigenvalue is far below the other; it is read without cancellation."""
    code, out, _ = run("smooth-check", P2, "--ell", ell, "--epsilon", eps, "--order", "64")
    assert code == 0
    result = out_json(out)["result"]
    assert (result["ok"], result["hessian_failures"]) == (True, 0)
    assert result["min_abs_eigenvalue"] > 0


def test_smooth_check_defaults_come_from_the_flags(run):
    code, out, _ = run("smooth-check", P2, "--ell", "cap_k1")
    assert code == 0
    result = out_json(out)["result"]
    assert (result["epsilon"], result["quadrature_order"]) == (0.25, 24)


@pytest.mark.parametrize("options", [{}, {"epsilon": 0.5}, {"epsilon": 0.5, "quadrature_order": 8}])
@pytest.mark.parametrize("command", ["validate", "smooth-check"])
def test_a_document_with_options_is_refused(run, fixture_dir, tmp_path, options, command):
    """The mollifier radius and quadrature order are set by --epsilon and --order alone."""
    raw = json.loads((fixture_dir / P2).read_bytes())
    raw["options"] = options
    doc = tmp_path / "options.json"
    doc.write_text(json.dumps(raw))
    ell = ("--ell", "cap_k1") if command == "smooth-check" else ()
    code, out, err = run(command, None, "--input", str(doc), *ell)
    assert code == 2
    assert out == ""
    assert err == f"error: invalid input at document root: {OPTIONS_UNEXPECTED}\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--samples", "0"), "sample count must be positive"),
        (("--samples", "-5"), "sample count must be positive"),
        (("--epsilon", "0"), "radius must be positive"),
        (("--epsilon", "-1"), "radius must be positive"),
        (("--order", "0"), "order must be positive"),
        (("--epsilon", "1e160"), "radius 1e+160 is too large: 1/eps^2 underflows"),
    ],
)
def test_smooth_check_rejects_bad_flags(run, flags, message):
    code, out, err = run("smooth-check", P2, "--ell", "cap_k1", *flags)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--order", str(smoothing.MAX_QUADRATURE_ORDER + 1)), "quadrature order 401 is above the limit of 400"),
        (("--samples", str(smoothing.MAX_SAMPLES + 1)), "10001 Hessian samples is above the limit of 10000"),
        (
            ("--samples", "105", "--order", "400"),
            "105 Hessian samples on 3 rays at quadrature order 400 take about 100800000 quadrature nodes,"
            " above the limit of 100000000",
        ),
        (
            ("--samples", str(smoothing.MAX_SAMPLES), "--order", "400"),
            "10000 Hessian samples on 3 rays at quadrature order 400 take about 9600000000 quadrature nodes,"
            " above the limit of 100000000",
        ),
    ],
)
def test_smooth_check_size_limits(run, monkeypatch, flags, message):
    def refuse(*args):
        raise AssertionError("quadrature started")

    monkeypatch.setattr(smoothing, "_wall_weights", refuse)
    code, out, err = run("smooth-check", P2, "--ell", "cap_k1", *flags)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("sign", [1, -1])
def test_smooth_check_theta_size_limit(run, sign):
    """Below the limit the float checks pass; above it, where roundoff would fail them, exit 2."""
    limit = smoothing.MAX_DOUBLED_THETA
    code, out, _ = run("smooth-check", P2, "--ell", ",".join([str(sign * (limit - 1))] * 3))
    assert code == 0
    assert out_json(out)["result"]["max_gamma_distance"] < 1e-6
    for ell in (limit + 1, 10**12 + 1, 10**400 + 1):
        code, out, err = run("smooth-check", P2, "--ell", ",".join([str(sign * ell)] * 3))
        assert code == 2
        assert out == ""
        assert err.startswith("error: a doubled theta coordinate is ")
        assert err.endswith(f", above the limit of {limit}\n")


def test_svg_outside_the_float_range_exits_2(run, fixture_dir, tmp_path):
    raw = json.loads((fixture_dir / P2).read_bytes())
    raw["nu"] = [x * 10**400 for x in raw["nu"]]
    doc = tmp_path / "huge.json"
    doc.write_text(json.dumps(raw))
    huge = ",".join([str(10**400 + 1)] * 3)
    for argv in (("tropical", None, "--input", str(doc)), ("sphere", P2, "--ell", huge)):
        code, out, err = run(*argv, "--format", "svg")
        assert code == 2
        assert out == ""
        assert err == "error: the figure's coordinates lie outside the float range\n"


def test_failed_hessian_sample_is_the_witness(run, monkeypatch):
    real = smoothing._wall_weights
    bad = []

    def flipped(f, p, points):
        g, c = real(f, p, points)
        c[2] = -c[2]  # the third Hessian sample turns negative definite
        bad.extend((points[2], f.theta.fan.rays, c[2].tolist()))
        return g, c

    monkeypatch.setattr(smoothing, "_wall_weights", flipped)
    code, out, _ = run("smooth-check", P2, "--ell", "cap_k1", "--samples", "4")
    assert code == 1
    result = out_json(out)["result"]
    assert result["ok"] is False
    assert result["hessian_failures"] == 1
    point, rays, c = bad
    normals = [np.array([-u[1], u[0]]) / math.hypot(*u) for u in rays]
    want = np.linalg.eigvalsh(sum(cj * np.outer(n, n) for cj, n in zip(c, normals)))
    witness = result["witness"]["hessian"]
    assert witness["point"] == list(point)
    assert max(want) < 0
    assert np.allclose(witness["eigenvalues"], want, rtol=1e-12, atol=0)
    assert "gradient" not in result["witness"]


def test_failed_gradient_sample_is_the_witness(run, monkeypatch):
    real = smoothing._wall_weights
    seen = []

    def shifted(f, p, points):
        g, c = real(f, p, points)
        # the points out along the rays follow the 4 Hessian samples
        seen.extend((x, tuple(gx)) for x, gx in zip(points[4:], g[4:].tolist()))
        g[5, 0] += 0.5
        return g, c

    monkeypatch.setattr(smoothing, "_wall_weights", shifted)
    code, out, _ = run("smooth-check", P2, "--ell", "cap_k1", "--samples", "4")
    assert code == 1
    result = out_json(out)["result"]
    assert result["hessian_failures"] == 0
    assert result["max_gamma_distance"] > 1e-5
    assert "hessian" not in result["witness"]
    witness = result["witness"]["gradient"]
    point, g = seen[1]
    assert witness["point"] == list(point)
    assert witness["gradient"] == [g[0] + 0.5, g[1]]
    assert witness["gamma_distance"] == result["max_gamma_distance"]
    assert witness["hull_excess"] <= result["max_hull_excess"]


@pytest.mark.parametrize(
    "command", ["sphere", "winding", "cohomology", "verify-winding-theorem", "smooth-check"]
)
def test_negative_inline_ell_needs_no_equals_sign(run, command):
    spaced = run(command, P2, "--ell", "-3,-3,-3")
    joined = run(command, P2, "--ell=-3,-3,-3")
    assert spaced == joined
    assert spaced[0] == 0


@pytest.mark.parametrize(
    "command", ["sphere", "winding", "cohomology", "verify-winding-theorem", "smooth-check"]
)
def test_region_at_a_negative_vertex_needs_no_equals_sign(run, fixture_dir, tmp_path, command):
    # p2 moved one step left: the bounded region is dual to (-1, 0)
    raw = json.loads((fixture_dir / P2).read_bytes())
    raw["points"] = [[x - 1, y] for x, y in raw["points"]]
    raw["twisting_sets"] = {}
    doc = tmp_path / "p2_left.json"
    doc.write_text(json.dumps(raw))
    spaced = run(command, None, "--input", str(doc), "--ell", "3,3,3", "--region", "-1,0")
    joined = run(command, None, "--input", str(doc), "--ell", "3,3,3", "--region=-1,0")
    assert spaced == joined
    assert spaced[0] == 0
    assert out_json(spaced[1])["result"]["region"] == [-1, 0]


def test_missing_input_file(run, tmp_path):
    code, _, err = run("winding", None, "--input", str(tmp_path / "nope.json"), "--ell", "1,1,1")
    assert code == 2
    assert "cannot read" in err


def test_out_writes_the_report_into_a_new_directory(run, tmp_path):
    code, out, _ = run("validate", P2, "--out", str(tmp_path / "new" / "dir"))
    assert code == 0
    assert out == ""
    report = json.loads((tmp_path / "new" / "dir" / "validate.json").read_bytes())
    assert report["command"] == "validate"


@pytest.mark.parametrize("under", ["", "sub"])
def test_out_that_is_a_file_is_an_input_error(run, tmp_path, under):
    afile = tmp_path / "afile"
    afile.write_bytes(b"kept")
    code, out, err = run("validate", P2, "--out", str(afile / under))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {afile / under / 'validate.json'}: ")
    assert afile.read_bytes() == b"kept"


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_a_report_that_stdout_refuses_is_an_input_error(run, monkeypatch, failing):
    """A full disk or a closed pipe on stdout exits 2, as an unwritable --out does."""

    class FullStdout:
        def write(self, text):
            if failing == "write":
                raise OSError(28, "No space left on device")
            return len(text)

        def flush(self):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(sys, "stdout", FullStdout())
    code, _, err = run("validate", P2)
    assert code == 2
    assert err == "error: cannot write stdout: No space left on device\n"


def test_invalid_document(run, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"{")
    code, _, err = run("validate", None, "--input", str(bad))
    assert code == 2
    assert "parse error" in err


def test_integer_literal_past_the_digit_limit(run, fixture_dir, tmp_path):
    text = (fixture_dir / P2).read_text()
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace('"nu": [', '"nu": [' + "9" * 5000 + ",", 1))
    code, out, err = run("validate", None, "--input", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: parse error: Exceeds the limit (4300 digits)")


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_non_json_constant_in_document(run, fixture_dir, tmp_path, token):
    raw = json.loads((fixture_dir / P2).read_bytes())
    raw["nu"][0] = float(token.lower())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, out, err = run("validate", None, "--input", str(bad))
    assert code == 2
    assert out == ""
    assert f"{token} is not a JSON value" in err


@pytest.mark.parametrize(
    "kinks, message",
    [
        ([-3, -3], "2 kinks for 3 interior edges"),
        ([1, 0, 0], "not a cocycle: inconsistent around region (0, 0)"),
    ],
)
def test_kink_sets_are_checked(run, fixture_dir, tmp_path, kinks, message):
    raw = json.loads((fixture_dir / P2).read_bytes())
    raw["kink_sets"]["bad"] = kinks
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, out, err = run("validate", None, "--input", str(bad))
    assert code == 2
    assert out == ""
    assert f"invalid input at /kink_sets/bad: {message}" in err


@pytest.mark.parametrize(
    "section, name, entry, where",
    [
        ("kink_sets", "a/b", [1, 0, 0], "/kink_sets/a~1b: not a cocycle"),
        ("twisting_sets", "x~y", {"values": [1, "2", 3]}, "/twisting_sets/x~0y/values"),
    ],
)
def test_error_paths_escape_set_names(run, fixture_dir, tmp_path, section, name, entry, where):
    """Set names are JSON-pointer parts: "~" is written "~0" and "/" is written "~1"."""
    raw = json.loads((fixture_dir / P2).read_bytes())
    raw[section][name] = entry
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, out, err = run("validate", None, "--input", str(bad))
    assert code == 2
    assert out == ""
    assert f"invalid input at {where}" in err


def test_library_raises_no_assertion_errors():
    """python -O strips an assert, and an AssertionError escapes as a traceback."""
    found = []
    for path in sorted(Path(tropcoh.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno} assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno} raise AssertionError")
    assert found == []


def test_benchmark_and_tools_import_only_existing_names():
    """Every `from tropcoh.X import name` in tropbench/ and tools/ names something that exists."""
    root = Path(__file__).resolve().parents[1]
    missing = []
    checked = 0
    for path in sorted([*root.glob("tropbench/*.py"), *root.glob("tools/*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tropcoh"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    checked += 1
                    if not hasattr(module, alias.name):
                        missing.append(f"{path.name}:{node.lineno} {node.module}.{alias.name}")
    assert checked > 0
    assert missing == []


def test_unknown_command_exits_two(run):
    code, _, _ = run("frobnicate", None)
    assert code == 2


def test_a_failed_internal_invariant_exits_three(run, monkeypatch):
    real = polytope.CheckedSubdivision.link

    def broken(self, p):
        # one triangle of the star lost: the walk round the link cannot close
        link = real(self, p)
        del link[min(link)]
        return link

    monkeypatch.setattr(polytope.CheckedSubdivision, "link", broken)
    code, out, err = run("sphere", P2, "--ell", "cap_k1")
    assert (code, out) == (3, "")
    assert err.startswith("internal error: the link of ") and err.rstrip().endswith("does not close")


def test_out_directory(run, fixture_dir, tmp_path):
    out_dir = tmp_path / "reports"
    code, out, _ = run(
        "verify-winding-theorem", BLOWUP, "--ell", "mixed_sign", "--out", str(out_dir)
    )
    assert code == 0
    assert out == ""
    written = out_dir / "verify_winding_theorem.json"
    assert written.exists()
    assert json.loads(written.read_bytes())["result"]["ok"] is True


def test_out_directory_svg(run, tmp_path):
    out_dir = tmp_path / "figs"
    code, _, _ = run("tropical", P2, "--format", "svg", "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "tropical.svg").read_bytes().startswith(b"<?xml")
