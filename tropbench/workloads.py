"""The four workloads: the timed job, its gate, trace-only probes and self-test corruptions.

``job`` is the only timed call.  ``probe`` runs after a traced job, outside
its span, and times calls the job makes only internally (per-call layer
times).  ``corruptions`` feed each gate a deliberately wrong answer.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import inputs
from gates import cli_gate, curve_gate, smooth_gate, twist_gate
from tropcoh.bundles import canonical_KC, phi_map
from tropcoh.cli import main as cli_main
from tropcoh.cohomology import cohomology_dims, psi_from_theta, verify_winding_theorem
from tropcoh.ext_chains import build_a2d_example, verify_a2d_configuration
from tropcoh.fan import fan_at_vertex, make_fan
from tropcoh.io import parse_input, report_bytes
from tropcoh.lattice import LatticeError
from tropcoh.polytope import edges, interior_vertices, validate
from tropcoh.smoothing import FanPL, MollifierParams, check_hessian_definiteness, grad, hessian, mollify_eval
from tropcoh.spheres import theta_from_twisting, twisting
from tropcoh.svg import render_svg
from tropcoh.tropical import bounded_regions, tropical_curve
from tropcoh.winding import winding_table

SAMPLES = 24  # Hessian samples per smooth_check job
EPSILON = 0.25


def tropcoh_caches() -> list[tuple[str, object]]:
    """Every functools cache defined in a loaded tropcoh module."""
    found = []
    for modname, mod in sorted(sys.modules.items()):
        if modname != "tropcoh" and not modname.startswith("tropcoh."):
            continue
        for attr, obj in sorted(vars(mod).items()):
            if callable(getattr(obj, "cache_clear", None)) and getattr(obj, "__module__", None) == modname:
                found.append((f"{modname}.{attr}", obj))
    return found


def clear_caches() -> None:
    for _, fn in tropcoh_caches():
        fn.cache_clear()


def cache_stats() -> dict[str, tuple[int, int]]:
    return {name: (fn.cache_info().hits, fn.cache_info().misses) for name, fn in tropcoh_caches()}


# ----------------------------------------------------------------- curve_build


@dataclass(frozen=True)
class CurveOut:
    report: object
    curve: object
    regions: tuple
    phi: object
    kernel: tuple
    kcs: list


class CurveBuild:
    name = "curve_build"
    in_process = True
    min_rounds = 3
    tail_pct = 84

    def cases(self, seed):
        return inputs.curve_cases(seed)

    def probe_cases(self, seed):
        return inputs.curve_cases(seed)[:1]

    def label(self, case):
        return f"{case.family}-{case.size}"

    def job(self, t, case):
        if t.enabled:
            # computed first so validate and the curve reuse it, as they would untraced
            t.call("polytope.edges", edges, case.sub)
        report = t.call("polytope.validate", validate, case.sub)
        curve = t.call("tropical.tropical_curve", tropical_curve, case.sub)
        regions = t.call("tropical.bounded_regions", bounded_regions, curve)
        phi = t.call("bundles.phi_map", phi_map, curve)
        kernel = t.call("lattice.integer_kernel", phi.kernel_vectors)
        kcs = t.call("bundles.canonical_KC", lambda: [canonical_KC(r) for r in regions])
        return CurveOut(report, curve, regions, phi, tuple(kernel), kcs)

    def probe(self, t, case, out):
        cells = sum(len(row) for row in out.phi.matrix)
        t.count("polytope.triangles", len(case.sub.triangles))
        t.count("tropical.regions", len(out.regions))
        t.count("lattice.kernel_rank", len(out.kernel))
        t.count("bundles.phi_cells", cells)
        t.count("bundles.phi_nonzeros", sum(1 for row in out.phi.matrix for x in row if x))
        for v in interior_vertices(case.sub):
            t.call("fan.fan_at_vertex", fan_at_vertex, case.sub, v)

    def gate(self, case, out, seed):
        return curve_gate(case, out)

    def signature(self, out):
        return (len(out.curve.vertices), len(out.regions), hash(repr(out.kernel)), hash(repr(out.kcs)))

    def sizes(self, case, out):
        return {
            "points": len(case.sub.points),
            "triangles": len(case.sub.triangles),
            "regions": len(out.regions),
        }

    def corruptions(self, case, out):
        kc = dict(out.kcs[0])
        kc[out.regions[0].edge_keys[0]] += 1
        return {
            "picard rank off by one": dataclasses.replace(out, kernel=out.kernel[:-1]),
            "unbalanced canonical class": dataclasses.replace(out, kcs=[kc] + out.kcs[1:]),
            "region dropped": dataclasses.replace(out, regions=out.regions[1:]),
        }

    def fact(self, out):
        return len(out.kernel)

    def vacuity(self, facts):
        return [] if all(facts) else ["a curve_build case has Picard rank 0"]


# ----------------------------------------------------------------- twist_count


@dataclass
class TwistOut:
    theta: object
    report: object
    table: object = None  # built by the gate, outside the timed job


class TwistCount:
    name = "twist_count"
    in_process = True
    min_rounds = 3
    tail_pct = 86

    def cases(self, seed):
        return inputs.twist_cases(seed)

    def probe_cases(self, seed):
        return [next(c for c in inputs.twist_cases(seed) if c.kind == "p2")]

    def label(self, case):
        return f"{case.kind}-{max(abs(x) for x in case.ell)}"

    def job(self, t, case):
        tw = t.call("spheres.twisting", twisting, case.source, case.ell)
        theta = t.call("spheres.theta_from_twisting", theta_from_twisting, tw)
        report = t.call("cohomology.verify_winding_theorem", verify_winding_theorem, theta)
        return TwistOut(theta, report)

    def probe(self, t, case, out):
        table = t.call("winding.winding_table", winding_table, out.theta)
        dims = t.call("cohomology.cohomology_dims", cohomology_dims, psi_from_theta(out.theta))
        xmin, ymin, xmax, ymax = table.bounds
        t.count("winding.box_points", (xmax - xmin + 1) * (ymax - ymin + 1))
        t.count("winding.entries", len(table.entries))
        t.count("cohomology.h_total", dims.h0 + dims.h1 + dims.h2)

    def gate(self, case, out, seed):
        if out.table is None:
            out.table = winding_table(out.theta)
        return twist_gate(case, out.theta, out.report, out.table, seed)

    def signature(self, out):
        return (out.report.h_even, out.report.h_odd, out.report.dims)

    def sizes(self, case, out):
        sizes = {"rays": len(out.theta.fan.rays), "max_abs_ell": max(abs(x) for x in case.ell)}
        if out.table is not None:
            xmin, ymin, xmax, ymax = out.table.bounds
            sizes["box_points"] = (xmax - xmin + 1) * (ymax - ymin + 1)
        return sizes

    def corruptions(self, case, out):
        rep = out.report
        table = winding_table(out.theta)
        wrong = dict(table.entries)
        p = next(iter(wrong), (table.bounds[0] + 1, table.bounds[1] + 1))
        wrong[p] = wrong.get(p, 0) + 1
        return {
            "h1 off by one": TwistOut(
                out.theta, dataclasses.replace(rep, dims=dataclasses.replace(rep.dims, h1=rep.dims.h1 + 1)), table
            ),
            "odd total off by one": TwistOut(out.theta, dataclasses.replace(rep, h_odd=rep.h_odd + 1), table),
            "table entry changed": TwistOut(out.theta, rep, dataclasses.replace(table, entries=wrong)),
        }

    def fact(self, out):
        return (out.report.dims.h1, len(out.table.entries) if out.table is not None else 0)

    def vacuity(self, facts):
        problems = []
        if not any(h1 > 0 for h1, _ in facts):
            problems.append("no twist_count case has h1 > 0")
        if not any(entries for _, entries in facts):
            problems.append("every winding table is empty")
        return problems


# ---------------------------------------------------------------- smooth_check


class SmoothCheck:
    name = "smooth_check"
    in_process = True
    min_rounds = 5
    tail_pct = 60

    def cases(self, seed):
        return inputs.smooth_cases(seed)

    def probe_cases(self, seed):
        return inputs.smooth_cases(seed)[:1]

    def label(self, case):
        return f"{case.kind}-{case.convexity}-{len(case.theta.fan.rays)}"

    def job(self, t, case):
        params = MollifierParams(epsilon=EPSILON)
        return t.call(
            "smoothing.check_hessian_definiteness", check_hessian_definiteness, case.theta, params, SAMPLES
        )

    def probe(self, t, case, out):
        f = FanPL(case.theta)
        params = MollifierParams(epsilon=EPSILON)
        point = (EPSILON / 5, EPSILON / 7)
        t.call("smoothing.hessian", hessian, f, params, point)
        t.call("smoothing.grad", grad, f, params, point)
        t.call("smoothing.mollify_eval", mollify_eval, f, params, point)
        t.count("smoothing.hessian_samples", out.hessian_samples)
        t.count("smoothing.grad_samples", out.grad_samples)

    def gate(self, case, out, seed):
        return smooth_gate(case, out, SAMPLES)

    def signature(self, out):
        return out

    def sizes(self, case, out):
        return {"rays": len(case.theta.fan.rays), "hessian_samples": out.hessian_samples}

    def corruptions(self, case, out):
        other = "concave" if out.convexity == "convex" else "convex"
        return {
            "wrong convexity class": dataclasses.replace(out, convexity=other),
            "a failed Hessian sample": dataclasses.replace(out, hessian_failures=1),
        }

    def fact(self, out):
        return out.convexity

    def known_defects(self):
        """Re-run the recorded defect witness, outside the timed phase; it is not a failed job."""
        rays, ell = inputs.QUADRATURE_DEFECT
        theta = theta_from_twisting(twisting(make_fan(rays), ell))
        try:
            check_hessian_definiteness(theta, MollifierParams(epsilon=EPSILON), SAMPLES)
        except LatticeError as exc:
            return {"quadrature order too low": f"reproduces: {exc}"}
        return {"quadrature order too low": "no longer raises"}

    def vacuity(self, facts):
        seen = set(facts)
        return [] if seen == {"convex", "concave"} else [f"convexity classes seen: {sorted(seen)}"]


# -------------------------------------------------------------------- cli_cold


@dataclass(frozen=True)
class CliOut:
    returncode: int
    stdout: bytes


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def in_process_main(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(argv))
    if code not in (0, 1):
        raise RuntimeError(f"main({list(argv)}) exited with {code}")
    return buf.getvalue()


class CliCold:
    name = "cli_cold"
    in_process = False
    min_rounds = 1
    tail_pct = 74

    def __init__(self):
        self.env = child_env()

    def cases(self, seed):
        return inputs.cli_cases(seed)

    def probe_cases(self, seed):
        svg = next(c for c in inputs.cli_cases(seed) if c.name == "tropical-svg-a2d_d3")
        return [svg, inputs.CliCase("a2d-10", ("a2d", "--d", "10"), check={"kind": "a2d", "d": 10})]

    def label(self, case):
        return case.name

    def job(self, t, case):
        proc = subprocess.run(
            [sys.executable, "-m", "tropcoh.cli", *case.argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.env,
            timeout=120,
        )
        return CliOut(proc.returncode, proc.stdout)

    def probe(self, t, case, out):
        argv = list(case.argv)
        clear_caches()
        t.call("cli.main", in_process_main, argv)
        if "--input" in argv:
            data = Path(argv[argv.index("--input") + 1]).read_bytes()
            clear_caches()
            doc = t.call("io.parse_input", parse_input, data)
            if "svg" in argv:
                t.call("svg.render_svg", render_svg, tropical_curve(doc.subdivision()))
        if out.stdout.startswith(b"{"):
            env = json.loads(out.stdout)
            encoded = t.call("io.report_bytes", report_bytes, env["command"], env["result"], env["seed"])
            t.count("io.report_bytes", len(encoded))
        if argv[0] == "a2d":
            example = build_a2d_example(int(argv[2]))
            report = t.call("ext_chains.verify_a2d_configuration", verify_a2d_configuration, example)
            t.count("ext_chains.checks", len(report.checks))

    def gate(self, case, out, seed):
        return cli_gate(case, out.returncode, out.stdout, seed)

    def signature(self, out):
        return out

    def sizes(self, case, out):
        return {"report_bytes": len(out.stdout)}

    def corruptions(self, case, out):
        flipped = bytes([out.stdout[0] ^ 1]) + out.stdout[1:] if out.stdout else b"x"
        return {
            "report byte changed": CliOut(out.returncode, flipped),
            "unexpected exit code": CliOut(out.returncode + 1, out.stdout),
        }

    def fact(self, out):
        return len(out.stdout)

    def vacuity(self, facts):
        return [] if all(facts) else ["a CLI job printed nothing"]


WORKLOADS = {w.name: w for w in (CliCold, CurveBuild, TwistCount, SmoothCheck)}
