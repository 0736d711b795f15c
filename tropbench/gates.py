"""Correctness gates, computed outside the timed spans.

Each gate returns a list of problems; an empty list means the job passed.
Counts come from the raw triangles (Pick's theorem, edge incidences) and
twisting totals from Riemann-Roch, not from the code under test.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction

from tropcoh.ext_chains import build_a2d_example, verify_a2d_configuration
from tropcoh.io import parse_input
from tropcoh.lattice import det2, rot90
from tropcoh.spheres import theta_from_twisting, twisting
from tropcoh.tropical import bounded_regions, tropical_curve
from tropcoh.winding import winding_table, winding_via_T_auto


def triangle_counts(triangles) -> tuple[int, int, int]:
    """(interior edges, boundary edges, interior vertices) of a unimodular triangulation.

    Pick's theorem with area = triangles / 2 and one boundary lattice point
    per boundary edge gives the interior vertices.
    """
    uses = Counter(frozenset(pair) for t in triangles for pair in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])))
    interior = sum(1 for c in uses.values() if c == 2)
    boundary = sum(1 for c in uses.values() if c == 1)
    return interior, boundary, (len(triangles) - boundary) // 2 + 1


def curve_gate(case, out) -> list[str]:
    problems = []
    interior, boundary, inner = triangle_counts(case.sub.triangles)
    if not out.report.ok:
        problems.append(f"validate rejected a valid subdivision: {out.report.issues[:1]}")
    if len(out.curve.vertices) != len(case.sub.triangles):
        problems.append(f"{len(out.curve.vertices)} curve vertices for {len(case.sub.triangles)} triangles")
    if len(out.curve.bounded) != interior:
        problems.append(f"{len(out.curve.bounded)} bounded edges for {interior} interior edges")
    if len(out.curve.rays) != boundary:
        problems.append(f"{len(out.curve.rays)} rays for {boundary} boundary edges")
    if len(out.regions) != inner:
        problems.append(f"{len(out.regions)} regions for {inner} interior vertices")
    if len(out.kernel) != interior - 2 * inner:
        problems.append(f"Picard rank {len(out.kernel)}, expected {interior - 2 * inner}")
    for region, kc in zip(out.regions, out.kcs):
        if any(out.phi.apply(kc)):
            problems.append(f"canonical_KC of region {region.dual_vertex} is not balanced")
            break
    if len(out.kcs) != len(out.regions):
        problems.append(f"{len(out.kcs)} canonical classes for {len(out.regions)} regions")
    return problems


def rr_chi(theta) -> int:
    """Riemann-Roch: chi(D) = 1 + (D.D - D.K)/2 for D = sum a_j D_j.

    a_j = -1/2 - <theta_j, u_j> is the ray value of the mirror bundle,
    D_j^2 = -det(u_{j-1}, u_{j+1}), D_j.D_{j+-1} = 1 and K = -sum D_j.
    """
    rays = theta.fan.rays
    r = len(rays)
    b = [-det2(rays[j - 1], rays[(j + 1) % r]) for j in range(r)]
    a = [-Fraction(1, 2) - (th[0] * u[0] + th[1] * u[1]) for th, u in zip(theta.thetas, rays)]
    if any(Fraction(x).denominator != 1 for x in a):
        raise ValueError("mirror ray values are not integral")
    dd = sum(a[j] * a[j] * b[j] for j in range(r)) + 2 * sum(a[j] * a[(j + 1) % r] for j in range(r))
    dk = -sum(a[j] * (b[j] + 2) for j in range(r))
    return int(1 + (dd - dk) / 2)


def theta_problems(theta, ell) -> list[str]:
    """theta_j - theta_{j-1} must equal (ell_j / 2) rot90(u_j) around the fan."""
    rays = theta.fan.rays
    for j, (u, l) in enumerate(zip(rays, ell)):
        step = rot90(u)
        got = (theta.thetas[j][0] - theta.thetas[j - 1][0], theta.thetas[j][1] - theta.thetas[j - 1][1])
        if got != (Fraction(l, 2) * step[0], Fraction(l, 2) * step[1]):
            return [f"theta jump at ray {u} is {got}, twist is {l}"]
    return []


def table_problems(theta, bounds, entries, h_even, h_odd, rng: random.Random) -> list[str]:
    """Totals against the entries, and a seeded sample of points against the ray oracle."""
    problems = []
    even = sum(w for w in entries.values() if w > 0)
    odd = -sum(w for w in entries.values() if w < 0)
    if (even, odd) != (h_even, h_odd):
        problems.append(f"table sums to ({even}, {odd}), totals say ({h_even}, {h_odd})")
    points = sorted(entries)
    sample = rng.sample(points, min(12, len(points)))
    xmin, ymin, xmax, ymax = bounds
    for _ in range(6):
        p = (rng.randint(xmin, xmax), rng.randint(ymin, ymax))
        sample.append(p)
    for p in sample:
        want = winding_via_T_auto(theta, p)
        if entries.get(p, 0) != want:
            problems.append(f"winding at {p} is {entries.get(p, 0)}, ray oracle gives {want}")
            break
    return problems


def twist_gate(case, theta, rep, table, seed: int) -> list[str]:
    problems = theta_problems(theta, case.ell)
    chi = rr_chi(theta)
    dims = rep.dims
    if dims.h0 - dims.h1 + dims.h2 != chi:
        problems.append(f"h0-h1+h2 = {dims.h0 - dims.h1 + dims.h2}, Riemann-Roch gives {chi}")
    if rep.h_even - rep.h_odd != chi:
        problems.append(f"h_even-h_odd = {rep.h_even - rep.h_odd}, Riemann-Roch gives {chi}")
    if not rep.ok:
        problems.append("verify_winding_theorem reported a mismatch")
    if table is not None:
        problems += table_problems(theta, table.bounds, table.entries, rep.h_even, rep.h_odd, random.Random(seed))
    return problems


def smooth_gate(case, rep, samples: int) -> list[str]:
    problems = []
    if not rep.ok:
        problems.append(
            f"check failed: {rep.hessian_failures} Hessian failures, gamma distance "
            f"{rep.max_gamma_distance}, hull excess {rep.max_hull_excess}"
        )
    if rep.convexity != case.convexity:
        problems.append(f"convexity {rep.convexity}, expected {case.convexity}")
    if rep.hessian_samples != samples:
        problems.append(f"{rep.hessian_samples} Hessian samples, asked for {samples}")
    return problems


def cli_gate(case, returncode: int, stdout: bytes, seed: int) -> list[str]:
    if case.golden is not None:
        problems = []
        if returncode != case.exit_code:
            problems.append(f"exit code {returncode}, golden {case.exit_code}")
        if stdout != case.golden:
            problems.append(f"report differs from the golden ({len(stdout)} vs {len(case.golden)} bytes)")
        return problems
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        result = json.loads(stdout)["result"]
    except (ValueError, KeyError) as exc:
        return [f"report is not a JSON envelope: {exc}"]
    check = case.check
    if check["kind"] == "a2d":
        report = verify_a2d_configuration(build_a2d_example(check["d"]))
        want = [[c.left, c.right, c.kind, list(c.dims), c.ok, c.detail] for c in report.checks]
        got = [[c["left"], c["right"], c["kind"], c["dims"], c["ok"], c["detail"]] for c in result["checks"]]
        problems = [] if result["ok"] and got == want else ["a2d checks differ from the library"]
        return problems + ([] if report.ok else ["a2d library report is not ok"])
    with open(f"fixtures/{check['fixture']}.json", "rb") as fh:
        doc = parse_input(fh.read())
    region = bounded_regions(tropical_curve(doc.subdivision()))[0]
    theta = theta_from_twisting(twisting(region, check["ell"]))
    table = winding_table(theta)
    entries = {(x, y): w for x, y, w in result["entries"]}
    problems = []
    if tuple(result["bounds"]) != table.bounds or entries != table.entries:
        problems.append("winding table differs from the in-process library")
    if result["h_even"] - result["h_odd"] != rr_chi(theta):
        problems.append("h_even - h_odd disagrees with Riemann-Roch")
    return problems + table_problems(
        theta, tuple(result["bounds"]), entries, result["h_even"], result["h_odd"], random.Random(seed)
    )
