"""Command line surface: parse fixtures, run the pipeline, emit reports."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

# Each handler imports what only it uses, so a fresh process loads just the modules its
# command runs: `validate` never executes `spheres`, `winding` or `cohomology`, and
# executes `tropical` only to check a kink set.
from .io import InputDocument, InputError, TwistingSet, parse_input, report_bytes
from .lattice import InternalError, LatticeError, SizeLimitError
from .polytope import checked, interior_edge_keys


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropcoh",
        description="Exact combinatorics of tropical curves dual to subdivided lattice polygons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, needs_input: bool, svg: bool = False):
        p = sub.add_parser(name, help=help_text)
        if needs_input:
            p.add_argument("--input", required=True, help="input document path")
        p.add_argument("--out", help="directory for emitted artifacts (default: stdout)")
        if svg:
            p.add_argument(
                "--format", choices=("json", "svg"), default="json", help="artifact format"
            )
        p.add_argument("--seed", type=int, help="recorded in the report envelope")
        return p

    add("validate", "parse and validate an input document", True)
    add("tropical", "dual tropical curve of the subdivision", True, svg=True)
    add("picard", "kernel basis of the region boundary map", True)

    for name, help_text, svg in (
        ("sphere", "validate twisting numbers and build the support function", True),
        ("winding", "winding-number table of the glued boundary curve", True),
        ("cohomology", "toric line bundle cohomology from the support function", False),
        ("verify-winding-theorem", "compare winding counts with cohomology dimensions", False),
    ):
        p = add(name, help_text, True, svg)
        p.add_argument("--region", help="bounded region: index or interior vertex 'x,y'")
        p.add_argument("--ell", help="twisting numbers: named set or comma list")

    p = add("a2d", "build and verify the spherical chain example", False)
    p.add_argument("--d", type=int, required=True, help="chain half-length, d >= 1")

    p = add("smooth-check", "sampled Hessian and gradient checks of the smoothed support", True)
    p.add_argument("--region", help="bounded region: index or interior vertex 'x,y'")
    p.add_argument("--ell", help="twisting numbers: named set or comma list")
    p.add_argument("--samples", type=int, default=24, help="Hessian sample count")
    p.add_argument("--epsilon", type=float, default=0.25, help="mollifier radius")
    p.add_argument("--order", type=int, default=24, help="quadrature order")
    return parser


def _load(args) -> InputDocument:
    path = Path(args.input)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return parse_input(data)


def _resolve_ell(doc: InputDocument, flag: Optional[str]) -> TwistingSet:
    if flag is None:
        raise InputError("--ell is required for this command")
    if flag in doc.twisting_sets:
        return doc.twisting_sets[flag]
    try:
        values = tuple(int(part) for part in flag.split(","))
    except ValueError as exc:
        raise InputError(
            f"--ell {flag!r} is neither a named twisting set nor a comma list of integers"
        ) from exc
    return TwistingSet(values)


def _resolve_region(curve, flag: Optional[str], tset: Optional[TwistingSet]):
    from .tropical import bounded_regions, region_at

    regions = bounded_regions(curve)
    if not regions:
        raise InputError("the input has no bounded region")
    if flag is None:
        if tset is not None and tset.region is not None:
            flag = f"{tset.region[0]},{tset.region[1]}"
        else:
            return regions[0]
    try:
        index = int(flag)
    except ValueError:
        pass
    else:
        if not 0 <= index < len(regions):
            raise InputError(f"region index {flag} out of range")
        return regions[index]
    try:
        x, y = map(int, flag.split(","))
    except ValueError:
        raise InputError(f"--region {flag!r} is neither an index nor a vertex 'x,y'") from None
    try:
        return region_at(curve, (x, y))
    except LatticeError:
        raise InputError(f"{(x, y)} is not the dual vertex of a bounded region") from None


def _emit(args, result) -> None:
    """Write an SVG figure (bytes) or the JSON report of a result."""
    if isinstance(result, bytes):
        payload, ext = result, "svg"
    else:
        payload, ext = report_bytes(args.command, result, args.seed), "json"
    path = Path(args.out) / f"{args.command.replace('-', '_')}.{ext}" if args.out else "stdout"
    try:
        if args.out:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(payload)
        else:
            sys.stdout.write(payload.decode("utf-8"))
            sys.stdout.flush()
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _theta_pipeline(args):
    """Shared resolution: document -> region -> validated twisting -> theta.

    Returns the region, the twisting set and theta.
    """
    from .spheres import theta_from_twisting, twisting
    from .tropical import tropical_curve

    doc = _load(args)
    curve = tropical_curve(doc.subdivision())
    region = _resolve_region(curve, args.region, doc.twisting_sets.get(args.ell))
    ell = _resolve_ell(doc, args.ell)
    return region, ell, theta_from_twisting(twisting(region, ell.values))


def _edge_key_json(key):
    return [list(key[0]), list(key[1])]


def _cmd_validate(args) -> dict:
    doc = _load(args)
    sub = doc.subdivision()
    return {
        "ok": True,
        "points": len(doc.points),
        "triangles": len(doc.triangles),
        "interior_edges": len(interior_edge_keys(sub)),
        "bounded_regions": len(checked(sub).interior_vertices),
        "twisting_sets": sorted(doc.twisting_sets),
        "kink_sets": sorted(doc.kink_sets),
    }


def _cmd_tropical(args) -> dict | bytes:
    from .tropical import tropical_curve

    doc = _load(args)
    curve = tropical_curve(doc.subdivision())
    if args.format == "svg":
        from .svg import render_svg

        return render_svg(curve)
    return {
        "vertices": [
            {"triangle": t, "position": list(v)} for t, v in enumerate(curve.vertices)
        ],
        "bounded_edges": [
            {
                "dual_edge": _edge_key_json(e.key),
                "endpoints": [list(curve.vertices[t]) for t in (e.plus_triangle, e.minus_triangle)],
                "tangent": list(e.normal),
            }
            for e in curve.bounded
        ],
        "rays": [
            {
                "dual_edge": _edge_key_json(e.key),
                "origin": list(curve.vertices[e.plus_triangle]),
                "direction": list(e.normal),
            }
            for e in curve.rays
        ],
    }


def _cmd_picard(args) -> dict:
    from .bundles import MAX_PICARD_CELLS, phi_map
    from .tropical import tropical_curve

    curve = tropical_curve(_load(args).subdivision())
    # the basis has one vector per point off a triangle, one entry per interior edge
    rank, width = len(curve.sub.points) - 3, len(curve.bounded)
    if rank * width > MAX_PICARD_CELLS:
        raise SizeLimitError(
            f"the Picard basis of {rank} vectors on {width} interior edges has {rank * width} entries, "
            f"above the limit of {MAX_PICARD_CELLS}"
        )
    phi = phi_map(curve)
    basis = phi.kernel_vectors()
    return {
        "rank": len(basis),
        "edge_order": [_edge_key_json(k) for k in phi.edge_order],
        "basis": basis,
    }


def _cmd_sphere(args) -> dict | bytes:
    from .spheres import gamma_curve

    region, ell, theta = _theta_pipeline(args)
    gamma = gamma_curve(theta)
    if args.format == "svg":
        from .svg import render_svg

        return render_svg(gamma)
    return {
        "region": list(region.dual_vertex),
        "ell": list(ell.values),
        "thetas": [list(t) for t in theta.thetas],
        "gamma": [list(v) for v in gamma.vertices],
    }


def _cmd_winding(args) -> dict | bytes:
    from .spheres import gamma_curve
    from .winding import winding_table

    region, _, theta = _theta_pipeline(args)
    table = winding_table(theta)
    if args.format == "svg":
        from .svg import render_svg

        return render_svg(gamma_curve(theta), table)
    even, odd = table.h_even_odd()
    return {
        "region": list(region.dual_vertex),
        "bounds": list(table.bounds),
        "entries": sorted([x, y, w] for (x, y), w in table.entries.items()),
        "h_even": even,
        "h_odd": odd,
    }


def _cmd_cohomology(args) -> dict:
    from .cohomology import cohomology_dims, divisor_coeffs, psi_from_theta, restriction_degrees

    region, _, theta = _theta_pipeline(args)
    psi = psi_from_theta(theta)
    dims = cohomology_dims(psi)
    return {
        "region": list(region.dual_vertex),
        "rays": [list(u) for u in psi.fan.rays],
        "psi_parts": [list(m) for m in psi.parts],
        "divisor_coeffs": list(divisor_coeffs(psi)),
        "restriction_degrees": list(restriction_degrees(psi)),
        "dims": list(dims.as_tuple()),
    }


def _cmd_verify_winding(args) -> dict:
    from .cohomology import verify_winding_theorem

    region, _, theta = _theta_pipeline(args)
    rep = verify_winding_theorem(theta)
    result = {
        "region": list(region.dual_vertex),
        "h_even": rep.h_even,
        "h_odd": rep.h_odd,
        "dims": list(rep.dims.as_tuple()),
        "ok": rep.ok,
    }
    if not rep.ok:
        w = rep.witness
        result["witness"] = None if w is None else {
            "point": list(w.point),
            "winding": w.winding,
            "sign_pattern": w.sign_pattern,
        }
    return result


def _cmd_a2d(args) -> dict:
    from .ext_chains import build_a2d_example, verify_a2d_configuration

    if args.d < 1:
        raise InputError("--d must be positive")
    example = build_a2d_example(args.d)
    report = verify_a2d_configuration(example)
    return {
        "d": args.d,
        "ok": report.ok,
        "chain": list(example.chain),
        "checks": [
            {
                "left": c.left,
                "right": c.right,
                "kind": c.kind,
                "dims": list(c.dims),
                "ok": c.ok,
                "detail": c.detail,
            }
            for c in report.checks
        ],
        "failures": list(report.failures),
        "assumptions": list(report.assumptions),
    }


def _cmd_smooth_check(args) -> dict:
    # numpy is loaded here only, so the other commands start without it
    from .smoothing import MollifierParams, check_hessian_definiteness

    region, _, theta = _theta_pipeline(args)
    params = MollifierParams(epsilon=args.epsilon, quadrature_order=args.order)
    rep = check_hessian_definiteness(theta, params, args.samples)
    result = {
        "region": list(region.dual_vertex),
        "convexity": rep.convexity,
        "epsilon": args.epsilon,
        "quadrature_order": args.order,
        "hessian_samples": rep.hessian_samples,
        "hessian_failures": rep.hessian_failures,
        "min_abs_eigenvalue": rep.min_abs_eigenvalue,
        "gamma_samples": rep.gamma_samples,
        "max_gamma_distance": rep.max_gamma_distance,
        "grad_samples": rep.grad_samples,
        "max_hull_excess": rep.max_hull_excess,
        "ok": rep.ok,
    }
    if not rep.ok:
        h, g = rep.worst_hessian, rep.worst_gradient
        witness = result["witness"] = {}
        if rep.hessian_failures:
            witness["hessian"] = {"point": list(h.point), "eigenvalues": list(h.eigenvalues)}
        if not rep.gradients_ok:
            witness["gradient"] = {
                "point": list(g.point),
                "gradient": list(g.gradient),
                "gamma_distance": g.gamma_distance,
                "hull_excess": g.hull_excess,
            }
    return result


_HANDLERS = {
    "validate": _cmd_validate,
    "tropical": _cmd_tropical,
    "picard": _cmd_picard,
    "sphere": _cmd_sphere,
    "winding": _cmd_winding,
    "cohomology": _cmd_cohomology,
    "verify-winding-theorem": _cmd_verify_winding,
    "a2d": _cmd_a2d,
    "smooth-check": _cmd_smooth_check,
}


def _attach_signed_values(argv):
    """Rewrite `--ell -3,-3,-3` as `--ell=-3,-3,-3`, and `--region -1,0` likewise.

    argparse takes a word that starts with '-' for an option unless it is a
    single negative number, so a comma list with a leading minus sign would
    need the '=' spelling.
    """
    out = []
    for arg in argv:
        if out and out[-1] in ("--ell", "--region") and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    # InputError and LatticeError are ValueErrors too
    try:
        result = _HANDLERS[args.command](args)
        _emit(args, result)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # a verification command that found a mismatch reports "ok": false
    return 1 if isinstance(result, dict) and not result.get("ok", True) else 0


if __name__ == "__main__":
    sys.exit(main())
