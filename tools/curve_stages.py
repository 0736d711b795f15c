"""Best-of-ROUNDS time of each curve-build stage and of the mollifier check, for one checkout or two alternating.

    python tools/curve_stages.py CHECKOUT [CHECKOUT]

A CHECKOUT is a repository root with ``src/``, ``fixtures/`` and ``tropbench/`` (whose hexagonal
grid and smoothing cases it uses).  Each of the ROUNDS rounds runs every input once per checkout,
alternating which goes first, in a fresh interpreter.  For each input the ``validate`` cache is
cleared, then the stages run in order, each after ``gc.collect()``.  Then
``check_hessian_definiteness`` at radius 0.25 runs at each (samples, order) of SMOOTH, on p2
``cap_k1`` and on the first 5-ray fan of tropbench's ``smooth_cases(0)``, each after a one-sample
call that builds the order's quadrature rule.  The tables give each best time over the rounds in
ms, as ``before -> after`` for two checkouts.
"""

import argparse
import gc
import json
import subprocess
import sys
import time
from pathlib import Path

INPUTS = [("a2d_subdivision", d) for d in (10, 40, 160, 640)] + [("hex_grid", n) for n in (4, 8, 12, 20)]
STAGES = ("validate", "tropical_curve", "phi_map", "kernel", "canonical_KC")
SMOOTH = ((24, 24), (24, 300), (200, 24))
SMOOTH_FANS = ("p2 `cap_k1`", "5-ray `smooth_cases(0)`")
ROUNDS = 9


def one_round(root: Path) -> list[list[float]]:
    from inputs import hex_grid, smooth_cases  # tropbench's grid: six rays at every interior vertex
    from tropcoh.bundles import canonical_KC, phi_map
    from tropcoh.examples import a2d_subdivision
    from tropcoh.io import parse_input
    from tropcoh.polytope import validate
    from tropcoh.smoothing import MollifierParams, check_hessian_definiteness
    from tropcoh.spheres import theta_from_twisting, twisting
    from tropcoh.tropical import region_at, tropical_curve

    def timed(row, f, *args):
        gc.collect()
        t0, value = time.perf_counter(), f(*args)
        row.append(time.perf_counter() - t0)
        return value

    times = [[] for _ in INPUTS]
    for row, (name, n) in zip(times, INPUTS):
        validate.cache_clear()
        sub = a2d_subdivision(n) if name == "a2d_subdivision" else hex_grid(n, lambda x, y: 0)
        timed(row, validate, sub)
        curve = timed(row, tropical_curve, sub)
        timed(row, timed(row, phi_map, curve).kernel_vectors)
        timed(row, lambda: [canonical_KC(r) for r in curve.regions])

    doc = parse_input((root / "fixtures" / "p2.json").read_bytes())
    cap = doc.twisting_sets["cap_k1"]
    p2 = theta_from_twisting(twisting(region_at(tropical_curve(doc.subdivision()), cap.region), cap.values))
    fan5 = next(case.theta for case in smooth_cases(0) if len(case.theta.fan.rays) == 5)
    for theta in (p2, fan5):
        for samples, order in SMOOTH:
            check_hessian_definiteness(theta, MollifierParams(0.25, order), 1)
            row = []
            timed(row, check_hessian_definiteness, theta, MollifierParams(0.25, order), samples)
            times.append(row)
    return times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", type=Path, nargs="+")
    parser.add_argument("--one-round", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one_round:
        sys.path[:0] = [str(args.checkouts[0] / "src"), str(args.checkouts[0] / "tropbench")]
        return print(json.dumps(one_round(args.checkouts[0])))
    best = [None] * len(args.checkouts)
    for i in range(ROUNDS):
        for side in range(len(best))[:: 1 - 2 * (i % 2)]:
            argv = [sys.executable, __file__, str(args.checkouts[side].resolve()), "--one-round"]
            got = json.loads(subprocess.run(argv, capture_output=True, text=True, check=True).stdout)
            best[side] = got if best[side] is None else [list(map(min, a, b)) for a, b in zip(best[side], got)]

    def cells(k: int, stages: int) -> str:
        return " | ".join(" -> ".join(f"{b[k][s] * 1000:.1f}" for b in best) for s in range(stages))

    print(f"| input | {' | '.join(f'`{s}`' for s in STAGES)} |\n|---|{'---|' * len(STAGES)}")
    for k, (name, n) in enumerate(INPUTS):
        print(f"| `{name}({n})` | {cells(k, len(STAGES))} |")
    print(f"\n| fan | {' | '.join(f'{s} samples, order {o}' for s, o in SMOOTH)} |\n|---|{'---|' * len(SMOOTH)}")
    for f, fan in enumerate(SMOOTH_FANS):
        rows = range(len(INPUTS) + f * len(SMOOTH), len(INPUTS) + (f + 1) * len(SMOOTH))
        print(f"| {fan} | {' | '.join(cells(k, 1) for k in rows)} |")


if __name__ == "__main__":
    main()
