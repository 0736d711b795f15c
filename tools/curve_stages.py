"""Best-of-ROUNDS time of each curve-build stage, for one checkout or two alternating.

    python tools/curve_stages.py CHECKOUT [CHECKOUT]

A CHECKOUT is a repository root with ``src/`` and ``tropbench/`` (whose hexagonal grid it uses).
Each of the ROUNDS rounds runs every input once per checkout, alternating which goes first,
in a fresh interpreter.  For each input the ``validate`` cache is cleared, then the stages run
in order, each after ``gc.collect()``.  The table gives each stage's best time over the rounds
in ms, as ``before -> after`` for two checkouts.
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
ROUNDS = 9


def one_round() -> list[list[float]]:
    from inputs import hex_grid  # tropbench's grid: six rays at every interior vertex
    from tropcoh.bundles import canonical_KC, phi_map
    from tropcoh.examples import a2d_subdivision
    from tropcoh.polytope import validate
    from tropcoh.tropical import tropical_curve

    def timed(f, *args):
        gc.collect()
        t0, value = time.perf_counter(), f(*args)
        row.append(time.perf_counter() - t0)
        return value

    times = [[] for _ in INPUTS]
    for row, (name, n) in zip(times, INPUTS):
        validate.cache_clear()
        sub = a2d_subdivision(n) if name == "a2d_subdivision" else hex_grid(n, lambda x, y: 0)
        timed(validate, sub)
        curve = timed(tropical_curve, sub)
        timed(timed(phi_map, curve).kernel_vectors)
        timed(lambda: [canonical_KC(r) for r in curve.regions])
    return times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", type=Path, nargs="+")
    parser.add_argument("--one-round", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one_round:
        sys.path[:0] = [str(args.checkouts[0] / "src"), str(args.checkouts[0] / "tropbench")]
        return print(json.dumps(one_round()))
    best = [[[float("inf")] * len(STAGES) for _ in INPUTS] for _ in args.checkouts]
    for i in range(ROUNDS):
        for side in range(len(best))[:: 1 - 2 * (i % 2)]:
            argv = [sys.executable, __file__, str(args.checkouts[side].resolve()), "--one-round"]
            got = json.loads(subprocess.run(argv, capture_output=True, text=True, check=True).stdout)
            best[side] = [list(map(min, a, b)) for a, b in zip(best[side], got)]
    print(f"| input | {' | '.join(f'`{s}`' for s in STAGES)} |\n|---|{'---|' * len(STAGES)}")
    for k, (name, n) in enumerate(INPUTS):
        cells = (" -> ".join(f"{b[k][s] * 1000:.1f}" for b in best) for s in range(len(STAGES)))
        print(f"| `{name}({n})` | {' | '.join(cells)} |")


if __name__ == "__main__":
    main()
