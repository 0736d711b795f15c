"""Cold-start cost of the CLI in two checkouts, measured side by side.

    python tools/cold_start.py BEFORE AFTER [--runs 21]

BEFORE and AFTER are checkout roots, each with ``src/`` and ``fixtures/``.
Each run measures both checkouts, alternating which goes first, and each
measurement is a fresh interpreter with ``PYTHONDONTWRITEBYTECODE=1`` and the
checkout's ``src`` first on ``PYTHONPATH``. A run takes the cumulative
``-X importtime`` of ``import tropcoh.cli``, then the wall time of
``python -m tropcoh.cli`` on each fixture command. The tool prints the median
of each over the runs, in ms, and refuses a checkout whose ``src`` holds a
``__pycache__``, since the package would then be read from bytecode.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETS = {"p2": ("cap_k1", "cap_k_minus2"), "blowup_p2": ("mixed_sign",), "a2d_d3": ("difference_c1", "difference_c2")}


def commands() -> list[list[str]]:
    out = []
    for fx in SETS:
        path = f"fixtures/{fx}.json"
        out += [["validate", "--input", path], ["tropical", "--input", path]]
        out += [["tropical", "--input", path, "--format", "svg"], ["picard", "--input", path]]
    for command in ("sphere", "cohomology", "verify-winding-theorem"):
        out += [[command, "--input", f"fixtures/{fx}.json", "--ell", name] for fx in SETS for name in SETS[fx]]
    return out


def run(root: Path, args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=root, env=env, capture_output=True, text=True)
    return time.perf_counter() - t0, proc


def import_ms(root: Path) -> float:
    _, proc = run(root, ["-X", "importtime", "-c", "import tropcoh.cli"])
    line = next(x for x in proc.stderr.splitlines() if x.endswith("| tropcoh.cli"))
    return int(line.split("|")[1]) / 1000


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--runs", type=int, default=21)
    args = parser.parse_args()
    roots = (args.before.resolve(), args.after.resolve())
    for root in roots:
        if any((root / "src").rglob("__pycache__")):
            sys.exit(f"error: {root / 'src'} holds a __pycache__; remove it first")
    rows = ["import tropcoh.cli (-X importtime)", *map(" ".join, commands())]
    samples = {(row, side): [] for row in rows for side in (0, 1)}
    for i in range(args.runs):
        for side in (i % 2, 1 - i % 2):
            samples[rows[0], side].append(import_ms(roots[side]))
            for row, argv in zip(rows[1:], commands()):
                seconds, proc = run(roots[side], ["-m", "tropcoh.cli", *argv])
                if proc.returncode not in (0, 1):
                    sys.exit(f"error: {row} exited {proc.returncode} in {roots[side]}: {proc.stderr[-300:]}")
                samples[row, side].append(seconds * 1000)
    print(f"{'median of ' + str(args.runs) + ' runs, ms':<72} {'before':>8} {'after':>8} {'change':>7}")
    for row in rows:
        before, after = (statistics.median(samples[row, side]) for side in (0, 1))
        print(f"{row:<72} {before:8.1f} {after:8.1f} {after / before - 1:+7.0%}")


if __name__ == "__main__":
    main()
