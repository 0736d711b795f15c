"""One digest of the CLI's reports over a fixed sweep of twisting commands.

Run from any directory as ``python tools/report_sweep.py``.  The sweep runs
``tropcoh.cli.main`` in this process, with the package from this checkout's
``src``, and hashes (argv, exit code, stdout, stderr) of every call into one
SHA-256 digest.  Run it in two checkouts, say before and after a change that
must keep every report byte and exit code; equal digests mean the sweep saw
no difference.  ``--verbose`` also prints one line per call (its exit code,
its own digest and its argv), so two runs can be diffed to find the call
that differs.

The sweep: ``sphere``, ``cohomology`` and ``verify-winding-theorem`` on p2
at ell = +-(2k + 1) on every edge for k < 300, on the blowup ``mixed_sign``
set times k for -25 <= k <= 25 (even k break the parity: exit 2), on every
named set of the fixtures (``sphere`` also as SVG, and ``smooth-check`` at
the default order and at ``--order 64``), and on a few invalid twistings;
then the ``winding`` table, as JSON and as SVG, on p2 at ell = +-(2k + 1)
for k < 60 and on the blowup ``mixed_sign`` set times k for -9 <= k <= 9.
Paths in argv are relative to the checkout root, so the digest does not
depend on where the checkout lives.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tropcoh import cli  # noqa: E402

COMMANDS = ("sphere", "cohomology", "verify-winding-theorem")
BLOWUP_MIXED = (-14, 5, -14, -9)
INVALID = (
    ("fixtures/p2.json", "2,3,3"),
    ("fixtures/p2.json", "3,3"),
    ("fixtures/p2.json", "3,3,5"),
    ("fixtures/p2.json", "3.9,3,3"),
    ("fixtures/p2.json", "bad_parity"),
    ("fixtures/blowup_p2.json", "1,1,1,1"),
    ("fixtures/a2d_d3.json", "1,1,1,2"),
)


def _ell(values) -> str:
    return ",".join(str(x) for x in values)


def sweep() -> list[list[str]]:
    """The argv of every call, in a fixed order."""
    runs = []
    for k in range(300):
        for sign in (1, -1):
            for command in COMMANDS:
                runs.append([command, "--input", "fixtures/p2.json", "--ell", _ell([sign * (2 * k + 1)] * 3)])
    for k in range(-25, 26):
        for command in COMMANDS:
            runs.append([command, "--input", "fixtures/blowup_p2.json", "--ell", _ell(k * x for x in BLOWUP_MIXED)])
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        name = f"fixtures/{path.name}"
        for tset in sorted(json.loads(path.read_text()).get("twisting_sets", {})):
            for command in COMMANDS:
                runs.append([command, "--input", name, "--ell", tset])
            runs.append(["sphere", "--input", name, "--ell", tset, "--format", "svg"])
            runs.append(["smooth-check", "--input", name, "--ell", tset])
            runs.append(["smooth-check", "--input", name, "--ell", tset, "--order", "64"])
    for name, ell in INVALID:
        for command in COMMANDS:
            runs.append([command, "--input", name, "--ell", ell])
    for fmt in ([], ["--format", "svg"]):
        for k in range(60):
            for sign in (1, -1):
                runs.append(["winding", "--input", "fixtures/p2.json", "--ell", _ell([sign * (2 * k + 1)] * 3), *fmt])
        for k in range(-9, 10):
            runs.append(["winding", "--input", "fixtures/blowup_p2.json", "--ell", _ell(k * x for x in BLOWUP_MIXED), *fmt])
    return runs


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def main(args=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true", help="print one line per call")
    opts = parser.parse_args(args)
    os.chdir(ROOT)
    total = hashlib.sha256()
    codes: dict[int, int] = {}
    runs = sweep()
    for argv in runs:
        code, out, err = run(argv)
        record = json.dumps([argv, code, out, err]).encode("utf-8")
        total.update(record + b"\n")
        codes[code] = codes.get(code, 0) + 1
        if opts.verbose:
            print(code, hashlib.sha256(record).hexdigest()[:16], " ".join(argv))
    tally = ", ".join(f"exit {c}: {n}" for c, n in sorted(codes.items()))
    print(f"{len(runs)} calls ({tally})")
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
