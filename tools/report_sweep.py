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
for k < 60 and on the blowup ``mixed_sign`` set times k for -9 <= k <= 9;
then ``a2d`` for 1 <= d <= 60, and ``picard`` and ``tropical`` (also as SVG)
on every fixture; then ``smooth-check`` on p2 ``cap_k1`` at ``--samples 2
--order 8``, which the mass check refuses; then ``picard`` on documents the
sweep builds itself (``picard_documents``): the a2d chain at d = 10 and 40
and the hexagonal grid at n = 4 and 8, whose kernels take long
eliminations, and the grid at n = 21, which is above the size limit; then
``validate`` on more built documents (``documents``): one per rule of the input schema,
one carrying the removed ``options`` section with its removed ``margin``
option, a set name holding "~" and "/", bytes that are not UTF-8, ``NaN``,
nesting too deep to parse, a key given twice, a missing lattice point, two
triangles on one side of an edge, an elementary triangle in a 3000 x 2999
box, triangles of the 2 x 1 rectangle that add up to its area but overlap,
and a triangle listed by its corners at 10^9.
Paths in argv are relative to the checkout root, and a built document is
hashed by its bytes in place of its temporary path, so the digest does not
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
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tropcoh import cli  # noqa: E402
from tropcoh.examples import a2d_subdivision  # noqa: E402

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
    for d in range(1, 61):
        runs.append(["a2d", "--d", str(d)])
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        name = f"fixtures/{path.name}"
        runs.append(["picard", "--input", name])
        runs.append(["tropical", "--input", name])
        runs.append(["tropical", "--input", name, "--format", "svg"])
    runs.append(["smooth-check", "--input", "fixtures/p2.json", "--ell", "cap_k1", "--samples", "2", "--order", "8"])
    return runs


def _doc(**changes) -> dict:
    doc = {
        "format": "tropcoh-input",
        "version": 1,
        "points": [[0, 0], [1, 0], [0, 1], [-1, -1]],
        "triangles": [[0, 1, 2], [0, 2, 3], [0, 3, 1]],
        "nu": [0, 1, 1, 1],
    }
    doc.update(changes)
    return {key: value for key, value in doc.items() if value is not None}


def _hex_grid(n: int) -> dict:
    """[0,n]^2 cut along (1,-1) diagonals, lift x^2 + xy + y^2: six rays at every interior vertex."""
    points = [[x, y] for x in range(n + 1) for y in range(n + 1)]
    triangles = []
    for x in range(n):
        for y in range(n):
            i = x * (n + 1) + y
            triangles += [[i, i + n + 1, i + 1], [i + n + 1, i + n + 2, i + 1]]
    return _doc(points=points, triangles=triangles, nu=[x * x + x * y + y * y for x, y in points])


def picard_documents() -> dict[str, bytes]:
    """The documents ``picard`` reads after the fixture sweep, by name, in a fixed order."""
    docs = {}
    for d in (10, 40):
        sub = a2d_subdivision(d)
        docs[f"a2d-{d}"] = _doc(
            points=[list(p) for p in sub.points], triangles=[list(t) for t in sub.triangles], nu=list(sub.nu)
        )
    # the last is above picard's size limit: exit 2
    for n in (4, 8, 21):
        docs[f"hex-{n}"] = _hex_grid(n)
    return {name: json.dumps(doc).encode() for name, doc in docs.items()}


def documents() -> dict[str, bytes]:
    """The documents ``validate`` reads after the fixture sweep, by name, in a fixed order."""
    n = 3000
    docs = {
        "valid": _doc(
            twisting_sets={"a": {"values": [3, 3, 3]}, "b/c": {"region": [0, 0], "values": [1, 1, 1]}},
            kink_sets={"k": [-3, -3, -3]},
        ),
        "type-array": _doc(nu="abc"),
        "type-integer": _doc(points=[[0, 0], [1, 0.5], [0, 1], [-1, -1]]),
        "type-integer-float": _doc(nu=[2.0, 1, 1, 1]),
        "type-integer-string": _doc(kink_sets={"k": [-3, "-3", -3]}),
        "type-object": _doc(twisting_sets=[]),
        "const-string": _doc(format="other"),
        "const-bool": _doc(version=True),
        "const-float": _doc(version=1.0),
        "minimum": _doc(triangles=[[0, 1, 2], [0, 2, -3], [0, 3, 1]]),
        "minimum-first": _doc(triangles=[[-1, 1, 2], [0, 2, 3], [0, 3, 1]]),
        "type-object-entry": _doc(twisting_sets={"a": [3, 3, 3]}),
        "minItems-empty": _doc(triangles=[]),
        "minItems-short": _doc(points=[[0, 0], [1, 0]]),
        "minItems-point": _doc(points=[[0, 0], [1], [0, 1], [-1, -1]]),
        "maxItems": _doc(triangles=[[0, 1, 2, 3]]),
        "required": _doc(nu=None),
        "required-values": _doc(twisting_sets={"a": {"region": [0, 0]}}),
        "additionalProperties": _doc(flavor="mint"),
        "additionalProperties-plural": _doc(flavor="mint", colour="red"),
        "additionalProperties-entry": _doc(twisting_sets={"a": {"values": [3, 3, 3], "seed": 1}}),
        "additionalProperties-margin": _doc(options={"margin": 1}),
        "additionalProperties-schema": _doc(kink_sets={"k": "s"}),
        "pointer-escape": _doc(twisting_sets={"a~/b": {"values": [3, "3", 3]}}),
        "missing-lattice-point": _doc(
            points=[[0, 0], [1, 0], [2, 0], [0, 1], [0, 2]], triangles=[[0, 1, 3], [3, 1, 4]], nu=[0] * 5
        ),
        "overlapping-triangles": _doc(
            points=[[0, 0], [1, 0], [0, 1], [1, 1]], triangles=[[0, 1, 2], [0, 1, 3]], nu=[0] * 4
        ),
        "thin-triangle": _doc(points=[[0, 0], [n, n - 1], [n - 1, n - 2]], triangles=[[0, 1, 2]], nu=[0] * 3),
        "chord-in-one-triangle": _doc(
            points=[[0, 0], [0, 1], [1, 0], [1, 1], [2, 0], [2, 1]],
            triangles=[[1, 3, 4], [0, 1, 2], [1, 2, 4], [2, 3, 5]],
            nu=[0, 0, 0, 2, 1, 0],
        ),
        "corners-only": _doc(points=[[0, 0], [10**9, 0], [0, 10**9]], triangles=[[0, 1, 2]], nu=[0] * 3),
    }
    built = {name: json.dumps(doc).encode() for name, doc in docs.items()}
    built["not-utf-8"] = b'{"format": "tropcoh-input\xff"}'
    built["nan"] = json.dumps(_doc(nu=[0.5, 1, 1, 1])).replace("0.5", "NaN").encode()
    built["too-deep"] = b"[" * 100000 + b"]" * 100000
    twice = '"nu": [0, 1, 1, 1], "nu": [5, 5, 5, 5]'
    built["duplicate-key"] = json.dumps(_doc()).replace('"nu": [0, 1, 1, 1]', twice).encode()
    return built


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
    runs = [(argv, argv, argv) for argv in sweep()]
    built = [("picard", name, data) for name, data in picard_documents().items()]
    built += [("validate", name, data) for name, data in documents().items()]
    with tempfile.TemporaryDirectory() as tmp:
        for command, name, data in built:
            path = Path(tmp) / f"{command}-{name}.json"
            path.write_bytes(data)
            # (the argv run, the argv hashed, the argv shown)
            shown = [command, "--input", f"<{name}>"]
            runs.append(([command, "--input", str(path)], [*shown[:2], data.decode("latin-1")], shown))
        for argv, hashed, shown in runs:
            code, out, err = run(argv)
            record = json.dumps([hashed, code, out, err]).encode("utf-8")
            total.update(record + b"\n")
            codes[code] = codes.get(code, 0) + 1
            if opts.verbose:
                print(code, hashlib.sha256(record).hexdigest()[:16], " ".join(shown))
    tally = ", ".join(f"exit {c}: {n}" for c, n in sorted(codes.items()))
    print(f"{len(runs)} calls ({tally})")
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
