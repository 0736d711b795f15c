"""Regenerate the JSON fixtures under fixtures/ from the stock examples.

Run as ``python tools/gen_fixtures.py``; ``build()`` returns the bytes without
writing them.  ``serialize_input`` writes an input document in the canonical
form the fixtures are stored in, and ``difference_sphere`` gives the a2d
fixture's twisting sets.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tropcoh.examples import a2d_subdivision, blowup_p2, local_p2
from tropcoh.fan import self_intersections
from tropcoh.io import InputDocument, TwistingSet
from tropcoh.spheres import Twisting, twisting
from tropcoh.tropical import BoundedRegion, bounded_regions, tropical_curve

OUT = Path(__file__).resolve().parents[1] / "fixtures"


def serialize_input(doc: InputDocument) -> bytes:
    raw: dict[str, Any] = {
        "format": "tropcoh-input",
        "version": 1,
        "points": [list(p) for p in doc.points],
        "triangles": [list(t) for t in doc.triangles],
        "nu": list(doc.nu),
    }
    if doc.twisting_sets:
        raw["twisting_sets"] = {
            name: (
                {"region": list(ts.region), "values": list(ts.values)}
                if ts.region is not None
                else {"values": list(ts.values)}
            )
            for name, ts in doc.twisting_sets.items()
        }
    if doc.kink_sets:
        raw["kink_sets"] = {name: list(v) for name, v in doc.kink_sets.items()}
    return (json.dumps(raw, indent=2, sort_keys=True) + "\n").encode("utf-8")


def difference_sphere(region: BoundedRegion) -> Twisting:
    """Twisting numbers of the sphere representing a difference of sections."""
    b = self_intersections(region.fan)
    return twisting(region, tuple(x + 2 for x in b))


def doc_from(sub, twisting_sets=None, kink_sets=None) -> InputDocument:
    return InputDocument(
        points=tuple((int(x), int(y)) for x, y in sub.points),
        triangles=tuple(tuple(int(i) for i in t) for t in sub.triangles),
        nu=tuple(int(v) for v in sub.nu),
        twisting_sets=twisting_sets or {},
        kink_sets=kink_sets or {},
    )


def build() -> dict[str, bytes]:
    """The bytes of each fixture, keyed by its file name under fixtures/."""
    p2_doc = doc_from(
        local_p2(),
        twisting_sets={
            "cap_k1": TwistingSet((3, 3, 3), (0, 0)),
            "cap_k_minus2": TwistingSet((-3, -3, -3), (0, 0)),
            "bad_parity": TwistingSet((2, 3, 3), (0, 0)),
        },
        kink_sets={"canonical": (-3, -3, -3)},
    )
    blowup_doc = doc_from(
        blowup_p2(),
        twisting_sets={"mixed_sign": TwistingSet((-14, 5, -14, -9), (1, 1))},
    )
    a2d = a2d_subdivision(3)
    sets = {}
    for region in bounded_regions(tropical_curve(a2d)):
        tw = difference_sphere(region)
        name = f"difference_c{region.dual_vertex[0]}"
        sets[name] = TwistingSet(tuple(tw.ell), region.dual_vertex)
    return {
        "p2.json": serialize_input(p2_doc),
        "blowup_p2.json": serialize_input(blowup_doc),
        "a2d_d3.json": serialize_input(doc_from(a2d, twisting_sets=sets)),
    }


def main() -> None:
    OUT.mkdir(exist_ok=True)
    for name, data in build().items():
        (OUT / name).write_bytes(data)
        print("wrote", OUT / name)


if __name__ == "__main__":
    main()
