"""Seeded inputs for the four workloads.

The seed changes values, not sizes: every round of a workload holds the same
size ladder, so timings from different seeds compare like with like.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from tropcoh.examples import a2d_subdivision, blowup_p2, local_p2
from tropcoh.fan import Fan, make_fan, self_intersections
from tropcoh.lattice import det2, integer_kernel, rot90, vadd
from tropcoh.polytope import Subdivision, subdivision
from tropcoh.spheres import gamma_curve, theta_from_twisting, twisting
from tropcoh.tropical import region_at, tropical_curve

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "goldens"

# (size, copies per round).  Sorted by cost, each round puts the median
# inside the d=20 / n=6 block and the tail (p84) inside the d=40 block.
CHAIN_LADDER = ((10, 4), (20, 4), (40, 4), (80, 1))
GRID_LADDER = ((4, 4), (6, 2), (8, 1), (12, 1))

BLOWUP_MIXED = (-14, 5, -14, -9)  # the `mixed_sign` set of fixtures/blowup_p2.json


# ----------------------------------------------------------------- curve_build


@dataclass(frozen=True)
class CurveCase:
    family: str  # "chain" or "grid"
    size: int  # d for the chain, n for the grid
    sub: Subdivision


def hex_grid(n: int, lift) -> Subdivision:
    """The square [0,n]^2 cut along (1,-1) diagonals; every interior vertex has 6 rays."""
    points = [(x, y) for x in range(n + 1) for y in range(n + 1)]
    index = {p: i for i, p in enumerate(points)}
    triangles = []
    for x in range(n):
        for y in range(n):
            triangles.append((index[(x, y)], index[(x + 1, y)], index[(x, y + 1)]))
            triangles.append((index[(x + 1, y)], index[(x + 1, y + 1)], index[(x, y + 1)]))
    return subdivision(points, triangles, [lift(x, y) + x * x + x * y + y * y for x, y in points])


def _affine(rng: random.Random):
    a, b, c = (rng.randrange(-7, 8) for _ in range(3))
    return lambda x, y: a * x + b * y + c


def curve_cases(seed: int) -> list[CurveCase]:
    """One round: the a2d chain and the hexagonal grid, each lift shifted by a seeded affine map.

    An integral affine summand leaves every kink, and so validity, unchanged.
    """
    rng = random.Random(seed)
    cases = []
    for d, copies in CHAIN_LADDER:
        base = a2d_subdivision(d)
        for _ in range(copies):
            lift = _affine(rng)
            nu = [v + lift(*p) for p, v in zip(base.points, base.nu)]
            cases.append(CurveCase("chain", d, subdivision(base.points, base.triangles, nu)))
    for n, copies in GRID_LADDER:
        for _ in range(copies):
            cases.append(CurveCase("grid", n, hex_grid(n, _affine(rng))))
    return cases


# ----------------------------------------------------------------- twist_count


@dataclass(frozen=True)
class TwistCase:
    kind: str  # "p2", "blowup" or "random"
    source: object  # BoundedRegion or Fan
    ell: tuple[int, ...]


SEED_FANS = (
    ((1, 0), (0, 1), (-1, -1)),
    *(((1, 0), (0, 1), (-1, a), (0, -1)) for a in range(4)),
)


def random_smooth_fan(rng: random.Random, nrays: int) -> Fan:
    """Star subdivisions of a P2 or Hirzebruch fan: inserting u_j + u_{j+1} keeps it smooth."""
    rays = list(rng.choice(SEED_FANS))
    while len(rays) < nrays:
        j = rng.randrange(len(rays))
        rays.insert(j + 1, vadd(rays[j], rays[(j + 1) % len(rays)]))
    return make_fan(rays)


def random_twist(rng: random.Random, max_ell: int = 12, max_span: int = 40) -> tuple[Fan, tuple]:
    """The random_theta recipe: +-(b+2) shifted by even multiples of balance-kernel vectors."""
    for _ in range(200):
        fan = random_smooth_fan(rng, rng.randrange(5, 10))
        b = self_intersections(fan)
        kern = integer_kernel(
            [[rot90(u)[0] for u in fan.rays], [rot90(u)[1] for u in fan.rays]], len(fan.rays)
        )
        s = rng.choice((1, -1))
        ell = [s * (bj + 2) for bj in b]
        for k in kern:
            c = rng.randrange(-3, 4)
            ell = [l + 2 * c * kj for l, kj in zip(ell, k)]
        if max(abs(l) for l in ell) > max_ell:
            continue
        verts = gamma_curve(theta_from_twisting(twisting(fan, tuple(ell)))).vertices
        xs = [v[0] for v in verts]
        ys = [v[1] for v in verts]
        if max(xs) - min(xs) > max_span or max(ys) - min(ys) > max_span:
            continue
        return fan, tuple(ell)
    raise RuntimeError("rejection sampling found no random twisting")


def _odd_near(rng: random.Random, base: int) -> int:
    return base + 2 * rng.randrange(-2, 3)


def twist_cases(seed: int) -> list[TwistCase]:
    """One round of 24 twistings: convex and concave p2, mixed-sign blowups, random fans.

    Sorted by cost the round holds 8 random fans, 2 small blowups, one
    concave and three convex p2 at |ell|~101 (the median), 2 blowups at
    k=11, 4 convex p2 at |ell|~201, then one blowup at k=21 (the tail, p86)
    and p2 at |ell| ~301, ~501 and ~1001.
    """
    rng = random.Random(seed)
    p2 = region_at(tropical_curve(local_p2()), (0, 0))
    blowup = region_at(tropical_curve(blowup_p2()), (1, 1))
    cases = []
    for _ in range(8):
        fan, ell = random_twist(rng)
        cases.append(TwistCase("random", fan, ell))
    for k in (5, 5, 11, 11, 21):
        cases.append(TwistCase("blowup", blowup, tuple(k * x for x in BLOWUP_MIXED)))
    for base, sign in ((101, -1), (101, 1), (101, 1), (101, 1), (201, 1), (201, 1),
                       (201, 1), (201, 1), (301, 1), (501, -1), (1001, 1)):
        ell = sign * _odd_near(rng, base)
        cases.append(TwistCase("p2", p2, (ell, ell, ell)))
    return cases


# ---------------------------------------------------------------- smooth_check


@dataclass(frozen=True)
class SmoothCase:
    kind: str  # "p2" or "random"
    theta: object
    convexity: str  # the class the check must report


def positive_relation(rays) -> list[int]:
    """A strictly positive integer vector p with sum p_j u_j = 0.

    Each -u_j lies in a smooth cone (u_k, u_{k+1}), so -u_j = a u_k + b u_{k+1}
    with integers a, b >= 0; summing these relations over j gives p.
    """
    r = len(rays)
    p = [0] * r
    for j, u in enumerate(rays):
        w = (-u[0], -u[1])
        for k in range(r):
            a, b = rays[k], rays[(k + 1) % r]
            if det2(a, w) >= 0 and det2(w, b) >= 0:
                p[j] += 1
                p[k] += det2(w, b)
                p[(k + 1) % r] += det2(a, w)
                break
    return p


def wall_lines(rays) -> int:
    """Distinct lines through the rays; the mollifier's cost follows this count."""
    return len({u if u > (0, 0) else (-u[0], -u[1]) for u in rays})


def smooth_cases(seed: int) -> list[SmoothCase]:
    """One round: convex and concave p2, then three 5-ray random fans (the median and the tail).

    Every random fan has 3 distinct wall lines, as p2 does, so the seed does
    not change the cost of a slot.  Each gets its smallest twisting of the form
    +-(b + 2 + 2mp): larger ones can make the check raise "quadrature order
    too low" (see QUADRATURE_DEFECT).
    """
    rng = random.Random(seed)
    p2 = region_at(tropical_curve(local_p2()), (0, 0))
    cases = []
    for sign, name in ((1, "convex"), (-1, "concave")):
        ell = sign * (5 + 2 * rng.randrange(0, 4))
        cases.append(SmoothCase("p2", theta_from_twisting(twisting(p2, (ell,) * 3)), name))
    for sign, name in ((1, "convex"), (-1, "concave"), rng.choice(((1, "convex"), (-1, "concave")))):
        fan = random_smooth_fan(rng, 5)
        while wall_lines(fan.rays) != 3:
            fan = random_smooth_fan(rng, 5)
        b = self_intersections(fan)
        p = positive_relation(fan.rays)
        m = max(abs(x + 2) for x in b) // 2 + 1
        ell = tuple(sign * (bj + 2 + 2 * m * pj) for bj, pj in zip(b, p))
        cases.append(SmoothCase("random", theta_from_twisting(twisting(fan, ell)), name))
    return cases


# A convex twisting on which check_hessian_definiteness raises "quadrature
# order too low" at the default order; the same fan passes at m = 2 and 3.
QUADRATURE_DEFECT = (((-1, 1), (0, -1), (1, 0), (1, 1), (0, 1)), (26, 51, 17, 9, 16))


# -------------------------------------------------------------------- cli_cold


@dataclass(frozen=True)
class CliCase:
    name: str
    argv: tuple[str, ...]
    golden: bytes | None = None  # fixed commands: report bytes at the parent commit
    exit_code: int = 0
    check: dict = field(default_factory=dict)  # seeded commands: what to recompute


FIXTURES = ("p2", "blowup_p2", "a2d_d3")
NAMED_SETS = (
    ("p2", "cap_k1"),
    ("p2", "cap_k_minus2"),
    ("blowup_p2", "mixed_sign"),
    ("a2d_d3", "difference_c1"),
    ("a2d_d3", "difference_c2"),
)


def fixed_commands() -> list[tuple[str, tuple[str, ...]]]:
    out = []
    for fx in FIXTURES:
        path = f"fixtures/{fx}.json"
        out.append((f"validate-{fx}", ("validate", "--input", path)))
        out.append((f"tropical-{fx}", ("tropical", "--input", path)))
        out.append((f"tropical-svg-{fx}", ("tropical", "--input", path, "--format", "svg")))
        out.append((f"picard-{fx}", ("picard", "--input", path)))
    for command in ("sphere", "cohomology", "verify-winding-theorem"):
        for fx, name in NAMED_SETS:
            out.append((f"{command}-{fx}-{name}", (command, "--input", f"fixtures/{fx}.json", "--ell", name)))
    return out


def cli_cases(seed: int) -> list[CliCase]:
    """One round: 27 fixed commands checked against goldens, then 12 seeded ones.

    The seeded commands (winding tables and a2d) are the heaviest, four of
    each kind at one size, so the tail (p74: the 11th job from the top) falls
    inside the cheapest kind's block and the median among the fixed commands.
    The seed moves their sizes by a few percent at most (the blowup's k only
    changes sign, which keeps the table's box and entry count): with sizes
    spread over a ladder, the tail fell between fixed and seeded commands and
    moved with the host's noise.
    """
    rng = random.Random(seed)
    manifest = json.loads((GOLDEN_DIR / "manifest.json").read_text())
    cases = []
    for name, argv in fixed_commands():
        entry = manifest[name]
        golden = (GOLDEN_DIR / f"{name}.out").read_bytes()
        cases.append(CliCase(name, argv, golden, entry["exit"]))
    for _ in range(4):
        ell = rng.choice((1, -1)) * _odd_near(rng, 501)
        cases.append(CliCase(
            f"winding-p2-{ell}",
            ("winding", "--input", "fixtures/p2.json", f"--ell={ell},{ell},{ell}"),
            check={"kind": "winding", "fixture": "p2", "ell": (ell,) * 3},
        ))
    for _ in range(4):
        k = rng.choice((1, -1)) * 33
        ell = tuple(k * x for x in BLOWUP_MIXED)
        cases.append(CliCase(
            f"winding-blowup-k{k}",
            ("winding", "--input", "fixtures/blowup_p2.json", "--ell=" + ",".join(map(str, ell))),
            check={"kind": "winding", "fixture": "blowup_p2", "ell": ell},
        ))
    for _ in range(4):
        d = 60 + rng.randrange(-1, 2)
        cases.append(CliCase(f"a2d-{d}", ("a2d", "--d", str(d)), check={"kind": "a2d", "d": d}))
    return cases
