"""Rule-based morphism dimension counts for chains of spherical objects.

Each pair of objects falls into one of four geometric configurations; the
graded dimensions follow from projective-line cohomology alone.  The chain
builder reproduces the alternating surface/curve ladder over the string of
odd-length singularities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .bundles import canonical_KC
from .examples import a2d_subdivision
from .fan import self_intersections
from .lattice import LatticeError, SizeLimitError
from .tropical import region_at, tropical_curve

KINDS = ("point_intersection", "curve_in_surface", "surfaces_along_curve", "disjoint")

# The report checks every pair of the 2d - 1 chain objects, so it grows as d^2.
MAX_A2D_D = 200


@dataclass(frozen=True)
class SphericalPair:
    kind: str
    k: Optional[int] = None
    m: Optional[int] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise LatticeError(f"unknown pair kind {self.kind!r}")
        need_k = self.kind in ("curve_in_surface", "surfaces_along_curve")
        need_m = self.kind == "surfaces_along_curve"
        if need_k and self.k is None:
            raise LatticeError(f"{self.kind} needs the restriction degree k")
        if need_m and self.m is None:
            raise LatticeError(f"{self.kind} needs the curve self-intersection m")
        if not need_k and self.k is not None:
            raise LatticeError(f"{self.kind} takes no parameter k")
        if not need_m and self.m is not None:
            raise LatticeError(f"{self.kind} takes no parameter m")


def p1_cohomology(d: int) -> tuple[int, int]:
    return (max(d + 1, 0), max(-d - 1, 0))


def ext_total_dims(pair: SphericalPair) -> tuple[int, int, int, int]:
    """Graded morphism dimensions in degrees 0..3."""
    if pair.kind == "point_intersection":
        return (0, 1, 0, 0)
    if pair.kind == "curve_in_surface":
        h0a, h1a = p1_cohomology(-pair.k)
        h0b, h1b = p1_cohomology(-1 - pair.k)
        return (h0a, h1a + h0b, h1b, 0)
    if pair.kind == "surfaces_along_curve":
        h0, h1 = p1_cohomology(pair.k + pair.m)
        return (0, h0, h1, 0)
    return (0, 0, 0, 0)


def _ell(j: int) -> tuple[int, int, int, int, int]:
    """The twisting chosen on surface j: a choice, not a property of the curve."""
    return (-1, 1, -1, 0, 0) if j % 2 == 1 else (0, -1, 1, -1, 0)


@dataclass(frozen=True)
class A2dExample:
    """Ladder data for the string with d surface rungs minus one.

    Entry j-1 of each per-region tuple belongs to the j-th compact surface,
    the region of a2d_subdivision(d) at (j, 1).  Its five edges are those dual
    to the neighbours in directions (-1,0), (0,-1), (1,-1), (1,0) and (-j,1).
    Entry j-2 of m is the self-intersection, in surface j >= 2, of the curve
    it shares with surface j-1.
    """

    d: int
    K: tuple[tuple[int, ...], ...]
    ell: tuple[tuple[int, ...], ...]
    kappa: tuple[tuple[int, ...], ...]
    m: tuple[int, ...]
    chain: tuple[str, ...]


def build_a2d_example(d: int) -> A2dExample:
    if d < 1:
        raise LatticeError("d must be positive")
    if d > MAX_A2D_D:
        raise SizeLimitError(f"the a2d chain at d = {d} is above the limit of d = {MAX_A2D_D}")
    curve = tropical_curve(a2d_subdivision(d))
    K, ell, kappa, m = [], [], [], []
    for j in range(1, d):
        region = region_at(curve, (j, 1))
        kc, keys = canonical_KC(region), dict(zip(region.fan.rays, region.edge_keys))
        kj = tuple(kc[keys[u]] for u in ((-1, 0), (0, -1), (1, -1), (1, 0), (-j, 1)))
        lj = _ell(j)
        if any((a - b) % 2 for a, b in zip(kj, lj)):
            raise LatticeError(f"surface {j}: K_C {kj} and twists {lj} differ in parity")
        K.append(kj)
        ell.append(lj)
        kappa.append(tuple((a - b) // 2 for a, b in zip(kj, lj)))
        if j >= 2:
            m.append(dict(zip(region.fan.rays, self_intersections(region.fan)))[-1, 0])
    chain = [f"{name}{j}" for j in range(1, d) for name in "NL"] + [f"N{d}"]
    return A2dExample(d, tuple(K), tuple(ell), tuple(kappa), tuple(m), tuple(chain))


@dataclass(frozen=True)
class PairCheck:
    left: str
    right: str
    kind: str
    dims: tuple[int, int, int, int]
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class A2dReport:
    d: int
    ok: bool
    checks: tuple[PairCheck, ...]
    failures: tuple[str, ...]
    assumptions: tuple[str, ...]


def _pair_for(example: A2dExample, i: int, j: int) -> SphericalPair:
    """Configuration of chain objects at positions i < j.

    Object i is N_{i//2+1} for even i and the surface L_{i//2+1} for odd i.
    """
    r = i // 2
    if j == i + 1:
        if i % 2 == 0:
            return SphericalPair("point_intersection")
        return SphericalPair("curve_in_surface", k=example.kappa[r][2] + 1)
    if i % 2 == 1 and j == i + 2:
        k = -example.kappa[r][3] + example.kappa[r + 1][0]
        return SphericalPair("surfaces_along_curve", k=k, m=example.m[r])
    return SphericalPair("disjoint")


def verify_a2d_configuration(example: A2dExample) -> A2dReport:
    failures = []
    checks = []
    for j in range(1, example.d):
        kj, lj, cj = example.K[j - 1], example.ell[j - 1], example.kappa[j - 1]
        if tuple((a - b) for a, b in zip(kj, lj)) != tuple(2 * c for c in cj):
            failures.append(f"kappa of region {j} is not half the twist difference")
    for j in range(1, example.d - 1):
        lhs, rhs = -example.kappa[j - 1][3] + example.kappa[j][0], -1 - example.m[j - 1]
        if lhs != rhs:
            failures.append(f"ladder identity fails between regions {j} and {j + 1}: {lhs} != {rhs}")
    n = len(example.chain)
    for i in range(n):
        for j in range(i + 1, n):
            pair = _pair_for(example, i, j)
            dims = ext_total_dims(pair)
            total = sum(dims)
            want = 1 if j == i + 1 else 0
            ok = total == want
            detail = "" if ok else f"total {total}, expected {want}"
            checks.append(
                PairCheck(example.chain[i], example.chain[j], pair.kind, dims, ok, detail)
            )
            if not ok:
                failures.append(
                    f"pair ({example.chain[i]}, {example.chain[j]}): {detail}"
                )
    assumptions = (
        "every compact surface in the ladder is a smooth rational toric surface",
        "each curve object is a projective line of normal degrees (-1, -1)",
        "sphericality of the chain objects is assumed, not computed",
    )
    return A2dReport(example.d, not failures, tuple(checks), tuple(failures), assumptions)
