"""Rule-based morphism dimension counts for chains of spherical objects.

Each pair of objects falls into one of four geometric configurations; the
graded dimensions follow from projective-line cohomology alone.  The chain
builder reproduces the alternating surface/curve ladder over the string of
odd-length singularities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .lattice import LatticeError, SizeLimitError

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


def _kappa(j: int) -> tuple[int, int, int, int, int]:
    if j % 2 == 1:
        return ((j - 1) // 2, -1, 0, -(j + 1) // 2, -1)
    return ((j - 2) // 2, 0, -1, -j // 2, -1)


def _ell(j: int) -> tuple[int, int, int, int, int]:
    return (-1, 1, -1, 0, 0) if j % 2 == 1 else (0, -1, 1, -1, 0)


def _KC(j: int) -> tuple[int, int, int, int, int]:
    return (j - 2, -1, -1, -j - 1, -2)


@dataclass(frozen=True)
class A2dExample:
    """Ladder data for the string with d surface rungs minus one.

    Entry j-1 of each per-region tuple belongs to the j-th compact surface;
    edge numbering follows the five-sided region boundary walked
    counterclockwise from the long bottom edge.
    """

    d: int
    K: tuple[tuple[int, ...], ...]
    ell: tuple[tuple[int, ...], ...]
    kappa: tuple[tuple[int, ...], ...]
    chain: tuple[str, ...]


def build_a2d_example(d: int) -> A2dExample:
    if d < 1:
        raise LatticeError("d must be positive")
    if d > MAX_A2D_D:
        raise SizeLimitError(f"the a2d chain at d = {d} is above the limit of d = {MAX_A2D_D}")
    K, ell, kappa = [], [], []
    for j in range(1, d):
        kj, lj = _KC(j), _ell(j)
        if any((a - b) % 2 for a, b in zip(kj, lj)):
            raise LatticeError(f"surface {j}: K_C {kj} and twists {lj} differ in parity")
        cj = tuple((a - b) // 2 for a, b in zip(kj, lj))
        if cj != _kappa(j):
            raise LatticeError(f"surface {j}: kappa {cj} is not the closed form {_kappa(j)}")
        K.append(kj)
        ell.append(lj)
        kappa.append(cj)
    chain = []
    for j in range(1, d):
        chain.append(f"N{j}")
        chain.append(f"L{j}")
    chain.append(f"N{d}")
    return A2dExample(d, tuple(K), tuple(ell), tuple(kappa), tuple(chain))


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
    """Configuration of chain objects at positions i < j."""
    a, b = example.chain[i], example.chain[j]
    if j == i + 1:
        if a.startswith("N"):
            return SphericalPair("point_intersection")
        jj = int(a[1:])
        k = example.kappa[jj - 1][2] + 1
        return SphericalPair("curve_in_surface", k=k)
    if a.startswith("L") and b.startswith("L") and int(b[1:]) == int(a[1:]) + 1:
        jj = int(a[1:])
        k = -example.kappa[jj - 1][3] + example.kappa[jj][0]
        return SphericalPair("surfaces_along_curve", k=k, m=-(jj + 1))
    return SphericalPair("disjoint")


def verify_a2d_configuration(example: A2dExample) -> A2dReport:
    failures = []
    checks = []
    for j in range(1, example.d):
        kj, lj, cj = example.K[j - 1], example.ell[j - 1], example.kappa[j - 1]
        if tuple((a - b) for a, b in zip(kj, lj)) != tuple(2 * c for c in cj):
            failures.append(f"kappa of region {j} is not half the twist difference")
    for j in range(1, example.d - 1):
        lhs = -example.kappa[j - 1][3] + example.kappa[j][0]
        if lhs != j:
            failures.append(f"ladder identity fails between regions {j} and {j + 1}: {lhs} != {j}")
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
