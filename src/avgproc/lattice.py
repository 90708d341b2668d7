"""Integer-lattice geometry: points, l1 balls/spheres, finite boxes with index maps.

Points are plain tuples of ints; a Box is a finite truncation of Z^d, either
periodic (torus) or with absorbing boundary, with a fixed row-major linear
index layout so site columns in CSV output are reproducible across runs.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterator

Point = tuple[int, ...]

TOPOLOGIES = ("torus", "absorbing")


def check_dimension(d: int) -> None:
    """Raise ValueError unless d is a valid lattice dimension (d >= 1)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")


def origin(d: int) -> Point:
    return (0,) * d


def l1_norm(p: Point) -> int:
    """l1 norm sum_j |p_j| of a lattice point."""
    return sum(abs(c) for c in p)


def unit_vectors(d: int) -> list[Point]:
    """The 2d signed unit offsets, in a fixed deterministic order."""
    out = []
    for j in range(d):
        for sign in (1, -1):
            out.append(tuple(sign if i == j else 0 for i in range(d)))
    return out


def _sphere_iter(d: int, r: int) -> Iterator[Point]:
    if d == 1:
        if r == 0:
            yield (0,)
        else:
            yield (r,)
            yield (-r,)
        return
    for a in range(-r, r + 1):
        for rest in _sphere_iter(d - 1, r - abs(a)):
            yield (a,) + rest


def sphere(d: int, r: int) -> list[Point]:
    """All points of Z^d at l1 distance exactly r from the origin.

    For r = 1 this is the set of 2d unit neighbors.
    """
    check_dimension(d)
    if r < 0:
        raise ValueError("radius must be nonnegative")
    return list(_sphere_iter(d, r))


def ball(d: int, r: int) -> list[Point]:
    """All points with l1 norm at most r."""
    check_dimension(d)
    out: list[Point] = []
    for k in range(r + 1):
        out.extend(_sphere_iter(d, k))
    return out


def ball_volume(d: int, r: int) -> int:
    """|B_d(r)| by the closed form sum_k 2^k C(d,k) C(r,k).

    Consistent with len(ball(d, r)); the closed form keeps this O(d) for
    large radii.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    return sum(2**k * comb(d, k) * comb(r, k) for k in range(min(d, r) + 1))


def sphere_size(d: int, r: int) -> int:
    if r == 0:
        return 1
    return ball_volume(d, r) - ball_volume(d, r - 1)


@dataclass(frozen=True)
class Box:
    """Finite truncation [-L, L]^d of Z^d with a row-major linear index.

    topology "torus" wraps coordinates mod (2L+1); "absorbing" treats
    out-of-box sites as a graveyard (mass that steps out is lost and
    tracked separately by the DP driver).
    """

    dimension: int
    radius: int
    topology: str = "torus"

    def __post_init__(self):
        check_dimension(self.dimension)
        if self.radius < 1:
            raise ValueError("box radius must be >= 1")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"topology must be one of {TOPOLOGIES}")

    @property
    def side(self) -> int:
        return 2 * self.radius + 1

    @property
    def n_sites(self) -> int:
        return self.side**self.dimension

    def contains(self, p: Point) -> bool:
        return all(-self.radius <= c <= self.radius for c in p)

    def wrap(self, p: Point) -> Point:
        """Map an arbitrary point to its torus representative in [-L, L]^d."""
        L, side = self.radius, self.side
        return tuple((c + L) % side - L for c in p)

    def to_index(self, p: Point) -> int:
        """Linear index, row-major over coordinates shifted by +L.

        On the torus arbitrary points are wrapped first; on the absorbing
        box out-of-range points are a contract violation.
        """
        if len(p) != self.dimension:
            raise ValueError("point dimension does not match box")
        if self.topology == "torus":
            p = self.wrap(p)
        elif not self.contains(p):
            raise ValueError(f"point {p} outside absorbing box of radius {self.radius}")
        idx = 0
        for c in p:
            idx = idx * self.side + (c + self.radius)
        return idx

    def from_index(self, idx: int) -> Point:
        if not 0 <= idx < self.n_sites:
            raise ValueError("index out of range")
        coords = []
        for _ in range(self.dimension):
            idx, rem = divmod(idx, self.side)
            coords.append(rem - self.radius)
        return tuple(reversed(coords))

    def points(self) -> Iterator[Point]:
        """All points in linear-index order."""
        rng = range(-self.radius, self.radius + 1)
        return itertools.product(*[rng] * self.dimension)

    def neighbors(self, p: Point) -> list[Point]:
        """Lattice neighbors of p within the box (wrapped on the torus)."""
        out = []
        for e in unit_vectors(self.dimension):
            q = tuple(a + b for a, b in zip(p, e))
            if self.topology == "torus":
                out.append(self.wrap(q))
            elif self.contains(q):
                out.append(q)
        return out
