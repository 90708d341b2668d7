"""Integer-lattice geometry: points, l1 balls/spheres, finite boxes with index maps.

Points are plain tuples of ints; a Box is the torus [-L, L]^d, a periodic
truncation of Z^d, with a fixed row-major linear index layout so site columns
in CSV output are reproducible across runs.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterator

Point = tuple[int, ...]


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
    """The torus [-L, L]^d: coordinates wrap mod 2L+1; row-major linear index."""

    dimension: int
    radius: int

    def __post_init__(self):
        check_dimension(self.dimension)
        if self.radius < 1:
            raise ValueError("box radius must be >= 1")

    @property
    def side(self) -> int:
        return 2 * self.radius + 1

    @property
    def n_sites(self) -> int:
        return self.side**self.dimension

    def wrap(self, p: Point) -> Point:
        """Map an arbitrary point to its torus representative in [-L, L]^d."""
        L, side = self.radius, self.side
        return tuple((c + L) % side - L for c in p)

    def to_index(self, p: Point) -> int:
        """Linear index of the wrapped point, row-major over coordinates shifted by +L."""
        if len(p) != self.dimension:
            raise ValueError("point dimension does not match box")
        idx = 0
        for c in self.wrap(p):
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
