"""Transition kernels for the dual walks of the averaging and potlach dynamics.

Each kernel is a discrete-time stochastic stencil obtained by uniformizing a
continuous-time difference walk at rate ``rate`` (events per unit time): a
translation-invariant bulk row plus a finite set of perturbed rows near the
origin. All probabilities are exact rationals, and sequence tables carry
their kernel's ``rate`` for Poissonization. One dual walker jumps at
``WALK_RATE``; two coupled walkers follow the edge-ring rule of
``pair_transition_rates``, which projects onto ``avg_difference_kernel``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .lattice import Point, ball, check_dimension, l1_norm, origin, sphere, unit_vectors

Row = dict[Point, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)

#: jump rate of one dual walker: averaging rings each of its 2d edges at rate
#: 1/(2d) and moves it with probability 1/2; potlach rings its vertex at rate 1
WALK_RATE = {"averaging": 0.5, "potlach": 1.0}


def _check_row(label: str, row: Row) -> None:
    total = sum(row.values(), start=ZERO)
    if total != 1:
        raise ValueError(f"{label} row sums to {total}, expected 1")
    for off, p in row.items():
        if not 0 <= p <= 1:
            raise ValueError(f"{label} row has probability {p} at offset {off}")


@dataclass(frozen=True)
class TransitionKernel:
    """Local stochastic stencil with a site-dependent perturbation zone.

    bulk maps offsets to probabilities and applies at every site not listed
    in ``perturbation``; perturbed rows map absolute sites to their own
    offset distributions.
    """

    dimension: int
    rate: Fraction
    bulk: Row
    perturbation: dict[Point, Row] = field(default_factory=dict)
    name: str = "kernel"

    def __post_init__(self):
        check_dimension(self.dimension)
        if self.rate <= 0:
            raise ValueError("uniformization rate must be positive")
        _check_row(f"{self.name} bulk", self.bulk)
        for site, row in self.perturbation.items():
            _check_row(f"{self.name} site {site}", row)

    def row(self, site: Point) -> Row:
        """The offset distribution used when the walk sits at ``site``."""
        return self.perturbation.get(site, self.bulk)

    def transition(self, x: Point, y: Point) -> Fraction:
        """Single-step probability P(x, y)."""
        off = tuple(b - a for a, b in zip(x, y))
        return self.row(x).get(off, ZERO)

    @property
    def max_step(self) -> int:
        """Largest l1 jump length any row can make."""
        m = max((l1_norm(o) for o in self.bulk), default=0)
        for row in self.perturbation.values():
            m = max(m, max((l1_norm(o) for o in row), default=0))
        return m

    @property
    def scale(self) -> int:
        """Smallest integer m with m*P(x, .) integral for every row.

        Integer-scaled DP stores step-n numerators against denominator m**n.
        """
        dens = [p.denominator for p in self.bulk.values()]
        for row in self.perturbation.values():
            dens.extend(p.denominator for p in row.values())
        return math.lcm(*dens)

    def symmetry_defect(self, radius: int = 3) -> Fraction:
        """max |P(x,y) - P(y,x)| over the window B(radius); 0 iff symmetric there."""
        pts = ball(self.dimension, radius)
        worst = ZERO
        for x in pts:
            for off in self.row(x):
                y = tuple(a + b for a, b in zip(x, off))
                worst = max(worst, abs(self.transition(x, y) - self.transition(y, x)))
        return worst


@lru_cache(maxsize=None)
def srw_kernel(d: int) -> TransitionKernel:
    """Simple random walk on Z^d: 1/(2d) to each unit neighbor, rate 1.

    This is the uniformization of the difference of two independent dual
    walks of the averaging process.
    """
    check_dimension(d)
    p = Fraction(1, 2 * d)
    return TransitionKernel(d, ONE, {e: p for e in unit_vectors(d)}, name="srw")


@lru_cache(maxsize=None)
def avg_difference_kernel(d: int) -> TransitionKernel:
    """Coupled-difference walk of the averaging process, uniformized at rate 1.

    Simple random walk outside the unit ball; inside it, the origin row is
    lazy (stay 1/2, each neighbor 1/(4d)), and each unit vector x steps to 0
    with 1/(4d), reflects to -x with 1/(8d), stays with 1/(8d), and makes
    ordinary 1/(2d) steps to its neighbors outside the ball. The resulting
    matrix is symmetric.
    """
    check_dimension(d)
    bulk = {e: Fraction(1, 2 * d) for e in unit_vectors(d)}
    zero = origin(d)
    pert: dict[Point, Row] = {
        zero: {zero: Fraction(1, 2)} | {e: Fraction(1, 4 * d) for e in unit_vectors(d)}
    }
    for x in sphere(d, 1):
        row: Row = {
            tuple(-c for c in x): Fraction(1, 4 * d),        # offset to the origin
            tuple(-2 * c for c in x): Fraction(1, 8 * d),    # reflection x -> -x
            zero: Fraction(1, 8 * d),                        # lazy stay
        }
        for e in unit_vectors(d):
            y = tuple(a + b for a, b in zip(x, e))
            if l1_norm(y) > 1:
                row[e] = Fraction(1, 2 * d)
        pert[x] = row
    return TransitionKernel(d, ONE, bulk, pert, name="avg-diff")


@lru_cache(maxsize=None)
def potlach_kernels(d: int) -> tuple[TransitionKernel, TransitionKernel]:
    """(independent, coupled) difference kernels of the potlach process.

    Both walks jump at total rate 2 (two rate-1 tokens), so both kernels are
    uniformized at rate 2. The independent difference is a plain SRW step
    every event. When the coupled tokens share a vertex they share its clock:
    from 0 the event rate is only 1, and the displacement is Y1 - Y2 with Y1,
    Y2 independent uniform unit offsets; uniformized, P(0, .) becomes
    (1/2) law(Y1 - Y2) + (1/2) delta_0.
    """
    check_dimension(d)
    stencil = {e: Fraction(1, 2 * d) for e in unit_vectors(d)}
    independent = TransitionKernel(d, Fraction(2), dict(stencil), name="potlach-ind")

    zero = origin(d)
    law: Row = {}
    units = unit_vectors(d)
    w = Fraction(1, (2 * d) ** 2)
    for y1 in units:
        for y2 in units:
            off = tuple(a - b for a, b in zip(y1, y2))
            law[off] = law.get(off, ZERO) + w
    row = {off: p / 2 for off, p in law.items()}
    row[zero] = row.get(zero, ZERO) + Fraction(1, 2)
    coupled = TransitionKernel(d, Fraction(2), dict(stencil), {zero: row}, name="potlach-coup")
    return independent, coupled


def pair_transition_rates(u: Point, v: Point) -> dict[tuple[Point, Point], Fraction]:
    """Transition rates of the coupled two-token walk out of the pair (u, v).

    The edge-ring rule, written over the tuple of token positions: each edge
    rings at rate 1/(2d), and every token on it moves to a uniform endpoint,
    independently of the others; outcomes that change nothing are dropped.
    Edges are taken in ``unit_vectors`` order from each token in turn, once each.
    """
    config, d = (u, v), len(u)
    edges: dict[frozenset, tuple[Point, Point]] = {}
    for p in config:
        for e in unit_vectors(d):
            q = tuple(a + b for a, b in zip(p, e))
            edges.setdefault(frozenset((p, q)), (p, q))
    rates: dict[tuple[Point, Point], Fraction] = {}
    for edge in edges.values():
        on = [i for i, p in enumerate(config) if p in edge]
        for ends in product(edge, repeat=len(on)):
            new = tuple(dict(zip(on, ends)).get(i, p) for i, p in enumerate(config))
            if new != config:
                rates[new] = rates.get(new, ZERO) + Fraction(1, 2 * d * 2 ** len(on))
    return rates


def difference_kernel_from_pair_rates(d: int) -> TransitionKernel:
    """Project the coupled pair rates onto the difference coordinate.

    Builds rows for every |x| <= 2 from the pair (x, 0), uniformizes at rate
    1, and fills in the SRW bulk elsewhere; by translation invariance this
    reconstructs the averaging difference kernel exactly, which is asserted
    in tests.
    """
    zero = origin(d)
    bulk = {e: Fraction(1, 2 * d) for e in unit_vectors(d)}
    pert: dict[Point, Row] = {}
    for x in ball(d, 2):
        row: Row = {}
        for (u2, v2), rate in pair_transition_rates(x, zero).items():
            off = tuple(a - b - c for a, b, c in zip(u2, v2, x))
            if any(off):
                row[off] = row.get(off, ZERO) + rate
        stay = ONE - sum(row.values(), start=ZERO)
        if stay:
            row[zero] = stay
        if row != bulk:
            pert[x] = row
    return TransitionKernel(d, ONE, bulk, pert, name="avg-diff-from-pairs")
