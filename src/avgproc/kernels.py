"""Transition kernels for the dual walks of the averaging and potlach dynamics.

Each kernel is a discrete-time stochastic stencil in exact rationals: a
translation-invariant bulk row plus perturbed rows near the origin, obtained
by uniformizing a continuous-time difference walk at ``rate``, which sequence
tables carry for Poissonization. The dual dynamics is stated once, as the
two-token ring rule of ``pair_transition_rates``. Every coupled kernel is its
projection onto u - v at rate 2 * ``WALK_RATE[dynamics]``; away from the unit
ball, where two tokens share no clock, that projection is the SRW stencil.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .lattice import Point, ball, check_dimension, l1_norm, origin, unit_vectors

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


def _stencil(d: int) -> Row:
    """The SRW step: probability 1/(2d) to each unit offset."""
    return {e: Fraction(1, 2 * d) for e in unit_vectors(d)}


@lru_cache(maxsize=None)
def srw_kernel(d: int) -> TransitionKernel:
    """Simple random walk on Z^d: 1/(2d) to each unit neighbor.

    This is the difference of two independent dual walkers of the averaging
    process, uniformized at 2 * ``WALK_RATE["averaging"]`` = 1.
    """
    check_dimension(d)
    return TransitionKernel(d, Fraction(2 * WALK_RATE["averaging"]), _stencil(d), name="srw")


@lru_cache(maxsize=None)
def avg_difference_kernel(d: int) -> TransitionKernel:
    """Coupled-difference walk of the averaging process, uniformized at rate 1.

    The edge-ring rule projected onto u - v: SRW outside the unit ball, a lazy
    origin, and merge, reflect and stay moves from each unit vector. The
    matrix is symmetric.
    """
    return difference_kernel_from_pair_rates(d, "averaging")


@lru_cache(maxsize=None)
def potlach_kernels(d: int) -> tuple[TransitionKernel, TransitionKernel]:
    """(independent, coupled) difference kernels of the potlach process, at rate 2.

    The coupled kernel is the vertex-ring rule projected onto u - v. Tokens on
    one vertex share its clock, so P(0, .) = (1/2) law(Y1 - Y2) + (1/2) delta_0
    with Y1, Y2 independent uniform unit offsets. The independent kernel is
    its bulk, a plain SRW step every event.
    """
    coupled = difference_kernel_from_pair_rates(d, "potlach")
    return TransitionKernel(d, coupled.rate, coupled.bulk, name="potlach-ind"), coupled


def pair_transition_rates(u: Point, v: Point,
                          dynamics: str = "averaging") -> dict[tuple[Point, Point], Fraction]:
    """Transition rates of the coupled two-token walk out of the pair (u, v).

    The ring rule, written over the tuple of token positions. Averaging rings
    each edge at rate 1/(2d), and every token on it moves to a uniform
    endpoint; potlach rings each vertex at rate 1, and every token on it
    moves to a uniform neighbour. Tokens on one ringing clock move
    independently of each other; outcomes that change nothing are dropped.
    Clocks are taken from each token in turn, edges in ``unit_vectors``
    order, once each; the Gillespie sampler draws from this order.
    """
    if dynamics not in WALK_RATE:
        raise ValueError(f"unknown dynamics {dynamics!r}")
    config, units = (u, v), unit_vectors(len(u))
    clocks: dict[frozenset, tuple[Point, ...]] = {}  # the sites a clock covers -> its targets
    for p in config:
        nbrs = tuple(tuple(a + b for a, b in zip(p, e)) for e in units)
        if dynamics == "potlach":
            clocks.setdefault(frozenset((p,)), nbrs)
        else:
            for q in nbrs:
                clocks.setdefault(frozenset((p, q)), (p, q))
    ring = Fraction(1, len(units)) if dynamics == "averaging" else ONE
    rates: dict[tuple[Point, Point], Fraction] = {}
    for sites, targets in clocks.items():
        on = [i for i, p in enumerate(config) if p in sites]
        w = ring / len(targets) ** len(on)
        for ends in product(targets, repeat=len(on)):
            new = tuple(dict(zip(on, ends)).get(i, p) for i, p in enumerate(config))
            if new != config:
                rates[new] = rates[new] + w if new in rates else w
    return rates


def difference_kernel_from_pair_rates(d: int, dynamics: str = "averaging") -> TransitionKernel:
    """``pair_transition_rates`` projected onto x = u - v, at rate 2 * ``WALK_RATE[dynamics]``.

    Tokens interact only through a shared clock, an edge (|x|_1 <= 1) or a
    vertex (x = 0), so rows are projected from the pair (x, 0) over the unit
    ball; every other site takes the SRW stencil, the projection there.
    """
    check_dimension(d)
    zero, bulk = origin(d), _stencil(d)
    pairs = {x: pair_transition_rates(x, zero, dynamics) for x in ball(d, 1)}
    rate = Fraction(2 * WALK_RATE[dynamics])
    pert: dict[Point, Row] = {}
    for x, rates in pairs.items():
        moves: Row = {}
        for (u2, v2), r in rates.items():
            off = tuple(a - b - c for a, b, c in zip(u2, v2, x))
            if any(off):
                moves[off] = moves[off] + r if off in moves else r
        row = {off: r / rate for off, r in moves.items()}
        stay = ONE - sum(row.values(), start=ZERO)
        if stay:
            row[zero] = stay
        if row != bulk:
            pert[x] = row
    name = "avg-diff" if dynamics == "averaging" else "potlach-coup"
    return TransitionKernel(d, rate, bulk, pert, name=name)
