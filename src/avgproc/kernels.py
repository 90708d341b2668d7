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

from .lattice import Point, ball, check_dimension, origin, unit_vectors

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
    offset distributions. The integer stencil is built with the kernel:
    ``scale`` is the smallest m with m*P(x, .) integral for every row, and
    ``int_bulk`` and ``int_perturbation`` hold the rows' nonzero entries as
    integers over it (``int_row``). Integer-scaled DP stores step-n
    numerators against denominator m**n. ``row_key`` is those integer rows as
    one hashable key, under which the exact DP keeps its tables.
    """

    dimension: int
    rate: Fraction
    bulk: Row
    perturbation: dict[Point, Row] = field(default_factory=dict)
    name: str = "kernel"
    scale: int = field(init=False, compare=False, repr=False)
    int_bulk: dict[Point, int] = field(init=False, compare=False, repr=False)
    int_perturbation: dict[Point, dict[Point, int]] = field(init=False, compare=False, repr=False)
    row_key: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        check_dimension(self.dimension)
        if self.rate <= 0:
            raise ValueError("uniformization rate must be positive")
        _check_row(f"{self.name} bulk", self.bulk)
        for site, row in self.perturbation.items():
            _check_row(f"{self.name} site {site}", row)
        rows = (self.bulk, *self.perturbation.values())
        scale = math.lcm(*(p.denominator for row in rows for p in row.values()))
        ints = [{o: p.numerator * (scale // p.denominator) for o, p in row.items() if p}
                for row in rows]
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "int_bulk", ints[0])
        object.__setattr__(self, "int_perturbation", dict(zip(self.perturbation, ints[1:])))
        object.__setattr__(self, "row_key", (tuple(sorted(ints[0].items())), tuple(sorted(
            (site, tuple(sorted(row.items()))) for site, row in self.int_perturbation.items()))))

    def row(self, site: Point) -> Row:
        """The offset distribution used when the walk sits at ``site``."""
        return self.perturbation.get(site, self.bulk)

    def int_row(self, site: Point) -> dict[Point, int]:
        """``row(site)``'s nonzero entries as integers over ``scale``."""
        return self.int_perturbation.get(site, self.int_bulk)


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


#: the kernels by name, for the command line; the float series route reads rows, not names
KERNELS = {
    "srw": srw_kernel,
    "avg-diff": avg_difference_kernel,
    "potlach-ind": lambda d: potlach_kernels(d)[0],
    "potlach-coup": lambda d: potlach_kernels(d)[1],
}
