"""Stochastic mass-redistribution dynamics on a torus.

Two dynamics share the machinery. "averaging": each edge carries an
exponential clock of rate 1/(2d); when it rings the two endpoint masses are
replaced by their mean. "potlach": each vertex carries a rate-1 clock; when
it rings the vertex splits its entire mass evenly over its 2d neighbours.
Both conserve total mass exactly.

Events are drawn by superposition: the number of rings in [0, t] is Poisson
(total rate x t), marks are iid uniform over edges (or vertices), times are
sorted uniforms. That is the standard order-statistics representation of the
superposed Poisson processes, so the sampled schedule is exact in
distribution. Only the order of events matters for the final field, so the
simulator draws counts and marks and skips the times. Trials are seeded from
spawned SeedSequence children, each consumed in the same order as
``EventSchedule.sample``, so any single trial can be reproduced in isolation.

One engine, ``run_events``, applies the events of every trial in lockstep.
It holds all trials in one flat buffer of trials x (n_sites + 1) entries,
float64 or, in exact mode, Python ints: integer numerators over one common
denominator, 2**n_steps for averaging and (2d)**n_steps for potlach. Every
event then divides by 2 (or 2d) exactly, and each site becomes a Fraction
once, at the end. The last entry of each row is a sentinel site that holds
zero. Shorter mark streams are padded with one extra mark whose endpoints
are all the sentinel, so a padding event averages (or splits) zero with
itself and no per-event mask is needed.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lattice import Box, check_dimension, origin, unit_vectors

DYNAMICS = ("averaging", "potlach")

#: uniformization rate of the dual single-particle walk, used for box sizing
WALK_RATE = {"averaging": 0.5, "potlach": 1.0}


def default_box_radius(t: float, dynamics: str = "averaging") -> int:
    """Six diffusive standard deviations of the dual walk, plus slack."""
    lam = WALK_RATE[dynamics]
    return math.ceil(6.0 * math.sqrt(max(t, 1.0) * lam)) + 5


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one simulation run."""

    dimension: int = 1
    t: float = 64.0
    trials: int = 1
    seed: int = 0
    dynamics: str = "averaging"
    mode: str = "float"
    box_radius: int | None = None

    def __post_init__(self):
        check_dimension(self.dimension)
        if self.t < 0:
            raise ValueError("t must be >= 0")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.dynamics not in DYNAMICS:
            raise ValueError(f"dynamics must be one of {DYNAMICS}")
        if self.mode not in ("float", "exact"):
            raise ValueError("mode must be 'float' or 'exact'")

    @property
    def box(self) -> Box:
        r = self.box_radius
        if r is None:
            r = default_box_radius(self.t, self.dynamics)
        return Box(self.dimension, r, "torus")


@dataclass(frozen=True)
class EventSchedule:
    """Sorted (time, mark) stream for one trial.

    Marks are edge indices site*d + axis for averaging (the edge from the
    site to its +e_axis neighbour; every torus edge appears exactly once) and
    site indices for potlach. Ties in time are broken by position in the
    stream, which is deterministic given the generator state.
    """

    times: np.ndarray
    marks: np.ndarray
    dynamics: str
    box: Box

    @classmethod
    def total_rate(cls, box: Box, dynamics: str) -> float:
        if dynamics == "averaging":
            return box.n_sites / 2.0  # d * n_sites edges, rate 1/(2d) each
        return float(box.n_sites)

    @classmethod
    def n_marks(cls, box: Box, dynamics: str) -> int:
        return box.n_sites * (box.dimension if dynamics == "averaging" else 1)

    @classmethod
    def sample(cls, rng: np.random.Generator, box: Box, t: float,
               dynamics: str = "averaging") -> "EventSchedule":
        marks = _draw_marks(rng, box, t, dynamics)
        times = np.sort(rng.random(len(marks))) * t
        return cls(times, marks, dynamics, box)

    def __len__(self) -> int:
        return len(self.marks)


def _draw_marks(rng: np.random.Generator, box: Box, t: float, dynamics: str) -> np.ndarray:
    """Poisson(total_rate x t) iid uniform marks: one trial's event stream."""
    n = int(rng.poisson(EventSchedule.total_rate(box, dynamics) * t))
    return rng.integers(0, EventSchedule.n_marks(box, dynamics), size=n, dtype=np.int64)


def _neighbor_table(box: Box) -> np.ndarray:
    """nbr[i, k]: flat index of neighbour k (unit_vectors order) of site i."""
    shape = (box.side,) * box.dimension
    coords = np.array(np.unravel_index(np.arange(box.n_sites), shape))
    return np.stack([np.ravel_multi_index(coords + np.array(e)[:, None], shape, mode="wrap")
                     for e in unit_vectors(box.dimension)], axis=1)


def _endpoints(box: Box, dynamics: str) -> np.ndarray:
    """ends[:, m]: flat sites touched by mark m, source first.

    Averaging marks touch (site, +e_axis neighbour); potlach marks touch the
    site and then its 2d neighbours in ``unit_vectors`` order. The extra
    column ``n_marks`` is the padding mark: every entry is the sentinel site
    ``n_sites``, which holds zero and belongs to no trial's field.
    """
    n, d = box.n_sites, box.dimension
    nbr = _neighbor_table(box)
    if dynamics == "averaging":
        ends = np.stack([np.repeat(np.arange(n), d), nbr[:, 0::2].reshape(-1)])
    else:
        ends = np.concatenate([np.arange(n)[None, :], nbr.T])
    pad = np.full((len(ends), 1), n, dtype=np.int64)
    return np.concatenate([ends, pad], axis=1)


def run_events(box: Box, dynamics: str, marks: np.ndarray,
               exact: bool = False) -> np.ndarray:
    """Apply a padded (n_steps, trials) mark matrix to point masses at the origin.

    Column i is the mark stream of trial i, padded at the end with the mark
    ``EventSchedule.n_marks(box, dynamics)``. Every trial advances in
    lockstep over one flat buffer of trials x (n_sites + 1) entries, float64
    or, with ``exact``, integer numerators over den = 2**n_steps (averaging)
    or (2d)**n_steps (potlach). After j events every numerator is a multiple
    of den / 2**j (or den / (2d)**j), so ``// 2`` and ``// 2d`` are exact.
    Returns the fields with shape (trials, side, ..., side), float64 or
    Fractions.
    """
    marks = np.asarray(marks)
    pad = EventSchedule.n_marks(box, dynamics)
    if marks.ndim != 2 or marks.dtype.kind not in "iu":
        raise ValueError("marks must be an integer (n_steps, trials) matrix")
    if marks.size and (marks.min() < 0 or marks.max() > pad):
        raise ValueError(f"marks must lie in [0, {pad}]")
    ends = _endpoints(box, dynamics)
    trials, width = marks.shape[1], box.n_sites + 1
    deg = 2 * box.dimension
    den = (2 if dynamics == "averaging" else deg) ** len(marks) if exact else 1
    div = operator.floordiv if exact else operator.truediv
    buf = np.zeros(trials * width, dtype=object if exact else float)  # object zeros are int 0
    rows = np.arange(trials, dtype=np.int64) * width
    buf[rows + box.to_index(origin(box.dimension))] = den
    for m in marks:
        idx = ends[:, m] + rows
        if dynamics == "averaging":
            mean = div(buf[idx[0]] + buf[idx[1]], 2)
            buf[idx[0]] = mean
            buf[idx[1]] = mean
        else:
            share = div(buf[idx[0]], deg)
            buf[idx[0]] = 0
            for k in range(1, deg + 1):
                buf[idx[k]] += share
    fields = buf.reshape(trials, width)[:, :-1]
    if exact:
        fields = np.frompyfunc(lambda num: Fraction(num, den), 1, 1)(fields)
    return fields.reshape((trials,) + (box.side,) * box.dimension)


@dataclass
class SimulationResult:
    """Final-time fields of every trial plus the generating configuration."""

    config: ExperimentConfig
    box: Box
    fields: np.ndarray  # (trials, side, ..., side): float64, or Fractions in exact mode

    def totals(self) -> np.ndarray:
        return self.fields.reshape(self.config.trials, -1).sum(axis=1)

    def two_norms_sq(self) -> np.ndarray:
        flat = self.fields.reshape(self.config.trials, -1)
        return (flat * flat).sum(axis=1)

    def mean_field(self) -> np.ndarray:
        return self.fields.mean(axis=0)


def simulate(config: ExperimentConfig) -> SimulationResult:
    """Run ``config.trials`` independent trials from the point-mass start.

    Deterministic in the config: trial i is driven by the i-th spawned child
    of SeedSequence(config.seed) in both modes, so exact and float runs with
    the same seed see identical event streams.
    """
    box = config.box
    exact = config.mode == "exact"
    children = np.random.SeedSequence(config.seed).spawn(config.trials)
    pad = EventSchedule.n_marks(box, config.dynamics)
    mu = EventSchedule.total_rate(box, config.dynamics) * config.t
    fields = np.empty((config.trials,) + (box.side,) * box.dimension,
                      dtype=object if exact else float)
    # chunk the trials so the padded mark matrix stays modest; marks are
    # stored in the smallest unsigned type that holds the padding mark
    small = np.min_scalar_type(pad)
    max_n_est = int(mu + 10 * math.sqrt(mu + 1) + 10)
    chunk = max(1, min(config.trials, int(5e7 // max(max_n_est, 1))))
    for lo in range(0, config.trials, chunk):
        streams = [_draw_marks(np.random.default_rng(ss), box, config.t,
                               config.dynamics).astype(small)
                   for ss in children[lo: lo + chunk]]
        marks = np.full((max(map(len, streams)), len(streams)), pad, dtype=small)
        for i, mk in enumerate(streams):
            marks[: len(mk), i] = mk
        del streams
        fields[lo: lo + chunk] = run_events(box, config.dynamics, marks, exact)
    return SimulationResult(config, box, fields)
