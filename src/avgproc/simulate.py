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
event then divides by 2 (or 2d) exactly, an averaging event by a right
shift, and each site becomes a Fraction once, at the end. The last entry of
each row is a sentinel site that holds zero. Shorter mark streams are padded
with one extra mark whose endpoints are all the sentinel, so a padding event
averages (or splits) zero with itself and no per-event mask is needed.
Marks are stored in the smallest unsigned type that holds the padding mark;
each step widens its row of marks to ``intp`` once and gathers the endpoints
with 1-D ``take`` from a C-contiguous endpoint table.

``simulate`` feeds ``run_events`` one chunk of trials at a time. A chunk's
generators first draw every event count; the padded (n_steps, chunk) mark
matrix is allocated once, at the chunk's largest count, and each trial's
marks are drawn straight into its column, so the marks exist once. The
chunks are the fewest equal ones such that (1) the mark matrix holds at most
``MAX_MARK_ENTRIES`` entries, and (2) the float64 buffer fits in
``BUFFER_BYTES`` (2 MiB, the L2 cache of one core), unless that would leave
fewer than ``MIN_CHUNK_TRIALS`` trials in a chunk. Measured on a 2-vCPU Xeon
VM with 2 MiB of L2 per core (medians of 5-6 runs), on boxes sized by an
earlier, wider rule: on the marks of criterion 6 (10^4 trials on a 79-site
torus, a 6.4 MB buffer) ``run_events`` took 1.13 s in one chunk, 0.76 s in
two, 0.69 s in four of 2500, 0.68 s in five of 2000 and 0.75 s in eight of
1250. At d=2, t=16 with 1000 trials on a torus of radius 22 (2025 sites, a
16 MB buffer) it took 1.04 s in one chunk, 1.12 s in two and 1.56 s in four:
below about 2000 trials the fixed cost of each step outweighs the cache
misses, hence the floor. On its present 65-site torus (a 5.3 MB buffer)
criterion 6 runs in three chunks of 3333-3334 trials.

The default torus is the smallest whose wrap-around bound ``wrap_bound`` is
at most ``WRAP_TOL``; ``default_box_radius`` states the bound and its proof.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lattice import Box, check_dimension, origin, unit_vectors

DYNAMICS = ("averaging", "potlach")

#: uniformization rate of the dual single-particle walk, used for box sizing
WALK_RATE = {"averaging": 0.5, "potlach": 1.0}

#: largest wrap-around bound the default torus may have (see default_box_radius)
WRAP_TOL = 1e-6

#: limits on one lockstep chunk of trials (see the module docstring)
MAX_MARK_ENTRIES = 50_000_000  # entries of the padded mark matrix
BUFFER_BYTES = 2 << 20         # float64 lockstep buffer: one core's L2 cache
MIN_CHUNK_TRIALS = 2000        # narrower chunks lose to per-step overhead


def _axis_variance(t: float, dynamics: str, dimension: int) -> float:
    """s = rate x max(t, 1) / d: the variance of one axis of the dual walk."""
    return WALK_RATE[dynamics] * max(t, 1.0) / dimension


def wrap_bound(radius: int, t: float, dynamics: str = "averaging",
               dimension: int = 1) -> float:
    """B(r) = 2d exp(-s psi(r/s)), psi(u) = u asinh(u) - sqrt(1 + u^2) + 1.

    B(r) bounds the probability that a dual walker started at the origin
    reaches distance r along some axis by time t; s is that of
    ``_axis_variance``. See ``default_box_radius`` for the proof and for
    what the bound controls.
    """
    s = _axis_variance(t, dynamics, dimension)
    u = radius / s
    # sqrt(1 + u^2) - 1 written without cancellation for small u
    psi = u * math.asinh(u) - u * u / (1.0 + math.sqrt(1.0 + u * u))
    return 2 * dimension * math.exp(-s * psi)


def default_box_radius(t: float, dynamics: str = "averaging", dimension: int = 1) -> int:
    """The smallest r >= 1 with ``wrap_bound(r, t, dynamics, d) <= WRAP_TOL``.

    The bound. The dual walker jumps at rate lambda = ``WALK_RATE[dynamics]``
    along a uniformly chosen one of the 2d directions, so its d coordinates
    are independent continuous-time walks, each with unit jumps at rate
    lambda / d. One coordinate X_u is a Skellam variable with variance
    s = lambda t / d and E exp(theta X_u) = exp(u (lambda / d)(cosh theta - 1)).
    exp(theta X_u) is a nonnegative submartingale, so Doob's maximal
    inequality gives P(max_{u <= t} X_u >= r) <= exp(-theta r + s (cosh theta - 1))
    for every theta > 0. At theta = asinh(r / s) the exponent is -s psi(r / s).
    The same holds for -X, and a union bound over the 2d half-axes gives B(r).
    Using max(t, 1) in place of t keeps tiny boxes legal and only enlarges
    s, so B(r) stays an upper bound, since it grows with s.

    What it controls. By duality E eta_t(x) and E eta_t(x) eta_t(y) are
    transition probabilities of the one- and two-walker dual chains, whose
    walkers each move like the walk above; E||eta_t||^2 is the probability
    that the pair started together at the origin is together at time t. On
    the torus [-r, r]^d the chains have the same rates as on Z^d for as long
    as no walker reaches distance r along an axis: only from such a site
    does a jump, or a pair interaction, cross the seam. Run on one set of
    clocks, the torus and Z^d chains therefore agree until that time, so
    the one-point function differs by at most B(r) and E||eta_t||^2 by at
    most 2 B(r) <= 2e-6, a tenth of criterion 6's standard error of 2.0e-5.
    Since B falls with r and psi(u) <= u^2 / 2, every r below
    sqrt(2 s log(2d / WRAP_TOL)) has B(r) > WRAP_TOL, so the search starts
    there and the radius returned is the smallest admissible one.
    """
    s = _axis_variance(t, dynamics, dimension)
    r = max(1, math.floor(math.sqrt(2.0 * s * math.log(2 * dimension / WRAP_TOL))))
    while wrap_bound(r, t, dynamics, dimension) > WRAP_TOL:
        r += 1
    return r


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
            r = default_box_radius(self.t, self.dynamics, self.dimension)
        return Box(self.dimension, r)

    @property
    def wrap_bound(self) -> float:
        """``wrap_bound`` of this run's torus, whether its radius is set or default."""
        return wrap_bound(self.box.radius, self.t, self.dynamics, self.dimension)


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
        n = _draw_count(rng, cls.total_rate(box, dynamics) * t)
        marks = _draw_stream(rng, n, cls.n_marks(box, dynamics))
        times = np.sort(rng.random(n)) * t
        return cls(times, marks, dynamics, box)

    def __len__(self) -> int:
        return len(self.marks)


# One trial's event stream is _draw_count, then _draw_stream, on one generator.
def _draw_count(rng: np.random.Generator, mu: float) -> int:
    """Poisson(mu) number of events, mu = total_rate x t."""
    return int(rng.poisson(mu))


def _draw_stream(rng: np.random.Generator, n: int, n_marks: int) -> np.ndarray:
    """n iid uniform marks in [0, n_marks)."""
    return rng.integers(0, n_marks, size=n, dtype=np.int64)


def _padded_marks(seeds: list[np.random.SeedSequence], mu: float, pad: int) -> np.ndarray:
    """Padded (n_steps, trials) mark matrix with one column per seed.

    Every count is drawn first, so the matrix is allocated once at the
    largest of them, and each stream is then drawn straight into its column.
    Each generator still draws its count and then its marks, so every column
    is the stream ``EventSchedule.sample`` draws from the same seed. Marks are
    stored in the smallest unsigned type that holds the padding mark ``pad``.
    """
    rngs = [np.random.default_rng(ss) for ss in seeds]
    counts = [_draw_count(rng, mu) for rng in rngs]
    marks = np.full((max(counts), len(rngs)), pad, dtype=np.min_scalar_type(pad))
    for i, (rng, n) in enumerate(zip(rngs, counts)):
        marks[:n, i] = _draw_stream(rng, n, pad)
    return marks


def _chunk_bounds(trials: int, max_steps: int, width: int) -> list[int]:
    """Boundaries of the fewest equal chunks of ``trials`` within the limits.

    ``max_steps`` bounds a trial's event count and ``width`` is a trial's row
    of the lockstep buffer (n_sites + 1 entries). The mark-matrix bound yields
    only to the one-trial minimum; the buffer bound yields to the trial floor.
    """
    by_marks = -(-trials // max(1, MAX_MARK_ENTRIES // max(max_steps, 1)))
    by_cache = -(-trials // max(1, BUFFER_BYTES // (8 * width)))
    n = max(by_marks, min(by_cache, trials // MIN_CHUNK_TRIALS), 1)
    return [i * trials // n for i in range(n + 1)]


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
    of den / 2**j (or den / (2d)**j), so halving by ``>> 1`` and ``// 2d`` are
    exact; the shift equals ``// 2`` on every Python int and is cheaper on the
    long numerators.
    Any integer dtype and layout of ``marks`` gives the same fields: each
    step widens its row to ``intp`` once, and every endpoint and buffer read
    is a 1-D ``take``, which is much cheaper than indexing a 2-D table with
    a small-integer row.
    Returns the fields with shape (trials, side, ..., side), float64 or
    Fractions.
    """
    marks = np.asarray(marks)
    pad = EventSchedule.n_marks(box, dynamics)
    if marks.ndim != 2 or marks.dtype.kind not in "iu":
        raise ValueError("marks must be an integer (n_steps, trials) matrix")
    if marks.size and (marks.min() < 0 or marks.max() > pad):
        raise ValueError(f"marks must lie in [0, {pad}]")
    # take() on a strided row copies the whole row first, so each endpoint
    # row must be contiguous (_endpoints is F-ordered for potlach)
    ends = np.ascontiguousarray(_endpoints(box, dynamics))
    trials, width = marks.shape[1], box.n_sites + 1
    deg = 2 * box.dimension
    den = (2 if dynamics == "averaging" else deg) ** len(marks) if exact else 1
    buf = np.zeros(trials * width, dtype=object if exact else float)  # object zeros are int 0
    rows = np.arange(trials, dtype=np.intp) * width
    buf[rows + box.to_index(origin(box.dimension))] = den
    for m in marks:
        m = m.astype(np.intp)
        src = ends[0].take(m) + rows
        if dynamics == "averaging":
            dst = ends[1].take(m) + rows
            total = buf.take(src) + buf.take(dst)
            mean = total >> 1 if exact else total / 2
            buf[src] = mean
            buf[dst] = mean
        else:
            mass = buf.take(src)
            share = mass // deg if exact else mass / deg
            buf[src] = 0
            for k in range(1, deg + 1):
                buf[ends[k].take(m) + rows] += share
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

    def conservation_defect(self) -> float:
        """max over trials of |total mass - 1|, summed exactly in exact mode."""
        return float(np.abs(self.totals() - 1).max())

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
    seeds = np.random.SeedSequence(config.seed)
    mu = EventSchedule.total_rate(box, config.dynamics) * config.t
    fields = np.empty((config.trials,) + (box.side,) * box.dimension,
                      dtype=object if exact else float)
    pad = EventSchedule.n_marks(box, config.dynamics)
    bounds = _chunk_bounds(config.trials, int(mu + 10 * math.sqrt(mu + 1) + 10),
                           box.n_sites + 1)
    for lo, hi in zip(bounds, bounds[1:]):
        # successive spawns continue one child sequence, so these are children
        # lo..hi-1; no name holds the marks, so they are freed before the next
        # chunk allocates its own
        fields[lo:hi] = run_events(box, config.dynamics,
                                   _padded_marks(seeds.spawn(hi - lo), mu, pad), exact)
    return SimulationResult(config, box, fields)
