"""Stochastic mass-redistribution dynamics on a torus.

Two dynamics share the machinery. "averaging": each edge carries an
exponential clock of rate 1/(2d); when it rings the two endpoint masses are
replaced by their mean. "potlach": each vertex carries a rate-1 clock; when
it rings the vertex splits its entire mass evenly over its 2d neighbours.
Both conserve total mass exactly.

Events are drawn by superposition: the number of rings in [0, t] is Poisson
(total rate x t; the total rate is n_sites x ``kernels.WALK_RATE``, the jump
rate of one dual walker), and the marks, in time order, are iid uniform over
edges (or vertices). Given the count, the ring times are sorted uniforms
independent of the marks (the order-statistics representation of the
superposed Poisson processes). Only the order of events matters for the
final field, so the simulator draws counts and marks and never times; the
sampled event sequence is exact in distribution. Trial i is seeded from the
i-th spawned child of SeedSequence(seed), consumed in the same order as
``EventSchedule.sample``, so any single trial can be reproduced in isolation.
The children themselves are never built: ``_trial_states`` derives the PCG64
seed words of a whole chunk of children in one vectorised pass, and they
equal those ``spawn``'s children give (3 us a trial, against 22 us for a
SeedSequence child and ``default_rng``).

One engine, ``run_events``, applies the events of every trial in lockstep.
It holds all trials in one flat buffer of trials x (n_sites + 1) entries,
float64 or, in exact mode, Python ints: integer numerators over one common
denominator, 2**n_steps for averaging and (2d)**n_steps for potlach. Every
event then divides by 2 (or 2d) exactly, an averaging event by a right
shift, and the fields stay integer numerators: ``simulate`` brings every
chunk to the denominator of its longest one, and ``SimulationResult`` divides
only where a float is read. The last entry of each row is a sentinel site
that holds zero. Shorter mark streams are padded with one extra mark whose
endpoints are all the sentinel, so a padding event averages (or splits) zero
with itself and no per-event mask is needed.
Marks are stored in the smallest unsigned type that holds the padding mark,
trial-major, and may come in slices of consecutive steps. Each block of
``BLOCK_ENTRIES // trials`` steps widens its marks to ``intp`` once and
gathers every endpoint's flat buffer indices with ``take`` into one
C-contiguous (steps, trials) array, both reused by every block; each step
then updates the buffer through rows of those arrays, in six NumPy calls for
averaging, so a step's fixed cost is about 3-4 us. On fixed marks (medians of 7),
blocks of 2^13 ... 2^17 entries lay within 8 % of each other, at 216-232 ms
for a 200-trial share of criterion 7 and 122-132 ms for a 2500-trial chunk
of criterion 6; 2^11 took 263 and 140 ms, 2^18 261 and 129 ms. 2^14 keeps
one index array at 128 KiB, small next to the buffer.

``simulate`` feeds ``run_events`` one chunk of trials at a time, and every
run holds its marks within one budget, ``MARK_ENTRIES`` = 2^22 entries. A
chunk's generators first draw every event count; then ``_mark_slices`` draws
the streams in slices of K = ``MARK_ENTRIES`` // max(trials, 8) steps into one
reused trial-major (trials, K) block, each trial's next marks straight into
its row, and ``run_events`` applies the slices in order on one buffer.
NumPy's ``Generator.integers`` drawn in consecutive pieces is the stream one
call draws, so the fields do not depend on the budget. The chunks are the
fewest equal ones such that the float64 buffer fits in ``BUFFER_BYTES``
(2 MiB, the L2 cache of one core), unless that would leave fewer than
``MIN_CHUNK_TRIALS`` trials in a chunk; the budget then splits them further,
towards chunks whose step bound S fits in it, but only while every chunk
keeps at least max(``MIN_CHUNK_TRIALS``, S/2) trials. Another chunk costs S
lockstep steps of 3-5 us, another slice one ``integers`` call of about 5 us
a trial. Criterion 6's share of 5000 trials on two cores (S = 2546) runs in
three chunks of 1666-1667 trials, each one slice of at most 3.8 MB; criterion
7's 200-trial shares at t=400 and the 1000-trial shares of a 2000-trial
potlach run at t=64 each run in one chunk of two slices. On one core
criterion 6 runs in seven chunks of 1428-1429 trials. Measured on a 2-vCPU
Xeon VM with 2 MiB of L2 per core (medians of 7, ``run_events`` over one
mark matrix in equal chunks): on criterion 6's marks (10^4 trials on its
65-site torus, a 5.0 MiB buffer) it took 0.61 s in one chunk, 0.53 s in two,
0.52 s in four and 0.50 s in ten. At d=2, t=16 on a torus of radius 22 (2025
sites), 1000 trials took 0.58-0.60 s in one chunk, 0.48-0.53 s in two of
500 and 0.56-0.64 s in four of 250; 2000 trials took 1.27 s in one chunk,
0.94 s in four of 500 and 1.15 s in eight of 250. Below about 500 trials the
fixed cost of each step outweighs the cache misses, hence the floor. On the
same VM, one share of criterion 6 (5000 trials, one core, best of 3, medians
of 5 runs) took 0.229 s in three chunks against 0.265 s in the two chunks of
2500 that a mark bound of 5e7 entries gave. A d=1, t=4000 run of 200 trials
(24 slices a share) took 5.7-6.2 s and peaked at 45 MB of RSS against 7.1-9.3
s and 136 MB (two alternating pairs; its fields are bitwise the same).

Cores. A float run is split into contiguous trial shares, one per usable
core (``os.sched_getaffinity``) but none narrower than ``MIN_SHARE_TRIALS``,
and each share is chunked as above (on two cores criterion 6 runs two shares
of three chunks). Shares 1.. run in forked worker processes and share 0
in the calling one; each writes its trials straight into the anonymous
shared ``mmap`` that backs the float fields, so nothing is sent back. The
process that runs trial i derives trial i's seed words itself, so the
fields are bitwise the same on any number of cores. Exact runs stay in one
process: their Python-int fields cannot live in shared memory. Fork and join
cost about 3 ms, and seeding a trial about 3 us in whichever process runs
it. Every process pays the fixed cost of every step, so few trials over many
steps gain little: on the 2-vCPU VM above (medians of 9-11 alternating runs,
one process against two) at t=400, 20 trials (shares of 10) took 94 -> 114
ms, 40 trials (shares of 20) 114 -> 121 ms, 60 (shares of 30) 145 -> 131 ms,
100 (shares of 50) 173 -> 152 ms and 200 trials 238 -> 204 ms. Hence the
floor. Short runs still lose: at d=1, t=16 (medians of 8, six rounds),
100 trials took 2.4-4.3 ms in one process and 5.5-11.8 ms in two, 200 trials
6.0-6.8 and 7.5-16.3 ms.

The default torus is the smallest whose wrap-around bound ``wrap_bound`` is
at most ``WRAP_TOL``; ``default_box_radius`` states the bound and its proof.
"""
from __future__ import annotations

import math
import mmap
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .kernels import WALK_RATE
from .lattice import Box, check_dimension, origin, unit_vectors
from .walks import heat_kernel

DYNAMICS = tuple(WALK_RATE)

#: largest wrap-around bound the default torus may have (see default_box_radius)
WRAP_TOL = 1e-6

#: limits on one lockstep chunk of trials (see the module docstring)
MARK_ENTRIES = 1 << 22         # marks one chunk holds at once: its reused slice block
BUFFER_BYTES = 2 << 20         # float64 lockstep buffer: one core's L2 cache
MIN_CHUNK_TRIALS = 500         # narrower chunks lose to per-step overhead
BLOCK_ENTRIES = 1 << 14        # endpoint indices gathered per block of lockstep steps
#: limits on splitting one simulate run over processes (see the module docstring)
MIN_SHARE_TRIALS = 50          # narrower shares lose to per-step overhead


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
        if not 0 <= self.t < math.inf:
            raise ValueError(f"t must be finite and >= 0, got {self.t}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
    """One trial's event marks, in time order.

    Marks are edge indices site*d + axis for averaging (the edge from the
    site to its +e_axis neighbour; every torus edge appears exactly once) and
    site indices for potlach. The ring times are not drawn: the fields
    depend only on the order of the marks.
    """

    marks: np.ndarray
    dynamics: str
    box: Box

    @classmethod
    def total_rate(cls, box: Box, dynamics: str) -> float:
        return WALK_RATE[dynamics] * box.n_sites  # d n_sites edges at 1/(2d), or n_sites at 1

    @classmethod
    def n_marks(cls, box: Box, dynamics: str) -> int:
        return box.n_sites * (box.dimension if dynamics == "averaging" else 1)

    @classmethod
    def sample(cls, rng: np.random.Generator, box: Box, t: float,
               dynamics: str = "averaging") -> "EventSchedule":
        n = _draw_count(rng, cls.total_rate(box, dynamics) * t)
        return cls(_draw_stream(rng, n, cls.n_marks(box, dynamics)), dynamics, box)

    def __len__(self) -> int:
        return len(self.marks)


# One trial's event stream is _draw_count, then _draw_stream, on one generator.
def _draw_count(rng: np.random.Generator, mu: float) -> int:
    """Poisson(mu) number of events, mu = total_rate x t."""
    return int(rng.poisson(mu))


def _draw_stream(rng: np.random.Generator, n: int, n_marks: int) -> np.ndarray:
    """n iid uniform marks in [0, n_marks)."""
    return rng.integers(0, n_marks, size=n, dtype=np.int64)


def _mark_slices(rngs: list[np.random.Generator], counts: list[int],
                 pad: int) -> Iterator[np.ndarray]:
    """The padded (n_steps, trials) mark matrix of the generators' streams, in
    slices of consecutive steps, each a view of one reused block.

    ``counts`` are the generators' event counts, already drawn. The block is
    trial-major, (trials, K) with K = ``MARK_ENTRIES`` // max(trials, 8), so it
    holds at most ``MARK_ENTRIES`` marks and one trial's int64 draw of K marks
    fits in as many bytes. Each slice draws every unfinished stream's next
    marks straight into its row, and a view of the block is yielded for the
    caller to use before the next slice overwrites it. A generator's pieces,
    drawn in order, are the stream one call draws, so every column is the
    stream ``EventSchedule.sample`` draws from the same generator, which is
    released once its stream is drawn (about 0.8 kB a trial). Marks are
    stored in the smallest unsigned type that holds the padding mark ``pad``,
    and a stream that ends is padded with it. A chunk with no event yields one
    empty slice.
    """
    rngs, top = list(rngs), max(counts)
    width = max(1, min(top, MARK_ENTRIES // max(len(rngs), 8)))
    block = np.empty((len(rngs), width), dtype=np.min_scalar_type(pad))
    for lo in range(0, max(top, 1), width):
        marks = block[:, :min(width, top - lo)]
        marks.fill(pad)
        for i, n in enumerate(counts):
            if n > lo:
                k = min(n - lo, width)
                marks[i, :k] = _draw_stream(rngs[i], k, pad)
                if n <= lo + width:
                    rngs[i] = None  # its stream is drawn: free the generator
        yield marks.T


def _chunk_bounds(trials: int, max_steps: int, width: int) -> list[int]:
    """Boundaries of the fewest equal chunks of ``trials`` within the limits.

    ``max_steps`` (S) bounds a trial's event count and ``width`` is a trial's
    row of the lockstep buffer (n_sites + 1 entries). The buffer bound yields
    to ``MIN_CHUNK_TRIALS``. The mark budget, ``MARK_ENTRIES`` = 2^22, then
    splits the trials further, towards chunks whose S steps fit in it, but
    only while every chunk keeps at least max(``MIN_CHUNK_TRIALS``, S/2)
    trials: another chunk costs S lockstep steps (3-5 us each), another slice
    of marks one draw a trial (about 5 us). A chunk the budget does not split
    far enough draws its marks in slices (``_mark_slices``), each within the
    budget. Criterion 6's 5000-trial share (S = 2546) gets three chunks of
    1666-1667 trials, one slice each, and took 0.229 s against 0.265 s in the
    two chunks of 2500 a 5e7-entry mark bound gave (the module docstring has
    the measurement); criterion 7's 200-trial share (S = 32771) and a potlach
    share of 1000 trials at t=64 (S = 6461) get one chunk of two slices.
    """
    by_cache = -(-trials // max(1, BUFFER_BYTES // (8 * width)))
    n = max(min(by_cache, trials // MIN_CHUNK_TRIALS), 1)
    by_budget = -(-trials * max_steps // MARK_ENTRIES)
    n = max(n, min(by_budget, trials // max(MIN_CHUNK_TRIALS, -(-max_steps // 2))))
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


def run_events(box: Box, dynamics: str, marks: np.ndarray | Iterable[np.ndarray],
               exact: bool = False) -> np.ndarray:
    """Apply a padded (n_steps, trials) mark matrix to point masses at the origin.

    Column i is the mark stream of trial i, padded at the end with the mark
    ``EventSchedule.n_marks(box, dynamics)``; any integer dtype and layout of
    ``marks`` gives the same fields (the module docstring has the blocks).
    ``marks`` may also be an iterable of slices of such a matrix, each of
    consecutive steps, at least one; they are applied in order on one buffer,
    each read before the next is requested, and give the fields the whole
    matrix gives. Returns the fields with shape (trials, side, ..., side):
    float64 or, with ``exact``, integer numerators over den = 2**n_steps
    (averaging) or (2d)**n_steps (potlach). Before each slice of k steps the
    numerators are multiplied by 2**k (or (2d)**k); after j events every
    numerator is then a multiple of den / 2**j (or den / (2d)**j), so halving
    by ``>> 1`` and ``// 2d`` are exact. The shift equals ``// 2`` on every
    Python int and is cheaper on the long numerators.
    """
    pad = EventSchedule.n_marks(box, dynamics)
    # take() on a strided row copies the whole row first, so each endpoint
    # row must be contiguous (_endpoints is F-ordered for potlach)
    ends = np.ascontiguousarray(_endpoints(box, dynamics))
    width, deg = box.n_sites + 1, 2 * box.dimension
    base = 2 if dynamics == "averaging" else deg
    if dynamics == "averaging":  # x * 0.5 rounds as x / 2 does
        scale, by = (np.right_shift, 1) if exact else (np.multiply, 0.5)
    else:
        scale, by = np.floor_divide if exact else np.true_divide, deg
    buf = None
    for part in [marks] if isinstance(marks, np.ndarray) else marks:
        part = np.asarray(part)
        if part.ndim != 2 or part.dtype.kind not in "iu":
            raise ValueError("marks must be an integer (n_steps, trials) matrix")
        if part.size and (part.min() < 0 or part.max() > pad):
            raise ValueError(f"marks must lie in [0, {pad}]")
        if buf is None:
            trials = part.shape[1]
            # object zeros are int 0
            buf = np.zeros(trials * width, dtype=object if exact else float)
            rows = np.arange(trials, dtype=np.intp) * width
            buf[rows + box.to_index(origin(box.dimension))] = 1
            block = max(1, BLOCK_ENTRIES // max(trials, 1))
            # reused by every block of steps: its marks widened to intp, and one
            # C-contiguous (steps, trials) array of buffer indices per endpoint
            step_marks = np.empty((block, trials), dtype=np.intp)
            idx = np.empty((len(ends), block, trials), dtype=np.intp)
        elif part.shape[1] != trials:
            raise ValueError("every slice of marks must have one column per trial")
        if exact and len(part):
            buf *= base ** len(part)
        for lo in range(0, len(part), block):
            steps = min(block, len(part) - lo)
            np.copyto(step_marks[:steps], part[lo:lo + steps])
            for e, out in zip(ends, idx[:, :steps]):
                e.take(step_marks[:steps], out=out, mode="clip")  # marks are checked above
                out += rows
            if dynamics == "averaging":
                for src, dst in zip(*idx[:, :steps]):
                    mean = buf[src]
                    mean += buf[dst]
                    scale(mean, by, mean)
                    buf[src] = mean
                    buf[dst] = mean
            else:
                for src, *nbs in zip(*idx[:, :steps]):
                    share = scale(buf[src], by)
                    buf[src] = 0
                    for nb in nbs:
                        buf[nb] += share
    if buf is None:
        raise ValueError("marks must hold at least one slice")
    return buf.reshape(trials, width)[:, :-1].reshape((trials,) + (box.side,) * box.dimension)


@dataclass
class SimulationResult:
    """Final-time fields of every trial plus the generating configuration. An
    exact float is one int true division, correctly rounded as ``float(Fraction)``."""

    config: ExperimentConfig
    fields: np.ndarray  # (trials, side, ..., side): float64, or int numerators over den
    den: int = 1

    @cached_property
    def matrix(self) -> np.ndarray:
        """The fields as float64, one trial per row: a view of a float run's
        fields, and each exact site's numerator / den."""
        flat = self.fields.reshape(self.config.trials, -1)
        return flat if self.config.mode == "float" else (flat / self.den).astype(float)

    @cached_property
    def expected(self) -> np.ndarray:
        """E eta_t = h_t(0, .) on the run's torus at ``WALK_RATE[dynamics]``, each entry
        within 1e-12 (``heat_kernel``'s cosine sum), flattened like one row of ``matrix``."""
        cfg = self.config
        return heat_kernel(cfg.dimension, cfg.t, cfg.box, dynamics=cfg.dynamics).reshape(-1)

    def conservation_defect(self) -> float:
        """max over trials of |total mass - 1|; exact: max |row sum - den| / den, on ints."""
        totals = self.fields.reshape(self.config.trials, -1).sum(axis=1)
        return float(np.abs(totals - self.den).max() / self.den)

    def mean_field(self) -> np.ndarray:
        """Each site's trial mean: its sum / (trials x den), one rounding if exact."""
        return (self.fields.sum(axis=0) / (self.config.trials * self.den)).astype(float)


def _worker_count(trials: int, exact: bool) -> int:
    """Processes that share one ``simulate`` run: one per usable core, with at
    least ``MIN_SHARE_TRIALS`` trials each. Exact runs (Python ints cannot
    live in shared memory) and platforms without ``os.sched_getaffinity`` run
    in one process."""
    if exact or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), trials // MIN_SHARE_TRIALS))


# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43b0d7e5, 0x931e8875, 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R = 0xca01f9dd, 0x4973f715
_MASK32 = 0xFFFFFFFF


def _hashmix(words: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """One step of SeedSequence's hash over uint32 words: the hashed words and
    the next hash constant, a Python int that depends only on the step count."""
    const_next = const * mult & _MASK32
    words = (words ^ np.uint32(const)) * np.uint32(const_next)
    return words ^ words >> np.uint32(16), const_next


def _trial_states(seed: int, lo: int, hi: int) -> np.ndarray:
    """Row i - lo is ``SeedSequence(seed).spawn(hi)[i].generate_state(4, np.uint64)``.

    Child i's entropy is the seed's w 32-bit words, zero-padded to the pool
    size 4, then the spawn word i. Its pool is therefore the parent's
    mixed pool with i mixed into each of the four words, after the
    4 + 12 + 4 max(0, w - 4) hash steps the parent took. The hash constants
    never read the data, so they run as Python ints; the spawn words, the
    mix and ``generate_state``'s output hash run in uint32 arithmetic over
    every trial at once. Precondition: seed >= 0 and hi <= 2**32, so that
    i is one spawn word.
    """
    words = max(1, -(-int(seed).bit_length() // 32))
    const = _INIT_A
    for _ in range(4 + 12 + 4 * max(0, words - 4)):
        const = const * _MULT_A & _MASK32
    spawn = np.arange(lo, hi, dtype=np.uint32)
    pool = []
    for word in np.random.SeedSequence(seed).pool:
        hashed, const = _hashmix(spawn, const, _MULT_A)
        mixed = np.uint32(_MIX_L * int(word) & _MASK32) - hashed * np.uint32(_MIX_R)
        pool.append(mixed ^ mixed >> np.uint32(16))
    state, const = np.empty((hi - lo, 8), dtype=np.uint32), _INIT_B
    for k in range(8):
        state[:, k], const = _hashmix(pool[k % 4], const, _MULT_B)
    # generate_state reads the uint32 words pairwise as little-endian uint64
    return state.astype("<u4").view("<u8").astype(np.uint64)


@lru_cache(maxsize=None)
def _seed_words() -> type:
    """The ``ISeedSequence`` that hands a bit generator one precomputed
    ``generate_state(4, np.uint64)`` row. It is built on first use because
    ``numpy.random`` loads lazily, and loading it costs about 15 ms and 6 MB
    that commands which never draw need not pay. 3.6 MB of that is OpenSSL's
    libcrypto, which ``numpy.random`` reaches through ``secrets`` and ``hmac``."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return SeedWords


def trial_generators(seed: int, lo: int, hi: int) -> list[np.random.Generator]:
    """Generators of trials lo..hi-1. Trial i's generator draws the stream
    that ``default_rng`` draws from ``SeedSequence(seed).spawn(hi)[i]``: its
    PCG64 seeds itself from the same words (``_trial_states``)."""
    seed_words = _seed_words()
    return [np.random.Generator(np.random.PCG64(seed_words(s)))
            for s in _trial_states(seed, lo, hi)]


def _fork_shares(run_share, workers: int) -> None:
    """Run ``run_share(k)`` for k = 1..workers-1 in forked processes and k = 0 here.

    Every worker is joined before this returns or raises. An exception in the
    parent's share terminates the workers and propagates; a worker that fails
    raises ``RuntimeError`` once all are joined. The workers are forked, not
    spawned: a spawned worker would re-import numpy and this package, which
    takes longer than most runs, and could not inherit the anonymous mmap
    or the closure. Workers call no BLAS routine, so OpenBLAS's thread pool,
    the only other thread in the process, is never needed in them.
    """
    import multiprocessing  # ~8 ms and 0.7 MB, paid only by runs that fork

    ctx = multiprocessing.get_context("fork")
    procs = []
    try:
        for k in range(1, workers):
            procs.append(ctx.Process(target=run_share, args=(k,)))
            procs[-1].start()
        run_share(0)
    except BaseException:
        for p in procs:
            p.terminate()
        raise
    finally:
        for p in procs:
            p.join()
    failed = [p.exitcode for p in procs if p.exitcode != 0]
    if failed:
        raise RuntimeError(f"{len(failed)} of {workers - 1} simulate workers failed "
                           f"(exit codes {failed})")


def simulate(config: ExperimentConfig) -> SimulationResult:
    """Run ``config.trials`` independent trials from the point-mass start.

    Deterministic in the config: trial i is driven by the i-th spawned child
    of SeedSequence(config.seed) in both modes (``trial_generators``), so
    exact and float runs with the same seed see identical event streams. The
    fields do not depend on how many cores the run is split over.
    """
    box = config.box
    exact = config.mode == "exact"
    mu = EventSchedule.total_rate(box, config.dynamics) * config.t
    shape = (config.trials,) + (box.side,) * box.dimension
    if exact:
        fields = np.empty(shape, dtype=object)
    else:
        # shared with forked workers, which write their trials in place
        fields = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=float).reshape(shape)
    pad = EventSchedule.n_marks(box, config.dynamics)
    max_steps = int(mu + 10 * math.sqrt(mu + 1) + 10)
    workers = _worker_count(config.trials, exact)
    chunks = []  # (lo, hi, steps) of each chunk this process ran

    def run_share(k: int) -> None:
        start, stop = k * config.trials // workers, (k + 1) * config.trials // workers
        bounds = _chunk_bounds(stop - start, max_steps, box.n_sites + 1)
        for lo, hi in zip(bounds, bounds[1:]):
            lo, hi = start + lo, start + hi
            rngs = trial_generators(config.seed, lo, hi)
            counts = [_draw_count(rng, mu) for rng in rngs]
            chunks.append((lo, hi, max(counts)))
            slices = _mark_slices(rngs, counts, pad)
            del rngs  # the slices hold the generators until their last draw
            fields[lo:hi] = run_events(box, config.dynamics, slices, exact)

    if workers == 1:
        run_share(0)
    else:
        _fork_shares(run_share, workers)
    if not exact:
        return SimulationResult(config, fields)
    # one denominator for the run: base**top, top the longest chunk's step count
    base = 2 if config.dynamics == "averaging" else 2 * box.dimension
    top = max(steps for *_, steps in chunks)
    for lo, hi, steps in chunks:
        if steps < top:
            fields[lo:hi] *= base ** (top - steps)
    return SimulationResult(config, fields, base ** top)
