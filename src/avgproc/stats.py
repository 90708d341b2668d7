"""Estimators over simulation trials and their exact DP comparators.

The comparators never use empirical means where an exact quantity exists:
for either dynamics, the expected field is the heat kernel at the walker rate
``WALK_RATE[dynamics]``, the expected squared l2 norm is the Poissonized
return sequence of the coupled pair, and the rescaled-test limits are
closed-form Gaussian integrals. Monte Carlo enters only on the trial side, so
every z-score is an honest measurement of simulator error. Each estimator
takes only a ``SimulationResult``: its float ``matrix`` and its heat-kernel
``expected`` field are computed once per result, on first read. The
estimators read the matrix in blocks of rows (``_row_blocks``), so none of
them holds a temporary the size of the matrix, and every value is bitwise
the one the whole-matrix formula gives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .kernels import WALK_RATE, avg_difference_kernel, pair_transition_rates, potlach_kernels
from .lattice import Point, ball, origin
from .simulate import SimulationResult, trial_generators
from .walks import poissonized_return, required_poisson_order, return_sequence


@dataclass(frozen=True)
class StatRecord:
    """One scalar estimate with its uncertainty and exact target.

    ``stderr`` or ``target`` is None where the record has none, and ``z`` is
    then None too; the CSV row leaves each None cell blank. A nan target (no
    exact value exists) gives a nan ``z`` whatever the stderr.
    """

    COLUMNS = ("name", "d", "t", "trials", "seed", "value", "stderr", "target", "z")

    name: str
    dimension: int
    t: float
    trials: int
    seed: int
    value: float
    stderr: float | None
    target: float | None

    @property
    def z(self) -> float | None:
        if self.stderr is None or self.target is None:
            return None
        if math.isnan(self.target):
            return math.nan
        if self.stderr == 0.0:
            return 0.0 if self.value == self.target else math.inf
        return (self.value - self.target) / self.stderr

    def csv_row(self) -> tuple:
        return (self.name, self.dimension, repr(self.t), self.trials, self.seed,
                *("" if v is None else repr(v)
                  for v in (self.value, self.stderr, self.target, self.z)))


#: float64 entries of one row block the estimators work over (512 KiB)
ROW_BLOCK_ENTRIES = 1 << 16


def _row_blocks(mat: np.ndarray) -> Iterator[np.ndarray]:
    """Consecutive full-width views of ``mat``'s rows, about ``ROW_BLOCK_ENTRIES``
    entries each. A row's reductions read only that row, so each is the same
    over a block as over the whole matrix."""
    rows = max(1, ROW_BLOCK_ENTRIES // max(mat.shape[1], 1))
    for lo in range(0, len(mat), rows):
        yield mat[lo:lo + rows]


def _column_sum(blocks: Iterator[np.ndarray]) -> np.ndarray:
    """The column sums of the stacked blocks, adding the rows in order as
    ``sum(axis=0)`` of the whole matrix does, so the result is bitwise its."""
    total = next(blocks).sum(axis=0)
    for block in blocks:
        total = np.add.reduce(np.vstack((total, block)), axis=0)
    return total


def _column_mean_sd(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``mat.mean(axis=0)`` and ``mat.std(axis=0, ddof=1)``, bitwise: the same
    terms summed in the same order and divided as NumPy divides them. That
    holds for two or more columns, as every field matrix has (NumPy sums one
    column pairwise). Subset the columns after, not before: a subset's sums
    round differently in the last bits."""
    n = len(mat)
    mean = _column_sum(_row_blocks(mat)) / n
    squares = (np.square(block - mean) for block in _row_blocks(mat))
    return mean, np.sqrt(_column_sum(squares) / (n - 1))


def _mean_record(name: str, cfg, values: np.ndarray, target: float | None) -> StatRecord:
    """The trial mean of ``values`` with its standard error, for the run ``cfg``."""
    return StatRecord(name, cfg.dimension, cfg.t, cfg.trials, cfg.seed, float(values.mean()),
                      float(values.std(ddof=1) / math.sqrt(cfg.trials)), target)


@dataclass
class MeanFieldReport:
    """Per-site comparison of the empirical mean field with the heat kernel.

    A site no trial reached has stderr 0; as 0 <= eta <= 1, its mean is below
    3/n at 95% (the rule of three), so its z is 0 where h_t <= 3/n, else inf.
    """

    sites: list[Point]
    empirical: np.ndarray
    stderr: np.ndarray
    expected: np.ndarray
    z: np.ndarray

    def fraction_within(self, k: float) -> float:
        return float(np.mean(np.abs(self.z) <= k))


def estimate_mean_field(result: SimulationResult) -> MeanFieldReport:
    """Compare the trial-averaged field with h_t on the ball of radius 2 sqrt t.

    The dual-walk identity says E eta_t(x) = h_t(0, x) exactly, with h_t the
    heat kernel of the simulation's own torus at the run's walker rate
    (``result.expected``), so no wrap-around error enters and the per-site
    z-scores should look standard normal.
    """
    cfg = result.config
    box = cfg.box
    d = box.dimension
    mean, sd = _column_mean_sd(result.matrix)
    h_t = result.expected
    se = sd / math.sqrt(cfg.trials)
    sites = ball(d, min(math.ceil(2.0 * math.sqrt(cfg.t)), box.radius))
    idx = np.array([box.to_index(p) for p in sites])
    emp, err, exp_ = mean[idx], se[idx], h_t[idx]
    consistent = (emp == exp_) | ((emp == 0.0) & (exp_ <= 3.0 / cfg.trials))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(err > 0, (emp - exp_) / np.where(err > 0, err, 1.0),
                     np.where(consistent, 0.0, np.inf))
    return MeanFieldReport(sites, emp, err, exp_, z)


class MomentReport(NamedTuple):
    two_norm: StatRecord          # E ||eta_t||^2  vs Poissonized p~
    centered_two_norm: StatRecord  # E ||eta_t - h_t||^2 vs the difference form
    centered_one_norm: StatRecord  # E |eta_t - h_t|_1, no exact target (target nan)
    conservation_defect: float     # max_i |total_i - 1|


def two_norm_target(d: int, t: float, dynamics: str = "averaging") -> float:
    """E ||eta_t||^2 from the point mass: the coupled pair's coincidence
    probability, i.e. the coupled kernel's p~ Poissonized at its rate 2
    ``WALK_RATE[dynamics]``, to ``required_poisson_order`` for a tail below 1e-12."""
    kernel = {"averaging": avg_difference_kernel,
              "potlach": lambda d: potlach_kernels(d)[1]}[dynamics](d)
    mu = float(kernel.rate) * t
    pt = return_sequence(kernel, required_poisson_order(mu, 1e-12), mode="float")
    return poissonized_return(pt, t).value


def estimate_moments(result: SimulationResult) -> MomentReport:
    """Trial moments of the field against their dual-walk exact values.

    E ||eta||^2 is compared with ``two_norm_target``; subtracting ||h_t||^2
    gives the centered second moment, since E eta = h_t (``result.expected``)
    for the point-mass start.
    """
    cfg = result.config
    mat, h_t = result.matrix, result.expected
    coincidence = two_norm_target(cfg.dimension, cfg.t, cfg.dynamics)
    h_sq = float(np.sum(h_t * h_t))

    sq = np.concatenate([(b * b).sum(axis=1) for b in _row_blocks(mat)])
    one = np.concatenate([np.abs(b - h_t).sum(axis=1) for b in _row_blocks(mat)])
    cross = mat @ h_t
    centered = sq - 2.0 * cross + h_sq

    return MomentReport(
        two_norm=_mean_record("two-norm-sq", cfg, sq, coincidence),
        centered_two_norm=_mean_record("centered-two-norm-sq", cfg, centered,
                                       coincidence - h_sq),
        centered_one_norm=_mean_record("centered-one-norm", cfg, one, math.nan),
        conservation_defect=result.conservation_defect(),
    )


def simulation_records(result: SimulationResult, mf_se: float) -> dict[str, StatRecord]:
    """The records ``avgproc simulate`` writes and criterion 6 gates on, by name:
    ``estimate_moments``'s norms, the conservation defect and the fraction of
    mean-field sites within ``mf_se`` standard errors of h_t, for either dynamics."""
    cfg = result.config
    run = (cfg.dimension, cfg.t, cfg.trials, cfg.seed)
    mo = estimate_moments(result)
    frac = estimate_mean_field(result).fraction_within(mf_se)
    records = [mo.two_norm, mo.centered_two_norm, mo.centered_one_norm,
               StatRecord("conservation-defect", *run, mo.conservation_defect, None, 0.0),
               StatRecord("mean-field-fraction", *run, frac, None, 1.0)]
    return {rec.name: rec for rec in records}


# ---------------------------------------------------------------------------
# Rescaled linear statistics (the Gaussian-limit test functions)
# ---------------------------------------------------------------------------


def _limit_cos(d: int, a: float) -> float:
    return math.exp(-a * a / (2.0 * d))


def _limit_gauss(d: int, a: float) -> float:
    # integral of exp(-a |u|^2 / 2) against N(0, I/d); it diverges unless a > -d
    if not a > -d:
        raise ValueError(f"the gauss limit diverges for param <= -d, got param={a!r}, d={d}")
    return (1.0 + a / d) ** (-d / 2.0)


#: name -> (weight builder (scaled coords (n, d) -> weights), limit(d, param))
TEST_FUNCTIONS: dict[str, tuple[Callable, Callable[[int, float], float]]] = {
    "cos": (lambda u, a: np.cos(a * u[..., 0]), _limit_cos),
    "one": (lambda u, a: np.ones(u.shape[:-1]), lambda d, a: 1.0),
    "tanh": (lambda u, a: np.tanh(a * u[..., 0]), lambda d, a: 0.0),
    "gauss": (lambda u, a: np.exp(-a * np.sum(u * u, axis=-1) / 2.0), _limit_gauss),
}


class CltReport(NamedTuple):
    record: StatRecord
    values: np.ndarray
    fraction_within: float
    tolerance: float

    @property
    def fraction_record(self) -> StatRecord:
        """The fraction of trials within ``tolerance`` of the limit, against 1."""
        return replace(self.record, name="fraction-within", value=self.fraction_within,
                       stderr=None, target=1.0)


def clt_statistic(result: SimulationResult, fn: str = "cos", param: float = 1.0,
                  tolerance: float = 0.05) -> CltReport:
    """Per-trial statistic sum_x f(x / sqrt(lambda t)) eta_t(x) and its limit.

    On the diffusive scale the field behaves like a Gaussian point: the
    statistic converges in probability to the integral of f against
    N(0, I_d/d) (the dual walker jumps at lambda = ``WALK_RATE[dynamics]``,
    1/2 for averaging and 1 for potlach, so its per-axis variance is
    lambda t/d, and the normalization is sqrt(lambda t)). Unknown
    test-function names are an error; the keys are cos, one, tanh, gauss.
    """
    cfg = result.config
    if fn not in TEST_FUNCTIONS:
        raise KeyError(f"unknown test function {fn!r}; choose from {sorted(TEST_FUNCTIONS)}")
    if cfg.t <= 0:
        raise ValueError("t must be positive for the rescaled statistic")
    weight_fn, limit_fn = TEST_FUNCTIONS[fn]
    box = cfg.box
    d = box.dimension
    target = limit_fn(d, param)
    sigma = math.sqrt(WALK_RATE[cfg.dynamics] * cfg.t)

    coords = np.array(list(box.points()), dtype=float) / sigma  # index order
    weights = weight_fn(coords, param)
    values = result.matrix @ weights
    rec = _mean_record(f"clt-{fn}", cfg, values, target)
    frac = float(np.mean(np.abs(values - target) <= tolerance))
    return CltReport(rec, values, frac, tolerance)


# ---------------------------------------------------------------------------
# Direct continuous-time Monte Carlo of the coupled walk pair
# ---------------------------------------------------------------------------


def coupled_pair_mc(d: int, t: float, trials: int, seed: int = 0) -> StatRecord:
    """Gillespie simulation of the coupled pair; estimates Pr(both coincide).

    This exercises the continuous-time rate table directly (no
    uniformization, no DP), so agreement with the Poissonized discrete
    sequence is an end-to-end check of the whole chain kernel -> DP ->
    Poissonization against an independent sampler.
    """
    # The rule is translation invariant, outcome order included, so the jump
    # law out of (u, v) is built once per relative position v - u, as moves
    # of both tokens relative to u.
    laws: dict[Point, tuple[list, float, np.ndarray]] = {}

    def law(u: Point, v: Point) -> tuple[list, float, np.ndarray]:
        rel = tuple(b - a for a, b in zip(u, v))
        if rel not in laws:
            rates = pair_transition_rates(origin(d), rel)
            weights = np.array([float(r) for r in rates.values()])
            total = weights.sum()
            laws[rel] = list(rates), total, weights / total
        return laws[rel]

    hits = 0
    for rng in trial_generators(seed, 0, trials):
        u = v = origin(d)
        clock = 0.0
        while True:
            moves, total, probs = law(u, v)
            clock += rng.exponential(1.0 / total)
            if clock > t:
                break
            du, dv = moves[rng.choice(len(moves), p=probs)]
            u, v = (tuple(a + b for a, b in zip(u, du)), tuple(a + b for a, b in zip(u, dv)))
        hits += u == v
    p_hat = hits / trials
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / trials) / trials)
    return StatRecord("pair-coincidence", d, t, trials, seed, p_hat, se, two_norm_target(d, t))
