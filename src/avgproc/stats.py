"""Estimators over simulation trials and their exact DP comparators.

The comparators never use empirical means where an exact quantity exists:
the expected field is the heat kernel computed by DP, the expected squared
l2 norm is the Poissonized perturbed return sequence, and the rescaled-test
limits are closed-form Gaussian integrals. Monte Carlo enters only on the
trial side, so every z-score is an honest measurement of simulator error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .kernels import avg_difference_kernel, pair_transition_rates
from .lattice import Point, ball, origin
from .simulate import SimulationResult
from .walks import heat_kernel, poissonized_return, return_sequence


@dataclass(frozen=True)
class StatRecord:
    """One scalar estimate with its uncertainty and exact target."""

    name: str
    dimension: int
    t: float
    trials: int
    seed: int
    value: float
    stderr: float
    target: float

    @property
    def z(self) -> float:
        if self.stderr == 0.0:
            return 0.0 if self.value == self.target else math.inf
        return (self.value - self.target) / self.stderr

    def csv_row(self) -> tuple:
        return (self.name, self.dimension, repr(self.t), self.trials, self.seed,
                repr(self.value), repr(self.stderr), repr(self.target), repr(self.z))


def _field_matrix(result: SimulationResult) -> np.ndarray:
    return np.asarray(result.fields.reshape(result.config.trials, -1), dtype=float)


@dataclass
class MeanFieldReport:
    """Per-site comparison of the empirical mean field with the heat kernel."""

    sites: list[Point]
    empirical: np.ndarray
    stderr: np.ndarray
    expected: np.ndarray
    z: np.ndarray

    def fraction_within(self, k: float = 4.0) -> float:
        return float(np.mean(np.abs(self.z) <= k))


def estimate_mean_field(result: SimulationResult, radius: int | None = None,
                        tol: float = 1e-12) -> MeanFieldReport:
    """Compare the trial-averaged field with h_t on the ball of radius 2 sqrt t.

    The dual-walk identity says E eta_t(x) = h_t(0, x) exactly, with h_t the
    heat kernel of the simulation's own torus, so no wrap-around error enters
    and the per-site z-scores should look standard normal.
    """
    cfg = result.config
    if cfg.dynamics != "averaging":
        raise ValueError("mean-field comparison is defined for the averaging dynamics")
    box = result.box
    d = box.dimension
    mat = _field_matrix(result)
    mean = mat.mean(axis=0)
    se = mat.std(axis=0, ddof=1) / math.sqrt(cfg.trials)
    hk = heat_kernel(d, cfg.t, box, tol=tol).data.reshape(-1)

    if radius is None:
        radius = math.ceil(2.0 * math.sqrt(cfg.t))
    radius = min(radius, box.radius)
    sites = ball(d, radius)
    idx = np.array([box.to_index(p) for p in sites])
    emp, err, exp_ = mean[idx], se[idx], hk[idx]
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(err > 0, (emp - exp_) / np.where(err > 0, err, 1.0),
                     np.where(emp == exp_, 0.0, np.inf))
    return MeanFieldReport(sites, emp, err, exp_, z)


class MomentReport(NamedTuple):
    two_norm: StatRecord          # E ||eta_t||^2  vs Poissonized p~
    centered_two_norm: StatRecord  # E ||eta_t - h_t||^2 vs the difference form
    centered_one_norm: StatRecord  # E |eta_t - h_t|_1, no exact target (target nan)
    conservation_defect: float     # max_i |total_i - 1|


def estimate_moments(result: SimulationResult, n_terms: int | None = None) -> MomentReport:
    """Trial moments of the field against their dual-walk exact values.

    E ||eta||^2 equals the coincidence probability of the coupled pair, i.e.
    the Poissonized perturbed return sequence at rate 1; subtracting
    ||h_t||^2 gives the centered second moment, since E eta = h_t for the
    point-mass start.
    """
    cfg = result.config
    if cfg.dynamics != "averaging":
        raise ValueError("moment targets are defined for the averaging dynamics")
    d, t = cfg.dimension, cfg.t
    box = result.box
    mat = _field_matrix(result)
    trials = cfg.trials

    if n_terms is None:
        mu = t  # difference-walk uniformization rate is 1
        n_terms = int(mu + 12 * math.sqrt(mu + 25) + 25)
    pt = return_sequence(avg_difference_kernel(d), n_terms, mode="float")
    coincidence, _ = poissonized_return(pt, 1.0, t)

    hk = heat_kernel(d, t, box).data.reshape(-1)
    h_sq = float(np.sum(hk * hk))

    sq = (mat * mat).sum(axis=1)
    cross = mat @ hk
    centered = sq - 2.0 * cross + h_sq
    one = np.abs(mat - hk).sum(axis=1)

    def rec(name, vals, target):
        return StatRecord(name, d, t, trials, cfg.seed, float(vals.mean()),
                          float(vals.std(ddof=1) / math.sqrt(trials)), target)

    return MomentReport(
        two_norm=rec("two-norm-sq", sq, coincidence),
        centered_two_norm=rec("centered-two-norm-sq", centered, coincidence - h_sq),
        centered_one_norm=rec("centered-one-norm", one, math.nan),
        conservation_defect=result.conservation_defect(),
    )


# ---------------------------------------------------------------------------
# Rescaled linear statistics (the Gaussian-limit test functions)
# ---------------------------------------------------------------------------


def _limit_cos(d: int, a: float) -> float:
    return math.exp(-a * a / (2.0 * d))


def _limit_gauss(d: int, a: float) -> float:
    # integral of exp(-a |u|^2 / 2) against N(0, I/d)
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


def clt_statistic(result: SimulationResult, fn: str = "cos", param: float = 1.0,
                  tolerance: float = 0.05) -> CltReport:
    """Per-trial statistic sum_x f(x / sqrt(t/2)) eta_t(x) and its limit.

    On the diffusive scale the field behaves like a Gaussian point: the
    statistic converges in probability to the integral of f against
    N(0, I_d/d) (per-axis variance of the dual walk is t/(2d), and the
    normalization is sqrt(t/2)). Unknown test-function names are an error;
    the registry keys are cos, one, tanh, gauss.
    """
    cfg = result.config
    if fn not in TEST_FUNCTIONS:
        raise KeyError(f"unknown test function {fn!r}; choose from {sorted(TEST_FUNCTIONS)}")
    if cfg.t <= 0:
        raise ValueError("t must be positive for the rescaled statistic")
    weight_fn, limit_fn = TEST_FUNCTIONS[fn]
    box = result.box
    d = box.dimension
    sigma = math.sqrt(cfg.t / 2.0)

    coords = np.array(list(box.points()), dtype=float) / sigma  # index order
    weights = weight_fn(coords.reshape((box.side,) * d + (d,)).reshape(-1, d), param)
    mat = _field_matrix(result)
    values = mat @ weights
    target = limit_fn(d, param)
    rec = StatRecord(f"clt-{fn}", d, cfg.t, cfg.trials, cfg.seed,
                     float(values.mean()),
                     float(values.std(ddof=1) / math.sqrt(cfg.trials)), target)
    frac = float(np.mean(np.abs(values - target) <= tolerance))
    return CltReport(rec, values, frac, tolerance)


# ---------------------------------------------------------------------------
# Direct continuous-time Monte Carlo of the coupled walk pair
# ---------------------------------------------------------------------------


def coupled_pair_mc(d: int, t: float, trials: int, seed: int = 0,
                    start: tuple[Point, Point] | None = None) -> StatRecord:
    """Gillespie simulation of the coupled pair; estimates Pr(both coincide).

    This exercises the continuous-time rate table directly (no
    uniformization, no DP), so agreement with the Poissonized discrete
    sequence is an end-to-end check of the whole chain kernel -> DP ->
    Poissonization against an independent sampler.
    """
    if start is None:
        start = (origin(d), origin(d))
    children = np.random.SeedSequence(seed).spawn(trials)
    hits = 0
    for ss in children:
        rng = np.random.default_rng(ss)
        u, v = start
        clock = 0.0
        while True:
            rates = pair_transition_rates(u, v)
            targets = list(rates)
            weights = np.array([float(rates[k]) for k in targets])
            total = weights.sum()
            clock += rng.exponential(1.0 / total)
            if clock > t:
                break
            u, v = targets[rng.choice(len(targets), p=weights / total)]
        hits += u == v
    p_hat = hits / trials
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / trials) / trials)

    n_terms = int(t + 12 * math.sqrt(t + 25) + 25)
    pt = return_sequence(avg_difference_kernel(d), n_terms, mode="float")
    target, _ = poissonized_return(pt, 1.0, t)
    return StatRecord("pair-coincidence", d, t, trials, seed, p_hat, se, target)
