import math

import numpy as np
import pytest
from scipy.integrate import quad

from avgproc.simulate import ExperimentConfig, SimulationResult, simulate
from avgproc.stats import (
    TEST_FUNCTIONS,
    StatRecord,
    clt_statistic,
    coupled_pair_mc,
    estimate_mean_field,
    estimate_moments,
    two_norm_target,
)


@pytest.fixture(scope="module")
def result_d1():
    return simulate(ExperimentConfig(dimension=1, t=32.0, trials=200, seed=414))


@pytest.fixture(scope="module")
def potlach_result():
    return simulate(ExperimentConfig(dimension=1, t=4.0, trials=2, seed=0,
                                     dynamics="potlach", box_radius=8))


def test_stat_record_z():
    rec = StatRecord("x", 1, 1.0, 10, 0, value=1.2, stderr=0.1, target=1.0)
    assert rec.z == pytest.approx(2.0)
    assert StatRecord("x", 1, 1.0, 10, 0, 1.0, 0.0, 1.0).z == 0.0
    assert StatRecord("x", 1, 1.0, 10, 0, 1.1, 0.0, 1.0).z == math.inf
    row = rec.csv_row()
    assert row[0] == "x" and row[5] == repr(1.2)


@pytest.mark.parametrize("stderr", [0.0, 0.1])
def test_stat_record_z_nan_target(stderr):
    # a record without an exact target has no z-score, whether or not the trials spread
    assert math.isnan(StatRecord("x", 1, 0.0, 2, 0, 0.0, stderr, math.nan).z)


def test_moments_against_dual_targets(result_d1):
    rep = estimate_moments(result_d1)
    assert rep.conservation_defect < 1e-12
    assert abs(rep.two_norm.z) < 4.0
    assert abs(rep.centered_two_norm.z) < 4.0
    assert math.isnan(rep.centered_one_norm.target)
    assert rep.centered_one_norm.value > 0
    # the centered target is the full one minus ||h_t||^2 > 0
    assert 0 < rep.centered_two_norm.target < rep.two_norm.target


def test_mean_field_against_heat_kernel(result_d1):
    rep = estimate_mean_field(result_d1)
    assert len(rep.sites) == len(rep.empirical) == len(rep.z)
    assert rep.fraction_within(4.0) >= 0.9
    assert np.all(rep.expected > 0)
    # the empirical mean near the origin is dominated by the kernel peak
    i0 = rep.sites.index((0,))
    assert rep.empirical[i0] == pytest.approx(rep.expected[i0], rel=0.1)


def test_mean_field_sites_no_trial_reached():
    # stderr 0 there, so the rule of three decides: inside when h_t <= 3/n
    res = simulate(ExperimentConfig(dimension=3, t=2.0, trials=30, seed=5, box_radius=6))
    rep = estimate_mean_field(res)
    unseen = (rep.stderr == 0) & (rep.empirical == 0)
    assert unseen.sum() == 19 and np.all(rep.expected[unseen] <= 3 / 30)
    assert np.all(rep.z[unseen] == 0.0)
    assert rep.fraction_within(4.0) == 60 / 63
    # every trial left at the start: off the origin, sites with h_t > 3/n fail
    cfg = ExperimentConfig(dimension=1, t=16.0, trials=100, seed=0)
    fields = np.zeros((cfg.trials, cfg.box.side))
    fields[:, cfg.box.to_index((0,))] = 1.0
    rep = estimate_mean_field(SimulationResult(cfg, cfg.box, fields))
    off = np.array([p != (0,) for p in rep.sites])
    h = rep.expected[off]
    assert np.any(h > 0.03) and np.any(h <= 0.03)
    assert np.array_equal(rep.z[off], np.where(h <= 0.03, 0.0, np.inf))


def test_two_norm_target_is_shared(result_d1):
    # the simulation estimator and the Gillespie sampler check against one number
    want = two_norm_target(1, 32.0)
    assert estimate_moments(result_d1).two_norm.target == want
    assert coupled_pair_mc(1, t=32.0, trials=2, seed=0).target == want
    assert two_norm_target(1, 16.0) == 0.10802702150312533


def test_estimators_reject_potlach(potlach_result):
    with pytest.raises(ValueError):
        estimate_mean_field(potlach_result)
    with pytest.raises(ValueError):
        estimate_moments(potlach_result)


def test_clt_statistic_one_is_conservation(result_d1):
    rep = clt_statistic(result_d1, fn="one")
    assert rep.record.value == pytest.approx(1.0, abs=1e-12)
    assert rep.fraction_within == 1.0
    assert rep.record.target == 1.0


def test_clt_statistic_cos(result_d1):
    rep = clt_statistic(result_d1, fn="cos", param=1.0)
    assert rep.record.name == "clt-cos"
    assert rep.record.target == pytest.approx(math.exp(-0.5))
    assert abs(rep.record.value - rep.record.target) < 0.03
    # at t = 32 the trial spread is still wide; concentration at large t is
    # the acceptance suite's job
    assert rep.fraction_within >= 0.6
    assert rep.tolerance == 0.05


def test_clt_statistic_errors(result_d1):
    with pytest.raises(KeyError):
        clt_statistic(result_d1, fn="sinc")
    zero_t = simulate(ExperimentConfig(dimension=1, t=0.0, trials=1, box_radius=2))
    with pytest.raises(ValueError):
        clt_statistic(zero_t)
    for a in (-1.0, -3.0, math.nan):
        with pytest.raises(ValueError, match="gauss limit diverges"):
            clt_statistic(result_d1, fn="gauss", param=a)
    assert clt_statistic(result_d1, fn="gauss", param=-0.5).record.target == pytest.approx(
        math.sqrt(2.0))


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_limits_match_gaussian_integrals(a):
    # targets are integrals of the test function against N(0, 1/d) for d=1
    def against_normal(f):
        val, _ = quad(lambda u: f(u) * math.exp(-u * u / 2) / math.sqrt(2 * math.pi),
                      -12, 12)
        return val

    assert TEST_FUNCTIONS["cos"][1](1, a) == pytest.approx(
        against_normal(lambda u: math.cos(a * u)), abs=1e-10)
    assert TEST_FUNCTIONS["gauss"][1](1, a) == pytest.approx(
        against_normal(lambda u: math.exp(-a * u * u / 2)), abs=1e-10)
    assert TEST_FUNCTIONS["tanh"][1](1, a) == 0.0


def test_exact_mode_fields_feed_estimators():
    res = simulate(ExperimentConfig(dimension=1, t=4.0, trials=3, seed=1,
                                    mode="exact", box_radius=6))
    rep = estimate_moments(res)
    assert rep.conservation_defect == 0.0


def test_coupled_pair_mc_matches_poissonized():
    rec = coupled_pair_mc(1, t=8.0, trials=300, seed=17)
    assert rec.name == "pair-coincidence"
    assert 0.0 < rec.target < 1.0
    assert abs(rec.z) < 4.0


def test_coupled_pair_mc_seeded_values_pinned():
    # the sampler draws from list(pair_transition_rates(u, v)), so these values
    # pin the edge-ring rule's outcome order as well as the seeding
    assert coupled_pair_mc(1, t=8.0, trials=300, seed=17).value == 41 / 300
    assert coupled_pair_mc(2, t=4.0, trials=200, seed=3).value == 34 / 200
