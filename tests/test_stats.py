import math
import sys
import tracemalloc
from fractions import Fraction
from functools import cached_property

import numpy as np
import pytest
from scipy.integrate import quad

from avgproc import stats as stats_module
from avgproc.simulate import ExperimentConfig, SimulationResult, simulate
from avgproc.walks import heat_kernel, poissonized_return, potlach_contrast
from avgproc.stats import (
    ROW_BLOCK_ENTRIES,
    TEST_FUNCTIONS,
    StatRecord,
    _column_mean_sd,
    clt_statistic,
    coupled_pair_mc,
    estimate_mean_field,
    estimate_moments,
    simulation_records,
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
    rep = estimate_mean_field(SimulationResult(cfg, fields))
    off = np.array([p != (0,) for p in rep.sites])
    h = rep.expected[off]
    assert np.any(h > 0.03) and np.any(h <= 0.03)
    assert np.array_equal(rep.z[off], np.where(h <= 0.03, 0.0, np.inf))


@pytest.mark.parametrize("dynamics, seed", [("averaging", 0), ("potlach", 11)])
def test_d2_simulation_matches_exact_targets(dynamics, seed):
    # the paper's new dimension, against the Poissonized coupled table and the
    # product heat kernel; measured z = -0.84 and +0.01 (averaging), -0.08 and
    # -0.10 (potlach), fraction 1.0 for both
    res = simulate(ExperimentConfig(dimension=2, t=16.0, trials=2000, seed=seed,
                                    dynamics=dynamics))
    records = simulation_records(res, 4.0)
    for name in ("two-norm-sq", "centered-two-norm-sq"):
        assert abs(records[name].z) <= 3.0, records[name]
    assert records["mean-field-fraction"].value >= 0.95


def test_two_norm_target_is_shared(result_d1):
    # the simulation estimator and the Gillespie sampler check against one number
    want = two_norm_target(1, 32.0)
    assert estimate_moments(result_d1).two_norm.target == want
    assert coupled_pair_mc(1, t=32.0, trials=2, seed=0).target == want
    # sized by required_poisson_order (51 and 79 steps, was 117 and 147), the targets
    # moved by 4.6e-14 and 6.7e-14, within their stated errors 8.8e-13 and 9.1e-13
    assert two_norm_target(1, 16.0) == 0.1080270215030795
    assert two_norm_target(1, 16.0, "potlach") == 0.1439471888638507
    # the potlach contrast's coupled table is sized by the same rule, so it is the same table
    coupled = potlach_contrast(1, [16.0])[0]
    assert poissonized_return(coupled, 16.0).value == two_norm_target(1, 16.0, "potlach")


@pytest.mark.parametrize("dynamics", ["averaging", "potlach"])
def test_two_norm_target_at_time_zero(dynamics):
    # both tokens start at the origin: a one-entry table, p~_0 = 1
    assert two_norm_target(1, 0.0, dynamics) == two_norm_target(2, 0, dynamics) == 1.0


def test_estimators_take_the_run_dynamics(potlach_result):
    # a potlach walker jumps at rate 1, twice the averaging rate, so its heat
    # kernel at t is the averaging one at 2t, bit for bit
    box = potlach_result.config.box
    h_t = heat_kernel(1, 4.0, box, dynamics="potlach")
    assert np.array_equal(h_t, heat_kernel(1, 8.0, box))
    rep = estimate_mean_field(potlach_result)
    assert np.array_equal(rep.expected, h_t[[box.to_index(p) for p in rep.sites]])
    moments = estimate_moments(potlach_result)
    assert moments.two_norm.target == two_norm_target(1, 4.0, "potlach")
    assert moments.centered_two_norm.target == moments.two_norm.target - np.sum(h_t * h_t)


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


def test_clt_statistic_scales_with_the_run_dynamics():
    # sigma = sqrt(WALK_RATE[dynamics] t); scaled by the averaging rate, this
    # run reads 0.369 against 0.607, with no trial inside the window
    res = simulate(ExperimentConfig(dimension=1, t=64.0, trials=400, seed=1,
                                    dynamics="potlach"))
    rep = clt_statistic(res, fn="cos", param=1.0)
    assert abs(rep.record.z) < 4.0, rep.record
    assert rep.fraction_within >= 0.95


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


@pytest.mark.parametrize("dynamics", ["averaging", "potlach"])
@pytest.mark.parametrize("mode", ["float", "exact"])
def test_simulation_records_derive_each_input_once(monkeypatch, mode, dynamics):
    # h_t and the float matrix are each computed once per result, however many
    # estimators read them; a float run's matrix is a view of its fields
    cfg = ExperimentConfig(dimension=1, t=4.0, trials=4, seed=2, dynamics=dynamics,
                           mode=mode, box_radius=6)
    run = simulate(cfg)
    fields, den = run.fields, run.den
    heat_calls, matrices = [], []

    def counted_heat_kernel(*args, **kwargs):
        heat_calls.append(args)
        return heat_kernel(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("avgproc") and getattr(mod, "heat_kernel", None) is heat_kernel:
            monkeypatch.setattr(mod, "heat_kernel", counted_heat_kernel)
    # an exact site is made a float by int true division, which cannot be patched, so
    # the matrices are counted where they are made, the one place that divides
    make_matrix = SimulationResult.matrix.func

    def counted_matrix(res):
        matrices.append(res)
        return make_matrix(res)

    matrix = cached_property(counted_matrix)
    matrix.__set_name__(SimulationResult, "matrix")
    monkeypatch.setattr(SimulationResult, "matrix", matrix)

    res = SimulationResult(cfg, fields, den)
    records = simulation_records(res, 4.0)
    assert len(heat_calls) == 1
    assert len(matrices) == 1 and matrices[0] is res
    if mode == "float":
        assert np.shares_memory(res.matrix, fields)
    else:
        assert res.matrix.tolist() == [[float(Fraction(v, den)) for v in row]
                                       for row in fields.reshape(cfg.trials, -1)]

    mo = estimate_moments(SimulationResult(cfg, fields, den))
    frac = estimate_mean_field(SimulationResult(cfg, fields, den)).fraction_within(4.0)
    assert [records[k] for k in ("two-norm-sq", "centered-two-norm-sq", "centered-one-norm")] \
        == [mo.two_norm, mo.centered_two_norm, mo.centered_one_norm]
    assert records["conservation-defect"].value == mo.conservation_defect
    assert records["mean-field-fraction"].value == frac


@pytest.mark.parametrize("shape", [(10**4, 65), (400, 155), (2000, 89), (1000, 2025), (7, 11),
                                   (2, 3), (5000, 3), (20000, 2)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_blocked_column_mean_and_sd_are_numpys(shape, monkeypatch):
    # the column sums add full-width rows in order, as NumPy's reduction over axis 0 of
    # a C-contiguous matrix of two or more columns does, so every block edge gives its
    # bits: one row a block, a block edge inside a row's worth, one block, the default
    rows, cols = shape
    rng = np.random.default_rng(rows + cols)
    fields = rng.random(shape) ** 6  # a spread of magnitudes, like a smoothed field
    fields[:, ::4] = 0.0
    want = fields.mean(axis=0).tobytes(), fields.std(axis=0, ddof=1).tobytes()
    for entries in (1, cols, 3 * cols + 1, rows * cols, ROW_BLOCK_ENTRIES):
        monkeypatch.setattr(stats_module, "ROW_BLOCK_ENTRIES", entries)
        mean, sd = _column_mean_sd(fields)
        assert (mean.tobytes(), sd.tobytes()) == want, entries


def test_estimators_over_row_blocks_equal_whole_matrix_formulas(result_d1, monkeypatch):
    # each trial's norms read only its row, so blocks of rows give the whole matrix's bits
    mat, h_t = result_d1.matrix, result_d1.expected
    cfg = result_d1.config
    idx = [cfg.box.to_index(p) for p in estimate_mean_field(result_d1).sites]
    for entries in (1, 3 * mat.shape[1] + 1, ROW_BLOCK_ENTRIES):
        monkeypatch.setattr(stats_module, "ROW_BLOCK_ENTRIES", entries)
        mo = estimate_moments(result_d1)
        sq, one = (mat * mat).sum(axis=1), np.abs(mat - h_t).sum(axis=1)
        assert mo.two_norm.value == float(sq.mean())
        assert mo.two_norm.stderr == float(sq.std(ddof=1) / math.sqrt(cfg.trials))
        assert mo.centered_one_norm.value == float(one.mean())
        assert mo.centered_one_norm.stderr == float(one.std(ddof=1) / math.sqrt(cfg.trials))
        mf = estimate_mean_field(result_d1)
        assert mf.empirical.tobytes() == mat.mean(axis=0)[idx].tobytes()
        se = mat.std(axis=0, ddof=1) / math.sqrt(cfg.trials)
        assert mf.stderr.tobytes() == se[idx].tobytes()


def test_simulation_records_allocate_no_matrix_sized_temporary():
    # criterion 6's shape, 10^4 trials on its 65-site torus: the estimators work over
    # row blocks, so no temporary near the float matrix's 5.2 MB is made (the former
    # whole-matrix formulas held two at once, 10.4 MB). Measured: a peak of 1.25 MB
    cfg = ExperimentConfig(dimension=1, t=64.0, trials=10**4, seed=0)
    fields = np.random.default_rng(6).random((cfg.trials, cfg.box.side))
    fields /= fields.sum(axis=1, keepdims=True)
    res = SimulationResult(cfg, fields)
    tracemalloc.start()
    try:
        records = simulation_records(res, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert records["conservation-defect"].value < 1e-12
    assert peak < fields.nbytes / 2


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
