import hashlib
import math
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ive

from avgproc import simulate as simulate_module
from avgproc.kernels import WALK_RATE
from avgproc.lattice import Box, origin, unit_vectors
from avgproc.simulate import (
    BUFFER_BYTES,
    DYNAMICS,
    MARK_ENTRIES,
    MIN_CHUNK_TRIALS,
    MIN_SHARE_TRIALS,
    WRAP_TOL,
    EventSchedule,
    ExperimentConfig,
    SimulationResult,
    _chunk_bounds,
    _draw_count,
    _draw_stream,
    _mark_slices,
    _trial_states,
    _worker_count,
    default_box_radius,
    run_events,
    simulate,
    trial_generators,
    wrap_bound,
)

F = Fraction


def replay(box, dynamics, marks, exact):
    """Reference: one trial, one event at a time, in lattice coordinates."""
    d = box.dimension
    zero = F(0) if exact else 0.0
    field = dict.fromkeys(box.points(), zero)
    field[origin(d)] = F(1) if exact else 1.0
    units = unit_vectors(d)

    def step(x, e):
        return box.wrap(tuple(a + b for a, b in zip(x, e)))

    for m in map(int, marks):
        if dynamics == "averaging":
            x = box.from_index(m // d)
            y = step(x, units[2 * (m % d)])
            field[x] = field[y] = (field[x] + field[y]) / 2
        else:
            x = box.from_index(m)
            share = field[x] / (2 * d)
            field[x] = zero
            for e in units:
                field[step(x, e)] += share
    vals = [field[p] for p in box.points()]
    return np.array(vals, dtype=object if exact else float).reshape((box.side,) * d)


def fractions(nums, den):
    """Exact integer numerators over den as the Fractions ``replay`` computes."""
    assert all(type(v) is int for v in nums.flat)
    return np.array([F(v, den) for v in nums.flat], dtype=object).reshape(nums.shape)


def run(box, dynamics, marks, exact=False):
    """``run_events``' fields; exact ones as Fractions over (2, or 2d for potlach)**n_steps."""
    fields = run_events(box, dynamics, marks, exact)
    if not exact:
        return fields
    return fractions(fields, (2 if dynamics == "averaging" else 2 * box.dimension) ** len(marks))


def masses(res):
    """A result's fields as masses: float64, or Fractions num / den in exact mode."""
    return res.fields if res.config.mode == "float" else fractions(res.fields, res.den)


def run_one(box, dynamics, marks, exact=False):
    return run(box, dynamics, np.array(marks).reshape(-1, 1), exact)[0]


def test_config_validation():
    for kwargs in [dict(dimension=0), dict(t=-1.0), dict(t=math.nan), dict(t=math.inf),
                   dict(trials=0), dict(seed=-1),
                   dict(dynamics="exclusion"), dict(mode="decimal")]:
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)


def test_config_box():
    cfg = ExperimentConfig(dimension=2, t=64.0)
    assert cfg.box == Box(2, default_box_radius(64.0, "averaging", 2))
    assert ExperimentConfig(box_radius=4).box.radius == 4


def test_default_box_radius():
    assert default_box_radius(64.0, "averaging") == 32
    assert default_box_radius(64.0, "potlach") == 44
    # floor at t = 1 keeps tiny boxes legal
    assert default_box_radius(0.0) == default_box_radius(1.0)


@pytest.mark.parametrize("t,dynamics,d,radius", [
    (64.0, "averaging", 1, 32),
    (400.0, "averaging", 1, 77),
    (100.0, "averaging", 1, 39),
    (64.0, "potlach", 1, 44),
    (64.0, "averaging", 2, 24),
    (4.0, "averaging", 3, 8),
], ids=["c6", "c7-t400", "c7-t100", "potlach", "d2-t64", "d3-t4"])
def test_default_box_radius_pinned(t, dynamics, d, radius):
    # criteria 6 and 7, the benchmark's potlach simulate, and two d > 1 boxes
    assert default_box_radius(t, dynamics, d) == radius
    cfg = ExperimentConfig(dimension=d, t=t, dynamics=dynamics)
    assert cfg.box.radius == radius
    assert cfg.wrap_bound == wrap_bound(radius, t, dynamics, d) <= WRAP_TOL


@pytest.mark.parametrize("dynamics", DYNAMICS)
@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 7.5, 64.0, 400.0, 1e6])
def test_default_box_radius_is_the_smallest_admissible(t, d, dynamics):
    r = default_box_radius(t, dynamics, d)
    assert r >= 1
    assert wrap_bound(r, t, dynamics, d) <= WRAP_TOL
    assert r == 1 or wrap_bound(r - 1, t, dynamics, d) > WRAP_TOL
    if t < 1:
        assert r == default_box_radius(1.0, dynamics, d)


def test_wrap_bound_falls_with_radius_and_grows_with_time():
    radii = range(1, 60)
    for d in (1, 2, 3):
        b = [wrap_bound(r, 64.0, "averaging", d) for r in radii]
        assert all(x > y for x, y in zip(b, b[1:]))
        assert wrap_bound(20, 100.0, "averaging", d) > wrap_bound(20, 64.0, "averaging", d)


@pytest.mark.parametrize("dynamics", DYNAMICS)
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("t", [1.0, 16.0, 64.0, 400.0])
def test_wrap_bound_dominates_exact_escape(t, d, dynamics):
    # each axis of the dual walk is an independent Skellam walk with variance
    # s = rate t / d, so P(X = k) = e^{-s} I_k(s) and
    # P(some |X_j| >= r) = 1 - (1 - P(|X| >= r))^d
    s = WALK_RATE[dynamics] * t / d
    r_max = default_box_radius(t, dynamics, d) + 5
    ks = np.arange(0, r_max + 60 + int(20 * math.sqrt(s)))
    pmf = ive(ks, s)
    assert math.isclose(pmf[0] + 2 * pmf[1:].sum(), 1.0, rel_tol=1e-12)
    for r in range(1, r_max + 1):
        axis = 2 * pmf[r:].sum()
        exact = -math.expm1(d * math.log1p(-axis))
        assert wrap_bound(r, t, dynamics, d) >= exact


def test_run_events_mark_encoding():
    # mark m encodes the edge (m // d) -> (m // d) + e_{m % d}
    box, d = Box(2, 2), 2
    for site, axis, partner in [((0, 0), 0, (1, 0)), ((0, 0), 1, (0, 1)),
                                ((-1, 0), 0, (-1, 0)), ((0, -1), 1, (0, -1))]:
        f = run_one(box, "averaging", [box.to_index(site) * d + axis])
        assert f[2, 2] == 0.5
        assert f[partner[0] + 2, partner[1] + 2] == 0.5
        assert f.sum() == 1.0


def test_run_events_torus_seam():
    box = Box(1, 3)
    chain = [(0,), (1,), (2,), (3,)]  # the last edge wraps (3,) -> (-3,)
    marks = np.array([box.to_index(x) for x in chain]).reshape(-1, 1)
    f = run_events(box, "averaging", marks, exact=True)[0]  # numerators over 2**4
    expected = {0: 8, 1: 4, 2: 2, 3: 1, -3: 1}
    for x in range(-3, 4):
        assert f[x + 3] == expected.get(x, 0)
        assert type(f[x + 3]) is int


def test_run_events_potlach_split():
    box = Box(2, 2)
    marks = [box.to_index((0, 0)), box.to_index((1, 0))]
    f = run_one(box, "potlach", marks, exact=True)
    expected = {(0, 0): F(1, 16), (0, 1): F(1, 4), (-1, 0): F(1, 4),
                (0, -1): F(1, 4), (2, 0): F(1, 16), (1, 1): F(1, 16),
                (1, -1): F(1, 16)}
    for p in box.points():
        assert f[p[0] + 2, p[1] + 2] == expected.get(p, 0)
    assert sum(f.flat) == 1
    assert np.array_equal(run_one(box, "potlach", marks), f.astype(float))


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("dynamics", ["averaging", "potlach"])
def test_run_events_padding_leaves_rows_unchanged(dynamics, exact):
    box = Box(2, 2)
    pad = EventSchedule.n_marks(box, dynamics)
    events = [3, 17, 12, 0, 24]
    marks = np.array([events + [pad] * 3, [pad] * 8, [pad, pad] + events + [pad]]).T
    fields = run(box, dynamics, marks, exact)
    point = run(box, dynamics, np.empty((0, 1), dtype=np.int64), exact)[0]
    assert point[2, 2] == 1 and point.sum() == 1
    assert np.array_equal(fields[1], point)
    assert np.array_equal(fields[0], replay(box, dynamics, events, exact))
    assert np.array_equal(fields[2], fields[0])
    with pytest.raises(ValueError):
        run_events(box, dynamics, marks + 1, exact)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("dynamics", ["averaging", "potlach"])
def test_run_events_ignores_mark_dtype_and_layout(dynamics, exact):
    box = Box(2, 2)
    pad = EventSchedule.n_marks(box, dynamics)
    events = np.random.default_rng(4).integers(0, pad, size=(30, 3))
    marks = np.concatenate([events, np.full((2, 3), pad)])
    strided = np.full((len(marks), 6), pad)
    strided[:, ::2] = marks
    layouts = [marks.astype(np.uint8), marks.astype(np.uint16), marks.astype(np.int64),
               strided[:, ::2], np.asfortranarray(marks)]
    assert not layouts[3].flags.c_contiguous and not layouts[4].flags.c_contiguous
    expected = [replay(box, dynamics, events[:, i], exact) for i in range(3)]
    for variant in layouts:
        fields = run(box, dynamics, variant, exact)
        for i in range(3):
            assert np.array_equal(fields[i], expected[i])


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("dynamics", ["averaging", "potlach"])
def test_run_events_applies_slices_in_order(dynamics, exact):
    # slices of consecutive steps, applied on one buffer, give the whole matrix's
    # fields; exact numerators come out over the same base**n_steps
    box = Box(2, 2)
    pad = EventSchedule.n_marks(box, dynamics)
    marks = np.random.default_rng(8).integers(0, pad + 1, size=(23, 4))
    whole = run_events(box, dynamics, marks, exact)
    for cuts in ([0, 23], [0, 1, 2, 23], [0, 0, 5, 5, 17, 23], list(range(24))):
        parts = (marks[lo:hi] for lo, hi in zip(cuts, cuts[1:]))
        fields = run_events(box, dynamics, parts, exact)
        assert fields.dtype == whole.dtype and np.array_equal(fields, whole)
    with pytest.raises(ValueError, match="one column per trial"):
        run_events(box, dynamics, iter([marks[:3], marks[3:, :2]]), exact)
    with pytest.raises(ValueError, match="at least one slice"):
        run_events(box, dynamics, iter([]), exact)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("dynamics", ["averaging", "potlach"])
def test_exact_fields_equal_fractions_of_their_numerators(dynamics, d):
    # run_events' exact fields are Python ints over den = 2**steps, or (2d)**steps
    # for potlach (at d=3 its 6**steps is not a power of two); every row sums to den
    box, steps = Box(d, 1), 60
    pad = EventSchedule.n_marks(box, dynamics)
    events = np.random.default_rng(d).integers(0, pad, size=(steps, 2))
    marks = np.concatenate([events, np.full((steps, 1), pad)], axis=1)  # trial 2: no event
    nums = run_events(box, dynamics, marks, exact=True).reshape(3, -1)
    den = (2 if dynamics == "averaging" else 2 * d) ** steps
    assert all(type(v) is int for v in nums.flat)
    assert [sum(row) for row in nums] == [den] * 3
    assert any(v == 0 for v in nums.flat) and any(0 < v < den for v in nums.flat)
    assert nums[2].tolist() == [den if i == box.to_index(origin(d)) else 0
                                for i in range(box.n_sites)]
    for i in range(2):
        assert np.array_equal(fractions(nums[i], den),
                              replay(box, dynamics, events[:, i], True).reshape(-1))


def test_event_schedule_sample():
    box = Box(1, 5)
    rng = np.random.default_rng(7)
    sched = EventSchedule.sample(rng, box, 10.0, "averaging")
    assert len(sched) == len(sched.marks)
    if len(sched):
        assert sched.marks.min() >= 0
        assert sched.marks.max() < EventSchedule.n_marks(box, "averaging")


def _slices_of(children, box, t, dynamics):
    """``_mark_slices``' slices for fresh generators of ``children``, each copied
    as it is yielded, and the block they were views of."""
    rngs = [np.random.default_rng(ss) for ss in children]
    counts = [_draw_count(rng, EventSchedule.total_rate(box, dynamics) * t) for rng in rngs]
    copies, bases = [], set()
    for marks in _mark_slices(rngs, counts, EventSchedule.n_marks(box, dynamics)):
        copies.append(marks.copy())
        bases.add(id(marks.base))
        block = marks.base
    assert len(bases) == 1
    return copies, block


@pytest.mark.parametrize("budget,width", [(MARK_ENTRIES, None), (8 * 5, 5), (45, 5), (1, 1)],
                         ids=["default", "width5", "width5-rounded", "width1"])
def test_mark_slices_are_views_of_one_trial_major_block(budget, width, monkeypatch):
    # K = max(1, budget // max(trials, 8)) steps a slice; every slice is a transposed
    # view of one C-contiguous (trials, K) block, and the slices stacked are the padded
    # mark matrix
    box, t, dynamics = Box(2, 3), 3.0, "averaging"
    pad = EventSchedule.n_marks(box, dynamics)
    children = np.random.SeedSequence(5).spawn(4)
    streams = [EventSchedule.sample(np.random.default_rng(ss), box, t, dynamics).marks
               for ss in children]
    top = max(map(len, streams))
    assert min(map(len, streams)) < top  # some column is padded
    monkeypatch.setattr(simulate_module, "MARK_ENTRIES", budget)
    copies, block = _slices_of(children, box, t, dynamics)
    width = width or top
    assert block.shape == (4, width) and block.flags.c_contiguous
    assert block.size <= max(budget, len(children))  # one step a slice at least
    assert block.dtype == np.min_scalar_type(pad)
    assert [len(c) for c in copies] == [min(width, top - lo) for lo in range(0, top, width)]
    matrix = np.concatenate(copies)
    for i, stream in enumerate(streams):
        assert np.array_equal(matrix[:len(stream), i], stream)
        assert np.all(matrix[len(stream):, i] == pad)


def test_mark_slices_of_a_chunk_with_no_event():
    box = Box(1, 2)
    copies, block = _slices_of(np.random.SeedSequence(0).spawn(3), box, 0.0, "averaging")
    assert [c.shape for c in copies] == [(0, 3)] and block.shape == (3, 1)


@pytest.mark.parametrize("n_marks", [3, 7, 65, 79, 89, 155, 1000, 4050, 2**31 + 5])
def test_integers_in_pieces_equal_one_call(n_marks):
    # _mark_slices draws each stream in consecutive pieces. NumPy's bounded int64
    # draws keep the generator's buffered 32-bit half-word between calls, so the
    # pieces, odd lengths included, are the stream one call draws
    sizes = [1, 3, 2, 5, 1, 64, 7, 1000, 2, 11]
    for seed in range(30):
        whole = _draw_stream(np.random.default_rng(seed), sum(sizes), n_marks)
        rng = np.random.default_rng(seed)
        pieces = np.concatenate([_draw_stream(rng, k, n_marks) for k in sizes])
        assert pieces.dtype == whole.dtype == np.int64
        assert np.array_equal(pieces, whole)


# 1, 1, 1, 2, 4 and 5 entropy words
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**96, 2**128 + 1)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("lo,hi", [(0, 1), (0, 3000), (2995, 3000)])
def test_trial_states_are_the_spawned_childrens(seed, lo, hi):
    states = _trial_states(seed, lo, hi)
    assert states.dtype == np.uint64 and states.shape == (hi - lo, 4)
    children = np.random.SeedSequence(seed).spawn(hi)[lo:]
    assert np.array_equal(states, [ss.generate_state(4, np.uint64) for ss in children])


@pytest.mark.parametrize("seed", SEEDS)
def test_trial_generators_draw_the_spawned_childrens_streams(seed):
    mu = EventSchedule.total_rate(Box(1, 39), "averaging") * 64.0
    children = np.random.SeedSequence(seed).spawn(2999)
    rngs = trial_generators(seed, 0, 2) + trial_generators(seed, 2998, 2999)
    for i, rng in zip((0, 1, 2998), rngs):
        ref = np.random.default_rng(children[i])
        assert rng.poisson(mu) == ref.poisson(mu)
        assert np.array_equal(rng.integers(0, 79, 5000), ref.integers(0, 79, 5000))


def test_event_rates():
    box = Box(2, 3)
    assert EventSchedule.total_rate(box, "averaging") == box.n_sites / 2
    assert EventSchedule.total_rate(box, "potlach") == box.n_sites
    assert EventSchedule.n_marks(box, "averaging") == 2 * box.n_sites
    assert EventSchedule.n_marks(box, "potlach") == box.n_sites


@pytest.mark.parametrize("dynamics", ["averaging", "potlach"])
def test_exact_conservation(dynamics):
    cfg = ExperimentConfig(dimension=1, t=6.0, trials=3, seed=11,
                           dynamics=dynamics, mode="exact", box_radius=5)
    res = simulate(cfg)
    assert isinstance(res, SimulationResult)
    flat = res.fields.reshape(cfg.trials, -1)
    assert flat.sum(axis=1).tolist() == [res.den] * cfg.trials
    assert res.conservation_defect() == 0.0
    for nsq in (flat * flat).sum(axis=1):
        assert type(nsq) is int
        assert nsq <= res.den ** 2


def test_exact_conservation_defect_is_an_integer_test():
    # one numerator changed by 1 makes the defect exactly 1 / den, far below what a
    # float sum of the masses could resolve
    cfg = ExperimentConfig(dimension=1, t=16.0, trials=3, seed=11, mode="exact", box_radius=5)
    res = simulate(cfg)
    assert res.den > 2 ** 53 and res.conservation_defect() == 0.0
    for change in (1, -1):
        fields = res.fields.copy()
        fields[1, cfg.box.to_index((0,))] += change
        assert SimulationResult(cfg, fields, res.den).conservation_defect() == 1 / res.den
    # a hand-made result over den 12 whose rows lose 3/12 and 1/12 of their mass
    cfg = ExperimentConfig(dimension=1, t=1.0, trials=2, mode="exact", box_radius=1)
    fields = np.array([[4, 2, 3], [0, 12, -1]], dtype=object)
    assert SimulationResult(cfg, fields, 12).conservation_defect() == 0.25


def test_float_conservation_and_smoothing():
    cfg = ExperimentConfig(dimension=1, t=20.0, trials=8, seed=3, box_radius=12)
    res = simulate(cfg)
    assert res.den == 1 and res.conservation_defect() <= 1e-12
    flat = res.fields.reshape(cfg.trials, -1)
    norms = (flat * flat).sum(axis=1)
    assert np.all(norms <= 1 + 1e-12)
    assert norms.mean() < 0.9  # the field has provably averaged somewhere


def test_exact_and_float_see_same_events():
    kwargs = dict(dimension=1, t=8.0, trials=3, seed=5, box_radius=6)
    exact = simulate(ExperimentConfig(mode="exact", **kwargs))
    flo = simulate(ExperimentConfig(mode="float", **kwargs))
    np.testing.assert_allclose(flo.fields.reshape(3, -1), exact.matrix, atol=1e-12)


@pytest.mark.parametrize("d,dynamics,mode", [
    (1, "averaging", "exact"), (2, "averaging", "float"),
    (2, "potlach", "float"), (2, "potlach", "exact"),
    (3, "averaging", "exact"), (1, "potlach", "exact"),
    # deg = 6 is the only divisor here that is not a power of two
    (3, "potlach", "float")])
def test_lockstep_matches_single_trial_replay(d, dynamics, mode):
    cfg = ExperimentConfig(dimension=d, t=4.0, trials=5, seed=9, box_radius=3,
                           dynamics=dynamics, mode=mode)
    res = simulate(cfg)
    fields = masses(res)
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    for i in (0, 2, 4):
        rng = np.random.default_rng(children[i])
        sched = EventSchedule.sample(rng, cfg.box, cfg.t, cfg.dynamics)
        assert len(sched) > 0
        ref = replay(cfg.box, cfg.dynamics, sched.marks, mode == "exact")
        assert np.array_equal(fields[i], ref)
        # an exact site's float is num / den, the double float(Fraction) gives
        assert res.matrix[i].tobytes() == np.asarray(ref, dtype=float).reshape(-1).tobytes()
    mean = np.asarray(fields.mean(axis=0), dtype=float)
    assert res.mean_field().tobytes() == mean.tobytes()


@pytest.mark.parametrize("block", [1, 3, None], ids=["block1", "block3", "one-block"])
@pytest.mark.parametrize("mode", ["float", "exact"])
@pytest.mark.parametrize("dynamics", DYNAMICS)
@pytest.mark.parametrize("d,t,radius", [(1, 8.0, 6), (2, 3.0, 3), (3, 2.0, 2)])
def test_lockstep_blocks_match_replay(d, t, radius, dynamics, mode, block, monkeypatch):
    # run_events gathers BLOCK_ENTRIES // trials steps of endpoint indices at a
    # time; no block boundary may change a field
    cfg = ExperimentConfig(dimension=d, t=t, trials=5, seed=9, box_radius=radius,
                           dynamics=dynamics, mode=mode)
    whole = simulate(cfg)
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    streams = [EventSchedule.sample(np.random.default_rng(ss), cfg.box, t, dynamics).marks
               for ss in children]
    n_steps = max(map(len, streams))
    assert n_steps % 3 and n_steps < simulate_module.BLOCK_ENTRIES // cfg.trials
    if block is not None:
        monkeypatch.setattr(simulate_module, "BLOCK_ENTRIES", block * cfg.trials)
    res = simulate(cfg)
    assert _same_results(res, whole)
    fields = masses(res)
    for i, stream in enumerate(streams):
        ref = replay(cfg.box, dynamics, stream, mode == "exact")
        assert np.array_equal(fields[i], ref)
        # at d=3 potlach's exact den 6**N is no power of two: num / den is rounded once
        assert res.matrix[i].tobytes() == np.asarray(ref, dtype=float).reshape(-1).tobytes()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def test_seeded_outputs_pinned():
    # Digests of the seeded fields; a change to the event stream, the box
    # sizing or the update arithmetic must update these openly.
    f = simulate(ExperimentConfig(dimension=1, t=16.0, trials=20, seed=7)).fields
    assert _sha(f.tobytes()) == "98f2f4c23a0974fe"
    f = simulate(ExperimentConfig(dimension=2, t=4.0, trials=10, seed=7,
                                  box_radius=4, dynamics="potlach")).fields
    assert _sha(f.tobytes()) == "63e1e677a0facd6f"
    f = masses(simulate(ExperimentConfig(dimension=1, t=8.0, trials=4, seed=7,
                                         box_radius=6, mode="exact")))
    assert _sha(repr([str(v) for v in f.flat]).encode()) == "a527a9504f088489"


def test_simulate_is_deterministic():
    cfg = ExperimentConfig(dimension=1, t=16.0, trials=4, seed=21, box_radius=9)
    a = simulate(cfg)
    b = simulate(cfg)
    assert np.array_equal(a.fields, b.fields)


def test_zero_time_is_identity():
    cfg = ExperimentConfig(dimension=1, t=0.0, trials=2, seed=0, box_radius=2)
    res = simulate(cfg)
    for i in range(2):
        assert res.fields[i][cfg.box.to_index((0,))] == 1.0
        assert res.fields[i].sum() == 1.0


def test_mean_field_shape():
    cfg = ExperimentConfig(dimension=2, t=4.0, trials=6, seed=2, box_radius=4)
    res = simulate(cfg)
    mean = res.mean_field()
    assert mean.shape == (9, 9)
    assert float(mean.sum()) == pytest.approx(1.0, abs=1e-12)


# S, the step bound simulate computes, for criteria 6 and 7 (t=400) and the
# benchmark's potlach run
C6_STEPS, C7_STEPS, POTLACH_STEPS = 2546, 32771, 6461


@pytest.mark.parametrize("trials,steps,width,n", [
    (1, 2724, 80, 1),                      # one trial
    (MIN_CHUNK_TRIALS + 1, 100, 10**5, 1),  # just over the floor, buffer far too big
    (2 * MIN_CHUNK_TRIALS + 1, 100, 10**5, 2),
    (5000, C6_STEPS, 66, 3),               # criterion 6's share on two cores
    (10**4, C6_STEPS, 66, 7),              # criterion 6 on one core
    (200, C7_STEPS, 156, 1),               # criterion 7's share at t=400
    (1000, POTLACH_STEPS, 90, 1),          # the benchmark's potlach share
    (3000, 10**5, 80, 1),                  # large t: slices, not chunks
    (10**6, 10, 2, 8),                     # the buffer bound alone
], ids=["one-trial", "floor+1", "2floor+1", "c6", "c6-one-core", "c7", "potlach",
        "large-t", "many-trials"])
def test_chunk_bounds_respect_limits(trials, steps, width, n):
    bounds = _chunk_bounds(trials, steps, width)
    sizes = np.diff(bounds)
    assert len(sizes) == n
    assert bounds[0] == 0 and bounds[-1] == trials and sizes.min() >= 1
    assert sizes.max() - sizes.min() <= 1  # equal chunks cover every trial once
    floor = max(MIN_CHUNK_TRIALS, steps / 2)

    def biggest(k):
        return -(-trials // k)

    def cache_ok(k):
        return biggest(k) * 8 * width <= BUFFER_BYTES

    def budget_ok(k):
        return biggest(k) * steps <= MARK_ENTRIES

    by_cache = next(k for k in range(1, trials + 1)
                    if cache_ok(k) or trials // (k + 1) < MIN_CHUNK_TRIALS)
    assert n >= by_cache
    # the buffer fits, or one more chunk would fall below the floor
    assert cache_ok(n) or trials // (n + 1) < MIN_CHUNK_TRIALS
    # the budget splits only down to max(MIN_CHUNK_TRIALS, S/2) trials a chunk,
    # and as far as that allows
    if n > by_cache:
        assert sizes.min() >= floor and not budget_ok(n - 1)
    assert budget_ok(n) or trials // (n + 1) < floor
    # every slice of marks fits the budget: K = MARK_ENTRIES // max(chunk, 8) steps
    k = max(1, MARK_ENTRIES // max(biggest(n), 8))
    assert biggest(n) * min(k, steps) <= MARK_ENTRIES
    if (trials, steps) == (5000, C6_STEPS):
        # S/2 = 1273: a fourth chunk (1250 trials) would fall below it, so each chunk
        # of 1666-1667 trials draws its marks (at most about 2300 a trial) in one slice
        assert list(bounds) == [0, 1666, 3333, 5000] and k > 2300


def _same_results(a, b):
    """Equal fields over one den, with bitwise equal float matrices and mean fields."""
    if a.config.mode == "exact":
        same = (a.fields.shape == b.fields.shape and np.array_equal(a.fields, b.fields)
                and all(type(v) is int for v in a.fields.flat))
    else:
        same = a.fields.dtype == b.fields.dtype and a.fields.tobytes() == b.fields.tobytes()
    return (same and a.den == b.den and a.matrix.tobytes() == b.matrix.tobytes()
            and a.mean_field().tobytes() == b.mean_field().tobytes())


def _counted_slices(monkeypatch):
    """Count the slices ``simulate`` draws, in a list the caller reads."""
    seen, mark_slices = [], simulate_module._mark_slices

    def counted(*args):
        for marks in mark_slices(*args):
            seen.append(len(marks))
            yield marks

    monkeypatch.setattr(simulate_module, "_mark_slices", counted)
    return seen


@pytest.mark.parametrize("limits", [
    [dict(BUFFER_BYTES=1, MIN_CHUNK_TRIALS=2)],  # the cache bound splits, down to the floor
    [dict(MARK_ENTRIES=b) for b in (40, 9, 2, 1)],  # slices of 5, 1, 1 and 1 steps
], ids=["cache", "marks"])
@pytest.mark.parametrize("d,dynamics,mode,t,radius", [
    (1, "averaging", "float", 6.0, 5), (2, "averaging", "exact", 3.0, 3),
    (3, "potlach", "float", 2.0, 2), (2, "potlach", "exact", 2.0, 2),
    (3, "averaging", "float", 2.0, 2), (1, "potlach", "float", 4.0, 4),
    (1, "averaging", "float", 0.0, 2),
    (1, "averaging", "exact", 0.4, 1)])  # some trials see no event
def test_chunked_simulate_matches_one_chunk(d, dynamics, mode, t, radius, limits,
                                            monkeypatch):
    cfg = ExperimentConfig(dimension=d, t=t, trials=7, seed=3, box_radius=radius,
                           dynamics=dynamics, mode=mode)
    whole = simulate(cfg)
    counts = [len(EventSchedule.sample(np.random.default_rng(ss), cfg.box, t, dynamics))
              for ss in np.random.SeedSequence(cfg.seed).spawn(cfg.trials)]
    for variant in limits:
        with monkeypatch.context() as m:
            for name, value in variant.items():
                m.setattr(simulate_module, name, value)
            seen = _counted_slices(m)
            mu = EventSchedule.total_rate(cfg.box, dynamics) * t
            steps = int(mu + 10 * math.sqrt(mu + 1) + 10)
            chunks = len(_chunk_bounds(cfg.trials, steps, cfg.box.n_sites + 1)) - 1
            assert _same_results(simulate(cfg), whole)
        if "MARK_ENTRIES" in variant:
            width = max(1, variant["MARK_ENTRIES"] // 8)
            assert chunks == 1 and seen == [min(width, max(counts) - lo)
                                             for lo in range(0, max(max(counts), 1), width)]
        else:
            assert chunks > 2
    if t == 0.4:
        assert 0 in counts and max(counts) > 0


@pytest.mark.parametrize("mode", ["float", "exact"])
@pytest.mark.parametrize("dynamics", DYNAMICS)
def test_fields_equal_across_budgets_workers_and_chunks(dynamics, mode, monkeypatch):
    # 16 trials of about 1.5 expected events on a 5-site torus, a fifth of them with
    # none: budgets down to one mark, chunks down to one trial and float runs on up
    # to three processes all give bitwise the same fields, den and estimator inputs
    t = 1.5 / EventSchedule.total_rate(Box(1, 2), dynamics)
    cfg = ExperimentConfig(dimension=1, t=t, trials=16, seed=4, box_radius=2,
                           dynamics=dynamics, mode=mode)
    counts = [len(EventSchedule.sample(np.random.default_rng(ss), cfg.box, t, dynamics))
              for ss in np.random.SeedSequence(cfg.seed).spawn(cfg.trials)]
    assert 0 in counts and max(counts) >= 4
    _force_workers(monkeypatch, 1)
    whole = simulate(cfg)
    variants = [dict(MARK_ENTRIES=b) for b in (1, 16, 48, 100)]
    variants += [dict(BUFFER_BYTES=1, MIN_CHUNK_TRIALS=m, MARK_ENTRIES=b)
                 for m in (1, 3, 5) for b in (1, 24)]
    for variant in variants:
        for workers in (1, 2, 3) if mode == "float" else (1,):
            with monkeypatch.context() as m:
                for name, value in variant.items():
                    m.setattr(simulate_module, name, value)
                _force_workers(m, workers)
                assert _same_results(simulate(cfg), whole), (variant, workers)
    assert multiprocessing.active_children() == []


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(simulate_module, "_worker_count", lambda *_: workers)


def _share_peak_and_bound(cfg, workers, monkeypatch):
    """Peak traced memory of the calling process; 1.25x the mark budget's block
    plus one chunk's lockstep buffer of its own share (share 0); that share's
    chunk count and largest chunk; and the bytes of that chunk's whole padded
    mark matrix and buffer."""
    _force_workers(monkeypatch, workers)
    tracemalloc.start()
    try:
        simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    box = cfg.box
    share = cfg.trials // workers
    mu = EventSchedule.total_rate(box, cfg.dynamics) * cfg.t
    bounds = _chunk_bounds(share, int(mu + 10 * math.sqrt(mu + 1) + 10), box.n_sites + 1)
    chunk = int(np.diff(bounds).max())
    longest = max(int(np.random.default_rng(ss).poisson(mu))
                  for ss in np.random.SeedSequence(cfg.seed).spawn(share))
    itemsize = np.min_scalar_type(EventSchedule.n_marks(box, cfg.dynamics)).itemsize
    buffer = chunk * (box.n_sites + 1) * 8
    return peak, 1.25 * (MARK_ENTRIES * itemsize + buffer), len(bounds) - 1, chunk, \
        chunk * longest * itemsize + buffer


def _generator_bytes(trials):
    """Traced bytes of ``trials`` trial generators (about 0.8 kB each)."""
    tracemalloc.start()
    try:
        rngs = trial_generators(0, 0, trials)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del rngs
    return size


def test_chunk_memory_stays_bounded(monkeypatch):
    # Peak traced memory stays within 1.25x the mark budget and one chunk's lockstep
    # buffer: no chunk holds more than one block of marks, and no block of the
    # previous chunk is alive next to it. The float fields live in an anonymous
    # mmap, which tracemalloc does not see, so they are not in the bound. Measured:
    # 4.65 MB against a bound of 6.23 MB, for 4 chunks of 1500 trials in one slice
    # each (5.81 MB while every chunk kept its generators through the lockstep).
    peak, bound, chunks, _, _ = _share_peak_and_bound(
        ExperimentConfig(dimension=1, t=64.0, trials=6000), 1, monkeypatch)
    assert chunks == 4
    assert peak < bound
    # The benchmark's potlach share: one chunk of 1000 trials, whose 5.9e6 marks
    # exceed the budget, draws them in two slices of a full block. Its peak also
    # holds the chunk's generators (0.78 MB), which hold every stream's place
    # between the slices. Measured: 6.33 MB against 6.92 MB; the whole mark
    # matrix, its buffer and the generators alone take 7.4 MB.
    peak, bound, chunks, trials, unsliced = _share_peak_and_bound(
        ExperimentConfig(dimension=1, t=64.0, trials=1000, dynamics="potlach"), 1,
        monkeypatch)
    bound += _generator_bytes(trials)
    assert chunks == 1
    assert peak < bound < unsliced + _generator_bytes(trials)


def test_forked_share_memory_stays_bounded(monkeypatch):
    # with two processes the caller holds only its own share's chunks: the
    # workers' marks live in the workers
    peak, bound, _, _, _ = _share_peak_and_bound(
        ExperimentConfig(dimension=1, t=64.0, trials=6000), 2, monkeypatch)
    assert peak < bound


@pytest.mark.parametrize("workers", [2, 3, 7])  # 7: one trial each, more than the cores
@pytest.mark.parametrize("dynamics", DYNAMICS)
@pytest.mark.parametrize("d,t,radius", [(1, 8.0, 6), (2, 3.0, 3), (3, 2.0, 2)])
def test_forked_simulate_matches_one_process(d, t, radius, dynamics, workers, monkeypatch):
    cfg = ExperimentConfig(dimension=d, t=t, trials=7, seed=5, box_radius=radius,
                           dynamics=dynamics)
    _force_workers(monkeypatch, 1)
    serial = simulate(cfg).fields
    _force_workers(monkeypatch, workers)
    assert simulate(cfg).fields.tobytes() == serial.tobytes()
    assert multiprocessing.active_children() == []


def test_worker_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert _worker_count(10**4, exact=False) == 3
    assert _worker_count(2 * MIN_SHARE_TRIALS, exact=False) == 2
    assert _worker_count(2 * MIN_SHARE_TRIALS - 1, exact=False) == 1
    assert _worker_count(10**4, exact=True) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _worker_count(10**4, exact=False) == 1


def test_small_float_run_forks_and_matches_one_process(monkeypatch):
    # 200 trials at t=1 on the default torus (1.5e3 expected events): the
    # trials alone decide the split, so two usable cores give two processes
    cfg = ExperimentConfig(dimension=1, t=1.0, trials=200, seed=11)
    _force_workers(monkeypatch, 1)
    serial = simulate(cfg).fields
    monkeypatch.undo()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks, fork_shares = [], simulate_module._fork_shares

    def counted_fork_shares(run_share, workers):
        forks.append(workers)
        fork_shares(run_share, workers)

    monkeypatch.setattr(simulate_module, "_fork_shares", counted_fork_shares)
    assert simulate(cfg).fields.tobytes() == serial.tobytes()
    assert forks == [2]
    assert multiprocessing.active_children() == []


def test_exact_simulate_starts_no_process(monkeypatch):
    # with one trial per share allowed and spare cores, only exactness keeps the run
    # in one process; a fork would raise here
    monkeypatch.setattr(simulate_module, "MIN_SHARE_TRIALS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert _worker_count(7, exact=False) == 4

    def no_fork():
        raise AssertionError("exact simulate forked")

    monkeypatch.setattr(os, "fork", no_fork)
    cfg = ExperimentConfig(dimension=1, t=4.0, trials=7, seed=3, box_radius=4, mode="exact")
    assert all(type(v) is int for v in simulate(cfg).fields.flat)


def _failing_run_events(fail_in_parent: bool):
    parent = os.getpid()

    def run_events_or_fail(*args):
        if (os.getpid() == parent) == fail_in_parent:
            raise ValueError("share failed")
        if fail_in_parent:
            time.sleep(0.5)  # a worker still running when the parent fails
        return run_events(*args)

    return run_events_or_fail


def test_failed_worker_raises_and_leaves_no_child(monkeypatch):
    _force_workers(monkeypatch, 3)
    monkeypatch.setattr(simulate_module, "run_events", _failing_run_events(False))
    with pytest.raises(RuntimeError, match="2 of 2 simulate workers failed"):
        simulate(ExperimentConfig(dimension=1, t=4.0, trials=7, seed=3, box_radius=4))
    assert multiprocessing.active_children() == []


def test_failed_parent_share_joins_every_worker(monkeypatch):
    _force_workers(monkeypatch, 3)
    monkeypatch.setattr(simulate_module, "run_events", _failing_run_events(True))
    with pytest.raises(ValueError, match="share failed"):
        simulate(ExperimentConfig(dimension=1, t=4.0, trials=7, seed=3, box_radius=4))
    assert multiprocessing.active_children() == []


def test_one_process_run_does_not_import_multiprocessing():
    # the import costs about 8 ms and 0.7 MB; only runs that fork pay it
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = ("import sys; from avgproc.simulate import ExperimentConfig, simulate; "
            "simulate(ExperimentConfig(t=16.0, trials=50)); "
            "print('multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_import_does_not_load_numpy_random():
    # numpy.random costs about 15 ms and 6 MB to load; commands that never draw
    # (series-verify, walk-dp, asymptotics) need not pay it
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = "import sys, avgproc.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
