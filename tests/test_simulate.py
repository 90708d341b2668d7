import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ive

from avgproc import simulate as simulate_module
from avgproc.lattice import Box, origin, unit_vectors
from avgproc.simulate import (
    BUFFER_BYTES,
    DYNAMICS,
    MAX_MARK_ENTRIES,
    MIN_CHUNK_TRIALS,
    WALK_RATE,
    WRAP_TOL,
    EventSchedule,
    ExperimentConfig,
    SimulationResult,
    _chunk_bounds,
    default_box_radius,
    run_events,
    simulate,
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


def run_one(box, dynamics, marks, exact=False):
    return run_events(box, dynamics, np.array(marks).reshape(-1, 1), exact)[0]


def test_config_validation():
    for kwargs in [dict(dimension=0), dict(t=-1.0), dict(trials=0),
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
    f = run_one(box, "averaging", [box.to_index(x) for x in chain], exact=True)
    expected = {0: F(1, 2), 1: F(1, 4), 2: F(1, 8), 3: F(1, 16), -3: F(1, 16)}
    for x in range(-3, 4):
        assert f[x + 3] == expected.get(x, 0)
        assert type(f[x + 3]) is Fraction


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
    fields = run_events(box, dynamics, marks, exact)
    point = run_events(box, dynamics, np.empty((0, 1), dtype=np.int64), exact)[0]
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
        fields = run_events(box, dynamics, variant, exact)
        for i in range(3):
            assert np.array_equal(fields[i], expected[i])


def test_event_schedule_sample():
    box = Box(1, 5)
    rng = np.random.default_rng(7)
    sched = EventSchedule.sample(rng, box, 10.0, "averaging")
    assert len(sched) == len(sched.times) == len(sched.marks)
    assert np.all(np.diff(sched.times) >= 0)
    if len(sched):
        assert 0.0 <= sched.times[0] and sched.times[-1] <= 10.0
        assert sched.marks.min() >= 0
        assert sched.marks.max() < EventSchedule.n_marks(box, "averaging")


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
    for tot in res.totals():
        assert tot == F(1)
    for nsq in res.two_norms_sq():
        assert isinstance(nsq, Fraction)
        assert nsq <= 1


def test_float_conservation_and_smoothing():
    cfg = ExperimentConfig(dimension=1, t=20.0, trials=8, seed=3, box_radius=12)
    res = simulate(cfg)
    np.testing.assert_allclose(res.totals(), 1.0, atol=1e-12)
    norms = res.two_norms_sq()
    assert np.all(norms <= 1 + 1e-12)
    assert norms.mean() < 0.9  # the field has provably averaged somewhere


def test_exact_and_float_see_same_events():
    kwargs = dict(dimension=1, t=8.0, trials=3, seed=5, box_radius=6)
    exact = simulate(ExperimentConfig(mode="exact", **kwargs))
    flo = simulate(ExperimentConfig(mode="float", **kwargs))
    ex_vals = np.array([[float(v) for v in row] for row in
                        exact.fields.reshape(3, -1)])
    np.testing.assert_allclose(flo.fields.reshape(3, -1), ex_vals, atol=1e-12)


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
    if mode == "exact":
        assert all(type(v) is Fraction for v in res.fields.flat)
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    for i in (0, 2, 4):
        rng = np.random.default_rng(children[i])
        sched = EventSchedule.sample(rng, cfg.box, cfg.t, cfg.dynamics)
        assert len(sched) > 0
        ref = replay(cfg.box, cfg.dynamics, sched.marks, mode == "exact")
        assert np.array_equal(res.fields[i], ref)


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
    f = simulate(ExperimentConfig(dimension=1, t=8.0, trials=4, seed=7,
                                  box_radius=6, mode="exact")).fields
    assert all(type(v) is Fraction for v in f.flat)
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
        assert res.totals()[i] == 1.0


def test_mean_field_shape():
    cfg = ExperimentConfig(dimension=2, t=4.0, trials=6, seed=2, box_radius=4)
    res = simulate(cfg)
    mean = res.mean_field()
    assert mean.shape == (9, 9)
    assert float(mean.sum()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("trials,steps,width", [
    (1, 2724, 80),                     # one trial
    (MIN_CHUNK_TRIALS + 1, 100, 10**5),  # just over the floor, buffer far too big
    (2 * MIN_CHUNK_TRIALS + 1, 100, 10**5),
    (10**4, 2724, 80),                 # criterion 6
    (400, 36863, 80),                  # criterion 7
    (3000, 10**5, 80),                 # large t: the mark bound beats the floor
    (50, 10**8, 80),                   # huge t: one trial per chunk
    (10**6, 10, 2),
], ids=["one-trial", "floor+1", "2floor+1", "c6", "c7", "large-t", "huge-t", "many-trials"])
def test_chunk_bounds_respect_limits(trials, steps, width):
    bounds = _chunk_bounds(trials, steps, width)
    sizes = np.diff(bounds)
    n = len(sizes)
    assert bounds[0] == 0 and bounds[-1] == trials and sizes.min() >= 1
    assert sizes.max() - sizes.min() <= 1  # equal chunks cover every trial once

    def biggest(k):
        return -(-trials // k)

    def mark_ok(k):
        return biggest(k) * steps <= MAX_MARK_ENTRIES or biggest(k) == 1

    def cache_ok(k):
        return biggest(k) * 8 * width <= BUFFER_BYTES

    assert mark_ok(n)
    # the buffer fits, or one more chunk would fall below the floor
    assert cache_ok(n) or trials // (n + 1) < MIN_CHUNK_TRIALS
    # chunks hold at least the floor, unless one chunk or the mark bound forces it
    assert sizes.min() >= MIN_CHUNK_TRIALS or n == 1 or not mark_ok(n - 1)
    # fewest: one chunk fewer breaks the mark bound, or the cache bound while
    # still leaving room above the floor
    if n > 1:
        assert not mark_ok(n - 1) or (not cache_ok(n - 1)
                                      and trials // n >= MIN_CHUNK_TRIALS)
    if (trials, steps, width) == (10**4, 2724, 80):
        assert list(bounds) == [0, 2500, 5000, 7500, 10**4]


def _same_fields(a, b):
    if a.dtype == object:
        return (a.shape == b.shape and np.array_equal(a, b)
                and all(type(v) is Fraction for v in a.flat))
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("limits", [
    dict(BUFFER_BYTES=1, MIN_CHUNK_TRIALS=2),  # the cache bound splits, down to the floor
    dict(MAX_MARK_ENTRIES=1),                  # the mark bound splits to one trial each
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
    whole = simulate(cfg).fields
    for name, value in limits.items():
        monkeypatch.setattr(simulate_module, name, value)
    mu = EventSchedule.total_rate(cfg.box, dynamics) * t
    steps = int(mu + 10 * math.sqrt(mu + 1) + 10)
    assert len(_chunk_bounds(cfg.trials, steps, cfg.box.n_sites + 1)) > 3
    assert _same_fields(simulate(cfg).fields, whole)
    if t == 0.4:
        counts = [len(EventSchedule.sample(np.random.default_rng(ss), cfg.box, t, dynamics))
                  for ss in np.random.SeedSequence(cfg.seed).spawn(cfg.trials)]
        assert 0 in counts and max(counts) > 0


def test_chunk_memory_stays_bounded():
    # Peak traced memory stays within 1.25x one chunk's padded mark matrix,
    # its lockstep buffer and the fields: no second copy of the marks and no
    # matrix of the previous chunk may be alive next to them. Measured: 1.07x;
    # 1.52x with a per-trial stream list beside the matrix.
    cfg = ExperimentConfig(dimension=1, t=64.0, trials=6000)
    tracemalloc.start()
    try:
        fields = simulate(cfg).fields
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    box = cfg.box
    mu = EventSchedule.total_rate(box, cfg.dynamics) * cfg.t
    bounds = _chunk_bounds(cfg.trials, int(mu + 10 * math.sqrt(mu + 1) + 10),
                           box.n_sites + 1)
    chunk = int(np.diff(bounds).max())
    assert len(bounds) > 2
    longest = max(int(np.random.default_rng(ss).poisson(mu))
                  for ss in np.random.SeedSequence(cfg.seed).spawn(cfg.trials))
    pad = EventSchedule.n_marks(box, cfg.dynamics)
    matrix = chunk * longest * np.min_scalar_type(pad).itemsize
    buffer = chunk * (box.n_sites + 1) * 8
    assert peak < 1.25 * (matrix + buffer + fields.nbytes)
