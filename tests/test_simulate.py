import hashlib
from fractions import Fraction

import numpy as np
import pytest

from avgproc.lattice import Box, origin, unit_vectors
from avgproc.simulate import (
    EventSchedule,
    ExperimentConfig,
    SimulationResult,
    default_box_radius,
    run_events,
    simulate,
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
    assert cfg.box == Box(2, default_box_radius(64.0), "torus")
    assert ExperimentConfig(box_radius=4).box.radius == 4


def test_default_box_radius():
    assert default_box_radius(64.0, "averaging") == 39
    assert default_box_radius(64.0, "potlach") == 53
    # floor at t = 1 keeps tiny boxes legal
    assert default_box_radius(0.0) == default_box_radius(1.0)


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
    assert _sha(f.tobytes()) == "d55553d6878ae9c7"
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
