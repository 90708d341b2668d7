import math

import pytest
from hypothesis import given, strategies as st

from avgproc.lattice import Box, ball, ball_volume, l1_norm, origin, sphere, sphere_size, unit_vectors


def test_l1_norm():
    assert l1_norm((0, 0, 0)) == 0
    assert l1_norm((1, -2, 3)) == 6


def test_unit_vectors():
    uv = unit_vectors(2)
    assert set(uv) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert len(unit_vectors(3)) == 6


def test_sphere_oracles():
    # |S_2(1)| = 4, |S_2(2)| = 8, |B_2(2)| = 13
    assert len(sphere(2, 1)) == 4
    assert len(sphere(2, 2)) == 8
    assert len(ball(2, 2)) == 13
    assert sphere(1, 0) == [(0,)]
    assert set(sphere(1, 2)) == {(2,), (-2,)}


def test_sphere_is_exact_shell():
    for d in (1, 2, 3):
        for r in range(0, 4):
            pts = sphere(d, r)
            assert len(set(pts)) == len(pts)
            assert all(l1_norm(p) == r for p in pts)
            assert len(pts) == sphere_size(d, r)


def test_ball_volume_matches_enumeration():
    for d in (1, 2, 3, 4):
        for r in range(0, 5):
            assert ball_volume(d, r) == len(ball(d, r))


def test_sphere_negative_radius():
    with pytest.raises(ValueError):
        sphere(2, -1)


@pytest.mark.parametrize("d", [0, -1])
def test_sphere_and_ball_reject_bad_dimension(d):
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        sphere(d, 1)
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        ball(d, 2)


def test_box_validation():
    with pytest.raises(ValueError):
        Box(0, 3)
    with pytest.raises(ValueError):
        Box(1, 0)


def test_box_geometry():
    box = Box(2, 3)
    assert box.side == 7
    assert box.n_sites == 49
    assert box.wrap((3, -3)) == (3, -3)
    assert box.wrap((4, 0)) == (-3, 0)


def test_index_roundtrip_order():
    box = Box(2, 2)
    pts = list(box.points())
    assert len(pts) == box.n_sites
    assert pts[0] == (-2, -2)
    for i, p in enumerate(pts):
        assert box.to_index(p) == i
        assert box.from_index(i) == p


def test_torus_wrap_and_index():
    box = Box(1, 3)
    assert box.wrap((4,)) == (-3,)
    assert box.wrap((-4,)) == (3,)
    assert box.to_index((4,)) == box.to_index((-3,))


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        Box(2, 3).to_index((1,))


@given(st.integers(1, 3), st.integers(1, 6), st.lists(st.integers(-20, 20), min_size=1, max_size=3))
def test_wrap_is_idempotent_and_in_box(d, radius, coords):
    if len(coords) != d:
        coords = (coords * 3)[:d]
    box = Box(d, radius)
    w = box.wrap(tuple(coords))
    assert all(-radius <= c <= radius for c in w)
    assert box.wrap(w) == w
    # wrapping preserves residues mod the side length
    assert all((a - b) % box.side == 0 for a, b in zip(coords, w))


@given(st.integers(1, 3), st.integers(1, 5), st.integers(0, 10_000))
def test_from_index_roundtrip(d, radius, raw):
    box = Box(d, radius)
    idx = raw % box.n_sites
    assert box.to_index(box.from_index(idx)) == idx
