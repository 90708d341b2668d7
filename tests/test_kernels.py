from fractions import Fraction

import pytest

from avgproc.kernels import (
    TransitionKernel,
    avg_difference_kernel,
    difference_kernel_from_pair_rates,
    pair_transition_rates,
    potlach_kernels,
    srw_kernel,
)
from avgproc.lattice import ball, origin, unit_vectors

F = Fraction


def all_rows(kernel, radius=3):
    rows = {x: kernel.row(x) for x in ball(kernel.dimension, radius)}
    rows["bulk"] = kernel.bulk
    return rows


@pytest.mark.parametrize("d", [1, 2, 3])
def test_rows_are_stochastic(d):
    kernels = [srw_kernel(d), avg_difference_kernel(d), *potlach_kernels(d)]
    for kernel in kernels:
        for label, row in all_rows(kernel).items():
            assert sum(row.values()) == 1, (kernel.name, label)
            assert all(0 <= p <= 1 for p in row.values())


def test_srw_row():
    k = srw_kernel(2)
    assert k.row((5, 7)) == {e: F(1, 4) for e in unit_vectors(2)}
    assert k.perturbation == {}
    assert k.max_step == 1


def test_avg_difference_origin_row():
    k = avg_difference_kernel(1)
    assert k.row((0,)) == {(0,): F(1, 2), (1,): F(1, 4), (-1,): F(1, 4)}


def test_avg_difference_sphere_row():
    # from x = 1: to 0 w.p. 1/4, reflect to -1 w.p. 1/8, stay w.p. 1/8,
    # ordinary step to 2 w.p. 1/2
    k = avg_difference_kernel(1)
    assert k.transition((1,), (0,)) == F(1, 4)
    assert k.transition((1,), (-1,)) == F(1, 8)
    assert k.transition((1,), (1,)) == F(1, 8)
    assert k.transition((1,), (2,)) == F(1, 2)
    # bulk fills in away from the ball
    assert k.transition((2,), (3,)) == F(1, 2)
    assert k.transition((2,), (2,)) == 0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_avg_difference_is_symmetric(d):
    assert avg_difference_kernel(d).symmetry_defect(radius=3) == 0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernel_scales(d):
    assert srw_kernel(d).scale == 2 * d
    assert avg_difference_kernel(d).scale == 8 * d
    ind, coup = potlach_kernels(d)
    assert ind.scale == 2 * d
    assert coup.scale == 8 * d * d


def test_pair_rates_adjacent_oracle():
    # pair (0, 1) on Z: each token has rate-1/4 moves to either neighbor,
    # suppressed when it would land on the partner, plus merge/swap/shared
    # moves at rate 1/8
    rates = pair_transition_rates((0,), (1,))
    expected = {
        ((0,), (2,)): F(1, 4),
        ((-1,), (1,)): F(1, 4),
        ((1,), (1,)): F(1, 8),
        ((0,), (0,)): F(1, 8),
        ((1,), (0,)): F(1, 8),
    }
    assert rates == expected
    assert sum(rates.values()) == F(7, 8)


def test_pair_rates_coincident_oracle():
    rates = pair_transition_rates((0,), (0,))
    assert rates[((0,), (1,))] == F(1, 8)
    assert rates[((1,), (0,))] == F(1, 8)
    assert rates[((1,), (1,))] == F(1, 8)
    assert sum(rates.values()) == F(3, 4)


def test_pair_rates_distant_pair_moves_independently():
    rates = pair_transition_rates((0, 0), (3, 0))
    assert sum(rates.values()) == 1
    assert rates[((1, 0), (3, 0))] == F(1, 8)
    assert rates[((0, 0), (3, 1))] == F(1, 8)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_difference_kernel_matches_pair_projection(d):
    reference = avg_difference_kernel(d)
    projected = difference_kernel_from_pair_rates(d)
    for x in ball(d, 3):
        assert projected.row(x) == reference.row(x), x


def test_potlach_coupled_origin_row():
    _, coup = potlach_kernels(1)
    assert coup.row((0,)) == {(0,): F(3, 4), (2,): F(1, 8), (-2,): F(1, 8)}
    assert coup.rate == 2
    assert coup.max_step == 2


def test_potlach_coupled_origin_row_d2():
    _, coup = potlach_kernels(2)
    row = coup.row((0, 0))
    # stay 1/2 + coincidence 1/8; cardinal double steps 1/32; diagonals 1/16
    assert row[(0, 0)] == F(1, 2) + F(1, 8)
    assert row[(2, 0)] == F(1, 32)
    assert row[(1, 1)] == F(1, 16)
    assert sum(row.values()) == 1


def test_kernel_validation_rejects_bad_rows():
    with pytest.raises(ValueError):
        TransitionKernel(1, F(1), {(1,): F(1, 2)})
    with pytest.raises(ValueError):
        TransitionKernel(1, F(1), {(1,): F(3, 2), (-1,): F(-1, 2)})
    with pytest.raises(ValueError):
        TransitionKernel(0, F(1), {})
    with pytest.raises(ValueError):
        TransitionKernel(1, F(0), {(1,): F(1, 2), (-1,): F(1, 2)})


@pytest.mark.parametrize("builder", [srw_kernel, avg_difference_kernel, potlach_kernels])
@pytest.mark.parametrize("d", [0, -1])
def test_builders_reject_bad_dimension(builder, d):
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        builder(d)
