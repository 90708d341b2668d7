from fractions import Fraction

import pytest

from avgproc.kernels import (
    KERNELS,
    WALK_RATE,
    TransitionKernel,
    avg_difference_kernel,
    difference_kernel_from_pair_rates,
    pair_transition_rates,
    potlach_kernels,
    srw_kernel,
)
from avgproc.lattice import ball, l1_norm, origin, sphere, unit_vectors
from avgproc.walks import return_sequence
from test_walks import LONG_JUMP, THREE_COEFF

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


def test_avg_difference_origin_row():
    k = avg_difference_kernel(1)
    assert k.row((0,)) == {(0,): F(1, 2), (1,): F(1, 4), (-1,): F(1, 4)}


def test_avg_difference_sphere_row():
    # from x = 1: to 0 w.p. 1/4, reflect to -1 w.p. 1/8, stay w.p. 1/8,
    # ordinary step to 2 w.p. 1/2
    k = avg_difference_kernel(1)
    assert k.row((1,)) == {(-1,): F(1, 4), (-2,): F(1, 8), (0,): F(1, 8), (1,): F(1, 2)}
    # bulk fills in away from the ball
    assert k.row((2,)) == {(1,): F(1, 2), (-1,): F(1, 2)}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_avg_difference_is_symmetric(d):
    kernel = avg_difference_kernel(d)
    for x in ball(d, 3):
        for off, p in kernel.row(x).items():
            y = tuple(a + b for a, b in zip(x, off))
            assert kernel.row(y).get(tuple(-c for c in off), 0) == p


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernel_scales(d):
    assert srw_kernel(d).scale == 2 * d
    assert avg_difference_kernel(d).scale == 8 * d
    ind, coup = potlach_kernels(d)
    assert ind.scale == 2 * d
    # the origin row's 1/(8d^2) is finer than the bulk's 1/(2d) and sets the scale
    assert coup.scale == 8 * d * d
    assert coup.int_bulk == {e: 4 * d for e in unit_vectors(d)}
    # the one conversion: each integer row is its Fraction row times the scale
    for kernel in [*(KERNELS[name](d) for name in KERNELS), LONG_JUMP, THREE_COEFF]:
        assert kernel.int_perturbation.keys() == kernel.perturbation.keys()
        rows = [(kernel.bulk, kernel.int_bulk),
                *((row, kernel.int_row(site)) for site, row in kernel.perturbation.items())]
        for row, ints in rows:
            assert ints == {o: p * kernel.scale for o, p in row.items() if p}
            assert all(type(c) is int for c in ints.values())


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


def hand_written_pair_rates(u, v):
    """The pair rates written out case by case: distinct tokens move to each
    neighbour at rate 1/(4d), except onto the partner; an adjacent pair adds
    merge and swap moves at 1/(8d) each; a coincident pair moves off the
    diagonal or along it at 1/(8d) per neighbour and case."""
    d = len(u)
    r = F(1, 2 * d)
    rates = {}

    def add(pair, rate):
        rates[pair] = rates.get(pair, 0) + rate

    if u == v:
        for e in unit_vectors(d):
            w = tuple(a + b for a, b in zip(u, e))
            add((u, w), r / 4)
            add((w, u), r / 4)
            add((w, w), r / 4)
        return rates
    for e in unit_vectors(d):
        w = tuple(a + b for a, b in zip(v, e))
        if w != u:
            add((u, w), r / 2)
        w = tuple(a + b for a, b in zip(u, e))
        if w != v:
            add((w, v), r / 2)
    if l1_norm(tuple(a - b for a, b in zip(u, v))) == 1:
        add((v, v), r / 4)
        add((u, u), r / 4)
        add((v, u), r / 4)
    return rates


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ring_rule_matches_hand_written_rates(d):
    pts = ball(d, 3)
    for u in pts:
        for v in pts:
            assert pair_transition_rates(u, v) == hand_written_pair_rates(u, v), (u, v)


def test_ring_rule_order_is_deterministic():
    # the Gillespie sampler draws from list(rates): the edges of u come first, in
    # unit_vectors order, then the edges of v not already seen
    assert list(pair_transition_rates((0,), (3,))) == [
        ((1,), (3,)), ((-1,), (3,)), ((0,), (4,)), ((0,), (2,))]
    assert list(pair_transition_rates((0,), (1,))) == [
        ((0,), (0,)), ((1,), (0,)), ((1,), (1,)), ((-1,), (1,)), ((0,), (2,))]


def stencil(d):
    return {e: F(1, 2 * d) for e in unit_vectors(d)}


def hand_written_avg_difference_rows(d):
    """The averaging difference rows inside the unit ball, written out: the
    origin is lazy (stay 1/2, each neighbour 1/(4d)); a unit vector x steps
    to 0 with 1/(4d), reflects to -x with 1/(8d), stays with 1/(8d), and
    steps 1/(2d) to each neighbour outside the ball."""
    zero = origin(d)
    rows = {zero: {zero: F(1, 2)} | {e: F(1, 4 * d) for e in unit_vectors(d)}}
    for x in sphere(d, 1):
        row = {tuple(-c for c in x): F(1, 4 * d), tuple(-2 * c for c in x): F(1, 8 * d),
               zero: F(1, 8 * d)}
        for e in unit_vectors(d):
            if l1_norm(tuple(a + b for a, b in zip(x, e))) > 1:
                row[e] = F(1, 2 * d)
        rows[x] = row
    return rows


def hand_written_potlach_origin_row(d):
    """(1/2) law(Y1 - Y2) + (1/2) delta_0, Y1 and Y2 independent uniform unit offsets."""
    row = {origin(d): F(1, 2)}
    for y1 in unit_vectors(d):
        for y2 in unit_vectors(d):
            off = tuple(a - b for a, b in zip(y1, y2))
            row[off] = row.get(off, 0) + F(1, 2 * (2 * d) ** 2)
    return row


@pytest.mark.parametrize("d", [1, 2, 3])
def test_avg_difference_rows_match_hand_written_oracle(d):
    kernel, rows = avg_difference_kernel(d), hand_written_avg_difference_rows(d)
    assert kernel.rate == 1 and kernel.bulk == stencil(d)
    assert kernel.perturbation == rows
    for x in ball(d, 3):
        assert kernel.row(x) == rows.get(x, stencil(d)), x


@pytest.mark.parametrize("d", [1, 2, 3])
def test_potlach_rows_match_hand_written_oracle(d):
    ind, coup = potlach_kernels(d)
    assert coup.rate == ind.rate == 2
    assert coup.bulk == ind.bulk == stencil(d)
    assert coup.perturbation == {origin(d): hand_written_potlach_origin_row(d)}
    assert ind.perturbation == {}


def test_vertex_rule_rates():
    # potlach rings each vertex at rate 1 and sends every token on it to a
    # uniform neighbour, independently
    assert pair_transition_rates((0,), (0,), "potlach") == {
        ((1,), (1,)): F(1, 4), ((1,), (-1,)): F(1, 4),
        ((-1,), (1,)): F(1, 4), ((-1,), (-1,)): F(1, 4)}
    # adjacent tokens share no clock; u may land on v
    assert list(pair_transition_rates((0,), (1,), "potlach").items()) == [
        (((1,), (1,)), F(1, 2)), (((-1,), (1,)), F(1, 2)),
        (((0,), (2,)), F(1, 2)), (((0,), (0,)), F(1, 2))]
    rates = pair_transition_rates((0, 0), (3, 0), "potlach")
    assert len(rates) == 8 and set(rates.values()) == {F(1, 4)}
    assert rates[((0, 1), (3, 0))] == rates[((0, 0), (2, 0))] == F(1, 4)


def test_unknown_dynamics_is_rejected():
    with pytest.raises(ValueError, match="unknown dynamics"):
        pair_transition_rates((0,), (1,), "voter")
    with pytest.raises(ValueError, match="unknown dynamics"):
        difference_kernel_from_pair_rates(1, "voter")


@pytest.mark.parametrize("dynamics", ["averaging", "potlach"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_rule_projects_to_the_bulk_outside_the_unit_ball(d, dynamics):
    # tokens at l1 distance 2 or 3 share no clock, so the projected rule is
    # the SRW stencil that the builder fills in there
    rate = 2 * F(WALK_RATE[dynamics])
    for x in sphere(d, 2) + sphere(d, 3):
        row = {}
        for (u, v), r in pair_transition_rates(x, origin(d), dynamics).items():
            off = tuple(a - b - c for a, b, c in zip(u, v, x))
            row[off] = row.get(off, 0) + r / rate
        assert row == stencil(d), x
    assert difference_kernel_from_pair_rates(d, dynamics).bulk == stencil(d)


def test_potlach_coupled_origin_row():
    _, coup = potlach_kernels(1)
    assert coup.row((0,)) == {(0,): F(3, 4), (2,): F(1, 8), (-2,): F(1, 8)}
    assert coup.rate == 2


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


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_names_match_their_builders(name, d):
    # the command line and the float series routes look kernels up by this name
    assert KERNELS[name](d).name == name


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("kernel", [srw_kernel(2), avg_difference_kernel(2), *potlach_kernels(2)],
                         ids=["srw", "avg-diff", "potlach-ind", "potlach-coup"])
def test_tables_carry_the_kernel_rate(kernel, mode):
    assert return_sequence(kernel, 4, mode=mode).rate == kernel.rate
