import math

import pytest

from avgproc.asymptotics import (
    AlphaEstimate,
    AsymptoticConstants,
    alpha_return_total,
    asymptotics_check,
    beta_constant,
    oscillation_amplitude,
)
from avgproc.kernels import avg_difference_kernel, srw_kernel
from avgproc.walks import return_sequence, srw_return_sequence_float

# total return mass of the three-dimensional SRW, G_3(1) = 1/(1 - u_3) with
# u_3 the Polya return probability; quoted to 10 digits from the standard
# Watson-integral evaluation
ALPHA_3 = 1.5163860591


def test_beta_low_dimensions():
    assert beta_constant(1) == pytest.approx(1 / math.sqrt(2), rel=1e-14)
    assert beta_constant(2) == pytest.approx(1 / math.pi, rel=1e-14)
    assert beta_constant(3) == pytest.approx(-1.169545, abs=2e-6)


def test_beta_matches_closed_forms():
    # recompute from scratch with math.gamma as a cross-check
    for d in (1, 3, 5):
        expect = d ** (d / 2) * math.gamma(-(d - 2) / 2) / (2 * math.pi) ** (d / 2)
        assert beta_constant(d) == pytest.approx(expect, rel=1e-13)
    for d in (2, 4, 6):
        expect = d ** (d / 2) * (-1) ** ((d - 2) // 2) / (
            math.gamma(d / 2) * (2 * math.pi) ** (d / 2))
        assert beta_constant(d) == pytest.approx(expect, rel=1e-13)
    with pytest.raises(ValueError):
        beta_constant(0)


@pytest.mark.parametrize("d", [1, 2])
def test_alpha_rejects_recurrent_dimensions(d):
    with pytest.raises(ValueError, match="recurrent"):
        alpha_return_total(d)


def test_alpha_enclosure_contains_reference():
    est = alpha_return_total(3, 4000)
    assert isinstance(est, AlphaEstimate)
    assert est.n_max == 4000
    assert est.partial_sum < est.value
    assert est.error < 0.02
    assert abs(est.value - ALPHA_3) <= est.error


def test_oscillation_amplitude():
    assert oscillation_amplitude(ALPHA_3) == pytest.approx(
        1.0 / (4 * ALPHA_3 - 1) ** 2, rel=1e-14)
    assert 0.037 < oscillation_amplitude(ALPHA_3) < 0.041


def test_constants_compute():
    c3 = AsymptoticConstants.compute(3, n_max=2000)
    assert c3.alpha is not None and c3.alpha_error > 0
    assert c3.oscillation == pytest.approx(oscillation_amplitude(c3.alpha), rel=1e-14)
    c1 = AsymptoticConstants.compute(1)
    assert c1.alpha is None and c1.oscillation == 0.0


def test_check_srw_d1_even_target():
    seq = srw_return_sequence_float(1, 2000)
    rows = asymptotics_check(seq, ns=[1000, 1999, 2000])
    # odd entries are skipped for a parity-respecting sequence
    assert [r.n for r in rows] == [1000, 2000]
    for r in rows:
        assert r.target == 2.0
        assert r.rescaled == pytest.approx(2.0, abs=0.01)
        assert r.deviation == r.rescaled - r.target


def test_check_perturbed_d1_flat_target():
    seq = return_sequence(avg_difference_kernel(1), 1500, mode="float")
    rows = asymptotics_check(seq, ns=[1499, 1500])
    assert len(rows) == 2
    for r in rows:
        assert r.target == 1.0  # no oscillation in the recurrent dimensions
        assert r.rescaled == pytest.approx(1.0, abs=0.01)


def test_check_srw_d3():
    seq = srw_return_sequence_float(3, 600)
    constants = AsymptoticConstants(3, beta_constant(3), ALPHA_3, 0.0,
                                    oscillation_amplitude(ALPHA_3))
    rows = asymptotics_check(seq, ns=[600], constants=constants)
    assert rows[0].rescaled == pytest.approx(2.0, abs=0.02)


def test_check_range_errors():
    seq = return_sequence(srw_kernel(1), 12)
    with pytest.raises(IndexError):
        asymptotics_check(seq, ns=[13])
    rows = asymptotics_check(seq)  # default grid stays in range
    assert all(2 <= r.n <= 12 for r in rows)
