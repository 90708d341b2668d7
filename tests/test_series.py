from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from avgproc.kernels import srw_kernel
from avgproc.series import (
    DEFAULT_ORDERS,
    IdentityReport,
    RationalSeries,
    series_from_sequence,
    verify_closed_form_d1,
    verify_gf_relations,
    verify_potlach_relation,
)
from avgproc.walks import SequenceTable, return_sequence

F = Fraction

# mixed denominators, so products run the lcm path of RationalSeries.__mul__
frac_lists = st.lists(st.fractions(max_denominator=12), max_size=5)
orders = st.integers(0, 6)


def series(coeffs, order):
    return RationalSeries(tuple(F(c) for c in coeffs), order)


# ---------------------------------------------------------------------------
# Series arithmetic
# ---------------------------------------------------------------------------


@given(frac_lists, frac_lists, frac_lists, orders)
def test_ring_laws(a, b, c, n):
    A, B, C = series(a, n), series(b, n), series(c, n)
    assert (A + B) + C == A + (B + C)
    assert A + B == B + A
    assert A * B == B * A
    assert (A * B) * C == A * (B * C)
    assert A * (B + C) == A * B + A * C
    assert A - A == series([], n)


@given(frac_lists, frac_lists, orders)
def test_truncation_commutes_with_multiplication(a, b, n):
    # at order len(a) + len(b) the product of the two polynomials is exact;
    # the oracle convolves the Fractions directly
    top = len(a) + len(b)
    exact = series(a, top) * series(b, top)
    full = [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
            for k in range(top + 1)]
    assert exact == series(full, top)
    assert RationalSeries(exact.coeffs, n) == series(a, n) * series(b, n)


def test_normalization_and_constructors():
    # a series holds exactly order + 1 coefficients: padded or truncated
    assert RationalSeries((1,), 3).coeffs == (F(1), F(0), F(0), F(0))
    assert RationalSeries((1, 2, 3), 1).coeffs == (F(1), F(2))
    assert RationalSeries((), 0).coeffs == (F(0),)
    assert all(type(v) is F for v in RationalSeries((1, F(1, 2)), 2).coeffs)
    with pytest.raises(ValueError):
        RationalSeries((1,), -1)
    with pytest.raises(TypeError):
        RationalSeries((1,))  # the order is required


@pytest.mark.parametrize("make", [
    lambda a: RationalSeries((0.1, 1), 2),
    lambda a: RationalSeries((np.float64(1),), 2),
    lambda a: RationalSeries((np.int64(1),), 2),
    lambda a: RationalSeries((1, 2, 0.5), 1),  # even past the order
    lambda a: a * 0.5,
    lambda a: 0.5 * a,
    lambda a: a * np.float64(0.5),
    lambda a: a + 0.1,
    lambda a: 0.1 + a,
    lambda a: a - 0.1,
    lambda a: 0.1 - a,
])
def test_floats_never_enter_a_series(make):
    with pytest.raises(TypeError, match="int or Fraction"):
        make(RationalSeries((1, F(1, 2)), 3))


def test_order_propagation():
    t = RationalSeries((1, 1), 5)
    assert (t + t).order == (t * t).order == (2 * t).order == (1 - t).order == 5
    assert t.shift(3) == RationalSeries((0, 0, 0, 1, 1), 5)
    assert t.shift(5).coeffs[-1] == 1 and t.shift(6) == RationalSeries((), 5)
    with pytest.raises(ValueError):
        t.shift(-1)


@pytest.mark.parametrize("op", ["add", "radd", "sub", "rsub", "mul", "rmul"])
def test_mixing_orders_raises(op):
    a, b = RationalSeries((1, 1), 5), RationalSeries((1,), 2)
    ops = {"add": lambda: a + b, "radd": lambda: b + a, "sub": lambda: a - b,
           "rsub": lambda: b - a, "mul": lambda: a * b, "rmul": lambda: b * a}
    with pytest.raises(ValueError, match="orders"):
        ops[op]()


def test_coefficient_access_and_defects():
    t = RationalSeries((0, 0, 5, 7), 6)
    assert t.coeffs[2] == 5
    assert t.coeffs[6] == 0
    assert t.first_nonzero() == (2, F(5))
    assert RationalSeries((0, 0), 3).first_nonzero() is None


def test_scalar_and_reflected_ops():
    t = RationalSeries((1, 2), 3)
    assert (1 - t).coeffs == (F(0), F(-2), F(0), F(0))
    assert (F(1, 2) * t).coeffs[1] == 1
    assert (t * 3).coeffs[:2] == (F(3), F(6))
    assert (t - 1).coeffs[0] == 0
    assert (t + F(1, 2)).coeffs[:2] == (F(3, 2), F(2))


# ---------------------------------------------------------------------------
# Bridging tables to series
# ---------------------------------------------------------------------------


def test_series_from_sequence_layout(tables_d1):
    q = series_from_sequence(tables_d1["q_tilde"], 6)
    assert q.coeffs[0] == 0  # first_index = 1
    assert q.coeffs[1] == F(1, 2)
    assert q.order == 6 and len(q.coeffs) == 7
    assert series_from_sequence(tables_d1["q_tilde"]).order == 32


def test_series_from_sequence_errors():
    flo = return_sequence(srw_kernel(1), 8, mode="float")
    with pytest.raises(ValueError):
        series_from_sequence(flo)
    exact = return_sequence(srw_kernel(1), 8)
    with pytest.raises(ValueError):
        series_from_sequence(exact, 9)


# ---------------------------------------------------------------------------
# The identity suite
# ---------------------------------------------------------------------------

IDENTITY_NAMES = [
    "gtilde-from-g",
    "renewal-perturbed",
    "skeleton-perturbed",
    "sphere-renewal-perturbed",
    "gtilde-from-s",
    "stilde-from-s",
    "s-from-g",
    "renewal-srw",
    "skeleton-srw",
    "sphere-renewal-srw",
]


def test_identity_suite_d1(tables_d1):
    reports = verify_gf_relations(1, 32, tables_d1)
    assert [r.name for r in reports] == IDENTITY_NAMES
    for r in reports:
        assert r.ok, r.summary()
        assert "residual == 0" in r.summary()
        assert r.order == 32


def test_identity_suite_d2(tables_d2):
    reports = verify_gf_relations(2, 24, tables_d2)
    assert all(r.ok for r in reports)


def test_identity_suite_detects_corruption(tables_d1):
    bad = dict(tables_d1)
    src = bad["p_tilde"]
    entries = list(src.entries)
    entries[5] += F(1, 1000)
    bad["p_tilde"] = SequenceTable(src.name, src.dimension, src.first_index,
                                   entries, src.exact, src.kernel_name)
    reports = {r.name: r for r in verify_gf_relations(1, 32, bad)}
    involved = {"gtilde-from-g": (6, F(1, 500)),
                "renewal-perturbed": (5, F(1, 1000)),
                "gtilde-from-s": (5, F(1, 1000))}
    for name, rep in reports.items():
        if name in involved:
            assert not rep.ok, name
            assert rep.first_defect == involved[name], name
            assert "FAILS" in rep.summary()
        else:
            assert rep.ok, name


def test_default_orders():
    assert set(DEFAULT_ORDERS) == {1, 2, 3}
    assert all(v >= 32 for v in DEFAULT_ORDERS.values())


def test_closed_form_d1():
    reports = verify_closed_form_d1(40)
    assert [r.name for r in reports] == ["central-binomial-d1", "closed-form-square-d1"]
    assert all(r.ok for r in reports)


@pytest.mark.parametrize("d", [1, 2])
def test_potlach_relation(d):
    rep = verify_potlach_relation(d, n_max=24)
    assert rep.ok, rep.summary()
    assert rep.name == f"potlach-coupling-d{d}"


def test_report_failure_summary():
    bad = IdentityReport("demo", 1, 4, RationalSeries((0, 0, 0, F(1, 3)), 4))
    assert not bad.ok
    assert bad.first_defect == (3, F(1, 3))
    assert "FAILS" in bad.summary() and "z^3" in bad.summary()
