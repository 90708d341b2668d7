import hashlib
import math
import os
import subprocess
import sys
from dataclasses import replace
from decimal import ROUND_CEILING, ROUND_FLOOR, Context as DecimalContext, Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import gammaln, ive
from scipy.stats import poisson

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

from avgproc import walks
from avgproc.asymptotics import asymptotics_check
from avgproc.kernels import (
    KERNELS,
    TransitionKernel,
    avg_difference_kernel,
    difference_kernel_from_pair_rates,
    potlach_kernels,
    srw_kernel,
)
from avgproc.lattice import Box, origin, unit_vectors
from avgproc.series import RationalSeries
from avgproc.simulate import ExperimentConfig
from avgproc.walks import (
    ExactPassTooLargeError,
    NoSeriesRouteError,
    PoissonizedValue,
    SequenceTable,
    SequenceTooShortError,
    first_passage_sequences,
    first_return_sequence,
    heat_kernel,
    poissonized_return,
    potlach_contrast,
    required_poisson_order,
    return_sequence,
    sphere_first_return_sequence,
    sphere_taboo_sequence,
    srw_return_sequence_float,
)
from avgproc.walks import (_EXACT_TABLES, _SPLIT, _U, _Series, _cycle_weights, _exact_pass,
                           _fft_error, _gamma, _inverse,
                           _log_factorial, _lumped_formula, _lumped_steps, _majorant, _mul,
                           _outward, _percival,
                           _poisson_pmf, _poisson_tail, _poisson_window, _reach,
                           _residual_bound, _sorts_coordinates, _SRW_FORMS, _srw_closed_form)

F = Fraction


def values(table) -> list:
    """A table's entries as it reads them out: Fractions if exact, else doubles."""
    return [table[n] for n in range(table.first_index, table.last_index + 1)]


# ---------------------------------------------------------------------------
# Reference implementation: a plain dict-based DP over all of Z^d, driven
# only by kernel.row(). Slow but independent of the production engine (no
# sign-symmetry folding, no windows), used to cross-check small cases.
# ---------------------------------------------------------------------------


def dict_step(kernel, dist):
    out = {}
    for x, mass in dist.items():
        for off, pr in kernel.row(x).items():
            y = tuple(a + b for a, b in zip(x, off))
            out[y] = out.get(y, F(0)) + mass * pr
    return out


def reference_tables(kernel, n_max):
    d = kernel.dimension
    zero = origin(d)
    units = unit_vectors(d)

    p, q = [F(1)], []
    free = {zero: F(1)}
    taboo = {zero: F(1)}
    for _ in range(n_max):
        free = dict_step(kernel, free)
        p.append(free.get(zero, F(0)))
        taboo = dict_step(kernel, taboo)
        q.append(taboo.pop(zero, F(0)))

    start = {e: F(1, 2 * d) for e in units}
    r_dist, s_dist = dict(start), dict(start)
    r, s = [F(1)], []
    for _ in range(n_max):
        r_dist = dict_step(kernel, r_dist)
        r_dist.pop(zero, None)
        r.append(sum(r_dist.get(e, F(0)) for e in units))
        s_dist = dict_step(kernel, s_dist)
        s_dist.pop(zero, None)
        s.append(sum(s_dist.get(e, F(0)) for e in units))
        for e in units:
            s_dist.pop(e, None)
    return p, q, r, s


# SRW on Z except that +-2 jump straight to the origin: one step lowers the
# radius by 2, so a cone cut at radius n_max - k would lose mass
LONG_JUMP = TransitionKernel(1, F(1), {(1,): F(1, 2), (-1,): F(1, 2)},
                             {(2,): {(-2,): F(1)}, (-2,): {(2,): F(1)}}, name="long-jump")

# Sign-symmetric d=2 kernel whose bulk has three distinct coefficients at
# scale 32 (8 on (+-1, 0), 4 on (0, +-1) and (0, 0), 1 on the diagonals), so
# the exact DP sums and multiplies three offset groups, one of them with c == 1.
# Its rows are not invariant under swapping the axes, so the DP stores the
# sign-reduced cone |x|; the diagonals gather across both of its low faces.
# The origin row is perturbed.
THREE_COEFF = TransitionKernel(
    2, F(1),
    {(1, 0): F(1, 4), (-1, 0): F(1, 4), (0, 1): F(1, 8), (0, -1): F(1, 8), (0, 0): F(1, 8),
     (1, 1): F(1, 32), (1, -1): F(1, 32), (-1, 1): F(1, 32), (-1, -1): F(1, 32)},
    {(0, 0): {(0, 0): F(1, 2), (1, 0): F(1, 8), (-1, 0): F(1, 8),
              (0, 1): F(1, 8), (0, -1): F(1, 8)}},
    name="three-coeff")


@pytest.mark.parametrize(
    "kernel,n_max",
    [
        (srw_kernel(1), 8),
        (srw_kernel(2), 6),
        (avg_difference_kernel(1), 8),
        (avg_difference_kernel(2), 6),
        (potlach_kernels(1)[1], 8),
        # the light-cone trim cuts the stored cone after every step past about n_max / 2
        (srw_kernel(3), 10),
        (avg_difference_kernel(3), 10),
        (potlach_kernels(2)[1], 12),
        # permutation-symmetric, and its origin row jumps two cells, also diagonally
        pytest.param(potlach_kernels(3)[1], 8, id="potlach-coup-d3-8"),
        (LONG_JUMP, 12),
        (THREE_COEFF, 8),
    ],
    ids=lambda k: k.name if hasattr(k, "name") else str(k),
)
def test_sequences_match_reference_dp(kernel, n_max):
    p_ref, q_ref, r_ref, s_ref = reference_tables(kernel, n_max)
    assert values(return_sequence(kernel, n_max)) == p_ref
    assert values(first_return_sequence(kernel, n_max)) == q_ref
    assert values(sphere_taboo_sequence(kernel, n_max)) == r_ref
    assert values(sphere_first_return_sequence(kernel, n_max)) == s_ref


def test_reach_comes_from_the_rows():
    assert [_reach(k) for k in (srw_kernel(3), avg_difference_kernel(3), potlach_kernels(2)[1],
                                difference_kernel_from_pair_rates(2))] == [1, 1, 1, 1]
    assert _reach(LONG_JUMP) == 2


def test_orthant_dp_rejects_long_bulk_jump():
    kernel = TransitionKernel(1, F(1), {(2,): F(1, 2), (-2,): F(1, 2)})
    for fn in (return_sequence, first_return_sequence,
               sphere_taboo_sequence, sphere_first_return_sequence):
        with pytest.raises(ValueError, match=r"bulk offset \((2|-2),\)"):
            fn(kernel, 4)


def test_orthant_dp_rejects_kernel_without_sign_symmetry():
    # drifts right: p_2 = 2 * (3/4) * (1/4) = 3/8, which a DP that folds x onto
    # |x| would miss
    drift = TransitionKernel(1, F(1), {(1,): F(3, 4), (-1,): F(1, 4)}, name="drift")
    assert reference_tables(drift, 2)[0] == [F(1), F(0), F(3, 8)]
    for fn in (return_sequence, first_return_sequence,
               sphere_taboo_sequence, sphere_first_return_sequence):
        with pytest.raises(ValueError, match="'drift'.*sign flips"):
            fn(drift, 2)
    assert not _EXACT_TABLES  # a failed pass stores nothing


def test_symmetry_group_comes_from_the_rows():
    assert all(_sorts_coordinates(KERNELS[name](d)) for name in KERNELS for d in (1, 2, 3))
    assert not _sorts_coordinates(THREE_COEFF)


def test_exact_d3_tables_pinned():
    # Digest of the exact d=3 srw and avg-diff p, q, r, s tables through n=48,
    # recorded before the light-cone trim; any change to an entry moves it.
    tables = [fn(kernel(3), 48) for kernel in (srw_kernel, avg_difference_kernel)
              for fn in (return_sequence, first_return_sequence,
                         sphere_taboo_sequence, sphere_first_return_sequence)]
    text = repr([(t.name, t.first_index, [(v.numerator, v.denominator) for v in values(t)])
                 for t in tables])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "8ae1dc4d166299bf"


TABLE_FNS = {"p": return_sequence, "q": first_return_sequence,
             "r": sphere_taboo_sequence, "s": sphere_first_return_sequence}


@pytest.mark.parametrize("d,short,long", [(1, 9, 20), (2, 7, 14), (3, 5, 10)])
@pytest.mark.parametrize("make", [srw_kernel, avg_difference_kernel])
def test_stored_tables_equal_fresh_passes(make, d, short, long):
    kernel = make(d)
    for letter, fn in TABLE_FNS.items():
        fresh = {}
        for n in (0, short, long):
            _EXACT_TABLES.clear()
            fresh[n] = fn(kernel, n)
        _EXACT_TABLES.clear()
        assert fn(kernel, short) == fresh[short]  # stores the short table
        assert fn(kernel, long) == fresh[long]  # an extension: a fresh pass replaces it
        assert _EXACT_TABLES[kernel.row_key, letter] == _exact_pass(kernel, long, letter)
        for n in (short, 0):  # prefix hits, rescaled onto their own denominator
            served = fn(kernel, n)
            assert (served.num, served.den) == (fresh[n].num, fresh[n].den)
            assert served == fresh[n] and served.den < fresh[long].den
        assert len(fresh[0]) == int(letter in "pr")


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_exact_tables_hold_ints_over_one_denominator(name, d):
    kernel = KERNELS[name](d)
    for (letter, fn), n_max in product(TABLE_FNS.items(), (0, 1, 6)):
        t = fn(kernel, n_max)
        assert all(type(v) is int for v in t.num)
        assert t.den == (1 if letter in "pq" else 2 * d) * kernel.scale ** n_max
        for n in range(t.first_index, t.last_index + 1):
            assert t[n] == Fraction(t.num[n - t.first_index], t.den)


def test_exact_pass_size_limit_at_d3():
    # the largest feasible step count is the one at which all four tables' cones fit
    srw = srw_kernel(3)
    with pytest.raises(ExactPassTooLargeError,
                       match="1,003,003,001 cone points.*the largest feasible step count is 253$"):
        walks._check_cone_size(srw, 2000, "p")
    assert all(walks._cone_points(srw, 253, t) <= walks.MAX_CONE_POINTS for t in "pqrs")
    assert walks._cone_points(srw, 254, "r") > walks.MAX_CONE_POINTS


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_exact_pass_refused_before_its_cone(name, d, monkeypatch):
    kernel = KERNELS[name](d)
    monkeypatch.setattr(walks, "MAX_CONE_POINTS", 1000)
    with monkeypatch.context() as m:
        m.setattr(walks, "_Cone", None)  # a refused pass never builds its cone
        with pytest.raises(ExactPassTooLargeError) as info:
            return_sequence(kernel, 100)
    feasible = int(str(info.value).rsplit(" ", 1)[1])  # the message ends with it
    assert feasible > 0
    for fn in TABLE_FNS.values():
        assert fn(kernel, feasible).last_index == feasible
    with pytest.raises(ExactPassTooLargeError):
        sphere_taboo_sequence(kernel, feasible + 1)


# numerators and denominator both past 2^1024, where float(numerator) overflows
PAST_DOUBLES = [(avg_difference_kernel(1), 400, 100.0), (potlach_kernels(3)[1], 200, 40.0)]


@pytest.mark.parametrize("kernel,n_max,t", PAST_DOUBLES, ids=["avg-diff-d1-400", "potlach-coup-d3-200"])
def test_exact_reads_past_the_double_range_equal_the_fraction_route(kernel, n_max, t):
    seq = return_sequence(kernel, n_max)
    assert min(seq.den, max(seq.num)) > 2 ** 1024
    fractions = values(seq)
    ref = [float(v) for v in fractions]
    assert seq.floats().tobytes() == np.array(ref).tobytes()
    assert seq.floats(3, 9).tobytes() == np.array(ref[3:9]).tobytes()
    assert list(seq.csv_rows()) == [(seq.name, n, v.numerator, v.denominator, f)
                                    for n, (v, f) in enumerate(zip(fractions, ref))]
    as_floats = SequenceTable(seq.name, seq.dimension, seq.first_index, ref, 1, False, seq.rate)
    assert asymptotics_check(seq) == asymptotics_check(as_floats)
    assert poissonized_return(seq, t) == poissonized_return(as_floats, t)


def test_stored_table_is_not_the_returned_list():
    kernel = avg_difference_kernel(2)
    first = first_passage_sequences(kernel, 8).r
    first.num[3] = 7
    first.num.append(0)
    assert first_passage_sequences(kernel, 8).r == sphere_taboo_sequence(kernel, 8)
    assert _EXACT_TABLES[kernel.row_key, "r"] == _exact_pass(kernel, 8, "r")


def test_equal_rows_share_a_table_but_keep_their_rate():
    # potlach's independent kernel is the SRW step at rate 2, the SRW's rate is 1
    srw, ind = srw_kernel(2), potlach_kernels(2)[0]
    assert srw.row_key == ind.row_key and srw.rate != ind.rate
    a, b = return_sequence(srw, 10), return_sequence(ind, 6)
    assert len(_EXACT_TABLES) == 1 and values(b) == values(a)[:7]
    assert (a.rate, b.rate) == (srw.rate, ind.rate) == (F(1), F(2))
    assert return_sequence(srw, 6).rate == F(1)


# ---------------------------------------------------------------------------
# Frozen values
# ---------------------------------------------------------------------------


def test_srw_d1_is_central_binomial():
    seq = return_sequence(srw_kernel(1), 20)
    for m in range(11):
        assert seq[2 * m] == F(math.comb(2 * m, m), 4**m)
    assert all(seq[n] == 0 for n in range(1, 21, 2))


def test_perturbed_return_d1_frozen():
    seq = return_sequence(avg_difference_kernel(1), 4)
    assert values(seq) == [F(1), F(1, 2), F(3, 8), F(9, 32), F(31, 128)]
    assert seq.name == "p_tilde"
    assert seq.exact


@pytest.mark.parametrize("d,p2", [(1, F(3, 8)), (2, F(5, 16)), (3, F(7, 24))])
def test_perturbed_return_small_n(d, p2):
    seq = return_sequence(avg_difference_kernel(d), 2)
    assert seq[1] == F(1, 2)  # lazy origin row, dimension independent
    assert seq[2] == p2  # 1/4 + 1/(8d)


def test_perturbed_first_return_d1_frozen():
    q = first_return_sequence(avg_difference_kernel(1), 3)
    assert q.first_index == 1
    assert values(q) == [F(1, 2), F(1, 8), F(1, 32)]


def test_sphere_sequences_d1_frozen():
    kernel = avg_difference_kernel(1)
    r = sphere_taboo_sequence(kernel, 2)
    s = sphere_first_return_sequence(kernel, 2)
    assert values(r)[:2] == [F(1), F(1, 4)]
    assert values(s) == [F(1, 4), F(1, 4)]


def test_potlach_coupled_return_frozen():
    _, coup = potlach_kernels(1)
    seq = return_sequence(coup, 4)
    assert values(seq) == [F(1), F(3, 4), F(9, 16), F(31, 64), F(105, 256)]


# ---------------------------------------------------------------------------
# Structural relations between independently computed tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3])
def test_first_passage_structure(d):
    n_max = 10 if d < 3 else 8
    fp = first_passage_sequences(avg_difference_kernel(d), n_max)
    fp_srw = first_passage_sequences(srw_kernel(d), n_max)

    # one-step skeleton: leaving the origin lands on the sphere, so the
    # first-return law factors through the taboo sequence
    assert fp.q[1] == F(1, 2)
    for n in range(2, n_max + 1):
        assert fp.q[n] == F(1, 8 * d) * fp.r[n - 2]
    assert fp_srw.q[1] == 0
    for n in range(2, n_max + 1):
        assert fp_srw.q[n] == F(1, 2 * d) * fp_srw.r[n - 2]

    # away from the origin both walks agree, so the sphere return laws
    # differ only through the extra lazy step at n = 1
    assert fp.s[1] == fp_srw.s[1] + F(1, 4 * d)
    for n in range(2, n_max + 1):
        assert fp.s[n] == fp_srw.s[n]


def test_renewal_identity_on_tables():
    p = return_sequence(avg_difference_kernel(2), 12)
    q = first_return_sequence(avg_difference_kernel(2), 12)
    for n in range(1, 13):
        assert p[n] == sum(q[k] * p[n - k] for k in range(1, n + 1))


def test_even_subsequence_decreasing():
    srw = return_sequence(srw_kernel(2), 30)
    assert all(srw[2 * m] > srw[2 * m + 2] for m in range(15))
    pert = return_sequence(avg_difference_kernel(1), 30)
    assert all(pert[n] > pert[n + 1] for n in range(30))


# ---------------------------------------------------------------------------
# Float mode
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,n_max", [(1, 40), (2, 40), (3, 30)])
def test_srw_float_closed_form_matches_dp(d, n_max):
    closed = srw_return_sequence_float(d, n_max)
    exact = return_sequence(srw_kernel(d), n_max)
    np.testing.assert_allclose(closed.floats(), exact.floats(), rtol=1e-12, atol=0)
    assert not closed.exact


def test_float_mode_matches_exact():
    kernel = avg_difference_kernel(1)
    ex = return_sequence(kernel, 60)
    fl = return_sequence(kernel, 60, mode="float")
    np.testing.assert_allclose(fl.floats(), ex.floats(), rtol=0, atol=1e-13)
    assert fl.error_bound < 1e-12


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        return_sequence(srw_kernel(1), 4, mode="rational")


KERNEL_BUILDERS = {
    "srw": srw_kernel,
    "avg-diff": avg_difference_kernel,
    "potlach-ind": lambda d: potlach_kernels(d)[0],
    "potlach-coup": lambda d: potlach_kernels(d)[1],
    "pair-rates": difference_kernel_from_pair_rates,
}
TABLE_FNS = {"p": return_sequence, "q": first_return_sequence,
             "r": sphere_taboo_sequence, "s": sphere_first_return_sequence}
PROPERTY_N = 40


@lru_cache(maxsize=None)
def exact_table(kernel: str, d: int, table: str):
    return TABLE_FNS[table](KERNEL_BUILDERS[kernel](d), PROPERTY_N)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), kernel=st.sampled_from(sorted(KERNEL_BUILDERS)),
       table=st.sampled_from("pqrs"), n=st.integers(0, PROPERTY_N))
def test_float_route_within_error_bound(d, kernel, table, n):
    fl = TABLE_FNS[table](KERNEL_BUILDERS[kernel](d), n, mode="float")
    ex = exact_table(kernel, d, table)
    assert (fl.name, fl.first_index, fl.last_index) == (ex.name, ex.first_index, n)
    worst = max((abs(F(v) - ex[i]) for i, v in enumerate(fl.num, fl.first_index)),
                default=0)
    assert worst <= fl.error_bound <= 1e-12


@lru_cache(maxsize=None)
def _int_product(n: int):
    """Two signed int64 vectors of length n and the first n coefficients of their
    product, exact: |coefficient| < n 2^38 < 2^53, so exact in doubles too."""
    rng = np.random.default_rng(n)
    a, b = rng.integers(-2**19, 2**19, n), rng.integers(-2**19, 2**19, n)
    return a, b, np.convolve(a, b)[:n]


@pytest.mark.parametrize("n", [513, 4096, 10001, 1025, 4097])
@pytest.mark.parametrize("k", [0, 45, 500])
def test_fft_product_within_normwise_term(n, k):
    # at n = 2^k + 1 the FFT length is 2n - 2 and one wrapped term is taken off
    a, b, exact = _int_product(n)
    scale = 2.0 ** -k  # exact: every scaled value stays a normal double
    got = _mul(a * scale, b * scale)
    assert np.max(np.abs(got - exact * scale**2)) <= _fft_error(a * scale, b * scale)


@pytest.mark.parametrize("n", [513, 4096, 10001])
@pytest.mark.parametrize("tiny", [False, True])
def test_fft_error_is_percivals_bound(n, tiny):
    # phi ||a||_2 ||b||_2 at 40 digits, L = log2 of _mul's FFT length and beta = u, the
    # assumed twiddle accuracy; the float evaluation may exceed it by its own slack only.
    # At n = 513 that length is 2n - 2, and taking the wrapped top coefficient off adds
    # u E + 2u (|a[n-1] b[n-1]| + |a[0] b[0]|) to E = phi ||a||_2 ||b||_2.
    # A tiny a has squares that underflow to 0, and the bound must still cover its norm
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(n)
    a, b = rng.standard_normal(n) * 2.0 ** (-600 * tiny), rng.random(n) * 2.0 ** -30
    lg = (2 * n - 3).bit_length()
    assert 2 ** (lg - 1) < 2 * n - 2 <= 2 ** lg
    with mpmath.workdps(40):
        u = mpmath.mpf(2) ** -53
        phi = ((1 + u) ** (3 * lg) * (1 + u * mpmath.sqrt(5)) ** (3 * lg + 1)
               * (1 + u) ** (3 * lg) - 1)
        norms = [mpmath.sqrt(mpmath.fsum(mpmath.mpf(v) ** 2 for v in x)) for x in (a, b)]
        want = phi * norms[0] * norms[1]
        if 2 ** lg < 2 * n - 1:
            ends = abs(mpmath.mpf(a[-1]) * b[-1]) + abs(mpmath.mpf(a[0]) * b[0])
            want = (1 + u) * want + 2 * u * ends
        assert want <= _fft_error(a, b)
        if not tiny:
            assert _fft_error(a, b) <= want * (1 + mpmath.mpf(10) ** -10)


@pytest.mark.parametrize("n", [513, 1024, 1025, 4096, 4097, 10001])
def test_majorant_bounds_the_truncated_product(n):
    # nonnegative integers below 2^19: every cyclic and linear coefficient is exact in
    # int64 and in doubles. The majorant lies above the truncated product, and within
    # Percival's term of the cyclic convolution at its length, wrapped terms included;
    # terms wrap where that length is below 2n - 1 (all n here but 1024 and 4096)
    rng = np.random.default_rng(n)
    a, b = rng.integers(0, 2**19, n), rng.integers(0, 2**19, n)
    linear = np.convolve(a, b)
    size = 1 << (n + n // 4 - 1).bit_length()
    cyclic = np.bincount(np.arange(2 * n - 1) % size, linear, minlength=size)[:n]
    got, term = _majorant(a * 1.0, b * 1.0), _percival(a * 1.0, b * 1.0, size)
    assert np.any(cyclic > linear[:n]) == (size < 2 * n - 1)
    assert np.all(got >= linear[:n]) and np.all(np.abs(got - cyclic) <= 2 * term)


@pytest.mark.parametrize("n", [513, 1023, 1024, 1025, 2047, 2048, 2049, 4097])
def test_inverse_by_middle_products(n):
    # 1/den by Newton past the split: every round's middle product must land clear of
    # its wrap, so the residual 1 - den y by direct sums stays at rounding level
    rng = np.random.default_rng(n)
    den = np.r_[1.0, rng.uniform(-1, 1, n - 1) * 0.5 ** np.arange(1, n)]
    y = _inverse(den)
    residual = np.convolve(den, y)[:n]
    residual[0] -= 1.0
    assert len(y) == n and np.max(np.abs(residual)) < 1e-14


def test_residual_bound_covers_the_residuals_own_rounding():
    # D = 1 and N the FFT product D x itself, so r^ = 0 and no input error: only
    # the normwise term E(D, x) covers x - N/D = x - N, the round trip's rounding
    n = 2000
    x = np.random.default_rng(1).standard_normal(n)
    one = _Series(np.eye(1, n)[0], np.zeros(n))
    num = _Series(_mul(one.c, x), np.zeros(n))
    bound = _residual_bound(num, one, x, one.c)
    assert np.any(num.c != x)
    assert np.all(np.abs(x - num.c) <= bound)


def _direct_residual_bound(num: _Series, den: _Series, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``_residual_bound`` by direct sums at every length, with Higham's
    coefficientwise gamma_{n+1} (the rule up to ``_SPLIT``): the reference."""
    n = len(x)
    if not (np.isfinite(num.err).all() and np.isfinite(den.err).all()):
        return np.full(n, np.inf)
    g, ax = _gamma(n + 1), np.abs(x)
    local = (np.abs(num.c - np.convolve(den.c, x)[:n])
             + np.convolve(g * np.abs(den.c) + den.err, ax)[:n] + g * np.abs(num.c) + num.err)
    return 2.0 * np.convolve(np.abs(y), local)[:n]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kernel", ["srw", "avg-diff", "potlach-ind", "potlach-coup"])
def test_fft_bound_never_above_direct_sums(kernel, d, monkeypatch):
    # a table of n steps has n + 1 coefficients: up to 511 steps the bound is the
    # direct one bit for bit, past it the normwise FFT terms replace gamma_{n+1} |D||x|
    for table, n in product("pqrs", (24, 300, 511, 512, 513, 600, 1024, 2047, 4096)):
        fl = TABLE_FNS[table](KERNEL_BUILDERS[kernel](d), n, mode="float")
        with monkeypatch.context() as m:
            m.setattr("avgproc.walks._residual_bound", _direct_residual_bound)
            ref = TABLE_FNS[table](KERNEL_BUILDERS[kernel](d), n, mode="float")
        assert fl.num == ref.num
        if n + 1 <= _SPLIT:
            assert fl.error_bound == ref.error_bound
        else:
            assert fl.error_bound <= ref.error_bound


def test_float_table_of_1e5_steps_is_bounded():
    fl = return_sequence(avg_difference_kernel(1), 100_000, mode="float")
    assert math.isfinite(fl.error_bound) and fl.error_bound <= 1e-10


@lru_cache(maxsize=None)
def _mpmath_avg_diff(d: int, n: int):
    """(A, B, A/B) through z^n at 30 digits, A/B by long division: the avg-diff
    return GF G~ = A/B with A = (1-(1-2z)G)/z and B = (1-(1-z)^2 G)/z, from the
    SRW recurrences of ``_srw_closed_form`` run in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        big = [mpmath.mpf(1), mpmath.mpf(1) / (2 * d)]  # P_m = p_2m
        for m in range(2, (n + 1) // 2 + 1):
            if d <= 2:
                big.append(big[-1] * ((2 * m - 1) / mpmath.mpf(2 * m)) ** d)
            else:
                big.append((2 * (2 * m - 1) * (10 * m * m - 10 * m + 3) * big[-1]
                            - (m - 1) * (2 * m - 1) * (2 * m - 3) * big[-2]) / (36 * m ** 3))
        p = [big[k // 2] if k % 2 == 0 else mpmath.mpf(0) for k in range(n + 2)]
        num = [2 * p[k] - p[k + 1] for k in range(n + 1)]
        den = [num[k] - (p[k - 1] if k else 0) for k in range(n + 1)]
        x = []
        for k in range(n + 1):
            x.append((num[k] - mpmath.fdot(den[1:k + 1], x[::-1])) / den[0])
    return tuple([(-1) ** (v < 0) * F(v.man_exp[0]) * F(2) ** v.man_exp[1] for v in vals]
                 for vals in (num, den, x))  # man_exp drops the sign


def _worst_error(entries, reference) -> Fraction:
    return max(abs(F(v) - r) for v, r in zip(entries, reference))


def test_float_route_matches_mpmath_long_division():
    n = 2000
    fl = return_sequence(avg_difference_kernel(1), n, mode="float")
    worst = _worst_error(fl.num, _mpmath_avg_diff(1, n)[2])
    assert 0 < fl.error_bound < 1e-10
    assert worst <= fl.error_bound


@pytest.mark.parametrize("d", [2, 3])
def test_float_route_matches_mpmath_long_division_past_the_split(d):
    # n = 600 > 512: the inverse and the quotient are FFT products
    fl = return_sequence(avg_difference_kernel(d), 600, mode="float")
    worst = _worst_error(fl.num, _mpmath_avg_diff(d, 600)[2])
    assert 0 < fl.error_bound < 1e-12
    assert worst <= fl.error_bound


@pytest.mark.parametrize("n", [511, 512, 513, 1024, 1025, 1023, 1535, 2000])
def test_division_bound_holds_at_the_split(n):
    fl = return_sequence(avg_difference_kernel(1), n, mode="float")
    assert _worst_error(fl.num, _mpmath_avg_diff(1, 2000)[2]) <= fl.error_bound < 1e-10


@pytest.mark.parametrize("k", [0, 1, 300, 600])
def test_residual_bound_covers_a_perturbed_quotient(k):
    # the bound reads the quotient it is given: a wrong coefficient raises it
    a, b, x = (vals[:601] for vals in _mpmath_avg_diff(1, 2000))
    num, den = (_Series(c, _U * np.abs(c))  # each coefficient rounded once
                for c in (np.array(a, dtype=float), np.array(b, dtype=float)))
    y = _inverse(den.c)
    quotient = _mul(num.c, y)
    assert np.all(_residual_bound(num, den, quotient, y) < 1e-10)
    quotient[k] += 1e-9
    bound = _residual_bound(num, den, quotient, y)
    assert bound[k] >= 1e-9
    assert all(abs(F(v) - r) <= b for v, r, b in zip(quotient, x, bound))


def _srw_exact_even(d: int, m: int) -> Fraction:
    if d == 1:
        return F(math.comb(2 * m, m), 4**m)
    if d == 2:
        return F(math.comb(2 * m, m), 4**m) ** 2
    # sum over j+k+l=m of the squared trinomials, by Vandermonde over (k, l): the terms
    # C(m, j)^2 C(2(m - j), m - j), each binomial updated from the last by exact division
    a, b = 1, math.comb(2 * m, m)
    inner = b
    for j in range(1, m + 1):
        n = m - j + 1  # C(2n - 2, n - 1) = C(2n, n) n / (2(2n - 1))
        a = a * n // j
        b = b * n // (2 * (2 * n - 1))
        inner += a * a * b
    return F(math.comb(2 * m, m) * inner, 36**m)


@pytest.mark.parametrize("d,n_max", [(1, 4000), (2, 4000), (3, 600)])
def test_srw_closed_form_within_error_bound(d, n_max):
    seq = srw_return_sequence_float(d, n_max)
    assert 0 < seq.error_bound < 1e-12
    for m in [*range(40), *range(40, n_max // 2 + 1, 37), n_max // 2]:
        assert abs(F(seq[2 * m]) - _srw_exact_even(d, m)) <= seq.error_bound
    assert all(seq[n] == 0.0 for n in range(1, n_max + 1, 2))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_srw_closed_form_entries_within_their_rounded_up_bounds(d):
    # each entry's own bound against the exact rational at m = 10 ... 10^4; err is
    # rel x P^_m rounded up, so it is at least the exact product of the two doubles
    s = _fresh_srw_closed_form(d, 20000)
    for m in (10, 100, 1000, 3000, 10_000):
        c, err = F(s.c[2 * m]), F(s.err[2 * m])
        assert abs(c - _srw_exact_even(d, m)) <= err
    if d <= 2:  # rel = gamma_2k, k = 2m roundings of P_m at d=1, 4m + 1 at d=2
        k = 2.0 * np.arange(10_001)
        rel = _gamma(2 * (2 * k + 1 if d == 2 else k))
        assert all(F(e) >= F(r) * F(b) for e, r, b in zip(s.err[::2], rel, s.c[::2]))
    else:
        assert s.err[0] == 0.0  # P_0 = 1 is exact, and an exact zero bound stays zero
    assert np.all(s.err[1::2] == 0.0)


def _srw_d3_sequential(n_max: int, raise_by: float = 1 + 8 * _U) -> tuple[_Series, list]:
    """The d=3 closed form as one sequential loop over m, the reference for
    ``_srw_closed_form``'s vectorised form, and the loop's bounds eta_1, eta_2, ...
    ``raise_by`` multiplies the loop's coefficients first and b / c."""
    m_max = n_max // 2
    g6 = _gamma(6)
    big, rel, etas = np.ones(m_max + 1), np.zeros(m_max + 1), []
    t, eta, rho, prod = 1.0, 0.0, 0.0, 1.0
    for m in range(1, m_max + 1):
        a = float(2 * (2 * m - 1) * (10 * m * m - 10 * m + 3))
        b = float((m - 1) * (2 * m - 1) * (2 * m - 3))
        c = float(36 * m ** 3)
        w = b / t
        t, eta = ((a - w) / c,
                  raise_by * g6 * (a + w) / c + (raise_by * (b / c)) * eta / (t * (t - eta)))
        etas.append(eta)
        prod *= t
        big[m] = prod
        rho = (1.0 + rho) * (1.0 + eta / (t - eta)) * (1.0 + 8 * _U) - 1.0
        # rho / (1 - rho) rounded up, its divisor rounded down
        rel[m] = math.nextafter(rho / math.nextafter(1.0 - rho, 0.0), math.inf)
    p, err = np.zeros(n_max + 1), np.zeros(n_max + 1)
    p[::2] = big
    err[::2] = [math.nextafter(r * b, math.inf) if r * b > 0 else 0.0 for r, b in zip(rel, big)]
    return _Series(p, err), etas


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 50, 401, 20002])
def test_srw_closed_form_d3_equals_the_sequential_loop(n_max):
    got, (want, _) = _srw_closed_form(3, n_max), _srw_d3_sequential(n_max)
    assert got.c.tobytes() == want.c.tobytes() and got.err.tobytes() == want.err.tobytes()


def _eta_bounds_from_above(m_max: int) -> list[Decimal]:
    """Upper bounds, at 60 digits, on eta_m = gamma_6 (a + b/t') / c + (b/c) eta_(m-1) /
    (t' (t' - eta_(m-1))), t' = t_(m-1), in exact arithmetic on the loop's doubles
    a, b, c and t: numerators rounded up, divisors down."""
    up, down = (DecimalContext(prec=60, rounding=r) for r in (ROUND_CEILING, ROUND_FLOOR))
    six_u = up.multiply(6, Decimal(_U))  # exact at 60 digits
    g6 = up.divide(six_u, down.subtract(1, six_u))
    t, eta, out = 1.0, Decimal(0), []
    for m in range(1, m_max + 1):
        a, b, c = (float(v) for v in (2 * (2 * m - 1) * (10 * m * m - 10 * m + 3),
                                      (m - 1) * (2 * m - 1) * (2 * m - 3), 36 * m ** 3))
        first = up.divide(up.multiply(g6, up.add(Decimal(a), up.divide(Decimal(b), Decimal(t)))),
                          Decimal(c))
        step = up.divide(up.multiply(up.divide(Decimal(b), Decimal(c)), eta),
                         down.multiply(Decimal(t), down.subtract(Decimal(t), eta)))
        t, eta = (a - b / t) / c, up.add(first, step)
        out.append(eta)
    return out


def test_srw_d3_eta_loop_bounds_its_recurrence_from_above():
    # rounded to nearest, the loop's eta fell below the recurrence it stands for at
    # 2302 of these 10^4 steps; its coefficients raised by 1 + 8u, it stays above at all
    exact = _eta_bounds_from_above(10_000)
    raised, unraised = (_srw_d3_sequential(20_000, k)[1] for k in (1 + 8 * _U, 1.0))
    assert all(Decimal(e) >= x for e, x in zip(raised, exact))
    assert sum(Decimal(e) < x for e, x in zip(unraised, exact)) > 1000


def test_srw_closed_form_d3_pinned():
    # the d=3 recurrence's values and bounds at the length alpha_return_total uses;
    # raising the eta loop's coefficients by 1 + 8u moved neither (eta is within an
    # ulp of 1e-15, so 1 + eta / (t - eta) rounds the same);
    # the bounds moved (the values did not) when rho's rounding factor 1 + u, which is
    # 1.0 in doubles, became 1 + 8u, and again, by an ulp or two, when the last two
    # bound steps came to round up (937afae39243dc0f before). The values' own digest
    # pins that they did not move
    s = _srw_closed_form(3, 20000)
    assert hashlib.sha256(s.c.tobytes()).hexdigest()[:16] == "78e204051b03058a"
    digest = hashlib.sha256(s.c.tobytes() + s.err.tobytes()).hexdigest()[:16]
    assert digest == "e9fab3535255e566"


def _fresh_srw_closed_form(d, n_max):
    _SRW_FORMS.clear()
    return _srw_closed_form(d, n_max)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_srw_closed_form_serves_prefixes_of_the_longest(d):
    # one closed form per d is kept, read-only; a shorter request is its prefix and
    # equals a fresh result byte for byte, and a longer one replaces it
    longest = _fresh_srw_closed_form(d, 2002)
    assert not longest.c.flags.writeable and not longest.err.flags.writeable
    for n in (0, 1, 7, 9, 50, 551, 2001, 2002):
        _SRW_FORMS[d] = longest
        served, fresh = _srw_closed_form(d, n), _fresh_srw_closed_form(d, n)
        assert served.c.tobytes() == fresh.c.tobytes()
        assert served.err.tobytes() == fresh.err.tobytes()
        assert np.shares_memory(served.c, longest.c)
    _SRW_FORMS[d] = longest
    longer = _srw_closed_form(d, 2010)
    assert _SRW_FORMS[d] is longer and len(longer.c) == 2011
    assert longer.c.tobytes() == _fresh_srw_closed_form(d, 2010).c.tobytes()


def test_float_tables_of_one_kernel_compute_the_closed_form_once():
    kernel = avg_difference_kernel(3)
    first_return_sequence(kernel, 2000, mode="float")
    stored = _SRW_FORMS[3]
    assert len(stored.c) == 2003
    for fn in TABLE_FNS.values():
        fn(kernel, 2000, mode="float")
    return_sequence(kernel, 500, mode="float")
    srw_return_sequence_float(3, 100)
    assert list(_SRW_FORMS) == [3] and _SRW_FORMS[3] is stored


def test_srw_closed_form_d4_bound_is_infinite():
    seq = srw_return_sequence_float(4, 20)
    assert seq.error_bound == math.inf
    assert return_sequence(avg_difference_kernel(4), 20, mode="float").error_bound == math.inf
    exact = return_sequence(srw_kernel(4), 20)
    np.testing.assert_allclose(seq.floats(), exact.floats(), rtol=1e-12, atol=0)


def test_float_mode_without_route_raises():
    lazy = TransitionKernel(1, F(1), {(1,): F(1, 4), (-1,): F(1, 4), (0,): F(1, 2)},
                            name="lazy")
    for fn in (*TABLE_FNS.values(), first_passage_sequences):
        with pytest.raises(ValueError, match="mode='exact'"):
            fn(lazy, 4, mode="float")
    assert values(return_sequence(lazy, 2)) == [F(1), F(1, 2), F(3, 8)]


# ---------------------------------------------------------------------------
# The lumped chain: the float route read off the kernel's rows
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lumped_steps_of_the_kernels(d):
    # (a, b, c, beta, g, delta): from the origin stay, enter the sphere, leave B_1;
    # from a unit vector enter the origin, stay on the sphere, leave B_1
    k = 2 * d
    srw = (0, 1, 0, F(1, k), 0, F(k - 1, k))
    assert {name: _lumped_steps(KERNELS[name](d)) for name in KERNELS} == {
        "srw": srw,
        "potlach-ind": srw,
        "avg-diff": (F(1, 2), F(1, 2), 0, F(1, 2 * k), F(1, 2 * k), F(k - 1, k)),
        "potlach-coup": (F(1, 2) + F(1, 2 * k), 0, F(1, 2) - F(1, 2 * k), F(1, k), 0,
                         F(k - 1, k)),
    }


def _avg_diff_d2_with(move, name):
    """avg-diff at d=2 with move(e, row) applied to each unit vector's row."""
    kernel = avg_difference_kernel(2)
    rows = {x: dict(row) for x, row in kernel.perturbation.items()}
    for e in unit_vectors(2):
        move(e, rows[e])
    return TransitionKernel(2, kernel.rate, kernel.bulk, rows, name=name)


def _move(row, src, dst):
    row[dst] = row.get(dst, F(0)) + row.pop(src)


# lumps with avg-diff's six numbers: the reflect move -2e stays on the sphere
REFLECT_TO_STAY = _avg_diff_d2_with(
    lambda e, row: _move(row, tuple(-2 * c for c in e), (0, 0)), "reflect-to-stay")
# lumps with its own numbers: the reflect mass enters the origin
REFLECT_TO_ORIGIN = _avg_diff_d2_with(
    lambda e, row: _move(row, tuple(-2 * c for c in e), tuple(-c for c in e)),
    "reflect-to-origin")
# symmetric, but the mass past B_1 all goes straight on, off the SRW's law
PERPENDICULAR_TO_2E = _avg_diff_d2_with(
    lambda e, row: [_move(row, o, e) for o in unit_vectors(2) if np.dot(o, e) == 0],
    "perpendicular-to-2e")
# sign-symmetric, but only the first axis's unit vectors merge their reflect mass
AXIS_ONE_REFLECT_TO_ORIGIN = _avg_diff_d2_with(
    lambda e, row: _move(row, tuple(-2 * c for c in e), tuple(-c for c in e)) if e[0] else None,
    "axis-one-reflect-to-origin")

LUMPED_ORDERS = {1: 30, 2: 20, 3: 12}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lumped_formula_is_exact(d):
    # the integer weights N, D on G, zM, zG, M and 1 in exact arithmetic on the exact
    # SRW G: factor N - D (table - lead z) vanishes through z^n against the exact DP.
    # q and s have no z^0 entry; it is taken from factor N/D there
    n = LUMPED_ORDERS[d]
    zg = (0, *values(return_sequence(srw_kernel(d), n + 2)))
    basis = [RationalSeries(zg[j:], n) for j in (1, 2, 0, 3)] + [RationalSeries((1,), n)]
    zero = RationalSeries((0,), n)
    kernels = [KERNELS[name](d) for name in sorted(KERNELS)]
    for kernel in kernels + [REFLECT_TO_ORIGIN] * (d == 2):
        for table, fn in TABLE_FNS.items():
            num, den, lead, factor = _lumped_formula(_lumped_steps(kernel), d, table)
            N, D = (sum((w * x for w, x in zip(weights, basis)), zero) for weights in (num, den))
            exact = fn(kernel, n)
            coeffs = [exact[i] if i >= exact.first_index else 0 for i in range(n + 1)]
            coeffs[1] -= lead
            start = factor * N.coeffs[0] / D.coeffs[0]
            assert exact.first_index == 1 or coeffs[0] == start
            coeffs[0] = start
            residual = factor * N - D * RationalSeries(tuple(coeffs), n)
            assert residual.first_nonzero() is None, (kernel.name, table)


def test_srw_return_table_takes_no_division():
    # the SRW's denominator folds to exactly 1, so its p is the closed form itself
    for d in (1, 2, 3):
        num, den, _, _ = _lumped_formula(_lumped_steps(srw_kernel(d)), d, "p")
        assert (num, den) == ((1, 0, 0, 0, 0), (0, 0, 0, 0, 1))
        fl, closed = return_sequence(srw_kernel(d), 300, mode="float"), _srw_closed_form(d, 300)
        assert (fl.num, fl.den, fl.error_bound) == (closed.c.tolist(), 1, np.max(closed.err))


@pytest.mark.parametrize("kernel", [REFLECT_TO_STAY, REFLECT_TO_ORIGIN], ids=lambda k: k.name)
def test_float_route_reads_a_lumped_kernel_off_its_rows(kernel):
    steps = _lumped_steps(kernel)
    assert (steps == _lumped_steps(avg_difference_kernel(2))) == (kernel is REFLECT_TO_STAY)
    for fn in TABLE_FNS.values():
        fl, ex = fn(kernel, PROPERTY_N, mode="float"), fn(kernel, PROPERTY_N)
        assert _worst_error(fl.num, values(ex)) <= fl.error_bound <= 1e-12


@pytest.mark.parametrize("kernel", [PERPENDICULAR_TO_2E, AXIS_ONE_REFLECT_TO_ORIGIN, LONG_JUMP],
                         ids=lambda k: k.name)
def test_float_route_refuses_a_kernel_that_does_not_lump(kernel):
    # off the SRW's law past B_1; unit vectors with different numbers; a row past B_1
    for fn in (*TABLE_FNS.values(), first_passage_sequences):
        with pytest.raises(NoSeriesRouteError, match="do not lump.*mode='exact'"):
            fn(kernel, 4, mode="float")
    # the exact DP still runs on it
    assert values(return_sequence(kernel, 6)) == reference_tables(kernel, 6)[0]


# ---------------------------------------------------------------------------
# SequenceTable plumbing
# ---------------------------------------------------------------------------


def test_sequence_table_indexing():
    q = first_return_sequence(srw_kernel(1), 6)
    assert q.first_index == 1 and q.last_index == 6
    assert len(q) == 6
    with pytest.raises(IndexError):
        q[0]
    with pytest.raises(IndexError):
        q[7]


def test_sequence_table_csv_rows():
    seq = return_sequence(avg_difference_kernel(1), 2)
    rows = list(seq.csv_rows())
    assert rows[2] == ("p_tilde", 2, 3, 8, 0.375)
    flo = return_sequence(avg_difference_kernel(1), 2, mode="float")
    rows = list(flo.csv_rows())
    assert rows[2][:4] == ("p_tilde", 2, "", "")
    assert float(rows[2][4]) == pytest.approx(0.375)


# ---------------------------------------------------------------------------
# Poissonization and the heat kernel
# ---------------------------------------------------------------------------


def test_poissonized_constant_sequence():
    ones = SequenceTable("ones", 1, 0, [1.0] * 201, 1, exact=False, rate=F(1))
    out = poissonized_return(ones, 50.0)
    assert isinstance(out, PoissonizedValue)
    assert out.value == pytest.approx(1.0, abs=1e-11)
    assert 0 <= out.error < 1e-11


def test_poissonized_error_budget():
    seq = return_sequence(avg_difference_kernel(1), 400, mode="float")
    out = poissonized_return(seq, 100.0)
    weights = _poisson_pmf(np.arange(401), 100.0)
    assert out.value == math.fsum(w * p for w, p in zip(weights, seq.num))
    tail = _poisson_tail(400, 100.0)
    assert poisson.sf(400, 100.0) <= tail
    assert tail + seq.error_bound < out.error < tail + seq.error_bound + 1e-13


def _poissonized_in_index_order(seq, t):
    # every weight of the table and both sums in index order: the reference
    # poissonized_return must equal bit for bit
    mu = float(seq.rate) * t
    tail = _poisson_tail(seq.last_index, mu)
    weights = _poisson_pmf(np.arange(seq.first_index, seq.last_index + 1), mu)
    terms = [w * float(p) for w, p in zip(weights, values(seq))]
    rounding = _gamma(len(terms) + 2) * math.fsum(map(abs, terms))
    return math.fsum(terms), tail + seq.error_bound + rounding


def _with_a_negative_entry():
    seq = return_sequence(avg_difference_kernel(1), 600, mode="float")
    num = list(seq.num)
    num[40] = -3 * num[40]
    return replace(seq, num=num)


_ORACLE_TABLES = {
    "avg-diff d=1": lambda: return_sequence(avg_difference_kernel(1), 2000, mode="float"),
    "avg-diff d=2": lambda: return_sequence(avg_difference_kernel(2), 1200, mode="float"),
    "avg-diff d=3": lambda: return_sequence(avg_difference_kernel(3), 600, mode="float"),
    "potlach-coup d=1": lambda: return_sequence(potlach_kernels(1)[1], 1500, mode="float"),
    "srw closed form d=2": lambda: srw_return_sequence_float(2, 1000),
    "exact avg-diff d=1": lambda: return_sequence(avg_difference_kernel(1), 120),
    "q, first index 1": lambda: first_return_sequence(avg_difference_kernel(2), 800, mode="float"),
    "s, first index 1": lambda: sphere_first_return_sequence(avg_difference_kernel(1), 800,
                                                             mode="float"),
    "one negative entry": _with_a_negative_entry,
}


@pytest.mark.parametrize("name", _ORACLE_TABLES)
def test_poissonized_equals_the_index_order_sum_bitwise(name):
    # mu from 1e-3 to past the last index (tol=1 lets the tail be anything)
    seq = _ORACLE_TABLES[name]()
    assert seq.first_index == ("first index 1" in name)
    for mu in np.geomspace(1e-3, 1.5 * seq.last_index, 40):
        t = float(mu) / float(seq.rate)
        got = poissonized_return(seq, t, tol=1.0)
        ref = _poissonized_in_index_order(seq, t)
        assert [v.hex() for v in got] == [v.hex() for v in ref], (name, mu)


@settings(max_examples=150, deadline=None)
@given(mu=st.floats(1e-3, 1e5), width=st.integers(0, 50_000), where=st.floats(-2.0, 2.0))
@example(mu=1e-3, width=5, where=-1.0)    # above the mode, every weight zero
@example(mu=1e5, width=10, where=2.0)     # below the mode, every weight zero
@example(mu=1e5, width=40_000, where=0.5)  # the mode inside, both edges cut
@example(mu=0.7, width=3, where=0.0)      # k = 0.. with mu < 1
def test_poisson_window_drops_only_exact_zeros(mu, width, where):
    # [lo, hi) lies above the mode floor(mu) for where <= 0, below it for where > 1,
    # and holds it for where in (0, 1) when width > 0
    lo = max(0, math.floor(mu) - math.floor(where * width))
    hi = lo + width
    start, stop = _poisson_window(mu, lo, hi)
    assert lo <= start <= stop <= hi
    weights = _poisson_pmf(np.arange(lo, hi), mu)
    assert not weights[:start - lo].any() and not weights[stop - lo:].any()
    assert start < stop or not weights.any()


def test_outward_runs_from_the_peak():
    x = np.array([1.0, 2.0, -5.0, 4.0, 3.0, 0.5, 0.25])
    assert _outward(x) == [-5.0, 2.0, 4.0, 1.0, 3.0, 0.5, 0.25]
    assert _outward(x[::-1]) == [-5.0, 4.0, 2.0, 3.0, 1.0, 0.5, 0.25]
    assert _outward(np.array([])) == []


def test_poissonized_at_the_table_rate():
    # a table at rate 2 (the potlach pairs') at time t is the rate-1 table at time 2t
    seq = return_sequence(avg_difference_kernel(1), 400, mode="float")
    doubled = replace(seq, rate=F(2))
    assert poissonized_return(doubled, 40.0) == poissonized_return(seq, 80.0)
    coupled = return_sequence(potlach_kernels(1)[1], 400, mode="float")
    assert coupled.rate == 2
    assert poissonized_return(coupled, 40.0) == poissonized_return(replace(coupled, rate=F(1)), 80.0)


@pytest.mark.parametrize("d,times", [(1, (100.0, 150.0, 200.0)), (1, (60.0, 120.0)),
                                     (2, (100.0, 150.0, 200.0))])
def test_potlach_contrast_sizes_its_tables(d, times):
    # both tables end where poissonized_return's default tol needs them to at the
    # largest time, and the ratios match those of 600-entry tables
    coupled, independent, ratios = potlach_contrast(d, times)
    n = required_poisson_order(2 * max(times), 1e-12)
    assert coupled.last_index == independent.last_index == n
    ind, coup = potlach_kernels(d)
    long_c, long_i = (return_sequence(k, 600, mode="float") for k in (coup, ind))
    for t, ratio in zip(times, ratios):
        ref = poissonized_return(long_c, t).value / poissonized_return(long_i, t).value
        assert ratio == pytest.approx(ref, rel=1e-12, abs=0)


def test_poissonized_at_zero_time():
    seq = return_sequence(srw_kernel(1), 4)
    assert poissonized_return(seq, 0.0) == (1.0, 0.0)
    with pytest.raises(ValueError):
        poissonized_return(seq, -1.0)


def test_poissonized_short_sequence_raises():
    seq = return_sequence(srw_kernel(1), 50)
    with pytest.raises(SequenceTooShortError) as err:
        poissonized_return(seq, 100.0)
    assert err.value.have == 50
    assert err.value.required > 100
    assert err.value.tail > 1e-12


def test_required_poisson_order():
    for mu, tol in [(10.0, 1e-12), (250.0, 1e-9)]:
        n = required_poisson_order(mu, tol)
        assert poisson.sf(n, mu) <= tol
        assert poisson.sf(n - 2, mu) > tol


POISSON_MUS = np.geomspace(1e-3, 4000.0, 15).tolist() + [50.0, 100.0, 200.0, 300.0, 400.0]


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


POISSON_TOLS = [1e-6, 1e-9, 1e-12, 1e-14]


def _exact_order(mu: float, tol: float) -> int:
    """Smallest n with scipy's Pr(Po(mu) > n) <= tol."""
    n = int(poisson.isf(tol, mu)) if tol > 1e-16 else 0
    while poisson.sf(n, mu) > tol:
        n += 1
    return n


def test_log_factorial_matches_scipy_gammaln_bitwise():
    # every branch of Cephes' lgam: the exact factorials below 12, the polynomial
    # correction below x = 1000, the series below 1e8 and none above
    k = np.r_[np.arange(5000), np.geomspace(5000, 1e9, 200).astype(np.int64)]
    assert np.array_equal(_bits(_log_factorial(k)), _bits(gammaln(k + 1.0)))


@pytest.mark.parametrize("mu", POISSON_MUS)
def test_poisson_ufuncs_match_scipy_stats_bitwise(mu):
    k = np.arange(int(mu + 50 * math.sqrt(mu)) + 1)
    assert np.array_equal(_bits(_poisson_pmf(k, mu)), _bits(poisson.pmf(k, mu)))
    # a tolerance equal to a value of the bound sits where the order steps down
    for n in {int(mu), int(mu + 3 * math.sqrt(mu)), int(mu + 10 * math.sqrt(mu)) + 5}:
        tol = _poisson_tail(n, mu)
        if 1e-300 < tol < 1:
            assert required_poisson_order(mu, tol) == n
            assert poisson.sf(n, mu) <= tol


@pytest.mark.parametrize("mu", POISSON_MUS)
def test_poisson_tail_bounds_scipy_sf(mu):
    # a bound at every n where the exact tail is a positive double, subnormal
    # included; within 1.1x of it at the orders the tolerances give
    for n in range(-1, int(mu + 50 * math.sqrt(mu)) + 1):
        sf = poisson.sf(n, mu)
        if sf > 0:
            assert _poisson_tail(n, mu) >= sf
    for tol in POISSON_TOLS:
        n = required_poisson_order(mu, tol)
        assert _poisson_tail(n, mu) <= 1.1 * poisson.sf(n, mu)


@pytest.mark.parametrize("mu", POISSON_MUS)
def test_required_poisson_order_is_minimal_for_the_bound(mu):
    for tol in POISSON_TOLS:
        n = required_poisson_order(mu, tol)
        assert _poisson_tail(n, mu) <= tol
        assert n == 0 or _poisson_tail(n - 1, mu) > tol
        assert n - _exact_order(mu, tol) in (0, 1)


def test_poisson_helpers_at_zero_rate():
    assert _poisson_pmf(np.arange(3), 0.0).tolist() == [1.0, 0.0, 0.0]
    assert (_poisson_tail(-1, 0.0), _poisson_tail(0, 0.0)) == (1.0, 0.0)
    assert required_poisson_order(0.0, 1e-12) == 0


def test_required_poisson_order_rejects_nonfinite_mu():
    for mu in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            required_poisson_order(mu, 1e-12)


@pytest.mark.parametrize("mu", [1e-3, 0.5, 5.0, 50.0, 400.0])
@pytest.mark.parametrize("tol", [1e-17, 1e-40, 1e-300])
def test_required_poisson_order_below_double_resolution(mu, tol):
    # below double resolution, where 1 - tol rounds to 1
    n = required_poisson_order(mu, tol)
    assert _poisson_tail(n, mu) <= tol < _poisson_tail(n - 1, mu)
    assert n - _exact_order(mu, tol) in (0, 1)


def test_required_poisson_order_rejects_nonpositive_tol():
    for tol in (0.0, -1e-3):
        with pytest.raises(ValueError, match="tol must be positive"):
            required_poisson_order(10.0, tol)


def test_subnormal_poisson_tail_stays_a_bound():
    # w_{n+1} is subnormal here; unfloored, the bound came out at 1.36e-321
    assert _poisson_tail(6657, 4000.0) >= poisson.sf(6657, 4000.0) > 0
    for tol in (1e-301, 5e-324):
        with pytest.raises(ValueError, match="at least 1e-300"):
            required_poisson_order(10.0, tol)


def test_negative_time_is_rejected():
    for mu in (-1.0, math.nan):
        with pytest.raises(ValueError, match="mu nonnegative"):
            required_poisson_order(mu, 1e-12)
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="t must be nonnegative and finite"):
            heat_kernel(1, t, Box(1, 5))


def test_heat_kernel_with_tol_below_double_resolution():
    # the dropped tail is at least 2 w_40 / 81 = 1.1e-6 here, so every mode is kept:
    # the kernel is the untruncated sum, as at tol = 0
    assert len(_cycle_weights(5.0, 81, 1e-17)) == 41
    hk = heat_kernel(1, 10.0, Box(1, 40), tol=1e-17)
    assert hk.tobytes() == heat_kernel(1, 10.0, Box(1, 40), tol=0.0).tobytes()
    assert np.sum(hk) == pytest.approx(1.0, abs=1e-15)


def test_poissonized_empty_table_raises():
    with pytest.raises(SequenceTooShortError):
        poissonized_return(SequenceTable("p", 1, 0, [], 1, exact=False, rate=F(1)), 5.0)


def test_heat_kernel_matches_bessel_d1():
    # rate-1/2 continuous walk on Z: h_t(0, x) = e^{-t/2} I_x(t/2)
    t = 7.5
    hk = heat_kernel(1, t, Box(1, 40))
    for x in range(-6, 7):
        assert hk[x + 40] == pytest.approx(float(ive(abs(x), t / 2)), rel=1e-10)


def test_heat_kernel_zero_time():
    # mu = 0 keeps every mode at weight 1, whose sum is the point mass only up to
    # rounding: the point mass is returned directly
    for box, start in ((Box(1, 5), (2,)), (Box(2, 3), (1, -1)), (Box(3, 2), (0, 2, -1))):
        hk = heat_kernel(box.dimension, 0.0, box, start=start)
        assert hk[tuple(c + box.radius for c in start)] == 1.0
        assert np.count_nonzero(hk) == 1 and np.sum(hk) == 1.0


def torus_walk(kernel, start, n, box):
    """Exact distributions after 0..n steps on the torus: dict_step, folded by box.wrap."""
    dist, out = {box.wrap(start): F(1)}, []
    for k in range(n + 1):
        if k:
            folded = {}
            for y, mass in dict_step(kernel, dist).items():
                w = box.wrap(y)
                folded[w] = folded.get(w, F(0)) + mass
            dist = folded
        arr = np.zeros((box.side,) * box.dimension)
        for x, mass in dist.items():
            arr[tuple(c + box.radius for c in x)] = float(mass)
        out.append(arr)
    return out


def test_box_dp_rejects_dimension_mismatch():
    # a 1-d start on a 2-d box used to fill a whole row with mass
    for d, box, start in ((1, Box(2, 6), None), (2, Box(2, 6), (0,)), (2, Box(1, 6), (0, 0))):
        with pytest.raises(ValueError, match="dimension does not match"):
            heat_kernel(d, 5.0, box, start=start)


@pytest.mark.parametrize("d,t,radius,start", [(2, 3.0, 6, (1, 0)), (3, 2.0, 3, (1, 0, -4))],
                         ids=["d2", "d3"])
def test_heat_kernel_is_the_poisson_mixture_of_torus_walks(d, t, radius, start):
    # the product of one-axis cycle kernels against the d-dimensional walk,
    # stepped in exact arithmetic and wrapped on the torus (side 7 at d=3)
    box = Box(d, radius)
    hk = heat_kernel(d, t, box, start=start)
    n = required_poisson_order(t / 2, 1e-16)
    weights = _poisson_pmf(np.arange(n + 1), t / 2)
    mix = sum(w * p for w, p in zip(weights, torus_walk(srw_kernel(d), start, n, box)))
    np.testing.assert_allclose(hk, mix, rtol=0, atol=1e-12 + 1e-14)


@pytest.mark.parametrize("t", [4.0, 40.0, 400.0, 4000.0])
def test_heat_kernel_within_tol_of_the_untruncated_sum(t):
    # on Box(1, 200) the cosine sum keeps all 201 modes at t=4, 113 at t=40, 31 at t=400
    # and 10 at t=4000; the untruncated sum is the inverse FFT of all 401 mode weights.
    # Where h_t is below tol a truncated entry can dip below 0, by at most tol
    # (measured: -3.1e-13 at t=40; -3.2e-17, rounding alone, at t=4)
    box, tol = Box(1, 200), 1e-12
    side, mu = box.side, t / 2
    w = [math.exp(-2.0 * mu * math.sin(math.pi * j / side) ** 2) for j in range(side)]
    untruncated = np.roll(np.fft.ifft(w).real, box.radius)
    hk = heat_kernel(1, t, box, tol=tol)
    np.testing.assert_allclose(hk, untruncated, rtol=0, atol=tol + 1e-15)
    assert hk.min() >= -tol


@pytest.mark.parametrize("d,t,dynamics", [(1, 16.0, "averaging"), (1, 64.0, "potlach"),
                                          (1, 4000.0, "averaging"), (1, 0.01, "averaging"),
                                          (2, 16.0, "averaging"), (2, 1.0, "potlach"),
                                          (3, 4.0, "averaging"), (3, 16.0, "potlach")])
def test_heat_kernel_mass_is_one(d, t, dynamics):
    # every mode but w_0 = 1 sums to 0 over the cycle, so only rounding moves the mass:
    # on the simulations' default boxes by at most 9.5 ulps of 1 (d=3, t=4)
    box = ExperimentConfig(dimension=d, t=t, trials=2, dynamics=dynamics).box
    mass = np.sum(heat_kernel(d, t, box, dynamics=dynamics))
    assert abs(mass - 1.0) <= 16 * 2.0 ** -52


@pytest.mark.skipif(not __cpu_features__.get("X86_V4"),
                    reason="numpy has no AVX-512 loops to switch off on this CPU")
def test_heat_kernel_bytes_do_not_depend_on_simd_dispatch():
    # the weights and cosines come from math, and the sum is elementwise, so switching
    # off numpy's AVX-512 loops changes no byte (the Poisson mixture's np.exp did)
    code = ("import hashlib\n"
            "from avgproc.lattice import Box\n"
            "from avgproc.walks import heat_kernel\n"
            "for d, t, r, dyn in [(1, 16.0, 23, 'potlach'), (1, 64.0, 44, 'potlach'),\n"
            "                     (2, 16.0, 14, 'averaging'), (3, 4.0, 8, 'averaging'),\n"
            "                     (1, 4000.0, 242, 'averaging')]:\n"
            "    h = heat_kernel(d, t, Box(d, r), dynamics=dyn)\n"
            "    print(hashlib.sha256(h.tobytes()).hexdigest())\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    runs = [subprocess.run([sys.executable, "-c", code], env=e, capture_output=True, text=True,
                           check=True).stdout
            for e in (env, dict(env, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"))]
    assert runs[0] == runs[1] and len(runs[0].split()) == 5
