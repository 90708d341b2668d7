import hashlib
import math
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln, ive
from scipy.stats import poisson

from avgproc.kernels import (
    TransitionKernel,
    avg_difference_kernel,
    difference_kernel_from_pair_rates,
    potlach_kernels,
    srw_kernel,
)
from avgproc.lattice import Box, origin, unit_vectors
from avgproc.walks import (
    PoissonizedValue,
    SequenceTable,
    SequenceTooShortError,
    dp_distribution,
    first_passage_sequences,
    first_return_sequence,
    heat_kernel,
    poissonized_return,
    required_poisson_order,
    return_sequence,
    sphere_first_return_sequence,
    sphere_taboo_sequence,
    srw_return_sequence_float,
)
from avgproc.walks import _conv, _log_factorial, _poisson_pmf, _poisson_tail, _reach

F = Fraction


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
# the orthant DP sums and multiplies three offset groups, one of them with c == 1;
# the diagonals read the mirror-padded corner. The origin row is perturbed.
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
        (LONG_JUMP, 12),
        (THREE_COEFF, 8),
    ],
    ids=lambda k: k.name if hasattr(k, "name") else str(k),
)
def test_sequences_match_reference_dp(kernel, n_max):
    p_ref, q_ref, r_ref, s_ref = reference_tables(kernel, n_max)
    assert return_sequence(kernel, n_max).entries == p_ref
    assert first_return_sequence(kernel, n_max).entries == q_ref
    assert sphere_taboo_sequence(kernel, n_max).entries == r_ref
    assert sphere_first_return_sequence(kernel, n_max).entries == s_ref


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


def test_exact_d3_tables_pinned():
    # Digest of the exact d=3 srw and avg-diff p, q, r, s tables through n=48,
    # recorded before the light-cone trim; any change to an entry moves it.
    tables = [fn(kernel(3), 48) for kernel in (srw_kernel, avg_difference_kernel)
              for fn in (return_sequence, first_return_sequence,
                         sphere_taboo_sequence, sphere_first_return_sequence)]
    text = repr([(t.name, t.first_index, [(v.numerator, v.denominator) for v in t.entries])
                 for t in tables])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "8ae1dc4d166299bf"


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
    assert seq.entries == [F(1), F(1, 2), F(3, 8), F(9, 32), F(31, 128)]
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
    assert q.entries == [F(1, 2), F(1, 8), F(1, 32)]


def test_sphere_sequences_d1_frozen():
    kernel = avg_difference_kernel(1)
    r = sphere_taboo_sequence(kernel, 2)
    s = sphere_first_return_sequence(kernel, 2)
    assert r.entries[:2] == [F(1), F(1, 4)]
    assert s.entries == [F(1, 4), F(1, 4)]


def test_potlach_coupled_return_frozen():
    _, coup = potlach_kernels(1)
    seq = return_sequence(coup, 4)
    assert seq.entries == [F(1), F(3, 4), F(9, 16), F(31, 64), F(105, 256)]


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
    worst = max((abs(F(v) - ex[i]) for i, v in enumerate(fl.entries, fl.first_index)),
                default=0)
    assert worst <= fl.error_bound <= 1e-12


@pytest.mark.parametrize("n", [1, 513, 1024, 1501])
def test_truncated_convolution(n):
    rng = np.random.default_rng(n)
    a, b = rng.random(n), rng.random(n)
    np.testing.assert_allclose(_conv(a, b), np.convolve(a, b)[:n], rtol=1e-12)


def test_float_route_matches_mpmath_long_division():
    mpmath = pytest.importorskip("mpmath")
    n = 2000
    fl = return_sequence(avg_difference_kernel(1), n, mode="float")
    with mpmath.workdps(30):
        p = [mpmath.mpf(0)] * (n + 2)
        p[0] = mpmath.mpf(1)
        for m in range(1, (n + 1) // 2 + 1):
            p[2 * m] = p[2 * m - 2] * (2 * m - 1) / (2 * m)
        num = [2 * p[k] - p[k + 1] for k in range(n + 1)]
        den = [num[k] - (p[k - 1] if k else 0) for k in range(n + 1)]
        x = []
        for k in range(n + 1):
            x.append((num[k] - mpmath.fdot(den[1:k + 1], x[::-1])) / den[0])
        worst = max(abs(mpmath.mpf(v) - xk) for v, xk in zip(fl.entries, x))
    assert 0 < fl.error_bound < 1e-10
    assert worst <= fl.error_bound


def _srw_exact_even(d: int, m: int) -> Fraction:
    if d == 1:
        return F(math.comb(2 * m, m), 4**m)
    if d == 2:
        return F(math.comb(2 * m, m), 4**m) ** 2
    # sum over j+k+l=m of the squared trinomials, by Vandermonde over (k, l)
    inner = sum(math.comb(m, j) ** 2 * math.comb(2 * (m - j), m - j) for j in range(m + 1))
    return F(math.comb(2 * m, m) * inner, 36**m)


@pytest.mark.parametrize("d,n_max", [(1, 4000), (2, 4000), (3, 600)])
def test_srw_closed_form_within_error_bound(d, n_max):
    seq = srw_return_sequence_float(d, n_max)
    assert 0 < seq.error_bound < 1e-12
    for m in [*range(40), *range(40, n_max // 2 + 1, 37), n_max // 2]:
        assert abs(F(seq[2 * m]) - _srw_exact_even(d, m)) <= seq.error_bound
    assert all(seq[n] == 0.0 for n in range(1, n_max + 1, 2))


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
    assert return_sequence(lazy, 2).entries == [F(1), F(1, 2), F(3, 8)]


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
# Box DP
# ---------------------------------------------------------------------------


def torus_reference(kernel, start, n, box):
    """Exact n-step distribution on the torus: dict_step, folded by box.wrap after each step."""
    dist = {box.wrap(start): F(1)}
    for _ in range(n):
        folded = {}
        for y, mass in dict_step(kernel, dist).items():
            w = box.wrap(y)
            folded[w] = folded.get(w, F(0)) + mass
        dist = folded
    out = np.zeros((box.side,) * box.dimension)
    for x, mass in dist.items():
        out[tuple(c + box.radius for c in x)] = float(mass)
    return out


def test_box_dp_matches_reference_distribution():
    kernel, box = avg_difference_kernel(2), Box(2, 8)
    dist = dp_distribution(kernel, (0, 0), 5, box)
    assert dist.step == 5
    np.testing.assert_allclose(dist.data, torus_reference(kernel, (0, 0), 5, box),
                               rtol=0, atol=1e-14)


def test_box_dp_torus_conserves_mass():
    _, coup = potlach_kernels(1)
    box = Box(1, 4)  # five steps reach past the boundary and wrap
    dist = dp_distribution(coup, (0,), 5, box)
    np.testing.assert_allclose(dist.data, torus_reference(coup, (0,), 5, box),
                               rtol=0, atol=1e-14)
    assert np.sum(dist.data) == pytest.approx(1.0, abs=1e-14)
    # the start wraps too: 9 is 0 on a side-9 torus
    assert np.array_equal(dp_distribution(coup, (9,), 5, box).data, dist.data)


def test_box_dp_small_box_rejected():
    with pytest.raises(ValueError, match="box too small"):
        dp_distribution(avg_difference_kernel(1), (0,), 2, Box(1, 3))


def test_box_dp_rejects_dimension_mismatch():
    # a 1-d start on a 2-d box used to fill a whole row with mass
    with pytest.raises(ValueError, match="dimension does not match"):
        dp_distribution(srw_kernel(2), (0,), 3, Box(2, 6))
    with pytest.raises(ValueError, match="dimension does not match"):
        heat_kernel(1, 5.0, Box(2, 6))


def test_box_dp_float_matches_exact():
    # the walk crosses the boundary at +-6, so the perturbed rows see wrapped mass
    kernel, box = avg_difference_kernel(1), Box(1, 6)
    dist = dp_distribution(kernel, (1,), 8, box)
    np.testing.assert_allclose(dist.data, torus_reference(kernel, (1,), 8, box),
                               rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# Poissonization and the heat kernel
# ---------------------------------------------------------------------------


def test_poissonized_constant_sequence():
    ones = SequenceTable("ones", 1, 0, [1.0] * 201, exact=False, rate=F(1))
    out = poissonized_return(ones, 50.0)
    assert isinstance(out, PoissonizedValue)
    assert out.value == pytest.approx(1.0, abs=1e-11)
    assert 0 <= out.error < 1e-11


def test_poissonized_error_budget():
    seq = return_sequence(avg_difference_kernel(1), 400, mode="float")
    out = poissonized_return(seq, 100.0)
    weights = _poisson_pmf(np.arange(401), 100.0)
    assert out.value == math.fsum(w * p for w, p in zip(weights, seq.entries))
    tail = _poisson_tail(400, 100.0)
    assert poisson.sf(400, 100.0) <= tail
    assert tail + seq.error_bound < out.error < tail + seq.error_bound + 1e-13


def test_poissonized_at_the_table_rate():
    # a table at rate 2 (the potlach pairs') at time t is the rate-1 table at time 2t
    seq = return_sequence(avg_difference_kernel(1), 400, mode="float")
    doubled = replace(seq, rate=F(2))
    assert poissonized_return(doubled, 40.0) == poissonized_return(seq, 80.0)
    coupled = return_sequence(potlach_kernels(1)[1], 400, mode="float")
    assert coupled.rate == 2
    assert poissonized_return(coupled, 40.0) == poissonized_return(replace(coupled, rate=F(1)), 80.0)


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
    with pytest.raises(ValueError, match="mu nonnegative"):
        heat_kernel(1, -1.0, Box(1, 5))


def test_heat_kernel_with_tol_below_double_resolution():
    hk = heat_kernel(1, 10.0, Box(1, 40), tol=1e-17)
    assert hk.tail_bound <= 1e-17
    assert hk.step == required_poisson_order(5.0, 1e-17)
    assert np.sum(hk.data) == pytest.approx(1.0, abs=1e-14)


def test_poissonized_empty_table_raises():
    with pytest.raises(SequenceTooShortError):
        poissonized_return(SequenceTable("p", 1, 0, [], exact=False, rate=F(1)), 5.0)


def test_heat_kernel_matches_bessel_d1():
    # rate-1/2 continuous walk on Z: h_t(0, x) = e^{-t/2} I_x(t/2)
    t = 7.5
    hk = heat_kernel(1, t, Box(1, 40))
    for x in range(-6, 7):
        assert hk.data[x + 40] == pytest.approx(float(ive(abs(x), t / 2)), rel=1e-10)
    assert hk.time == t
    assert hk.tail_bound <= 1e-12
    assert np.sum(hk.data) == pytest.approx(1.0, abs=1e-11)


def test_heat_kernel_zero_time():
    hk = heat_kernel(2, 0.0, Box(2, 3), start=(1, -1))
    assert hk.data[1 + 3, -1 + 3] == 1.0
    assert np.sum(hk.data) == 1.0
    assert (hk.step, hk.tail_bound) == (0, 0.0)


def test_heat_kernel_is_the_poisson_mixture_of_dp_distributions():
    # one stepping loop: the mixture's terms are dp_distribution's, bit for bit
    box, t = Box(2, 6), 3.0
    hk = heat_kernel(2, t, box, start=(1, 0))
    weights = _poisson_pmf(np.arange(hk.step + 1), t / 2)
    mix = sum(w * dp_distribution(srw_kernel(2), (1, 0), n, box).data
              for n, w in enumerate(weights))
    assert np.array_equal(hk.data, mix)
