"""Step-n distributions, return/first-passage sequences, and Poissonization.

Exact tables come from a dynamic program over the positive orthant, one
independent pass per table: every start distribution used here and every
kernel row pattern is invariant under coordinate sign flips, so only the
nonnegative cone is stored, in integer numerators scaled by ``kernel.scale``
per step. A step adds up the shifted copies of the cone that share a bulk
coefficient and multiplies each sum once, so it costs one bigint multiply
per distinct bulk coefficient and cell (see ``_orthant_step``). The stored
cone is cut to the light cone of the recorded cells: a cell that cannot
reach them within the remaining steps is dropped (see ``_sequence``), which
leaves every entry unchanged. Float tables take the series route: the SRW
return sequence in closed form, then the identities
``series.verify_gf_relations`` checks; each carries ``error_bound``, a bound
on every entry's error, proven for d <= 3 and infinite for d >= 4.
Every table carries its kernel's ``rate``, at which ``poissonized_return``
mixes it. ``dp_distribution`` and ``heat_kernel`` step one torus walk,
``_box_walk``. Poisson weights are exp(k log mu - log k! - mu), with log k!
from Cephes' Stirling formula (``_log_factorial``), so they equal
``scipy.stats.poisson.pmf``'s bit for bit; for mu <= 4000 each was within a
measured 1.7e-11 relative of its exact value. Poisson tails are a proven
ratio bound (``_poisson_tail``), so the package needs no scipy at run time.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .kernels import WALK_RATE, TransitionKernel, avg_difference_kernel, potlach_kernels, srw_kernel
from .lattice import Box, Point, check_dimension, origin


class NoSeriesRouteError(ValueError):
    """A float table was asked for a kernel whose rows match no series route."""


class SequenceTooShortError(ValueError):
    """Poisson tail past the available entries exceeds the tolerance at time ``t``."""

    def __init__(self, have: int, required: int, tail: float, t: float):
        self.have, self.required, self.tail, self.t = have, required, tail, t
        super().__init__(
            f"sequence has entries to n={have} but the Poisson tail there is "
            f"{tail:.3e}; need entries to about n={required}"
        )


@dataclass
class SequenceTable:
    """Entries of one of the walk sequences, indexed from ``first_index``.

    Exact tables hold Fractions; float tables hold doubles, each within
    ``error_bound`` of the exact value. ``rate`` is the uniformization rate of
    the kernel the table counts steps of; ``poissonized_return`` reads it.
    """

    name: str
    dimension: int
    first_index: int
    entries: list
    exact: bool
    rate: Fraction
    error_bound: float = 0.0

    @property
    def last_index(self) -> int:
        return self.first_index + len(self.entries) - 1

    def __getitem__(self, n: int):
        if not self.first_index <= n <= self.last_index:
            raise IndexError(f"{self.name}_{n} not computed (have {self.first_index}..{self.last_index})")
        return self.entries[n - self.first_index]

    def __len__(self) -> int:
        return len(self.entries)

    def floats(self) -> np.ndarray:
        return np.array([float(v) for v in self.entries])

    def csv_rows(self) -> Iterable[tuple]:
        for n, v in enumerate(self.entries, start=self.first_index):
            if self.exact:
                yield (self.name, n, v.numerator, v.denominator, float(v))
            else:
                yield (self.name, n, "", "", repr(v))


class FirstPassageTables(NamedTuple):
    q: SequenceTable  # first return to the origin
    r: SequenceTable  # on the unit sphere at step n, origin avoided
    s: SequenceTable  # first return to the unit sphere, origin avoided


@dataclass
class DistVector:
    """Float distribution of a walk on a torus box after ``step`` kernel steps.

    ``data`` is indexed by coordinates shifted by +L. ``tail_bound`` bounds
    the mass a truncated Poisson mixture such as the heat kernel leaves out
    (``_poisson_tail``: proven for exactly evaluated weights, which are
    evaluated to a measured 1.7e-11 relative), and ``time`` is the mixture's
    time.
    """

    box: Box
    step: int
    data: np.ndarray
    tail_bound: float = 0.0
    time: float | None = None


def float_window_radius(n: int, d: int, c: float | None = None) -> int:
    """Orthant window ceil(c*sqrt(n log(n+2))) + 2, c = 3.4/sqrt(d) by default, of
    an n-step float walk; ``perfbench`` sizes its cell-update count with it."""
    c = 3.4 / math.sqrt(d) if c is None else c
    return math.ceil(c * math.sqrt(n * math.log(n + 2))) + 2


def _orthant_step(cur: np.ndarray, groups: dict[int, list], deltas) -> np.ndarray:
    """One exact kernel step on the stored orthant cone [0, r]^d, r = len(cur) - 1.

    ``groups`` maps each distinct bulk coefficient c to its offsets: the
    shifted views of one group are added up and the sum is multiplied by c
    once, not at all when c == 1, so a cell costs one bigint multiply per
    distinct coefficient. Bulk offsets must lie in {-1, 0, 1}^d: the low faces
    are mirror-padded by one cell. Perturbed rows may jump farther.
    """
    d, r = cur.ndim, len(cur) - 1
    r2 = max(r + 1, 2)
    padded = np.zeros((r2 + 3,) * d, dtype=object)
    padded[(slice(1, r + 2),) * d] = cur
    for axis in range(d):  # mirror-pad the low faces
        lead = (slice(None),) * axis
        padded[lead + (0,)] = padded[lead + (2,)]

    nxt = None
    for c, offsets in groups.items():
        views = [padded[tuple(slice(1 - oj, 2 - oj + r2) for oj in o)] for o in offsets]
        acc = views[0].copy()
        for view in views[1:]:
            acc += view
        if c != 1:
            acc *= c
        if nxt is None:
            nxt = acc
        else:
            nxt += acc
    for site, delta in deltas:
        stored = tuple(abs(c) for c in site)
        val = cur[stored] if max(stored) <= r else 0
        if val:
            for o, c in delta:
                tgt = tuple(a + b for a, b in zip(site, o))
                if min(tgt) >= 0:
                    nxt[tgt] += val * c
    return nxt


def _linf(p: Point) -> int:
    return max(map(abs, p), default=0)


def _reach(kernel: TransitionKernel) -> int:
    """Largest drop of the L-infinity radius |x|_inf that one step can make.

    A bulk step by o lowers it by at most |o|_inf; a perturbed row at site s
    lowers it by at most max over its offsets o of |s|_inf - |s + o|_inf.
    """
    reach = max(map(_linf, kernel.bulk), default=0)
    for site, row in kernel.perturbation.items():
        reach = max(reach, *(_linf(site) - _linf(tuple(a + b for a, b in zip(site, o)))
                             for o in row))
    return reach


def _sequence(kernel: TransitionKernel, n_max: int, mode: str, table: str) -> SequenceTable:
    """Table p, q, r or s: the series route in float mode, else one orthant DP pass.

    p and q start at the origin, r and s uniform on the unit sphere (each
    stored unit vector stands for two sphere points). After each step q
    records the origin and every pass but p then kills it; r and s record
    the sphere, and s kills it.

    Light-cone trim: the pass only ever reads cells within L-infinity radius
    w of the origin (w = 0 for p and q, 1 for r and s), and one step lowers a
    walker's radius by at most ``reach`` (``_reach``). Mass beyond radius
    reach * (n_max - k) + w after step k therefore cannot reach a recorded
    cell by step n_max, so the stored cone is cut to that radius after every
    step. The recorded entries are sums of the same integer terms as without
    the cut, hence identical; in d=3 the pass touches about 8x fewer cells.
    """
    if mode not in ("exact", "float"):
        raise ValueError("mode must be 'exact' or 'float'")
    name = table if not kernel.perturbation else f"{table}_tilde"
    if mode == "float":
        return _float_table(kernel, n_max, table, name)
    d = kernel.dimension
    for o in kernel.bulk:  # _orthant_step mirror-pads the cone by one cell
        if _linf(o) > 1:
            raise ValueError(f"exact orthant DP: bulk offset {o} is longer than one cell")
    scale, bulk, deltas = _kernel_box_data(kernel, exact=True)
    groups: dict[int, list] = {}
    for o, c in bulk:
        groups.setdefault(c, []).append(o)
    reach, w = _reach(kernel), int(table in "rs")
    zero = (0,) * d
    watch, mult, den = (([zero], 1, 1) if table in "pq" else
                        ([tuple(int(i == j) for i in range(d)) for j in range(d)], 2, 2 * d))
    cur = np.zeros((2,) * d, dtype=object)
    for e in watch:
        cur[e] = 1

    def value() -> Fraction:
        return Fraction(mult * int(sum(cur[e] for e in watch)), den)

    entries = [value()] if table in "pr" else []
    for k in range(1, n_max + 1):
        cone = (slice(0, reach * (n_max - k) + w + 1),) * d
        cur, den = _orthant_step(cur, groups, deltas)[cone], den * scale
        if table == "q":
            entries.append(value())
        if table != "p":
            cur[zero] = 0
        if table != "q":
            entries.append(value())
        if table == "s":
            for e in watch:
                cur[e] = 0
    return SequenceTable(name, d, 0 if table in "pr" else 1, entries, True, kernel.rate)


def return_sequence(kernel: TransitionKernel, n_max: int, mode: str = "exact") -> SequenceTable:
    """p_n = Pr_0(walk at origin after n steps), n = 0..n_max."""
    return _sequence(kernel, n_max, mode, "p")


def first_return_sequence(kernel: TransitionKernel, n_max: int,
                          mode: str = "exact") -> SequenceTable:
    """q_n = Pr_0(first return to the origin at step n), n = 1..n_max."""
    return _sequence(kernel, n_max, mode, "q")


def sphere_taboo_sequence(kernel: TransitionKernel, n_max: int,
                          mode: str = "exact") -> SequenceTable:
    """r_n = Pr_sphere(on the unit sphere at step n, origin avoided), n >= 0.

    The start is uniform on S_d(1); the entries do not depend on the start
    point, and the uniform choice preserves the sign symmetry the DP uses.
    """
    return _sequence(kernel, n_max, mode, "r")


def sphere_first_return_sequence(kernel: TransitionKernel, n_max: int,
                                 mode: str = "exact") -> SequenceTable:
    """s_n = Pr_sphere(first return to the sphere at step n, origin avoided)."""
    return _sequence(kernel, n_max, mode, "s")


def first_passage_sequences(kernel: TransitionKernel, n_max: int,
                            mode: str = "exact") -> FirstPassageTables:
    """The (q, r, s) tables.

    Exact mode runs one independent DP pass per table: the renewal
    identities the series lab verifies would be circular if r were derived
    from s or q from r. Float mode derives all three from the SRW closed form
    through those identities, so float tables never feed the identity suite.
    """
    return FirstPassageTables(*(fn(kernel, n_max, mode) for fn in (
        first_return_sequence, sphere_taboo_sequence, sphere_first_return_sequence)))


# ---------------------------------------------------------------------------
# Float tables: the series route. Each is one power-series division in the SRW
# return GF G, by identities ``series.verify_gf_relations`` checks exactly
# (renewal theory: Spitzer, Principles of Random Walk). For x = N/D with input
# errors e_N, e_D, Higham (Accuracy and Stability, section 8) bounds the long
# division coefficientwise, to first order, by the series products
#     |x^ - x| <= |D^-1| (gamma_{n+1} (|D| |x^| + |N|) + e_N + e_D |x^|);
# a factor 2 covers the second-order terms (|D^-1| from computed coefficients).
# ---------------------------------------------------------------------------

_U = 2.0 ** -53


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff of float64."""
    return k * _U / (1.0 - k * _U)


class _Series(NamedTuple):
    """Float coefficients c[0..n] and a coefficientwise bound on their error."""

    c: np.ndarray
    err: np.ndarray

    def times(self, k: float) -> "_Series":
        c = k * self.c
        return _Series(c, abs(k) * self.err + _U * np.abs(c))


def _conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """First len(a) coefficients of a*b (len(b) == len(a)), in about n^2/2 products."""
    n = len(a)
    if n <= 512:
        return np.convolve(a, b)[:n]
    h = n // 2
    out = np.zeros(n)
    out[: 2 * h - 1] = np.convolve(a[:h], b[:h])
    out[h:] += _conv(a[: n - h], b[h:]) + _conv(a[h:], np.r_[b[:h], np.zeros(n - 2 * h)])
    return out


def _divide(num: _Series, den: _Series) -> _Series:
    """num/den by long division, one dot product per coefficient, with its bound."""
    n = len(den.c)
    rev = den.c[:0:-1].copy()                       # rev[n-1-j] = den_j
    sol = np.column_stack([num.c, np.eye(1, n)[0]])  # solve for x and 1/den at once
    for k in range(n):
        sol[k] = (sol[k] - rev[n - 1 - k:] @ sol[:k]) / den.c[0]
    x = sol[:, 0]
    if not (np.isfinite(num.err).all() and np.isfinite(den.err).all()):
        return _Series(x, np.full(n, np.inf))
    g, ax = _gamma(n + 1), np.abs(x)  # a length-k dot product, a subtraction, a division
    local = _conv(g * np.abs(den.c) + den.err, ax) + g * np.abs(num.c) + num.err
    return _Series(x, 2.0 * _conv(np.abs(sol[:, 1]), local))


def _log_self_conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c[m] = log sum_j exp(a[j] + b[m-j]) without leaving log space."""
    n = len(a)
    out = np.empty(n)
    for m in range(n):
        s = a[: m + 1] + b[m::-1]
        mx = s.max()
        out[m] = mx + math.log(float(np.sum(np.exp(s - mx))))
    return out


def _srw_closed_form(d: int, n_max: int) -> _Series:
    """p_0..p_n_max of the SRW with per-entry error bounds (odd entries are 0).

    d <= 3: exact recurrences on P_m = p_2m, rel bounding |P^_m - P_m| / P^_m.
    d=1: P_m = P_{m-1}(2m-1)/(2m); d=2: its square; d=3: 36 m^3 P_m =
    2(2m-1)(10m^2-10m+3) P_{m-1} - (m-1)(2m-1)(2m-3) P_{m-2}, run on the ratio
    t = P_m/P_{m-1}, which contracts (the other solution decays like 9^-m), so
    its error eta stays a few ulp. d >= 4: p_2m = (2m)!/(2d)^{2m} sum over
    k_1+...+k_d=m of prod (k_i!)^-2, a log-space convolution, bound inf.
    """
    check_dimension(d)
    m_max = n_max // 2
    if d <= 2:
        m = np.arange(1, m_max + 1, dtype=float)
        big = np.r_[1.0, np.cumprod((2 * m - 1) / (2 * m))]
        k = 2.0 * np.arange(m_max + 1)   # P_m carries 2m roundings
        if d == 2:
            big, k = big * big, 2 * k + 1
        rel = _gamma(2 * k)              # gamma_k / (1 - gamma_k) <= gamma_2k
    elif d == 3:
        g6 = _gamma(6)  # a, b, c each rounded to double once, three operations
        big, rel = np.ones(m_max + 1), np.zeros(m_max + 1)
        t, eta, rho = 1.0, 0.0, 0.0
        for m in range(1, m_max + 1):
            a, b, c = (float(v) for v in (2 * (2 * m - 1) * (10 * m * m - 10 * m + 3),
                                          (m - 1) * (2 * m - 1) * (2 * m - 3), 36 * m ** 3))
            w = b / t
            t, eta = (a - w) / c, g6 * (a + w) / c + (b / c) * eta / (t * (t - eta))
            big[m] = big[m - 1] * t
            rho = (1.0 + rho) * (1.0 + eta / (t - eta)) * (1.0 + _U) - 1.0
            rel[m] = rho / (1.0 - rho)
    else:
        base = -2.0 * np.vectorize(math.lgamma)(np.arange(m_max + 1) + 1.0)
        conv = base
        for _ in range(d - 1):
            conv = _log_self_conv(conv, base)
        big = np.array([math.exp(math.lgamma(2 * m + 1) - 2 * m * math.log(2 * d) + conv[m])
                        for m in range(m_max + 1)])
        rel = np.inf
    p, err = np.zeros(n_max + 1), np.zeros(n_max + 1)
    p[::2], err[::2] = big, rel * big
    return _Series(p, err)


def srw_return_sequence_float(d: int, n_max: int) -> SequenceTable:
    """SRW return probabilities p_0..p_n_max from the closed form, in floats."""
    p = _srw_closed_form(d, n_max)
    return SequenceTable("p", d, 0, p.c.tolist(), exact=False, rate=srw_kernel(d).rate,
                         error_bound=float(np.max(p.err)))


def _route(kernel: TransitionKernel) -> str:
    """The family whose rows the kernel has: 'srw', 'avg-diff' or 'potlach-coup'."""
    d = kernel.dimension
    for route, family in (("srw", srw_kernel), ("avg-diff", avg_difference_kernel),
                          ("potlach-coup", lambda d: potlach_kernels(d)[1])):
        ref = family(d)  # built only until one matches
        if (kernel.bulk, kernel.perturbation) == (ref.bulk, ref.perturbation):
            return route
    raise NoSeriesRouteError(f"float mode has no series route for kernel {kernel.name!r} "
                             "(its rows match none of srw, avg-diff, potlach-coup); "
                             "use mode='exact'")


def _float_table(kernel: TransitionKernel, n_max: int, table: str, name: str) -> SequenceTable:
    """Table p, q, r or s through z^n_max by the series route.

    With M = (G-1)/z^2, A = (1-(1-2z)G)/z, B = (1-(1-z)^2 G)/z (A_0 = B_0 = 2):
    srw: Q = z^2 M/G, R = 2d M/G, S = 1 - G/(2d M) (renewal, skeleton,
    sphere renewal). avg-diff: G~ = A/B, R~ = 4d M/A, Q~ = z/2 + z^2 M/(2A),
    S~ = S + z/(4d) (gtilde-from-g, stilde-from-s, the perturbed skeleton and
    sphere renewal). potlach-coup: G~ = 2G/B (coupling relation),
    Q~ = 1 - 1/G~ = 1 - B/(2G), R~ = R, S~ = S (the origin is killed before
    its row is used).
    """
    route, d = _route(kernel), kernel.dimension
    avg, n = route == "avg-diff", max(n_max, 1)
    g = _srw_closed_form(d, n + 2)
    p, p1, pm = g.c[: n + 1], g.c[1: n + 2], np.r_[0.0, g.c[:n]]
    e, e1, em = g.err[: n + 1], g.err[1: n + 2], np.r_[0.0, g.err[:n]]
    a = 2 * p - p1
    G, M = _Series(p, e), _Series(g.c[2:], g.err[2:])
    A = _Series(a, 2 * e + e1 + _U * np.abs(a))
    B = _Series(a - pm, 2 * e + e1 + em + _gamma(2) * (2 * p + p1 + pm))
    if table == "p":
        out = G if route == "srw" else _divide(A, B) if avg else _divide(G.times(2.0), B)
    elif table == "s" or table == "q" and route == "potlach-coup":
        y = _divide(G, M.times(2 * d)) if table == "s" else _divide(B.times(0.5), G)
        out = _Series(0.0 - y.c, y.err)                 # 1 - y; coefficient 0 is unused
        if avg:
            out.c[1] += 1.0 / (4 * d)
            out.err[1] += _gamma(2) * out.c[1]
    else:
        x = _divide(M, A if avg else G)
        h = 0.5 if avg else 1.0
        out = (x.times(4 * d if avg else 2 * d) if table == "r" else
               _Series(np.r_[0.0, 1.0 - h, h * x.c[:-2]], np.r_[0.0, 0.0, h * x.err[:-2]]))
    first = 0 if table in "pr" else 1
    return SequenceTable(name, d, first, out.c[first: n_max + 1].tolist(), False, kernel.rate,
                         float(np.max(out.err[first: n_max + 1], initial=0.0)))


# ---------------------------------------------------------------------------
# Full-box DP (general start, float, on the torus)
# ---------------------------------------------------------------------------


def _box_step(box: Box, cur: np.ndarray, coeffs, deltas) -> np.ndarray:
    """One kernel step on the torus: the bulk stencil, then the perturbed rows."""
    d, L = box.dimension, box.radius
    nxt = np.zeros_like(cur)
    for o, c in coeffs:
        nxt += c * np.roll(cur, shift=o, axis=tuple(range(d)))
    for site, delta in deltas:
        val = cur[tuple(c_ + L for c_ in site)]
        if val != 0.0:
            for o, c in delta:
                tgt = box.wrap(tuple(a + b for a, b in zip(site, o)))
                nxt[tuple(t + L for t in tgt)] += val * c
    return nxt


def _kernel_box_data(kernel: TransitionKernel, exact: bool):
    """(scale, bulk stencil, per-site row corrections), integers scaled by
    ``kernel.scale`` in exact mode, floats otherwise."""
    scale, zero = (kernel.scale if exact else 1), Fraction(0)
    num = (lambda p: int(p * scale)) if exact else float
    coeffs = [(o, num(p)) for o, p in kernel.bulk.items()]
    deltas = [(site, [(o, num(row.get(o, zero) - kernel.bulk.get(o, zero)))
                      for o in set(row) | set(kernel.bulk)
                      if row.get(o, zero) != kernel.bulk.get(o, zero)])
              for site, row in kernel.perturbation.items()]
    return scale, coeffs, deltas


def _box_walk(kernel: TransitionKernel, start: Point, box: Box) -> Iterator[np.ndarray]:
    """Distributions after 0, 1, 2, ... steps of the walk from ``start`` (wrapped)
    on the torus ``box``; ValueError, at the first draw, if the dimensions differ
    or the box is too small for the perturbation zone."""
    if kernel.perturbation and box.radius < kernel.max_step + 2:
        raise ValueError("box too small for the perturbation zone")
    _, coeffs, deltas = _kernel_box_data(kernel, exact=False)
    cur = np.zeros((box.side,) * box.dimension)
    cur.flat[box.to_index(start)] = 1.0
    while True:
        yield cur
        cur = _box_step(box, cur, coeffs, deltas)


def dp_distribution(kernel: TransitionKernel, start: Point, n: int, box: Box) -> DistVector:
    """Distribution of the walk after n steps from ``start`` on the torus ``box``."""
    return DistVector(box=box, step=n, data=next(islice(_box_walk(kernel, start, box), n, None)))


_SMALL_LOG_FACTORIALS = np.array([math.log(math.factorial(k)) for k in range(12)])
_STIRLING_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
               -2.77777777730099687205e-3, 8.33333333333331927722e-2)


def _log_factorial(k: np.ndarray) -> np.ndarray:
    """log k! for an array of integers k >= 0, bit for bit as Cephes' ``lgam(k + 1)``.

    Below 12 it is the log of the exact factorial. From 12 on, x = k + 1 >= 13
    and log Gamma(x) = (x - 1/2) log x - x + log(2 pi)/2 + s(x) with Cephes'
    Stirling correction s: a degree-4 polynomial in 1/x^2 over x below 1000,
    the 1/(12x) - 1/(360x^3) + 1/(1260x^5) series from 1000 on, and none past
    1e8. The logs are ``math.log``'s, so the values, and the weights of
    ``_poisson_pmf``, equal ``scipy.special.gammaln``'s and
    ``scipy.stats.poisson.pmf``'s bit for bit (numpy's own log differs in the
    last bit at a few k).
    """
    k = np.asarray(k)
    x = np.maximum(k + 1.0, 13.0)
    log_x = np.fromiter(map(math.log, x.ravel().tolist()), float, x.size).reshape(x.shape)
    q = (x - 0.5) * log_x - x + 0.91893853320467274178
    p = 1.0 / (x * x)
    poly = _STIRLING_A[0]
    for a in _STIRLING_A[1:]:
        poly = poly * p + a
    series = ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
              + 0.0833333333333333333333) / x
    q = np.where(x > 1e8, q, q + np.where(x >= 1000.0, series, poly / x))
    return np.where(k < 12, _SMALL_LOG_FACTORIALS[np.minimum(k, 11)], q)


def _poisson_pmf(k: np.ndarray, mu: float) -> np.ndarray:
    """Pr(Po(mu) = k) for integers k >= 0, as exp(k log mu - log k! - mu);
    Po(0) is the point mass at 0."""
    k = np.asarray(k)
    if mu == 0:
        return (k == 0).astype(float)
    return np.exp(k * math.log(mu) - _log_factorial(k) - mu)


def _poisson_tail(n: int, mu: float) -> float:
    """A proven upper bound on Pr(Po(mu) > n).

    For k > n the weights fall by w_{k+1}/w_k = mu/(k+1) <= mu/(n+2), so when
    n + 2 > mu the tail is at most the geometric sum w_{n+1} (n+2)/(n+2-mu);
    otherwise, and wherever that exceeds it, the bound is 1. At the orders
    ``required_poisson_order`` returns for tol <= 1e-6 it is at most 1.04
    times the exact tail (measured for mu in [1e-3, 4000]). It is proven for
    exactly evaluated weights; w_{n+1} is evaluated with ``math.lgamma``, to
    about the 1.7e-11 relative of ``_poisson_pmf``'s weights, and floored at
    the least normal double, since a subnormal weight keeps too few digits
    to stay above the tail.
    """
    if n < 0 or not n + 2 > mu:
        return 1.0
    if mu == 0:
        return 0.0
    w = max(math.exp((n + 1) * math.log(mu) - math.lgamma(n + 2) - mu), sys.float_info.min)
    return min(1.0, w * (n + 2) / (n + 2 - mu))


def required_poisson_order(mu: float, tol: float) -> int:
    """Smallest N >= 0 with ``_poisson_tail(N, mu)`` <= tol, so Pr(Po(mu) > N) <= tol.

    The bound falls in N (its ratio from N to N + 1 is below 1 for every
    mu < N + 2), so a bracket that doubles past floor(mu) and a bisection
    find N in a few dozen evaluations. For tol <= 1e-6, N is the order of the
    exact tail or one more. A tol below 1e-300 is refused: no bound is below 2.2e-308.
    """
    if not (tol > 0 and 0 <= mu < math.inf):
        raise ValueError("tol must be positive and mu nonnegative and finite, "
                         f"got tol={tol}, mu={mu}")
    if tol < 1e-300:
        raise ValueError(f"tol must be at least 1e-300, got {tol}")
    lo, step = -1, 1  # the order lies in (lo, hi] once hi is found
    while _poisson_tail(hi := math.floor(mu) + step, mu) > tol:
        lo, step = hi, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _poisson_tail(mid, mu) > tol else (lo, mid)
    return hi


class PoissonizedValue(NamedTuple):
    value: float
    error: float


def poissonized_return(seq: SequenceTable, t: float, tol: float = 1e-12) -> PoissonizedValue:
    """e^{-mu} sum mu^n / n! * p_n, mu = seq.rate * t, with an error bound.

    The table's uniformization rate rescales time; raises
    SequenceTooShortError when the Poisson tail past the table is above tol.
    ``error`` is the proven tail bound (``_poisson_tail``) plus the table's
    ``error_bound`` plus the rounding of the N-term sum, gamma_{N+2} sum
    w_n |p_n|; the weights w_n themselves are evaluated to a measured 1.7e-11
    relative, which is not in ``error``.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    mu = float(seq.rate) * t
    if mu == 0:
        return PoissonizedValue(float(seq[0]) if seq.first_index == 0 else 0.0, seq.error_bound)
    tail = _poisson_tail(seq.last_index, mu)
    if tail > tol:
        raise SequenceTooShortError(seq.last_index, required_poisson_order(mu, tol), tail, t)
    weights = _poisson_pmf(np.arange(seq.first_index, seq.last_index + 1), mu)
    terms = [w * float(p) for w, p in zip(weights, seq.entries)]
    rounding = _gamma(len(terms) + 2) * math.fsum(map(abs, terms))
    return PoissonizedValue(math.fsum(terms), tail + seq.error_bound + rounding)


def potlach_contrast(d: int, n_steps: int, times: Iterable[float]
                     ) -> tuple[SequenceTable, SequenceTable, list[float]]:
    """(coupled, independent, ratios): the potlach pairs' float return sequences and,
    per time t, their ratio Poissonized at the pairs' jump rate. Raises
    SequenceTooShortError at the first t that ``n_steps`` entries do not cover."""
    ind, coup = potlach_kernels(d)
    coupled = return_sequence(coup, n_steps, mode="float")
    independent = return_sequence(ind, n_steps, mode="float")
    ratios = [poissonized_return(coupled, t).value / poissonized_return(independent, t).value
              for t in times]
    return coupled, independent, ratios


def heat_kernel(d: int, t: float, box: Box, start: Point | None = None,
                tol: float = 1e-12) -> DistVector:
    """Continuous-time SRW kernel h_t(start, .) on the box.

    One dual walker jumps at ``WALK_RATE["averaging"]`` = 1/2, so h_t is the
    Poisson(t/2) mixture of the discrete SRW powers (the point mass at t = 0),
    truncated at ``required_poisson_order``, where the proven tail bound is at
    most ``tol``; that bound is reported in tail_bound. The weights are
    evaluated to a measured 1.7e-11 relative (``_poisson_pmf``).
    """
    start = origin(d) if start is None else start
    mu = WALK_RATE["averaging"] * t
    n_max = required_poisson_order(mu, tol)
    weights = _poisson_pmf(np.arange(n_max + 1), mu)
    acc = sum(w * cur for w, cur in zip(weights, _box_walk(srw_kernel(d), start, box)))
    return DistVector(box, n_max, acc, tail_bound=_poisson_tail(n_max, mu), time=t)
