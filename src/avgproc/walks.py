"""Step-n distributions, return/first-passage sequences, and Poissonization.

Exact tables come from a dynamic program over one cell per orbit of the
kernel's symmetry group, one independent pass per table, run once per
process and served as a prefix to shorter requests (``_sequence``). Every start
distribution used here is invariant under sign flips and permutations of the
coordinates; the rows must be invariant under sign flips, and when they are
also invariant under permutations the cells are x_1 >= ... >= x_d >= 0,
otherwise |x| (``_sorts_coordinates``). Values stay integer numerators over
scale^n (``SequenceTable``), the kernel's rows being integers over
``kernel.scale`` (``TransitionKernel.int_row``), which both routes read. A
step gathers each cell's bulk sources through one index array per bulk
offset, adds up the gathers that share a coefficient and multiplies each sum
once, so it costs one bigint multiply per distinct bulk coefficient and cell
(see ``_sequence``). The stored cone is cut to the light cone of the
recorded cells: a cell that cannot reach them within the remaining steps is
dropped, which leaves every entry unchanged. Float tables take the series
route: the rows lump onto a chain on the origin O and the unit sphere S when
the bulk is the SRW step, only rows in the unit ball B_1 differ from it, all
unit vectors' rows put the same mass on O, on S and past B_1, and that last
mass follows the SRW's own law there (``_lumped_steps``). Each table is then
one division of series in the SRW's closed-form return GF, by Newton's
iteration on FFT products above 512 terms, each round a middle product
(``_inverse``), with an ``error_bound`` from its residual, whose signed FFT
products carry a normwise error term (``_fft_error``) and whose products of
nonnegative series are cyclic majorants (``_majorant``): proven for d <= 3 if
numpy's FFT meets Percival's bound, inf for d >= 4. Every table carries its
kernel's ``rate``, at which ``poissonized_return`` mixes it. ``heat_kernel``
is a product of d one-axis cycle kernels, since a single dual walker's
coordinates are independent, each a truncated cosine sum over the torus's
dual-grid modes, so the exact DP is the only d-dimensional stepper. Poisson
weights equal ``scipy.stats.poisson.pmf``'s bit for bit (``_log_factorial``) and tails are a proven ratio bound (``_poisson_tail``),
so the package needs no scipy at run time.
``poissonized_return`` weighs only the k with log Pr(Po(mu) = k) >= -800
(``_poisson_window``), largest term first: np.exp is 0.0 at the others.
"""
from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, permutations, product
from typing import Iterable, NamedTuple

import numpy as np

from .kernels import WALK_RATE, TransitionKernel, potlach_kernels, srw_kernel
from .lattice import Box, Point, check_dimension, l1_norm, origin, unit_vectors


class NoSeriesRouteError(ValueError):
    """A float table was asked for a kernel whose rows do not lump (``_lumped_steps``)."""


class ExactPassTooLargeError(ValueError):
    """An exact DP pass would build a cone of more than ``MAX_CONE_POINTS`` points
    (``_check_cone_size``)."""


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
    """Entries num[n - first_index] / den of one walk sequence. Exact tables hold
    ints over den = (1 for p and q, 2d for r and s) scale^n_max, read as Fractions
    (indexing, ``csv_rows``) or doubles (``floats``); float tables hold doubles over
    den = 1, each within ``error_bound`` of the exact value. ``poissonized_return``
    reads ``rate``, the uniformization rate of the kernel the table counts steps of."""

    name: str
    dimension: int
    first_index: int
    num: list
    den: int
    exact: bool
    rate: Fraction
    error_bound: float = 0.0

    @property
    def last_index(self) -> int:
        return self.first_index + len(self.num) - 1

    def __getitem__(self, n: int):
        if not self.first_index <= n <= self.last_index:
            raise IndexError(f"{self.name}_{n} not computed (have {self.first_index}..{self.last_index})")
        v = self.num[n - self.first_index]
        return Fraction(v, self.den) if self.exact else v

    def __len__(self) -> int:
        return len(self.num)

    def floats(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """num[start:stop] / den as doubles, an int true division as in float(Fraction)."""
        return np.array([v / self.den for v in self.num[start:stop]], dtype=float)

    def csv_rows(self) -> Iterable[tuple]:
        for n, v in enumerate(self.num, start=self.first_index):
            if self.exact:
                f = Fraction(v, self.den)
                yield (self.name, n, f.numerator, f.denominator, v / self.den)
            else:
                yield (self.name, n, "", "", repr(v))


class FirstPassageTables(NamedTuple):
    q: SequenceTable  # first return to the origin
    r: SequenceTable  # on the unit sphere at step n, origin avoided
    s: SequenceTable  # first return to the unit sphere, origin avoided


def float_window_radius(n: int, d: int) -> int:
    """Orthant window ceil(c*sqrt(n log(n+2))) + 2, c = 3.4/sqrt(d), of an n-step
    float walk; ``perfbench`` sizes its cell-update count with it."""
    return math.ceil(3.4 / math.sqrt(d) * math.sqrt(n * math.log(n + 2))) + 2


def _linf(p: Point) -> int:
    return max(map(abs, p), default=0)


def _growth(kernel: TransitionKernel) -> int:
    """Largest rise of the L-infinity radius |x|_inf that one bulk step can make,
    |o|_inf for a step by o. The exact DP's stored cone grows one cell per step
    (``_Cone``), so it needs this to be at most 1; perturbed rows may jump farther."""
    return max(map(_linf, kernel.bulk), default=0)


def _reach(kernel: TransitionKernel) -> int:
    """Largest drop of the L-infinity radius |x|_inf that one step can make.

    A bulk step by o lowers it by at most |o|_inf (``_growth``); a perturbed row
    at site s lowers it by at most max over its offsets o of |s|_inf - |s + o|_inf.
    """
    reach = _growth(kernel)
    for site, row in kernel.perturbation.items():
        reach = max(reach, *(_linf(site) - _linf(tuple(a + b for a, b in zip(site, o)))
                             for o in row))
    return reach


def _sorts_coordinates(kernel: TransitionKernel) -> bool:
    """Whether the kernel's integer rows are invariant under coordinate
    permutations, so that one cell per orbit is x_1 >= ... >= x_d >= 0 rather
    than |x|.

    The start distributions of ``_sequence`` are invariant under sign flips
    and permutations, so a pass keeps the part of that group the rows keep.
    Rows that sign flips change raise ValueError, naming the kernel.
    """
    bulk, rows = kernel.int_bulk, kernel.int_perturbation

    def invariant(g) -> bool:  # g: a signed permutation of the coordinates
        def image(row: dict) -> dict:
            return {g(o): c for o, c in row.items()}
        return image(bulk) == bulk and rows == {g(s): image(r) for s, r in rows.items()}

    d = kernel.dimension
    if not all(invariant(lambda p, i=i: p[:i] + (-p[i],) + p[i + 1:]) for i in range(d)):
        raise ValueError(f"exact DP: the rows of kernel {kernel.name!r} are not "
                         "invariant under coordinate sign flips")
    return all(invariant(lambda p, i=i: p[:i] + (p[i + 1], p[i]) + p[i + 2:])
               for i in range(d - 1))


#: the most points, (radius + 1)^d, the grid of an exact pass's ``_Cone`` may span.
#: ``_Cone`` builds that whole grid, d int64 coordinates a point, and an index table
#: of (radius + 2)^d, before it keeps one cell per orbit, so the request is refused
#: before either exists. Measured (Python 3.11, 2 vCPUs): exact avg-diff p at d=3
#: took 0.33 s and peaked at 39 MB at n=120 (61^3 points), 2.48 s and 79 MB at n=200
#: (101^3), 8.27 s and 126 MB at n=254 (128^3 = 2^21, the largest d=3 p pass within
#: the bound). The default ``asymptotics --mode exact --d 3`` (n=2000, 1001^3) would
#: ask numpy for 22.4 GiB. At d=2 the bound allows radius 1447; d=2 p took 41 s and
#: 156 MB at n=1200 (radius 600).
MAX_CONE_POINTS = 2 ** 21


def _radii(kernel: TransitionKernel, n_max: int, table: str) -> list[int]:
    """The L-infinity radius ``_exact_pass`` keeps after each step k = 0..n_max."""
    reach, w = _reach(kernel), int(table in "rs")
    far = max((_linf(tuple(a + b for a, b in zip(site, o)))
               for site, row in kernel.perturbation.items() for o in row), default=0)
    radii = [w]
    for k in range(1, n_max + 1):
        radii.append(min(max(radii[-1] + 1, far), reach * (n_max - k) + w))
    return radii


def _cone_points(kernel: TransitionKernel, n_max: int, table: str) -> int:
    """The points of the grid ``_Cone`` builds for the pass to n_max."""
    return (max(_radii(kernel, n_max, table)) + 1) ** kernel.dimension


def _check_cone_size(kernel: TransitionKernel, n_max: int, table: str) -> None:
    """Raise ``ExactPassTooLargeError`` if the pass to n_max would build a grid of
    more than ``MAX_CONE_POINTS`` points, naming the largest n_max at which every
    table's pass fits: r and s keep the widest cone, and it grows with n_max."""
    points = _cone_points(kernel, n_max, table)
    if points <= MAX_CONE_POINTS:
        return
    lo, hi = -1, n_max  # the r pass fits at lo (or lo = -1) and not at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _cone_points(kernel, mid, "r") <= MAX_CONE_POINTS else (lo, mid)
    raise ExactPassTooLargeError(
        f"the exact {table} pass of kernel {kernel.name!r} at d={kernel.dimension} to "
        f"n={n_max} would index {points:,} cone points, over MAX_CONE_POINTS = "
        f"{MAX_CONE_POINTS:,}; the largest feasible step count is {lo}")


class _Cone:
    """One cell per orbit, x_1 >= ... >= x_d >= 0 if ``sort`` else |x|, through
    L-infinity radius ``radius``, ordered by radius: ``size[r]`` cells lie
    within radius r, so a cut to r keeps a prefix. ``rank`` maps points to
    their cells through one table, which spans the cone and the one cell it
    grows by per step and holds the sentinel ``len(cells)`` past the radius.
    """

    def __init__(self, d: int, radius: int, sort: bool):
        grid = np.indices((radius + 1,) * d).reshape(d, -1).T  # ordered by x_1
        if sort:  # x_1 is the radius
            self.cells = grid[(grid[:, :-1] >= grid[:, 1:]).all(axis=1)]
        else:
            rad = grid.max(axis=1)
            self.cells = np.concatenate([grid[rad == r] for r in range(radius + 1)])
        self.size = np.cumsum(np.bincount(self.cells.max(axis=1), minlength=radius + 1))
        self.table = np.full((radius + 2,) * d, len(self.cells))
        for perm in permutations(range(d)) if sort else [range(d)]:
            self.table[tuple(self.cells.T[list(perm)])] = np.arange(len(self.cells))

    def rank(self, points) -> np.ndarray:
        """Cell of each point, coordinates on the last axis; a coordinate clipped
        to the table keeps the point past the radius."""
        c = np.minimum(np.abs(np.asarray(points)), len(self.table) - 1)
        return self.table[tuple(np.moveaxis(c, -1, 0))]


#: ``_exact_pass``'s numerators by (``TransitionKernel.row_key``, table letter), longest so far
_EXACT_TABLES: dict[tuple, list[int]] = {}


def _sequence(kernel: TransitionKernel, n_max: int, mode: str, table: str) -> SequenceTable:
    """Table p, q, r or s: the series route in float mode, else one exact DP pass.

    p and q start at the origin, r and s uniform on the unit sphere. After
    each step q records the origin and every pass but p then kills it; r and
    s record the sphere, and s kills it.

    Each exact table is computed once per process: ``_EXACT_TABLES`` keeps the
    numerators of the longest pass so far under the kernel's integer rows and the
    table letter. A request up to that length is served as a prefix, step k's
    raised by scale^(n_max - k), which by the light-cone argument of ``_exact_pass``
    equals a fresh pass; a longer one runs a fresh pass and replaces them. A pass
    that raises stores nothing. Each returned table has its own ``num`` list and
    the caller's ``kernel.rate``. The tables p, q, r and s stay independent passes.
    """
    if mode not in ("exact", "float"):
        raise ValueError("mode must be 'exact' or 'float'")
    name = table if not kernel.perturbation else f"{table}_tilde"
    if mode == "float":
        return _float_table(kernel, n_max, table, name)
    first = 0 if table in "pr" else 1
    size = max(n_max, 0) + 1 - first
    stored = _EXACT_TABLES.get((kernel.row_key, table))
    if stored is None or len(stored) < size:
        stored = _EXACT_TABLES[kernel.row_key, table] = _exact_pass(kernel, n_max, table)
    top, scale = max(n_max, 0), kernel.scale  # the table's last index, if it has one
    num = [v * scale ** (top - n) for n, v in enumerate(stored[:size], start=first)]
    den = (1 if table in "pq" else 2 * kernel.dimension) * scale ** top
    return SequenceTable(name, kernel.dimension, first, num, den, True, kernel.rate)


def _exact_pass(kernel: TransitionKernel, n_max: int, table: str) -> list[int]:
    """The numerators of table p, q, r or s (``_sequence``) through step n_max, by one
    DP pass: step k's over (1 for p and q, 2d for r and s) times ``kernel.scale``^k.

    The pass stores one cell per orbit of the kernel's symmetry group
    (``_sorts_coordinates``, ``_Cone``): the value there is the value at
    every point of the orbit, so each stored unit vector stands for all 2d
    sphere points. A step gathers, for each bulk offset o, every cell x's
    value at x - o through one index array, sums the gathers that share a
    coefficient and multiplies each sum once: one bigint multiply per
    distinct coefficient and cell. The perturbed rows then push their
    corrections into the targets that are cells.

    Light-cone trim: the pass only ever reads cells within L-infinity radius
    w of the origin (w = 0 for p and q, 1 for r and s), and one step lowers a
    walker's radius by at most ``reach`` (``_reach``). Mass beyond radius
    reach * (n_max - k) + w after step k therefore cannot reach a recorded
    cell by step n_max, so the stored cone is cut to that radius after every
    step. It grows by one cell per step (``_growth``), and at least to the
    perturbed rows' targets. The recorded entries are sums of the same
    integer terms as without the cut, hence identical, and so are the first
    entries of passes to different n_max. A pass whose cone would span more than
    ``MAX_CONE_POINTS`` points is refused before the cone is built.
    """
    d = kernel.dimension
    if _growth(kernel) > 1:  # the stored cone grows one cell per step
        raise ValueError(f"exact DP: bulk offset {max(kernel.bulk, key=_linf)} "
                         "is longer than one cell")
    bulk = kernel.int_bulk
    sort = _sorts_coordinates(kernel)
    w = int(table in "rs")
    _check_cone_size(kernel, n_max, table)
    radii = _radii(kernel, n_max, table)
    cone = _Cone(d, max(radii), sort)

    groups: dict[int, list] = {}
    for o, c in bulk.items():
        groups.setdefault(c, []).append(o)
    gathers = [(c, np.array([cone.rank(cone.cells - o) for o in offsets]))
               for c, offsets in groups.items()]
    pushes: dict[tuple[int, int], int] = {}  # (source cell, target cell) -> coefficient
    moves = [(site, tuple(a + b for a, b in zip(site, o)), row.get(o, 0) - bulk.get(o, 0))
             for site, row in kernel.int_perturbation.items() for o in row.keys() | bulk.keys()
             if row.get(o, 0) != bulk.get(o, 0)]
    if moves:
        sites, targets, _ = zip(*moves)
        for src, tgt, (_, target, c) in zip(cone.rank(sites).tolist(),
                                            cone.rank(targets).tolist(), moves):
            if tgt < len(cone.cells) and tuple(cone.cells[tgt]) == target:
                pushes[src, tgt] = pushes.get((src, tgt), 0) + c

    # the origin is cell 0; the unit vectors' cells stand for all 2d sphere points
    watch, mult = ([0], 1) if table in "pq" else (cone.rank(np.eye(d, dtype=int)).tolist(), 2)
    cur = np.zeros(cone.size[w] + 1, dtype=object)  # the last entry is the zero sentinel
    cur[watch] = 1

    def value() -> int:
        return mult * int(sum(cur[e] for e in watch))

    entries = [value()] if table in "pr" else []
    for k in range(1, n_max + 1):
        n = cone.size[radii[k]]
        nxt = np.zeros(n + 1, dtype=object)  # the last entry stays the sentinel
        for i, (c, idx) in enumerate(gathers):
            acc = np.add.reduce(cur.take(idx[:, :n], mode="clip"), axis=0,
                                out=None if i else nxt[:n])
            if c != 1:
                acc *= c
            if i:
                nxt[:n] += acc
        for (src, tgt), c in pushes.items():
            if tgt < n and src < len(cur) and cur[src]:
                nxt[tgt] += cur[src] * c
        cur = nxt
        if table == "q":
            entries.append(value())
        if table != "p":
            cur[0] = 0
        if table != "q":
            entries.append(value())
        if table == "s":
            cur[watch] = 0
    return entries


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
    from s or q from r. Float mode reads each off the lumped chain on the
    origin and the unit sphere (``_lumped_formula``), in the SRW closed form,
    so float tables never feed the identity suite.
    """
    return FirstPassageTables(*(fn(kernel, n_max, mode) for fn in (
        first_return_sequence, sphere_taboo_sequence, sphere_first_return_sequence)))


# ---------------------------------------------------------------------------
# Float tables: the series route. Each is one division x^ ~ N/D (``_lumped_formula``), N
# times Newton's y ~ 1/D by middle products (``_inverse``), products by FFT above ``_SPLIT``
# (``_mul``), bounded from its residual (``_residual_bound``) by Higham's dot product bound or
# Percival's FFT bound (``_fft_error``), nonnegative products by cyclic majorants (``_majorant``).
# ---------------------------------------------------------------------------

_U = 2.0 ** -53


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff of float64."""
    return k * _U / (1.0 - k * _U)


def _round_up(x: np.ndarray) -> np.ndarray:
    """x, one rounding to nearest of a bound, moved up an ulp in place so that it
    bounds the exact value; an exact zero stays zero."""
    return np.nextafter(x, np.inf, out=x, where=x > 0.0)


class _Series(NamedTuple):
    """Float coefficients c[0..n] and a coefficientwise bound on their error."""

    c: np.ndarray
    err: np.ndarray


_SPLIT = 512  # np.convolve up to this many coefficients, the FFT past it
_BETA = _U  # assumed bound on the error of numpy's FFT twiddle factors (``_fft_error``)


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """First len(a) coefficients of a*b (len(b) == len(a)), by FFT past ``_SPLIT``.

    The FFT length is the least power of two >= 2n - 2. At 2n - 2 (n = 2^k + 1) only
    the top coefficient a[n-1] b[n-1] wraps, onto coefficient 0, and is taken off there.
    """
    n = len(a)
    if n <= _SPLIT:
        return np.convolve(a, b)[:n]
    size = 1 << (2 * n - 3).bit_length()
    out = np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:n]
    if size < 2 * n - 1:
        out[0] -= a[-1] * b[-1]
    return out


def _percival(a: np.ndarray, b: np.ndarray, size: int) -> float:
    """A bound on every coefficient's error in the cyclic convolution of a and b
    (zero-padded) by FFT of length ``size`` = 2^L: phi ||a||_2 ||b||_2, phi = (1+u)^3L
    (1+u sqrt5)^(3L+1) (1+beta)^3L - 1 for a radix-2 FFT with twiddle factors within
    beta of exact (Percival, Math. Comp. 72, 2003, Thm 5.1; Brent and Zimmermann,
    Modern Computer Arithmetic, 3.3.2); phi <= gamma_(3L + (3L+1) sqrt5 + 3L beta/u).
    Assumed, not proven: numpy's pocketfft (radices 2 and 4) meets it with beta =
    ``_BETA`` = u. Its rfft of the unit impulse at index 1, the twiddle factors, was
    within 2.3u of them up to 2^18 points; ``_mul``'s error on integer vectors at most
    2.8e-3 of this bound. The norms are ``np.sum``s of squares, with no BLAS: any order
    of adding n terms >= 0 is within gamma_(n-1) (Higham, 4.2), so with n 2^-1074 for
    underflow, gamma_(2n+8) covers the rounding of squares, sums, roots and products.
    """
    n, lg = len(a), size.bit_length() - 1
    phi = _gamma(3 * lg * (1 + _BETA / _U) + (3 * lg + 1) * math.sqrt(5)) * (1 + _gamma(2 * n + 8))
    return phi * math.prod(math.sqrt(float(np.sum(v * v)) + n * 2.0 ** -1074) for v in (a, b))


def _fft_error(a: np.ndarray, b: np.ndarray) -> float:
    """A bound on every coefficient's error in ``_mul(a, b)`` past ``_SPLIT``: Percival's
    term E at ``_mul``'s FFT length (``_percival``). Where a[n-1] b[n-1] wraps, taking it
    off coefficient 0 adds at most u E + gamma_2 (|a[n-1] b[n-1]| + |a[0] b[0]|), a[0] b[0]
    being that coefficient, and 2^-1074 per underflow; (1 + gamma_3) and 2^-1070 also
    cover this sum's own rounding."""
    n = len(a)
    size = 1 << (2 * n - 3).bit_length()
    err = _percival(a, b, size)
    if size < 2 * n - 1:
        err = ((1 + _gamma(3)) * (err + _gamma(2) * (abs(a[-1] * b[-1]) + abs(a[0] * b[0])))
               + 2.0 ** -1070)
    return err


def _majorant(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A coefficientwise upper bound on the first n = len(a) coefficients of a*b for
    a, b >= 0: their cyclic convolution by FFT of length S, the least power of two
    >= n + n/4, plus Percival's term at S (``_percival``, on the same ``_BETA``
    assumption). Every term that wraps onto a coefficient is a product of entries >= 0,
    so it only raises it; the margin n/4 keeps out the products of leading entries,
    which would raise a flat bound by up to 23 % at S = n."""
    n = len(a)
    size = 1 << (n + n // 4 - 1).bit_length()
    cyclic = np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:n]
    return cyclic + _percival(a, b, size)


def _inverse(den: np.ndarray) -> np.ndarray:
    """1/den through z^(len(den)-1) by Newton's iteration y <- y + y (1 - den y),
    which doubles the number of correct coefficients per round.

    A round from h to m coefficients past ``_SPLIT`` takes only e = (1 - den y)[h:m],
    the middle product (Hanrot, Quercia and Zimmermann, AAECC 2004): a cyclic product
    of length S = 2^ceil(log2 m) >= m wraps only onto coefficients below h. The same
    rfft of y then gives y e through z^(m-h-1), which has m - 1 <= S coefficients.
    """
    y = np.array([1.0 / den[0]])
    while len(y) < len(den):
        h, m = len(y), min(2 * len(y), len(den))
        if m <= _SPLIT:
            y = np.r_[y, np.zeros(m - h)]
            e = -_mul(den[:m], y)
            e[0] += 1.0
            y += _mul(y, e)
            continue
        size = 1 << (m - 1).bit_length()
        fy = np.fft.rfft(y, size)
        e = -np.fft.irfft(np.fft.rfft(den[:m], size) * fy, size)[h:m]
        y = np.r_[y, np.fft.irfft(fy * np.fft.rfft(e, size), size)[:m - h]]
    return y


def _residual_bound(num: _Series, den: _Series, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A coefficientwise bound on |x - num/den| for any x, from its residual.

    Truncated through z^(n-1), x - N/D = D^-1 (D x - N) exactly; y ~ 1/D stands in
    for D^-1, a factor 2 covers the second-order terms, and e_N, e_D are the inputs'
    errors. Up to ``_SPLIT`` coefficients r^ = N - D x is by dot products (gamma_{n+1}):
        |x - N/D| <= |D^-1| (|r^| + gamma_{n+1} (|D| |x| + |N|) + e_N + e_D |x|);
    past it D x is an FFT product off by at most E(D, x) (``_fft_error``), and the
    products of nonnegative series, e_D |x| and the one by |y|, are majorants
    M(a, b) >= a b (``_majorant``):
        |x - N/D| <= |D^-1| ((1 + gamma_1) |r^| + E(D, x) + e_N + M(e_D, |x|)).
    """
    n, ax = len(x), np.abs(x)
    if not (np.isfinite(num.err).all() and np.isfinite(den.err).all()):
        return np.full(n, np.inf)
    if n <= _SPLIT:
        g = _gamma(n + 1)
        local = (np.abs(num.c - _mul(den.c, x)) + _mul(g * np.abs(den.c) + den.err, ax)
                 + g * np.abs(num.c) + num.err)
        return 2.0 * _mul(np.abs(y), local)
    local = ((1 + _gamma(1)) * np.abs(num.c - _mul(den.c, x)) + _fft_error(den.c, x)
             + _majorant(den.err, ax) + num.err)
    return 2.0 * _majorant(np.abs(y), local)


def _log_self_conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c[m] = log sum_j exp(a[j] + b[m-j]) without leaving log space."""
    n = len(a)
    out = np.empty(n)
    for m in range(n):
        s = a[: m + 1] + b[m::-1]
        mx = s.max()
        out[m] = mx + math.log(float(np.sum(np.exp(s - mx))))
    return out


_SRW_FORMS: dict[int, _Series] = {}  # by d, the longest ``_srw_closed_form`` so far


def _srw_closed_form(d: int, n_max: int) -> _Series:
    """p_0..p_n_max of the SRW with per-entry error bounds (odd entries are 0),
    computed once per d and process: a request up to the longest so far is
    served as its read-only prefix, which equals a fresh result bit for bit,
    since every entry reads only earlier ones.

    d <= 3: exact recurrences on P_m = p_2m, rel bounding |P^_m - P_m| / P^_m.
    d=1: P_m = P_{m-1}(2m-1)/(2m); d=2: its square; d=3: 36 m^3 P_m =
    2(2m-1)(10m^2-10m+3) P_{m-1} - (m-1)(2m-1)(2m-3) P_{m-2}, run on the ratio
    t = P_m/P_{m-1}, which contracts (the other solution decays like 9^-m), so
    its error eta stays a few ulp. Only t and eta are loops; the coefficients,
    P_m = cumprod(t) and 1 + rho, a product, are vectors. d >= 4: p_2m =
    (2m)!/(2d)^{2m} sum over k_1+...+k_d=m of prod (k_i!)^-2, a log-space
    convolution, bound inf. The d=3 loop for eta runs on raised coefficients, and
    rel / (1 - rel) at d=3 and err = rel x P^_m round up (``_round_up``, the divisor
    rounded down), so each err bounds what its argument proves.
    """
    stored = _SRW_FORMS.get(d)
    if stored is not None and len(stored.c) > n_max:
        return _Series(stored.c[: n_max + 1], stored.err[: n_max + 1])
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
        # exact integers, each rounded once: a < 40 m^3 fits int64 below m = 2^19
        m = np.arange(1, m_max + 1, dtype=np.int64 if m_max < 2 ** 19 else object)
        a = (2 * (2 * m - 1) * (10 * m * m - 10 * m + 3)).astype(float)
        b = ((m - 1) * (2 * m - 1) * (2 * m - 3)).astype(float)
        c = (36 * m ** 3).astype(float)
        t, ts = 1.0, [1.0]  # a memoryview hands out Python floats one by one, with no list
        for ak, bk, ck in zip(a.data, b.data, c.data):
            t = (ak - bk / t) / ck
            ts.append(t)
        ts = np.array(ts)
        prev, t = ts[:-1], ts[1:]
        # eta_k = f_k + bc_k eta_(k-1) / (t (t - eta_(k-1))) rises in f, bc and eta. Rounded to
        # nearest, first keeps (1-u)^6 of itself, bc (1-u)^2, a loop step (1-u) of first and
        # (1-u)^5 of its quotient: raised by 1 + 8u >= (1-u)^-7, each e_k >= eta_k by induction
        first, bc = (1 + 8 * _U) * g6 * (a + b / prev) / c, (1 + 8 * _U) * (b / c)
        e, eta = 0.0, []
        for fk, bk, tk in zip(first.data, bc.data, prev.data):
            e = fk + bk * e / (tk * (tk - e))
            eta.append(e)
        eta = np.array(eta)
        big = np.r_[1.0, np.cumprod(t)]
        # 1 + rho_m = (1 + rho_(m-1)) (1 + eta/(t - eta)) (1 + u), (1 + u) for P_m's rounding,
        # as a running product X_m; rho_m = X_m - 1 is exact for 1 <= X_m < 2^53. Each of
        # X_m's five roundings (t - eta, the quotient, 1 + it, two products) may leave it low
        # by a factor 1 + u, so the factor is 1 + 8u, the least double >= (1 + u)^6
        steps = np.full(2 * m_max, 1.0 + 8 * _U)
        steps[::2] = 1.0 + eta / (t - eta)
        rel = np.r_[0.0, np.cumprod(steps)[1::2] - 1.0]
        rel = _round_up(rel / np.nextafter(1.0 - rel, 0.0))  # divisor rounded down
    else:
        base = -2.0 * np.vectorize(math.lgamma)(np.arange(m_max + 1) + 1.0)
        conv = base
        for _ in range(d - 1):
            conv = _log_self_conv(conv, base)
        big = np.array([math.exp(math.lgamma(2 * m + 1) - 2 * m * math.log(2 * d) + conv[m])
                        for m in range(m_max + 1)])
        rel = np.inf
    p, err = np.zeros(n_max + 1), np.zeros(n_max + 1)
    p[::2], err[::2] = big, _round_up(rel * big)
    p.flags.writeable = err.flags.writeable = False
    _SRW_FORMS[d] = _Series(p, err)
    return _SRW_FORMS[d]


def srw_return_sequence_float(d: int, n_max: int) -> SequenceTable:
    """SRW return probabilities p_0..p_n_max from the closed form, in floats."""
    return _float_table(srw_kernel(d), n_max, "p", "p")


@lru_cache(maxsize=None)
def _srw_exits(d: int) -> list[tuple[Point, set, Counter]]:
    """For O and then each unit vector x: the offsets onto B_1, and the SRW's law
    past B_1 after its next 2 - |x|_1 steps, as the number of paths onto each offset."""
    ball, exits = (origin(d), *unit_vectors(d)), []
    for x in ball:
        inner = {tuple(b - a for a, b in zip(x, y)) for y in ball}
        sums = (tuple(map(sum, zip(*steps)))
                for steps in product(ball[1:], repeat=2 - l1_norm(x)))
        exits.append((x, inner, Counter(o for o in sums if o not in inner)))
    return exits


def _lumped_steps(kernel: TransitionKernel) -> tuple[Fraction, ...]:
    """(a, b, c, beta, g, delta), read off the integer rows of O and the unit
    vectors (``TransitionKernel.int_row``); NoSeriesRouteError unless the kernel lumps."""
    exits, scale = _srw_exits(kernel.dimension), kernel.scale
    lumps = kernel.bulk == srw_kernel(kernel.dimension).bulk and all(
        l1_norm(x) <= 1 or row == kernel.bulk for x, row in kernel.perturbation.items())
    numbers = []  # per row, its mass onto O, onto S and past B_1
    for x, inner, law in exits:
        ints = kernel.int_row(x)
        past = {o: w for o, w in ints.items() if o not in inner}
        total, home, paths = sum(past.values()), ints.get(tuple(-c for c in x), 0), law.total()
        lumps &= past.keys() <= law.keys() and all(past.get(o, 0) * paths == n * total
                                                   for o, n in law.items())
        numbers.append((home, scale - home - total, total))
    if not lumps or len(set(numbers[1:])) > 1:
        raise NoSeriesRouteError(f"float mode has no series route for kernel {kernel.name!r}: "
                                 "its rows do not lump onto the origin and the unit sphere; "
                                 "use mode='exact'")
    return tuple(Fraction(w, scale) for w in numbers[0] + numbers[1])


@lru_cache(maxsize=None)
def _lumped_formula(steps: tuple[Fraction, ...], d: int, table: str):
    """(N, D, lead, factor): the table is lead z + factor N/D (q and s from z^1 on),
    N, D integer weights on (G, zM, zG, M, 1), M = (G-1)/z^2, z^2 M = G - 1 folded in.

    A walk past B_1 is an SRW until it re-enters, on S, so every excursion has
    the generating function kappa s: kappa = 2d/(2d-1), s = 1 - G/u the SRW's
    first return to S, u = 2d M. With Dr = delta kappa G + (1 - delta kappa -
    g z) u and Ns = -c kappa G + (c kappa + b z) u, renewal theory (Spitzer,
    Principles of Random Walk) gives r = u/Dr, s = g z + delta kappa (1 - G/u),
    q = a z + beta z Ns/Dr and p = Dr/((1 - a z) Dr - beta z Ns).
    """
    a, b, c, beta, g, delta = steps
    u = 2 * d
    A, C = delta * u / (u - 1), c * u / (u - 1)  # delta kappa, c kappa
    dr = (A, -u * g, 0, u * (1 - A), 0)
    num, den, lead, factor = {
        "p": (dr, (A + a * u * g - beta * u * b, -u * g - a * u * (1 - A) - beta * u * C,
                   beta * C - a * A, u * (1 - A), beta * u * b - a * u * g), 0, 1),
        "q": ((beta * u * b, beta * u * C, -beta * C, 0, -beta * u * b), dr, a, 1),
        "r": ((0, 0, 0, u, 0), dr, 0, 1),
        "s": ((1, 0, 0, 0, 0), (0, 0, 0, u, 0), g, -A),
    }[table]
    scale = math.lcm(*(Fraction(w).denominator for w in num + den))
    return (*(tuple(int(w * scale) for w in x) for x in (num, den)), lead, factor)


def _weighted(weights, basis: list[_Series]) -> _Series:
    """sum_i w_i basis_i for rational w_i, in order, zero weights skipped; gamma_k
    bounds the k - 1 additions and, unless each w is a power of two, w and w x."""
    terms = [(w, x) for w, x in zip(weights, basis) if w]
    k = len(terms) - 1 + 2 * any(abs(math.frexp(w)[0]) != 0.5 for w, _ in terms)
    c = err = mag = 0.0
    for w, x in terms:
        c, err, mag = c + float(w) * x.c, err + abs(float(w)) * x.err, mag + abs(float(w) * x.c)
    return _Series(c, err + _gamma(k) * mag)


def _float_table(kernel: TransitionKernel, n_max: int, table: str, name: str) -> SequenceTable:
    """Table p, q, r or s through z^n_max: one division, none if D is 1 (the SRW's p)."""
    d, n = kernel.dimension, max(n_max, 1)
    num, den, lead, factor = _lumped_formula(_lumped_steps(kernel), d, table)
    zg = [np.concatenate(([0.0], v)) for v in _srw_closed_form(d, n + 2)]  # z G
    basis = [*(_Series(zg[0][j: j + n + 1], zg[1][j: j + n + 1]) for j in (1, 2, 0, 3)),
             *(_Series(np.eye(1, n + 1, j)[0], np.zeros(n + 1)) for j in (0, 1))]
    out = _weighted(num, basis)  # basis: G, zM, zG, M, 1, z
    if den != (0, 0, 0, 0, 1):  # N/D as N y, y ~ 1/D, bounded for any quotient
        div = _weighted(den, basis)
        y = _inverse(div.c)
        x = _mul(out.c, y)
        out = _Series(x, _residual_bound(out, div, x, y))
    out = _weighted((factor, lead), [out, basis[5]])
    first = 0 if table in "pr" else 1
    return SequenceTable(name, d, first, out.c[first: n_max + 1].tolist(), 1, False, kernel.rate,
                         float(np.max(out.err[first: n_max + 1], initial=0.0)))


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
    Po(0) is the point mass at 0. The relative error is the rounding of the
    exponent's terms, so it grows about as mu log mu: against mpmath at 40
    digits, within 12 sd of the mean, it measured 2.2e-13 at mu = 100,
    1.2e-11 at 4000, 4.0e-11 at 1e4 and 1.1e-10 at 3e4."""
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
    about the relative error of ``_poisson_pmf``'s weights (1.7e-11 up to
    mu = 4000, 1.1e-10 at 3e4), and floored at the least normal double,
    since a subnormal weight keeps too few digits to stay above the tail.
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


_LOG_PMF_FLOOR = -800.0  # np.exp is exactly 0.0 below about -745.2


def _poisson_window(mu: float, lo: int, hi: int) -> tuple[int, int]:
    """(start, stop): the k in [lo, hi) with log Pr(Po(mu) = k) >= -800, for mu > 0.

    The log-pmf f(k) = k log mu - lgamma(k + 1) - mu is concave, with its
    maximum at k = floor(mu), so those k are one interval around that peak
    clamped to [lo, hi), found by bisection on each side; it is empty
    (start == stop) when f is below -800 at the clamped peak. Outside it
    f < -800, and ``_poisson_pmf``'s exponent is within far less than 1 of f,
    so np.exp of it is exactly 0.0: every weight dropped is an exact zero.
    """
    log_mu = math.log(mu)

    def live(k: int) -> bool:
        return k * log_mu - math.lgamma(k + 1) - mu >= _LOG_PMF_FLOOR

    peak = min(max(math.floor(mu), lo), hi - 1)
    if hi <= lo or not live(peak):
        return lo, lo
    dead, alive = lo - 1, peak  # the first live k is in (dead, alive]
    while alive - dead > 1:
        mid = (dead + alive) // 2
        dead, alive = (dead, mid) if live(mid) else (mid, alive)
    start, (alive, dead) = alive, (peak, hi)  # the last live k is in [alive, dead)
    while dead - alive > 1:
        mid = (dead + alive) // 2
        alive, dead = (mid, dead) if live(mid) else (alive, mid)
    return start, dead


def _outward(x: np.ndarray) -> list[float]:
    """x's entries from its largest |x_k| outward: that peak, then its
    neighbours one to the left and one to the right in turn, then what is
    left of the longer side.

    ``math.fsum`` is correctly rounded, so the order changes none of its bits;
    largest first keeps its list of partial sums short.
    """
    if not len(x):
        return []
    m = int(np.argmax(np.abs(x)))
    right, left = x[m:], x[:m][::-1]
    n = min(len(right), len(left))
    out = np.empty(len(x))
    out[:2 * n:2], out[1:2 * n:2] = right[:n], left[:n]
    out[2 * n:] = right[n:] if len(right) > n else left[n:]
    return out.tolist()


class PoissonizedValue(NamedTuple):
    value: float
    error: float


def poissonized_return(seq: SequenceTable, t: float, tol: float = 1e-12) -> PoissonizedValue:
    """e^{-mu} sum mu^n / n! * p_n, mu = seq.rate * t, with an error bound.

    The table's uniformization rate rescales time; raises
    SequenceTooShortError when the Poisson tail past the table is above tol.
    ``error`` is the proven tail bound (``_poisson_tail``) plus the table's
    ``error_bound`` plus the rounding of the N-term sum, gamma_{N+2} sum
    w_n |p_n|, N the table's length; the weights w_n themselves are evaluated
    to a measured 1.7e-11 relative up to mu = 4000, growing to 1.1e-10 at
    3e4 (``_poisson_pmf``), which is not in ``error``. Only the n in
    ``_poisson_window``, where log w_n >= -800, are weighed: every other w_n
    is exactly 0.0, and so is its term. ``math.fsum`` is correctly rounded,
    so adding the terms from the largest outward (``_outward``) gives the
    bits of the sum in index order, in a fraction of the time.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    mu = float(seq.rate) * t
    if mu == 0:
        return PoissonizedValue(float(seq[0]) if seq.first_index == 0 else 0.0, seq.error_bound)
    tail = _poisson_tail(seq.last_index, mu)
    if tail > tol:
        raise SequenceTooShortError(seq.last_index, required_poisson_order(mu, tol), tail, t)
    lo, hi = _poisson_window(mu, seq.first_index, seq.last_index + 1)
    entries = seq.floats(lo - seq.first_index, hi - seq.first_index)
    terms = _outward(_poisson_pmf(np.arange(lo, hi), mu) * entries)
    rounding = _gamma(len(seq) + 2) * math.fsum(map(abs, terms))
    return PoissonizedValue(math.fsum(terms), tail + seq.error_bound + rounding)


def potlach_contrast(d: int, times: Iterable[float]
                     ) -> tuple[SequenceTable, SequenceTable, list[float]]:
    """(coupled, independent, ratios): the potlach pairs' float return sequences and,
    per time t, their ratio Poissonized at the pairs' jump rate. Both tables run
    to ``required_poisson_order`` at the largest time and ``poissonized_return``'s
    default tol, the shortest that covers every t."""
    times = list(times)
    ind, coup = potlach_kernels(d)
    n_steps = required_poisson_order(float(coup.rate) * max(times), 1e-12)
    coupled = return_sequence(coup, n_steps, mode="float")
    independent = return_sequence(ind, n_steps, mode="float")
    ratios = [poissonized_return(coupled, t).value / poissonized_return(independent, t).value
              for t in times]
    return coupled, independent, ratios


def _cycle_weights(mu: float, side: int, tol: float) -> list[float]:
    """w_j = exp(-2 mu sin^2(pi j / side)) for j < J, the least J <= side//2 + 1 whose
    dropped tail 2 sum_{j >= J} w_j / side is at most tol: the w_j fall in j, so the
    tail is summed from the last one up. ``math`` gives them, not numpy's SIMD loops."""
    w = [math.exp(-2.0 * mu * math.sin(math.pi * j / side) ** 2) for j in range(side // 2 + 1)]
    dropped = sum(2.0 * tail / side <= tol for tail in accumulate(reversed(w)))
    return w[:max(1, len(w) - dropped)]


def heat_kernel(d: int, t: float, box: Box, start: Point | None = None,
                tol: float = 1e-12, dynamics: str = "averaging") -> np.ndarray:
    """Continuous-time SRW kernel h_t(start, .) on the box, indexed by coordinates
    shifted by +L: the expected field E eta_t of either dynamics from a point mass
    at ``start``. One dual walker jumps at lambda = ``WALK_RATE[dynamics]`` (1/2 for
    averaging, 1 for potlach) along a uniform one of the 2d directions, so its
    coordinates are independent walks on the cycle of side N = 2L+1, each at
    rate lambda/d, and h_t is the product of d copies of one cycle kernel rolled
    to the start's coordinates: over the torus's dual-grid modes,
    k(x) = (w_0 + 2 sum_{1 <= j < J} w_j cos(2 pi j x / N)) / N, mu = lambda t/d
    (``_cycle_weights``). The dropped modes weigh at most tol/d, so each entry is
    within about tol of h_t, up to rounding, and far entries can dip below 0 by
    that much. Each mode sums to 0 over the cycle, so the mass is w_0 = 1 up to a
    few ulps; t = 0 gives the exact point mass. The weights and the cosines, at
    the reduced angles 2 pi (j x mod N) / N, come from ``math`` and the sum is
    elementwise, so the bytes do not depend on numpy's SIMD dispatch.
    """
    start = origin(d) if start is None else start
    if not len(start) == d == box.dimension:
        raise ValueError("point dimension does not match box")
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be nonnegative and finite, got {t}")
    mu, side = WALK_RATE[dynamics] * t / d, box.side
    axis = np.zeros(side)
    if mu == 0:
        axis[box.radius] = 1.0
    else:
        w = _cycle_weights(mu, side, tol / d)
        cosines = np.array([math.cos(2.0 * math.pi * m / side) for m in range(side)])
        x = np.arange(-box.radius, box.radius + 1)
        for j in range(len(w) - 1, 0, -1):  # the smallest weights first
            axis += w[j] * cosines[j * x % side]
        axis = (w[0] + 2.0 * axis) / side
    data = np.ones(())
    for c in box.wrap(start):
        data = np.multiply.outer(data, np.roll(axis, c))
    return data
