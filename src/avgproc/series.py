"""Fixed-order power series over Q and the generating-function identity suite.

Everything here is exact: coefficients are Fractions, built only from ints
and Fractions (a float raises TypeError). A series is known through one
fixed order z^N, every sum and product is truncated at that N, and combining
series of different orders raises, so no truncation error can enter an
identity unnoticed. A product brings each factor to integer numerators over
the lcm of its denominators, convolves those ints, and makes one Fraction
per output coefficient, so the inner loop takes no gcd. An identity "holds"
only when its residual series is identically zero through z^N. The
identities tie the eight walk sequences (return, first return, sphere taboo,
sphere first return — for the plain SRW and for the perturbed difference
walk) to each other, so each DP pass independently cross-checks the others.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .kernels import avg_difference_kernel, potlach_kernels, srw_kernel
from .walks import SequenceTable, first_passage_sequences, return_sequence

#: identity-suite truncation orders used by the acceptance harness
DEFAULT_ORDERS = {1: 64, 2: 64, 3: 32}


def _numerators(coeffs) -> tuple[list[int], int]:
    """Integer numerators of ``coeffs`` over the lcm of their denominators, and that lcm."""
    den = math.lcm(*(v.denominator for v in coeffs))
    return [v.numerator * (den // v.denominator) for v in coeffs], den


@dataclass(frozen=True)
class RationalSeries:
    """A power series known exactly through z^order: order + 1 Fractions.

    Sums, differences, products and shifts are truncated at the same order;
    an ``int`` or ``Fraction`` operand acts as a constant series, any other
    coefficient or operand raises ``TypeError``, and two series of different
    orders do not combine (``ValueError``).
    """

    coeffs: tuple
    order: int

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be >= 0")
        for c in self.coeffs:  # a float or numpy scalar would enter rounded
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"exact series take int or Fraction values, "
                                f"not {type(c).__name__}")
        cs = [c if type(c) is Fraction else Fraction(c) for c in self.coeffs[: self.order + 1]]
        cs += [Fraction(0)] * (self.order + 1 - len(cs))
        object.__setattr__(self, "coeffs", tuple(cs))

    def first_nonzero(self):
        for k, v in enumerate(self.coeffs):
            if v:
                return k, v
        return None

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "RationalSeries":
        if not isinstance(other, RationalSeries):
            return RationalSeries((other,), self.order)
        if other.order != self.order:
            raise ValueError(f"series of orders {self.order} and {other.order} do not combine")
        return other

    def __add__(self, other) -> "RationalSeries":
        other = self._coerce(other)
        return RationalSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.order)

    __radd__ = __add__

    def __neg__(self) -> "RationalSeries":
        return RationalSeries(tuple(-v for v in self.coeffs), self.order)

    def __sub__(self, other) -> "RationalSeries":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RationalSeries":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "RationalSeries":
        if isinstance(other, (int, Fraction)):
            return RationalSeries(tuple(other * v for v in self.coeffs), self.order)
        other = self._coerce(other)
        n = self.order
        (a, da), (b, db) = _numerators(self.coeffs), _numerators(other.coeffs)
        terms = [(j, v) for j, v in enumerate(b) if v]
        out = [0] * (n + 1)
        for i, u in enumerate(a):
            if u:
                for j, v in terms:
                    if i + j > n:
                        break
                    out[i + j] += u * v
        den = da * db
        return RationalSeries(tuple(Fraction(v, den) for v in out), n)

    __rmul__ = __mul__

    def shift(self, k: int) -> "RationalSeries":
        """Multiply by z^k."""
        if k < 0:
            raise ValueError("shift must be >= 0")
        return RationalSeries((0,) * k + self.coeffs, self.order)

    def __repr__(self):
        head = ", ".join(str(v) for v in self.coeffs[:6])
        tail = ", ..." if len(self.coeffs) > 6 else ""
        return f"RationalSeries([{head}{tail}], O(z^{self.order + 1}))"


def series_from_sequence(table: SequenceTable, order: int | None = None) -> RationalSeries:
    """Generating function sum_n table[n] z^n as an exact truncated series."""
    if not table.exact:
        raise ValueError(f"table {table.name!r} is float-valued; identities need exact mode")
    if order is None:
        order = table.last_index
    if order > table.last_index:
        raise ValueError(
            f"table {table.name!r} has entries to n={table.last_index}, need n={order}")
    return RationalSeries(tuple(table[n] if n >= table.first_index else 0
                                for n in range(order + 1)), order)


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one generating-function identity check."""

    name: str
    dimension: int
    order: int
    residual: RationalSeries

    @property
    def ok(self) -> bool:
        return self.first_defect is None

    @property
    def first_defect(self):
        return self.residual.first_nonzero()

    def csv_row(self) -> tuple:
        defect = self.first_defect
        return (self.name, self.dimension, self.order, "ok" if self.ok else "fail",
                *(("", "") if defect is None else (defect[0], str(defect[1]))))

    def summary(self) -> str:
        if self.ok:
            return f"{self.name} (d={self.dimension}): residual == 0 through z^{self.order}"
        k, v = self.first_defect
        return (f"{self.name} (d={self.dimension}): FAILS, first nonzero "
                f"coefficient {v} at z^{k}")


def _report(name: str, d: int, residual: RationalSeries) -> IdentityReport:
    return IdentityReport(name, d, residual.order, residual)


def gf_tables(d: int, n_max: int) -> dict[str, SequenceTable]:
    """All eight exact sequence tables used by the identity suite."""
    pert = avg_difference_kernel(d)
    srw = srw_kernel(d)
    out = {"p_tilde": return_sequence(pert, n_max),
           "p": return_sequence(srw, n_max)}
    qt, rt, st = first_passage_sequences(pert, n_max)
    q, r, s = first_passage_sequences(srw, n_max)
    out.update(q_tilde=qt, r_tilde=rt, s_tilde=st, q=q, r=r, s=s)
    return out


def verify_gf_relations(d: int, n_max: int,
                        tables: dict[str, SequenceTable] | None = None) -> list[IdentityReport]:
    """Check the ten denominator-cleared series identities through z^n_max.

    Every identity is evaluated as an exact residual series; a report is "ok"
    only when every computable coefficient vanishes. The sequences entering
    each identity come from independent DP passes, so a bug in any one of the
    kill/record rules shows up as a nonzero residual here.
    """
    if tables is None:
        tables = gf_tables(d, n_max)
    G = series_from_sequence(tables["p"], n_max)
    Gt = series_from_sequence(tables["p_tilde"], n_max)
    Q = series_from_sequence(tables["q"], n_max)
    Qt = series_from_sequence(tables["q_tilde"], n_max)
    R = series_from_sequence(tables["r"], n_max)
    Rt = series_from_sequence(tables["r_tilde"], n_max)
    S = series_from_sequence(tables["s"], n_max)
    St = series_from_sequence(tables["s_tilde"], n_max)

    z = RationalSeries((0, 1), n_max)
    half = Fraction(1, 2)
    omz2 = (1 - z) * (1 - z)          # (1-z)^2

    checks: list[tuple[str, RationalSeries]] = [
        ("gtilde-from-g", Gt * (1 - omz2 * G) - (1 - (1 - 2 * z) * G)),
        ("renewal-perturbed", Gt - 1 - Gt * Qt),
        ("skeleton-perturbed", Qt - half * z - Fraction(1, 8 * d) * Rt.shift(2)),
        ("sphere-renewal-perturbed", Rt - 1 - Rt * St),
        ("gtilde-from-s",
         Gt * ((1 - half * z) * (1 - St) - Fraction(1, 8 * d) * z.shift(1)) - (1 - St)),
        ("stilde-from-s", St - Fraction(1, 4 * d) * z - S),
        ("s-from-g", 2 * d * S * (G - 1) - 2 * d * (G - 1) + G.shift(2)),
        ("renewal-srw", G - 1 - G * Q),
        ("skeleton-srw", 2 * d * Q - R.shift(2)),
        ("sphere-renewal-srw", R - 1 - R * S),
    ]
    return [_report(name, d, res) for name, res in checks]


def verify_closed_form_d1(n_max: int = 64) -> list[IdentityReport]:
    """d=1 SRW: p_2m = C(2m, m)/4^m, i.e. G(z) = (1 - z^2)^(-1/2).

    Checked two ways: coefficientwise against the central binomial numbers,
    and algebraically as (1 - z^2) G^2 - 1 == 0.
    """
    p = return_sequence(srw_kernel(1), n_max)
    G = series_from_sequence(p, n_max)
    closed = [Fraction(math.comb(n, n // 2), 2**n) if n % 2 == 0 else Fraction(0)
              for n in range(n_max + 1)]
    direct = G - RationalSeries(tuple(closed), n_max)
    z2 = RationalSeries((0, 0, 1), n_max)
    algebraic = (1 - z2) * G * G - 1
    return [_report("central-binomial-d1", 1, direct),
            _report("closed-form-square-d1", 1, algebraic)]


def verify_potlach_relation(d: int, n_max: int = 48) -> IdentityReport:
    """Coupled/independent relation for the uniform-redistribution dynamics.

    With G the independent-pair return GF (plain SRW skeleton) and Gt the
    coupled-pair one: Gt (1 - (1-z)^2 G) - 2 z G == 0.
    """
    ind, coup = potlach_kernels(d)
    G = series_from_sequence(return_sequence(ind, n_max), n_max)
    Gt = series_from_sequence(return_sequence(coup, n_max), n_max)
    z = RationalSeries((0, 1), n_max)
    res = Gt * (1 - (1 - z) * (1 - z) * G) - 2 * z * G
    return _report(f"potlach-coupling-d{d}", d, res)
