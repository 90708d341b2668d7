"""Fixed-order power series over Q and the generating-function identity suite.

Everything here is exact: coefficients are rationals, built only from ints
and Fractions (a float raises TypeError). A series is known through one
fixed order z^N, every sum and product is truncated at that N, and combining
series of different orders raises, so no truncation error can enter an
identity unnoticed. A series holds integer numerators over one common
denominator: a sum scales both to the lcm of the denominators, a product
convolves the ints and multiplies the denominators, and each result is
reduced by one gcd over all its numerators, so no operation makes a
Fraction per coefficient, nor does an exact walk table's becoming a series
(``series_from_sequence``); ``coeffs`` makes them on request. An identity "holds"
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


@dataclass(frozen=True)
class RationalSeries:
    """A power series known exactly through z^order: order + 1 coefficients,
    held as integer numerators ``num`` over one denominator ``den`` > 0 that
    shares no factor with all of them, so equal series hold equal fields.

    Sums, differences, products and shifts are truncated at the same order;
    an ``int`` or ``Fraction`` operand acts as a constant series, any other
    coefficient or operand raises ``TypeError``, and two series of different
    orders do not combine (``ValueError``). ``coeffs`` gives the Fractions.
    """

    num: tuple
    den: int
    order: int

    def __init__(self, coeffs, order: int):
        if order < 0:
            raise ValueError("order must be >= 0")
        for c in coeffs:  # a float or numpy scalar would enter rounded
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"exact series take int or Fraction values, "
                                f"not {type(c).__name__}")
        cs = list(coeffs[: order + 1])
        cs += [0] * (order + 1 - len(cs))
        den = math.lcm(*(c.denominator for c in cs))  # reduced, as each c is
        object.__setattr__(self, "num", tuple(c.numerator * (den // c.denominator) for c in cs))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "order", order)

    @classmethod
    def _of(cls, num, den: int, order: int) -> "RationalSeries":
        """The series num[k] / den, reduced by one gcd over the whole series."""
        g = math.gcd(den, *num)
        out = object.__new__(cls)
        object.__setattr__(out, "num", tuple(v // g for v in num) if g > 1 else tuple(num))
        object.__setattr__(out, "den", den // g)
        object.__setattr__(out, "order", order)
        return out

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(v, self.den) for v in self.num)

    def first_nonzero(self):
        for k, v in enumerate(self.num):
            if v:
                return k, Fraction(v, self.den)
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
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return self._of([u * a + v * b for u, v in zip(self.num, other.num)], den, self.order)

    __radd__ = __add__

    def __neg__(self) -> "RationalSeries":
        return self._of([-v for v in self.num], self.den, self.order)

    def __sub__(self, other) -> "RationalSeries":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RationalSeries":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "RationalSeries":
        if isinstance(other, (int, Fraction)):
            return self._of([other.numerator * v for v in self.num],
                            other.denominator * self.den, self.order)
        other = self._coerce(other)
        n = self.order
        terms = [(j, v) for j, v in enumerate(other.num) if v]
        out = [0] * (n + 1)
        for i, u in enumerate(self.num):
            if u:
                for j, v in terms:
                    if i + j > n:
                        break
                    out[i + j] += u * v
        return self._of(out, self.den * other.den, n)

    __rmul__ = __mul__

    def shift(self, k: int) -> "RationalSeries":
        """Multiply by z^k."""
        if k < 0:
            raise ValueError("shift must be >= 0")
        return self._of(((0,) * k + self.num)[: self.order + 1], self.den, self.order)

    def __repr__(self):
        head = ", ".join(str(Fraction(v, self.den)) for v in self.num[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"RationalSeries([{head}{tail}], O(z^{self.order + 1}))"


def series_from_sequence(table: SequenceTable, order: int) -> RationalSeries:
    """Generating function sum_n table[n] z^n through z^order as an exact series."""
    if not table.exact:
        raise ValueError(f"table {table.name!r} is float-valued; identities need exact mode")
    if order > table.last_index:
        raise ValueError(
            f"table {table.name!r} has entries to n={table.last_index}, need n={order}")
    return RationalSeries._of(([0] * table.first_index + table.num)[: order + 1], table.den, order)


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one generating-function identity check."""

    name: str
    dimension: int
    residual: RationalSeries

    @property
    def order(self) -> int:
        return self.residual.order

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
    names = ("p", "p_tilde", "q", "q_tilde", "r", "r_tilde", "s", "s_tilde")
    G, Gt, Q, Qt, R, Rt, S, St = (series_from_sequence(tables[k], n_max) for k in names)

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
    return [IdentityReport(name, d, res) for name, res in checks]


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
    return [IdentityReport("central-binomial-d1", 1, direct),
            IdentityReport("closed-form-square-d1", 1, algebraic)]


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
    return IdentityReport(f"potlach-coupling-d{d}", d, res)
