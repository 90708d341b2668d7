"""Large-n behaviour of the return sequences: constants and validation.

The return probabilities decay on the diffusive scale (2 pi n / d)^{d/2}
(the walks make unit jumps along a uniformly chosen axis, so the per-axis
variance is 1/d). On that scale the plain SRW sequence tends to 2 along even
n, while the perturbed difference walk loses the parity constraint: in d >= 3
its rescaled entries oscillate around 1 with amplitude 1/(4 alpha_d - 1)^2,
where alpha_d = G_d(1) is the total return mass of the transient SRW.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .lattice import check_dimension
from .walks import SequenceTable, srw_return_sequence_float


def beta_constant(d: int) -> float:
    """Leading constant of the smooth singular part of the return GF.

    Odd d:  d^{d/2} Gamma(-(d-2)/2) / (2 pi)^{d/2}   (b_1 = 1/sqrt 2)
    Even d: d^{d/2} (-1)^{(d-2)/2} / (Gamma(d/2) (2 pi)^{d/2})   (b_2 = 1/pi)

    The sign alternates with d; only the magnitude enters the validation of
    the sequences, but the signed value is what multiplies (1-z)^{(d-2)/2}.
    """
    check_dimension(d)
    scale = d ** (d / 2.0) / (2 * math.pi) ** (d / 2.0)
    if d % 2 == 1:
        return scale * math.gamma(-(d - 2) / 2.0)
    return scale * (-1.0) ** ((d - 2) // 2) / math.gamma(d / 2.0)


class AlphaEstimate(NamedTuple):
    value: float
    error: float
    partial_sum: float
    tail_constant: float
    n_max: int


def alpha_return_total(d: int, n_max: int = 20000,
                       sequence: SequenceTable | None = None) -> AlphaEstimate:
    """alpha_d = sum_n p_n = G_d(1), with an estimated tail.

    Only makes sense for transient dimensions (d >= 3); the sum diverges for
    d <= 2. The tail past n_max is estimated as C * sum_{even n > n_max}
    n^{-d/2} with the heuristic C = 1.5 * max(p_n n^{d/2}) over the last
    computed quarter (the rescaled sequence is eventually flat; 1.5 is a
    margin, not a proof). The value is the midpoint of [partial,
    partial + tail] and ``error`` its radius: an estimate, not a bound.
    """
    if d < 3:
        raise ValueError(f"sum_n p_n diverges for d={d}: the walk is recurrent")
    if sequence is None:
        sequence = srw_return_sequence_float(d, n_max)
    n_max = sequence.last_index
    partial = math.fsum(sequence.entries)

    lo = max(2, n_max - n_max // 4)
    rescaled = [sequence[n] * n ** (d / 2.0) for n in range(lo, n_max + 1) if n % 2 == 0]
    c_tail = 1.5 * max(rescaled)
    m = n_max // 2  # tail over even n > n_max: sum_{k > m} (2k)^{-d/2}
    tail = c_tail * 2.0 ** (-d / 2.0) * m ** (1 - d / 2.0) / (d / 2.0 - 1.0)
    return AlphaEstimate(partial + tail / 2.0, tail / 2.0, partial, c_tail, n_max)


def oscillation_amplitude(alpha: float) -> float:
    """Relative size 1/(4 alpha - 1)^2 of the even/odd parity oscillation."""
    return 1.0 / (4.0 * alpha - 1.0) ** 2


@dataclass(frozen=True)
class AsymptoticConstants:
    """The constants entering the large-n model for one dimension."""

    dimension: int
    beta: float
    alpha: float | None = None
    alpha_error: float = 0.0
    oscillation: float = 0.0

    @classmethod
    def compute(cls, d: int, n_max: int = 20000) -> "AsymptoticConstants":
        if d >= 3:
            a = alpha_return_total(d, n_max)
            return cls(d, beta_constant(d), a.value, a.error,
                       oscillation_amplitude(a.value))
        return cls(d, beta_constant(d))


class AsymptoticsRow(NamedTuple):
    n: int
    value: float
    rescaled: float       # value * (2 pi n / d)^{d/2}
    target: float
    deviation: float      # rescaled - target

    def csv_row(self) -> tuple:
        return (self.n, *map(repr, self[1:]))


def asymptotics_check(seq: SequenceTable, ns: list[int] | None = None,
                      constants: AsymptoticConstants | None = None) -> list[AsymptoticsRow]:
    """Rescale entries onto the diffusive scale and compare with the model.

    Parity-respecting sequences (plain SRW: odd entries all zero) are checked
    along even n against the target 2. Aperiodic sequences (the perturbed
    difference walk) are checked at every n against 1 + (-1)^n * osc, where
    osc is the d >= 3 oscillation amplitude and 0 in the recurrent dimensions.
    """
    d = seq.dimension
    if constants is None:
        constants = AsymptoticConstants.compute(d)
    parity = all(float(seq[n]) == 0.0 for n in range(seq.first_index, seq.last_index + 1) if n % 2 == 1)
    if ns is None:
        hi = seq.last_index
        ns = sorted({max(seq.first_index, hi // 4), hi // 2, (3 * hi) // 4, hi - 1, hi})
    rows = []
    for n in ns:
        if n < max(seq.first_index, 1) or n > seq.last_index:
            raise IndexError(f"n={n} outside table range {seq.first_index}..{seq.last_index}")
        if parity and n % 2 == 1:
            continue
        v = float(seq[n])
        rescaled = v * (2 * math.pi * n / d) ** (d / 2.0)
        target = 2.0 if parity else 1.0 + (-1.0) ** n * constants.oscillation
        rows.append(AsymptoticsRow(n, v, rescaled, target, rescaled - target))
    return rows
