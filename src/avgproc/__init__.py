"""Exact and Monte Carlo laboratory for mass-averaging dynamics on Z^d."""

from .lattice import Box, Point, ball, l1_norm, origin, sphere, unit_vectors
from .kernels import (
    TransitionKernel,
    avg_difference_kernel,
    difference_kernel_from_pair_rates,
    pair_transition_rates,
    potlach_kernels,
    srw_kernel,
)
from .walks import (
    FirstPassageTables,
    PoissonizedValue,
    SequenceTable,
    SequenceTooShortError,
    first_passage_sequences,
    first_return_sequence,
    heat_kernel,
    poissonized_return,
    return_sequence,
    sphere_first_return_sequence,
    sphere_taboo_sequence,
    srw_return_sequence_float,
)

__version__ = "0.1.0"
