"""Exact and Monte Carlo moments of the main character for deformed
Fourier matrix models.

The exact side counts index configurations with big-integer rational
arithmetic; the numerical side builds the matrix model (Hadamard fibers,
magic unitaries, transfer matrices) and estimates the same quantities by
seeded Monte Carlo, so each route cross-validates the other.
"""

__version__ = "0.1.0"

from .errors import BudgetError, CrossCheckError, ParameterError, ValidationError, budget
from .partitions import (
    SetPartition,
    enumerate_partitions,
    noncrossing_partitions,
    is_noncrossing,
    kreweras_complement,
    shift_block,
    triangle_relation,
)
from .truncated import (
    counting_condition,
    count_d,
    c_from_d,
    alpha,
    beta,
    d42_closed,
    closed_form_is_exact,
    solution_set,
    base_condition,
    i_tuple_probability,
)
from .limits import (
    DecompositionReport,
    delta_direct,
    delta_partition,
    delta_exact,
    delta_binomial,
    epsilon,
    decompose,
    moment_integral,
    delta_m2,
    delta_m2_float,
    delta_upper_bound,
)
from .model import (
    PhaseMatrix,
    HadamardFiber,
    MagicUnitary,
    fourier_matrix,
    flat_phase_matrix,
    random_phase_matrix,
    dita_deform,
    magic_unitary,
    transfer_fiber,
    mc_estimate_c,
    mc_estimate_delta,
)
from .asymptotics import (
    StirlingPolynomial,
    RegimeReport,
    stirling_polynomial,
    free_poisson_moment,
    regime_check,
    richmond_shallit,
    delta_decay_estimate,
)
