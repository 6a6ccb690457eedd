"""Free-probability limit objects and asymptotic-regime checks: block-count
generating polynomials of the non-crossing lattice, free Poisson moments,
the proportional M = t*N regime, and the large-argument decay estimates.

Estimates are evaluated in log space so that N^N and (pi*p)^(N-1) survive
large arguments.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError, _check_budget, _name, _validate_pos
from .limits import delta_exact
from .partitions import _narayana_profile


@dataclass(frozen=True)
class StirlingPolynomial:
    """Block-count profile of the non-crossing partitions of {0,...,p-1}:
    coefficient k is the number of such partitions with k blocks."""

    p: int
    coefficients: tuple[int, ...]  # index k = 1..p; coefficients[0] unused

    def __post_init__(self):
        # __call__ prices its Horner loop by p, so the loop must have p steps
        _validate_pos(p=self.p)
        if len(self.coefficients) != self.p + 1:
            raise ParameterError(f"a profile of p={_name(self.p)} has p + 1 coefficients, "
                                 f"got {len(self.coefficients)}")

    def __call__(self, t: Fraction | int) -> Fraction:
        # Horner's rule over the integers, t = u / v, and one gcd at the end
        u, v = Fraction(t).as_integer_ratio()
        _check_budget(f"block-count polynomial of p={_name(self.p)}", _horner_cost(self.p, u, v))
        acc, v_power = 0, 1
        for coefficient in self.coefficients[:0:-1]:
            acc, v_power = acc * u + coefficient * v_power, v_power * v
        return Fraction(acc * u, v_power)

    def catalan_total(self) -> int:
        return sum(self.coefficients[1:])


def stirling_polynomial(p: int) -> StirlingPolynomial:
    """Exact block-count profile of the non-crossing partitions."""
    _validate_pos(p=p)
    # p ratio steps on integers of up to 2p bits
    _check_budget(f"Narayana profile of p={_name(p)}",
                  p * (1 + 2 * p // sys.int_info.bits_per_digit))
    return StirlingPolynomial(p, tuple(_narayana_profile(p)))


def free_poisson_moment(t: Fraction | int, p: int) -> Fraction:
    """p-th moment of the free Poisson (Marchenko-Pastur) law of parameter
    t: the block-count polynomial of the non-crossing lattice at t."""
    t = Fraction(t)
    if t <= 0:
        raise ParameterError(f"t must be positive, got {_name(t)}")
    _validate_pos(p=p)
    _check_budget(f"free Poisson moment at p={_name(p)}", _horner_cost(p, *t.as_integer_ratio()))
    return stirling_polynomial(p)(t)


def _horner_cost(p: int, u: int, v: int) -> int:
    # p Horner steps, each multiplying integers of up to p (2 + bits of t)
    # bits by the digits of t = u / v
    bits, digit = u.bit_length() + v.bit_length(), sys.int_info.bits_per_digit
    return p * (1 + p * (bits + 2) // digit) * (1 + bits // digit)


@dataclass(frozen=True)
class RegimeRow:
    N: int
    M: int
    p: int
    delta: Fraction
    predicted: Fraction  # S_p(t) * M^-p * N
    rel_error: float
    char_moment: Fraction  # M^(p-1) * delta / N, the p-th moment of chi/N
    char_predicted: Fraction  # S_p(t) / M


@dataclass(frozen=True)
class RegimeReport:
    t: Fraction
    p: int
    rows: tuple[RegimeRow, ...]


def regime_check(t: Fraction | int, p: int, N_values: list[int]) -> RegimeReport:
    """Exact limiting moments along M = t*N versus the proportional-regime
    prediction S_p(t) * M^-p * N, with relative errors tabulated; also
    tabulates the chi/N moment M^(p-1) delta / N against S_p(t) / M."""
    t = Fraction(t)
    _validate_pos(p=p)
    moment = free_poisson_moment(t, p)
    rows = []
    for N in N_values:
        _validate_pos(N=N)
        M_exact = t * N
        if M_exact.denominator != 1 or M_exact < 1:
            raise ParameterError(f"t*N = {_name(M_exact)} is not a positive integer")
        M = int(M_exact)
        delta = delta_exact(M, N, p)
        predicted = moment * Fraction(N, M**p)
        rel = float(abs(delta - predicted) / predicted)
        rows.append(RegimeRow(
            N=N, M=M, p=p, delta=delta, predicted=predicted, rel_error=rel,
            char_moment=Fraction(M**(p - 1), N) * delta,
            char_predicted=moment / M))
    return RegimeReport(t=t, p=p, rows=tuple(rows))


def richmond_shallit(N: int, k: int) -> float:
    """Large-k estimate sqrt(N^N / (4 pi k)^(N-1)) of the normalized 2k-th moment
    of |q_1 + ... + q_N| / N: the decay law at p = 4k (4 pi k rounds like pi 4k)."""
    _validate_pos(N=N, k=k)
    return delta_decay_estimate(N, 4 * k)


def delta_decay_estimate(N: int, p: int) -> float:
    """Large-p estimate sqrt(N^N / (pi p)^(N-1)) of the two-row limiting
    moment delta_p(2, N); at N = 2 this is 2 / sqrt(pi p). It is math.inf
    past the float range, and an N or p past it is taken by its logarithm."""
    _validate_pos(N=N, p=p)
    if N == 1:
        return 1.0
    log_x = math.log(math.pi * p) if p.bit_length() < 1000 else math.log(math.pi) + math.log(p)
    try:
        return math.exp(0.5 * (N * math.log(N) - (N - 1) * log_x))
    except OverflowError:  # N^N wins unless pi p outgrows N
        return math.inf if math.log(N) >= log_x else 0.0
