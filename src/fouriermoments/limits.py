"""Exact limiting moments delta_p(M, N) by three independent routes, the
pair-compatibility probabilities epsilon_p(s, t), the per-block-count
contribution decomposition, and the two-row (M = 2) phase-moment formulas.

All exact values are `fractions.Fraction`; the floating path exists only
for large-p evaluation and is validated against the exact one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParameterError
from .partitions import stirling_number, triangle_pair_counts
from .truncated import (DEFAULT_BUDGET, _check_budget, _is_int, _order_histogram,
                        _validate_mn, _validate_pos)

# Exact binomial-route evaluation is refused above this p; the floating
# evaluator covers the large-p regime instead.
FLOAT_P_CAP = 10**6


def delta_direct(M: int, N: int, p: int, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Exact fraction of (a, b) index pairs satisfying the base multiset
    condition {(a_y, b_y)}_y = {(a_y, b_{y+1})}_y, by direct enumeration:
    the pairs whose solution set is all of Z_M."""
    _validate_mn(M, N)
    _validate_pos(p=p)
    # The histogram counts the pairs with a_1 = b_1 = 0; the condition is
    # translation invariant in a and in b separately, so scale by M*N.
    hits = _order_histogram(M, N, p, budget).get(M, 0)
    return Fraction(hits * M * N, (M * N)**p)


def delta_partition(M: int, N: int, p: int, budget: int = DEFAULT_BUDGET) -> Fraction:
    """The limiting moment as a sum over shift-compatible partition pairs,
    weighted by falling factorials of M and N; 1 when a side has one row."""
    _validate_mn(M, N)
    _validate_pos(p=p)
    if M == 1 or N == 1:
        return Fraction(1)
    table = triangle_pair_counts(p, min(p, M), min(p, N), budget)
    total = sum(math.perm(M, s) * math.perm(N, t) * pairs for (s, t), pairs in table.items())
    return Fraction(total, (M * N)**p)


def epsilon(p: int, s: int, t: int) -> Fraction:
    """Probability that a uniform pair of partitions with |pi| = s and
    |sigma| = t is shift-compatible."""
    _validate_pos(p=p, s=s, t=t)
    if s > p or t > p:
        raise ParameterError(f"block counts must satisfy s, t <= p, got {(s, t)}")
    pairs = triangle_pair_counts(p, s, t)[(s, t)]
    return Fraction(pairs, stirling_number(p, s) * stirling_number(p, t))


@dataclass
class DecompositionReport:
    """Limiting moment split into block-count contributions.

    contributions[(s, t)] is the exact mass carried by pairs with s blocks
    on the a-side and t on the b-side; their sum is the limiting moment.
    """

    M: int
    N: int
    p: int
    contributions: dict[tuple[int, int], Fraction]
    epsilon: dict[tuple[int, int], Fraction]
    total: Fraction

    def row_sum(self, s: int) -> Fraction:
        return sum((v for (si, _), v in self.contributions.items() if si == s),
                   Fraction(0))

    def column_sum(self, t: int) -> Fraction:
        return sum((v for (_, ti), v in self.contributions.items() if ti == t),
                   Fraction(0))


def decompose(M: int, N: int, p: int) -> DecompositionReport:
    """Populate the full (s, t) contribution table
    falling(M,s) * S_ps / M^p * falling(N,t) * S_pt / N^p * epsilon_p(s,t)
    for s <= min(p, M), t <= min(p, N)."""
    _validate_mn(M, N)
    _validate_pos(p=p)
    smax, tmax = min(p, M), min(p, N)
    table = triangle_pair_counts(p, smax, tmax)
    contributions: dict[tuple[int, int], Fraction] = {}
    eps: dict[tuple[int, int], Fraction] = {}
    total = Fraction(0)
    for s in range(1, smax + 1):
        for t in range(1, tmax + 1):
            pairs = table[(s, t)]
            eps[(s, t)] = Fraction(pairs, stirling_number(p, s) * stirling_number(p, t))
            contributions[(s, t)] = Fraction(
                math.perm(M, s) * math.perm(N, t) * pairs, (M * N)**p)
            total += contributions[(s, t)]
    return DecompositionReport(M=M, N=N, p=p, contributions=contributions,
                               epsilon=eps, total=total)


def moment_integral(N: int, k: int, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Normalized 2k-th moment of |q_1 + ... + q_N| / N over independent
    uniform phases: N^(-2k) * sum over compositions of k into N parts of the
    squared multinomial coefficient."""
    _validate_pos(N=N)
    if not (_is_int(k) and k >= 0):
        raise ParameterError(f"k must be a nonnegative integer, got {k!r}")
    if k == 0 or N == 1:
        return Fraction(1)
    if N == 2:
        return Fraction(math.comb(2 * k, k), 4**k)
    return Fraction(_squared_multinomial_row(N, k, budget)[k], N**(2 * k))


def _squared_multinomial_row(N: int, k: int, budget: int) -> list[int]:
    """A_N(m) for m = 0..k: the sum over compositions of m into N parts of
    the squared multinomial coefficient."""
    # About N (k + 1)^2 bigint products, each of integers of up to 2k log2 N
    # bits (A_N(m) <= N^(2m)), which the interpreter multiplies digit by digit.
    digits = 1 + math.ceil(2 * k * math.log2(N) / sys.int_info.bits_per_digit)
    _check_budget("squared-multinomial dynamic program", N * (k + 1)**2 * digits, budget)
    # A_1(m) = 1 and A_2(m) = C(2m, m); peeling the last part gives
    # A_N(m) = sum_i C(m, i)^2 * A_{N-1}(m - i).
    row = [math.comb(2 * m, m) if N > 1 else 1 for m in range(k + 1)]
    for _ in range(N - 2):
        row = [sum(math.comb(m, i)**2 * row[m - i] for i in range(m + 1))
               for m in range(k + 1)]
    return row


def delta_m2(N: int, p: int, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Exact limiting moment at M = 2 through the binomial route:
    2^(1-p) * sum_k C(p, 2k) * moment_integral(N, k)."""
    _validate_pos(N=N, p=p)
    kmax = p // 2
    row = _squared_multinomial_row(N, kmax, budget)
    # moment_integral(N, k) = row[k] / N^(2k), over the common denominator.
    total = sum(math.comb(p, 2 * k) * row[k] * N**(2 * (kmax - k))
                for k in range(kmax + 1))
    return Fraction(total, 2**(p - 1) * N**(2 * kmax))


def delta_binomial(M: int, N: int, p: int, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Exact limiting moment through the binomial route, which needs a side
    equal to 2. The pair-compatibility problem is symmetric in the two
    sides, so a two-row N works the same as a two-row M."""
    _validate_mn(M, N)
    if M == 2:
        return delta_m2(N, p, budget)
    if N == 2:
        return delta_m2(M, p, budget)
    raise ParameterError("the binomial route requires M = 2 or N = 2")


def delta_m2_float(N: int, p: int) -> float:
    """Floating evaluation of delta_m2 for large p via log-gamma, summing the
    terms in descending magnitude with compensated summation. For N >= 3,
    A_N(m) = m!^2 [z^m] f(z)^N with f(z) = sum_i z^i / i!^2, and f^N comes
    by FFT squaring in O(p log p log N), at FFT lengths of at most 2p + 4.
    Relative error is below 1e-9 against the exact route for p <= 200."""
    _validate_pos(N=N, p=p)
    if p > FLOAT_P_CAP:
        raise ParameterError(f"p={p} exceeds the floating-path cap {FLOAT_P_CAP}")
    if N == 1:
        return 1.0
    kmax = p // 2
    lf = np.array([math.lgamma(n + 1) for n in range(p + 1)])
    ks = np.arange(kmax + 1)
    log_comb = lf[p] - lf[2 * ks] - lf[p - 2 * ks]
    weights, log_a = 1.0, lf[2 * ks] - 2 * lf[ks]  # log A_2(k) = log C(2k, k)
    if N > 2:
        # Tilt by x^m so the coefficients peak where the terms do. The terms
        # are moments of ((1 + R)^p + (1 - R)^p) / 2, R = |q_1 + ... + q_N| / N,
        # dominated by R = 1 (k = p / 4) if N <= p / 4, else by 2NR(1 + R) = p.
        r = min(1.0, (math.sqrt(1 + 2 * p / N) - 1) / 2)
        log_x = 2 * math.log(p / (2 * N * (1 + r)))
        weights, log_scale = _tilted_power(ks * log_x - 2 * lf[ks], N)
        log_a = log_scale - ks * log_x + 2 * lf[ks]
    log_terms = log_comb - (p - 1) * math.log(2.0) + (log_a - 2 * ks * math.log(N))
    shift = float(log_terms.max())
    scaled = np.exp(log_terms - shift) * weights
    return math.exp(shift) * math.fsum(sorted(scaled, reverse=True))


def _tilted_power(log_base: np.ndarray, N: int) -> tuple[np.ndarray, float]:
    """The N-th convolution power of exp(log_base), truncated to its length,
    as (values peaking at 1, log scale), by repeated squaring. The FFT
    products are zero-padded, so they do not wrap around."""
    if N == 1:
        top = float(log_base.max())
        return np.exp(log_base - top), top
    half = _tilted_power(log_base, N // 2)
    square = _fft_product(half, half)
    return _fft_product(square, _tilted_power(log_base, 1)) if N % 2 else square


def _fft_product(a: tuple[np.ndarray, float], b: tuple[np.ndarray, float]):
    size = 1 << (2 * a[0].size - 1).bit_length()
    spectrum = np.fft.rfft(a[0], size)
    spectrum *= spectrum if b is a else np.fft.rfft(b[0], size)
    values = np.fft.irfft(spectrum, size)[:a[0].size].clip(0)  # clip rounding's negatives
    return values / values.max(), a[1] + b[1] + math.log(values.max())


def delta_upper_bound(M: int, N: int, p: int) -> Fraction:
    """Exact upper bound for the limiting moment:
    1 - (1 - M^(1-p)) (1 - N^(1-p)) (1 - epsilon_p(2, 2))."""
    _validate_mn(M, N)
    if M < 2 or N < 2:
        raise ParameterError("the bound requires M, N >= 2")
    if p < 2:
        raise ParameterError("the bound requires p >= 2")
    eps22 = epsilon(p, 2, 2)
    return 1 - (1 - Fraction(1, M**(p - 1))) * (1 - Fraction(1, N**(p - 1))) * (1 - eps22)


def delta_exact(M: int, N: int, p: int, budget: int = DEFAULT_BUDGET) -> Fraction:
    """The limiting moment by the binomial route when the smaller side is 2,
    else by the partition sum. With both sides >= 3 the period histogram of
    direct enumeration always costs more than the partition-pair scan."""
    _validate_mn(M, N)
    _validate_pos(p=p)
    if min(M, N) == 2:
        return delta_binomial(M, N, p, budget)
    return delta_partition(M, N, p, budget)
