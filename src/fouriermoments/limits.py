"""Exact limiting moments delta_p(M, N) by three independent routes, the
pair-compatibility probabilities epsilon_p(s, t), the per-block-count
contribution decomposition, and the two-row (M = 2) phase-moment formulas.

All exact values are `fractions.Fraction`; the floating path exists only
for large-p evaluation and is validated against the exact one.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterator

import numpy as np

from .errors import BudgetError, ParameterError, _check_budget, _name, _validate_int, _validate_pos
from .partitions import _order_histogram, stirling_number, triangle_pair_counts

# Exact binomial-route evaluation is refused above this p; the floating
# evaluator covers the large-p regime instead.
FLOAT_P_CAP = 10**6


def delta_direct(M: int, N: int, p: int) -> Fraction:
    """Exact fraction of (a, b) index pairs satisfying the base multiset
    condition {(a_y, b_y)}_y = {(a_y, b_{y+1})}_y, by direct enumeration:
    the pairs whose solution set is all of Z_M."""
    _validate_pos(M=M, N=N, p=p)
    if M == 1 or N == 1:
        return Fraction(1)
    # The histogram counts the pairs with a_1 = b_1 = 0; the condition is
    # translation invariant in a and in b separately, so scale by M*N.
    try:
        hits = _order_histogram(M, N, p).get(M, 0)
    except BudgetError as refused:
        # delta is symmetric in (M, N): a histogram refused on (M, N) may be
        # admitted on (N, M); if not, the first refusal stands.
        try:
            hits = _order_histogram(N, M, p).get(N, 0)
        except BudgetError:
            raise refused from None
    return Fraction(hits * M * N, (M * N)**p)


def delta_partition(M: int, N: int, p: int) -> Fraction:
    """The limiting moment as a sum over shift-compatible partition pairs,
    weighted by falling factorials of M and N; 1 when a side has one row."""
    _validate_pos(M=M, N=N, p=p)
    if M == 1 or N == 1:
        return Fraction(1)
    table = triangle_pair_counts(p, min(p, M), min(p, N))
    total = sum(math.perm(M, s) * math.perm(N, t) * pairs for (s, t), pairs in table.items())
    return Fraction(total, (M * N)**p)


def epsilon(p: int, s: int, t: int) -> Fraction:
    """Probability that a uniform pair of partitions with |pi| = s and
    |sigma| = t is shift-compatible."""
    _validate_pos(p=p, s=s, t=t)
    if s > p or t > p:
        raise ParameterError(f"block counts must satisfy s, t <= p, got ({_name(s)}, {_name(t)})")
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
    _validate_pos(M=M, N=N, p=p)
    table = triangle_pair_counts(p, min(p, M), min(p, N))  # keyed (s, t) in row order
    eps = {(s, t): Fraction(pairs, stirling_number(p, s) * stirling_number(p, t))
           for (s, t), pairs in table.items()}
    contributions = {(s, t): Fraction(math.perm(M, s) * math.perm(N, t) * pairs, (M * N)**p)
                     for (s, t), pairs in table.items()}
    return DecompositionReport(M=M, N=N, p=p, contributions=contributions, epsilon=eps,
                               total=sum(contributions.values(), Fraction(0)))


def moment_integral(N: int, k: int) -> Fraction:
    """Normalized 2k-th moment of |q_1 + ... + q_N| / N over independent
    uniform phases: N^(-2k) * sum over compositions of k into N parts of the
    squared multinomial coefficient. That sum A_N(k) comes from a recurrence
    in k at N = 3 and 4 (_walk_terms), else from a dynamic program over N."""
    _validate_pos(N=N)
    _validate_int("k", k, 0)
    if k == 0 or N == 1:
        return Fraction(1)
    if N == 2:  # about d^2 digit steps for C(2k, k), d the digits of a 2k-bit integer
        digits = 1 + 2 * k // sys.int_info.bits_per_digit
        _check_budget("central binomial coefficient", digits * digits)
        return Fraction(math.comb(2 * k, k), 4**k)
    if N in _WALK_RECURRENCES:
        return Fraction(deque(_walk_terms(N, k), maxlen=1).pop(), N**(2 * k))
    return Fraction(_squared_multinomial_row(N, k)[k], N**(2 * k))


def _squared_multinomial_row(N: int, k: int) -> list[int]:
    """A_N(m) for m = 0..k: the sum over compositions of m into N parts of
    the squared multinomial coefficient, by a dynamic program over N. The
    routes take N = 3 and 4 from _walk_terms, and the tests take this
    program as its oracle there."""
    # About N (k + 1)^2 bigint products, each of integers of up to 2k log2 N
    # bits (A_N(m) <= N^(2m)), which the interpreter multiplies digit by digit.
    digits = 1 + math.ceil(2 * k * Fraction(math.log2(N)) / sys.int_info.bits_per_digit)
    _check_budget("squared-multinomial dynamic program", N * (k + 1)**2 * digits)
    # A_1(m) = 1 and A_2(m) = C(2m, m); peeling the last part gives
    # A_N(m) = sum_i C(m, i)^2 * A_{N-1}(m - i). The C(m, i) come from one
    # Pascal row per m, which serves every N, and C(m, i) = C(m, m - i)
    # pairs the terms i and m - i: m / 2 products for each A_N(m).
    rows = [[math.comb(2 * m, m) if N > 1 else 1 for m in range(k + 1)]]
    rows += [[] for _ in range(N - 2)]
    pascal = []
    for m in range(k + 1 if N > 2 else 0):
        pascal = [1, *map(operator.add, pascal, pascal[1:]), 1] if m else [1]
        squares = [c * c for c in pascal[:m // 2 + 1]]
        for prev, row in zip(rows, rows[1:]):
            pairs = map(operator.add, prev[:(m + 1) // 2], prev[m:m // 2:-1])
            middle = 0 if m % 2 else squares[-1] * prev[m // 2]
            row.append(sum(map(operator.mul, squares, pairs), middle))
    return rows[-1]


# (P, Q, R) of R(k) A(k + 1) = P(k) A(k) - Q(k) A(k - 1), by N (_walk_terms)
_WALK_RECURRENCES = {
    3: lambda k: (10 * k * k + 10 * k + 3, 9 * k * k, (k + 1)**2),
    4: lambda k: (2 * (2 * k + 1) * (5 * k * k + 5 * k + 2), 64 * k**3, (k + 1)**3),
}


def _walk_terms(N: int, k: int, p: int = 0) -> Iterator[int]:
    """Yield C(p, 2m) A_N(m) for m = 0..k at N = 3 or 4, each from the two
    before it; with p = 0, A_N(m) itself. A_N(m) = W_N(2m) is the 2m-th
    moment of the distance from its start at which an N-step planar walk of
    unit steps in uniform random directions ends, and at N = 3 and 4 it
    satisfies R(m) A(m + 1) = P(m) A(m) - Q(m) A(m - 1), A(0) = 1, A(1) = N,
    with (P, Q, R) in _WALK_RECURRENCES: for N = 3, Borwein, Nuyens, Straub
    and Wan, "Some arithmetic properties of short random walk integrals"
    (Ramanujan J., 2011); for N = 4, the Domb numbers, Borwein, Straub, Wan
    and Zudilin, "Densities of short uniform random walks" (Canad. J. Math.,
    2012). Priced by k steps, each a few products of a small integer by a
    term of 2k log2 N + p bits."""
    digits = 1 + math.ceil((2 * k * Fraction(math.log2(N)) + p) / sys.int_info.bits_per_digit)
    _check_budget(f"random-walk moment recurrence at N={N}", (k + 1) * digits)
    # b_m = c_m A(m), with c_(m+1) = c_m u_m / v_m (c_m = C(p, 2m), or 1),
    # satisfies R v_m v_(m-1) b_(m+1) = u_m (P v_(m-1) b_m - Q u_(m-1) b_(m-1)),
    # a division that is exact.
    ratio = (lambda m: ((p - 2 * m) * (p - 2 * m - 1), (2 * m + 1) * (2 * m + 2))) if p \
        else (lambda m: (1, 1))
    u = v = last = 1  # any (u, v) for m = -1: Q(0) = 0, and v_(-1) cancels
    before = 0
    yield last
    for m in range(k):
        P, Q, R = _WALK_RECURRENCES[N](m)
        (u_prev, v_prev), (u, v) = (u, v), ratio(m)
        before, last = last, (u * (P * v_prev * last - Q * u_prev * before)
                              // (R * v * v_prev))
        yield last


def delta_m2(N: int, p: int) -> Fraction:
    """Exact limiting moment at M = 2 through the binomial route:
    2^(1-p) * sum_k C(p, 2k) * moment_integral(N, k)."""
    _validate_pos(N=N, p=p)
    kmax = p // 2
    if N in _WALK_RECURRENCES:  # the products C(p, 2k) A_N(k) by one recurrence
        terms = _walk_terms(N, kmax, p)
    else:  # C(p, 2k) by one ratio step each
        binomials = accumulate(range(kmax), lambda c, k: c * (p - 2 * k) * (p - 2 * k - 1)
                               // ((2 * k + 1) * (2 * k + 2)), initial=1)
        terms = map(operator.mul, binomials, _squared_multinomial_row(N, kmax))
    # moment_integral(N, k) = A_N(k) / N^(2k), over the common denominator
    # N^(2 kmax), by Horner's rule in N^2.
    total, square = 0, N * N
    for term in terms:
        total = total * square + term
    return Fraction(total, 2**(p - 1) * N**(2 * kmax))


def delta_binomial(M: int, N: int, p: int) -> Fraction:
    """Exact limiting moment through the binomial route, which needs a side
    equal to 2. The pair-compatibility problem is symmetric in the two
    sides, so a two-row N works the same as a two-row M."""
    _validate_pos(M=M, N=N)
    if M == 2:
        return delta_m2(N, p)
    if N == 2:
        return delta_m2(M, p)
    raise ParameterError("the binomial route requires M = 2 or N = 2")


def delta_m2_float(N: int, p: int) -> float:
    """Floating evaluation of delta_m2 for large p via log-gamma, summing the
    terms with math.fsum. For N >= 3, A_N(m) = m!^2 [z^m] f(z)^N with
    f(z) = sum_i z^i / i!^2, and f^N comes by FFT squaring in
    O(p log p log N), at FFT lengths of at most 2p + 4. Relative error
    against the exact route is below 1e-9 for p <= 200, and about 1e-12 at
    N = 3 and 4, p = 5000."""
    _validate_pos(N=N, p=p)
    if p > FLOAT_P_CAP:
        raise ParameterError(f"p={_name(p)} exceeds the floating-path cap {FLOAT_P_CAP}")
    if N == 1:
        return 1.0
    if N > 2 and _rounds_to_zero(N, p):
        return 0.0
    kmax = p // 2
    if N > 2:  # FFT products: a squaring per bit of N and a product per 1 bit, past the first
        L = 1 << (2 * kmax + 1).bit_length()  # each at FFT length L, ~L log2 L
        cost = (N.bit_length() + N.bit_count() - 2) * L * (L.bit_length() - 1)
        _check_budget(f"FFT power of a {N.bit_length()}-bit N at p={p}", cost)
    lf = np.fromiter(map(math.lgamma, range(1, p + 2)), float, p + 1)  # log n! for n = 0..p
    ks = np.arange(kmax + 1)
    log_comb = lf[p] - lf[2 * ks] - lf[p - 2 * ks]
    weights, log_a = 1.0, lf[2 * ks] - 2 * lf[ks]  # log A_2(k) = log C(2k, k)
    if N > 2:
        # Tilt by x^m so the coefficients peak where the terms do. The terms
        # are moments of ((1 + R)^p + (1 - R)^p) / 2, R = |q_1 + ... + q_N| / N,
        # dominated by R = 1 (k = p / 4) if N <= p / 4, else by 2NR(1 + R) = p.
        r = min(1.0, (math.sqrt(1 + 2 * p / N) - 1) / 2)
        log_x = 2 * math.log(p / (2 * N * (1 + r))) if N.bit_length() < 1000 \
            else 2 * (math.log(p / 2) - math.log(N) - math.log1p(r))  # N past the float range
        weights, log_scale = _tilted_power(ks * log_x - 2 * lf[ks], N)
        log_a = log_scale - ks * log_x + 2 * lf[ks]
    log_terms = log_comb - (p - 1) * math.log(2.0) + (log_a - 2 * ks * math.log(N))
    shift = float(log_terms.max())
    scaled = np.exp(log_terms - shift) * weights
    return math.exp(shift) * math.fsum(scaled.tolist())  # correctly rounded in any order


def _rounds_to_zero(N: int, p: int) -> bool:
    """Whether delta_p(2, N) is below half the least subnormal, by a bound in
    O(1). delta is the sum over k of the weights C(p, 2k) 2^(1-p), which add
    up to 1, times A_N(k) / N^(2k), a sum of squared multinomial
    probabilities of k draws over N cells, so at most the largest of them.
    That largest probability, at parts that differ by at most 1, does not
    grow with k. So delta is at most the weight of 2k < p/4, under
    2 exp(-p/8) by Hoeffding's bound, plus the largest probability at
    k = p // 8."""
    k = p // 8
    q, s = divmod(k, N)
    log_mode = math.lgamma(k + 1) - k * math.log(N)
    if q:  # parts q and q + 1; with k < N, k parts of 1 and no huge N made a float
        log_mode -= s * math.lgamma(q + 2) + (N - s) * math.lgamma(q + 1)
    log_bound = math.log(2.0) + max(math.log(2.0) - p / 8, log_mode)
    return log_bound < math.log(math.ulp(0.0)) - math.log(2.0)


def _tilted_power(log_base: np.ndarray, N: int) -> tuple[np.ndarray, float]:
    """The N-th convolution power of exp(log_base), truncated to its length,
    as (values peaking at 1, log scale), by squaring along the bits of N. The
    FFT products are zero-padded, so they do not wrap around."""
    top = float(log_base.max())
    base = power = np.exp(log_base - top), top
    for bit in bin(N)[3:]:
        power = _fft_product(power, power)
        if bit == "1":
            power = _fft_product(power, base)
    return power


def _fft_product(a: tuple[np.ndarray, float], b: tuple[np.ndarray, float]):
    size = 1 << (2 * a[0].size - 1).bit_length()
    spectrum = np.fft.rfft(a[0], size)
    spectrum *= spectrum if b is a else np.fft.rfft(b[0], size)
    values = np.fft.irfft(spectrum, size)[:a[0].size].clip(0)  # clip rounding's negatives
    return values / values.max(), a[1] + b[1] + math.log(values.max())


def delta_upper_bound(M: int, N: int, p: int) -> Fraction:
    """Exact upper bound for the limiting moment:
    1 - (1 - M^(1-p)) (1 - N^(1-p)) (1 - epsilon_p(2, 2))."""
    _validate_pos(M=M, N=N)
    if M < 2 or N < 2:
        raise ParameterError("the bound requires M, N >= 2")
    if p < 2:
        raise ParameterError("the bound requires p >= 2")
    eps22 = epsilon(p, 2, 2)
    return 1 - (1 - Fraction(1, M**(p - 1))) * (1 - Fraction(1, N**(p - 1))) * (1 - eps22)


def delta_exact(M: int, N: int, p: int) -> Fraction:
    """The limiting moment by the binomial route when the smaller side is 2,
    else by the partition sum. With both sides >= 3 the period histogram of
    direct enumeration always costs more than the partition-pair scan."""
    _validate_pos(M=M, N=N, p=p)
    if min(M, N) == 2:
        return delta_binomial(M, N, p)
    return delta_partition(M, N, p)
