import itertools
import math
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fouriermoments import limits
from fouriermoments.asymptotics import delta_decay_estimate
from fouriermoments.errors import BudgetError, ParameterError
from fouriermoments.partitions import stirling_number, triangle_pair_counts
from fouriermoments.limits import (
    _squared_multinomial_row,
    decompose,
    delta_binomial,
    delta_direct,
    delta_exact,
    delta_m2,
    delta_m2_float,
    delta_partition,
    delta_upper_bound,
    epsilon,
    moment_integral,
)

from helpers import (
    counter_delta,
    counter_delta_back_shift,
    delta_m2_float_by_log_convolution,
    squared_multinomial_scan,
    two_block_pairs,
)


def test_delta_small_values():
    assert delta_direct(5, 3, 1) == 1
    assert delta_direct(2, 2, 3) == Fraction(5, 8)
    for M, N in itertools.product(range(1, 5), range(1, 5)):
        assert delta_direct(M, N, 2) == Fraction(M + N - 1, M * N)


def test_delta_direct_matches_counter_oracle():
    for M, N, p in itertools.product((1, 2, 3), (1, 2, 3), (1, 2, 3, 4)):
        assert delta_direct(M, N, p) == counter_delta(M, N, p)


def test_shifted_condition_forms_agree():
    # forward pairing (a_y, b_{y+1}) and backward pairing (a_y, b_{y-1})
    # produce identical counts
    for M, N, p in itertools.product((2, 3), (2, 3), (2, 3, 4)):
        assert counter_delta(M, N, p) == counter_delta_back_shift(M, N, p)
        assert delta_direct(M, N, p) == counter_delta_back_shift(M, N, p)


def test_delta_partition_agrees_with_direct():
    for M, N, p in itertools.product(range(1, 5), range(1, 5), range(1, 5)):
        assert delta_partition(M, N, p) == delta_direct(M, N, p)


def test_delta_partition_budget():
    # the pair scan is refused by its estimate, not by p: (10, 2, 2) is cheap
    assert delta_partition(2, 2, 10) == delta_m2(2, 10)
    with pytest.raises(BudgetError) as info:
        delta_partition(4, 4, 10)
    R = 43947  # partitions of 10 with at most 4 blocks
    assert info.value.estimated_ops == 100 * (1 + 10 * 4 // sys.int_info.bits_per_digit) // 2 \
        + R * R + 6 * R * 100
    assert "partition-pair scan of (10,4,4)" in str(info.value)
    with pytest.raises(BudgetError):
        delta_partition(3, 3, 10, budget=1000)


def test_delta_direct_budget():
    with pytest.raises(BudgetError):
        delta_direct(4, 4, 9)


def test_epsilon_values():
    assert epsilon(3, 2, 2) == Fraction(1, 3)
    for p in range(1, 6):
        for t in range(1, p + 1):
            assert epsilon(p, 1, t) == 1
    for p in range(2, 7):
        for s, t in itertools.product(range(1, p + 1), repeat=2):
            assert epsilon(p, s, t) == epsilon(p, t, s)


def test_epsilon_validation():
    with pytest.raises(ParameterError):
        epsilon(3, 4, 1)
    assert epsilon(10, 2, 2) == Fraction(two_block_pairs(10), stirling_number(10, 2)**2)
    with pytest.raises(BudgetError):
        epsilon(10, 4, 4)


def test_decompose_identities():
    for M, N, p in ((2, 3, 2), (3, 4, 3), (4, 2, 4), (3, 3, 5), (2, 2, 4)):
        report = decompose(M, N, p)
        assert report.total == delta_partition(M, N, p)
        assert report.row_sum(1) == Fraction(1, M**(p - 1))
        assert report.column_sum(1) == Fraction(1, N**(p - 1))
        assert report.contributions[(1, 1)] == Fraction(1, (M * N)**(p - 1))
        assert all(report.epsilon[(1, t)] == 1 for t in range(1, min(p, N) + 1))
        head = Fraction(1, M**(p - 1)) + Fraction(1, N**(p - 1)) - Fraction(1, (M * N)**(p - 1))
        tail = sum((v for (s, t), v in report.contributions.items()
                    if s >= 2 and t >= 2), Fraction(0))
        assert report.total == head + tail


def test_partition_routes_share_one_scan():
    # one table per (p, smax, tmax), whichever route and budget asked for it
    triangle_pair_counts.cache_clear()
    delta_partition(3, 3, 8)
    decompose(3, 3, 8)
    epsilon(8, 3, 3)
    info = triangle_pair_counts.cache_info()
    assert (info.hits, info.misses) == (2, 1)
    # the budget gates a scan but does not key its table
    triangle_pair_counts.cache_clear()
    delta_partition(3, 3, 8, 2 * 10**9)
    decompose(3, 3, 8)
    info = triangle_pair_counts.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_moment_integral_values():
    assert moment_integral(3, 0) == 1
    assert moment_integral(1, 7) == 1
    assert moment_integral(2, 1) == Fraction(1, 2)
    for k in range(65):
        assert moment_integral(2, k) == Fraction(math.comb(2 * k, k), 4**k)


def test_moment_integral_paths_agree():
    # composition scan and dynamic program compute the same big integers
    for N in (3, 4):
        row = _squared_multinomial_row(N, 8, budget=10**6)
        for k in range(9):
            scan = squared_multinomial_scan(N, k)
            assert scan == row[k]
            assert moment_integral(N, k) == Fraction(scan, N**(2 * k))


def test_moment_integral_budget():
    with pytest.raises(BudgetError):
        moment_integral(6, 10**6, budget=10**6)
    # the DP's entries reach 2k log2 N bits, so its 3 * 10001^2 products at
    # (3, 20000), k = 10^4, are priced by the digits of such an integer
    with pytest.raises(BudgetError) as info:
        delta_m2(3, 20000)
    digits = 1 + math.ceil(2 * 10**4 * math.log2(3) / sys.int_info.bits_per_digit)
    assert info.value.estimated_ops == 3 * 10001**2 * digits
    for k in (True, -1, 1.0):
        with pytest.raises(ParameterError):
            moment_integral(3, k)


def test_delta_m2_values():
    assert delta_m2(2, 2) == Fraction(1, 2) * (1 + Fraction(1, 2)) == Fraction(3, 4)
    for p in range(1, 9):
        assert delta_m2(1, p) == 1
    for N, p in itertools.product(range(1, 5), range(1, 7)):
        assert delta_m2(N, p) == delta_direct(2, N, p)


def test_delta_binomial_takes_either_side():
    for N, p in itertools.product(range(1, 5), range(1, 13)):
        assert delta_binomial(2, N, p) == delta_m2(N, p)
        assert delta_binomial(N, 2, p) == delta_m2(N, p)
    with pytest.raises(ParameterError):
        delta_binomial(3, 3, 4)
    with pytest.raises(ParameterError):
        delta_binomial(True, 2, 4)


def test_phase_moments_are_powers_of_the_bessel_series():
    # A_N(m) / m!^2 is the z^m coefficient of (sum_i z^i / i!^2)^N
    size = 21
    base = [Fraction(1, math.factorial(i)**2) for i in range(size)]
    power = [Fraction(1)] + [Fraction(0)] * (size - 1)
    for N in range(1, 7):
        power = [sum(power[i] * base[m - i] for i in range(m + 1)) for m in range(size)]
        row = _squared_multinomial_row(N, size - 1, 10**9)
        assert [c * math.factorial(m)**2 for m, c in enumerate(power)] == row, N


def test_delta_m2_float_accuracy():
    for N in range(1, 9):
        for p in (1, 2, 3, 7, 20, 50, 200):
            exact = float(delta_m2(N, p))
            approx = delta_m2_float(N, p)
            assert abs(approx - exact) <= 1e-9 * exact, (N, p)


# (1000, 200): with N > p / 4 the terms peak below k = p / 4
@pytest.mark.parametrize("N, p", [(3, 4000), (7, 2000), (50, 1000), (1000, 200)])
def test_delta_m2_float_matches_log_convolution(N, p):
    oracle = delta_m2_float_by_log_convolution(N, p)
    assert abs(delta_m2_float(N, p) - oracle) <= 1e-10 * oracle


def test_delta_m2_float_reaches_its_cap():
    value = delta_m2_float(3, 10**6)
    assert math.isfinite(value)
    assert abs(value / delta_decay_estimate(3, 10**6) - 1) < 0.10


def test_delta_m2_float_buffers_do_not_grow_with_n(monkeypatch):
    sizes = []
    rfft = np.fft.rfft

    def recording_rfft(a, n):
        sizes.append(n)
        return rfft(a, n)

    monkeypatch.setattr(np.fft, "rfft", recording_rfft)
    kmax = 10**4 // 2
    # the decay law puts this value near e^-1718, below the float range
    value = delta_m2_float(1000, 10**4)
    assert math.isfinite(value) and value >= 0
    assert sizes and max(sizes) <= 4 * (kmax + 1)


def test_delta_m2_float_monotone_observation():
    # monitored observation only; warn instead of failing if it ever breaks
    values = [delta_m2_float(2, p) for p in range(4, 1001)]
    if not all(a > b for a, b in zip(values, values[1:])):
        warnings.warn("two-row limiting moments not monotone on the scanned range")


def test_delta_upper_bound():
    for M, N in itertools.product((2, 3, 4), repeat=2):
        for p in range(2, 7):
            assert delta_partition(M, N, p) <= delta_upper_bound(M, N, p)
    with pytest.raises(ParameterError):
        delta_upper_bound(1, 2, 3)
    with pytest.raises(ParameterError):
        delta_upper_bound(2, 2, 1)


def test_delta_monotone_in_p_observation():
    for M, N in itertools.product((2, 3, 4), repeat=2):
        values = [delta_partition(M, N, p) for p in range(1, 7)]
        if not all(a >= b for a, b in zip(values, values[1:])):
            warnings.warn(f"limiting moments increased in p at {(M, N)}")


def test_delta_exact_routes():
    assert delta_exact(3, 3, 4) == delta_direct(3, 3, 4)
    # a side of 2 takes the binomial route
    assert delta_exact(2, 2, 10) == delta_m2(2, 10)
    # two-row route used when enumeration is out of budget
    assert delta_exact(2, 2, 40, budget=10**6) == delta_m2(2, 40)
    assert delta_exact(3, 2, 40, budget=10**6) == delta_m2(3, 40)
    with pytest.raises(BudgetError):
        delta_exact(3, 3, 40, budget=10**6)


def test_delta_exact_falls_back_when_histogram_refused():
    # R = 2^17 partitions of 18 with at most 2 blocks
    with pytest.raises(BudgetError) as info:
        delta_direct(2, 2, 18)
    assert info.value.estimated_ops == \
        2**17 * 18**2 + 2**17 * 2**17 * (2 * 18 + 2 * 2 * 2) // 18
    assert delta_exact(2, 2, 18) == delta_m2(2, 18)


def test_delta_exact_takes_the_binomial_route_before_direct(monkeypatch):
    # a side of 2 pays for neither scan
    def refuse(*args, **kwargs):
        raise AssertionError("a scan was called")

    monkeypatch.setattr(limits, "delta_direct", refuse)
    monkeypatch.setattr(limits, "delta_partition", refuse)
    for M, N, p, other in ((2, 2, 14, 2), (3, 2, 11, 3), (2, 3, 12, 3)):
        assert delta_exact(M, N, p) == delta_m2(other, p)


def test_direct_matches_binomial_at_p_10():
    for M, N in ((2, 2), (3, 2), (2, 3)):
        assert delta_direct(M, N, 10) == delta_binomial(M, N, 10)


def test_partition_matches_binomial_past_p_9():
    for p in range(10, 15):
        assert delta_partition(2, 2, p) == delta_binomial(2, 2, p), p
    for M, N, p in ((3, 2, 10), (2, 3, 10), (3, 2, 11), (2, 3, 11)):
        assert delta_partition(M, N, p) == delta_binomial(M, N, p), (M, N, p)


def test_delta_exact_takes_the_partition_route_at_3_3_10(monkeypatch):
    value = delta_direct(3, 3, 10)

    def refuse(*args, **kwargs):
        raise AssertionError("delta_direct called")

    monkeypatch.setattr(limits, "delta_direct", refuse)
    assert delta_exact(3, 3, 10) == delta_partition(3, 3, 10) == value


def test_huge_p_is_answered_or_refused_at_once():
    start = time.perf_counter()
    assert delta_exact(1, 5, 10**5) == delta_partition(7, 1, 10**5) == 1
    for call in (lambda: triangle_pair_counts(10**5, 2, 2),
                 lambda: delta_partition(3, 3, 10**5),
                 lambda: epsilon(10**5, 1, 3)):
        with pytest.raises(BudgetError):
            call()
    assert time.perf_counter() - start < 0.1


def test_delta_direct_reaches_past_the_labelled_budget():
    # the labelled kernel's estimate here was 1.94e9; the lumped one is 1.1e8
    assert delta_direct(3, 3, 9) == delta_partition(3, 3, 9)
