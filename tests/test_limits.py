import itertools
import math
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fouriermoments import limits, partitions, truncated
from fouriermoments.asymptotics import delta_decay_estimate
from fouriermoments.errors import BudgetError, ParameterError, budget
from fouriermoments.partitions import stirling_number, triangle_pair_counts
from fouriermoments.truncated import c_from_d, count_d
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
    leading_minors,
    moment_cone_minors,
    squared_multinomial_scan,
    two_block_pairs,
    walk_moments_by_recurrence,
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
    assert info.value.estimated_ops == R * R + 3 * R * 10
    assert "partition-pair scan of (10,4,4)" in str(info.value)
    triangle_pair_counts.cache_clear()  # a cached table is never refused
    with budget(1000), pytest.raises(BudgetError):
        delta_partition(3, 3, 10)


def test_cached_pair_table_is_never_refused():
    triangle_pair_counts.cache_clear()
    warm = triangle_pair_counts(7, 3, 3), delta_partition(3, 3, 7)
    with budget(1):
        assert (triangle_pair_counts(7, 3, 3), delta_partition(3, 3, 7)) == warm
    triangle_pair_counts.cache_clear()
    with budget(1), pytest.raises(BudgetError):
        delta_partition(3, 3, 7)


def test_cached_stirling_rows_are_never_refused():
    # the row prices its own miss, so after one decompose its table and row
    # answer any budget, and so does a one-block table built from that row
    partitions._stirling_row.cache_clear()
    triangle_pair_counts.cache_clear()
    report = decompose(3, 3, 7)
    with budget(1):
        assert decompose(3, 3, 7) == report
        assert delta_partition(3, 3, 7) == report.total
        assert epsilon(7, 1, 3) == 1
        with pytest.raises(BudgetError, match="Stirling row of p=8"):
            epsilon(8, 1, 3)


def test_delta_direct_budget():
    with pytest.raises(BudgetError):
        delta_direct(4, 4, 9)


def test_the_smaller_side_as_m_never_prices_the_histogram_higher(monkeypatch):
    # delta_direct reads the histogram with the smaller side as M, so it must
    # never be refused where the other orientation would be admitted
    class Priced(Exception):
        pass

    def record(what, cost, log10_cost=None):
        if what.startswith("period histogram") and cost is not None:
            raise Priced(cost)

    def estimate(M, N, p):
        try:
            partitions._order_histogram.__wrapped__(M, N, p)
        except Priced as priced:
            return priced.args[0]
        raise AssertionError("the histogram was not priced")

    monkeypatch.setattr(partitions, "_check_budget", record)
    for M, N in itertools.combinations(range(2, 21), 2):
        for p in range(2, 41):
            assert estimate(M, N, p) <= estimate(N, M, p), (M, N, p)
    monkeypatch.undo()
    for M, N, p in itertools.product(range(2, 5), range(2, 5), range(1, 7)):
        assert delta_direct(M, N, p) == delta_direct(N, M, p), (M, N, p)


def test_delta_direct_reads_the_other_orientation_when_refused():
    # delta is symmetric in (M, N): the histogram of (3, 2, 9) is priced at
    # ~6.739e6, over this budget, and that of (2, 3, 9) under it
    truncated._order_histogram.cache_clear()
    with budget(4 * 10**6):
        assert delta_direct(3, 2, 9) == delta_binomial(3, 2, 9)


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
    with budget(2 * 10**9):
        delta_partition(3, 3, 8)
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
        with budget(10**6):
            row = _squared_multinomial_row(N, 8)
        for k in range(9):
            scan = squared_multinomial_scan(N, k)
            assert scan == row[k]
            assert moment_integral(N, k) == Fraction(scan, N**(2 * k))


def test_walk_recurrences_equal_the_dynamic_program():
    # the recurrences of the random-walk moments at N = 3 and 4, written out
    # in the oracle, give the dynamic program's row
    for N in (3, 4):
        assert walk_moments_by_recurrence(N, 400) == _squared_multinomial_row(N, 400), N


def test_the_binomial_route_takes_n_2_3_and_4_from_the_recurrence():
    # the routes' terms, with and without the weights C(p, 2m), against the
    # dynamic program, and delta_m2 against its definition on that row
    for N in (2, 3, 4):
        row = _squared_multinomial_row(N, 400)
        assert list(limits._walk_terms(N, 400)) == row, N
        assert moment_integral(N, 400) == Fraction(row[400], N**800)
        for p in (*range(1, 12), 800, 801):
            terms = [math.comb(p, 2 * m) * a for m, a in enumerate(row[:p // 2 + 1])]
            assert list(limits._walk_terms(N, p // 2, p)) == terms, (N, p)
            assert delta_m2(N, p) == sum(Fraction(term, N**(2 * m)) for m, term
                                         in enumerate(terms)) / 2**(p - 1), (N, p)


def test_delta_m2_answers_past_the_dynamic_program():
    # the dynamic program refused (3, k) from k = 3000 on; the recurrence
    # answers p near 4000 under the default budget. The values are moments
    # of a positive measure on [0, 1]: decreasing in p, and log-convex.
    d = [delta_m2(3, p) for p in (3999, 4000, 4001)]
    assert d[0] > d[1] > d[2] > 0
    assert d[0] * d[2] >= d[1]**2


def test_budget_blocks_check_their_value_and_nest():
    for ops in (True, 1.5, -1, "5", None):
        with pytest.raises(ParameterError), budget(ops):
            pass
    # the dynamic program at (5, 8) is priced at 5 * 9^2 * 3 = 1215 operations
    value = moment_integral(5, 8)
    with budget(10**6):
        with pytest.raises(BudgetError), budget(1214):
            moment_integral(5, 8)
        assert moment_integral(5, 8) == value  # the outer limit is back
        with budget(0), pytest.raises(BudgetError) as info:
            moment_integral(5, 8)
        assert (info.value.estimated_ops, info.value.budget) == (1215, 0)
    # the recurrence at (3, 8): 9 steps on integers of 2 digits
    with budget(17), pytest.raises(BudgetError) as info:
        moment_integral(3, 8)
    assert info.value.estimated_ops == 18
    with budget(18):
        assert moment_integral(3, 8) == Fraction(walk_moments_by_recurrence(3, 8)[8], 3**16)


def test_moment_integral_budget():
    with budget(10**6), pytest.raises(BudgetError):
        moment_integral(6, 10**6)
    # the DP's entries reach 2k log2 N bits, so its 5 * 10001^2 products at
    # (5, 20000), k = 10^4, are priced by the digits of such an integer
    with pytest.raises(BudgetError) as info:
        delta_m2(5, 20000)
    digits = 1 + math.ceil(2 * 10**4 * math.log2(5) / sys.int_info.bits_per_digit)
    assert info.value.estimated_ops == 5 * 10001**2 * digits
    # the recurrence at (3, 20000) makes 10^4 steps on terms C(p, 2k) A_3(k)
    # of up to p + 2k log2 3 bits; the default budget admits it
    digits = 1 + math.ceil((2 * 10**4 * math.log2(3) + 20000) / sys.int_info.bits_per_digit)
    with budget(10001 * digits - 1), pytest.raises(BudgetError) as info:
        delta_m2(3, 20000)
    assert info.value.estimated_ops == 10001 * digits < 10**9
    start = time.perf_counter()
    for call in (lambda: moment_integral(3, 10**400), lambda: delta_m2(4, 10**6)):
        with pytest.raises(BudgetError):
            call()
    assert time.perf_counter() - start < 0.1
    for k in (True, -1, 1.0):
        with pytest.raises(ParameterError):
            moment_integral(3, k)
    # N = 2: C(2k, k) costs about d^2, d the digits of a 2k-bit integer
    for k in (10**7, 10**20):
        start = time.perf_counter()
        with pytest.raises(BudgetError) as info:
            moment_integral(2, k)
        assert time.perf_counter() - start < 0.1
        assert info.value.estimated_ops == (1 + 2 * k // sys.int_info.bits_per_digit)**2


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
        row = _squared_multinomial_row(N, size - 1)
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


@pytest.mark.parametrize("N, p", [(3, 40000), (2, 10000), (3, 200)])
def test_delta_m2_float_sum_needs_no_sort(N, p, monkeypatch):
    # math.fsum is correctly rounded in any order: summing the terms sorted
    # by magnitude gives the same bits
    value = delta_m2_float(N, p)
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda terms: fsum(sorted(terms, reverse=True)))
    assert delta_m2_float(N, p).hex() == value.hex()


def test_delta_m2_float_error_at_large_p():
    # about 1e-12 at p = 5000 against the exact route; a failure here is a
    # finding about the float route, not a tolerance to loosen
    for N in (3, 4):
        exact = float(delta_m2(N, 5000))
        assert abs(delta_m2_float(N, 5000) - exact) <= 1e-10 * exact, N


def test_delta_m2_float_reaches_its_cap():
    value = delta_m2_float(3, 10**6)
    assert math.isfinite(value)
    assert abs(value / delta_decay_estimate(3, 10**6) - 1) < 0.10


def test_delta_m2_float_is_priced_by_p():
    # the route's p + 1 terms are its one size rule: p = 2 * 10^6 is admitted
    # and within criterion 10's 3 % of 2 / sqrt(pi p); larger p are refused at once
    p = 2 * 10**6
    assert abs(delta_m2_float(2, p) * math.sqrt(math.pi * p) / 2 - 1) < 0.03
    start = time.perf_counter()
    for N, p in ((2, 10**9), (3, 10**400)):
        with pytest.raises(BudgetError) as info:
            delta_m2_float(N, p)
        assert info.value.estimated_ops == 48 * (p + 1)
    assert time.perf_counter() - start < 1.0


def test_delta_m2_float_buffers_do_not_grow_with_n(monkeypatch):
    sizes = []
    rfft = np.fft.rfft

    def recording_rfft(a, n):
        sizes.append(n)
        return rfft(a, n)

    monkeypatch.setattr(np.fft, "rfft", recording_rfft)
    kmax = 10**4 // 2
    # the decay law puts this value near e^-1718, below the float range, and
    # the bound of `_rounds_to_zero` sees it without a transform
    assert delta_m2_float(1000, 10**4) == 0.0 and not sizes
    monkeypatch.setattr(limits, "_rounds_to_zero", lambda N, p: False)
    value = delta_m2_float(1000, 10**4)
    assert math.isfinite(value) and value >= 0
    assert sizes and max(sizes) <= 4 * (kmax + 1)


def test_delta_m2_float_rounds_to_zero_only_below_the_float_range(monkeypatch):
    # where the bound answers 0 at once, the FFT route reads 0 as well; at
    # (100, 10^5), about 8e-173, the bound stays silent
    points = [(1000, 10**4), (300, 10**5), (100, 10**5)]
    below = [point for point in points if limits._rounds_to_zero(*point)]
    assert below == points[:2]
    monkeypatch.setattr(limits, "_rounds_to_zero", lambda N, p: False)
    assert [delta_m2_float(*point) for point in below] == [0.0, 0.0]
    assert delta_m2_float(*points[2]) > 0


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
    with budget(10**6):
        assert delta_exact(2, 2, 40) == delta_m2(2, 40)
        assert delta_exact(3, 2, 40) == delta_m2(3, 40)
        with pytest.raises(BudgetError):
            delta_exact(3, 3, 40)


def test_delta_exact_falls_back_when_histogram_refused():
    # R = 2^17 partitions of 18 with at most 2 blocks
    with pytest.raises(BudgetError) as info:
        delta_direct(2, 2, 18)
    assert info.value.estimated_ops == \
        2 * 2**17 * 18 + 2**17 * 2**17 * (2 * 18 + 2 * 2 * 2) // 18
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


def test_exact_moments_lie_in_the_moment_cone():
    # delta_0 = M, delta_1, ... are the moments of the M eigenvalues of
    # G(Q) / MN, which lie in [0, 1]; c_0 = 1, c_1^r, ... those of the main
    # character, a sum of MN projections, under the r-fold model state. Each
    # route is checked on every p it answers, and one route reaches the top p.
    for M, N, top in ((2, 2, 14), (2, 3, 12), (3, 2, 12), (3, 3, 9), (4, 2, 9), (2, 5, 9)):
        reached = 0
        for route in (delta_direct, delta_partition, delta_binomial):
            if route is delta_binomial and 2 not in (M, N):
                continue
            deltas = [Fraction(M)]
            for p in range(1, top + 1):
                try:
                    deltas.append(route(M, N, p))
                except BudgetError:
                    break
            reached = max(reached, len(deltas) - 1)
            minors = moment_cone_minors(deltas, 1)
            assert all(minor > 0 for minor in minors), (route.__name__, M, N, minors)
        assert reached == top, (M, N)
    for M, N, top, r in ((2, 2, 10, 2), (2, 2, 10, 3), (4, 2, 8, 2), (3, 3, 8, 2), (2, 3, 9, 4)):
        moments = [Fraction(1)] + [c_from_d(count_d(M, N, p, r), M, N, p)
                                   for p in range(1, top + 1)]
        minors = moment_cone_minors(moments, M * N)
        assert all(minor > 0 for minor in minors), (M, N, r, minors)


def test_square_points_pin_the_first_two_jacobi_parameters():
    # m_k = M^(k+1) delta_(k+1)(M, N) / N at M = N: the Jacobi parameters
    # beta_k = D_(k+1) D_(k-1) / D_k^2 of the Hankel determinants D are
    # (1 - 1/N)^2 for k = 1, 2 (beta_3 is not: 13/18 at N = 3). The common
    # scale of the minors cancels in each ratio.
    for N in (2, 3, 4, 6, 8):
        M = N
        for route in (delta_direct, delta_partition, delta_binomial):
            if route is delta_binomial and 2 not in (M, N):
                continue
            m = [Fraction(M**(k + 1)) * route(M, N, k + 1) / N for k in range(5)]
            d1, d2, d3 = leading_minors([[m[i + j] for j in range(3)] for i in range(3)])
            expected = (1 - Fraction(1, N))**2
            assert Fraction(d2, d1**2) == Fraction(d3 * d1, d2**2) == expected, (route, N)
