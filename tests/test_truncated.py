import itertools
import math
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from fouriermoments import partitions, truncated
from fouriermoments.errors import BudgetError, ParameterError, budget
from fouriermoments.limits import delta_direct, delta_partition
from fouriermoments.truncated import (
    _order_histogram,
    alpha,
    beta,
    c_from_d,
    closed_form_is_exact,
    count_d,
    d42_closed,
)

from helpers import (
    _difference_tables,
    _periods,
    assert_codes_name_rows,
    code_word_digits,
    counter_condition,
    every_pair,
    labelled_order_histogram,
    table_row_codes,
)


def _grid_pairs(M, N, p):
    return itertools.product(itertools.product(range(M), repeat=p),
                             itertools.product(range(N), repeat=p))


def _pinned_pairs(M, N, p):
    """Every (a, b) with a_1 = b_1 = 0, one pair per row of two arrays."""
    a = [(0,) + rest for rest in itertools.product(range(M), repeat=p - 1)]
    b = [(0,) + rest for rest in itertools.product(range(N), repeat=p - 1)]
    return np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1))


def _orders(a, b, M, N):
    """|H| of each pair (a[k], b[k]), labels in range, through the period kernel."""
    return _periods(_difference_tables(a, b, M, N)).sum(axis=1)


def _kernel_codes(a, b, M):
    """The library kernel's row codes of the one pair (a, b), a's labels
    below M: _code_weights of b relabelled below its count, which permutes
    the table's columns and so keeps its zero rows and its equal rows, then
    _row_codes. Shape (1, M, W, 1)."""
    labels, b_own = np.unique(b, return_inverse=True)
    weights, W = partitions._code_weights(b_own.reshape(1, -1), len(labels))
    return partitions._row_codes(np.reshape(a, (1, -1)), weights, M, W)


def _kernel_periods(a, b, M):
    """Whether each shift of Z_M is a period of the pair's table, by _code_periods."""
    return partitions._code_periods(_kernel_codes(a, b, M))[0, :, 0]


STRUCTURE_POINTS = ((4, 3, 4), (6, 2, 4), (3, 4, 4), (4, 4, 3), (2, 3, 5))


def test_order_depends_on_b_only_through_its_kernel():
    # relabelling b by a permutation of Z_N permutes the columns of the table
    for M, N, p in STRUCTURE_POINTS:
        a, b = _pinned_pairs(M, N, p)
        orders = _orders(a, b, M, N)
        for perm in itertools.permutations(range(N)):
            assert (_orders(a, np.array(perm)[b], M, N) == orders).all(), (M, N, p, perm)


def test_order_is_invariant_under_joint_rotation_and_repinning():
    # rotating a and b together keeps the table; re-pinning a translates it in m
    for M, N, p in STRUCTURE_POINTS:
        a, b = _pinned_pairs(M, N, p)
        orders = _orders(a, b, M, N)
        for shift in range(1, p):
            a_rot, b_rot = np.roll(a, -shift, axis=1), np.roll(b, -shift, axis=1)
            a_rot = (a_rot - a_rot[:, :1]) % M
            assert (_orders(a_rot, b_rot, M, N) == orders).all(), (M, N, p, shift)


def test_table_at_the_partitions_own_width_keeps_its_periods():
    # b's labels stay below its block count t, so the columns t..T-1 of the
    # width-T table are zero, and the width-t table keeps its periods and
    # vanishes exactly when the width-T one does
    for M, N, p in ((4, 3, 5), (3, 4, 5), (2, 3, 6)):
        T = min(N, p)
        a = np.array([(0,) + rest for rest in itertools.product(range(M), repeat=p - 1)])
        for b in partitions._rgs_orbits(p, T)[0]:
            t = int(b.max()) + 1
            wide = _difference_tables(a, b[None, :], M, T)
            own = _difference_tables(a, b[None, :], M, t)
            assert not wide[:, :, t:].any() and (wide[:, :, :t] == own).all(), (M, N, p, b)
            assert (_periods(own) == _periods(wide)).all(), (M, N, p, b)
            assert (own.any(axis=(1, 2)) == wide.any(axis=(1, 2))).all(), (M, N, p, b)


def test_row_codes_name_the_rows_of_pinned_tables():
    # row m of a table read in base 2p + 1 is zero exactly when the row is,
    # and equal to another row's code exactly when the rows are equal
    # and the kernel's codes, of every pinned a against every pinned b, are
    # those codes, word by word
    for M, N, p in STRUCTURE_POINTS:
        a, b = _pinned_pairs(M, N, p)
        f = _difference_tables(a, b, M, N)
        codes = table_row_codes(f, p)
        assert_codes_name_rows(f, codes)
        weights, W = partitions._code_weights(b[:N**(p - 1)], N)
        kernel = partitions._row_codes(a[::N**(p - 1)], weights, M, W)
        assert (kernel.transpose(0, 3, 1, 2).reshape(codes.shape) == codes).all(), (M, N, p)


def _segment_pairs(seed, M, N, p, count):
    """Seeded pairs with most of b's p labels distinct. Every other pair
    splits the positions into M cyclic segments, segment k labelled k in a,
    so row k of its table telescopes to e(b at its start) - e(b at the next
    start); with those b's alternating u, v, u, ... every even shift is a
    period, and every shift when u = v. The rest have a drawn at random."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        b = rng.permutation(N)[:p]
        if k % 2:
            yield rng.integers(0, M, p), b
            continue
        starts = np.concatenate(([0], np.sort(rng.choice(np.arange(1, p), M - 1, replace=False))))
        u, v = rng.integers(0, N, 2)
        b[starts] = np.where(np.arange(M) % 2, u if k % 4 else v, u)
        yield np.repeat(np.arange(M), np.diff(np.append(starts, p))), b


def test_base_condition_on_rows_of_two_words():
    # length 16 keeps 9 base-33 digits a word, and these b have more labels
    p, hits = 16, 0
    for M in (2, 3, 4):
        for a, b in _segment_pairs(M, M, p, p, 100):
            assert len(set(b.tolist())) > code_word_digits(p)
            expected = not _difference_tables(a[None], b[None], p, p).any()
            codes = _kernel_codes(a, b, M)
            assert codes.shape[2] == 2
            assert (not codes.any()) == expected, (a, b)
            hits += expected
    assert hits >= 50


def test_solution_set_on_rows_of_two_words():
    p = N = 20
    orders = Counter()
    for M in (4, 5, 6):
        for a, b in _segment_pairs(10 + M, M, N, p, 100):
            assert len(set(b.tolist())) > code_word_digits(p)
            f = _difference_tables(a[None], b[None], M, N)[0]
            expected = {s for s in range(M) if (np.roll(f, -s, axis=0) == f).all()}
            assert set(np.flatnonzero(_kernel_periods(a, b, M)).tolist()) == expected, (a, b)
            orders[M, len(expected)] += 1
    assert orders[4, 2] and orders[6, 3] and orders[5, 5]


def test_order_histogram_matches_labelled_enumeration():
    # prime and composite M, N above p, N at or below p, and the trivial sides
    for point in ((2, 5, 3), (3, 4, 3), (4, 5, 3), (6, 4, 3), (5, 6, 3), (3, 5, 4),
                  (4, 5, 4), (6, 5, 4), (2, 7, 5), (2, 4, 6), (4, 2, 5), (6, 2, 4),
                  (4, 3, 4), (3, 3, 3), (1, 5, 4), (4, 1, 4), (1, 1, 3), (3, 2, 1)):
        assert _order_histogram(*point) == labelled_order_histogram(*point), point


def test_cold_scans_hold_about_one_block_of_codes():
    # with the orbit caches warm, a scan holds one block's codes (at most
    # _BLOCK_CELLS float64, 0.5 MiB) and their temporaries at a time
    for scan in (lambda: partitions._pair_table.__wrapped__(8, 8, 8),
                 lambda: _order_histogram.__wrapped__(2, 2, 12),
                 lambda: _order_histogram.__wrapped__(3, 3, 8)):
        scan()
        tracemalloc.start()
        try:
            scan()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 10**6, peak


def test_scans_blocked_over_representatives_keep_their_counts(monkeypatch):
    # where one row of a against every representative is over the block
    # bound, the scan takes the representatives a slice at a time
    tables = {point: partitions._pair_table.__wrapped__(*point) for point in ((6, 6, 6), (7, 3, 4))}
    monkeypatch.setattr(partitions, "_BLOCK_CELLS", 12)
    for point, table in tables.items():
        assert partitions._pair_table.__wrapped__(*point) == table, point
    for point in ((4, 3, 5), (2, 7, 5), (6, 2, 4)):
        assert _order_histogram.__wrapped__(*point) == labelled_order_histogram(*point), point


def test_counting_condition_trivial_families():
    # equal i indices, constant a, or constant b always satisfy the condition,
    # and every shift is a period of the kernel's table for a constant a or b
    for a in itertools.product(range(3), repeat=3):
        for b in itertools.product(range(2), repeat=3):
            assert counter_condition((1, 1), a, b, 3, 2)
    for i in itertools.product(range(3), repeat=2):
        assert counter_condition(i, (2, 2, 2), (0, 1, 1), 3, 2)
        assert counter_condition(i, (0, 2, 1), (1, 1, 1), 3, 2)
    for a, b in (((2, 2, 2), (0, 1, 1)), ((0, 2, 1), (1, 1, 1))):
        assert _kernel_periods(a, b, 3).all(), (a, b)


def test_counting_condition_hand_example():
    assert not counter_condition((0, 1), (0, 1), (0, 1), 2, 2)
    assert _kernel_periods((0, 1), (0, 1), 2).tolist() == [True, False]


def test_counting_condition_matches_counter_oracle():
    # the kernel's periods of a pair decide the condition for every i
    for M, N in ((2, 2), (2, 3), (3, 2)):
        for a in itertools.product(range(M), repeat=2):
            for b in itertools.product(range(N), repeat=2):
                periodic = _kernel_periods(a, b, M)
                for i in itertools.product(range(M), repeat=2):
                    rule = periodic[(i[0] - i[1]) % M] and periodic[(i[1] - i[0]) % M]
                    assert rule == counter_condition(i, a, b, M, N), (i, a, b)


def test_solution_set_is_subgroup():
    # the shifts that solve a pair contain 0 and are closed under addition mod M
    for M, N, p in itertools.product(range(1, 7), range(1, 4), range(1, 5)):
        if (M * N)**p > 2 * 10**5:
            continue
        periodic = _periods(_difference_tables(*every_pair(M, N, p), M, N))
        both = periodic[:, :, None] & periodic[:, None, :]
        total = (np.arange(M)[:, None] + np.arange(M)) % M
        assert periodic[:, 0].all() and (periodic[:, total] | ~both).all(), (M, N, p)


def test_counting_condition_is_difference_rule():
    # the condition holds iff every cyclic difference i_x - i_{x+1} solves
    # (a, b), so M |H|^(r-1) of the i-tuples pass
    for M, N, p, r in ((2, 2, 3, 3), (3, 2, 3, 2), (4, 2, 2, 3), (4, 3, 2, 2),
                       (6, 2, 2, 2)):
        a, b = every_pair(M, N, p)
        periodic = _periods(_difference_tables(a, b, M, N))
        tuples = np.array(list(itertools.product(range(M), repeat=r)))
        rule = periodic[:, (tuples - np.roll(tuples, -1, axis=1)) % M].all(axis=2)
        for pair, row in zip(zip(a.tolist(), b.tolist()), rule.tolist()):
            assert [counter_condition(i, *pair, M, N) for i in tuples.tolist()] == row, pair
        assert (rule.sum(axis=1) == M * periodic.sum(axis=1)**(r - 1)).all(), (M, N, p, r)


def test_count_d_trivial_values():
    for M, N, p, r in itertools.product(range(1, 4), repeat=4):
        if M == 1 or N == 1 or p == 1 or r == 1:
            assert count_d(M, N, p, r) == 1


def test_count_d_at_r_1_builds_no_histogram(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("_order_histogram called")

    monkeypatch.setattr(truncated, "_order_histogram", refuse)
    assert count_d(4, 4, 9, 1) == 1


def test_count_d_matches_literal_enumeration():
    for M, N, p, r in itertools.product((2, 3), (2,), (2, 3), (2, 3)):
        hits = 0
        for i in itertools.product(range(M), repeat=r):
            for a in itertools.product(range(M), repeat=p):
                for b in itertools.product(range(N), repeat=p):
                    hits += counter_condition(i, a, b, M, N)
        assert count_d(M, N, p, r) == Fraction(hits, M**(p + r) * N**p)


def test_count_d_agrees_with_i_tuple_average():
    # count_d is the mean over the pairs of (|H| / M)^(r-1)
    for M, N, p in ((2, 2, 2), (4, 2, 3), (3, 3, 3), (6, 2, 3)):
        orders = _orders(*every_pair(M, N, p), M, N).tolist()
        for r in (1, 2, 3):
            total = sum(Fraction(h, M)**(r - 1) for h in orders)
            assert count_d(M, N, p, r) == total / (M * N)**p, (M, N, p, r)


def test_count_d_thread_invariance():
    _order_histogram.cache_clear()
    serial = count_d(3, 3, 4, 2)
    _order_histogram.cache_clear()
    threaded = count_d(3, 3, 4, 2, threads=2)
    assert serial == threaded


def test_count_d_budget_guard():
    # the lumped kernel's work: R = 11051 partitions of 9 with at most 4
    # blocks, R p to build their rows and R p to find their orbits, then R / p
    # representatives against M^(p-1) pinned a at 2p + M^2 min(N, p) each
    with pytest.raises(BudgetError) as info:
        count_d(4, 4, 9, 2)
    assert info.value.estimated_ops == 2 * 11051 * 9 + 4**8 * 11051 * (2 * 9 + 4 * 4 * 4) // 9
    # an estimate beyond the float range is still named, not an OverflowError;
    # past one partition's cost it is the lower bound R = 1
    with pytest.raises(BudgetError, match=r"~4\.177e\+180 "):
        count_d(2, 2, 600, 2)
    # and one beyond str()'s digit limit too
    with pytest.raises(BudgetError, match=r"e\+30102 "):
        count_d(2, 2, 10**5, 2)


def test_huge_p_is_refused_or_answered_at_once():
    for call in (lambda: count_d(2, 2, 10**8, 2), lambda: count_d(2, 2, 10**20, 2),
                 lambda: alpha(2, 2, 10**7, 2)):
        start = time.perf_counter()
        with pytest.raises(BudgetError) as info:
            call()
        assert time.perf_counter() - start < 0.1
        assert info.value.estimated_ops > info.value.budget
    # M^(p-1) is named by its logarithm: 10^8 - 1 bits of pinned a
    with pytest.raises(BudgetError, match=r"~3\.685e\+30102999 "):
        count_d(2, 2, 10**8, 2)
    start = time.perf_counter()
    assert count_d(1, 5, 10**20, 2) == count_d(5, 1, 10**20, 3) == 1
    assert delta_direct(1, 7, 10**20) == 1
    assert time.perf_counter() - start < 0.1


def test_powers_are_priced_by_their_bits():
    # (MN)^(p-1) would take seconds to form; the gate reads its bit length first
    start = time.perf_counter()
    with pytest.raises(BudgetError):
        c_from_d(Fraction(1, 3), 2, 2, 10**9)
    assert time.perf_counter() - start < 0.1
    assert c_from_d(Fraction(1, 3), 2, 2, 3) == Fraction(16, 3)


def test_values_equal_to_one_form_no_powers():
    # count_d at p = 1 and beta at delta = 1 are 1, answered before any
    # price: no histogram, h^(r-1) or M^(r-1) is formed, and at r = 10^9 the
    # bits of those powers (4.4e13 as priced) refuse nothing
    for call in (lambda: count_d(3, 12, 1, 10**6), lambda: beta(3, 12, 1, 10**6, Fraction(1)),
                 lambda: count_d(3, 5, 1, 10**9), lambda: beta(3, 5, 1, 10**9, Fraction(1))):
        start = time.perf_counter()
        assert call() == 1
        assert time.perf_counter() - start < 0.1


def test_count_d_budget_does_not_depend_on_r():
    refused = []
    for r in (2, 50):
        with pytest.raises(BudgetError) as info:
            count_d(4, 4, 9, r)
        refused.append(info.value.estimated_ops)
    assert refused[0] == refused[1]


def test_trivial_sides_build_no_partitions(monkeypatch):
    def refuse(*args):
        raise AssertionError("no partition table is needed")
    monkeypatch.setattr(partitions, "_rgs_array", refuse)
    monkeypatch.setattr(partitions, "_rgs_orbits", refuse)
    assert count_d(1, 5, 12, 2) == 1
    assert count_d(5, 1, 12, 3) == 1
    assert delta_direct(1, 7, 20) == delta_direct(6, 1, 20) == 1


def test_count_d_large_r_from_histogram():
    _order_histogram.cache_clear()
    histogram = _order_histogram(2, 2, 10)
    total = sum(mult * h**29 for h, mult in histogram.items())
    assert count_d(2, 2, 10, 30) == Fraction(total * 2 * 2 * 2, 2**40 * 2**10)


def test_cached_histogram_is_never_refused():
    _order_histogram.cache_clear()
    warm = count_d(2, 2, 10, 2), delta_direct(2, 2, 10)
    with budget(1):
        assert (count_d(2, 2, 10, 2), delta_direct(2, 2, 10)) == warm
    _order_histogram.cache_clear()
    with budget(1), pytest.raises(BudgetError):
        count_d(2, 2, 10, 2)


def test_histogram_cache_evicts_the_oldest():
    maxsize = _order_histogram.cache_parameters()["maxsize"]
    _order_histogram.cache_clear()
    value = count_d(2, 2, 3, 3)
    # maxsize trivial points after (2, 2, 3) push it out; the rest stay held
    trivial = [(1, N, 1) for N in range(1, maxsize + 1)]
    for point in trivial:
        _order_histogram(*point)
    info = _order_histogram.cache_info()
    assert (info.currsize, info.misses, info.hits) == (maxsize, maxsize + 1, 0)
    _order_histogram(*trivial[0])
    assert _order_histogram.cache_info().hits == 1
    assert count_d(2, 2, 3, 3) == value
    assert _order_histogram.cache_info().misses == maxsize + 2
    _order_histogram.cache_clear()


def test_c_from_d():
    assert c_from_d(Fraction(1), 2, 2, 3) == 16
    assert c_from_d(Fraction(3, 4), 5, 7, 1) == Fraction(3, 4)
    for M, N, r in itertools.product((1, 2, 3), (1, 2, 3), (1, 2)):
        assert c_from_d(count_d(M, N, 1, r), M, N, 1) == 1


def test_alpha_closed_form():
    for N, p, r in itertools.product((1, 2, 5), (1, 3), (1, 4)):
        assert alpha(1, N, p, r) == 1
    for M, N, p in itertools.product((2, 3), (2, 3), (2, 4)):
        assert alpha(M, N, p, 1) == 1
    for M, N, r in itertools.product(range(1, 5), range(1, 5), range(1, 5)):
        assert alpha(M, N, 2, r) == count_d(M, N, 2, r)


def test_beta_closed_form():
    for M, N, p in itertools.product((2, 4), (2, 3), (2, 5)):
        assert beta(M, N, p, 1, delta_partition(M, N, p)) == 1
    for M, N, r in itertools.product(range(1, 4), range(1, 4), range(1, 5)):
        assert beta(M, N, 3, r, delta_partition(M, N, 3)) == count_d(M, N, 3, r)


def test_beta_dominates_alpha():
    for M, N, p, r in itertools.product(range(1, 5), range(1, 5), range(1, 6), range(1, 5)):
        assert beta(M, N, p, r, delta_partition(M, N, p)) >= alpha(M, N, p, r)


def test_ordering_chain_on_grid():
    # 0 <= alpha <= beta <= d <= 1 and d >= delta, exact comparisons
    for M, N, p in itertools.product(range(1, 5), range(1, 5), range(1, 6)):
        delta = delta_partition(M, N, p)
        for r in range(1, 5):
            d = count_d(M, N, p, r)
            a = alpha(M, N, p, r)
            b = beta(M, N, p, r, delta)
            assert 0 <= a <= b <= d <= 1, (M, N, p, r)
            assert d >= delta


def test_beta_gap_decay():
    # at M = N = 2, p = 4 the excess over the closed-form bound dies like 2^(1-r)
    delta = delta_partition(2, 2, 4)
    for r in range(2, 9):
        gap = count_d(2, 2, 4, r) - beta(2, 2, 4, r, delta)
        assert 0 <= gap <= Fraction(1, 2**(r - 1))


def test_d42_closed_form():
    for N in (1, 2, 3, 5):
        assert d42_closed(3, N) == beta(3, N, 4, 2, delta_partition(3, N, 4))
        assert d42_closed(2, N) == beta(2, N, 4, 2, delta_partition(2, N, 4))
    # (MN)^4 delta_4 is a polynomial of degree <= 4 in M and in N on both
    # sides (the partition sum, and MN times d42_closed's numerator), and
    # beta is one-to-one in delta for M >= 2. So agreement on this 5 x 5 grid
    # (and more) proves d42_closed's polynomial for every M and N.
    for M, N in itertools.product(range(2, 7), range(1, 7)):
        even_m = Fraction((M - 2) * (N - 1), M**4 * N**3) if M % 2 == 0 else 0
        assert d42_closed(M, N) == beta(M, N, 4, 2, delta_partition(M, N, 4)) + even_m, (M, N)
    for M, N in itertools.product((2, 3, 4), (2, 3)):
        assert d42_closed(M, N) == count_d(M, N, 4, 2)


def test_beta_exact_for_prime_M():
    for M, N, p, r in itertools.product((2, 3, 5), (2, 3), (4, 5), (2, 3, 4)):
        assert beta(M, N, p, r, delta_partition(M, N, p)) == count_d(M, N, p, r), \
            (M, N, p, r)


def test_closed_form_is_exact_where_it_says():
    forms = {"alpha": lambda M, N, p, r: alpha(M, N, p, r),
             "beta": lambda M, N, p, r: beta(M, N, p, r, delta_partition(M, N, p)),
             "d42": lambda M, N, p, r: d42_closed(M, N)}
    for M, N, p, r in itertools.product(range(1, 7), range(1, 4), range(1, 6), range(1, 5)):
        if (M * N)**p > 10**5:
            continue
        for method, form in forms.items():
            if closed_form_is_exact(method, M, N, p, r):
                assert form(M, N, p, r) == count_d(M, N, p, r), (method, M, N, p, r)
    # beta misses the order-two class at even M >= 4
    assert not closed_form_is_exact("beta", 4, 2, 4, 2)
    assert beta(4, 2, 4, 2, delta_partition(4, 2, 4)) != count_d(4, 2, 4, 2)
    with pytest.raises(ParameterError):
        closed_form_is_exact("gamma", 2, 2, 2, 2)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))

    assert [n for n in range(-3, 10**5) if truncated._is_prime(n) != trial(n)] == []
    # a Carmichael number and strong pseudoprimes to the bases up to 7 and
    # up to 37, against a Mersenne prime
    for n in (561, 3215031751, 318665857834031151167461):
        assert not truncated._is_prime(n), n
    assert truncated._is_prime(2**61 - 1)
    # past the bound where the bases are exact, the trial division is priced
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="trial division of a 89-bit M"):
        truncated._is_prime(2**89 - 1)
    assert time.perf_counter() - start < 0.1


def test_even_M_excess_is_order_two_class():
    # the excess of d_4^r over beta_4^r comes from pairs whose solution set
    # is {0, M/2}: it scales as (2^(r-1) - 1) / M^(r-1) in r
    for M, N in itertools.product((4, 6), (2, 3)):
        delta = delta_partition(M, N, 4)
        excess = [count_d(M, N, 4, r) - beta(M, N, 4, r, delta) for r in (2, 3)]
        assert excess[0] > 0
        assert excess[1] == Fraction(3, M) * excess[0], (M, N)


def test_base_condition_and_solution_set():
    # the base condition {(a_y, b_y)}_y = {(a_y, b_{y+1})}_y is a vanishing
    # table; 0 is always a period, and every shift is one exactly then
    def table(a, b, M, N):
        return _difference_tables(np.array([a]), np.array([b]), M, N)

    assert not table((0, 0), (1, 1), 2, 2).any()
    assert table((0, 1), (0, 1), 2, 2).any()
    # constant a makes every shift a solution
    assert _periods(table((1, 1, 1), (0, 2, 1), 4, 3)).all()
    for M, N, p in itertools.product((1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4)):
        f = _difference_tables(*every_pair(M, N, p), M, N)
        periodic = _periods(f)
        assert periodic[:, 0].all(), (M, N, p)
        assert (periodic.all(axis=1) == ~f.any(axis=(1, 2))).all(), (M, N, p)


def test_i_tuple_probability_bounds():
    # at prime M = 2 the periods are {0} or Z_2: a pair admits every i-tuple
    # when its table vanishes, and else 1 / M^(r-1) of them
    M = 2
    for N in (2, 3):
        for p in (2, 3):
            for a, b in _grid_pairs(M, N, p):
                base = not _difference_tables(np.array([a]), np.array([b]), M, N).any()
                for r in (1, 2, 3):
                    hits = sum(counter_condition(i, a, b, M, N)
                               for i in itertools.product(range(M), repeat=r))
                    assert Fraction(hits, M**r) == (1 if base else Fraction(1, M**(r - 1)))


def test_parameter_validation():
    with pytest.raises(ParameterError):
        count_d(0, 2, 2, 2)
    with pytest.raises(ParameterError):
        count_d(2, 2, 0, 2)
    with pytest.raises(ParameterError):
        count_d(2, 2, 2, 0)
    with pytest.raises(ParameterError):
        alpha(2, 2, 2, -1)
    for args in ((True, 2, 2, 2), (2, True, 2, 2), (2, 2, True, 2), (2, 2, 2, True)):
        with pytest.raises(ParameterError):
            count_d(*args)
