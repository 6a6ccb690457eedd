import itertools
from fractions import Fraction

import numpy as np
import pytest

from fouriermoments import partitions, truncated
from fouriermoments.errors import BudgetError, ParameterError
from fouriermoments.limits import delta_direct, delta_partition
from fouriermoments.truncated import (
    _HISTOGRAM_CACHE,
    _difference_tables,
    _order_histogram,
    _periods,
    alpha,
    base_condition,
    beta,
    c_from_d,
    closed_form_is_exact,
    count_d,
    counting_condition,
    d42_closed,
    i_tuple_probability,
    solution_set,
)

from helpers import counter_condition, labelled_order_histogram


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


def test_order_histogram_matches_labelled_enumeration():
    # prime and composite M, N above p, N at or below p, and the trivial sides
    for point in ((2, 5, 3), (3, 4, 3), (4, 5, 3), (6, 4, 3), (5, 6, 3), (3, 5, 4),
                  (4, 5, 4), (6, 5, 4), (2, 7, 5), (2, 4, 6), (4, 2, 5), (6, 2, 4),
                  (4, 3, 4), (3, 3, 3), (1, 5, 4), (4, 1, 4), (1, 1, 3), (3, 2, 1)):
        assert _order_histogram(*point) == labelled_order_histogram(*point), point


def test_counting_condition_trivial_families():
    # equal i indices, constant a, or constant b always satisfy the condition
    for a in itertools.product(range(3), repeat=3):
        for b in itertools.product(range(2), repeat=3):
            assert counting_condition((1, 1), a, b, 3, 2)
    for i in itertools.product(range(3), repeat=2):
        assert counting_condition(i, (2, 2, 2), (0, 1, 1), 3, 2)
        assert counting_condition(i, (0, 2, 1), (1, 1, 1), 3, 2)


def test_counting_condition_hand_example():
    assert not counting_condition((0, 1), (0, 1), (0, 1), 2, 2)


def test_counting_condition_matches_counter_oracle():
    for M, N in ((2, 2), (2, 3), (3, 2)):
        for i in itertools.product(range(M), repeat=2):
            for a in itertools.product(range(M), repeat=2):
                for b in itertools.product(range(N), repeat=2):
                    assert counting_condition(i, a, b, M, N) == \
                        counter_condition(i, a, b, M, N)


def test_solution_set_is_subgroup():
    # the shifts that solve a pair are closed under addition mod M
    for M, N, p in itertools.product(range(1, 7), range(1, 4), range(1, 5)):
        if (M * N)**p > 2 * 10**5:
            continue
        for a, b in _grid_pairs(M, N, p):
            shifts = solution_set(a, b, M, N)
            assert {(s + t) % M for s in shifts for t in shifts} == shifts, (a, b)


def test_counting_condition_is_difference_rule():
    # the condition holds iff every cyclic difference i_x - i_{x+1} solves (a, b)
    for M, N, p, r in ((2, 2, 3, 3), (3, 2, 3, 2), (4, 2, 2, 3), (4, 3, 2, 2),
                       (6, 2, 2, 2)):
        for a, b in _grid_pairs(M, N, p):
            shifts = solution_set(a, b, M, N)
            hits = 0
            for i in itertools.product(range(M), repeat=r):
                rule = all((i[x] - i[(x + 1) % r]) % M in shifts for x in range(r))
                assert counting_condition(i, a, b, M, N) == rule, (i, a, b)
                assert counter_condition(i, a, b, M, N) == rule, (i, a, b)
                hits += rule
            assert i_tuple_probability(a, b, M, N, r) == Fraction(hits, M**r), (a, b)


def test_per_pair_wrappers_reduce_labels():
    # labels below 0 or at least M (or N) act as their residues
    for M, N, p in ((3, 2, 3), (2, 3, 3), (4, 3, 2)):
        for a, b in _grid_pairs(M, N, p):
            wide_a = tuple(x + M * k for x, k in zip(a, (-2, 1, 3)))
            wide_b = tuple(y + N * k for y, k in zip(b, (2, -1, -3)))
            assert solution_set(wide_a, wide_b, M, N) == solution_set(a, b, M, N)
            for i in ((0, 1), (2, 0, 1)):
                assert counting_condition(i, wide_a, wide_b, M, N) == \
                    counting_condition(i, a, b, M, N), (i, a, b)
            assert i_tuple_probability(wide_a, wide_b, M, N, 2) == \
                i_tuple_probability(a, b, M, N, 2)


def test_counting_condition_validation():
    with pytest.raises(ParameterError):
        counting_condition((0,), (0, 1), (0,), 2, 2)
    with pytest.raises(ParameterError):
        counting_condition((), (0,), (0,), 2, 2)
    with pytest.raises(ParameterError):
        solution_set((0, 1), (0,), 2, 2)


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
                    hits += counting_condition(i, a, b, M, N)
        assert count_d(M, N, p, r) == Fraction(hits, M**(p + r) * N**p)


def test_count_d_agrees_with_i_tuple_average():
    M, N, p = 2, 2, 2
    for r in (1, 2, 3):
        total = sum(i_tuple_probability(a, b, M, N, r)
                    for a in itertools.product(range(M), repeat=p)
                    for b in itertools.product(range(N), repeat=p))
        assert count_d(M, N, p, r) == total / (M * N)**p


def test_count_d_thread_invariance():
    _HISTOGRAM_CACHE.clear()
    serial = count_d(3, 3, 4, 2)
    _HISTOGRAM_CACHE.clear()
    threaded = count_d(3, 3, 4, 2, threads=2)
    assert serial == threaded


def test_count_d_budget_guard():
    # the lumped kernel's work: R = 11051 partitions of 9 with at most 4
    # blocks, R p^2 to find their orbits, then R / p representatives against
    # M^(p-1) pinned a at 2p + M^2 min(N, p) each
    with pytest.raises(BudgetError) as info:
        count_d(4, 4, 9, 2)
    assert info.value.estimated_ops == 11051 * 9**2 + 4**8 * 11051 * (2 * 9 + 4 * 4 * 4) // 9
    # an estimate beyond the float range is still named, not an OverflowError;
    # past one partition's cost it is the lower bound R = 1
    with pytest.raises(BudgetError, match=r"~4\.177e\+180 "):
        count_d(2, 2, 600, 2)
    # and one beyond str()'s digit limit too
    with pytest.raises(BudgetError, match=r"e\+30102 "):
        count_d(2, 2, 10**5, 2)


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
    _HISTOGRAM_CACHE.clear()
    histogram = _order_histogram(2, 2, 10)
    total = sum(mult * h**29 for h, mult in histogram.items())
    assert count_d(2, 2, 10, 30) == Fraction(total * 2 * 2 * 2, 2**40 * 2**10)


def test_cached_histogram_is_never_refused():
    _HISTOGRAM_CACHE.clear()
    warm = count_d(2, 2, 10, 2)
    assert count_d(2, 2, 10, 2, budget=1) == warm
    assert delta_direct(2, 2, 10, budget=1) == delta_direct(2, 2, 10)
    _HISTOGRAM_CACHE.clear()
    with pytest.raises(BudgetError):
        count_d(2, 2, 10, 2, budget=1)


def test_histogram_cache_evicts_the_oldest(monkeypatch):
    points = [(2, 2, 3), (2, 3, 3), (3, 2, 3)]
    _HISTOGRAM_CACHE.clear()
    values = [count_d(M, N, p, 3) for M, N, p in points]
    _HISTOGRAM_CACHE.clear()
    monkeypatch.setattr(truncated, "_HISTOGRAM_CACHE_SIZE", 2)
    assert [count_d(M, N, p, 3) for M, N, p in points] == values
    assert list(_HISTOGRAM_CACHE) == points[1:]
    assert count_d(*points[0], 3) == values[0]
    assert list(_HISTOGRAM_CACHE) == [points[2], points[0]]
    _HISTOGRAM_CACHE.clear()


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


def test_even_M_excess_is_order_two_class():
    # the excess of d_4^r over beta_4^r comes from pairs whose solution set
    # is {0, M/2}: it scales as (2^(r-1) - 1) / M^(r-1) in r
    for M, N in itertools.product((4, 6), (2, 3)):
        delta = delta_partition(M, N, 4)
        excess = [count_d(M, N, 4, r) - beta(M, N, 4, r, delta) for r in (2, 3)]
        assert excess[0] > 0
        assert excess[1] == Fraction(3, M) * excess[0], (M, N)


def test_base_condition_and_solution_set():
    assert base_condition((0, 0), (1, 1))
    assert not base_condition((0, 1), (0, 1))
    # constant a makes every shift a solution
    assert solution_set((1, 1, 1), (0, 2, 1), 4, 3) == set(range(4))
    for M, N, p in itertools.product((1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4)):
        for a in itertools.product(range(M), repeat=p):
            for b in itertools.product(range(N), repeat=p):
                shifts = solution_set(a, b, M, N)
                assert 0 in shifts
                assert (len(shifts) == M) == base_condition(a, b)


def test_i_tuple_probability_bounds():
    for M, N in ((2, 2), (2, 3)):
        for p in (2, 3):
            for a in itertools.product(range(M), repeat=p):
                for b in itertools.product(range(N), repeat=p):
                    shifts = solution_set(a, b, M, N)
                    for r in (1, 2, 3):
                        value = i_tuple_probability(a, b, M, N, r)
                        if base_condition(a, b):
                            assert value == 1
                        else:
                            assert value <= Fraction(len(shifts), M)**(r - 1)
                            assert value == Fraction(1, M**(r - 1))


def test_i_tuple_probability_closed_form():
    # 10^12 tuples, refused when they were enumerated: the solution set of
    # this pair is {0}, so (1/10)^11 of them pass
    assert solution_set((0, 1), (0, 1), 10, 2) == {0}
    assert i_tuple_probability((0, 1), (0, 1), 10, 2, 12) == Fraction(1, 10**11)
    for args in (((), (), 2, 2, 2), ((0, 1), (0,), 2, 2, 2), ((0, 1), (0, 1), True, 2, 2),
                 ((0, 1), (0, 1), 2, 2, True)):
        with pytest.raises(ParameterError):
            i_tuple_probability(*args)


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
