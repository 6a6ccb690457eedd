import itertools
import sys
import time

import numpy as np
import pytest

from fouriermoments import partitions
from fouriermoments.asymptotics import stirling_polynomial
from fouriermoments.errors import BudgetError, ParameterError, budget
from fouriermoments.partitions import (
    SetPartition,
    _order_histogram,
    _pair_table,
    _rgs_array,
    _rgs_orbits,
    _stirling_row,
    bell_number,
    enumerate_partitions,
    is_noncrossing,
    kreweras_complement,
    noncrossing_partitions,
    shift_block,
    stirling_number,
    triangle_pair_counts,
    triangle_relation,
)

from helpers import (
    _difference_tables,
    assert_codes_name_rows,
    bell_numbers,
    catalan,
    crossing_by_quadruples,
    narayana,
    reflect_partition,
    rotate_partition,
    rotation_orbits,
    stirling2,
    table_row_codes,
    two_block_pairs,
)


def test_enumeration_counts_match_bell_triangle():
    oracle = bell_numbers(9)
    for p in range(1, 10):
        assert sum(1 for _ in enumerate_partitions(p)) == oracle[p]


def test_enumeration_examples():
    assert len(list(enumerate_partitions(1))) == 1
    assert len(list(enumerate_partitions(3))) == 5
    parts4 = list(enumerate_partitions(4))
    assert len(parts4) == 15
    assert sum(1 for q in parts4 if q.num_blocks == 2) == 7


def test_enumeration_is_rgs_ordered_and_duplicate_free():
    for p in (3, 4, 5):
        rgs_seen = [q.rgs() for q in enumerate_partitions(p)]
        assert rgs_seen == sorted(rgs_seen)
        assert len(set(rgs_seen)) == len(rgs_seen)


def test_enumeration_cap_and_bad_p():
    with pytest.raises(BudgetError):
        list(enumerate_partitions(13))
    with pytest.raises(ParameterError):
        list(enumerate_partitions(0))
    # True == 1, so a cached p = 1 table must not answer for it
    assert triangle_pair_counts(1, 1, 1) == {(1, 1): 1}
    for call in (lambda: list(enumerate_partitions(True)),
                 lambda: triangle_pair_counts(True, 1, 1),
                 lambda: bell_number(True)):
        with pytest.raises(ParameterError):
            call()


def test_streams_are_priced_by_their_length():
    # Bell(p) or Catalan(p) partitions at p^2 each: the default budget admits
    # full streams to p = 12 and non-crossing ones to p = 14, each at once
    start = time.perf_counter()
    assert [next(noncrossing_partitions(p)).p for p in (13, 14)] == [13, 14]
    assert next(enumerate_partitions(12)).p == 12
    for stream, p, length in ((enumerate_partitions, 13, bell_number(13)),
                              (noncrossing_partitions, 15, catalan(15))):
        with pytest.raises(BudgetError) as info:
            next(stream(p))
        assert info.value.estimated_ops == length * p * p
    with budget(catalan(13) * 169 - 1), pytest.raises(BudgetError):
        next(noncrossing_partitions(13))
    # a count too large to form is refused from the logarithm of its floor
    for stream in (enumerate_partitions, noncrossing_partitions):
        with pytest.raises(BudgetError):
            next(stream(10**400))
    assert time.perf_counter() - start < 1.0


def test_canonical_form_and_validation():
    part = SetPartition.from_blocks([{3}, {1, 0}, {2}])
    assert part.blocks == ((0, 1), (2,), (3,))
    assert part == SetPartition.from_blocks([[2], [0, 1], [3]])
    assert part.p == 4 and SetPartition.from_blocks([]).p == 0
    with pytest.raises(ParameterError, match="do not partition"):
        SetPartition.from_blocks([{0, 2}])  # misses 1
    with pytest.raises(ParameterError, match="disjoint"):
        SetPartition.from_blocks([{0, 1}, {1, 2}])  # overlap
    with pytest.raises(ParameterError):
        SetPartition(((1, 0), (2,)))  # non-canonical direct construction
    with pytest.raises(ParameterError, match="empty block"):
        SetPartition.from_blocks([[], [0]])
    with pytest.raises(ParameterError, match="block element"):
        SetPartition.from_blocks([["a"], [0]])
    for blocks in (((0, True),), ((0.0,),)):  # direct construction checks elements too
        with pytest.raises(ParameterError, match="block element"):
            SetPartition(blocks)


def test_noncrossing_examples():
    assert is_noncrossing(SetPartition.from_blocks([{0, 1, 2}]))
    assert not is_noncrossing(SetPartition.from_blocks([{0, 2}, {1, 3}]))
    assert is_noncrossing(SetPartition.from_blocks([{0, 3}, {1, 2}]))
    count_nc4 = sum(1 for q in enumerate_partitions(4) if is_noncrossing(q))
    assert count_nc4 == catalan(4) == 14
    empty = SetPartition.from_rgs(())
    assert is_noncrossing(empty) and kreweras_complement(empty) == empty


def test_noncrossing_matches_quadruple_scan():
    for p in range(1, 7):
        for part in enumerate_partitions(p):
            assert is_noncrossing(part) == (not crossing_by_quadruples(part.blocks, p))


def test_noncrossing_stream_matches_filter():
    for p in range(1, 9):
        stream = [q.blocks for q in noncrossing_partitions(p)]
        filtered = {q.blocks for q in enumerate_partitions(p) if is_noncrossing(q)}
        assert len(stream) == len(set(stream))  # each partition exactly once
        assert set(stream) == filtered


def test_kreweras_extremes():
    for p in (1, 2, 5, 8):
        one, singletons = SetPartition.from_rgs([0] * p), SetPartition.from_rgs(range(p))
        assert kreweras_complement(one) == singletons
        assert kreweras_complement(singletons) == one


def test_kreweras_rejects_crossing():
    with pytest.raises(ParameterError):
        kreweras_complement(SetPartition.from_blocks([{0, 2}, {1, 3}]))


@pytest.mark.parametrize("p", range(1, 9))
def test_kreweras_invariants_exhaustive(p):
    for part in noncrossing_partitions(p):
        comp = kreweras_complement(part)
        assert is_noncrossing(comp)
        assert part.num_blocks + comp.num_blocks == p + 1
        # applying it twice rotates every element one step backwards
        twice = kreweras_complement(comp)
        rotated = SetPartition.from_blocks([[(x - 1) % p for x in block] for block in part.blocks])
        assert twice == rotated
        assert sorted(map(len, twice.blocks)) == sorted(map(len, part.blocks))


def test_shift_block():
    assert shift_block({0}, 4) == {3}
    assert shift_block(set(range(5)), 5) == set(range(5))
    for beta in ({0, 2}, {1}, {0, 1, 3}):
        assert len(shift_block(beta, 4)) == len(beta)
    with pytest.raises(ParameterError):
        shift_block({4}, 4)


def test_triangle_relation_one_block_rows():
    for p in range(1, 7):
        one = SetPartition.from_rgs([0] * p)
        for sigma in enumerate_partitions(p):
            assert triangle_relation(one, sigma)
            assert triangle_relation(sigma, one)


def test_triangle_relation_examples():
    singles = SetPartition.from_blocks([{0}, {1}])
    assert not triangle_relation(singles, singles)
    two_block = [q for q in enumerate_partitions(3) if q.num_blocks == 2]
    hits = sum(1 for a in two_block for b in two_block if triangle_relation(a, b))
    assert hits == 3
    with pytest.raises(ParameterError):
        triangle_relation(SetPartition.from_rgs([0] * 2), SetPartition.from_rgs([0] * 3))


def test_triangle_pairs_block_count_bound():
    # every compatible pair satisfies |pi| + |sigma| <= p + 1
    for p in range(2, 8):
        for pi, sigma in itertools.product(enumerate_partitions(p), repeat=2):
            if pi.num_blocks + sigma.num_blocks > p + 1:
                assert not triangle_relation(pi, sigma)
    table = triangle_pair_counts(8, 8, 8)
    assert all(v == 0 for (s, t), v in table.items() if s + t > 9)


def test_triangle_table_matches_pairwise_scan():
    for p in range(1, 6):
        table = triangle_pair_counts(p, p, p)
        brute = {}
        for pi, sigma in itertools.product(enumerate_partitions(p), repeat=2):
            if triangle_relation(pi, sigma):
                key = (pi.num_blocks, sigma.num_blocks)
                brute[key] = brute.get(key, 0) + 1
        assert {k: v for k, v in table.items() if v} == brute


def test_triangle_table_is_symmetric_under_transpose():
    # swapping the sides is no symmetry of the relation pair by pair (see
    # test_reflection_and_swap_are_not_symmetries), but the counts are
    for p in range(1, 9):
        table = triangle_pair_counts(p, p, p)
        assert all(table[(t, s)] == pairs for (s, t), pairs in table.items()), p


def test_every_table_is_a_restriction_of_the_full_table():
    # with the transpose symmetry, what lets one scan answer both orientations
    for p in range(1, 8):
        full = triangle_pair_counts(p, p, p)
        for smax, tmax in itertools.product(range(1, p + 2), repeat=2):
            assert triangle_pair_counts(p, smax, tmax) == \
                {(s, t): full[(s, t)] for s in range(1, min(smax, p) + 1)
                 for t in range(1, min(tmax, p) + 1)}, (p, smax, tmax)


def test_one_scan_answers_a_table_and_its_transpose():
    triangle_pair_counts.cache_clear()
    wide = triangle_pair_counts(9, 3, 2)
    tall = triangle_pair_counts(9, 2, 3)
    info = triangle_pair_counts.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert list(wide) == [(s, t) for s in range(1, 4) for t in range(1, 3)]  # row order
    assert wide == {(s, t): pairs for (t, s), pairs in tall.items()}


def test_two_block_pairs_match_the_closed_form():
    for p in range(2, 15):
        assert triangle_pair_counts(p, 2, 2)[(2, 2)] == two_block_pairs(p), p


def test_one_block_tables_come_from_stirling_numbers(monkeypatch):
    for p in range(1, 8):
        full = triangle_pair_counts(p, p, p)
        assert triangle_pair_counts(p, 1, p) == {k: v for k, v in full.items() if k[0] == 1}
        assert triangle_pair_counts(p, p, 1) == {k: v for k, v in full.items() if k[1] == 1}

    def refuse(*args):
        raise AssertionError("partitions enumerated")

    # Bell(12) = 4.2M rows would take about 400 MB
    monkeypatch.setattr(partitions, "_rgs_array", refuse)
    monkeypatch.setattr(partitions, "_rgs_orbits", refuse)
    assert triangle_pair_counts(12, 1, 12) == {(1, t): stirling2(12, t) for t in range(1, 13)}


def test_pair_scan_budget():
    # R_s R_t + (5 R_s + R_t) p^2, with R = 2^(p-1) at two blocks; the
    # Stirling row is priced by its own gate
    R = 2**9
    cost = R * R + 6 * R * 100
    # refused before it is admitted, since a cached table is never refused
    triangle_pair_counts.cache_clear()
    with budget(cost - 1), pytest.raises(BudgetError) as info:
        triangle_pair_counts(10, 2, 2)
    assert info.value.estimated_ops == cost
    with budget(cost):
        assert triangle_pair_counts(10, 2, 2)[(2, 2)] == two_block_pairs(10)
    # at p = 10^5 the Stirling row alone is over the budget; it is not built
    with pytest.raises(BudgetError) as info:
        triangle_pair_counts(10**5, 2, 2)
    assert info.value.estimated_ops == \
        10**10 * (1 + 10**5 * 17 // sys.int_info.bits_per_digit) // 2


def test_triangle_relation_is_invariant_under_joint_rotation():
    for p in range(1, 7):
        parts = list(enumerate_partitions(p))
        rotated = {q: rotate_partition(q) for q in parts}
        for pi, sigma in itertools.product(parts, repeat=2):
            assert triangle_relation(rotated[pi], rotated[sigma]) == \
                triangle_relation(pi, sigma), (pi, sigma)


def test_difference_table_vanishes_exactly_on_compatible_pairs():
    # with a = sigma and b = pi as labels, f(m, n) is the meet of block m of
    # sigma with block n of pi, less its meet with that block shifted left
    for p in range(1, 7):
        parts = list(enumerate_partitions(p))
        rows = np.array([q.rgs() for q in parts])
        for pi, pi_row in zip(parts, rows):
            f = _difference_tables(rows, np.tile(pi_row, (len(rows), 1)), p, p)
            assert (~f.any(axis=(1, 2))).tolist() == \
                [triangle_relation(pi, sigma) for sigma in parts], pi


def test_row_codes_name_the_rows_of_partition_tables():
    # every pair of partitions of p <= 6, as labels a = sigma and b = pi,
    # and the kernel's codes are those codes, word by word
    for p in range(1, 7):
        rows = _rgs_array(p, p)[0]
        f = _difference_tables(np.repeat(rows, len(rows), axis=0),
                               np.tile(rows, (len(rows), 1)), p, p)
        codes = table_row_codes(f, p)
        assert_codes_name_rows(f, codes)
        weights, W = partitions._code_weights(rows, p)
        kernel = partitions._row_codes(rows, weights, p, W)
        assert (kernel.transpose(0, 3, 1, 2).reshape(codes.shape) == codes).all(), p


def test_reflection_and_swap_are_not_symmetries():
    pi = SetPartition.from_blocks([{0, 1}, {2}])
    sigma = SetPartition.from_blocks([{0, 2}, {1}])
    assert not triangle_relation(pi, sigma)
    assert triangle_relation(sigma, pi)
    assert triangle_relation(reflect_partition(pi), reflect_partition(sigma))


def test_rotation_orbits_partition_the_rgs_rows():
    # rotation keeps the block count, so each row set is a union of orbits
    for p in range(1, 10):
        for s in range(1, p + 1):
            rows = _rgs_array(p, s)[0]
            members = set(map(tuple, rows.tolist()))
            orbits = rotation_orbits(rows.tolist())
            assert all(orbit <= members and p % len(orbit) == 0
                       for orbit in orbits.values())
            assert sum(len(orbit) for orbit in orbits.values()) == rows.shape[0]
            reps, sizes = _rgs_orbits(p, s)
            assert {tuple(rep): int(size) for rep, size in zip(reps.tolist(), sizes)} \
                == {rep: len(orbit) for rep, orbit in orbits.items()}


def test_partition_table_caches_are_bounded():
    for cached in (_stirling_row, _rgs_array, _rgs_orbits, _pair_table, _order_histogram):
        assert cached.cache_parameters()["maxsize"] is not None, cached


def test_partition_stats_tables():
    assert [stirling_number(4, s) for s in range(1, 5)] == [1, 7, 6, 1]
    assert stirling_polynomial(4).coefficients[1:] == (1, 6, 6, 1)
    assert bell_number(3) == 5
    for p in range(1, 10):
        stirling = [stirling_number(p, s) for s in range(1, p + 1)]
        assert bell_number(p) == sum(stirling) == bell_numbers(p)[p]
        assert sum(stirling_polynomial(p).coefficients) == catalan(p)
        for s in range(1, p + 1):
            assert stirling[s - 1] == stirling2(p, s)
        for k, count in enumerate(stirling_polynomial(p).coefficients[1:], 1):
            assert count == narayana(p, k)


def test_stirling_number_edges():
    assert stirling_number(5, 0) == 0
    assert stirling_number(5, 6) == 0
    assert bell_number(0) == 1


def test_stirling_row_is_priced_not_capped():
    # the row is O(p^2) bigint sums: p = 13 is cheap, p = 10^4 is refused at once
    assert bell_number(13) == bell_numbers(13)[13]
    assert [stirling_number(13, s) for s in range(1, 14)] == \
        [stirling2(13, s) for s in range(1, 14)]
    start = time.perf_counter()
    for call in (lambda: bell_number(10**4), lambda: stirling_number(10**4, 2)):
        with pytest.raises(BudgetError) as info:
            call()
        assert info.value.estimated_ops == \
            10**8 * (1 + 10**4 * 14 // sys.int_info.bits_per_digit) // 2
    assert time.perf_counter() - start < 0.1
