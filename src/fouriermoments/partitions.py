"""Set partitions of {0,...,p-1}: enumeration, non-crossing structure,
Kreweras complementation, Stirling/Narayana counts and the cyclic-shift
compatibility relation used by the moment formulas. All values are
immutable after construction. Enumeration streams stop at ENUMERATION_CAP
and are single-consumer, but independent streams may run concurrently; the
pair scan and the Stirling counts are refused by their estimated work.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations
from typing import Iterable, Iterator

import numpy as np

from .errors import ParameterError
from .truncated import DEFAULT_BUDGET, _check_budget, _difference_tables, _validate_pos

# Enumeration over all of P(p) is refused above this ground-set size
# (Bell(12) = 4 213 597 partitions is the largest full stream supported).
ENUMERATION_CAP = 12

# Difference-table cells an orbit scan holds per block of pairs, so its peak
# memory does not grow with the number of pairs and a block stays in cache.
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class SetPartition:
    """A partition of {0,...,p-1} in canonical form.

    Blocks are sorted tuples, ordered by their minimum element, so equality
    and hashing are structural.
    """

    p: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for block in self.blocks:
            if not block:
                raise ParameterError("empty block")
            if tuple(sorted(block)) != block:
                raise ParameterError("block not sorted; use from_blocks()")
            seen.update(block)
        if seen != set(range(self.p)):
            raise ParameterError(
                f"blocks do not partition range({self.p}): union={sorted(seen)}")
        if sum(len(b) for b in self.blocks) != self.p:
            raise ParameterError("blocks are not pairwise disjoint")
        if list(self.blocks) != sorted(self.blocks, key=lambda b: b[0]):
            raise ParameterError("blocks not sorted by minimum; use from_blocks()")

    @classmethod
    def from_blocks(cls, p: int, blocks: Iterable[Iterable[int]]) -> "SetPartition":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        return cls(p, canon)

    @classmethod
    def from_rgs(cls, rgs: Iterable[int]) -> "SetPartition":
        """Build from a restricted growth string (element -> block id)."""
        rgs = tuple(rgs)
        nblocks = max(rgs) + 1 if rgs else 0
        blocks = [[] for _ in range(nblocks)]
        for element, block_id in enumerate(rgs):
            blocks[block_id].append(element)
        return cls(len(rgs), tuple(tuple(b) for b in blocks))

    def rgs(self) -> tuple[int, ...]:
        """Restricted growth string: position e holds the id of e's block."""
        out = [0] * self.p
        for block_id, block in enumerate(self.blocks):
            for element in block:
                out[element] = block_id
        return tuple(out)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(sorted(len(b) for b in self.blocks))

    @classmethod
    def one_block(cls, p: int) -> "SetPartition":
        return cls(p, (tuple(range(p)),))

    @classmethod
    def singletons(cls, p: int) -> "SetPartition":
        return cls(p, tuple((e,) for e in range(p)))


@dataclass
class PartitionStats:
    """Exact counting data for P(p): Stirling numbers, the Bell number and
    the block-count profile of the non-crossing partitions."""

    p: int
    stirling: dict[int, int]
    bell: int
    narayana: dict[int, int]


def _check_p(p: int) -> None:
    _validate_pos(p=p)
    if p > ENUMERATION_CAP:
        raise ParameterError(f"p={p} exceeds the enumeration cap {ENUMERATION_CAP}")


def _rgs_stream(p: int, max_blocks: int) -> Iterator[tuple[int, ...]]:
    # Lexicographic restricted-growth strings with an O(1) amortized successor.
    # a[j] may take values 0..min(1 + max(a[:j]), max_blocks - 1).
    a = [0] * p
    b = [1] * p  # b[j] = 1 + max(a[:j])
    while True:
        yield tuple(a)
        j = p - 1
        while j >= 1 and (a[j] >= b[j] or a[j] + 1 >= max_blocks):
            j -= 1
        if j < 1:
            return
        a[j] += 1
        nb = b[j] if a[j] < b[j] else a[j] + 1
        for k in range(j + 1, p):
            a[k] = 0
            b[k] = nb


def enumerate_partitions(p: int, max_blocks: int | None = None) -> Iterator[SetPartition]:
    """Yield every partition of {0,...,p-1} exactly once, in restricted
    growth string order. `max_blocks` restricts the stream to partitions
    with at most that many blocks."""
    _check_p(p)
    if max_blocks is None:
        max_blocks = p
    for rgs in _rgs_stream(p, max_blocks):
        yield SetPartition.from_rgs(rgs)


def noncrossing_partitions(p: int) -> Iterator[SetPartition]:
    """Yield the non-crossing partitions of {0,...,p-1}, each exactly once."""
    _check_p(p)
    for blocks in _nc_blocks(tuple(range(p))):
        yield SetPartition.from_blocks(p, blocks)


def _nc_blocks(elems: tuple[int, ...]) -> Iterator[list[tuple[int, ...]]]:
    # The block of the first element may pick any subset of the remaining
    # elements; the gaps between picked elements are then partitioned
    # independently (anything else would cross the first block).
    if not elems:
        yield []
        return
    first, rest = elems[0], elems[1:]
    n = len(rest)
    for k in range(n + 1):
        for picked in combinations(range(n), k):
            block = (first,) + tuple(rest[i] for i in picked)
            bounds = [-1, *picked, n]
            gaps = [rest[bounds[i] + 1:bounds[i + 1]] for i in range(len(bounds) - 1)]
            yield from _combine_gaps(block, gaps, 0, [])


def _combine_gaps(block, gaps, idx, acc) -> Iterator[list[tuple[int, ...]]]:
    if idx == len(gaps):
        yield [block, *acc]
        return
    for sub in _nc_blocks(gaps[idx]):
        yield from _combine_gaps(block, gaps, idx + 1, acc + sub)


def _kreweras_cycles(part: SetPartition) -> list[list[int]]:
    """The cycles of x -> pi^-1(x + 1 mod p), pi the permutation that cycles
    each block of `part` in increasing order. Their number plus the block
    count is at most p + 1, with equality exactly when `part` is non-crossing
    (Biane), and then they are the blocks of its Kreweras complement."""
    p = part.p
    inverse = [0] * p
    for block in part.blocks:
        for element, previous in zip(block, block[-1:] + block[:-1]):
            inverse[element] = previous
    cycles, unseen = [], [True] * p
    for start in range(p):
        cycle, x = [], start
        while unseen[x]:
            unseen[x] = False
            cycle.append(x)
            x = inverse[(x + 1) % p]
        if cycle:
            cycles.append(cycle)
    return cycles


def is_noncrossing(part: SetPartition) -> bool:
    """True iff no a<b<c<d has a,c in one block and b,d in another."""
    return part.p == 0 or part.num_blocks + len(_kreweras_cycles(part)) == part.p + 1


def kreweras_complement(part: SetPartition) -> SetPartition:
    """Kreweras complement of a non-crossing partition, from _kreweras_cycles.
    Satisfies |part| + |complement| = p + 1."""
    if not is_noncrossing(part):
        raise ParameterError("Kreweras complement requires a non-crossing partition")
    return SetPartition.from_blocks(part.p, _kreweras_cycles(part))


def shift_block(beta: Iterable[int], p: int) -> set[int]:
    """Cyclic left shift of a block: {(x - 1) mod p for x in beta}."""
    beta = set(beta)
    if any(x < 0 or x >= p for x in beta):
        raise ParameterError(f"block not contained in range({p})")
    return {(x - 1) % p for x in beta}


def triangle_relation(pi: SetPartition, sigma: SetPartition) -> bool:
    """Shift-compatibility of two partitions of the same ground set: every
    block of `pi` meets every block of `sigma` in as many points as its
    cyclic left shift does. Exits on the first failing pair of blocks."""
    if pi.p != sigma.p:
        raise ParameterError(f"ground-set sizes differ: {pi.p} != {sigma.p}")
    p = pi.p
    sigma_sets = [frozenset(g) for g in sigma.blocks]
    for beta in pi.blocks:
        beta_set = frozenset(beta)
        shifted = frozenset((x - 1) % p for x in beta)
        for gamma in sigma_sets:
            if len(beta_set & gamma) != len(shifted & gamma):
                return False
    return True


@lru_cache(maxsize=64)
def _stirling_row(p: int) -> tuple[int, ...]:
    # S(p, s) for s = 0..p via S(p, s) = s*S(p-1, s) + S(p-1, s-1).
    row = [1]
    for n in range(1, p + 1):
        prev = row
        row = [0] * (n + 1)
        for s in range(1, n + 1):
            row[s] = s * (prev[s] if s < n else 0) + prev[s - 1]
    return tuple(row)


def _stirling_cost(p: int) -> int:
    # p^2 / 2 sums of up to (p log2 p)-bit integers, digit by digit.
    return p * p * (1 + p * p.bit_length() // sys.int_info.bits_per_digit) // 2


def stirling_number(p: int, s: int) -> int:
    """Number of partitions of {0,...,p-1} with exactly s blocks."""
    if s < 0 or s > p:
        return 0
    _check_budget(f"Stirling row of p={p}", _stirling_cost(p), DEFAULT_BUDGET)
    return _stirling_row(p)[s]


def bell_number(p: int) -> int:
    return sum(stirling_number(p, s) for s in range(p + 1))


def _narayana_profile(p: int) -> tuple[int, ...]:
    # Block-count profile of NC(p): the Narayana numbers C(p, k) C(p, k-1) / p,
    # one ratio step each: N(p, k+1) = N(p, k) (p-k)(p-k+1) / (k(k+1)).
    return (0, *accumulate(range(1, p), lambda count, k:
                           count * (p - k) * (p - k + 1) // (k * (k + 1)), initial=1))


def partition_stats(p: int) -> PartitionStats:
    """Exact Stirling table, Bell number and non-crossing block profile."""
    _validate_pos(p=p)
    stirling = {s: stirling_number(p, s) for s in range(1, p + 1)}
    profile = _narayana_profile(p)
    return PartitionStats(
        p=p,
        stirling=stirling,
        bell=sum(stirling.values()),
        narayana={k: profile[k] for k in range(1, p + 1) if profile[k]},
    )


@lru_cache(maxsize=64)
def _rgs_array(p: int, max_blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """All restricted growth strings with at most `max_blocks` blocks, as an
    (n, p) int array, plus the per-row block counts."""
    rows = np.array(list(_rgs_stream(p, max_blocks)), dtype=np.int64)
    counts = rows.max(axis=1) + 1
    return rows, counts


@lru_cache(maxsize=64)
def _rgs_orbits(p: int, max_blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """The least row of each rotation orbit of _rgs_array(p, max_blocks), and
    the orbit sizes: each roll of a row, relabelled to first-occurrence order
    and read in base p, is a code, and the least code names the orbit."""
    rows, _ = _rgs_array(p, max_blocks)
    digits = p ** np.arange(p - 1, -1, -1, dtype=np.int64)
    least = rows @ digits
    labels = rows.astype(np.int8)  # small temporaries; labels stay below p
    for shift in range(1, p):
        rolled = np.roll(labels, -shift, axis=1)
        first = np.full_like(labels, p)  # where each label first occurs
        np.minimum.at(first, (np.arange(len(rows))[:, None], rolled), np.arange(p, dtype=np.int8))
        rank = np.argsort(np.argsort(first, axis=1), axis=1)
        np.minimum(least, np.take_along_axis(rank, rolled, axis=1) @ digits, out=least)
    is_rep = least == rows @ digits  # rows, and so their codes, come in increasing order
    return rows[is_rep], np.bincount(np.searchsorted(least[is_rep], least))


def _orbit_scan(a_rows, count: int, M: int, p: int, T: int, classify) -> np.ndarray:
    """tally[t, c]: the pairs (a, b) that classify(f, index) puts in class
    c <= M, a = a_rows(index) a block of the `count` rows (labels below M), b
    one least row per rotation orbit of the partitions of p with t <= T
    blocks, weighted by the orbit size. b's labels stay below t, so its
    tables f are built t columns wide."""
    reps, orbit_sizes = _rgs_orbits(p, T)
    tally = np.zeros((T + 1, M + 1), dtype=np.int64)
    step = max(1, _BLOCK_CELLS // (M * T))
    for start in range(0, count, step):
        index = np.arange(start, min(start + step, count))
        a = a_rows(index)
        for b, orbit_size in zip(reps, orbit_sizes.tolist()):
            t = b.max() + 1
            # Bound to f, a table lives until the next one is built, so glibc
            # does not trim the heap top and fault it in again per table.
            f = _difference_tables(a, b[None, :], M, t)
            tally[t] += orbit_size * np.bincount(classify(f, index), minlength=M + 1)
    return tally


def triangle_pair_counts(p: int, smax: int, tmax: int,
                         budget: int = DEFAULT_BUDGET) -> dict[tuple[int, int], int]:
    """Exact number of shift-compatible pairs (pi, sigma) with |pi| = s,
    |sigma| = t, for every s <= smax and t <= tmax.

    A one-block partition is compatible with every partition, so a table
    with smax or tmax = 1 is a Stirling row. Otherwise a pair is compatible
    iff the difference table of the labels a = sigma, b = pi vanishes
    (truncated._difference_tables). Rotating pi and sigma together keeps
    compatibility and block counts (reflection and the pi <-> sigma swap do
    not), so _orbit_scan tables one pi per rotation orbit against blocks of
    sigmas. The budget refuses a scan, but the tables are cached per
    (p, smax, tmax) whatever the budget; `cache_info` and `cache_clear` are
    those of that cache.
    """
    _validate_pos(p=p)
    smax, tmax = min(smax, p), min(tmax, p)
    # The Stirling row, priced alone past the budget. Then R_x rows (R_x:
    # partitions with <= x blocks) at p^2 each, 5 R_s p^2 to find orbits,
    # R_s / p orbits times R_t sigmas.
    cost = _stirling_cost(p)
    if min(smax, tmax) > 1 and cost <= budget:
        R_s, R_t = (sum(_stirling_row(p)[1:x + 1]) for x in (smax, tmax))
        cost += R_s * R_t + (5 * R_s + R_t) * p * p
    _check_budget(f"partition-pair scan of ({p},{smax},{tmax})", cost, budget)
    return _pair_table(p, smax, tmax)


@lru_cache(maxsize=256)
def _pair_table(p: int, smax: int, tmax: int) -> dict[tuple[int, int], int]:
    if min(smax, tmax) == 1:
        row = _stirling_row(p)
        return {(s, t): row[s] * row[t] for s in range(1, smax + 1) for t in range(1, tmax + 1)}
    sigmas, sigma_counts = _rgs_array(p, tmax)
    # A vanishing table is counted in its sigma's block count, the others in 0.
    tally = _orbit_scan(lambda index: sigmas[index], len(sigmas), tmax, p, smax,
                        lambda f, index: np.where(f.any(axis=(1, 2)), 0, sigma_counts[index]))
    return {(s, t): int(tally[s, t]) for s in range(1, smax + 1) for t in range(1, tmax + 1)}


triangle_pair_counts.cache_info = _pair_table.cache_info
triangle_pair_counts.cache_clear = _pair_table.cache_clear
