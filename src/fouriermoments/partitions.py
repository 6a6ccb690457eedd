"""Set partitions of {0,...,p-1}: enumeration, non-crossing structure,
Kreweras complementation, Stirling/Narayana counts, the cyclic-shift
compatibility relation, and the counting kernel. The kernel reads the
difference table f(m, n) = #{y : a_y = m, b_y = n} - #{y : a_y = m, b_{y+1} = n}
of an (a, b) pair row by row as integer codes (_row_codes), zero or equal
exactly when the rows are, and a pair's solution set is the subgroup H of
Z_M of periods of f in m (_pair_periods). One loop (_orbit_scan) codes one b
per rotation orbit of set partitions, in one float64 product per block of a,
for the pair table (f = 0) and the histogram of |H| (_order_histogram).
All values are immutable after construction. Enumeration streams are
single-consumer, but independent streams may run concurrently; the streams,
the pair scan, the period histogram and the Stirling counts are refused by
their estimated work.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ParameterError, _check_budget, _name, _validate_int, _validate_pos

# Row codes (float64) an orbit scan holds per block of pairs, so its peak
# memory grows neither with the rows of a nor with the representatives, and
# a block stays in cache.
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class SetPartition:
    """A partition of {0,...,p-1}, p the total size of its blocks, in canonical form.

    Blocks are sorted tuples, ordered by their minimum element, so equality
    and hashing are structural.
    """

    blocks: tuple[tuple[int, ...], ...]
    p: int = field(init=False, repr=False)

    def __post_init__(self):
        seen = set()
        for block in self.blocks:
            if not block:
                raise ParameterError("empty block")
            for element in block:  # before the sort, which needs integers
                _validate_int("a block element", element, 0)
            if tuple(sorted(block)) != block:
                raise ParameterError("block not sorted; use from_blocks()")
            seen.update(block)
        object.__setattr__(self, "p", sum(map(len, self.blocks)))
        if len(seen) != self.p:
            raise ParameterError("blocks are not pairwise disjoint")
        if seen != set(range(self.p)):
            raise ParameterError(f"blocks do not partition range({self.p}): "
                                 f"union=[{', '.join(map(_name, sorted(seen)))}]")
        if list(self.blocks) != sorted(self.blocks, key=lambda b: b[0]):
            raise ParameterError("blocks not sorted by minimum; use from_blocks()")

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "SetPartition":
        blocks = [tuple(block) for block in blocks]
        for block in blocks:  # checked before the sorts, which need nonempty integer blocks
            if not block:
                raise ParameterError("empty block")
            for element in block:
                _validate_int("a block element", element, 0)
        return cls(tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0])))

    @classmethod
    def from_rgs(cls, rgs: Iterable[int]) -> "SetPartition":
        """Build from a restricted growth string (element -> block id)."""
        rgs = tuple(rgs)
        nblocks = max(rgs) + 1 if rgs else 0
        blocks = [[] for _ in range(nblocks)]
        for element, block_id in enumerate(rgs):
            blocks[block_id].append(element)
        return cls(tuple(tuple(b) for b in blocks))

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


def _check_stream(kind: str, p: int, length) -> None:
    # length(p) partitions at the p^2 a row that _pair_table charges for
    # _rgs_array rows. Each stream holds the Catalan(p) >= 4^p / ((p + 1)(2p + 1))
    # non-crossing partitions, a floor checked from its logarithm first.
    _validate_pos(p=p)
    what = f"stream of the {kind} partitions of p={_name(p)}"
    _check_budget(what, None, p * Fraction(math.log10(4)) + Fraction(
        math.log10(p * p) - math.log10((p + 1) * (2 * p + 1))))
    _check_budget(what, length(p) * p * p)


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


def enumerate_partitions(p: int) -> Iterator[SetPartition]:
    """Yield every partition of {0,...,p-1} exactly once, in restricted
    growth string order."""
    _check_stream("Bell", p, bell_number)
    for rgs in _rgs_stream(p, p):
        yield SetPartition.from_rgs(rgs)


def noncrossing_partitions(p: int) -> Iterator[SetPartition]:
    """Yield the non-crossing partitions of {0,...,p-1}, each exactly once."""
    _check_stream("Catalan", p, lambda p: math.comb(2 * p, p) // (p + 1))
    for rgs in _nc_rgs(p, [], []):
        yield SetPartition.from_rgs(rgs)


def _nc_rgs(p: int, rgs: list[int], stack: list[int]) -> Iterator[list[int]]:
    # Element len(rgs) joins a block on the stack of open blocks, closing the
    # blocks above it (a later element of theirs would cross), or opens one.
    if len(rgs) == p:
        yield rgs
        return
    opened = stack + [len(set(rgs))]
    for depth, block in enumerate(opened):
        yield from _nc_rgs(p, rgs + [block], opened[:depth + 1])


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
    cycles = _kreweras_cycles(part)  # is_noncrossing's test, on cycles built once
    if part.p and part.num_blocks + len(cycles) != part.p + 1:
        raise ParameterError("Kreweras complement requires a non-crossing partition")
    return SetPartition.from_blocks(cycles)


def shift_block(beta: Iterable[int], p: int) -> set[int]:
    """Cyclic left shift of a block: {(x - 1) mod p for x in beta}."""
    _validate_pos(p=p)
    beta = set(beta)
    if any(x < 0 or x >= p for x in beta):
        raise ParameterError(f"block not contained in range({_name(p)})")
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
    # S(p, s) for s = 0..p via S(p, s) = s*S(p-1, s) + S(p-1, s-1), priced
    # on a miss only, so a cached row is never refused: p^2 / 2 sums of up
    # to (p log2 p)-bit integers, digit by digit.
    _check_budget(f"Stirling row of p={_name(p)}",
                  p * p * (1 + p * p.bit_length() // sys.int_info.bits_per_digit) // 2)
    row = [1]
    for n in range(1, p + 1):
        prev = row
        row = [0] * (n + 1)
        for s in range(1, n + 1):
            row[s] = s * (prev[s] if s < n else 0) + prev[s - 1]
    return tuple(row)


def stirling_number(p: int, s: int) -> int:
    """Number of partitions of {0,...,p-1} with exactly s blocks."""
    _validate_int("p", p, 0)
    _validate_int("s", s)
    if s < 0 or s > p:
        return 0
    return _stirling_row(p)[s]


def bell_number(p: int) -> int:
    _validate_int("p", p, 0)
    return sum(_stirling_row(p))


def _narayana_profile(p: int) -> tuple[int, ...]:
    # Block-count profile of NC(p): the Narayana numbers C(p, k) C(p, k-1) / p,
    # one ratio step each: N(p, k+1) = N(p, k) (p-k)(p-k+1) / (k(k+1)).
    return (0, *accumulate(range(1, p), lambda count, k:
                           count * (p - k) * (p - k + 1) // (k * (k + 1)), initial=1))


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


@lru_cache(maxsize=256)
def _word_digits(p: int) -> int:
    # The most base-(2p + 1) digits c >= 1 a word holds with p B^c <= 2^53.
    c = 1
    while p * (2 * p + 1)**(c + 1) <= 2**53:
        c += 1
    return c


def _code_weights(b: np.ndarray, T: int) -> tuple[np.ndarray, int]:
    """The weights h_y = B^(b_y) - B^(b_(y+1)), B = 2p + 1, of each row of
    the (reps, p) integer array b (labels below T), and the word count W:
    the T digits are split into W words of c = _word_digits(p) digits each.
    Shape (p, W * reps), word-major."""
    p = b.shape[1]
    B, c = 2 * p + 1, _word_digits(p)
    W = -(-T // c)
    label = np.arange(T)
    digits = np.zeros((W, T))  # digits[w, n] = B^(n - wc) for n in word w
    digits[label // c, label] = float(B)**(label % c)
    # np.roll would cost several times as much on the one-row b of a single pair.
    h = digits.take(b, axis=1) - digits.take(np.concatenate((b[:, 1:], b[:, :1]), axis=1), axis=1)
    return np.ascontiguousarray(h.transpose(2, 0, 1).reshape(p, -1)), W


def _row_codes(a: np.ndarray, weights: np.ndarray, M: int, W: int) -> np.ndarray:
    """codes[k, m, w, j]: word w of F(m) = sum_n f(m, n) B^n, row m of the
    difference table f of the pair (a[k], b_j), for the rows of the 2-d
    integer array `a` (labels below M) against the b of `weights`
    (_code_weights). Every |f| <= p < B / 2, so F(m) is zero exactly when
    the row is, and two codes are equal exactly when their rows are. Since
    F(m) = sum_y [a_y = m] h_y, the codes are one float64 product of a's
    one-hot rows with the weights. It is exact: every partial sum is an
    integer below 2^53, in whatever order it is summed."""
    rows, p = a.shape
    onehot = (a[:, None, :] == np.arange(M)[:, None]).astype(np.float64)
    return (onehot.reshape(rows * M, p) @ weights).reshape(rows, M, W, -1)


def _code_periods(codes: np.ndarray) -> np.ndarray:
    """periodic[k, s, j]: whether the table of pair (k, j), given by its row
    codes (_row_codes), is periodic in m under the shift s."""
    rows, M, W, reps = codes.shape
    flat = codes.reshape(rows, M * W, reps)
    # Shifting m by s moves the words s * W places, a window of the codes
    # written twice.
    twice = np.concatenate((flat, flat), axis=1)
    periodic = np.ones((rows, M, reps), dtype=bool)
    for s in range(1, M):
        periodic[:, s] = (twice[:, s * W:(s + M) * W] == flat).all(axis=1)
    return periodic


def _orbit_scan(a_rows, count: int, M: int, p: int, T: int, classify) -> np.ndarray:
    """tally[t, c]: the pairs (a, b) that classify(codes, index) puts in
    class c <= M, a = a_rows(index) a block of the `count` rows (labels
    below M), b one least row per rotation orbit of the partitions of p with
    t <= T blocks, weighted by the orbit size. classify takes the block's
    _row_codes, shape (rows, M, W, reps), and returns classes of shape
    (rows, reps)."""
    reps, orbit_sizes = _rgs_orbits(p, T)
    weights, W = _code_weights(reps, T)
    # A block codes `width` representatives, all of them unless one row of a
    # against all of them is already over _BLOCK_CELLS, for `step` rows of a.
    width = min(len(reps), max(1, _BLOCK_CELLS // (M * W)))
    step = max(1, _BLOCK_CELLS // (M * W * width))
    hits = np.zeros((len(reps), M + 1), dtype=np.int64)
    for first in range(0, len(reps), width):
        part = weights.reshape(p, W, -1)[:, :, first:first + width].reshape(p, -1)
        n = part.shape[1] // W
        key = (M + 1) * np.arange(n)
        for start in range(0, count, step):
            index = np.arange(start, min(start + step, count))
            classes = classify(_row_codes(a_rows(index), part, M, W), index)
            hits[first:first + n] += np.bincount(
                (classes + key).ravel(), minlength=n * (M + 1)).reshape(n, M + 1)
    tally = np.zeros((T + 1, M + 1), dtype=np.int64)
    np.add.at(tally, reps.max(axis=1) + 1, orbit_sizes[:, None] * hits)
    return tally


def _pair_codes(a: Sequence[int], b: Sequence[int], M: int) -> np.ndarray:
    """The row codes (partitions._row_codes) of the single pair (a, b), a's
    labels below M, priced by its M p one-hot entries. Renumbering b's labels
    below their count permutes the table's columns, which keeps its zero
    rows and its equal rows."""
    if len(b) != len(a) or len(a) < 1:
        raise ParameterError("a and b must be nonempty of identical length")
    _check_budget(f"row codes of a pair at M={_name(M)}, p={len(a)}", M * len(a))
    labels = {label: code for code, label in enumerate(set(b))}
    weights, W = _code_weights(np.array([[labels[v] for v in b]]), len(labels))
    return _row_codes(np.array([a], dtype=np.int64), weights, M, W)


def _pair_periods(a: Sequence[int], b: Sequence[int], M: int, N: int) -> list[bool]:
    """Whether each shift in Z_M is a period of the pair's table, with the
    labels reduced mod M and N."""
    _validate_pos(M=M, N=N)
    codes = _pair_codes([v % M for v in a], [v % N for v in b], M)
    # Each of the M shifts compares the M rows' W words.
    _check_budget(f"periods of a pair at M={_name(M)}", M * M * codes.shape[2])
    return _code_periods(codes)[0, :, 0].tolist()


@lru_cache(maxsize=256)
def _order_histogram(M: int, N: int, p: int) -> dict[int, int]:
    """{|H|: number of (a, b) pairs with a_1 = b_1 = 0 whose solution set
    has order |H|}, cached per (M, N, p).

    The counting condition is invariant under translating all of a (or all
    of b) by a constant, so the full space is M*N translated copies of this
    pinned one. Relabelling b permutes the columns of f, so |H| depends on b
    only through its kernel, a set partition with t <= T = min(N, p) blocks
    that stands for perm(N-1, t-1) pinned b. Rotating a and b together keeps
    f, and re-pinning a translates it in m, so one partition per rotation
    orbit is scanned against blocks of pinned a, weighted by the orbit size.
    A cached histogram is never refused.
    """
    if M == 1 or N == 1 or p == 1:  # Z_M is trivial, or f vanishes: H = Z_M
        return {M: (M * N)**(p - 1)}
    T, what = min(N, p), f"period histogram of ({_name(M)},{_name(N)},{_name(p)})"
    # R partitions: R p^2 to find their orbits, then about R / p of them, each
    # against a_rows pinned a at 2p + M^2 T (a pair's table and its M shifts).
    # Its floor at R = 1 comes first, so a_rows = M^(p-1) and R are formed after.
    _check_budget(what, None, (p - 1) * Fraction(math.log10(M))
                  + Fraction(math.log10(2 * p + M * M * T) - math.log10(p)))
    a_rows = M**(p - 1)
    R = sum(_stirling_row(p)[1:T + 1])
    _check_budget(what, R * p * p + a_rows * R * (2 * p + M * M * T) // p)
    by_t = _orbit_scan(  # [t, |H|] over the pinned a, each row index read in base M
        lambda index: np.column_stack((0 * index, *np.unravel_index(index, (M,) * (p - 1)))),
        a_rows, M, p, T, lambda codes, index: _code_periods(codes).sum(axis=1))
    counts = sum(math.perm(N - 1, t - 1) * by_t[t].astype(object) for t in range(1, T + 1))
    return {h: int(mult) for h, mult in enumerate(counts) if mult}


def triangle_pair_counts(p: int, smax: int, tmax: int) -> dict[tuple[int, int], int]:
    """Exact number of shift-compatible pairs (pi, sigma) with |pi| = s,
    |sigma| = t, for every s <= smax and t <= tmax.

    A one-block partition is compatible with every partition, so a table
    with smax or tmax = 1 is a Stirling row. Otherwise a pair is compatible
    iff the difference table of the labels a = sigma, b = pi vanishes, that
    is iff every one of its row codes is zero (_row_codes). Rotating pi and
    sigma together keeps compatibility and block counts (reflection and the
    pi <-> sigma swap do not), so _orbit_scan codes one pi per rotation
    orbit, all of them in one product per block of sigmas.

    The counts are symmetric under (s, t) -> (t, s), although the relation
    is not: they are the coefficients of (MN)^p delta_p(M, N) in the falling
    factorials of M and N, and delta_p is symmetric: (a_y, b_y) ->
    (b_y, a_(y-1)) maps the pairs of (M, N) that meet the base condition
    onto those of (N, M). So the scan puts its orbits on the side with fewer
    partitions, which its estimate prices lower, and answers the other
    orientation by transposing the same table. The budget refuses a scan,
    but the tables are cached per (p, min(smax, tmax), max(smax, tmax)) and
    a cached table is never refused; `cache_info` and `cache_clear` are
    those of that cache.
    """
    _validate_pos(p=p, smax=smax, tmax=tmax)
    smax, tmax = min(smax, p), min(tmax, p)
    if smax <= tmax:
        return _pair_table(p, smax, tmax)
    table = _pair_table(p, tmax, smax)
    return {(s, t): table[(t, s)] for s in range(1, smax + 1) for t in range(1, tmax + 1)}


@lru_cache(maxsize=256)
def _pair_table(p: int, smax: int, tmax: int) -> dict[tuple[int, int], int]:
    row = _stirling_row(p)
    if min(smax, tmax) == 1:
        return {(s, t): row[s] * row[t] for s in range(1, smax + 1) for t in range(1, tmax + 1)}
    # R_x rows (R_x: partitions with <= x blocks) at p^2 each, 5 R_s p^2 to
    # find orbits, R_s / p orbits times R_t sigmas; _stirling_row priced its row.
    R_s, R_t = (sum(row[1:x + 1]) for x in (smax, tmax))
    _check_budget(f"partition-pair scan of ({p},{smax},{tmax})",
                  R_s * R_t + (5 * R_s + R_t) * p * p)
    sigmas, sigma_counts = _rgs_array(p, tmax)
    # A table whose codes all vanish counts in its sigma's block count, others in 0.
    tally = _orbit_scan(lambda index: sigmas[index], len(sigmas), tmax, p, smax,
                        lambda codes, index: np.where(codes.any(axis=(1, 2)), 0,
                                                      sigma_counts[index, None]))
    return {(s, t): int(tally[s, t]) for s in range(1, smax + 1) for t in range(1, tmax + 1)}


triangle_pair_counts.cache_info = _pair_table.cache_info
triangle_pair_counts.cache_clear = _pair_table.cache_clear
