"""Exact truncated character moments d_p^r(M, N) by counting index
configurations, and the per-pair solution-set machinery. The closed forms
(alpha, beta, d42_closed, closed_form_is_exact, c_from_d) live in `closed`
and are re-exported here.

Counting conventions: index x+1 is cyclic mod r, y+1 cyclic mod p, and all
first components are reduced mod M. Every count goes through one kernel, the
difference table of an (a, b) pair,
f(m, n) = #{y : a_y = m, b_y = n} - #{y : a_y = m, b_{y+1} = n},
read row by row as the integer codes F(m) = sum_n f(m, n) (2p + 1)^n
(partitions._row_codes): a code is zero exactly when its row is, and two
codes are equal exactly when their rows are. The pair's solution set is the
set of periods of f in m, a subgroup H of Z_M; the matching condition holds
at position x exactly when i_x - i_{x+1} lies in H, so M * |H|^(r-1)
i-tuples pass. The moments thus follow from the histogram of |H| over the
(a, b) pairs, which the kernel's loop, partitions._orbit_scan, builds from
one set partition of b per rotation orbit, every such b coded in one product
per block of a. Everything returns `fractions.Fraction` in lowest terms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .closed import (  # noqa: F401 -- the closed forms, re-exported here
    _check_bits, _is_prime, alpha, beta, c_from_d, closed_form_is_exact, d42_closed)
from .errors import ParameterError, _check_budget, _name, _validate_pos
from .partitions import _code_periods, _code_weights, _orbit_scan, _row_codes, _stirling_row


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


def counting_condition(i: Sequence[int], a: Sequence[int], b: Sequence[int],
                       M: int, N: int) -> bool:
    """The per-configuration matching condition behind the truncated moment
    count: for every x (cyclic), the 2p-element multiset
    {(i_x+a_y, b_y), (i_{x+1}+a_y, b_{y+1})}_y equals
    {(i_x+a_y, b_{y+1}), (i_{x+1}+a_y, b_y)}_y, that is, every
    i_x - i_{x+1} mod M lies in solution_set(a, b, M, N)."""
    periodic, r = _pair_periods(a, b, M, N), len(i)
    if r < 1:
        raise ParameterError("index tuples must be nonempty")
    return all(periodic[(i[x] - i[(x + 1) % r]) % M] for x in range(r))


def base_condition(a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff the multisets {(a_y, b_y)}_y and {(a_y, b_{y+1})}_y agree
    (the condition whose probability is the limiting moment), that is, the
    difference table vanishes."""
    # Without M, number the labels that occur in a below their count.
    a_codes = {label: code for code, label in enumerate(set(a))}
    return not _pair_codes([a_codes[v] for v in a], b, len(a_codes)).any()


def solution_set(a: Sequence[int], b: Sequence[int], M: int, N: int) -> set[int]:
    """All shifts i with {(i+a_y, b_y)}_y + {(a_y, b_{y+1})}_y equal to
    {(i+a_y, b_{y+1})}_y + {(a_y, b_y)}_y as multisets: the periods in m of
    the pair's difference table. Always contains 0; equals all of Z_M
    exactly when base_condition(a, b) holds."""
    return {s for s, periodic in enumerate(_pair_periods(a, b, M, N)) if periodic}


def i_tuple_probability(a: Sequence[int], b: Sequence[int], M: int, N: int, r: int) -> Fraction:
    """Exact fraction of i-tuples in Z_M^r satisfying counting_condition
    with the given (a, b): every step i_x - i_{x+1} must lie in the solution
    set H, so M |H|^(r-1) tuples pass, a fraction (|H| / M)^(r-1)."""
    _validate_pos(r=r)
    order = sum(_pair_periods(a, b, M, N))
    _check_bits(f"tuple probability at M={_name(M)}, r={_name(r)}", (r - 1) * M.bit_length())
    return Fraction(order, M)**(r - 1)


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


def count_d(M: int, N: int, p: int, r: int, threads: int = 1) -> Fraction:
    """Exact normalized truncated moment d_p^r(M, N): the number of index
    configurations (i, a, b) satisfying counting_condition, divided by
    M^(p+r) * N^p.

    Equals 1 whenever M = 1, N = 1, p = 1 or r = 1. The period histogram's
    price does not depend on r; the powers of r formed from it are priced by
    their bits after it. `threads` is accepted and ignored: the count is
    vectorised in one process.
    """
    _validate_pos(M=M, N=N, p=p, r=r, threads=threads)
    if M == 1 or N == 1 or r == 1:
        return Fraction(1)
    histogram = _order_histogram(M, N, p)
    _check_bits(f"d_p^r at ({_name(M)},{_name(N)},{_name(p)},{_name(r)})",
                (p + r) * M.bit_length() + p * N.bit_length())
    total = sum(mult * h**(r - 1) for h, mult in histogram.items())
    # Pinned i_1, a_1, b_1 each contribute a translation factor.
    return Fraction(total * M * M * N, M**(p + r) * N**p)
