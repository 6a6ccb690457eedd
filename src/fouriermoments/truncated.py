"""Exact truncated character moments d_p^r(M, N) by counting index
configurations, and the per-pair solution-set machinery; the closed forms
(alpha, beta, d42_closed, closed_form_is_exact, c_from_d) live in `closed`
and are re-exported here. Index x+1 is cyclic mod r, y+1 cyclic mod p, and
first components are reduced mod M. A configuration matches at x exactly
when i_x - i_{x+1} lies in the pair's solution set H (see `partitions`), so
M * |H|^(r-1) i-tuples pass. Everything returns `fractions.Fraction` in
lowest terms.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .closed import (  # noqa: F401 -- the closed forms, re-exported here
    _check_bits, _is_prime, alpha, beta, c_from_d, closed_form_is_exact, d42_closed)
from .errors import ParameterError, _name, _validate_pos
from .partitions import _order_histogram, _pair_codes, _pair_periods


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
    # At p = 1 every pair passes: no histogram, and the value 1 is priced alike.
    histogram = _order_histogram(M, N, p) if p > 1 else None
    _check_bits(f"d_p^r at ({_name(M)},{_name(N)},{_name(p)},{_name(r)})",
                (p + r) * M.bit_length() + p * N.bit_length())
    if histogram is None:
        return Fraction(1)
    total = sum(mult * h**(r - 1) for h, mult in histogram.items())
    # Pinned i_1, a_1, b_1 each contribute a translation factor.
    return Fraction(total * M * M * N, M**(p + r) * N**p)
