"""Exact truncated character moments d_p^r(M, N) by counting index
configurations; the closed forms (alpha, beta, d42_closed,
closed_form_is_exact, c_from_d) live in `closed` and are re-exported here.
Index x+1 is cyclic mod r, y+1 cyclic mod p, and first components are
reduced mod M. A configuration (i, a, b) counts when, for every x, the
multisets {(i_x+a_y, b_y), (i_{x+1}+a_y, b_{y+1})}_y and
{(i_x+a_y, b_{y+1}), (i_{x+1}+a_y, b_y)}_y are equal, that is, when every
step i_x - i_{x+1} is a period in m of the pair's difference table (see
`partitions`). Those periods form a subgroup H of Z_M, so M * |H|^(r-1)
i-tuples pass. Everything returns `fractions.Fraction` in lowest terms.
"""

from __future__ import annotations

from fractions import Fraction

from .closed import (  # noqa: F401 -- the closed forms, re-exported here
    _check_bits, _is_prime, alpha, beta, c_from_d, closed_form_is_exact, d42_closed)
from .errors import _name, _validate_pos
from .partitions import _order_histogram


def count_d(M: int, N: int, p: int, r: int, threads: int = 1) -> Fraction:
    """Exact normalized truncated moment d_p^r(M, N): the number of index
    configurations (i, a, b) whose every step i_x - i_{x+1} is a period in m
    of the difference table of (a, b), divided by M^(p+r) * N^p. It is the
    mean of (|H| / M)^(r-1) over the pairs, H their subgroups of periods.

    Equals 1 whenever M = 1, N = 1, p = 1 or r = 1, answered before any
    price. The period histogram's price does not depend on r; the powers of
    r formed from it are priced by their bits after it. `threads` is
    accepted and ignored: the count is vectorised in one process.
    """
    _validate_pos(M=M, N=N, p=p, r=r, threads=threads)
    if min(M, N, p, r) == 1:
        return Fraction(1)
    histogram = _order_histogram(M, N, p)
    _check_bits(f"d_p^r at ({_name(M)},{_name(N)},{_name(p)},{_name(r)})",
                (p + r) * M.bit_length() + p * N.bit_length())
    total = sum(mult * h**(r - 1) for h, mult in histogram.items())
    # Pinned i_1, a_1, b_1 each contribute a translation factor.
    return Fraction(total * M * M * N, M**(p + r) * N**p)
