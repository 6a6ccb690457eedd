"""Exact truncated character moments d_p^r(M, N) by counting index
configurations, together with the closed-form bounds alpha/beta, the
(p=4, r=2) closed form, and the per-pair solution-set machinery.

Counting conventions: index x+1 is cyclic mod r, y+1 cyclic mod p, and all
first components are reduced mod M. Every count goes through one kernel, the
difference table of an (a, b) pair,
f(m, n) = #{y : a_y = m, b_y = n} - #{y : a_y = m, b_{y+1} = n}.
The pair's solution set is the set of periods of f in m, a subgroup H of
Z_M; the matching condition holds at position x exactly when
i_x - i_{x+1} lies in H, so M * |H|^(r-1) i-tuples pass. The moments thus
follow from the histogram of |H| over the (a, b) pairs, which numpy builds
from one set partition of b per rotation orbit; triangle_pair_counts scans
the same tables. Everything returns `fractions.Fraction` in lowest terms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import BudgetError, ParameterError

# Each exact kernel estimates its own work (the period histogram's estimate
# is in _order_histogram) and refuses it above this many elementary operations.
DEFAULT_BUDGET = 10**9


def _is_int(value) -> bool:
    # bool is an int subclass, but True is not a moment parameter.
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return _is_int(value) and value >= 1


def _validate_mn(M: int, N: int) -> None:
    if not _is_count(M):
        raise ParameterError(f"M must be a positive integer, got {M!r}")
    if not _is_count(N):
        raise ParameterError(f"N must be a positive integer, got {N!r}")


def _validate_pos(**kwargs: int) -> None:
    for name, value in kwargs.items():
        if not _is_count(value):
            raise ParameterError(f"{name} must be a positive integer, got {value!r}")


def _check_budget(what: str, cost: int, budget: int) -> None:
    if cost > budget:
        raise BudgetError(
            f"{what} needs ~{_scientific(cost)} elementary operations, over the "
            f"budget of {_scientific(budget)}; raise the budget to force it",
            estimated_ops=cost, budget=budget)


def _scientific(n: int) -> str:
    """n as d.ddde+XX; a cost can outgrow the float range and the length
    str() converts, so only its leading 17 or 18 digits go through a float."""
    shift = max(0, int(n.bit_length() * math.log10(2)) - 17)
    mantissa, exponent = f"{n // 10**shift:.3e}".split("e")
    return f"{mantissa}e{int(exponent) + shift:+03d}"


def _difference_tables(a: np.ndarray, b: np.ndarray, M: int, N: int) -> np.ndarray:
    """The tables f(m, n) of a block of pairs, one (a, b) per row of the 2-d
    integer arrays `a` (labels in [0, M)) and `b` (labels in [0, N), or one
    row for every a); shape (rows, M, N)."""
    rows = a.shape[0]
    cell = a * N + np.arange(0, rows * M * N, M * N)[:, None]
    same = np.bincount((cell + b).ravel(), minlength=rows * M * N)
    # np.roll would cost five times as much on the one-row b of a lumped scan.
    b_next = np.concatenate((b[:, 1:], b[:, :1]), axis=1)
    same -= np.bincount((cell + b_next).ravel(), minlength=rows * M * N)
    return same.reshape(rows, M, N)


def _periods(f: np.ndarray) -> np.ndarray:
    """Boolean mask, shape (rows, M): whether each table f[k] is periodic in
    m under the shift s."""
    rows, M, N = f.shape
    flat = f.reshape(rows, M * N)
    # Shifting m by s rolls the flattened table by s*N cells, a window of
    # the table written twice.
    twice = np.concatenate((flat, flat), axis=1)
    periodic = np.ones((rows, M), dtype=bool)
    for s in range(1, M):
        periodic[:, s] = (flat == twice[:, s * N:(s + M) * N]).all(axis=1)
    return periodic


def _pair_periods(a: Sequence[int], b: Sequence[int], M: int, N: int) -> list[bool]:
    """Whether each shift in Z_M is a period of the pair's table, with the
    labels reduced mod M and N."""
    _validate_mn(M, N)
    if len(b) != len(a) or len(a) < 1:
        raise ParameterError("a and b must be nonempty of identical length")
    f = _difference_tables(np.array([a], dtype=np.int64) % M,
                           np.array([b], dtype=np.int64) % N, M, N)
    return _periods(f)[0].tolist()


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
    p = len(a)
    if len(b) != p or p < 1:
        raise ParameterError("a and b must be nonempty of identical length")
    # Without M and N, number the labels that occur on each side below p.
    a_codes = {label: code for code, label in enumerate(set(a))}
    b_codes = {label: code for code, label in enumerate(set(b))}
    f = _difference_tables(np.array([[a_codes[v] for v in a]]),
                           np.array([[b_codes[v] for v in b]]), p, p)
    return not f.any()


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
    return Fraction(sum(_pair_periods(a, b, M, N)), M)**(r - 1)


_HISTOGRAM_CACHE_SIZE = 256  # (M, N, p) histograms kept; the oldest goes first
_HISTOGRAM_CACHE: dict[tuple[int, int, int], dict[int, int]] = {}


def _order_histogram(M: int, N: int, p: int,
                     budget: int = DEFAULT_BUDGET) -> dict[int, int]:
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
    key = (M, N, p)
    cached = _HISTOGRAM_CACHE.get(key)
    if cached is not None:
        return cached
    from .partitions import _orbit_scan, _stirling_row  # partitions imports this module
    T, a_rows = min(N, p), M**(p - 1)
    # R partitions: R p^2 to find their orbits, then about R / p of them, each
    # against a_rows pinned a at 2p bincount inputs and M^2 T table cells. R
    # costs O(p^2) to count, so past a_rows > budget the bound R = 1 is named.
    R = sum(_stirling_row(p)[1:T + 1]) if a_rows <= budget else 1
    _check_budget(f"period histogram of ({M},{N},{p})",
                  R * p * p + a_rows * R * (2 * p + M * M * T) // p, budget)
    by_t = _orbit_scan(  # [t, |H|] over the pinned a, each row index read in base M
        lambda index: np.column_stack((0 * index, *np.unravel_index(index, (M,) * (p - 1)))),
        a_rows, M, p, T, lambda f, index: _periods(f).sum(axis=1))
    counts = sum(math.perm(N - 1, t - 1) * by_t[t].astype(object) for t in range(1, T + 1))
    histogram = {h: int(mult) for h, mult in enumerate(counts) if mult}
    if len(_HISTOGRAM_CACHE) >= _HISTOGRAM_CACHE_SIZE:
        del _HISTOGRAM_CACHE[next(iter(_HISTOGRAM_CACHE))]
    _HISTOGRAM_CACHE[key] = histogram
    return histogram


def count_d(M: int, N: int, p: int, r: int, budget: int = DEFAULT_BUDGET,
            threads: int = 1) -> Fraction:
    """Exact normalized truncated moment d_p^r(M, N): the number of index
    configurations (i, a, b) satisfying counting_condition, divided by
    M^(p+r) * N^p.

    Equals 1 whenever M = 1, N = 1, p = 1 or r = 1. The budget applies to
    the period histogram, so it does not depend on r. `threads` is accepted
    and ignored: the count is vectorised in one process.
    """
    _validate_mn(M, N)
    _validate_pos(p=p, r=r)
    if r == 1:
        return Fraction(1)
    histogram = _order_histogram(M, N, p, budget)
    total = sum(mult * h**(r - 1) for h, mult in histogram.items())
    # Pinned i_1, a_1, b_1 each contribute a translation factor.
    return Fraction(total * M * M * N, M**(p + r) * N**p)


def c_from_d(d: Fraction, M: int, N: int, p: int) -> Fraction:
    """Rescale a normalized moment back to c_p^r = (MN)^(p-1) * d."""
    _validate_mn(M, N)
    _validate_pos(p=p)
    return d * (M * N)**(p - 1)


def alpha(M: int, N: int, p: int, r: int) -> Fraction:
    """Closed-form contribution of configurations where one of i, a, b is
    constant: 1 - (M^p - M)(M^r - M)(N^p - N) / (M^(p+r) N^p).

    Equals d_p^r(M, N) when M = 1, N = 1, r = 1 or p <= 2.
    """
    _validate_mn(M, N)
    _validate_pos(p=p, r=r)
    return 1 - Fraction((M**p - M) * (M**r - M) * (N**p - N), M**(p + r) * N**p)


def beta(M: int, N: int, p: int, r: int, delta_p: Fraction) -> Fraction:
    """Closed-form contribution of configurations where i is constant or the
    base condition holds: delta_p + (1 - delta_p) / M^(r-1).

    Takes the exact limiting moment delta_p as input; equals d_p^r(M, N)
    when M = 1, N = 1, r = 1 or p <= 3, and for every p when M is prime,
    because Z_M then has only the trivial subgroups.
    """
    _validate_mn(M, N)
    _validate_pos(p=p, r=r)
    delta_p = Fraction(delta_p)
    return delta_p + Fraction(1, M**(r - 1)) * (1 - delta_p)


def d42_closed(M: int, N: int, delta_4: Fraction | None = None) -> Fraction:
    """Closed form for d_4^2(M, N): beta_4^2 plus, for even M, a correction
    (M-2)(N-1) / (M^4 N^3), the excess of the pairs whose solution set is
    the order-two subgroup {0, M/2}."""
    _validate_mn(M, N)
    if delta_4 is None:
        from .limits import delta_partition
        delta_4 = delta_partition(M, N, 4)
    value = beta(M, N, 4, 2, delta_4)
    if M % 2 == 0:
        value += Fraction((M - 2) * (N - 1), M**4 * N**3)
    return value


def closed_form_is_exact(method: str, M: int, N: int, p: int, r: int) -> bool:
    """Whether the closed form `method` ("alpha", "beta" or "d42") equals
    count_d(M, N, p, r) at this point, as stated in its docstring."""
    trivial = M == 1 or N == 1 or r == 1
    if method == "alpha":
        return trivial or p <= 2
    if method == "beta":
        return trivial or p <= 3 or _is_prime(M)
    if method == "d42":
        return (p, r) == (4, 2)
    raise ParameterError(f"unknown closed form {method!r}")


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))
