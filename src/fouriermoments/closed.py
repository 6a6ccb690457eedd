"""The closed forms of the truncated moments: the bounds alpha and beta,
the (p=4, r=2) form d42_closed, where each equals the direct count
(closed_form_is_exact, with the primality test it needs), and the rescaling
c_from_d. All are rational arithmetic on their arguments, so this module
imports `errors` alone and no numpy; `truncated` re-exports every name.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ParameterError, _check_budget, _name, _validate_pos


def c_from_d(d: Fraction, M: int, N: int, p: int) -> Fraction:
    """Rescale a normalized moment back to c_p^r = (MN)^(p-1) * d."""
    _validate_pos(M=M, N=N, p=p)
    _check_bits(f"c_p^r at ({_name(M)},{_name(N)},{_name(p)})",
                (p - 1) * (M * N).bit_length())
    return d * (M * N)**(p - 1)


def alpha(M: int, N: int, p: int, r: int) -> Fraction:
    """Closed-form contribution of configurations where one of i, a, b is
    constant: 1 - (M^p - M)(M^r - M)(N^p - N) / (M^(p+r) N^p).

    Equals d_p^r(M, N) when M = 1, N = 1, r = 1 or p <= 2.
    """
    _validate_pos(M=M, N=N, p=p, r=r)
    _check_bits(f"alpha at ({_name(M)},{_name(N)},{_name(p)},{_name(r)})",
                (p + r) * M.bit_length() + p * N.bit_length())
    return 1 - Fraction((M**p - M) * (M**r - M) * (N**p - N), M**(p + r) * N**p)


def beta(M: int, N: int, p: int, r: int, delta_p: Fraction) -> Fraction:
    """Closed-form contribution of configurations where i is constant or the
    base condition holds: delta_p + (1 - delta_p) / M^(r-1).

    Takes the exact limiting moment delta_p as input; equals d_p^r(M, N)
    when M = 1, N = 1, r = 1 or p <= 3, and for every p when M is prime,
    because Z_M then has only the trivial subgroups.
    """
    _validate_pos(M=M, N=N, p=p, r=r)
    delta_p = Fraction(delta_p)
    if delta_p == 1:  # no power of M is formed, nor priced
        return delta_p
    _check_bits(f"beta at ({_name(M)},{_name(N)},{_name(p)},{_name(r)})",
                (r - 1) * M.bit_length())
    return delta_p + Fraction(1, M**(r - 1)) * (1 - delta_p)


def d42_closed(M: int, N: int) -> Fraction:
    """Closed form for d_4^2(M, N): beta_4^2 plus, for even M, a correction
    (M-2)(N-1) / (M^4 N^3), the excess of the pairs whose difference table
    has exactly the periods {0, M/2} in m. delta_4 is closed too: (MN)^4
    delta_4 sums perm(M, s) perm(N, t) pairs(4, s, t) over the nonzero
    (s, t) of the p = 4 pair table, 1 at (1,1), (1,4), (4,1); 7 at (1,2),
    (2,1); 6 at (1,3), (2,3), (3,1), (3,2); 20 at (2,2). Expanded, that is
    MN times the numerator below."""
    _validate_pos(M=M, N=N)
    delta_4 = Fraction(M**3 + N**3 + 6 * M * N * (M + N) - 6 * (M * M + N * N)
                       - 16 * M * N + 10 * (M + N) - 5, (M * N)**3)
    value = beta(M, N, 4, 2, delta_4)
    if M % 2 == 0:
        value += Fraction((M - 2) * (N - 1), M**4 * N**3)
    return value


def closed_form_is_exact(method: str, M: int, N: int, p: int, r: int) -> bool:
    """Whether the closed form `method` ("alpha", "beta" or "d42") equals
    count_d(M, N, p, r) at this point, as stated in its docstring."""
    _validate_pos(M=M, N=N, p=p, r=r)
    trivial = M == 1 or N == 1 or r == 1
    if method == "alpha":
        return trivial or p <= 2
    if method == "beta":
        return trivial or p <= 3 or _is_prime(M)
    if method == "d42":
        return (p, r) == (4, 2)
    raise ParameterError(f"unknown closed form {method!r}")


# Miller-Rabin with the prime bases up to 41 is exact below this bound; the
# bases up to 37 pass the composite 318665857834031151167461.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_EXACT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n < 43 or any(n % q == 0 for q in _PRIME_BASES):
        return n in _PRIME_BASES
    if n >= _MILLER_RABIN_EXACT:  # trial division, priced by its divisors
        _check_budget(f"trial division of a {n.bit_length()}-bit M", math.isqrt(n))
        return all(n % q for q in range(43, math.isqrt(n) + 1, 2))
    twos = ((n - 1) & (1 - n)).bit_length() - 1
    for q in _PRIME_BASES:
        x = pow(q, (n - 1) >> twos, n)
        if x == 1:
            continue
        for _ in range(twos):  # n - 1 must come before 1 among the squares
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _check_bits(what: str, bits: int) -> None:
    # A Fraction of `bits`-bit integers: forming it and its gcd cost ~(bits / 300)^2.
    _check_budget(what, (bits // 300)**2)
