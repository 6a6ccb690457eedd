"""Independent oracles used by the tests: recurrences and brute-force
counters implemented with different machinery than the library (Counter
multisets, closed forms), so each check is a genuine cross-validation."""

import math
from collections import Counter
from fractions import Fraction
from itertools import product


def bell_numbers(up_to: int) -> list[int]:
    """Bell numbers via the Bell triangle."""
    values = [1]  # B_0
    row = [1]
    for _ in range(up_to):
        new = [row[-1]]
        for entry in row:
            new.append(new[-1] + entry)
        row = new
        values.append(row[0])
    return values


def stirling2(p: int, s: int) -> int:
    """Partition-count recurrence, memo-free."""
    if p == 0:
        return 1 if s == 0 else 0
    if s == 0:
        return 0
    return s * stirling2(p - 1, s) + stirling2(p - 1, s - 1)


def catalan(p: int) -> int:
    return math.comb(2 * p, p) // (p + 1)


def narayana(p: int, k: int) -> int:
    return math.comb(p, k) * math.comb(p, k - 1) // p


def squared_multinomial_scan(N: int, k: int) -> int:
    """Sum of the squared multinomial coefficients k! / (k_1! ... k_N!) over
    every composition (k_1, ..., k_N) of k, by scanning the compositions."""
    total = 0
    for parts in product(range(k + 1), repeat=N):
        if sum(parts) == k:
            coefficient = math.factorial(k)
            for part in parts:
                coefficient //= math.factorial(part)
            total += coefficient**2
    return total


def crossing_by_quadruples(blocks, p: int) -> bool:
    """O(p^4) literal scan for a crossing quadruple."""
    owner = {}
    for idx, block in enumerate(blocks):
        for element in block:
            owner[element] = idx
    for a in range(p):
        for b in range(a + 1, p):
            for c in range(b + 1, p):
                for d in range(c + 1, p):
                    if owner[a] == owner[c] and owner[b] == owner[d] \
                            and owner[a] != owner[b]:
                        return True
    return False


def counter_condition(i, a, b, M, N) -> bool:
    """Counter-based version of the truncated-moment matching condition."""
    r, p = len(i), len(a)
    for x in range(r):
        ix, ix1 = i[x], i[(x + 1) % r]
        left = Counter()
        right = Counter()
        for y in range(p):
            left[((ix + a[y]) % M, b[y])] += 1
            left[((ix1 + a[y]) % M, b[(y + 1) % p])] += 1
            right[((ix + a[y]) % M, b[(y + 1) % p])] += 1
            right[((ix1 + a[y]) % M, b[y])] += 1
        if left != right:
            return False
    return True


def counter_delta(M: int, N: int, p: int) -> Fraction:
    """Limiting moment by unpinned enumeration with Counter multisets."""
    hits = 0
    for a in product(range(M), repeat=p):
        for b in product(range(N), repeat=p):
            left = Counter(zip(a, b))
            right = Counter((a[y], b[(y + 1) % p]) for y in range(p))
            if left == right:
                hits += 1
    return Fraction(hits, (M * N)**p)


def counter_delta_back_shift(M: int, N: int, p: int) -> Fraction:
    """Same count with the backward-shifted pairing (a_y, b_{y-1})."""
    hits = 0
    for a in product(range(M), repeat=p):
        for b in product(range(N), repeat=p):
            left = Counter(zip(a, b))
            right = Counter((a[y], b[(y - 1) % p]) for y in range(p))
            if left == right:
                hits += 1
    return Fraction(hits, (M * N)**p)
