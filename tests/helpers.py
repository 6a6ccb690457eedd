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


def two_block_pairs(p: int) -> int:
    """Shift-compatible pairs of two-block partitions of {0,...,p-1}, by the
    closed form sum_{k>=1} C(p, 2k) (C(2k, k) 2^(p-2k) - 2) / 2. A two-block
    pi whose blocks form k cyclic runs each has 2k elements x whose successor
    x + 1 lies in the other block: k leave block A and k leave block B, and
    there are C(p, 2k) such pi. A two-block sigma is compatible with pi
    exactly when each of its blocks holds as many of the first kind as of
    the second: C(2k, k) balanced colourings of the 2k elements, 2^(p-2k)
    for the rest, less the two one-colour ones, over the two labellings."""
    return sum(math.comb(p, 2 * k) * (math.comb(2 * k, k) * 2**(p - 2 * k) - 2) // 2
               for k in range(1, p // 2 + 1))


def leading_minors(matrix) -> list[int]:
    """The leading principal minors of a square matrix of Fractions, the
    k-th times d^k, d the common denominator of the entries, by
    fraction-free (Bareiss) elimination without pivoting: the k-th pivot is
    the k-th minor, and every division is exact. Stops at the first zero
    minor."""
    scale = math.lcm(*(Fraction(x).denominator for row in matrix for x in row))
    a = [[int(x * scale) for x in row] for row in matrix]
    minors, previous = [], 1
    for k, row in enumerate(a):
        minors.append(row[k])
        if not row[k]:
            break
        for lower in a[k + 1:]:
            for j in range(k + 1, len(a)):
                lower[j] = (lower[j] * row[k] - lower[k] * row[j]) // previous
        previous = row[k]
    return minors


def moment_cone_minors(moments, right: int) -> list[int]:
    """Every leading principal minor of the Hankel matrices [m_(i+j)],
    [m_(i+j+1)], [right m_(i+j) - m_(i+j+1)] and
    [right m_(i+j+1) - m_(i+j+2)] of moments m_0, m_1, ..., each as large as
    the moments fill. For the moments of a positive measure on [0, right]
    with infinite support all are positive (Hausdorff): the matrices are
    the Gram matrices of the monomials under the measure times 1, x,
    right - x and x (right - x). Given m_0 ... m_(p-1),
    two of them have m_p in their corner: both are affine in m_p, one rising
    and one falling, so they leave m_p an open window, and outside it one
    of them is zero or negative."""
    def hankel(entry, size):
        return [[entry(i + j) for j in range(size)] for i in range(size)]

    m, last = moments, len(moments) - 1
    return (leading_minors(hankel(lambda k: m[k], last // 2 + 1))
            + leading_minors(hankel(lambda k: m[k + 1], (last + 1) // 2))
            + leading_minors(hankel(lambda k: right * m[k] - m[k + 1], (last + 1) // 2))
            + leading_minors(hankel(lambda k: right * m[k + 1] - m[k + 2], last // 2)))


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


def walk_moments_by_recurrence(N: int, k: int) -> list[int]:
    """A_N(m) = W_N(2m) for m = 0..k at N = 3 or 4, by the three-term
    recurrences in m of the even moments of a short uniform random walk:
    (m+1)^2 A(m+1) = (10m^2 + 10m + 3) A(m) - 9m^2 A(m-1) at N = 3, and
    (m+1)^3 A(m+1) = 2(2m+1)(5m^2 + 5m + 2) A(m) - 64m^3 A(m-1) at N = 4."""
    row = [1, N]
    for m in range(1, k):
        if N == 3:
            step = (10 * m * m + 10 * m + 3) * row[m] - 9 * m * m * row[m - 1], (m + 1)**2
        else:
            step = 2 * (2 * m + 1) * (5 * m * m + 5 * m + 2) * row[m] - 64 * m**3 * row[m - 1], \
                (m + 1)**3
        quotient, remainder = divmod(*step)
        assert remainder == 0, (N, m)
        row.append(quotient)
    return row[:k + 1]


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


def rotate_partition(part):
    """The partition pi∘rho, rho(e) = e + 1 mod p: element e joins the block
    of e + 1, so every block moves one step left."""
    return type(part).from_blocks([[(x - 1) % part.p for x in block] for block in part.blocks])


def reflect_partition(part):
    """The mirror image e -> p - 1 - e."""
    return type(part).from_blocks([[part.p - 1 - x for x in block] for block in part.blocks])


def _first_occurrence(labels) -> tuple:
    codes = {}
    return tuple(codes.setdefault(label, len(codes)) for label in labels)


def rotation_orbits(rows) -> dict:
    """{smallest string of the orbit: the orbit} for restricted growth
    strings under cyclic rotation, each rotated string relabelled to
    first-occurrence order, by walking the rotations of every unseen row."""
    orbits = {}
    seen = set()
    for row in map(tuple, rows):
        if row in seen:
            continue
        orbit = {row}
        rotated = row
        for _ in range(len(row) - 1):
            rotated = _first_occurrence(rotated[1:] + rotated[:1])
            orbit.add(rotated)
        seen |= orbit
        orbits[min(orbit)] = frozenset(orbit)
    return orbits


def delta_m2_float_by_log_convolution(N: int, p: int) -> float:
    """Floating delta_p(2, N) through the phase moments' recurrence
    A_N(m) = sum_i C(m, i)^2 A_{N-1}(m - i), taken in logs one m at a time:
    O(N p^2) work, kept as an oracle for the FFT route."""
    import numpy as np

    kmax = p // 2
    lf = np.array([math.lgamma(n + 1) for n in range(p + 1)])
    ks = np.arange(kmax + 1)
    log_a = lf[2 * ks] - 2 * lf[ks]  # log A_2(m) = log C(2m, m)
    for _ in range(3, N + 1):
        out = np.empty_like(log_a)
        for m in range(kmax + 1):
            terms = 2 * (lf[m] - lf[:m + 1] - lf[m::-1]) + log_a[m::-1]
            top = terms.max()
            out[m] = top + math.log(np.exp(terms - top).sum())
        log_a = out
    log_terms = (lf[p] - lf[2 * ks] - lf[p - 2 * ks] - (p - 1) * math.log(2.0)
                 + log_a - 2 * ks * math.log(N))
    shift = float(log_terms.max())
    return math.exp(shift) * math.fsum(sorted(np.exp(log_terms - shift), reverse=True))


def labelled_order_histogram(M: int, N: int, p: int) -> dict:
    """{|H|: pinned pairs (a_1 = b_1 = 0)}, by enumerating every labelled
    pinned pair at once: the difference tables by scatter-adds, and the
    periods in m by comparing each table with its rolls."""
    import numpy as np

    a = np.array([(0,) + rest for rest in product(range(M), repeat=p - 1)])
    b = np.array([(0,) + rest for rest in product(range(N), repeat=p - 1)])
    a, b = np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1))
    pair = np.arange(len(a))[:, None]
    f = np.zeros((len(a), M, N), dtype=np.int64)
    np.add.at(f, (pair, a, b), 1)
    np.add.at(f, (pair, a, np.roll(b, -1, axis=1)), -1)
    orders = sum((np.roll(f, -s, axis=1) == f).all(axis=(1, 2)) for s in range(M))
    return dict(Counter(orders.tolist()))


def _difference_tables(a, b, M: int, N: int):
    """The tables f(m, n) = #{y : a_y = m, b_y = n} - #{y : a_y = m,
    b_(y+1) = n} of a block of pairs, one (a, b) per row of the 2-d integer
    arrays `a` (labels in [0, M)) and `b` (labels in [0, N), or one row for
    every a), by two bincounts; shape (rows, M, N)."""
    import numpy as np

    rows = a.shape[0]
    cell = a * N + np.arange(0, rows * M * N, M * N)[:, None]
    same = np.bincount((cell + b).ravel(), minlength=rows * M * N)
    b_next = np.concatenate((b[:, 1:], b[:, :1]), axis=1)
    same -= np.bincount((cell + b_next).ravel(), minlength=rows * M * N)
    return same.reshape(rows, M, N)


def _periods(f):
    """Boolean mask, shape (rows, M): whether each table f[k] is periodic in
    m under the shift s, by comparing its flattened cells with a window of
    them written twice."""
    import numpy as np

    rows, M, N = f.shape
    flat = f.reshape(rows, M * N)
    twice = np.concatenate((flat, flat), axis=1)
    periodic = np.ones((rows, M), dtype=bool)
    for s in range(1, M):
        periodic[:, s] = (flat == twice[:, s * N:(s + M) * N]).all(axis=1)
    return periodic


def code_word_digits(p: int) -> int:
    """Digits c in one word of a row code of a length-p pair: the largest
    c >= 1 with p (2p + 1)^c <= 2^53, so a float64 sum of p terms each
    below (2p + 1)^c in size is exact."""
    c = 1
    while p * (2 * p + 1)**(c + 1) <= 2**53:
        c += 1
    return c


def table_row_codes(f, p: int):
    """Row m of each difference table f (shape (rows, M, N), entries at
    most p in size) read in base 2p + 1, c = code_word_digits(p) digits a
    word: int64 codes of shape (rows, M, W), word w holding the digits
    f(m, wc), ..., f(m, wc + c - 1)."""
    import numpy as np

    c, N = code_word_digits(p), f.shape[2]
    column = np.arange(N)
    digits = np.where(column // c == np.arange(-(-N // c))[:, None],
                      (2 * p + 1)**(column % c), 0)
    return np.einsum("kmn,wn->kmw", f.astype(np.int64), digits)


def assert_codes_name_rows(f, codes) -> None:
    """A code is zero exactly when its table row is, and two codes are
    equal exactly when their rows are, over every row of every table."""
    import numpy as np

    rows, words = f.reshape(-1, f.shape[2]), codes.reshape(-1, codes.shape[2])
    assert ((words == 0).all(axis=1) == (rows == 0).all(axis=1)).all()
    by_row = np.unique(rows, axis=0, return_inverse=True)[1].ravel()
    by_code = np.unique(words, axis=0, return_inverse=True)[1].ravel()
    assert len(set(zip(by_row.tolist(), by_code.tolist()))) == \
        by_row.max() + 1 == by_code.max() + 1


def dense_slice_operator(factors, n: int, K: int):
    """The K^n x K^n slice operator whose entry at row tuple (r_0 .. r_{n-1}),
    column tuple (c_0 .. c_{n-1}) is the product over x of
    factors[x][r_x, r_{x+1}, c_x, c_{x+1}] (indices mod n), by one einsum
    over a generated subscript string."""
    import numpy as np

    rows, cols = "abcdefghij"[:n], "klmnopqrst"[:n]
    terms = [rows[x] + rows[(x + 1) % n] + cols[x] + cols[(x + 1) % n]
             for x in range(n)]
    spec = ",".join(terms) + "->" + rows + cols
    return np.einsum(spec, *factors).reshape(K**n, K**n)


def dense_torus_trace(grams, K: int, p: int) -> complex:
    """Tr(T_p(Q_1) ... T_p(Q_r)) from the per-fiber pair grams through the
    dense K^n x K^n slice operators, n = min(p, r): the step operator, whose
    factor x is grams[x], raised to the p-th power when r <= p, else the
    product of the r transfer matrices, whose factor at every position is
    the gram with axes reordered to (row_y, row_{y+1}, col_y, col_{y+1}).
    Kept as the oracle for the block-diagonal trace."""
    r = len(grams)
    if r <= p:
        mats = [dense_slice_operator(grams, r, K) * K**-r] * p
        scale = K**-r
    else:
        mats = [dense_slice_operator([g.transpose(0, 2, 1, 3)] * p, p, K) * K**-(p + 1)
                for g in grams]
        scale = 1.0
    if len(mats) == 1:
        return complex(mats[0].trace()) * scale
    acc = mats[0]
    for mat in mats[1:-1]:
        acc = acc @ mat
    return complex((acc * mats[-1].T).sum()) * scale


def fiber_pair_values(q):
    """The M^3 N distinct pair-gram values of the fiber deformed by the M x N
    phase array q, by summing each over beta term by term:
    G[i, i', k, d] = M sum_beta F_N[d, beta] conj(q[i, beta]) q[i', beta]
    q[k, beta] conj(q[k - i + i', beta]), indices mod M."""
    import numpy as np

    M, N = q.shape
    G = np.zeros((M, M, M, N), dtype=complex)
    for i, i2, k, d in product(range(M), range(M), range(M), range(N)):
        G[i, i2, k, d] = M * sum(
            np.exp(2j * math.pi * d * beta / N) * q[i, beta].conjugate() * q[i2, beta]
            * q[k, beta] * q[(k - i + i2) % M, beta].conjugate() for beta in range(N))
    return G


def pair_gram_from_values(G):
    """The (K, K, K, K) pair gram <H_u / H_v, H_w / H_z> of a deformed fiber,
    K = M N, from its values G: G[i(u), i(v), i(w), d] with d = (a(w) - a(z))
    - (a(u) - a(v)) mod N when i(u) - i(v) = i(w) - i(z) mod M, else 0,
    pair indices flattened as i N + a."""
    import numpy as np

    M, N = G.shape[0], G.shape[3]
    K = M * N
    gram = np.zeros((K,) * 4, dtype=complex)
    for u, v, w, z in product(range(K), repeat=4):
        (iu, au), (iv, av), (iw, aw), (iz, az) = (divmod(x, N) for x in (u, v, w, z))
        if (iu - iv - iw + iz) % M == 0:
            gram[u, v, w, z] = G[iu, iv, iw, ((aw - az) - (au - av)) % N]
    return gram


def _one_sample_blocks(factors, indices, scale: float):
    """The diagonal blocks of `scale` times one sample's slice operator, by
    gathering each factor, one fiber's (M, M, M, N) values, on the frame of
    `model._block_indices`, whose shape the indices give."""
    import numpy as np

    acc = np.empty(np.broadcast_shapes(*(index.shape for index in indices)), dtype=complex)
    acc[...] = factors[0].take(indices[0])
    for factor, index in zip(factors[1:], indices[1:]):
        acc *= factor.take(index)
    acc *= scale
    blocks = len(factors[0])**(len(indices) - 1)  # M^(n-1)
    side = math.isqrt(acc.size // blocks)
    return acc.reshape(blocks, side, side)


def _one_sample_trace(stacks) -> complex:
    """The sum of the block traces of the product of `stacks`, each one
    sample's (blocks, side, side) stack: its diagonal sums for one stack,
    else the sum of the running product times the transposed last stack."""
    if len(stacks) == 1:
        return complex(stacks[0].diagonal(axis1=1, axis2=2).sum())
    acc = stacks[0]
    for m in stacks[1:-1]:
        acc = acc @ m
    return complex((acc * stacks[-1].swapaxes(1, 2)).sum())


def sample_generator(seed: int, sample: int):
    """Sample `sample`'s stream: a fresh numpy Philox keyed by the seed (mod
    2^64) with counter [0, 0, 0, sample]."""
    import numpy as np

    return np.random.Generator(np.random.Philox(key=np.uint64(seed & (2**64 - 1)),
                                                counter=[0, 0, 0, sample]))


def mc_sample_values_c(M: int, N: int, p: int, r: int, samples: int, seed: int):
    """Each sample's Tr(T_p(Q_1) ... T_p(Q_r)), one sample at a time: r phase
    matrices drawn from the sample's `sample_generator`, one `uniform` call
    each, each fiber's pair-gram values G by the arithmetic of
    `model._pair_values` (the four-phase products times M F_N, one (M^3, N)
    matrix a fiber), and the block traces over min(p, r) slices,
    on the frame pinned at a_0 = b_0 = 0 with every factor scaled by N. With
    r > p a transfer factor is G with i' and k swapped, which reads the pair
    gram with v and w swapped at the same d. Kept as the oracle for the
    chunked estimator, whose values must equal these byte for byte."""
    import numpy as np

    from fouriermoments import model

    K, n = M * N, min(p, r)
    scaled_dft = M * model.fourier_matrix(N).entries
    m = np.arange(M)
    i, i2, k = np.meshgrid(m, m, m, indexing="ij")
    indices = model._block_indices(M, N, n)
    values = np.empty(samples)
    for s in range(samples):
        rng = sample_generator(seed, s)
        fiber_values = []
        for _ in range(r):
            Q = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=(M, N)))
            pairs = Q.conj()[:, None, :] * Q[None, :, :]
            products = pairs[k, (k - i + i2) % M].conj() * pairs[i, i2]
            fiber_values.append((products.reshape(M**3, N) @ scaled_dft).reshape(M, M, M, N))
        if r <= p:
            step = _one_sample_blocks(fiber_values, indices, N * K**-r)
            trace = _one_sample_trace([step] * p) * K**-r
        else:
            trace = _one_sample_trace([
                _one_sample_blocks([g.swapaxes(1, 2).copy()] * p, indices,
                                   N * K**-(p + 1)) for g in fiber_values])
        values[s] = trace.real
    return values


def mc_sample_values_delta(M: int, N: int, p: int, samples: int, seed: int):
    """Each sample's Tr((G(Q) / MN)^p), one sample at a time. Kept as the
    oracle for the chunked gram estimator."""
    import numpy as np

    values = np.empty(samples)
    for s in range(samples):
        Q = np.exp(1j * sample_generator(seed, s).uniform(0.0, 2.0 * math.pi, size=(M, N)))
        gram = Q @ Q.conj().T / (M * N)
        values[s] = np.trace(np.linalg.matrix_power(gram, p)).real
    return values
