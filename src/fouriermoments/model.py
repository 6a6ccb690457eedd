"""Numerical matrix model: deformed Fourier fibers, magic unitaries of
rank-one projections, fiber transfer matrices, and seeded Monte Carlo
estimators that serve as an independent oracle for the exact counts.

Tolerances (double precision, accumulation over K terms):
unit modulus 1e-12, row orthogonality 1e-9 * K, projection residual 1e-10,
magic row/column sums 1e-9.

Sample s of an estimator draws the stream of numpy's Philox keyed by the
seed with counter [0, 0, 0, s]. Philox4x64-10 is counter-based, so a draw
is a pure function of (seed, s, position): `_sample_angles` computes a
batch of samples' draws in one vectorised evaluation, bit for bit those of
the generator, and results do not depend on evaluation order. The
estimators draw samples in batches and contract them in chunks of at most
CHUNK_BYTES of working arrays (or one sample), every array after the draws
carrying a sample axis. Stacked elementwise operations, matmul,
matrix_power and trace act on each sample exactly as on it alone; a
batched einsum would sum in another order, so the last contraction of the
torus trace runs sample by sample, and values do not depend on the chunk
size.

The model estimator sums block traces. The F_M factor of a deformed
fiber makes every pair-gram entry vanish unless i(u) - i(v) = i(w) - i(z)
(mod M), i the M-part of a pair index. Around the cycle of a slice
operator's factors, a nonzero entry's column M-tuple is therefore its row
M-tuple plus one constant, so the operators of the torus trace split into
M^(n-1) diagonal blocks of side M N^n, one per M-tuple up to translation.
The F_N factor makes an entry depend on the N-labels a only through
(a(w) - a(z)) - (a(u) - a(v)) (mod N), so a block B stays the same when one
constant is added to every row N-label, or to every column N-label: B =
E C E^T, C its sub-block at a_0 = b_0 = 0, E the 0/1 map onto the N shifts
(E^T E = N I), and Tr(B_1 ... B_q) = Tr((N C_1) ... (N C_q)). So
`mc_estimate_c` gathers only the C, of side M N^(n-1), from the grams.
The K^p x K^p matrix of `transfer_fiber`, for a magic unitary with no such
symmetry, comes from the same gather unpinned with M = 1: every index
tuple is its own class, and the one block is the whole matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, _check_budget, _name, _validate_int, _validate_pos

UNIT_MODULUS_TOL = 1e-12
ORTHOGONALITY_TOL = 1e-9  # scaled by K
PROJECTION_TOL = 1e-10
MAGIC_SUM_TOL = 1e-9
CHUNK_BYTES = 2**20  # working arrays a chunk of Monte Carlo samples may hold


def _check_entries(what: str, entries: int) -> None:
    # One operation per byte of the complex array of `entries` entries that `what` holds.
    _check_budget(what, 16 * entries)


def _check_unit_modulus(entries: np.ndarray) -> None:
    off = np.abs(np.abs(entries) - 1.0).max()
    if off > UNIT_MODULUS_TOL:
        raise ValidationError(f"entries off the unit circle by {off:.2e}")


@dataclass(frozen=True)
class PhaseMatrix:
    """M x N array of unit-modulus deformation parameters."""

    entries: np.ndarray

    def __post_init__(self):
        if self.entries.ndim != 2 or not self.entries.size:
            raise ValidationError(f"expected a non-empty M x N array, got {self.entries.shape}")
        _check_unit_modulus(self.entries)


def flat_phase_matrix(M: int, N: int) -> PhaseMatrix:
    _validate_pos(M=M, N=N)
    _check_entries(f"{_name(M)} x {_name(N)} phase matrix", M * N)
    return PhaseMatrix(np.ones((M, N), dtype=complex))


def random_phase_matrix(M: int, N: int, rng: np.random.Generator) -> PhaseMatrix:
    """Independent uniform phase per entry, one angle draw each."""
    _validate_pos(M=M, N=N)
    _check_entries(f"{_name(M)} x {_name(N)} phase matrix", M * N)
    return PhaseMatrix(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=(M, N))))


def _unit_phases(angles: np.ndarray) -> np.ndarray:
    """exp(i angle) for each angle, checked to lie on the unit circle."""
    phases = np.exp(1j * angles)
    _check_unit_modulus(phases)
    return phases


@dataclass(frozen=True)
class HadamardFiber:
    """K x K matrix with unit-modulus entries and pairwise orthogonal rows."""

    entries: np.ndarray

    def __post_init__(self):
        if self.entries.ndim != 2 or not self.entries.size or len(set(self.entries.shape)) > 1:
            raise ValidationError(f"expected a non-empty K x K array, got {self.entries.shape}")

    def validate(self) -> None:
        K = len(self.entries)
        _check_unit_modulus(self.entries)
        gram = self.entries @ self.entries.conj().T
        resid = np.abs(gram - K * np.eye(K)).max()
        if resid > ORTHOGONALITY_TOL * K:
            raise ValidationError(f"rows not orthogonal, residual {resid:.2e}")


def fourier_matrix(n: int) -> HadamardFiber:
    """The n x n matrix with entry (j, k) = exp(2 pi i j k / n)."""
    _validate_pos(n=n)
    _check_entries(f"Fourier matrix of side {_name(n)}", n * n)
    return HadamardFiber(_fourier_entries(n).copy())


@functools.lru_cache(maxsize=8)
def _fourier_entries(n: int) -> np.ndarray:
    """Read-only entries of `fourier_matrix(n)`, shared by every fiber that
    needs them."""
    grid = np.outer(np.arange(n), np.arange(n))
    entries = np.exp(2j * math.pi * grid / n)
    entries.flags.writeable = False
    return entries


def dita_deform(Q: PhaseMatrix) -> HadamardFiber:
    """Deformed tensor product of Fourier matrices: entry at row (i, a),
    column (j, b) is Q[i, b] * F_M[i, j] * F_N[a, b], with pair indices
    flattened as i*N + a."""
    _check_entries(f"deformed fiber of side {Q.entries.size}", Q.entries.size**2)
    return HadamardFiber(_deform(Q.entries))


def _deform(phases: np.ndarray) -> np.ndarray:
    """`dita_deform`'s entries for each (M, N) phase array of a stack."""
    *lead, M, N = phases.shape
    # axes (i, a, j, b)
    four = _fourier_entries(M)[:, None, :, None] * _fourier_entries(N)[None, :, None, :]
    return (four * phases[..., :, None, None, :]).reshape(*lead, M * N, M * N)


@dataclass(frozen=True)
class MagicUnitary:
    """K x K array of rank-one projection blocks with rows and columns
    summing to the identity, held as its K^3 quotients: `quotients[i, j]` is
    the vector xi of entrywise row quotients H_i / H_j, and block (i, j) is
    xi xi* / K. The (K, K, K, K) `blocks` are built only on request."""

    quotients: np.ndarray  # (K, K, K)

    def __post_init__(self):
        xi = self.quotients
        if xi.ndim != 3 or not xi.size or len(set(xi.shape)) > 1:
            raise ValidationError(f"expected a non-empty K x K x K array, got {xi.shape}")

    @property
    def blocks(self) -> np.ndarray:
        """The (K, K, K, K) array of blocks, built afresh on each read."""
        xi = self.quotients
        return np.einsum("ija,ijb->ijab", xi, xi.conj()) / len(xi)

    def validate(self) -> None:
        """The checks on K^3 data. B = xi xi* / K is self-adjoint by its form,
        and B^2 - B = (|xi|^2 / K - 1) B has largest entry |(|xi|^2 / K - 1)|
        max_a |xi_a|^2 / K. Row and column sums add outer products of xi."""
        K, xi = len(self.quotients), self.quotients
        moduli = np.abs(xi)**2
        if (np.abs(moduli.sum(axis=2) / K - 1) * moduli.max(axis=2) / K).max() > PROJECTION_TOL:
            raise ValidationError("blocks are not idempotent")
        resid = max(np.abs(np.einsum(f"ija,ijb->{side}ab", xi, xi.conj()) / K - np.eye(K)).max()
                    for side in "ij")
        if resid > MAGIC_SUM_TOL:
            raise ValidationError(f"row/column sums off identity by {resid:.2e}")


def _row_quotients(H: np.ndarray) -> np.ndarray:
    """quotients[..., i, j, :] = H[..., i, :] / H[..., j, :] (entrywise, unit
    modulus), for one matrix or a stack."""
    return H[..., :, None, :] / H[..., None, :, :]


def magic_unitary(H: HadamardFiber) -> MagicUnitary:
    """Blocks U_ij = (1/K) xi xi* with xi = H_i / H_j (entrywise quotient of
    rows), held as xi. Validates the Hadamard input and the magic structure."""
    K = len(H.entries)
    _check_entries(f"quotients of a fiber of side {K}", K**3)
    H.validate()
    unit = MagicUnitary(_row_quotients(H.entries))
    unit.validate()
    return unit


def _pair_gram(xi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """gram[..., u, v, w, z] = <xi[..., u, v], xi[..., w, z]> (conjugate-linear
    first), for one quotient array or a stack; `out`, if given, receives the
    grams as (..., K^2, K^2)."""
    K = xi.shape[-1]
    lead = xi.shape[:-3]
    pairs = xi.reshape(lead + (K * K, K))
    return np.matmul(pairs.conj(), pairs.swapaxes(-1, -2), out=out).reshape(lead + (K,) * 4)


def transfer_fiber(U: MagicUnitary, p: int) -> np.ndarray:
    """The K^p x K^p transfer matrix with entry (I, J) = normalized trace of
    U[I_1, J_1] ... U[I_p, J_p].

    Each block is a rank-one projection, so a product trace collapses to a
    cyclic product of p scalar inner products of quotient vectors; no dense
    block products are formed.
    """
    _validate_pos(p=p)
    K = len(U.quotients)
    what = f"transfer matrix at K={K}, p={_name(p)}"
    # Its K^(2p) entries are a floor under the price, checked before it is formed.
    _check_budget(what, None, 2 * p * Fraction(math.log10(K)))
    _check_budget(what, _gather_cost((1, K**p, K**p), p))
    # The indices are as large as the matrix at M = 1, so they are not kept.
    indices = _block_indices(1, K, p, transfer=True)
    stack = _slice_blocks([_pair_gram(U.quotients[None])] * p, indices, K**-(p + 1),
                          np.empty((1, 1, K**p, K**p), dtype=complex))
    return stack[0, 0]


class McEstimate(NamedTuple):
    mean: float
    std_error: float


# Philox4x64-10 as numpy's Philox computes it: multipliers, key bumps, rounds.
_PHILOX_MULTIPLIERS = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_BUMPS = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)
# numpy element operations per draw: a block of four draws takes 10 rounds
# of two 15-operation multiplies and four xors, and each draw four more to
# become an angle.
_DRAW_OPS = _PHILOX_ROUNDS * (2 * 15 + 4) // 4 + 4
# Bytes a batch of draws is priced at per draw: the kernel's arrays peak
# near 40 (tracemalloc), and the previous batch's angles are still held.
_DRAW_BYTES = 96


def _philox_key(seed: int) -> int:
    _validate_int("seed", seed)
    return seed & (2**64 - 1)


def _mulhilo(multiplier: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of multiplier * x, from 32-bit halves in uint64."""
    m_lo, m_hi = multiplier & _LOW32, multiplier >> _SHIFT32
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    lo_lo, hi_lo = m_lo * x_lo, m_hi * x_lo
    cross = (lo_lo >> _SHIFT32) + (hi_lo & _LOW32) + m_lo * x_hi  # below 2^64
    return m_hi * x_hi + (hi_lo >> _SHIFT32) + (cross >> _SHIFT32), multiplier * x


def _sample_angles(key: int, first: int, count: int, shape: tuple[int, ...]) -> np.ndarray:
    """(count,) + shape uniform angles in [0, 2 pi): row i holds the first
    draws of `Generator(Philox(key=key, counter=[0, 0, 0, first + i]))
    .uniform(0, 2 pi, shape)`, bit for bit.

    That generator bumps its counter before each block of four words, so
    block j = 1, 2, ... is Philox4x64-10 of counters (j, 0, 0, s) under key
    (key, 0), and draw 4(j - 1) + i is its word i. A draw w becomes the
    double (w >> 11) 2^-53, and the angle 0.0 + 2 pi u. Every operand is a
    uint64 array or an np.uint64 constant, so no word is promoted to a float
    and no scalar overflows."""
    draws = math.prod(shape)
    blocks = -(-draws // 4)
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
    c3 = np.arange(first, first + count, dtype=np.uint64)[:, None]
    c1 = c2 = np.zeros((count, blocks), dtype=np.uint64)
    k0, k1 = key, 0
    for _ in range(_PHILOX_ROUNDS):
        hi0, lo0 = _mulhilo(_PHILOX_MULTIPLIERS[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_MULTIPLIERS[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
        k0, k1 = (k0 + _PHILOX_BUMPS[0]) % 2**64, (k1 + _PHILOX_BUMPS[1]) % 2**64
    words = np.stack((c0, c1, c2, c3), axis=-1).reshape(count, -1)
    uniforms = (words[:, :draws] >> np.uint64(11)) * 2.0**-53
    return (uniforms * (2.0 * math.pi)).reshape((count,) + shape)


def _chunk_rows(samples: int, sample_bytes: int) -> int:
    """Samples per chunk: as many as CHUNK_BYTES holds, at least one."""
    return max(1, min(samples, CHUNK_BYTES // sample_bytes))


def _sample_values(key: int, samples: int, rows: int, sample_bytes: int,
                   shape: tuple[int, ...], evaluate) -> np.ndarray:
    """Each sample's value, `rows` samples at a time: `evaluate` takes the
    stacked phases of a chunk, `shape` per sample drawn from the sample's
    own stream, and returns the chunk's values. The draws come a batch of
    whole chunks at a time, as many as the bytes that the chunk's
    `sample_bytes` a sample leave free hold (at least one chunk): a kernel
    call has about 0.4 ms of fixed cost, and a chunk may be one sample."""
    spare = (CHUNK_BYTES - (rows - 1) * sample_bytes) // (_DRAW_BYTES * math.prod(shape))
    batch = max(rows, spare - spare % rows)
    values = np.empty(samples)
    for first in range(0, samples, batch):
        angles = _sample_angles(key, first, min(batch, samples - first), shape)
        for start in range(0, len(angles), rows):
            phases = _unit_phases(angles[start:start + rows])
            values[first + start:first + start + len(phases)] = evaluate(phases)
    return values


def _block_indices(M: int, N: int, n: int, transfer: bool = False,
                   pinned: bool = False) -> tuple[np.ndarray, ...]:
    """Flat indices that gather the diagonal blocks of a slice operator on n
    slices from its factors; the module docstring says why the operator is
    block-diagonal. Class t, the M-tuples t + c, has t[0] = 0, and inside it
    block row (c1, a) has M-tuple t + c1 and N-tuple a. Entry x indexes
    factor x on the frame (t, c1, a_0 .. a_{n-1}, c2, b_0 .. b_{n-1}), with
    unit axes where factor x does not depend on the frame axis. A factor's
    axes are (row_x, row_{x+1}, col_x, col_{x+1}); with `transfer` it is a
    pair gram, read with axes (row_x, col_x, row_{x+1}, col_{x+1}). With
    `pinned`, a_0 = b_0 = 0: the sub-blocks of side M N^(n-1).

    `transfer` reads the gram in place; a transposed gram instead (as
    `tests/helpers.mc_sample_values_c` builds) copies all K^4 entries of each
    fiber's gram every sample, 6561 at (M, N, p, r) = (3, 3, 2, 3), where the
    pinned gather reads M^(n+1) N^(2n-2) = 243 for each of its p = 2 factors."""
    K = M * N

    def on_axis(values: np.ndarray, position: int) -> np.ndarray:
        shape = [1] * (2 * n + 3)
        shape[position] = -1
        return values.reshape(shape)

    classes = np.indices((1,) + (M,) * (n - 1)).reshape(n, -1)
    c1, c2 = on_axis(np.arange(M), 1), on_axis(np.arange(M), n + 2)
    labels = [np.arange(1 if pinned else N)] + [np.arange(N)] * (n - 1)
    out = []
    for x in range(n):
        y = (x + 1) % n
        tx, ty = on_axis(classes[x], 0), on_axis(classes[y], 0)
        row_x = ((tx + c1) % M) * N + on_axis(labels[x], 2 + x)
        row_y = ((ty + c1) % M) * N + on_axis(labels[y], 2 + y)
        col_x = ((tx + c2) % M) * N + on_axis(labels[x], n + 3 + x)
        col_y = ((ty + c2) % M) * N + on_axis(labels[y], n + 3 + y)
        second, third = (col_x, row_y) if transfer else (row_y, col_x)
        out.append(((row_x * K + second) * K + third) * K + col_y)
    return tuple(out)


def _slice_blocks(factors: list[np.ndarray], indices: tuple[np.ndarray, ...],
                  scale: float, out: np.ndarray) -> np.ndarray:
    """The diagonal blocks of `scale` times a slice operator for each sample
    of a chunk, gathered from the factors by the n `indices` of
    `_block_indices` into `out`, a (samples, M^(n-1), side, side) stack on
    their frame (side M N^n, or M N^(n-1) pinned), never the K^n x K^n one.

    The slice operator acts on the K^n-dimensional space of a torus slice:
    `factors[x]`, a (samples, K, K, K, K) stack, couples slice components
    (x, x+1 mod n) of the row index with the same components of the column
    index, and an entry is the product of the factors. Block (t, c1, a),
    (t, c2, b) is the product over x of factors[x][(t_x + c1, a_x),
    (t_{x+1} + c1, a_{x+1}), (t_x + c2, b_x), (t_{x+1} + c2, b_{x+1})], with
    pair indices flattened as i*N + a. With M = 1 every index tuple is its
    own class: one block, the whole operator.
    """
    rows = len(out)
    acc = out.reshape((rows,) + np.broadcast_shapes(*(index.shape for index in indices)))
    for x, (factor, index) in enumerate(zip(factors, indices)):
        gathered = factor.reshape(rows, -1).take(index, axis=1)
        if x:
            acc *= gathered
        else:
            acc[...] = gathered
    acc *= scale
    return out


def _gather_cost(blocks: tuple[int, ...], work: int) -> int:
    """The price of gathering slice-operator blocks (`_slice_blocks`) into a
    stack of shape `blocks`: `work` operations a block entry, plus one per
    byte held a block entry, 16 each for it, a gathered factor and its index."""
    return math.prod(blocks) * (work + 48)


def _torus_traces(grams: np.ndarray, indices: tuple[np.ndarray, ...], M: int, N: int,
                  p: int, work: np.ndarray) -> list[complex]:
    """Tr(T_p(Q_1) ... T_p(Q_r)) for each sample of a chunk, from its
    (r, samples, K, K, K, K) pair grams, the `indices` of
    _block_indices(M, N, min(p, r), transfer=r > p, pinned=True) and `work`,
    three (samples, M^(n-1), M N^(n-1), M N^(n-1)) block stacks.

    The trace is a torus contraction of r*p four-index tensors, swept along
    whichever direction has the smaller slice space as the trace of a
    product of max(p, r) slice operators. With r <= p that is one
    K^r-dimensional step operator taken p times; with r > p, the r distinct
    transfer matrices of the fibers. Either operator is block-diagonal
    (`_block_indices`), and products keep the blocks, so the trace is the
    sum of the block traces, N^q times those of the pinned sub-blocks: only
    the M^(n-1) sub-blocks of side M N^(n-1) are built, each scaled by N,
    and multiplied. The running product, the next factor and their product
    each have a stack of their own, and the last contraction runs per sample
    (module docstring).
    """
    r, rows = grams.shape[:2]
    K, q = M * N, max(p, r)
    acc_stack, factor_stack, product_stack = work[:, :rows]
    if r <= p:
        # Factor x couples row components (x, x+1): exactly grams[x]. The
        # normalisation K^(-r(p+1)) is applied factor by factor, so the
        # products stay near the moment's size instead of overflowing.
        # Multiplying by a real reciprocal is cheaper than a complex division.
        step = _slice_blocks(list(grams), indices, N * K**-r, factor_stack)

    def factor(k: int, out: np.ndarray) -> np.ndarray:
        if r <= p:
            return step
        # Fiber k's transfer matrix: the k-th slice indexes its rows, the
        # (k+1)-th its columns, and the gram is every position's factor.
        return _slice_blocks([grams[k]] * p, indices, N * K**-(p + 1), out)

    acc = factor(0, acc_stack)
    for k in range(1, q - 1):
        acc = np.matmul(acc, factor(k, factor_stack), out=product_stack)
        acc_stack, product_stack = product_stack, acc_stack
    if q == 1:
        traces = [complex(np.einsum("tii->", blocks)) for blocks in acc]
    else:
        last = factor(q - 1, factor_stack)
        traces = [complex(np.einsum("tij,tji->", x, y)) for x, y in zip(acc, last)]
    return traces if r > p else [trace * K**-r for trace in traces]


def mc_estimate_c(M: int, N: int, p: int, r: int, samples: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of c_p^r(M, N): the sample mean over independent
    draws of (Q_1, ..., Q_r) of Tr(T_p(Q_1) ... T_p(Q_r)), each Q a uniform
    phase matrix. Deterministic for a fixed seed, whatever the chunk size."""
    _validate_pos(M=M, N=N, p=p, r=r, samples=samples)
    key = _philox_key(seed)
    K, n, q = M * N, min(p, r), max(p, r)
    # One op per byte of the values, and the kernel's for each of r K draws.
    _check_budget(f"{_name(samples)} sample values and draws",
                  samples * (8 + _DRAW_OPS * r * K))
    # The block loop over all samples (a sample's max(1, q - 2) block products
    # and p*r factor gathers); its floor at one sample, from logarithms, is
    # checked before the price is formed.
    what = f"{_name(samples)} samples of the trace statistic"
    _check_budget(what, None, (n - 1) * Fraction(math.log10(M * N**3))
                  + Fraction(math.log10(M**3 * max(1, q - 2))))
    blocks = (M**(n - 1), M * N**(n - 1), M * N**(n - 1))
    _check_budget(what, _gather_cost(blocks, samples * (blocks[1] * max(1, q - 2) + p * r)))
    indices = _block_indices(M, N, n, transfer=r > p, pinned=True)
    # A sample holds its r grams, fibers and phases, three block stacks and at
    # its peak either its quotients beside their division's two broadcast
    # buffers or two gathered factors, 16 bytes an entry; its value and draws.
    sample_bytes = 16 * (r * (K**4 + K**2 + K) + 3 * math.prod(blocks)
                         + max(3 * r * K**3, 2 * math.prod(blocks))) + 80 + _DRAW_BYTES * r * K
    rows = _chunk_rows(samples, sample_bytes)
    # Fiber-major, so that each fiber's grams are one contiguous stack.
    grams = np.empty((r, rows, K * K, K * K), dtype=complex)
    work = np.empty((3, rows) + blocks, dtype=complex)

    def traces(phases: np.ndarray) -> list[float]:
        fibers = _deform(phases.swapaxes(0, 1))
        stack = _pair_gram(_row_quotients(fibers), out=grams[:, :len(phases)])
        return [trace.real for trace in _torus_traces(stack, indices, M, N, p, work)]

    estimate = _mean_and_error(_sample_values(key, samples, rows, sample_bytes, (r, M, N), traces))
    # At p = 1 or r = 1 every sample is the moment itself: any spread is rounding.
    return estimate._replace(std_error=0.0) if p == 1 or r == 1 else estimate


def mc_estimate_delta(M: int, N: int, p: int, samples: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of the limiting moment as the mean of
    Tr((G(Q) / MN)^p), with G(Q) the Gram matrix of the rows of a uniform
    phase matrix Q."""
    _validate_pos(M=M, N=N, p=p, samples=samples)
    key = _philox_key(seed)
    # The values' bytes and the kernel's ops for M N draws a sample, a gram, its power.
    cost = samples * (8 + _DRAW_OPS * M * N) + M * M * N + M**3 * p.bit_length()
    _check_budget(f"{_name(samples)} gram samples at ({_name(M)},{_name(N)},{_name(p)})", cost)
    # A sample holds its phases and their conjugates, its gram and the
    # products of its power, 16 bytes an entry.
    sample_bytes = 16 * (2 * M * N + 4 * M * M)
    rows = _chunk_rows(samples, sample_bytes)

    def traces(Q: np.ndarray) -> np.ndarray:
        # G / MN has trace 1 and no negative eigenvalue, so its powers
        # cannot overflow, whatever p.
        gram = Q @ Q.conj().swapaxes(-1, -2) / (M * N)
        return np.trace(np.linalg.matrix_power(gram, p), axis1=-2, axis2=-1).real

    estimate = _mean_and_error(_sample_values(key, samples, rows, sample_bytes, (M, N), traces))
    # At p = 1 every sample is Tr(G / MN) = 1, the moment itself: any spread is rounding.
    return estimate._replace(std_error=0.0) if p == 1 else estimate


def _mean_and_error(values: np.ndarray) -> McEstimate:
    n = values.size
    mean = float(values.mean())
    if n < 2:
        return McEstimate(mean, 0.0)
    # Scale to at most 1 first, so that squaring large moments cannot overflow.
    scale = float(np.abs(values).max()) or 1.0
    spread = float((values / scale).std(ddof=1)) * scale
    return McEstimate(mean, spread / math.sqrt(n))
