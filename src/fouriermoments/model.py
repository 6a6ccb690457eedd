"""Numerical matrix model: deformed Fourier fibers, magic unitaries of
rank-one projections, fiber transfer matrices, and seeded Monte Carlo
estimators that serve as an independent oracle for the exact counts.

Tolerances (double precision, accumulation over K terms):
unit modulus 1e-12, row orthogonality 1e-9 * K, projection residual 1e-10,
magic row/column sums 1e-9, flat-fiber reproduction 1e-12.

Sampling uses one counter-based stream per sample derived from
(seed, sample index), so results do not depend on evaluation order.

The model estimator sums block traces. The F_M factor of a deformed
fiber makes every pair-gram entry vanish unless i(u) - i(v) = i(w) - i(z)
(mod M), i the M-part of a pair index. Around the cycle of a slice
operator's factors, a nonzero entry's column M-tuple is therefore its row
M-tuple plus one constant, so the operators of the torus trace split into
M^(n-1) diagonal blocks of side M N^n, one per M-tuple up to translation.
The blocks are gathered straight from the grams. The K^p x K^p matrix
that `transfer_fiber` returns comes from the same gather with M = 1, where
every index tuple is its own class and the one block is the whole matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ParameterError, ValidationError
from .truncated import (DEFAULT_BUDGET, _check_budget, _is_int, _validate_mn,
                        _validate_pos)

UNIT_MODULUS_TOL = 1e-12
ORTHOGONALITY_TOL = 1e-9  # scaled by K
PROJECTION_TOL = 1e-10
MAGIC_SUM_TOL = 1e-9
FLAT_FIBER_TOL = 1e-12


@dataclass(frozen=True)
class PhaseMatrix:
    """M x N array of unit-modulus deformation parameters."""

    M: int
    N: int
    entries: np.ndarray

    def __post_init__(self):
        if self.entries.shape != (self.M, self.N):
            raise ValidationError(f"expected shape {(self.M, self.N)}, got {self.entries.shape}")
        off = np.abs(np.abs(self.entries) - 1.0).max()
        if off > UNIT_MODULUS_TOL:
            raise ValidationError(f"entries off the unit circle by {off:.2e}")


def flat_phase_matrix(M: int, N: int) -> PhaseMatrix:
    _validate_mn(M, N)
    return PhaseMatrix(M, N, np.ones((M, N), dtype=complex))


def random_phase_matrix(M: int, N: int, rng: np.random.Generator) -> PhaseMatrix:
    """Independent uniform phase per entry, one angle draw each."""
    _validate_mn(M, N)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=(M, N))
    return PhaseMatrix(M, N, np.exp(1j * angles))


@dataclass(frozen=True)
class HadamardFiber:
    """K x K matrix with unit-modulus entries and pairwise orthogonal rows."""

    K: int
    entries: np.ndarray

    def validate(self) -> None:
        if self.entries.shape != (self.K, self.K):
            raise ValidationError(f"expected shape {(self.K, self.K)}")
        off = np.abs(np.abs(self.entries) - 1.0).max()
        if off > UNIT_MODULUS_TOL:
            raise ValidationError(f"entries off the unit circle by {off:.2e}")
        gram = self.entries @ self.entries.conj().T
        resid = np.abs(gram - self.K * np.eye(self.K)).max()
        if resid > ORTHOGONALITY_TOL * self.K:
            raise ValidationError(f"rows not orthogonal, residual {resid:.2e}")


def fourier_matrix(n: int) -> HadamardFiber:
    """The n x n matrix with entry (j, k) = exp(2 pi i j k / n)."""
    _validate_pos(n=n)
    return HadamardFiber(n, _fourier_entries(n).copy())


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
    M, N = Q.M, Q.N
    # axes (i, a, j, b)
    four = _fourier_entries(M)[:, None, :, None] * _fourier_entries(N)[None, :, None, :]
    deformed = four * Q.entries[:, None, None, :]
    return HadamardFiber(M * N, deformed.reshape(M * N, M * N))


@dataclass(frozen=True)
class MagicUnitary:
    """K x K array of rank-one projection blocks with rows and columns
    summing to the identity. `quotients[i, j]` holds the vector of entrywise
    row quotients H_i / H_j whose normalized outer product is block (i, j)."""

    K: int
    blocks: np.ndarray  # (K, K, K, K): blocks[i, j] is a K x K projection
    quotients: np.ndarray  # (K, K, K)

    def validate(self) -> None:
        K = self.K
        eye = np.eye(K)
        proj = np.einsum("ijab,ijbc->ijac", self.blocks, self.blocks)
        if np.abs(proj - self.blocks).max() > PROJECTION_TOL:
            raise ValidationError("blocks are not idempotent")
        adj = self.blocks.conj().transpose(0, 1, 3, 2)
        if np.abs(adj - self.blocks).max() > PROJECTION_TOL:
            raise ValidationError("blocks are not self-adjoint")
        rows = self.blocks.sum(axis=1)
        cols = self.blocks.sum(axis=0)
        resid = max(np.abs(rows - eye).max(), np.abs(cols - eye).max())
        if resid > MAGIC_SUM_TOL:
            raise ValidationError(f"row/column sums off identity by {resid:.2e}")


def _row_quotients(H: np.ndarray) -> np.ndarray:
    """quotients[i, j, :] = H[i, :] / H[j, :] (entrywise, unit modulus)."""
    return H[:, None, :] / H[None, :, :]


def magic_unitary(H: HadamardFiber) -> MagicUnitary:
    """Blocks U_ij = (1/K) xi xi* with xi = H_i / H_j (entrywise quotient of
    rows). Validates the Hadamard input and the magic structure."""
    H.validate()
    K = H.K
    xi = _row_quotients(H.entries)
    blocks = np.einsum("ija,ijb->ijab", xi, xi.conj()) / K
    unit = MagicUnitary(K, blocks, xi)
    unit.validate()
    return unit


@dataclass(frozen=True)
class TransferMatrix:
    """K^p x K^p matrix of normalized traces of length-p block products."""

    p: int
    K: int
    entries: np.ndarray


def _pair_gram(xi: np.ndarray) -> np.ndarray:
    """gram[u, v, w, z] = <xi[u, v], xi[w, z]> (conjugate-linear first)."""
    K = xi.shape[0]
    pairs = xi.reshape(K * K, K)
    return (pairs.conj() @ pairs.T).reshape(K, K, K, K)


def transfer_fiber(U: MagicUnitary, p: int,
                   budget: int = DEFAULT_BUDGET) -> TransferMatrix:
    """Transfer matrix with entry (I, J) = normalized trace of
    U[I_1, J_1] ... U[I_p, J_p].

    Each block is a rank-one projection, so a product trace collapses to a
    cyclic product of p scalar inner products of quotient vectors; no dense
    block products are formed.
    """
    _validate_pos(p=p)
    K = U.K
    _check_budget(f"transfer matrix at K={K}, p={p}", _gather_cost(1, K, p, p), budget)
    indices = _block_indices(1, K, p)  # as large as the matrix at M = 1, so not kept
    return TransferMatrix(p, K, _transfer_blocks(_pair_gram(U.quotients), indices, 1, K)[0])


class McEstimate(NamedTuple):
    mean: float
    std_error: float


def _sample_streams(seed: int, samples: int) -> Iterator[np.random.Generator]:
    """One generator per sample index s, in order. A single Philox keyed by
    the seed is rewound to counter [0, 0, 0, s] before sample s: the high
    counter word carries the sample index, so streams never overlap and each
    sample's draws do not depend on evaluation order."""
    if not _is_int(seed):
        raise ParameterError(f"seed must be an integer, got {seed!r}")
    bitgen = np.random.Philox(key=np.uint64(seed & (2**64 - 1)))
    rng = np.random.Generator(bitgen)
    # The state of a fresh Philox: counter 0, key, and an empty output buffer.
    fresh = bitgen.state

    def rewound(sample: int) -> np.random.Generator:
        fresh["state"]["counter"] = np.array([0, 0, 0, sample], dtype=np.uint64)
        bitgen.state = fresh
        return rng

    return map(rewound, range(samples))


def _block_indices(M: int, N: int, n: int) -> tuple[np.ndarray, ...]:
    """Flat indices that gather the diagonal blocks of a slice operator on n
    slices from its factors; the module docstring says why the operator is
    block-diagonal. Class t, the M-tuples t + c, has t[0] = 0, and inside it
    block row (c1, a) has M-tuple t + c1 and N-tuple a. Entry x indexes
    factor x on the frame (t, c1, a_0 .. a_{n-1}, c2, b_0 .. b_{n-1}), with
    unit axes where factor x does not depend on the frame axis."""
    K = M * N
    frame_axes = 2 * n + 3

    def on_axis(values: np.ndarray, position: int) -> np.ndarray:
        shape = [1] * frame_axes
        shape[position] = -1
        return values.reshape(shape)

    classes = np.indices((1,) + (M,) * (n - 1)).reshape(n, -1)
    c1, c2 = on_axis(np.arange(M), 1), on_axis(np.arange(M), n + 2)
    labels = np.arange(N)
    out = []
    for x in range(n):
        y = (x + 1) % n
        tx, ty = on_axis(classes[x], 0), on_axis(classes[y], 0)
        row_x = ((tx + c1) % M) * N + on_axis(labels, 2 + x)
        row_y = ((ty + c1) % M) * N + on_axis(labels, 2 + y)
        col_x = ((tx + c2) % M) * N + on_axis(labels, n + 3 + x)
        col_y = ((ty + c2) % M) * N + on_axis(labels, n + 3 + y)
        out.append(((row_x * K + row_y) * K + col_x) * K + col_y)
    return tuple(out)


def _slice_blocks(factors: list[np.ndarray], indices: tuple[np.ndarray, ...],
                  M: int, N: int, scale: float) -> np.ndarray:
    """The diagonal blocks of `scale` times a slice operator, as a
    (M^(n-1), M N^n, M N^n) stack, gathered from the factors by the n
    `indices` of `_block_indices` without forming the K^n x K^n operator.

    The slice operator acts on the K^n-dimensional space of a torus slice:
    `factors[x]` couples slice components (x, x+1 mod n) of the row index
    with the same components of the column index, in the layout (row_x,
    row_{x+1}, col_x, col_{x+1}), and an entry is the product of the
    factors. Block (t, c1, a), (t, c2, b) is the product over x of
    factors[x][(t_x + c1, a_x), (t_{x+1} + c1, a_{x+1}), (t_x + c2, b_x),
    (t_{x+1} + c2, b_{x+1})], with pair indices flattened as i*N + a. With
    M = 1 every index tuple is its own class: one block, the whole operator.
    """
    n = len(indices)
    frame = (M**(n - 1), M) + (N,) * n + (M,) + (N,) * n
    first, *rest = indices
    acc = np.empty(frame, dtype=complex)
    acc[...] = factors[0].take(first)
    for factor, index in zip(factors[1:], rest):
        acc *= factor.take(index)
    acc *= scale
    side = M * N**n
    return acc.reshape(M**(n - 1), side, side)


def _gather_cost(M: int, N: int, n: int, factors: int) -> int:
    """Operations to gather `factors` factors into the M^(n-1) blocks of side
    M N^n of a slice operator on n slices (`_slice_blocks`), plus one per byte
    held per block entry: 16 each for it, a gathered factor and its indices."""
    return M**(n - 1) * (M * N**n)**2 * (factors + 48)


def _transfer_blocks(gram: np.ndarray, indices: tuple[np.ndarray, ...],
                     M: int, N: int) -> np.ndarray:
    """Diagonal blocks of one fiber's transfer matrix, from its pair gram by
    the p `indices` of `_block_indices`. Rows are the index tuples I, columns
    J; position y couples (I_y, J_y) to (I_{y+1}, J_{y+1}), so the
    slice-operator factor at every y is the gram with axes reordered to
    (row_y, row_{y+1}, col_y, col_{y+1}), made contiguous once instead of at
    each of its p gathers."""
    factor = gram.transpose(0, 2, 1, 3).copy()
    p = len(indices)
    return _slice_blocks([factor] * p, indices, M, N, (M * N)**-(p + 1))


def _trace_of_product(stacks: list[np.ndarray]) -> complex:
    """Sum over the blocks of Tr(stacks[0][t] ... stacks[-1][t])."""
    if len(stacks) == 1:
        return complex(np.einsum("tii->", stacks[0]))
    acc = stacks[0]
    for m in stacks[1:-1]:
        acc = acc @ m
    return complex(np.einsum("tij,tji->", acc, stacks[-1]))


def _torus_trace(grams: list[np.ndarray], indices: tuple[np.ndarray, ...],
                 M: int, N: int, p: int) -> complex:
    """Tr(T_p(Q_1) ... T_p(Q_r)) from the per-fiber pair-gram tensors and
    the `indices` of _block_indices(M, N, min(p, r)).

    The trace is a torus contraction of r*p four-index tensors; it is swept
    along whichever direction has the smaller slice space. Sweeping along
    the sample direction multiplies the r distinct transfer matrices;
    sweeping the other way raises a single K^r-dimensional operator to the
    p-th power. Either operator is block-diagonal (`_block_indices`), and
    products keep the blocks, so the trace is the sum of the block traces:
    only the M^(n-1) blocks of side M N^n are built and multiplied.
    """
    r = len(grams)
    K = M * N
    # The normalisation K^(-r(p+1)) is applied factor by factor, so the
    # products stay near the moment's size instead of overflowing.
    # Multiplying by a real reciprocal is cheaper than a complex division.
    if r <= p:
        # Factor x couples row components (x, x+1): exactly grams[x].
        step = _slice_blocks(grams, indices, M, N, K**-r)
        return _trace_of_product([step] * p) * K**-r
    # The x-th slice indexes the rows of fiber x's transfer matrix and the
    # (x+1)-th its columns.
    return _trace_of_product([_transfer_blocks(g, indices, M, N) for g in grams])


def _check_torus_budget(M: int, N: int, p: int, r: int, budget: int) -> None:
    # The block loop's work per sample: max(1, q - 2) products of the
    # M^(n-1) blocks of side M N^n, and p*r block-sized factor products.
    n, q = min(p, r), max(p, r)
    cost = M**(n - 1) * (M * N**n)**3 * max(1, q - 2) + _gather_cost(M, N, n, p * r)
    _check_budget("trace statistic per sample", cost, budget)


def mc_estimate_c(M: int, N: int, p: int, r: int, samples: int, seed: int,
                  budget: int = DEFAULT_BUDGET) -> McEstimate:
    """Monte Carlo estimate of c_p^r(M, N): the sample mean over independent
    draws of (Q_1, ..., Q_r) of Tr(T_p(Q_1) ... T_p(Q_r)), each Q a uniform
    phase matrix. Deterministic for a fixed seed."""
    _validate_mn(M, N)
    _validate_pos(p=p, r=r, samples=samples)
    streams = _sample_streams(seed, samples)
    _check_torus_budget(M, N, p, r, budget)
    indices = _block_indices(M, N, min(p, r))
    values = np.empty(samples)
    for s, rng in enumerate(streams):
        grams = []
        for _ in range(r):
            Q = random_phase_matrix(M, N, rng)
            xi = _row_quotients(dita_deform(Q).entries)
            grams.append(_pair_gram(xi))
        values[s] = _torus_trace(grams, indices, M, N, p).real
    return _mean_and_error(values)


def mc_estimate_delta(M: int, N: int, p: int, samples: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of the limiting moment as the mean of
    Tr((G(Q) / MN)^p), with G(Q) the Gram matrix of the rows of a uniform
    phase matrix Q."""
    _validate_mn(M, N)
    _validate_pos(p=p, samples=samples)
    values = np.empty(samples)
    for s, rng in enumerate(_sample_streams(seed, samples)):
        Q = random_phase_matrix(M, N, rng).entries
        # G / MN has trace 1 and no negative eigenvalue, so its powers
        # cannot overflow, whatever p.
        gram = Q @ Q.conj().T / (M * N)
        values[s] = np.trace(np.linalg.matrix_power(gram, p)).real
    return _mean_and_error(values)


def _mean_and_error(values: np.ndarray) -> McEstimate:
    n = values.size
    mean = float(values.mean())
    if n < 2:
        return McEstimate(mean, 0.0)
    # Scale to at most 1 first, so that squaring large moments cannot overflow.
    scale = float(np.abs(values).max()) or 1.0
    spread = float((values / scale).std(ddof=1)) * scale
    return McEstimate(mean, spread / math.sqrt(n))
