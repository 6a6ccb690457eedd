"""Numerical matrix model: deformed Fourier fibers, magic unitaries of
rank-one projections, fiber transfer matrices, and seeded Monte Carlo
estimators that serve as an independent oracle for the exact counts.

Tolerances (double precision, accumulation over K terms):
unit modulus 1e-12, row orthogonality 1e-9 * K, projection residual 1e-10,
magic row/column sums 1e-9, flat-fiber reproduction 1e-12.

Sampling uses one counter-based stream per sample derived from
(seed, sample index), so results do not depend on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .truncated import DEFAULT_BUDGET, _check_budget, _validate_mn, _validate_pos

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
    grid = np.outer(np.arange(n), np.arange(n))
    return HadamardFiber(n, np.exp(2j * math.pi * grid / n))


def dita_deform(Q: PhaseMatrix) -> HadamardFiber:
    """Deformed tensor product of Fourier matrices: entry at row (i, a),
    column (j, b) is Q[i, b] * F_M[i, j] * F_N[a, b], with pair indices
    flattened as i*N + a."""
    M, N = Q.M, Q.N
    fm = fourier_matrix(M).entries
    fn = fourier_matrix(N).entries
    # axes (i, a, j, b)
    four = np.einsum("ij,ab->iajb", fm, fn)
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
    return np.tensordot(xi.conj(), xi, axes=([2], [2]))


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
    _check_budget(f"transfer matrix at K={K}, p={p}", 8 * K**(2 * p), budget)
    return TransferMatrix(p, K, _transfer_matrix(_pair_gram(U.quotients), p, K))


class McEstimate(NamedTuple):
    mean: float
    std_error: float


def _sample_rng(seed: int, sample: int) -> np.random.Generator:
    # Counter-based stream: the Philox key carries the user seed, the high
    # counter word carries the sample index, so streams never overlap and
    # are independent of scheduling.
    seed = int(seed) & (2**64 - 1)
    bitgen = np.random.Philox(key=np.uint64(seed),
                              counter=[0, 0, 0, int(sample)])
    return np.random.Generator(bitgen)


def _place_axes(tensor: np.ndarray, positions: tuple[int, ...],
                total_axes: int) -> np.ndarray:
    """View `tensor` inside a `total_axes`-dimensional broadcast frame with
    its axes moved to the given positions."""
    order = np.argsort(positions)
    moved = tensor.transpose(order)
    shape = [1] * total_axes
    for pos, size in zip(sorted(positions), moved.shape):
        shape[pos] = size
    return moved.reshape(shape)


def _slice_operator(factors: list[np.ndarray], n: int, K: int) -> np.ndarray:
    """Operator on the K^n-dimensional space of a torus slice.

    `factors[x]` couples slice components (x, x+1 mod n) of the row index
    with the same components of the column index; the operator entry is the
    product of the factors. Index layout of each factor: (row_x, row_{x+1},
    col_x, col_{x+1}).
    """
    if n == 1:
        return np.einsum("aabb->ab", factors[0])
    full = _place_axes(factors[0], (0, 1, n, n + 1), 2 * n)
    acc = np.broadcast_to(full, (K,) * (2 * n)).copy()
    for x in range(1, n):
        pos = (x, (x + 1) % n, n + x, n + (x + 1) % n)
        acc *= _place_axes(factors[x], pos, 2 * n)
    return acc.reshape(K**n, K**n)


def _transfer_matrix(gram: np.ndarray, p: int, K: int) -> np.ndarray:
    """Transfer matrix of one fiber from its pair gram. Rows are the index
    tuples I, columns J; position y couples (I_y, J_y) to (I_{y+1}, J_{y+1}),
    so the slice-operator factor at every y is the gram with axes reordered
    to (row_y, row_{y+1}, col_y, col_{y+1})."""
    return _slice_operator([gram.transpose(0, 2, 1, 3)] * p, p, K) * K**-(p + 1)


def _trace_of_product(mats: list[np.ndarray]) -> complex:
    if len(mats) == 1:
        return complex(np.trace(mats[0]))
    acc = mats[0]
    for m in mats[1:-1]:
        acc = acc @ m
    return complex((acc * mats[-1].T).sum())


def _torus_trace(grams: list[np.ndarray], K: int, p: int) -> complex:
    """Tr(T_p(Q_1) ... T_p(Q_r)) from the per-fiber pair-gram tensors.

    The trace is a torus contraction of r*p four-index tensors; it is swept
    along whichever direction has the smaller slice space. Sweeping along
    the sample direction multiplies the r distinct transfer matrices;
    sweeping the other way raises a single K^r-dimensional operator to the
    p-th power.
    """
    r = len(grams)
    # The normalisation K^(-r(p+1)) is applied factor by factor, so the
    # products stay near the moment's size instead of overflowing.
    # Multiplying by a real reciprocal is cheaper than a complex division.
    if r <= p:
        # Factor x couples row components (x, x+1): exactly grams[x].
        step = _slice_operator(grams, r, K) * K**-r
        return _trace_of_product([step] * p) * K**-r
    # The x-th slice indexes the rows of fiber x's transfer matrix and the
    # (x+1)-th its columns.
    return _trace_of_product([_transfer_matrix(g, p, K) for g in grams])


def _check_torus_budget(K: int, p: int, r: int, budget: int) -> None:
    n, q = min(p, r), max(p, r)
    cost = K**(3 * n) * max(1, q - 2) + K**(2 * n) * p * r
    _check_budget("trace statistic per sample", cost, budget)


def mc_estimate_c(M: int, N: int, p: int, r: int, samples: int, seed: int,
                  budget: int = DEFAULT_BUDGET) -> McEstimate:
    """Monte Carlo estimate of c_p^r(M, N): the sample mean over independent
    draws of (Q_1, ..., Q_r) of Tr(T_p(Q_1) ... T_p(Q_r)), each Q a uniform
    phase matrix. Deterministic for a fixed seed."""
    _validate_mn(M, N)
    _validate_pos(p=p, r=r, samples=samples)
    K = M * N
    _check_torus_budget(K, p, r, budget)
    values = np.empty(samples)
    for s in range(samples):
        rng = _sample_rng(seed, s)
        grams = []
        for _ in range(r):
            Q = random_phase_matrix(M, N, rng)
            xi = _row_quotients(dita_deform(Q).entries)
            grams.append(_pair_gram(xi))
        values[s] = _torus_trace(grams, K, p).real
    return _mean_and_error(values)


def mc_estimate_delta(M: int, N: int, p: int, samples: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of the limiting moment as the mean of
    Tr((G(Q) / MN)^p), with G(Q) the Gram matrix of the rows of a uniform
    phase matrix Q."""
    _validate_mn(M, N)
    _validate_pos(p=p, samples=samples)
    values = np.empty(samples)
    for s in range(samples):
        rng = _sample_rng(seed, s)
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
