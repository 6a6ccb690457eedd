import itertools
import tracemalloc

import numpy as np
import pytest

from fouriermoments import model
from fouriermoments.errors import BudgetError, ParameterError, ValidationError
from fouriermoments.limits import delta_partition
from fouriermoments.model import (
    HadamardFiber,
    MAGIC_SUM_TOL,
    PROJECTION_TOL,
    _block_indices,
    _gather_cost,
    _pair_gram,
    _row_quotients,
    _sample_streams,
    _torus_trace,
    dita_deform,
    flat_phase_matrix,
    fourier_matrix,
    magic_unitary,
    mc_estimate_c,
    mc_estimate_delta,
    random_phase_matrix,
    transfer_fiber,
)
from fouriermoments.truncated import DEFAULT_BUDGET, alpha, c_from_d, count_d

from helpers import dense_slice_operator, dense_torus_trace


def test_fourier_matrix_small():
    assert np.allclose(fourier_matrix(1).entries, [[1.0]])
    assert np.allclose(fourier_matrix(2).entries, [[1, 1], [1, -1]], atol=1e-14)
    f4 = fourier_matrix(4)
    gram = f4.entries @ f4.entries.conj().T
    assert np.abs(gram - 4 * np.eye(4)).max() < 1e-12


def test_flat_fiber_reproduces_tensor_product():
    for M, N in ((1, 1), (2, 2), (2, 3), (3, 3), (4, 4)):
        fiber = dita_deform(flat_phase_matrix(M, N))
        kron = np.kron(fourier_matrix(M).entries, fourier_matrix(N).entries)
        assert np.abs(fiber.entries - kron).max() < 1e-12


def test_deformed_fiber_is_hadamard():
    rng = np.random.default_rng(3)
    for M, N in ((2, 2), (3, 2), (2, 4), (3, 3)):
        fiber = dita_deform(random_phase_matrix(M, N, rng))
        fiber.validate()


def test_magic_unitary_structure():
    rng = np.random.default_rng(5)
    for seed_round in range(3):
        for M, N in ((2, 2), (2, 3), (3, 3)):
            unit = magic_unitary(dita_deform(random_phase_matrix(M, N, rng)))
            unit.validate()
            K = M * N
            # diagonal blocks project onto the all-ones direction
            ones = np.ones(K) / np.sqrt(K)
            for i in range(K):
                assert np.abs(unit.blocks[i, i] - np.outer(ones, ones)).max() < 1e-10
            traces = np.einsum("ijaa->ij", unit.blocks)
            assert np.abs(traces - 1).max() < 1e-10
            sums = unit.blocks.sum(axis=1)
            assert np.abs(sums - np.eye(K)).max() < MAGIC_SUM_TOL


def test_magic_unitary_rejects_non_hadamard():
    bad = HadamardFiber(2, np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex))
    with pytest.raises(ValidationError):
        magic_unitary(bad)


def test_transfer_fiber_p1():
    rng = np.random.default_rng(11)
    unit = magic_unitary(dita_deform(random_phase_matrix(2, 3, rng)))
    t1 = transfer_fiber(unit, 1)
    assert np.abs(t1.entries - 1 / 6).max() < 1e-12
    assert abs(np.trace(t1.entries) - 1) < 1e-12


def test_transfer_fiber_structure():
    rng = np.random.default_rng(13)
    unit = magic_unitary(dita_deform(random_phase_matrix(2, 2, rng)))
    for p in (1, 2, 3):
        mat = transfer_fiber(unit, p).entries
        assert np.abs(mat).max() <= 1 + 1e-12
        assert np.abs(mat - mat.conj().T).max() < 1e-12  # self-adjoint element


def test_transfer_fiber_matches_dense_block_products():
    # the torus trace builds its r > p transfer matrices the same way, so
    # this is the check of that builder against plain block products
    rng = np.random.default_rng(17)
    for M, N, p in ((2, 2, 2), (2, 2, 3), (2, 3, 2), (1, 3, 2), (3, 1, 2)):
        unit = magic_unitary(dita_deform(random_phase_matrix(M, N, rng)))
        K = M * N
        tuples = list(itertools.product(range(K), repeat=p))
        dense = np.empty((K**p, K**p), dtype=complex)
        for idx, I in enumerate(tuples):
            for jdx, J in enumerate(tuples):
                product = np.eye(K)
                for i, j in zip(I, J):
                    product = product @ unit.blocks[i, j]
                dense[idx, jdx] = np.trace(product) / K
        assert np.abs(transfer_fiber(unit, p).entries - dense).max() < 1e-11


def test_flat_fiber_trace_identity():
    # at the undeformed point the truncated moments all sit at their r = 1 value
    for M, N in ((2, 2), (2, 3)):
        unit = magic_unitary(dita_deform(flat_phase_matrix(M, N)))
        for p in (1, 2, 3):
            mat = transfer_fiber(unit, p).entries
            acc = np.eye(mat.shape[0])
            for _ in range(3):
                acc = acc @ mat
                assert abs(np.trace(acc) - (M * N)**(p - 1)) < 1e-9


def test_transfer_budget():
    rng = np.random.default_rng(19)
    unit = magic_unitary(dita_deform(random_phase_matrix(3, 3, rng)))
    with pytest.raises(BudgetError):
        transfer_fiber(unit, 8)


def test_transfer_budget_limit():
    # the one-block gather: p * K^(2p) operations and 48 bytes per entry,
    # so K = 4, p = 2 fits a budget of 4^4 * 50 = 12800 exactly
    unit = magic_unitary(dita_deform(flat_phase_matrix(2, 2)))
    assert transfer_fiber(unit, 2, budget=12800).entries.shape == (16, 16)
    with pytest.raises(BudgetError) as info:
        transfer_fiber(unit, 2, budget=12799)
    assert info.value.estimated_ops == 12800


def test_transfer_budget_bounds_memory():
    # K = 66 is the largest fiber the default budget admits at p = 2: its
    # 66^4 complex entries take 304 MB. At K = 149 they would take 7.9 GB.
    assert _gather_cost(1, 66, 2, 2) <= DEFAULT_BUDGET < _gather_cost(1, 67, 2, 2)

    class Fiber:  # the gate reads only the fiber's size
        K = 149

    with pytest.raises(BudgetError):
        transfer_fiber(Fiber(), 2)


def test_transfer_fiber_keeps_no_gather_indices():
    # at M = 1 the indices are as large as the K^4 matrix: 13 MB at K = 30
    unit = magic_unitary(dita_deform(flat_phase_matrix(5, 6)))
    tracemalloc.start()
    try:
        transfer_fiber(unit, 2)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2**20


def _translate_mask(M: int, N: int, n: int) -> np.ndarray:
    """mask[row, col]: the M-parts (i = index // N) of the two slice index
    tuples are translates of each other mod M."""
    digits = np.indices((M * N,) * n).reshape(n, -1) // N
    shape = (digits - digits[0]) % M
    code = np.ravel_multi_index(tuple(shape), (M,) * n)
    return code[:, None] == code[None, :]


def _sampled_fibers(M: int, N: int, count: int, rng):
    return [dita_deform(random_phase_matrix(M, N, rng)) for _ in range(count)]


def test_step_operator_is_block_diagonal_over_translates():
    # the F_M factor of the deformation makes a pair-gram entry vanish unless
    # i(u) - i(v) = i(w) - i(z) mod M, so around the cycle the column M-tuple
    # is the row M-tuple plus one constant
    rng = np.random.default_rng(29)
    for (M, N), n in itertools.product(((2, 2), (2, 3), (3, 2), (3, 3)), (1, 2, 3)):
        grams = [_pair_gram(_row_quotients(fiber.entries))
                 for fiber in _sampled_fibers(M, N, n, rng)]
        step = dense_slice_operator(grams, n, M * N)
        off = np.abs(step[~_translate_mask(M, N, n)])
        assert off.max(initial=0.0) < 1e-12, (M, N, n)


def test_transfer_matrix_is_block_diagonal_over_translates():
    rng = np.random.default_rng(31)
    for (M, N), p in itertools.product(((2, 2), (2, 3), (3, 2), (3, 3)), (1, 2, 3)):
        (fiber,) = _sampled_fibers(M, N, 1, rng)
        mat = transfer_fiber(magic_unitary(fiber), p).entries
        off = np.abs(mat[~_translate_mask(M, N, p)])
        assert off.max(initial=0.0) < 1e-12, (M, N, p)


def test_philox_counter_reset_matches_fresh_stream():
    # each sample rewinds one shared Philox; the draws must be those of a
    # fresh Philox keyed by the seed with counter [0, 0, 0, s]
    wanted = (0, 1, 2, 999)
    for seed in (0, 7, -1, 2**64 + 5):
        for s, rng in enumerate(_sample_streams(seed, wanted[-1] + 1)):
            if s not in wanted:
                continue
            fresh = np.random.Generator(np.random.Philox(
                key=np.uint64(seed & (2**64 - 1)), counter=[0, 0, 0, s]))
            assert np.array_equal(rng.uniform(0.0, 1.0, size=(3, 3)),
                                  fresh.uniform(0.0, 1.0, size=(3, 3)))
            rng.uniform(size=5)  # leave the stream mid-buffer before the next rewind


def test_torus_trace_matches_transfer_products():
    rng = np.random.default_rng(23)
    cases = list(itertools.product((1, 2, 3), (1, 2, 3), (1, 2, 3), (1, 2, 3)))
    for M, N, p, r in cases + [(3, 3, 3, 3)]:
        K = M * N
        grams, mats = [], []
        for _ in range(r):
            fiber = dita_deform(random_phase_matrix(M, N, rng))
            grams.append(_pair_gram(_row_quotients(fiber.entries)))
            mats.append(transfer_fiber(magic_unitary(fiber), p).entries)
        product = mats[0]
        for mat in mats[1:]:
            product = product @ mat
        dense = np.trace(product)
        oracle = dense_torus_trace(grams, K, p)
        fast = _torus_trace(grams, _block_indices(M, N, min(p, r)), M, N, p)
        assert abs(fast - oracle) <= 1e-12 * abs(oracle), (M, N, p, r)
        assert abs(fast - dense) < 1e-9 * max(1.0, abs(dense)), (M, N, p, r)
        # moment of a self-adjoint element: real for every sampled tuple
        assert abs(fast.imag) < 1e-9 * max(1.0, abs(fast))


def test_mc_estimate_c_builds_no_dense_operator(monkeypatch):
    # both sweeps (r <= p and r > p) run on the diagonal blocks alone: every
    # stack gathered is M^(n-1) blocks of side M N^n, never one K^n block
    shapes = []
    gather = model._slice_blocks

    def recording(*args, **kwargs):
        stack = gather(*args, **kwargs)
        shapes.append(stack.shape)
        return stack

    monkeypatch.setattr(model, "_slice_blocks", recording)
    for M, N, p, r in ((3, 2, 3, 2), (2, 3, 2, 3), (3, 3, 1, 1)):
        shapes.clear()
        est = mc_estimate_c(M, N, p, r, samples=3, seed=4)
        assert np.isfinite(est.mean)
        n = min(p, r)
        assert shapes and set(shapes) == {(M**(n - 1), M * N**n, M * N**n)}, (M, N, p, r)


def test_mc_estimate_c_deterministic():
    a = mc_estimate_c(2, 2, 2, 2, samples=64, seed=99)
    b = mc_estimate_c(2, 2, 2, 2, samples=64, seed=99)
    assert a == b
    c = mc_estimate_c(2, 2, 2, 2, samples=64, seed=100)
    assert a != c


def test_mc_estimate_c_p1_exact():
    est = mc_estimate_c(2, 3, 1, 3, samples=40, seed=1)
    assert abs(est.mean - 1) < 1e-12
    assert est.std_error < 1e-12


def test_mc_estimate_c_r1_matches_scaling():
    est = mc_estimate_c(2, 2, 3, 1, samples=400, seed=2)
    exact = (2 * 2)**2
    assert abs(est.mean - exact) <= max(3 * est.std_error, 1e-9)


def test_mc_estimate_c_smoke_z():
    est = mc_estimate_c(2, 2, 2, 2, samples=800, seed=12)
    exact = float(c_from_d(count_d(2, 2, 2, 2), 2, 2, 2))
    assert abs(est.mean - exact) <= 5 * est.std_error


def test_mc_estimate_c_long_r_is_finite():
    # c_2^200(2, 2) = 3 exactly; the products of 200 transfer matrices must
    # not overflow on the way there
    exact = float(c_from_d(alpha(2, 2, 2, 200), 2, 2, 2))
    assert exact == 3
    est = mc_estimate_c(2, 2, 2, 200, samples=20, seed=5)
    assert abs(est.mean - exact) <= max(3 * est.std_error, 1e-9 * exact)


def test_mc_estimate_c_long_p_is_finite():
    est = mc_estimate_c(2, 2, 200, 2, samples=20, seed=5)
    assert np.isfinite(est.mean) and est.mean > 0
    assert np.isfinite(est.std_error)


def test_mc_estimate_delta_long_p_is_finite():
    # (MN)^p overflows a float here; the moment itself is tiny but finite
    for p in (520, 600):
        est = mc_estimate_delta(2, 2, p, samples=2, seed=1)
        assert np.isfinite(est.mean) and est.mean > 0
        assert np.isfinite(est.std_error)


def test_mc_estimate_delta_smoke():
    est = mc_estimate_delta(2, 3, 3, samples=1500, seed=21)
    exact = float(delta_partition(2, 3, 3))
    assert abs(est.mean - exact) <= 5 * est.std_error
    one = mc_estimate_delta(1, 4, 3, samples=30, seed=4)
    assert abs(one.mean - 1) < 1e-12
    flat = mc_estimate_delta(3, 2, 1, samples=30, seed=4)
    assert abs(flat.mean - 1) < 1e-12
    assert flat.std_error < 1e-12


def test_torus_budget_limit():
    # M = N = 2, p = 3, r = 2: M^(n-1) = 2 blocks of side M N^n = 8, so
    # 2 * 8^3 * 1 + 2 * 8^2 * (6 + 48) = 7936 operations and bytes per sample
    mc_estimate_c(2, 2, 3, 2, samples=1, seed=0, budget=7936)
    with pytest.raises(BudgetError) as info:
        mc_estimate_c(2, 2, 3, 2, samples=1, seed=0, budget=7935)
    assert info.value.estimated_ops == 7936


def test_mc_budget_and_validation():
    with pytest.raises(BudgetError):
        mc_estimate_c(4, 4, 5, 5, samples=10, seed=0)
    with pytest.raises(ParameterError):
        mc_estimate_c(2, 2, 2, 2, samples=0, seed=0)
    for seed in (True, 1.9, "1", None):
        with pytest.raises(ParameterError):
            mc_estimate_c(2, 2, 2, 2, samples=1, seed=seed)
        with pytest.raises(ParameterError):
            mc_estimate_delta(2, 2, 2, samples=1, seed=seed)
    for seed in (-3, 2**70):
        assert mc_estimate_c(2, 2, 2, 2, samples=2, seed=seed) == \
            mc_estimate_c(2, 2, 2, 2, samples=2, seed=seed & (2**64 - 1))
        assert mc_estimate_delta(2, 2, 2, samples=2, seed=seed) == \
            mc_estimate_delta(2, 2, 2, samples=2, seed=seed & (2**64 - 1))
    with pytest.raises(ValidationError):
        flat = np.ones((2, 2), dtype=complex) * 1.5
        from fouriermoments.model import PhaseMatrix
        PhaseMatrix(2, 2, flat)


def test_projection_residuals_over_seeds():
    # ten seeded fibers at K <= 16: projection and magic-sum residuals in tolerance
    for seed in range(10):
        rng = np.random.default_rng(seed)
        M, N = [(2, 2), (2, 3), (3, 3), (2, 8), (4, 4), (3, 5), (2, 4),
                (4, 2), (2, 6), (3, 4)][seed]
        unit = magic_unitary(dita_deform(random_phase_matrix(M, N, rng)))
        K = M * N
        squared = np.einsum("ijab,ijbc->ijac", unit.blocks, unit.blocks)
        assert np.abs(squared - unit.blocks).max() < PROJECTION_TOL
        assert np.abs(unit.blocks.sum(axis=0) - np.eye(K)).max() < MAGIC_SUM_TOL
        assert np.abs(unit.blocks.sum(axis=1) - np.eye(K)).max() < MAGIC_SUM_TOL
