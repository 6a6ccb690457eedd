import itertools
import tracemalloc

import numpy as np
import pytest

from fouriermoments import model
from fouriermoments.errors import (DEFAULT_BUDGET, BudgetError, ParameterError, ValidationError,
                                   budget)
from fouriermoments.limits import delta_partition
from fouriermoments.model import (
    HadamardFiber,
    MAGIC_SUM_TOL,
    PROJECTION_TOL,
    _block_indices,
    _pair_gram,
    _row_quotients,
    _sample_angles,
    _torus_traces,
    dita_deform,
    flat_phase_matrix,
    fourier_matrix,
    magic_unitary,
    mc_estimate_c,
    mc_estimate_delta,
    random_phase_matrix,
    transfer_fiber,
)
from fouriermoments.truncated import alpha, c_from_d, count_d

from helpers import (dense_slice_operator, dense_torus_trace, fiber_pair_values,
                     mc_sample_values_c, mc_sample_values_delta, pair_gram_from_values,
                     sample_generator)

# Criterion 7's seed and its retry seed.
MC_SEEDS = (20260808, 424243)


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
    bad = HadamardFiber(np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex))
    with pytest.raises(ValidationError):
        magic_unitary(bad)


def test_magic_unitary_holds_only_quotients():
    # K = 30: the quotients are K^3 complex entries (0.43 MB); the K^4 blocks
    # (13 MB) are built only on request, and validate forms no K^4 array
    fiber = dita_deform(flat_phase_matrix(5, 6))
    tracemalloc.start()
    try:
        magic_unitary(fiber)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_magic_validate_rejects_bad_quotients():
    # all-ones rows: idempotent blocks, but every row sum is the all-ones
    # matrix, off the identity by 1
    ones = model.MagicUnitary(_row_quotients(np.ones((2, 2), dtype=complex)))
    with pytest.raises(ValidationError, match="row/column sums"):
        ones.validate()
    # scaled quotients: |xi|^2 / K = 1.001^2, so B^2 != B
    xi = _row_quotients(dita_deform(flat_phase_matrix(2, 3)).entries)
    with pytest.raises(ValidationError, match="not idempotent"):
        model.MagicUnitary(1.001 * xi).validate()
    model.MagicUnitary(xi).validate()


def test_malformed_arrays_are_refused_at_construction():
    # the arrays are the only sizes: a cube of quotients, a square fiber and
    # a non-empty M x N phase matrix
    for quotients in (np.ones((3, 2, 2)), np.ones((2, 2)), np.ones((0, 0, 0))):
        with pytest.raises(ValidationError):
            model.MagicUnitary(quotients.astype(complex))
    for shape in ((0, 0), (2, 0), (3,), (2, 3), (2, 2, 2)):
        with pytest.raises(ValidationError):
            HadamardFiber(np.ones(shape, dtype=complex))
    for shape in ((0, 0), (2, 0), (3,), (2, 2, 2)):
        with pytest.raises(ValidationError):
            model.PhaseMatrix(np.ones(shape, dtype=complex))
    assert model.PhaseMatrix(np.ones((2, 3), dtype=complex)).entries.shape == (2, 3)
    # K = 3 quotients give the 9 x 9 matrix at p = 2
    xi = _row_quotients(fourier_matrix(3).entries)
    assert transfer_fiber(model.MagicUnitary(xi), 2).shape == (9, 9)


def test_transfer_fiber_p1():
    rng = np.random.default_rng(11)
    unit = magic_unitary(dita_deform(random_phase_matrix(2, 3, rng)))
    t1 = transfer_fiber(unit, 1)
    assert np.abs(t1 - 1 / 6).max() < 1e-12
    assert abs(np.trace(t1) - 1) < 1e-12


def test_transfer_fiber_structure():
    rng = np.random.default_rng(13)
    unit = magic_unitary(dita_deform(random_phase_matrix(2, 2, rng)))
    for p in (1, 2, 3):
        mat = transfer_fiber(unit, p)
        assert np.abs(mat).max() <= 1 + 1e-12
        assert np.abs(mat - mat.conj().T).max() < 1e-12  # self-adjoint element


def test_transfer_fiber_matches_dense_block_products():
    # transfer_fiber against plain block products; the torus trace's r > p
    # transfer matrices are checked against transfer_fiber's products
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
        assert np.abs(transfer_fiber(unit, p) - dense).max() < 1e-11


def test_flat_fiber_trace_identity():
    # at the undeformed point the truncated moments all sit at their r = 1 value
    for M, N in ((2, 2), (2, 3)):
        unit = magic_unitary(dita_deform(flat_phase_matrix(M, N)))
        for p in (1, 2, 3):
            mat = transfer_fiber(unit, p)
            acc = np.eye(mat.shape[0])
            for _ in range(3):
                acc = acc @ mat
                assert abs(np.trace(acc) - (M * N)**(p - 1)) < 1e-9


def test_many_slices_stay_within_numpys_axes():
    # a frame of one axis per slice index passes np.broadcast's 32 axes from
    # 15 slices, and numpy's 64 from 31: at K = 1, where the one block is 1
    # and so is every transfer matrix, and at N = 1, where every sample is
    # the exact moment
    unit = magic_unitary(fourier_matrix(1))
    for p in (1, 20, 31, 40):
        assert transfer_fiber(unit, p).tolist() == [[1]], p
    for M, N, p, r in ((1, 1, 40, 40), (2, 1, 15, 15)):
        exact = float(c_from_d(count_d(M, N, p, r), M, N, p))
        est = mc_estimate_c(M, N, p, r, samples=3, seed=1)
        assert abs(est.mean - exact) < 1e-12 * exact, (M, N, p, r)


def test_transfer_budget():
    rng = np.random.default_rng(19)
    unit = magic_unitary(dita_deform(random_phase_matrix(3, 3, rng)))
    with pytest.raises(BudgetError):
        transfer_fiber(unit, 8)


def test_transfer_budget_limit():
    # the one-block gather: p * K^(2p) operations and 48 bytes per entry,
    # so K = 4, p = 2 fits a budget of 4^4 * 50 = 12800 exactly
    unit = magic_unitary(dita_deform(flat_phase_matrix(2, 2)))
    with budget(12800):
        assert transfer_fiber(unit, 2).shape == (16, 16)
    with budget(12799), pytest.raises(BudgetError) as info:
        transfer_fiber(unit, 2)
    assert info.value.estimated_ops == 12800


def test_transfer_budget_bounds_memory():
    # K = 66 is the largest fiber the default budget admits at p = 2: its
    # 66^4 complex entries take 304 MB. At K = 149 they would take 7.9 GB, and
    # so would its K^4 pair gram at p = 1.
    assert 66**4 * (2 + 48) <= DEFAULT_BUDGET
    # the gate reads only the fiber's size: a broadcast array holds no K^3 entries
    for K, p in ((67, 2), (149, 2), (149, 1)):
        unit = model.MagicUnitary(np.broadcast_to(np.complex128(1), (K, K, K)))
        with pytest.raises(BudgetError) as info:
            transfer_fiber(unit, p)
        assert info.value.estimated_ops == K**4 * (p + 48)


def test_transfer_fiber_keeps_no_gather_indices():
    # at p = 2 the matrix holds K^4 entries, 13 MB at K = 30, and so does the
    # gram whose views it multiplies; gather indices would add as much again
    unit = magic_unitary(dita_deform(flat_phase_matrix(5, 6)))
    tracemalloc.start()
    try:
        transfer_fiber(unit, 2)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 2**20
    assert peak <= 2.5 * 16 * 30**4


def test_pair_gram_of_a_deformed_fiber_takes_m3n_values():
    # the F_M factor sums to M [i(u) - i(v) = i(w) - i(z) mod M] and the F_N
    # factor to an N-point DFT in d = (a(w) - a(z)) - (a(u) - a(v)) mod N, so
    # every K^4 entry, the zeros included, is one of the M^3 N values or 0
    rng = np.random.default_rng(43)
    for M, N in ((1, 1), (1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)):
        Q = random_phase_matrix(M, N, rng)
        gram = _pair_gram(_row_quotients(dita_deform(Q).entries))
        expected = pair_gram_from_values(fiber_pair_values(Q.entries))
        assert np.abs(gram - expected).max() < 1e-12, (M, N)


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


def _label_shift(M: int, N: int, n: int) -> np.ndarray:
    """shift[index]: the slice index tuple with every N-label (a = index % N)
    plus one mod N."""
    digits = np.indices((M * N,) * n).reshape(n, -1)
    shifted = digits // N * N + (digits + 1) % N
    return np.ravel_multi_index(tuple(shifted), (M * N,) * n)


def test_slice_operators_are_invariant_under_label_shifts():
    # a pair-gram entry depends on the N-labels only through
    # (a(w) - a(z)) - (a(u) - a(v)) mod N, so adding one constant to every row
    # N-label, or to every column N-label, leaves the step operator and the
    # transfer matrix of a deformed fiber unchanged
    rng = np.random.default_rng(37)
    for (M, N), n in itertools.product(((2, 2), (2, 3), (3, 2), (3, 3), (2, 4)), (1, 2, 3)):
        fibers = _sampled_fibers(M, N, n, rng)
        grams = [_pair_gram(_row_quotients(fiber.entries)) for fiber in fibers]
        step = dense_slice_operator(grams, n, M * N) * (M * N)**-n
        shift = _label_shift(M, N, n)
        for name, op in (("step", step), ("transfer", transfer_fiber(magic_unitary(fibers[0]), n))):
            assert np.abs(op[shift] - op).max() < 1e-12, (name, "rows", M, N, n)
            assert np.abs(op[:, shift] - op).max() < 1e-12, (name, "columns", M, N, n)


def test_transfer_matrix_is_block_diagonal_over_translates():
    rng = np.random.default_rng(31)
    for (M, N), p in itertools.product(((2, 2), (2, 3), (3, 2), (3, 3)), (1, 2, 3)):
        (fiber,) = _sampled_fibers(M, N, 1, rng)
        mat = transfer_fiber(magic_unitary(fiber), p)
        off = np.abs(mat[~_translate_mask(M, N, p)])
        assert off.max(initial=0.0) < 1e-12, (M, N, p)


def test_philox_kernel_matches_numpy_generator():
    # row i of a batch starting at sample s is, to the bit, what numpy's
    # Philox keyed by the seed with counter [0, 0, 0, s + i] draws
    wanted = (0, 1, 2, 999, 2**32 + 1, 2**40)
    for seed in (0, 7, -1, 2**63, 2**64 + 5):
        key = seed & (2**64 - 1)
        for d in (*range(1, 10), 27):
            for s in wanted:
                # a batch of one, and one of up to three that ends at s
                for first in {s, max(0, s - 2)}:
                    batch = _sample_angles(key, first, s - first + 1, (d,))
                    for row, angles in enumerate(batch):
                        fresh = sample_generator(seed, first + row).uniform(
                            0.0, 2.0 * np.pi, size=d)
                        assert angles.tobytes() == fresh.tobytes(), (seed, first + row, d)


def test_torus_trace_matches_transfer_products():
    rng = np.random.default_rng(23)
    cases = list(itertools.product((1, 2, 3), (1, 2, 3), (1, 2, 3), (1, 2, 3)))
    for M, N, p, r in cases + [(3, 3, 3, 3), (2, 4, 3, 2), (2, 4, 2, 3), (4, 2, 3, 3)]:
        K = M * N
        grams, values, mats = [], [], []
        for _ in range(r):
            Q = random_phase_matrix(M, N, rng)
            fiber = dita_deform(Q)
            grams.append(_pair_gram(_row_quotients(fiber.entries)))
            values.append(model._pair_values(Q.entries))
            mats.append(transfer_fiber(magic_unitary(fiber), p))
        product = mats[0]
        for mat in mats[1:]:
            product = product @ mat
        dense = np.trace(product)
        oracle = dense_torus_trace(grams, K, p)
        n = min(p, r)
        work = np.empty((3, 1, M**(n - 1), M * N**(n - 1), M * N**(n - 1)), dtype=complex)
        (fast,) = _torus_traces(np.stack(values)[:, None],
                                _block_indices(M, N, n, r > p), M, N, p, work)
        assert abs(fast - oracle) <= 1e-12 * abs(oracle), (M, N, p, r)
        assert abs(fast - dense) < 1e-9 * max(1.0, abs(dense)), (M, N, p, r)
        # moment of a self-adjoint element: real for every sampled tuple
        assert abs(fast.imag) < 1e-9 * max(1.0, abs(fast))


def test_stacked_trailing_sums_equal_the_one_sample_sums():
    # the torus trace ends a chunk in one stacked sum over each sample's
    # trailing axes (of a complex product, or of a diagonal at q = 1); it
    # must sum in the one-sample order, byte for byte, whatever the chunk.
    # A batched einsum "stij,stji->s" does not, past one sample.
    rng = np.random.default_rng(47)

    def stack(shape):
        return rng.standard_normal(2 * np.prod(shape)).view(complex).reshape(shape)

    # the block stacks of the benchmark's monte-carlo points
    for M, N, p, r in ((3, 3, 3, 3), (2, 3, 3, 3), (3, 3, 2, 3), (2, 3, 3, 2), (2, 2, 3, 3)):
        n = min(p, r)
        blocks = (M**(n - 1), M * N**(n - 1), M * N**(n - 1))
        for rows in (1, 7, 64, 301):
            acc, last = stack((rows,) + blocks), stack((rows,) + blocks)
            stacked = np.multiply(acc, last.swapaxes(2, 3), out=np.empty_like(acc))
            single = [(x * y.swapaxes(1, 2)).sum() for x, y in zip(acc, last)]
            assert stacked.sum(axis=(1, 2, 3)).tobytes() == np.array(single).tobytes(), \
                (M, N, p, r, rows)
            diagonals = [x.diagonal(axis1=1, axis2=2).sum() for x in acc]
            assert (acc.diagonal(axis1=2, axis2=3).sum(axis=(1, 2)).tobytes()
                    == np.array(diagonals).tobytes()), (M, N, p, r, rows)


def test_mc_estimate_c_builds_no_dense_operator(monkeypatch):
    # both sweeps (r <= p and r > p) run on the diagonal blocks alone, pinned
    # at a_0 = b_0 = 0: every stack gathered ends in M^(n-1) blocks of side
    # M N^(n-1), never one K^n block
    shapes = []
    gather = model._slice_blocks

    def recording(*args, **kwargs):
        stack = gather(*args, **kwargs)
        shapes.append(stack.shape[-3:])
        return stack

    monkeypatch.setattr(model, "_slice_blocks", recording)
    for M, N, p, r in ((3, 2, 3, 2), (2, 3, 2, 3), (3, 3, 1, 1)):
        shapes.clear()
        est = mc_estimate_c(M, N, p, r, samples=3, seed=4)
        assert np.isfinite(est.mean)
        n = min(p, r)
        assert shapes and set(shapes) == {(M**(n - 1), M * N**(n - 1), M * N**(n - 1))}, \
            (M, N, p, r)


def test_mc_estimate_c_forms_no_fiber_quotients_or_gram(monkeypatch):
    # the estimator reads each fiber's M^3 N values straight from its phases
    def refuse(*args, **kwargs):
        raise AssertionError("the estimator formed a fiber, its quotients or its gram")

    for name in ("_deform", "_row_quotients", "_pair_gram"):
        monkeypatch.setattr(model, name, refuse)
    # the points of the benchmark's monte-carlo workload
    for point in ((3, 3, 3, 3), (2, 3, 3, 3), (3, 3, 2, 3), (2, 3, 3, 2), (2, 2, 3, 3)):
        assert np.isfinite(mc_estimate_c(*point, samples=3, seed=5).mean), point


def _estimator_values(monkeypatch, estimate, *args) -> np.ndarray:
    """The per-sample values that an estimator reduces to its mean and error."""
    seen = []
    mean_and_error = model._mean_and_error
    monkeypatch.setattr(model, "_mean_and_error",
                        lambda values: seen.append(values.copy()) or mean_and_error(values))
    estimate(*args)
    return seen.pop()


def _recorded_chunks(monkeypatch) -> list[int]:
    """The sample count of every chunk drawn from here on, in order."""
    chunks = []
    phases = model._unit_phases

    def recording(angles):
        chunks.append(len(angles))
        return phases(angles)

    monkeypatch.setattr(model, "_unit_phases", recording)
    return chunks


@pytest.mark.parametrize("seed", MC_SEEDS)
def test_estimator_values_equal_the_one_sample_loop(monkeypatch, seed):
    # at criterion 7's deterministic points (p = 1 or r = 1) the error is 0
    # and the mean must lie within 1e-9 of the exact value, so every sample's
    # value must stay byte for byte that of the one-sample loop, whatever
    # the chunk. The counts span at least two chunks, and the last is ragged
    # unless a chunk holds one sample: a quarter of CHUNK_BYTES makes 299
    # model samples more than one chunk at every point.
    chunks = _recorded_chunks(monkeypatch)
    full = model.CHUNK_BYTES
    monkeypatch.setattr(model, "CHUNK_BYTES", full // 4)
    for M, N, p, r in itertools.product((2, 3), (2, 3), (1, 2, 3), (1, 2, 3)):
        samples = 3 if (M, N, p, r) == (3, 3, 3, 3) else 299
        chunks.clear()
        values = _estimator_values(monkeypatch, mc_estimate_c, M, N, p, r, samples, seed)
        oracle = mc_sample_values_c(M, N, p, r, samples, seed)
        assert values.tobytes() == oracle.tobytes(), (M, N, p, r)
        assert len(chunks) >= 2 and (chunks[0] == 1 or chunks[-1] < chunks[0]), (M, N, p, r)
    monkeypatch.setattr(model, "CHUNK_BYTES", full)
    for M, N, p in itertools.product((2, 3), (2, 3), (1, 2, 3)):
        chunks.clear()
        values = _estimator_values(monkeypatch, mc_estimate_delta, M, N, p, 3001, seed)
        oracle = mc_sample_values_delta(M, N, p, 3001, seed)
        assert values.tobytes() == oracle.tobytes(), (M, N, p)
        assert len(chunks) >= 2 and chunks[-1] < chunks[0], (M, N, p)


def test_one_sample_chunks_give_the_same_estimates(monkeypatch):
    model_points = [(2, 2, 2, 2, 200), (2, 2, 1, 3, 150), (3, 2, 2, 3, 40), (2, 3, 3, 1, 90)]
    gram_points = [(2, 3, 3, 3000), (3, 3, 2, 500)]

    def estimates():
        return ([mc_estimate_c(*point, seed=8) for point in model_points]
                + [mc_estimate_delta(*point, seed=8) for point in gram_points])

    chunks = _recorded_chunks(monkeypatch)
    chunked = estimates()
    assert max(chunks) > 1
    chunks.clear()
    monkeypatch.setattr(model, "CHUNK_BYTES", 1)
    assert estimates() == chunked
    assert set(chunks) == {1}


def test_mc_estimate_c_holds_at_most_one_chunk():
    # a chunk holds at most CHUNK_BYTES of working arrays, or one sample
    for point in ((3, 3, 2, 3), (2, 3, 3, 2), (2, 2, 2, 2), (2, 3, 2, 2), (3, 2, 3, 2)):
        mc_estimate_c(*point, samples=1, seed=3)  # one-time allocations of a first call
        peaks = []
        for samples in (1, 2000):
            tracemalloc.start()
            try:
                mc_estimate_c(*point, samples=samples, seed=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        one, many = peaks
        assert many < model.CHUNK_BYTES + one, (point, one, many)


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


def test_std_error_is_zero_where_every_sample_is_exact():
    # at p = 1, at r = 1 for the model, and at M = 1 or N = 1, every sample
    # is the moment itself: their spread is rounding alone (about 3e-18 at
    # p = 1, and up to 6e-15 at (2, 1, 6, 6)), so the error reads 0
    seed = 20260808  # criterion 7's
    for M, N, p, r in ((2, 2, 1, 3), (3, 3, 1, 2), (2, 3, 3, 1), (2, 1, 6, 6), (1, 3, 3, 3),
                       (3, 1, 4, 5), (1, 1, 3, 3)):
        est = mc_estimate_c(M, N, p, r, samples=2000, seed=seed)
        exact = float(c_from_d(count_d(M, N, p, r), M, N, p))
        assert est.std_error == 0.0 and abs(est.mean - exact) < 1e-12, (M, N, p, r)
    for M, N, p in ((2, 2, 1), (3, 1, 4), (1, 3, 4), (5, 1, 7)):
        est = mc_estimate_delta(M, N, p, samples=5000, seed=seed)
        assert est.std_error == 0.0 and abs(est.mean - 1) < 1e-12, (M, N, p)
    # a point whose samples are random keeps its spread
    assert mc_estimate_c(2, 2, 3, 3, samples=200, seed=seed).std_error > 0
    assert mc_estimate_delta(2, 2, 3, samples=200, seed=seed).std_error > 0


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
    # M = N = 2, p = 3, r = 2: M^(n-1) = 2 blocks of side M N^(n-1) = 4, so
    # one sample takes r K = 8 draws of 89 operations, r M^3 N^2 = 64 for G
    # and 2 * 4^3 * 1 + 2 * 4^2 * 6 = 320 in the block loop, and it holds
    # 8 bytes of value and 4560 of chunk, beside the 16 N^2 = 64 of F_N:
    # 8 + 712 + 64 + 320 + 4560 + 64 = 5728
    with budget(5728):
        mc_estimate_c(2, 2, 3, 2, samples=1, seed=0)
    with budget(5727), pytest.raises(BudgetError) as info:
        mc_estimate_c(2, 2, 3, 2, samples=1, seed=0)
    assert info.value.estimated_ops == 5728


def test_mc_budget_and_validation():
    with pytest.raises(BudgetError):
        mc_estimate_c(4, 4, 5, 5, samples=10, seed=0)
    with pytest.raises(ParameterError):
        mc_estimate_c(2, 2, 2, 2, samples=0, seed=0)
    # the gates price samples * (8 bytes + the kernel's ops for each of r M N draws)
    for estimate, args, draws in ((mc_estimate_c, (2, 2, 2, 2), 8),
                                  (mc_estimate_delta, (2, 2, 3), 4)):
        with pytest.raises(BudgetError) as info:
            estimate(*args, samples=10**8, seed=1)
        assert info.value.estimated_ops >= 10**8 * (8 + model._DRAW_OPS * draws)
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
        PhaseMatrix(flat)


def test_seed_type_is_checked_before_the_budget_and_the_draws(monkeypatch):
    # the calls below are far over the budget; a bad seed must be named first
    def refuse(*args):
        raise AssertionError("reached the budget gate or the draws")

    monkeypatch.setattr(model, "_check_budget", refuse)
    monkeypatch.setattr(model, "_sample_angles", refuse)
    for seed in (True, 1.5, "1", None):
        with pytest.raises(ParameterError, match="seed"):
            mc_estimate_c(4, 4, 5, 5, samples=10**12, seed=seed)
        with pytest.raises(ParameterError, match="seed"):
            mc_estimate_delta(2, 2, 3, samples=10**12, seed=seed)


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
