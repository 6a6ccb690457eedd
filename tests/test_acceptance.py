"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime. Tolerances are pinned here; exact checks
compare Fractions bit-for-bit."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from fouriermoments.asymptotics import (
    delta_decay_estimate,
    regime_check,
    richmond_shallit,
)
from fouriermoments.limits import (
    decompose,
    delta_direct,
    delta_m2,
    delta_m2_float,
    delta_partition,
    delta_upper_bound,
    epsilon,
    moment_integral,
)
from fouriermoments.model import (
    MAGIC_SUM_TOL,
    PROJECTION_TOL,
    dita_deform,
    flat_phase_matrix,
    fourier_matrix,
    magic_unitary,
    mc_estimate_c,
    mc_estimate_delta,
    random_phase_matrix,
)
from fouriermoments.truncated import (
    alpha,
    beta,
    count_d,
    c_from_d,
    d42_closed,
)

from helpers import _difference_tables, _periods, every_pair

MC_SEED = 20260808
MC_RETRY_SEED = 424243


class _Timer:
    def __init__(self, number, limit_s, label):
        self.number = number
        self.limit_s = limit_s
        self.label = label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number:2d}] {status} ({elapsed:6.1f}s) {self.label}")
        if exc_type is None:
            assert elapsed < self.limit_s, \
                f"criterion {self.number} exceeded its {self.limit_s}s budget"
        return False


def test_criterion_01_small_p_identities():
    with _Timer(1, 60, "exact small-p identities d=1, d_2=alpha, d_3=beta"):
        grid = range(1, 5)
        for M, N, r in itertools.product(grid, grid, range(1, 5)):
            for p in (1, 2, 3):
                d = count_d(M, N, p, r)
                if M == 1 or N == 1 or p == 1 or r == 1:
                    assert d == 1, (M, N, p, r)
            assert count_d(M, N, 2, r) == alpha(M, N, 2, r)
            assert count_d(M, N, 3, r) == beta(M, N, 3, r, delta_partition(M, N, 3))


def test_criterion_02_d42_closed_form():
    with _Timer(2, 300, "p=4, r=2 closed form equals enumeration"):
        for M, N in itertools.product(range(2, 7), range(2, 6)):
            assert d42_closed(M, N) == count_d(M, N, 4, 2), (M, N)


def test_criterion_03_three_way_delta_agreement():
    with _Timer(3, 120, "limiting moments agree across all three routes"):
        for M, N in itertools.product(range(1, 5), range(1, 5)):
            for p in range(1, 6):
                assert delta_direct(M, N, p) == delta_partition(M, N, p), (M, N, p)
        for N in range(1, 5):
            for p in range(1, 7):
                assert delta_m2(N, p) == delta_direct(2, N, p), (N, p)


def test_criterion_04_decomposition_table():
    with _Timer(4, 60, "contribution table sums and margins"):
        for M, N in itertools.product((2, 3, 4), repeat=2):
            for p in range(1, 6):
                report = decompose(M, N, p)
                assert report.total == delta_partition(M, N, p)
                assert report.row_sum(1) == Fraction(1, M**(p - 1))
                assert report.column_sum(1) == Fraction(1, N**(p - 1))


def test_criterion_05_epsilon_monotonicity():
    with _Timer(5, 60, "pair-compatibility probability non-increasing"):
        for p in range(1, 7):
            table = {(s, t): epsilon(p, s, t)
                     for s in range(1, p + 1) for t in range(1, p + 1)}
            for (s, t), value in table.items():
                if s > 1:
                    assert value <= table[(s - 1, t)], (p, s, t)
                if t > 1:
                    assert value <= table[(s, t - 1)], (p, s, t)


def test_criterion_06_convergence_bounds():
    with _Timer(6, 180, "decay of d - delta and per-pair tuple fractions"):
        delta4 = delta_partition(2, 2, 4)
        for r in range(2, 9):
            gap = count_d(2, 2, 4, r) - delta4
            assert 0 <= gap <= Fraction(1, 2**(r - 1)), r
        # a pair off the base condition (its table does not vanish) has a
        # proper subgroup H of periods, and the fraction of the i-tuples whose
        # every step lies in H is at most (|H| / M)^(r-1), which decays in r
        for M, N in itertools.product((2, 3), repeat=2):
            for p in (1, 2, 3):
                f = _difference_tables(*every_pair(M, N, p), M, N)
                periodic = _periods(f[f.any(axis=(1, 2))])
                orders = periodic.sum(axis=1)
                assert (orders < M).all(), (M, N, p)
                for r in range(1, 5):
                    tuples = np.array(list(itertools.product(range(M), repeat=r)))
                    hits = periodic[:, (tuples - np.roll(tuples, -1, axis=1)) % M].all(axis=2)
                    for passed, order in zip(hits.sum(axis=1).tolist(), orders.tolist()):
                        assert Fraction(passed, M**r) <= Fraction(order, M)**(r - 1)


def _mc_point_failures(points, seed):
    failures = []
    for kind, M, N, p, r in points:
        if kind == "model":
            est = mc_estimate_c(M, N, p, r, samples=2000, seed=seed)
            exact = float(c_from_d(count_d(M, N, p, r), M, N, p))
        else:
            est = mc_estimate_delta(M, N, p, samples=5000, seed=seed)
            exact = float(delta_partition(M, N, p))
        if est.std_error == 0:
            ok = abs(est.mean - exact) < 1e-9
        else:
            ok = abs(est.mean - exact) <= 3 * est.std_error
        if not ok:
            failures.append((kind, M, N, p, r))
    return failures


def test_criterion_07_monte_carlo_oracles():
    with _Timer(7, 300, "Monte Carlo z-scores within 3 sigma (one retry)"):
        points = [("model", M, N, p, r)
                  for M, N in itertools.product((2, 3), repeat=2)
                  for p in (1, 2, 3) for r in (1, 2, 3)]
        points += [("gram", M, N, p, None)
                   for M, N in itertools.product((2, 3), repeat=2)
                   for p in (1, 2, 3)]
        first = _mc_point_failures(points, MC_SEED)
        if first:
            second = _mc_point_failures(first, MC_RETRY_SEED)
            assert not second, f"points failed twice: {second}"


def test_criterion_08_magic_unitary_validation():
    with _Timer(8, 30, "Hadamard/projection/magic residuals and flat fiber"):
        shapes = [(2, 2), (2, 3), (3, 3), (2, 4), (4, 4), (3, 5), (2, 8),
                  (4, 2), (2, 6), (3, 4)]
        for seed, (M, N) in enumerate(shapes):
            rng = np.random.default_rng(seed)
            fiber = dita_deform(random_phase_matrix(M, N, rng))
            fiber.validate()
            unit = magic_unitary(fiber)
            K = M * N
            squared = np.einsum("ijab,ijbc->ijac", unit.blocks, unit.blocks)
            assert np.abs(squared - unit.blocks).max() < PROJECTION_TOL
            assert np.abs(unit.blocks.sum(axis=0) - np.eye(K)).max() < MAGIC_SUM_TOL
            assert np.abs(unit.blocks.sum(axis=1) - np.eye(K)).max() < MAGIC_SUM_TOL
        for M, N in ((2, 2), (2, 3), (3, 3), (4, 4)):
            flat = dita_deform(flat_phase_matrix(M, N)).entries
            kron = np.kron(fourier_matrix(M).entries, fourier_matrix(N).entries)
            assert np.abs(flat - kron).max() < 1e-12


def test_criterion_09_richmond_shallit():
    with _Timer(9, 60, "phase-moment estimate ratios at large k"):
        exact2 = Fraction(math.comb(10000, 5000), 4**5000)
        ratio2 = float(exact2) / richmond_shallit(2, 5000)
        assert abs(ratio2 - 1) < 0.01
        ratio3 = float(moment_integral(3, 500)) / richmond_shallit(3, 500)
        assert abs(ratio3 - 1) < 0.05


def test_criterion_10_decay_profile():
    with _Timer(10, 120, "two-row floating moments match the decay law"):
        p = 10**4
        value2 = delta_m2_float(2, p)
        assert abs(value2 / (2 / math.sqrt(math.pi * p)) - 1) < 0.03
        value3 = delta_m2_float(3, p)
        assert abs(value3 / delta_decay_estimate(3, p) - 1) < 0.10


def test_criterion_11_free_poisson_regime():
    with _Timer(11, 60, "proportional-regime errors decrease on doubling ladders"):
        for t, n0 in ((1, 4), (2, 3)):
            for p in (2, 3, 4, 5):
                report = regime_check(t, p, [n0, 2 * n0, 4 * n0])
                errors = [row.rel_error for row in report.rows]
                assert errors[0] > errors[1] > errors[2], (t, p, errors)
                for row in report.rows:
                    ratio = row.char_moment / row.char_predicted
                    assert ratio == row.delta / row.predicted


def test_criterion_12_decay_to_zero():
    with _Timer(12, 120, "ninth moment halves and respects the upper bound"):
        for M, N in itertools.product((2, 3), repeat=2):
            deltas = {p: delta_partition(M, N, p) for p in range(1, 10)}
            assert deltas[9] < deltas[1] / 2, (M, N)
            for p in range(2, 10):
                assert deltas[p] <= delta_upper_bound(M, N, p), (M, N, p)
