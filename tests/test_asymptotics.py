import itertools
import math
import time
from fractions import Fraction

import pytest

from fouriermoments.asymptotics import (
    StirlingPolynomial,
    delta_decay_estimate,
    free_poisson_moment,
    regime_check,
    richmond_shallit,
    stirling_polynomial,
)
from fouriermoments.errors import BudgetError, ParameterError, budget
from fouriermoments.limits import moment_integral

from helpers import catalan, narayana
from oracles import kreweras_complement, noncrossing_partitions


def test_stirling_polynomial_small():
    s1 = stirling_polynomial(1)
    assert s1.coefficients[1] == 1 and s1(Fraction(7)) == 7
    s3 = stirling_polynomial(3)
    assert s3.coefficients[1:] == (1, 3, 1)
    assert stirling_polynomial(4)(1) == 14


def test_stirling_polynomial_symmetry_and_total():
    for p in range(1, 11):
        poly = stirling_polynomial(p)
        coeffs = poly.coefficients
        assert poly.catalan_total() == catalan(p)
        for k in range(1, p + 1):
            assert coeffs[k] == coeffs[p + 1 - k]


def test_block_profile_matches_kreweras_pairing():
    # complementation exchanges k blocks with p + 1 - k blocks
    for p in range(1, 10):
        coeffs = stirling_polynomial(p).coefficients
        profile = [0] * (p + 2)
        for part in noncrossing_partitions(p):
            profile[kreweras_complement(part).num_blocks] += 1
        for k in range(1, p + 1):
            assert profile[k] == coeffs[p + 1 - k] == coeffs[k]


def test_narayana_profile_by_ratio():
    for p in range(1, 61):
        assert stirling_polynomial(p).coefficients == \
            (0,) + tuple(narayana(p, k) for k in range(1, p + 1)), p


def test_profile_and_moment_budgets():
    # the closed form has no p cap: p = 13 and 2000 are cheap, 10^6 is refused
    assert stirling_polynomial(13).catalan_total() == catalan(13)
    assert free_poisson_moment(1, 2000) == catalan(2000)
    start = time.perf_counter()
    for call in (lambda: stirling_polynomial(10**6),
                 lambda: free_poisson_moment(Fraction(5, 2), 10**5)):
        with pytest.raises(BudgetError):
            call()
    assert time.perf_counter() - start < 0.1


def test_horner_evaluation_is_priced_by_the_digits_of_t():
    # the Horner loop multiplies by t's digits at every step: a t of 2000
    # digits is refused at once at p = 1000, by either entry point
    t = Fraction(10**2000, 3)
    for call in (lambda: free_poisson_moment(t, 1000), lambda: stirling_polynomial(1000)(t)):
        start = time.perf_counter()
        with pytest.raises(BudgetError):
            call()
        assert time.perf_counter() - start < 1


def test_profile_coefficients_match_p():
    # __call__ prices its loop by p, so a longer loop than p steps is refused
    # when it is built, not run under a budget that prices one step
    with budget(100), pytest.raises(ParameterError, match="p \\+ 1 coefficients, got 3001"):
        StirlingPolynomial(1, (0,) + (1,) * 3000)(Fraction(10**50, 3))
    for p, coefficients in ((2, (0, 1)), (0, (0,)), (True, (0, 1))):
        with pytest.raises(ParameterError):
            StirlingPolynomial(p, coefficients)
    assert StirlingPolynomial(1, (0, 1))(Fraction(10**50, 3)) == Fraction(10**50, 3)


def test_free_poisson_moments():
    assert free_poisson_moment(Fraction(5, 2), 1) == Fraction(5, 2)
    assert free_poisson_moment(1, 4) == 14
    assert free_poisson_moment(2, 3) == 2 + 3 * 4 + 8 == 22
    with pytest.raises(ParameterError):
        free_poisson_moment(0, 3)


def test_regime_check_exact_at_p1():
    report = regime_check(1, 1, [2, 4])
    for row in report.rows:
        assert row.delta == 1
        assert row.predicted == 1
        assert row.rel_error == 0


def test_regime_check_error_decreases():
    for t, n0 in ((1, 4), (2, 3)):
        for p in (3, 4):
            report = regime_check(t, p, [n0, 2 * n0, 4 * n0])
            errors = [row.rel_error for row in report.rows]
            assert errors[0] > errors[1] > errors[2]
            for row in report.rows:
                assert row.char_moment == Fraction(row.M**(p - 1), row.N) * row.delta
                assert row.char_predicted == free_poisson_moment(Fraction(t), p) / row.M


def test_regime_check_rejects_fractional_m():
    with pytest.raises(ParameterError):
        regime_check(Fraction(1, 2), 3, [3])


def test_richmond_shallit():
    for k in (1, 10, 1000):
        assert richmond_shallit(1, k) == 1.0
    ratio = float(moment_integral(2, 500)) / richmond_shallit(2, 500)
    assert abs(ratio - 1) < 0.01
    ratio3 = float(moment_integral(3, 60)) / richmond_shallit(3, 60)
    assert abs(ratio3 - 1) < 0.05


def test_decay_laws_past_the_float_range():
    for N in (1000, 10**400):
        assert delta_decay_estimate(N, 10) == richmond_shallit(N, 10) == math.inf
    # arguments past the float range are taken by their logarithm
    assert math.isclose(delta_decay_estimate(2, 10**320), 2 / math.sqrt(math.pi) * 10**-160)
    assert richmond_shallit(3, 10**400) == 0.0
    for N, p in itertools.product((2, 3, 7, 100), (4, 40, 4000, 10**9)):
        assert delta_decay_estimate(N, p) == richmond_shallit(N, p // 4)


def test_delta_decay_estimate():
    for p in (1, 7, 10**6):
        assert delta_decay_estimate(1, p) == 1.0
    for p in (10, 100, 10**4):
        assert math.isclose(delta_decay_estimate(2, p), 2 / math.sqrt(math.pi * p))
    # survives arguments that overflow naive evaluation
    assert delta_decay_estimate(20, 10**12) > 0
