"""Every integer parameter of the library's public functions, given a bool,
a float, a negative number, zero or an integer of either sign past the
interpreter's 4300-digit string limit, ends in a value (only where that
value is legal for it) or in ParameterError or BudgetError, under a small
budget and a time bound. The input dataclasses take no integer: their
arrays and blocks fix their sizes."""

import inspect
import math
import signal
from fractions import Fraction

import numpy as np

import fouriermoments
from fouriermoments import model, partitions
from fouriermoments.errors import BudgetError, ParameterError, budget

BAD_VALUES = (True, 2.5, -1, 0, 10**400, 10**5000, -10**5000)
# Per parameter, the values of BAD_VALUES that it takes; others take only the
# huge positive ones.
HUGE = (10**400, 10**5000)
NONNEGATIVE = (0, *HUGE)
ANY_INTEGER = (-1, 0, *HUGE, -10**5000)
LEGAL = {("budget", "ops"): NONNEGATIVE, ("moment_integral", "k"): NONNEGATIVE,
         ("bell_number", "p"): NONNEGATIVE, ("stirling_number", "p"): NONNEGATIVE,
         ("stirling_number", "s"): ANY_INTEGER, ("mc_estimate_c", "seed"): ANY_INTEGER,
         ("mc_estimate_delta", "seed"): ANY_INTEGER}
# The public functions of `partitions` that the package does not export.
UNEXPORTED = (partitions.stirling_number, partitions.bell_number, partitions.triangle_pair_counts)


def _legal_arguments():
    """Arguments each function answers at once; each of its integer
    parameters is replaced in turn."""
    unit = model.magic_unitary(model.fourier_matrix(2))
    pair = dict(a=(0, 1, 0), b=(0, 1, 1))
    return {
        "budget": dict(ops=10),
        "enumerate_partitions": dict(p=3),
        "noncrossing_partitions": dict(p=3),
        "shift_block": dict(beta=(0, 1), p=3),
        "counting_condition": dict(i=(0, 1), **pair, M=2, N=2),
        "count_d": dict(M=2, N=2, p=3, r=2, threads=1),
        "c_from_d": dict(d=Fraction(1, 2), M=2, N=2, p=3),
        "alpha": dict(M=2, N=2, p=3, r=2),
        "beta": dict(M=2, N=2, p=3, r=2, delta_p=Fraction(1, 2)),
        "d42_closed": dict(M=2, N=2),
        "closed_form_is_exact": dict(method="beta", M=2, N=2, p=3, r=2),
        "solution_set": dict(**pair, M=2, N=2),
        "i_tuple_probability": dict(**pair, M=2, N=2, r=2),
        "delta_direct": dict(M=2, N=3, p=3),
        "delta_partition": dict(M=2, N=3, p=3),
        "delta_exact": dict(M=2, N=3, p=3),
        "delta_binomial": dict(M=2, N=3, p=3),
        "epsilon": dict(p=3, s=2, t=2),
        "decompose": dict(M=2, N=3, p=3),
        "moment_integral": dict(N=3, k=2),
        "delta_m2": dict(N=3, p=3),
        "delta_m2_float": dict(N=3, p=3),
        "delta_upper_bound": dict(M=2, N=3, p=3),
        "fourier_matrix": dict(n=3),
        "flat_phase_matrix": dict(M=2, N=3),
        "random_phase_matrix": dict(M=2, N=3, rng=np.random.default_rng(0)),
        "transfer_fiber": dict(U=unit, p=2),
        "mc_estimate_c": dict(M=2, N=2, p=2, r=2, samples=3, seed=1),
        "mc_estimate_delta": dict(M=2, N=2, p=2, samples=3, seed=1),
        "stirling_polynomial": dict(p=3),
        "free_poisson_moment": dict(t=2, p=3),
        "regime_check": dict(t=1, p=2, N_values=[2, 3]),
        "richmond_shallit": dict(N=3, k=2),
        "delta_decay_estimate": dict(N=3, p=4),
        "stirling_number": dict(p=4, s=2),
        "bell_number": dict(p=4),
        "triangle_pair_counts": dict(p=4, smax=2, tmax=2),
    }


def _integer_parameters(function):
    return [name for name, parameter in inspect.signature(function).parameters.items()
            if parameter.annotation in (int, "int")]


def _functions():
    # the package exports lazily (PEP 562), so its names are read through __all__
    exported = [getattr(fouriermoments, name) for name in fouriermoments.__all__]
    exported = [value for value in exported if inspect.isfunction(value)]
    return {function.__name__: function
            for function in exported + list(UNEXPORTED)
            if _integer_parameters(function)}


def _call(function, arguments):
    result = function(**arguments)
    if inspect.isgenerator(result):
        next(result)
    if hasattr(result, "__enter__"):
        with result:
            pass
    return result


def _shown(value) -> str:
    # repr refuses an integer of over 4300 digits
    if isinstance(value, int) and abs(value) > 10**4000:
        return f"{'-' * (value < 0)}10**{round(math.log10(abs(value)))}"
    return repr(value)


def _on_alarm(signum, frame):
    raise TimeoutError("over 2 s")


def test_every_integer_parameter_refuses_bad_values():
    functions, arguments = _functions(), _legal_arguments()
    assert sorted(functions) == sorted(arguments)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    wrong = []
    try:
        for name, function in functions.items():
            with budget(10**6):
                _call(function, arguments[name])
            for parameter in _integer_parameters(function):
                for value in BAD_VALUES:
                    legal = value in LEGAL.get((name, parameter), HUGE)
                    signal.alarm(2)
                    try:
                        with budget(10**6):
                            _call(function, {**arguments[name], parameter: value})
                        if not legal:
                            wrong.append((name, parameter, _shown(value), "returned"))
                    except (ParameterError, BudgetError):
                        pass
                    except Exception as error:
                        wrong.append((name, parameter, _shown(value), repr(error)[:200]))
                    finally:
                        signal.alarm(0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not wrong, wrong


def test_input_dataclasses_take_no_size():
    # a size next to the data could disagree with it
    for cls in (model.PhaseMatrix, model.HadamardFiber, model.MagicUnitary,
                partitions.SetPartition):
        assert not _integer_parameters(cls), cls
