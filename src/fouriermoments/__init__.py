"""Exact and Monte Carlo moments of the main character for deformed
Fourier matrix models.

The exact side counts index configurations with big-integer rational
arithmetic; the numerical side builds the matrix model (Hadamard fibers,
magic unitaries, transfer matrices) and estimates the same quantities by
seeded Monte Carlo, so each route cross-validates the other.

The package loads lazily: `import fouriermoments` puts each of its modules
in `sys.modules` unexecuted, and a module runs, once, when it is imported or
its first attribute is read. Each public name is
exported on first use (PEP 562) from the module that defines it, so the
closed forms never load numpy.
"""

__version__ = "0.1.0"

import sys
import threading
from importlib import import_module
from importlib.util import find_spec, module_from_spec
from types import ModuleType

# Each public name and the module that defines it.
_MODULE_OF = {name: module for module, names in (
    ("errors", ("BudgetError", "CrossCheckError", "ParameterError", "ValidationError",
                "budget")),
    ("partitions", ("SetPartition", "enumerate_partitions", "noncrossing_partitions",
                    "is_noncrossing", "kreweras_complement", "shift_block",
                    "triangle_relation")),
    ("closed", ("c_from_d", "alpha", "beta", "d42_closed", "closed_form_is_exact")),
    ("truncated", ("counting_condition", "count_d", "solution_set", "base_condition",
                   "i_tuple_probability")),
    ("limits", ("DecompositionReport", "delta_direct", "delta_partition", "delta_exact",
                "delta_binomial", "epsilon", "decompose", "moment_integral", "delta_m2",
                "delta_m2_float", "delta_upper_bound")),
    ("model", ("PhaseMatrix", "HadamardFiber", "MagicUnitary", "fourier_matrix",
               "flat_phase_matrix", "random_phase_matrix", "dita_deform", "magic_unitary",
               "transfer_fiber", "mc_estimate_c", "mc_estimate_delta")),
    ("asymptotics", ("StirlingPolynomial", "RegimeReport", "stirling_polynomial",
                     "free_poisson_moment", "regime_check", "richmond_shallit",
                     "delta_decay_estimate")),
) for name in names}

__all__ = list(_MODULE_OF)


_LOCK = threading.RLock()
_RUNNING = set()  # the lazy modules whose code is running


class _LazyModule(ModuleType):
    """A module in sys.modules before its code has run. The first attribute
    read runs it, and a thread that reads one meanwhile waits for the end;
    `importlib.util.LazyLoader` lets that thread see a half-run module."""

    def __getattribute__(self, attr):
        with _LOCK:
            if type(self) is _LazyModule and self not in _RUNNING:
                _RUNNING.add(self)
                ModuleType.__getattribute__(self, "__spec__").loader.exec_module(self)
                self.__class__ = ModuleType
        return ModuleType.__getattribute__(self, attr)


# Each module of the package goes into sys.modules unexecuted, as code that
# looks a module up there after `import fouriermoments` expects (the tracer in
# perfbench/spans.py does); importing it, or reading an attribute, runs it.
for _module in dict.fromkeys(_MODULE_OF.values()):
    _lazy = sys.modules[f"{__name__}.{_module}"] = module_from_spec(
        find_spec(f"{__name__}.{_module}"))
    _lazy.__class__ = _LazyModule
del _module, _lazy


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    elif name in _MODULE_OF.values():  # a module, as `from fouriermoments import model` asks
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
