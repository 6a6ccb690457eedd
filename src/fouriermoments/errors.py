"""Shared exception types, the argument checks, and the scoped budget with
the gate that reads it. It imports no other module of the package.

`_validate_int` (and `_validate_pos`, its keyword form for positive sizes)
is the library's one integer check, and `_name` is how every message shows
an argument: an integer past 10^17 as d.ddde+XX, so that one past the
interpreter's 4300-digit string limit is still named.

Exit-code mapping used by the CLI: ParameterError -> 2, BudgetError -> 3,
CrossCheckError -> 4.
"""

import contextlib
import contextvars
import math
from fractions import Fraction

# Each exact kernel refuses work estimated above this many elementary
# operations, or above the limit of the `budget` block its thread is in.
DEFAULT_BUDGET = 10**9
_BUDGET = contextvars.ContextVar("budget", default=DEFAULT_BUDGET)


class ParameterError(ValueError):
    """Invalid argument or violated precondition (e.g. crossing partition)."""


class BudgetError(RuntimeError):
    """A computation was refused because its estimated cost exceeds the budget."""

    def __init__(self, message: str, estimated_ops: int, limit: int):
        super().__init__(message)
        self.estimated_ops = estimated_ops
        self.budget = limit


class ValidationError(ValueError):
    """Numerical input failed a structural validation (e.g. not Hadamard)."""


class CrossCheckError(RuntimeError):
    """Two exact methods disagreed on a value that must be identical."""


def _validate_pos(**kwargs: int) -> None:
    for name, value in kwargs.items():
        _validate_int(name, value, 1)


def _validate_int(name: str, value, least: int | None = None) -> None:
    """Refuse a value that is not an int, or is below `least` (0 or 1) if
    given. bool is an int subclass, but True is not a moment parameter."""
    if not (isinstance(value, int) and not isinstance(value, bool)
            and (least is None or value >= least)):
        kind = {None: "an", 0: "a nonnegative", 1: "a positive"}[least]
        raise ParameterError(f"{name} must be {kind} integer, got {_name(value)}")


def _name(value) -> str:
    """How a message shows an argument: by repr, except that an integer past
    10^17, alone or as a term of a Fraction (shown as str shows it), goes
    through _scientific, because str refuses one of over 4300 digits."""
    if isinstance(value, int):  # first: the gates name small ints on every call
        if -10**17 < value < 10**17:
            return repr(value)
        return "-" * (value < 0) + _scientific(abs(value))
    if isinstance(value, Fraction):
        terms = (value.numerator,) + (value.denominator,) * (value.denominator != 1)
        return "/".join(map(_name, terms))
    return repr(value)


@contextlib.contextmanager
def budget(ops: int):
    """Within the block, exact kernels refuse work estimated above `ops` operations."""
    _validate_int("the budget", ops, 0)
    token = _BUDGET.set(ops)
    try:
        yield
    finally:
        _BUDGET.reset(token)


def _check_budget(what: str, cost: int | None, log10_cost=None) -> None:
    """Refuse `what` if its estimated cost is over the scoped budget. With
    cost=None, `log10_cost` is the log10 of a floor under an estimate too
    large to form, and a floor over the budget is refused at budget + 1."""
    limit = _BUDGET.get()
    if cost is None:
        cost = limit + 1 if not limit or log10_cost > math.log10(limit) else 0
    if cost > limit:
        raise BudgetError(
            f"{what} needs ~{_scientific(cost, log10_cost)} elementary operations, over the "
            f"budget of {_scientific(limit)}; raise the budget to force it",
            estimated_ops=cost, limit=limit)


def _scientific(n: int, log10=None) -> str:
    """n as d.ddde+XX. Past 10^17 it is named from its log10: a cost can
    outgrow the float range and the length str() converts, and one too large
    to form at all is passed as a lower bound n with the estimate's log10.
    An exponent past 10^17 is itself shown this way."""
    if log10 is None and n < 10**17:
        return f"{n:.3e}"
    log10 = math.log10(n) if log10 is None else log10
    shift = math.floor(log10)
    mantissa, exponent = f"{10 ** float(log10 - shift):.3e}".split("e")
    exponent = int(exponent) + shift
    return f"{mantissa}e{exponent:+03d}" if exponent < 10**17 else \
        f"{mantissa}e+{_scientific(exponent)}"
