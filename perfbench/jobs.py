"""Job lists of the benchmark workloads and the checks on their outputs.

A job is one call of a public `fouriermoments` function. Library names are
looked up on their module at call time, so the tracer in `spans.py` can
wrap them without touching the package source.

Each library workload is a list of units; a unit is a short list of jobs
that must run in order (a cold `count_d` followed by its r-ladder, which
reuses the histogram). The workload seed shuffles the units and derives
the Monte Carlo seeds, so one seed always gives the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

LIBRARY_WORKLOADS = ("exact-count", "limit-routes", "monte-carlo")
WORKLOADS = LIBRARY_WORKLOADS + ("cli-cache",)

# count_d points with the r-ladder that follows each cold call. Every ladder
# stops at the last r the default budget (10^9) admits; `record.py` checks
# that the next r is refused. Extending a ladder past the budget is a later
# benchmark change, not something a faster kernel should do silently.
LADDERS = {
    (3, 3, 6): (range(2, 7), 1),
    (2, 2, 8): (range(2, 14), 1),
    (4, 3, 5): (range(2, 6), 1),
    (4, 2, 6): (range(2, 6), 2),  # the one library point on the process pool
}
D42_GRID = [(M, N) for M in range(2, 6) for N in range(2, 6)]
DELTA_DIRECT_POINTS = [(2, 3, 7), (3, 3, 6)]
# Cold point timed once at threads=1 and once at threads=2, each in a fresh
# process, in the traced run only.
POOL_POINT = (4, 3, 6, 2)

DELTA_PARTITION_POINTS = [(2, 2, 9), (2, 3, 9), (3, 2, 9), (3, 3, 8), (8, 8, 8)]
EPSILON_P_MAX = 6
BOUND_POINTS = [(M, N, p) for M in (2, 3) for N in (2, 3) for p in range(2, 10)]
DELTA_M2_POINTS = [(3, p) for p in range(2, 10)] + [(3, 200)]
MOMENT_INTEGRAL_POINTS = [(3, 300)]
# (N, p, reference): "law" checks the decay law with criterion 10's
# tolerance, an id checks the relative error against that exact job.
# (3, 4*10^4) is the ROADMAP's baseline point of the O(p^2) float route, about
# 2 s, so that a faster float route shows in `wall_s`.
DELTA_M2_FLOAT_POINTS = [(3, 40000, "law"), (2, 10000, "law"),
                         (3, 200, "delta_m2/3-200")]
STIRLING_POINTS = [9]
REGIME_LADDERS = [(t, p, [n0, 2 * n0, 4 * n0])
                  for t, n0 in ((1, 4), (2, 3)) for p in (2, 3, 4, 5)]

MC_MODEL_POINTS = [((3, 3, 3, 3), 15), ((2, 3, 3, 3), 250), ((3, 3, 2, 3), 250),
                   ((2, 3, 3, 2), 500), ((2, 2, 3, 3), 1000)]
MC_GRAM_POINTS = [((M, N, 3), 2500) for M in (2, 3) for N in (2, 3)]

# The nine README commands plus three heavier ones. The last three are
# scaled down from the acceptance sizes so that a cold and a warm pass fit
# several times into one run; they keep the process pool (>= 2^15 pinned
# pairs) and a cross-checked `limit` in the cold pass.
CLI_COMMANDS = [
    ["truncated", "--M", "2", "--N", "2", "--p", "3", "--r", "2", "--method", "direct,beta"],
    ["limit", "--M", "2", "--N", "2", "--p", "3", "--method", "direct,partition,binomial"],
    ["limit", "--M", "3", "--N", "3", "--p", "4", "--report", "decomposition"],
    ["converge", "--M", "2", "--N", "2", "--p", "4", "--r-max", "8"],
    ["mc", "--kind", "model", "--M", "2", "--N", "2", "--p", "2", "--r", "2",
     "--samples", "2000", "--seed", "{seed}"],
    ["mc", "--kind", "gram", "--M", "2", "--N", "3", "--p", "3", "--samples", "5000",
     "--seed", "{seed}"],
    ["asymptotic", "--t", "1", "--p", "3", "--N", "4,8,16"],
    ["estimate", "--kind", "decay", "--N", "2", "--p", "10000"],
    ["estimate", "--kind", "rs", "--N", "2", "--k", "5000"],
    ["truncated", "--M", "4", "--N", "2", "--p", "6", "--r", "2"],
    ["limit", "--M", "3", "--N", "3", "--p", "6", "--method", "direct,partition"],
    ["converge", "--M", "3", "--N", "3", "--p", "6", "--r-max", "6"],
]
# Tolerances on the `z` column of float CLI rows (criteria 9 and 10).
CLI_RATIO_TOL = {"decay": 0.03, "rs": 0.01}


@dataclass(frozen=True)
class Job:
    id: str
    call: Callable[[int], Any]  # takes the job's seed; exact jobs ignore it
    check: str  # "exact", "mc", "decay", "regime"
    ref: str | None = None  # expected-value id a non-exact check compares to


def _key(*parts) -> str:
    return "-".join(str(p) for p in parts)


def derive_seed(seed: int, *labels) -> int:
    """A 32-bit seed from the workload seed and labels, stable across runs."""
    text = ":".join(str(x) for x in (seed,) + labels)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little")


def _units_exact_count():
    from fouriermoments import limits, truncated
    units = []
    for (M, N, p), (rs, threads) in LADDERS.items():
        units.append([Job(f"count_d/{_key(M, N, p, r)}",
                          lambda s, M=M, N=N, p=p, r=r, t=threads:
                          truncated.count_d(M, N, p, r, threads=t), "exact")
                      for r in rs])
    for M, N in D42_GRID:
        units.append([
            Job(f"d42_closed/{_key(M, N)}",
                lambda s, M=M, N=N: truncated.d42_closed(M, N), "exact"),
            Job(f"count_d/{_key(M, N, 4, 2)}",
                lambda s, M=M, N=N: truncated.count_d(M, N, 4, 2), "exact")])
    for M, N, p in DELTA_DIRECT_POINTS:
        units.append([Job(f"delta_direct/{_key(M, N, p)}",
                          lambda s, M=M, N=N, p=p: limits.delta_direct(M, N, p),
                          "exact")])
    return units


def _units_limit_routes():
    from fouriermoments import asymptotics, limits
    units = [[Job(f"delta_partition/{_key(M, N, p)}",
                  lambda s, M=M, N=N, p=p: limits.delta_partition(M, N, p), "exact")]
             for M, N, p in DELTA_PARTITION_POINTS]
    units.append([Job("decompose/3-3-8", lambda s: limits.decompose(3, 3, 8), "exact")])
    units.append([Job(f"epsilon/{_key(p, a, b)}",
                      lambda s, p=p, a=a, b=b: limits.epsilon(p, a, b), "exact")
                  for p in range(1, EPSILON_P_MAX + 1)
                  for a in range(1, p + 1) for b in range(1, p + 1)])
    units.append([Job(f"delta_upper_bound/{_key(M, N, p)}",
                      lambda s, M=M, N=N, p=p: limits.delta_upper_bound(M, N, p),
                      "exact") for M, N, p in BOUND_POINTS])
    units += [[Job(f"delta_m2/{_key(N, p)}",
                   lambda s, N=N, p=p: limits.delta_m2(N, p), "exact")]
              for N, p in DELTA_M2_POINTS]
    units += [[Job(f"moment_integral/{_key(N, k)}",
                   lambda s, N=N, k=k: limits.moment_integral(N, k), "exact")]
              for N, k in MOMENT_INTEGRAL_POINTS]
    units += [[Job(f"delta_m2_float/{_key(N, p)}",
                   lambda s, N=N, p=p: limits.delta_m2_float(N, p), "decay", ref)]
              for N, p, ref in DELTA_M2_FLOAT_POINTS]
    units += [[Job(f"stirling_polynomial/{p}",
                   lambda s, p=p: asymptotics.stirling_polynomial(p), "exact")]
              for p in STIRLING_POINTS]
    units += [[Job(f"regime_check/{_key(t, p)}",
                   lambda s, t=t, p=p, ns=ns: asymptotics.regime_check(t, p, ns),
                   "regime")] for t, p, ns in REGIME_LADDERS]
    return units


def _units_monte_carlo():
    from fouriermoments import model
    units = [[Job(f"mc_estimate_c/{_key(*pt)}",
                  lambda s, pt=pt, n=n: model.mc_estimate_c(*pt, samples=n, seed=s),
                  "mc", f"c/{_key(*pt)}")] for pt, n in MC_MODEL_POINTS]
    units += [[Job(f"mc_estimate_delta/{_key(*pt)}",
                   lambda s, pt=pt, n=n: model.mc_estimate_delta(*pt, samples=n, seed=s),
                   "mc", f"delta/{_key(*pt)}")] for pt, n in MC_GRAM_POINTS]
    return units


_UNITS = {"exact-count": _units_exact_count, "limit-routes": _units_limit_routes,
          "monte-carlo": _units_monte_carlo}


def workload_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of a library workload, its unit order drawn from seed."""
    units = _UNITS[workload]()
    random.Random(derive_seed(seed, workload, "order")).shuffle(units)
    return [job for unit in units for job in unit]


def cli_commands(seed: int) -> list[list[str]]:
    commands = [[arg.replace("{seed}", str(derive_seed(seed, "cli", i)))
                 for arg in cmd] for i, cmd in enumerate(CLI_COMMANDS)]
    random.Random(derive_seed(seed, "cli-cache", "order")).shuffle(commands)
    return commands


def command_id(argv: list[str]) -> str:
    """Identify a CLI command by its arguments, without its --seed value."""
    out = []
    skip = False
    for arg in argv:
        if skip:
            skip = False
        elif arg == "--seed":
            skip = True
        else:
            out.append(arg)
    return " ".join(out)


def ratio_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def canon(value) -> Any:
    """A JSON-able form of a job's output that compares bit-for-bit."""
    if isinstance(value, Fraction):
        return ratio_str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple) and hasattr(value, "std_error"):  # McEstimate
        return [repr(value.mean), repr(value.std_error)]
    if hasattr(value, "contributions"):  # DecompositionReport
        return {"total": ratio_str(value.total),
                "st": {f"{s},{t}": ratio_str(v)
                       for (s, t), v in sorted(value.contributions.items())},
                "epsilon": {f"{s},{t}": ratio_str(v)
                            for (s, t), v in sorted(value.epsilon.items())}}
    if hasattr(value, "coefficients"):  # StirlingPolynomial
        return [str(c) for c in value.coefficients[1:]]
    if hasattr(value, "rows"):  # RegimeReport
        return {"delta": [ratio_str(row.delta) for row in value.rows],
                "rel_error": [repr(row.rel_error) for row in value.rows]}
    raise TypeError(f"no canonical form for {type(value).__name__}")


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _decay_ok(job: Job, value: float, expected: dict) -> bool:
    from fouriermoments import asymptotics
    N, p = (int(x) for x in job.id.split("/")[1].split("-"))
    if job.ref != "law":
        exact = Fraction(expected["values"][job.ref])
        return abs(value - float(exact)) <= 1e-9 * float(exact)
    # Criterion 10: within 3 % of 2/sqrt(pi p) at N = 2, 10 % of the law above.
    tol = 0.03 if N == 2 else 0.10
    return abs(value / asymptotics.delta_decay_estimate(N, p) - 1) < tol


def _mc_ok(estimate, exact: float) -> bool:
    """Criterion 7's gate: within 3 standard errors of the exact value."""
    if estimate.std_error == 0:
        return abs(estimate.mean - exact) < 1e-9
    return abs(estimate.mean - exact) <= 3 * estimate.std_error


def check(job: Job, value, expected: dict) -> str | None:
    """None when the output is correct, else a one-line reason."""
    values = expected["values"]
    if job.check == "exact":
        got = canon(value)
        want = values.get(job.id)
        return None if got == want else f"{job.id}: got {got!r:.80}, recorded {want!r:.80}"
    if job.check == "mc":
        return None if _mc_ok(value, float(Fraction(values[job.ref]))) else \
            f"{job.id}: {value.mean} is not within 3 sigma of {job.ref}"
    if job.check == "decay":
        return None if _decay_ok(job, value, expected) else \
            f"{job.id}: {value} outside the decay tolerance"
    if job.check == "regime":
        if canon(value) != values[job.id]:
            return f"{job.id}: differs from the recorded ladder"
        errors = [row.rel_error for row in value.rows]
        if not all(a > b for a, b in zip(errors, errors[1:])):
            return f"{job.id}: relative errors {errors} do not decrease"
        if any(row.char_moment / row.char_predicted != row.delta / row.predicted
               for row in value.rows):
            return f"{job.id}: chi/N moment ratio differs from delta ratio"
        return None
    raise ValueError(f"unknown check {job.check!r}")
