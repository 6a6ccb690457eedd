"""Record the outputs every benchmark check compares against.

    python3 perfbench/record.py        # rewrites perfbench/expected.json

Run it from the root of a checkout whose outputs are trusted. Every exact
job of the library workloads is computed once and stored as a "num/den"
string (or a structure of them); the exact references of the Monte Carlo
jobs and the exact rows of every CLI command are stored the same way. A
value is confirmed by a second route where one exists, and the script
refuses to write anything if a confirmation fails:

  count_d       against d42_closed (p = 4, r = 2), alpha (p <= 2), beta (p <= 3)
  delta_direct  against delta_partition
  delta_m2      against delta_partition at M = 2 for p <= 9, and back
  epsilon       against a scan of triangle_relation over enumerate_partitions
  moment_integral  against a sum over compositions written here
  stirling_polynomial  against the Narayana numbers C(p,k) C(p,k-1) / p

`second_route` in the output names the route for each confirmed id.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction
from itertools import product

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from fouriermoments import BudgetError  # noqa: E402
from fouriermoments.limits import delta_direct, delta_m2, delta_partition, decompose  # noqa: E402
from fouriermoments.partitions import enumerate_partitions, triangle_relation  # noqa: E402
from fouriermoments.truncated import alpha, beta, c_from_d, count_d, d42_closed  # noqa: E402

from clirun import child_env, exact_values, parse_rows, run_command  # noqa: E402
from jobs import (  # noqa: E402
    BOUND_POINTS, D42_GRID, DELTA_DIRECT_POINTS, EXPECTED_PATH, LADDERS, LIBRARY_WORKLOADS,
    MC_GRAM_POINTS, MC_MODEL_POINTS, POOL_POINT, STIRLING_POINTS, canon, cli_commands, command_id,
    ratio_str, workload_jobs)


class Recorder:
    def __init__(self):
        self.values: dict = {}
        self.second_route: dict[str, str] = {}

    def confirm(self, job_id: str, other, route: str) -> None:
        other = other if isinstance(other, list) else canon(other)
        if self.values[job_id] != other:
            raise SystemExit(f"{job_id}: {route} gives {other!r:.80}, "
                             f"recorded route gives {self.values[job_id]!r:.80}")
        self.second_route[job_id] = route


def _composition_sum(N: int, k: int) -> Fraction:
    """N^(-2k) times the sum of squared multinomials over compositions of k."""
    def parts(total, n):
        if n == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in parts(total - first, n - 1):
                yield (first,) + rest
    fact = [math.factorial(i) for i in range(k + 1)]
    total = sum((fact[k] // math.prod(fact[x] for x in c))**2 for c in parts(k, N))
    return Fraction(total, N**(2 * k))


def _epsilon_by_scan(p: int, s: int, t: int) -> Fraction:
    pis = [x for x in enumerate_partitions(p) if x.num_blocks == s]
    sigmas = [x for x in enumerate_partitions(p) if x.num_blocks == t]
    hits = sum(1 for a in pis for b in sigmas if triangle_relation(a, b))
    return Fraction(hits, len(pis) * len(sigmas))


def record_library(rec: Recorder) -> None:
    for workload in LIBRARY_WORKLOADS:
        for job in workload_jobs(workload, 0):
            if job.check in ("exact", "regime"):
                rec.values[job.id] = canon(job.call(0))
    M, N, p, r = POOL_POINT
    rec.values[f"count_d/{M}-{N}-{p}-{r}"] = canon(count_d(M, N, p, r))
    rec.values["selftest/alpha"] = canon(alpha(2, 3, 2, 2))

    for M, N in D42_GRID:
        rec.confirm(f"count_d/{M}-{N}-4-2", d42_closed(M, N), "d42_closed")
        rec.confirm(f"d42_closed/{M}-{N}", count_d(M, N, 4, 2), "count_d")
    for M, N, p in BOUND_POINTS:  # criterion 12: the bound holds
        if delta_partition(M, N, p) > Fraction(rec.values[f"delta_upper_bound/{M}-{N}-{p}"]):
            raise SystemExit(f"delta_upper_bound({M},{N},{p}) is below delta")
    for (M, N, p), (rs, _) in LADDERS.items():
        try:
            count_d(M, N, p, rs[-1] + 1)
        except BudgetError:
            pass
        else:
            raise SystemExit(f"ladder ({M},{N},{p}) stops below the default budget")
        delta = delta_partition(M, N, p)
        ladder = [Fraction(rec.values[f"count_d/{M}-{N}-{p}-{r}"]) for r in rs]
        if not all(a >= b >= delta for a, b in zip(ladder, ladder[1:])):
            raise SystemExit(f"ladder ({M},{N},{p}) does not decrease towards delta")
    for M, N, p in DELTA_DIRECT_POINTS:
        rec.confirm(f"delta_direct/{M}-{N}-{p}", delta_partition(M, N, p), "delta_partition")
    for p in range(2, 10):
        rec.confirm(f"delta_m2/3-{p}", delta_partition(2, 3, p), "delta_partition(2,3,p)")
    for M, N in ((2, 2), (2, 3), (3, 2)):
        rows = N if M == 2 else M
        rec.confirm(f"delta_partition/{M}-{N}-9", delta_m2(rows, 9), "delta_m2 (binomial route)")
    for p in range(1, 7):
        for s, t in product(range(1, p + 1), repeat=2):
            rec.confirm(f"epsilon/{p}-{s}-{t}", _epsilon_by_scan(p, s, t),
                        "triangle_relation scan")
    rec.confirm("moment_integral/3-300", _composition_sum(3, 300), "composition sum")
    for p in STIRLING_POINTS:
        narayana = [math.comb(p, k) * math.comb(p, k - 1) // p for k in range(1, p + 1)]
        rec.confirm(f"stirling_polynomial/{p}", [str(x) for x in narayana], "Narayana closed form")
    report = decompose(3, 3, 8)
    if report.total != delta_partition(3, 3, 8) or report.row_sum(1) != Fraction(1, 3**7):
        raise SystemExit("decompose(3,3,8) breaks its total or margin identity")
    rec.second_route["decompose/3-3-8"] = "delta_partition total and row-1 margin"

    for (M, N, p, r), _ in MC_MODEL_POINTS:
        d = count_d(M, N, p, r)
        rec.values[f"c/{M}-{N}-{p}-{r}"] = ratio_str(c_from_d(d, M, N, p))
        other = alpha(M, N, p, r) if p <= 2 else beta(M, N, p, r, delta_partition(M, N, p))
        if other != d:
            raise SystemExit(f"count_d({M},{N},{p},{r}) differs from its closed form")
        rec.second_route[f"c/{M}-{N}-{p}-{r}"] = "alpha" if p <= 2 else "beta"
    for (M, N, p), _ in MC_GRAM_POINTS:
        rec.values[f"delta/{M}-{N}-{p}"] = ratio_str(delta_partition(M, N, p))
        rec.confirm(f"delta/{M}-{N}-{p}", delta_direct(M, N, p), "delta_direct")


def record_cli() -> dict:
    tmp = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp, exist_ok=True)
    env = child_env(ROOT, tmp)
    out = {}
    for argv in cli_commands(0):
        result = run_command(argv, env, None)
        if result["code"] != 0:
            raise SystemExit(f"{argv}: exit {result['code']}: {result['stderr']}")
        out[command_id(argv)] = exact_values(parse_rows(result["stdout"]))
    return out


def main() -> int:
    rec = Recorder()
    record_library(rec)
    doc = {"values": rec.values, "cli": record_cli(),
           "second_route": dict(sorted(rec.second_route.items()))}
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    unconfirmed = sorted(k for k in rec.values if k not in rec.second_route)
    print(f"recorded {len(rec.values)} values and {len(doc['cli'])} CLI commands; "
          f"{len(unconfirmed)} have no second route: {', '.join(unconfirmed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
