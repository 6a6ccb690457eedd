"""One pass of a library workload, in a fresh interpreter so that every pass
starts with the package's in-process caches empty.

    python3 perfbench/worker.py --workload exact-count --seed 1 --trace 0
    python3 perfbench/worker.py --count-point 4,3,6,2 --threads 2

A pass runs the workload's job list, checks every output against the
recorded values and prints one JSON object on its last stdout line. With
`--trace 1` the public functions are wrapped (see spans.py) and the pass
also reports its per-layer metrics.
`--count-point` times one cold `count_d` call instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from jobs import Job, check, canon, derive_seed, load_expected, workload_jobs  # noqa: E402
from spans import Tracer  # noqa: E402


def run_job(job: Job, seed: int, expected: dict) -> dict:
    """Call one job, with criterion 7's single retry for a Monte Carlo job
    that misses its 3-sigma gate. A job that raises is a failed job.

    The retry belongs to the check, not to the workload, so its time is
    returned apart: counting it would make a pass's work depend on the seed."""
    retries, retry_s = 0, 0.0
    try:
        value = job.call(derive_seed(seed, job.id))
        if job.check == "mc" and check(job, value, expected) is not None:
            retries = 1
            start = time.perf_counter()
            value = job.call(derive_seed(seed, job.id, "retry"))
            retry_s = time.perf_counter() - start
    except Exception as exc:  # noqa: BLE001 -- the harness reports and goes on
        return {"job": job, "value": None, "retries": retries, "retry_s": retry_s,
                "error": f"{job.id}: {type(exc).__name__}: {exc}"}
    return {"job": job, "value": value, "retries": retries, "retry_s": retry_s,
            "error": None}


def outcome(result: dict, expected: dict) -> str | None:
    if result["error"] is not None:
        return result["error"]
    try:
        return check(result["job"], result["value"], expected)
    except Exception as exc:  # noqa: BLE001 -- a malformed output is a failure
        return f"{result['job'].id}: check raised {type(exc).__name__}: {exc}"


def selftest(expected: dict) -> list[str]:
    """The harness must pass a correct output and fail a wrong recorded value
    and a job that raises. Returns the self-test failures."""
    from fouriermoments import truncated
    good = Job("selftest/alpha", lambda s: truncated.alpha(2, 3, 2, 2), "exact")
    wrong = dict(expected, values={good.id: "0/1"})
    raises = Job("selftest/raises", lambda s: truncated.count_d(0, 2, 2, 2), "exact")
    problems = []
    if outcome(run_job(good, 0, expected), expected) is not None:
        problems.append("a correct output was counted as a failure")
    if outcome(run_job(good, 0, wrong), wrong) is None:
        problems.append("a wrong recorded value was not counted as a failure")
    if outcome(run_job(raises, 0, expected), expected) is None:
        problems.append("a job that raised was not counted as a failure")
    return problems


def _pinned_pairs(M: int, N: int, p: int) -> int:
    return M**(p - 1) * N**(p - 1)


def _partitions_up_to(p: int, blocks: int) -> int:
    """|P<=blocks(p)|, the rows of one side of a triangle pair scan."""
    from fouriermoments.partitions import stirling_number
    return sum(stirling_number(p, s) for s in range(1, min(blocks, p) + 1))


def layer_metrics(workload: str, tracer: Tracer, results: list[dict],
                  tpc_calls: int, tpc_misses: int) -> dict:
    """Per-layer metrics of the layers this workload loads."""
    out: dict[str, float] = {}
    if workload == "exact-count":
        seen = set()
        cold = warm = 0.0
        pairs = 0
        for span in sorted(tracer.named("truncated.count_d"), key=lambda s: s.start):
            M, N, p = span.args[:3]
            if (M, N, p) in seen:
                warm += span.dur
            else:
                seen.add((M, N, p))
                cold += span.dur
                pairs += _pinned_pairs(M, N, p)
        out["truncated.count_d.cold_s"] = cold
        out["truncated.count_d.warm_s"] = warm
        out["truncated.count_d.pairs_per_s"] = pairs / cold
        out["truncated.d42_closed_s"] = tracer.outer_time("truncated.d42_closed")
        out["limits.delta_direct_s"] = tracer.outer_time("limits.delta_direct")
    elif workload == "limit-routes":
        out["limits.delta_partition.self_s"] = tracer.self_time("limits.delta_partition")
        out["limits.epsilon.self_s"] = tracer.self_time("limits.epsilon")
        out["limits.delta_m2_s"] = tracer.outer_time("limits.delta_m2")
        out["limits.moment_integral_s"] = tracer.outer_time("limits.moment_integral")
        out["limits.delta_m2_float_s"] = tracer.outer_time("limits.delta_m2_float")
        name = "partitions.triangle_pair_counts"
        out[name + ".self_s"] = tracer.self_time(name)
        out[name + ".calls"] = tpc_calls
        out[name + ".misses"] = tpc_misses
        out["partitions.pairs_scanned"] = sum(
            _partitions_up_to(s.args[0], s.args[1]) * _partitions_up_to(s.args[0], s.args[2])
            for s in tracer.named(name) if s.miss)
        out["asymptotics.stirling_polynomial_s"] = tracer.outer_time(
            "asymptotics.stirling_polynomial")
        out["asymptotics.regime_check_s"] = tracer.outer_time("asymptotics.regime_check")
    elif workload == "monte-carlo":
        per_point: dict[tuple, list[float]] = {}
        for span in tracer.named("model.mc_estimate_c"):
            acc = per_point.setdefault(span.args, [0.0, 0])
            acc[0] += span.dur
            acc[1] += span.kwargs["samples"]
        for point, (seconds, samples) in sorted(per_point.items()):
            key = "-".join(str(x) for x in point)
            out[f"model.mc_estimate_c.ms_per_sample.{key}"] = 1000 * seconds / samples
        gram = tracer.named("model.mc_estimate_delta")
        gram_samples = sum(s.kwargs["samples"] for s in gram)
        out["model.mc_estimate_delta.us_per_sample"] = \
            1e6 * sum(s.dur for s in gram) / gram_samples
        out["model.dita_deform.self_s"] = tracer.self_time("model.dita_deform")
        out["model.random_phase_matrix.self_s"] = tracer.self_time("model.random_phase_matrix")
        samples = sum(acc[1] for acc in per_point.values()) + gram_samples
        mc_seconds = sum(acc[0] for acc in per_point.values()) + sum(s.dur for s in gram)
        out["model.samples"] = samples
        out["model.samples_per_s"] = samples / mc_seconds
        out["model.mc_retries"] = sum(r["retries"] for r in results)
    return out


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    from fouriermoments import partitions
    expected = load_expected()
    problems = selftest(expected)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    jobs = workload_jobs(workload, seed)
    info = partitions.triangle_pair_counts.cache_info()
    start = time.perf_counter()
    results = [run_job(job, seed, expected) for job in jobs]
    wall = time.perf_counter() - start - sum(r["retry_s"] for r in results)
    after = partitions.triangle_pair_counts.cache_info()
    failures = [msg for msg in (outcome(r, expected) for r in results) if msg]
    digest = hashlib.sha256(json.dumps(
        [[r["job"].id, None if r["value"] is None else canon(r["value"])]
         for r in results]).encode()).hexdigest()
    calls = (after.hits + after.misses) - (info.hits + info.misses)
    misses = after.misses - info.misses
    out = {"workload": workload, "wall_s": wall, "attempted": len(results),
           "failed": len(failures), "failures": failures[:5],
           "selftest_problems": problems, "digest": digest,
           "triangle_pair_counts": [calls, misses]}
    if tracer:
        out["layers"] = layer_metrics(workload, tracer, results, calls, misses)
    return out


def run_count_point(point: str, threads: int) -> dict:
    from fouriermoments import truncated
    M, N, p, r = (int(x) for x in point.split(","))
    expected = load_expected()
    job_id = f"count_d/{M}-{N}-{p}-{r}"
    start = time.perf_counter()
    value = truncated.count_d(M, N, p, r, threads=threads)
    seconds = time.perf_counter() - start
    ok = canon(value) == expected["values"][job_id]
    return {"seconds": seconds, "attempted": 1, "failed": 0 if ok else 1,
            "failures": [] if ok else [f"{job_id} at threads={threads} differs"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--count-point", default=None, help="M,N,p,r")
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()
    if args.count_point:
        out = run_count_point(args.count_point, args.threads)
    else:
        out = run_pass(args.workload, args.seed, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
