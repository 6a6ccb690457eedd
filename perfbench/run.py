"""The fouriermoments benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload exact-count --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the package from `src/` and
builds nothing. Workloads (see WORKLOADS.md for why each was chosen):

  exact-count   truncated moments (`count_d` cold and warm, the process
                pool, `d42_closed`) and `limits.delta_direct`
  limit-routes  partition-pair scans, the binomial and float routes of
                `limits`, and `asymptotics`
  monte-carlo   the `model` estimators, checked against recorded exact values
  cli-cache     the `fouriermoments` command line, a cold and a warm pass over
                one fresh cache directory

With `--trace 0` the run repeats passes of the workload, each library pass
in a fresh interpreter, until `--seconds` is used up (at least three), and
reports the end-to-end metrics named in BENCHMARK.json: the median pass wall
time, the lower quartile of fresh-interpreter import times spread over the
run, and the peak RSS. With `--trace 1` it runs one untraced and one traced
pass of the workload, one traced pass of every other workload, and reports
the per-layer metrics.
Every output is checked; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from clirun import (  # noqa: E402
    cache_hits, check_command, child_env, run_command, selftest_cli)
from jobs import (  # noqa: E402
    LIBRARY_WORKLOADS, POOL_POINT, WORKLOADS, cli_commands, command_id,
    derive_seed, load_expected)

MIN_PASSES = 3
SETUP_IMPORTS = 20
STARTUP_REPEATS = 7
WORKER_TIMEOUT_S = 150
IMPORT_PROBE = ("import time; t = time.perf_counter(); import fouriermoments; "
                "print(time.perf_counter() - t)")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")


class HarnessError(RuntimeError):
    """The benchmark itself could not run (missing sources, a crashed worker)."""


def _python(args: list[str], env: dict, timeout: float = WORKER_TIMEOUT_S) -> str:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise HarnessError(f"{' '.join(args[:3])} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-400:]}")
    return proc.stdout.strip().splitlines()[-1]


def worker(env: dict, *args: str) -> dict:
    return json.loads(_python([os.path.join(HERE, "worker.py"), *args], env))


def library_pass(env: dict, workload: str, seed: int, trace: bool) -> dict:
    return worker(env, "--workload", workload, "--seed", str(seed),
                  "--trace", str(int(trace)))


def cli_pass(env: dict, seed: int, expected: dict, cache_dir: str) -> dict:
    """A cold pass that fills a fresh cache directory, then a warm pass that
    reads it. A Monte Carlo command outside 3 sigma gets one retry at a
    seed derived from the run seed, as criterion 7 allows; like a library
    retry, its time is not counted."""
    shutil.rmtree(cache_dir, ignore_errors=True)
    os.makedirs(cache_dir)
    commands = cli_commands(seed)
    out = {"attempted": 0, "failed": 0, "failures": [],
           "selftest_problems": selftest_cli(expected)}
    for phase in ("cold", "warm"):
        times, hits = [], 0
        for argv in commands:
            result = run_command(argv, env, cache_dir)
            times.append(result["ms"])
            problem = check_command(result, expected)
            if problem and argv[0] == "mc" and result["code"] == 0:
                retry = list(argv)
                retry[argv.index("--seed") + 1] = str(derive_seed(seed, command_id(argv), "retry"))
                result = run_command(retry, env, cache_dir)
                problem = check_command(result, expected)
            hits += cache_hits(result)
            out["attempted"] += 1
            if problem:
                out["failed"] += 1
                out["failures"].append(f"{phase}: {problem}")
        out[f"{phase}_ms"] = times
        out[f"{phase}_wall_s"] = sum(times) / 1000
        out[f"{phase}_hits"] = hits
        if phase == "cold":
            out["cache_bytes"] = sum(
                os.path.getsize(os.path.join(cache_dir, name)) for name in os.listdir(cache_dir))
    out["wall_s"] = out["cold_wall_s"] + out["warm_wall_s"]
    return out


def one_pass(env: dict, workload: str, seed: int, trace: bool, expected: dict) -> dict:
    if workload == "cli-cache":
        return cli_pass(env, seed, expected,
                        os.path.join(TMP_DIR, f"cache-{seed}-{int(trace)}"))
    return library_pass(env, workload, seed, trace)


def import_seconds(env: dict) -> float:
    return float(_python(["-c", IMPORT_PROBE], env))


def measure(env: dict, workload: str, seed: int, seconds: int, expected: dict) -> dict:
    """Passes until `seconds` are used. SETUP_IMPORTS imports are timed between
    the passes, as many after each pass as keeps them level with the elapsed
    time, so that they sample the whole run: the host's speed drifts over
    seconds. `setup_s` is their lower quartile, which a slow spell in part of
    the run does not move."""
    passes, setup = [], []
    start = time.monotonic()
    deadline = start + seconds
    while len(passes) < MIN_PASSES or \
            time.monotonic() + statistics.median(p["wall_s"] for p in passes) <= deadline:
        passes.append(one_pass(env, workload, seed, False, expected))
        due = SETUP_IMPORTS * min(1.0, (time.monotonic() - start) / seconds)
        while len(setup) < due:
            setup.append(import_seconds(env))
    while len(setup) < SETUP_IMPORTS:
        setup.append(import_seconds(env))
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {"wall_s": statistics.median(p["wall_s"] for p in passes),
               "setup_s": statistics.quantiles(setup, n=4)[0],
               "peak_rss_mb": rss_kb / 1024}
    return {"metrics": metrics, "passes": passes,
            "detail": {"pass_wall_s": [p["wall_s"] for p in passes],
                       "import_s": setup}}


def traced(env: dict, workload: str, seed: int, expected: dict) -> dict:
    """Per-layer metrics: each comes from a traced pass of the workload that
    loads its layer, so every traced run reports all of them."""
    untraced = one_pass(env, workload, seed, False, expected)
    passes = {w: one_pass(env, w, seed, True, expected)
              for w in (workload,) + tuple(w for w in WORKLOADS if w != workload)}
    metrics: dict[str, float] = {}
    for w in LIBRARY_WORKLOADS:
        metrics.update(passes[w]["layers"])
    point = ",".join(str(x) for x in POOL_POINT)
    serial = worker(env, "--count-point", point, "--threads", "1")
    pool = worker(env, "--count-point", point, "--threads", "2")
    metrics["truncated.count_d.serial_s"] = serial["seconds"]
    metrics["truncated.count_d.pool_s"] = pool["seconds"]
    cli = passes["cli-cache"]
    startup = [run_command(["--version"], env, None)["ms"] for _ in range(STARTUP_REPEATS)]
    metrics["cli.startup_ms"] = statistics.median(startup)
    metrics["cli.cold_cmd_ms.p50"] = statistics.median(cli["cold_ms"])
    metrics["cli.warm_cmd_ms.p50"] = statistics.median(cli["warm_ms"])
    metrics["cli.cold_wall_s"] = cli["cold_wall_s"]
    metrics["cli.warm_wall_s"] = cli["warm_wall_s"]
    metrics["cli.cache_hits"] = cli["warm_hits"]
    metrics["cli.cache_bytes"] = cli["cache_bytes"]
    metrics["trace.overhead_s"] = passes[workload]["wall_s"] - untraced["wall_s"]
    problems = []
    if workload in LIBRARY_WORKLOADS:
        # Wrapping must change no output and no lru_cache behaviour.
        if passes[workload]["digest"] != untraced["digest"]:
            problems.append("traced outputs differ from untraced outputs")
        if passes[workload]["triangle_pair_counts"] != untraced["triangle_pair_counts"]:
            problems.append("traced cache_info() counts differ from untraced ones")
    return {"metrics": metrics, "passes": [untraced, *passes.values(), serial, pool],
            "problems": problems}


def provenance(env: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    probe = ("import json, numpy; c = numpy.show_config(mode='dicts')"
             "['Build Dependencies']['blas']; "
             "print(json.dumps([numpy.__version__, c.get('name'), c.get('version')]))")
    try:
        numpy_version, blas_name, blas_version = json.loads(_python(["-c", probe], env))
        blas = f"{blas_name} {blas_version}"
    except (HarnessError, ValueError, TypeError):
        numpy_version = blas = None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, cwd=ROOT).stdout.strip() or None
        except OSError:
            pass
    src_lines = 0
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as handle:
                    src_lines += sum(1 for _ in handle)
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "cores": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy_version, "blas": blas,
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "commit": commit, "src_lines": src_lines}


def declared_metrics(trace: int) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(env: dict, workload: str, seed: int, seconds: int, trace: int,
                 expected: dict) -> tuple[dict, list[str]]:
    """The result object of one workload, and the lines to print before it."""
    declared = declared_metrics(trace)
    if trace:
        run = traced(env, workload, seed, expected)
    else:
        run = measure(env, workload, seed, seconds, expected)
    passes = run["passes"]
    problems = run.get("problems", []) + [
        p for r in passes for p in r.get("selftest_problems", [])]
    failures = [f for r in passes for f in r["failures"]]
    missing = set(declared) - set(run["metrics"])
    if missing:
        raise HarnessError(f"metrics not measured: {sorted(missing)}")
    info = provenance(env, workload, seed, seconds, trace)
    info.update(run.get("detail", {}))
    lines = [f"# FAIL {line}" for line in failures[:20] + problems]
    lines.append("# provenance " + json.dumps(info))
    failed = sum(r["failed"] for r in passes)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": sum(r["attempted"] for r in passes),
        "failed": failed,
        "metrics": {name: {"value": run["metrics"][name], "unit": unit}
                    for name, unit in declared.items()},
    }
    return result, lines


def run_all(args) -> int:
    """Each workload in its own process of this script, so that each peak RSS
    is that workload's own."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="one workload, or all four in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "fouriermoments", "__init__.py")):
        print("error: no src/fouriermoments in this checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    expected = load_expected()
    os.makedirs(TMP_DIR, exist_ok=True)
    env = child_env(ROOT, TMP_DIR)
    try:
        result, lines = run_workload(env, args.workload, args.seed, args.seconds,
                                     args.trace, expected)
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(TMP_DIR, ignore_errors=True)
    print("\n".join(lines))
    for name, metric in result["metrics"].items():
        print(f"# {args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
