"""Running the `fouriermoments` command line as a user does: one process per
command, started the way the installed console script starts it, with the
package taken from the checkout's `src/`.
"""

from __future__ import annotations

import csv
import io
import os
import subprocess
import sys
import time

from jobs import CLI_RATIO_TOL, command_id

# What the `fouriermoments` console script runs (pyproject.toml).
ENTRY = "from fouriermoments.cli import entry; entry()"
COMMAND_TIMEOUT_S = 120


def child_env(root: str, tmp: str) -> dict:
    """Environment of every process the benchmark starts: the package from
    `src/`, no cache directory inherited from the caller, and temporary files
    kept inside the checkout."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("FOURIERMOMENTS_CACHE", None)
    env["TMPDIR"] = tmp
    return env


def run_command(argv: list[str], env: dict, cache_dir: str | None) -> dict:
    cmd = [sys.executable, "-c", ENTRY, *argv]
    if cache_dir:
        cmd += ["--cache", cache_dir]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=COMMAND_TIMEOUT_S)
    return {"argv": argv, "ms": 1000 * (time.perf_counter() - start),
            "code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def parse_rows(stdout: str) -> list[dict]:
    rows = list(csv.reader(io.StringIO(stdout)))
    return [dict(zip(rows[0], row)) for row in rows[1:]]


def exact_values(rows: list[dict]) -> list[list[str]]:
    return [[row["method"], row["value"]] for row in rows if row["value"]]


def cache_hits(result: dict) -> int:
    return sum(1 for line in result["stderr"].splitlines()
               if line.startswith("# cache hit"))


def check_command(result: dict, expected: dict) -> str | None:
    """None when the command's output is correct, else a one-line reason.

    Exact values must match the recorded ones bit-for-bit; Monte Carlo rows
    must sit within 3 sigma (|z| <= 3), estimate rows within criteria 9 and
    10 of their closed forms, and asymptotic ladders must shrink their
    relative error as N doubles (criterion 11)."""
    name = command_id(result["argv"])
    if result["code"] != 0:
        return f"{name}: exit code {result['code']}: {result['stderr'].strip()[-200:]}"
    try:
        return _check_rows(name, parse_rows(result["stdout"]), expected)
    except (csv.Error, IndexError, KeyError, ValueError) as exc:
        return f"{name}: unreadable output ({type(exc).__name__}: {exc})"


def _check_rows(name: str, rows: list[dict], expected: dict) -> str | None:
    if exact_values(rows) != expected["cli"][name]:
        return f"{name}: exact values differ from the recorded ones"
    for row in rows:
        if row["method"].startswith("mc-") and not abs(float(row["z"])) <= 3:
            return f"{name}: z = {row['z']} is outside 3 sigma"
        if row["method"] in CLI_RATIO_TOL and \
                not abs(float(row["z"]) - 1) < CLI_RATIO_TOL[row["method"]]:
            return f"{name}: ratio {row['z']} outside its tolerance"
    ladder = [float(row["z"]) for row in rows if row["method"] == "ladder"]
    if not all(a > b for a, b in zip(ladder, ladder[1:])):
        return f"{name}: relative errors {ladder} do not decrease"
    return None


def selftest_cli(expected: dict) -> list[str]:
    """The CLI check must pass a correct output and fail a non-zero exit, a
    wrong value and a row it cannot read. Returns the self-test failures."""
    argv = ["truncated", "--M", "2", "--N", "2", "--p", "3", "--r", "2",
            "--method", "direct,beta"]
    header = '"command","M","N","p","r","method","value","z"\n'

    def canned(code: int, *values: str) -> dict:
        rows = "".join(f'"truncated",2,2,3,2,"{m}","{v}",""\n'
                       for m, v in zip(("direct", "beta"), values))
        return {"argv": argv, "code": code, "stdout": header + rows, "stderr": ""}

    good = [v for _, v in expected["cli"][command_id(argv)]]
    problems = []
    if check_command(canned(0, *good), expected) is not None:
        problems.append("a correct CLI output was counted as a failure")
    if check_command(canned(1, *good), expected) is None:
        problems.append("a non-zero CLI exit was not counted as a failure")
    if check_command(canned(0, good[0], "1/2"), expected) is None:
        problems.append("a wrong CLI value was not counted as a failure")
    unreadable = canned(0, *good)
    unreadable["stdout"] = unreadable["stdout"].replace('"value"', '"val"')
    if check_command(unreadable, expected) is None:
        problems.append("an unreadable CLI output was not counted as a failure")
    return problems
