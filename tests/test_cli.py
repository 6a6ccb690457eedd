import csv
import functools
import io
import json
import math
import os
import random
import shlex
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fouriermoments import cli, limits, model
from fouriermoments.cli import CSV_HEADER, main
from fouriermoments.limits import delta_partition
from fouriermoments.partitions import triangle_pair_counts


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == CSV_HEADER
    return [dict(zip(CSV_HEADER, row)) for row in rows[1:]]


def mask_runtime(rows):
    return [{k: v for k, v in row.items() if k != "runtime_ms"} for row in rows]


def test_truncated_direct_and_beta_agree(capsys):
    code, out, _ = run_cli(
        ["truncated", "--M", "2", "--N", "2", "--p", "3", "--r", "2",
         "--method", "direct,beta"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 2
    assert rows[0]["value"] == rows[1]["value"] == "13/16"


def test_truncated_golden_row(capsys):
    code, out, _ = run_cli(
        ["truncated", "--M", "1", "--N", "5", "--p", "4", "--r", "3"], capsys)
    assert code == 0
    row = mask_runtime(parse_csv(out))[0]
    assert row == {"command": "truncated", "M": "1", "N": "5", "p": "4",
                   "r": "3", "method": "direct", "value": "1/1",
                   "value_float": "1.0", "std_error": "", "z": "", "seed": ""}


def test_budget_exit_code(capsys):
    code, _, err = run_cli(
        ["truncated", "--M", "4", "--N", "4", "--p", "9", "--r", "2"], capsys)
    assert code == 3
    assert "budget" in err
    assert "6.599e+09" in err  # the estimated operation count is named


def test_pair_scan_budget_exit_code(capsys):
    argv = ["limit", "--M", "3", "--N", "3", "--p", "10", "--method", "partition"]
    triangle_pair_counts.cache_clear()  # refused before it is cached: a cached table is not
    code, _, err = run_cli(argv + ["--budget", "1000"], capsys)
    assert code == 3 and "partition-pair scan of (10,3,3)" in err
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert Fraction(parse_csv(out)[0]["value"]) == delta_partition(3, 3, 10)
    code, _, err = run_cli(["limit", "--M", "4", "--N", "4", "--p", "10",
                            "--method", "partition"], capsys)
    assert code == 3
    assert "partition-pair scan of (10,4,4) needs ~1.933e+09" in err


@pytest.mark.parametrize("argv", [
    ["limit", "--M", "2", "--N", "2", "--p", "3", "--method", "bound", "--budget", "1"],
    # the bound route fits 40 operations (its Stirling row, 4); the
    # decomposition's scan (52) does not
    ["limit", "--M", "2", "--N", "2", "--p", "3", "--method", "bound",
     "--report", "decomposition", "--budget", "40"],
    ["asymptotic", "--t", "1", "--p", "3", "--N", "4,8,16", "--budget", "1"],
    ["estimate", "--kind", "decay", "--N", "3", "--p", "40000", "--budget", "1"],
    # alpha's gcd is priced at (8004 // 300)^2 = 676 operations
    ["truncated", "--M", "2", "--N", "2", "--p", "2000", "--r", "2", "--method", "alpha",
     "--budget", "600"],
])
def test_every_route_honours_the_budget(argv, capsys):
    triangle_pair_counts.cache_clear()  # a cached pair table is never refused
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == "", err
    assert "budget error" in err


def test_budget_value_is_checked(capsys):
    for argv in (["limit", "--M", "2", "--N", "2", "--p", "3", "--method", "bound"],
                 ["truncated", "--M", "2", "--N", "2", "--p", "3", "--r", "2",
                  "--method", "beta"]):
        code, out, err = run_cli(argv + ["--budget", "-1"], capsys)
        assert code == 2 and out == ""
        assert "budget must be a nonnegative integer, got -1" in err


def test_converge_ladder_past_the_int_to_str_limit_is_refused_at_once(capsys):
    # the values pass the interpreter's 4300-digit int-to-str limit near
    # r = 14 300; the ladder is priced whole, all 10^5 rungs, before its first
    start = time.perf_counter()
    code, out, err = run_cli(["converge", "--M", "2", "--N", "2", "--p", "3",
                              "--r-max", "100000"], capsys)
    assert code == 3 and out == ""
    assert "converge ladder of 100000 rungs needs ~1.522e+10" in err
    assert time.perf_counter() - start < 1.0


def test_parameter_exit_code(capsys):
    code, _, err = run_cli(
        ["truncated", "--M", "2", "--N", "2", "--p", "3", "--r", "2",
         "--method", "nonsense"], capsys)
    assert code == 2
    assert "unknown truncated method" in err


@pytest.mark.parametrize("argv", [
    ["asymptotic", "--t", "abc", "--p", "3", "--N", "4"],
    ["asymptotic", "--t", "1/0", "--p", "3", "--N", "4"],
    ["asymptotic", "--t", "1", "--p", "3", "--N", "4,x"],
], ids=["t-not-rational", "t-zero-denominator", "N-not-integer"])
def test_malformed_asymptotic_arguments_exit_code(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_unwritable_out_exit_code(tmp_path, capsys):
    code, _, err = run_cli(
        ["limit", "--M", "2", "--N", "2", "--p", "2",
         "--out", str(tmp_path / "missing" / "x.csv")], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_cache_path_is_a_file_exit_code(tmp_path, capsys):
    target = tmp_path / "file"
    target.write_text("not a directory")
    code, _, err = run_cli(
        ["limit", "--M", "2", "--N", "2", "--p", "2", "--cache", str(target)], capsys)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("extra", [[], ["--format", "json"], ["--cache", "cache"]],
                         ids=["csv", "json", "cache"])
def test_value_too_long_to_print_exit_code(extra, tmp_path, capsys, monkeypatch):
    # d_3^15000(2, 2) has a 2^15006 denominator, past the interpreter's
    # 4300-digit int-to-str limit, which main lifts for the values it prices
    monkeypatch.chdir(tmp_path)
    argv = ["truncated", "--M", "2", "--N", "2", "--p", "3", "--r", "15000"] + extra
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    rows = json.loads(out) if extra == ["--format", "json"] else parse_csv(out)
    assert [len(term) for term in rows[0]["value"].split("/")] == [4516, 4517]
    if extra == ["--cache", "cache"]:
        warm_code, warm_out, warm_err = run_cli(argv, capsys)
        assert warm_code == 0 and "# cache hit" in warm_err
        assert mask_runtime(parse_csv(warm_out)) == mask_runtime(rows)


def test_cache_entry_is_priced_before_it_is_written(tmp_path, capsys):
    # d_3^(3 * 10^6)(2, 2) passes count_d's price; its 900 000-digit entry,
    # formatted before _emit prices the record, took 28 s unpriced
    start = time.perf_counter()
    code, out, err = run_cli(["truncated", "--M", "2", "--N", "2", "--p", "3", "--r", "3000000",
                              "--cache", str(tmp_path)], capsys)
    assert code == 3 and out == ""
    assert "storing ('d:direct', 2, 2, 3, 3000000) needs ~2.000e+10" in err
    assert time.perf_counter() - start < 1.0
    assert not any(tmp_path.iterdir())


def test_main_restores_the_int_to_str_limit(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4321)
    try:
        for argv, expected in (
                (["limit", "--M", "2", "--N", "2", "--p", "3"], 0),
                (["limit", "--M", "2", "--N", "2", "--p", "3", "--method", "nonsense"], 2),
                (["truncated", "--M", "2", "--N", "2", "--p", "2000", "--r", "2",
                  "--method", "alpha", "--budget", "1"], 3)):
            assert run_cli(argv, capsys)[0] == expected
            assert sys.get_int_max_str_digits() == 4321, argv
        with pytest.raises(SystemExit):
            main(["limit", "--M", "2"])
        assert sys.get_int_max_str_digits() == 4321
    finally:
        sys.set_int_max_str_digits(limit)
    capsys.readouterr()


def test_arguments_are_read_under_the_int_to_str_limit(capsys):
    # argparse runs int() on argv before main lifts the limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(SystemExit) as info:
            main(["truncated", "--M", "2", "--N", "2", "--p", "3", "--r", "7" * 5000])
    finally:
        sys.set_int_max_str_digits(limit)
    assert info.value.code == 2
    assert "invalid int value" in capsys.readouterr().err


def test_argparse_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["truncated", "--M", "2"])
    assert info.value.code == 2
    capsys.readouterr()


def test_cross_check_exit_code(capsys, monkeypatch):
    # each route reads its kernel from its module when it runs, so the patch reaches it
    monkeypatch.setattr(limits, "delta_partition", lambda M, N, p: Fraction(1, 7))
    code, _, err = run_cli(
        ["limit", "--M", "2", "--N", "2", "--p", "3",
         "--method", "direct,partition"], capsys)
    assert code == 4
    assert "disagree" in err
    assert "1/7" in err and "5/8" in err


def test_beta_cross_checked_at_prime_M(capsys, monkeypatch):
    # beta equals the direct count for every p when M is prime
    monkeypatch.setattr(cli, "beta", lambda M, N, p, r, delta: Fraction(1, 7))
    code, _, err = run_cli(
        ["truncated", "--M", "3", "--N", "2", "--p", "5", "--r", "3",
         "--method", "direct,beta"], capsys)
    assert code == 4
    assert "disagree" in err and "1/7" in err


def test_binomial_needs_a_side_of_two(capsys):
    code, _, err = run_cli(
        ["limit", "--M", "3", "--N", "3", "--p", "4", "--method", "binomial"], capsys)
    assert code == 2
    assert "M = 2 or N = 2" in err


def test_binomial_budget_prices_bigint_digits(capsys):
    # the DP's integers grow to 2k log2 N bits; priced by products alone,
    # this point passed the gate and then ran for minutes
    start = time.perf_counter()
    code, out, err = run_cli(
        ["limit", "--M", "2", "--N", "5", "--p", "20000", "--method", "binomial"], capsys)
    assert code == 3 and out == ""
    assert "squared-multinomial" in err
    assert time.perf_counter() - start < 1.0
    # N = 3 takes the recurrence, 10^4 steps on terms of up to 20000 + 2 * 10^4
    # log2 3 bits, 1725 digits: about 1.7e7 operations
    code, out, err = run_cli(["limit", "--M", "2", "--N", "3", "--p", "20000", "--method",
                              "binomial", "--budget", str(10001 * 1725 - 1)], capsys)
    assert code == 3 and out == ""
    assert "random-walk moment recurrence at N=3 needs ~1.725e+07" in err


def test_binomial_route_answers_p_20000_at_n_3(capsys):
    # under the default budget; the value has about 15 600 digits, past the
    # interpreter's int-to-str limit, which main lifts for the values it prices
    code, out, err = run_cli(
        ["limit", "--M", "2", "--N", "3", "--p", "20000", "--method", "binomial"], capsys)
    assert code == 0, err
    (row,) = parse_csv(out)
    assert 0 < float(row["value_float"]) < limits.delta_m2_float(3, 19998)


def test_limit_three_methods(capsys):
    code, out, _ = run_cli(
        ["limit", "--M", "2", "--N", "2", "--p", "3",
         "--method", "direct,partition,binomial"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert [r["value"] for r in rows] == ["5/8"] * 3


def test_limit_decomposition_report(capsys):
    code, out, _ = run_cli(
        ["limit", "--M", "3", "--N", "3", "--p", "4",
         "--report", "decomposition"], capsys)
    assert code == 0
    rows = parse_csv(out)
    scalar = Fraction(rows[0]["value"])
    total = [r for r in rows if r["method"] == "st-total"]
    assert len(total) == 1 and Fraction(total[0]["value"]) == scalar
    parts = [Fraction(r["value"]) for r in rows if r["method"].startswith("st[")]
    assert sum(parts) == scalar


def test_limit_bound_not_cross_checked(capsys):
    code, out, _ = run_cli(
        ["limit", "--M", "3", "--N", "3", "--p", "4",
         "--method", "partition,bound"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert Fraction(rows[0]["value"]) <= Fraction(rows[1]["value"])


def test_converge_large_r_max(capsys):
    code, out, _ = run_cli(
        ["converge", "--M", "2", "--N", "2", "--p", "10", "--r-max", "30"], capsys)
    assert code == 0
    direct = {int(r["r"]): Fraction(r["value"]) for r in parse_csv(out)
              if r["method"] == "direct"}
    assert sorted(direct) == list(range(1, 31))


@pytest.mark.parametrize("r_max", ["0", "-3"])
def test_converge_nonpositive_r_max_exit_code(r_max, capsys):
    code, out, err = run_cli(
        ["converge", "--M", "2", "--N", "2", "--p", "3", "--r-max", r_max], capsys)
    assert code == 2 and out == ""
    assert "r_max must be a positive integer" in err


def test_converge_gap_column(capsys):
    code, out, _ = run_cli(
        ["converge", "--M", "2", "--N", "2", "--p", "4", "--r-max", "8"], capsys)
    assert code == 0
    rows = parse_csv(out)
    gaps = {int(r["r"]): Fraction(r["value"]) for r in rows if r["method"] == "gap"}
    for r in range(2, 9):
        assert 0 <= gaps[r] <= Fraction(1, 2**(r - 1))
    direct = {int(r["r"]): r["value"] for r in rows if r["method"] == "direct"}
    assert direct[1] == "1/1"


def test_mc_records_deterministic(capsys):
    argv = ["mc", "--kind", "model", "--M", "2", "--N", "2", "--p", "2",
            "--r", "2", "--samples", "300", "--seed", "7"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert mask_runtime(parse_csv(out1)) == mask_runtime(parse_csv(out2))
    row = parse_csv(out1)[0]
    assert row["method"] == "mc-model" and row["seed"] == "7"
    assert abs(float(row["z"])) < 6
    assert float(row["std_error"]) > 0


def test_mc_model_beyond_count_budget(capsys):
    # no exact count fits the budget: the estimate stands alone, and it is
    # finite although the moment is about 4^299
    code, out, _ = run_cli(
        ["mc", "--kind", "model", "--M", "2", "--N", "2", "--p", "300", "--r", "2",
         "--samples", "2", "--seed", "1"], capsys)
    assert code == 0
    row = parse_csv(out)[0]
    assert row["z"] == ""
    assert math.isfinite(float(row["value_float"]))
    assert math.isfinite(float(row["std_error"]))


def test_mc_exact_moment_past_the_float_range(capsys, monkeypatch):
    # at r = 1 the exact moment is 4^599, past the float range; the estimator,
    # whose samples overflow first, is stubbed to a finite estimate
    monkeypatch.setattr(model, "mc_estimate_c", lambda *args: model.McEstimate(1.0, 0.5))
    code, out, err = run_cli(
        ["mc", "--kind", "model", "--M", "2", "--N", "2", "--p", "600", "--r", "1",
         "--samples", "2", "--seed", "1"], capsys)
    assert code == 2 and out == ""
    assert "the exact moment is past the float range" in err


def test_mc_gram_budget_exit_code(capsys):
    argv = ["mc", "--kind", "gram", "--M", "2", "--N", "2", "--p", "3",
            "--samples", "100", "--seed", "1"]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    code, _, err = run_cli(argv + ["--budget", "100"], capsys)
    assert code == 3 and "100 gram samples at (2,2,3)" in err


def test_mc_model_prices_every_sample(capsys):
    # the gate prices every sample: 400 000 samples at (3,3,3,3), each of
    # 9 * 27^3 + 9 * 27^2 * 9 = 236 196 operations in the block loop beside its
    # draws and values G, are refused at once; priced by one sample's loop,
    # they were admitted and ran for about 17 minutes
    start = time.perf_counter()
    code, out, err = run_cli(
        ["mc", "--kind", "model", "--M", "3", "--N", "3", "--p", "3", "--r", "3",
         "--samples", "400000", "--seed", "1"], capsys)
    assert code == 3 and out == ""
    assert "400000 samples of the trace statistic needs ~9.573e+10" in err
    assert time.perf_counter() - start < 1.0


def test_mc_gram_long_p(capsys):
    code, out, _ = run_cli(
        ["mc", "--kind", "gram", "--M", "2", "--N", "2", "--p", "600",
         "--samples", "2", "--seed", "1"], capsys)
    assert code == 0
    row = parse_csv(out)[0]
    assert math.isfinite(float(row["value_float"]))


def test_mc_gram_z_column(capsys):
    code, out, _ = run_cli(
        ["mc", "--kind", "gram", "--M", "2", "--N", "3", "--p", "3",
         "--samples", "1000", "--seed", "7"], capsys)
    assert code == 0
    row = parse_csv(out)[0]
    assert row["method"] == "mc-gram"
    assert abs(float(row["z"])) < 6


# At min(M, N) = 1 every sample is the moment itself: the phases only
# rescale rows of a Fourier matrix. A spread made of rounding would read
# z = -19.4 and -3.64 at the first two, and the last moment, 2^39, is
# off by about 1.5e-3 in floats.
EXACT_MC_COMMANDS = [
    ["mc", "--kind", "gram", "--M", "3", "--N", "1", "--p", "4", "--samples", "200", "--seed", "1"],
    ["mc", "--kind", "model", "--M", "2", "--N", "1", "--p", "6", "--r", "6",
     "--samples", "50", "--seed", "1"],
    ["mc", "--kind", "model", "--M", "1", "--N", "3", "--p", "3", "--r", "3",
     "--samples", "50", "--seed", "1"],
    ["mc", "--kind", "model", "--M", "1", "--N", "2", "--p", "40", "--r", "3",
     "--samples", "5", "--seed", "1"],
]


@pytest.mark.parametrize("argv", EXACT_MC_COMMANDS)
def test_mc_reports_no_spread_where_every_sample_is_exact(argv, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    row = parse_csv(out)[0]
    assert (row["std_error"], row["z"]) == ("0.0", "0.0"), row


def test_asymptotic_error_column_decreases(capsys):
    code, out, _ = run_cli(
        ["asymptotic", "--t", "1", "--p", "3", "--N", "4,8,16"], capsys)
    assert code == 0
    errors = [float(r["z"]) for r in parse_csv(out)]
    assert errors[0] > errors[1] > errors[2]


def test_estimate_commands(capsys):
    code, out, _ = run_cli(["estimate", "--kind", "rs", "--N", "2", "--k", "500"], capsys)
    assert code == 0
    assert abs(float(parse_csv(out)[0]["z"]) - 1) < 0.01
    code, out, _ = run_cli(["estimate", "--kind", "decay", "--N", "2", "--p", "2000"], capsys)
    assert code == 0
    assert abs(float(parse_csv(out)[0]["z"]) - 1) < 0.03


TEN_20 = str(10**20)
# Admitted by the bytes of their values alone, these would run for about
# 20 minutes; the gates price each draw.
DRAWS_OVER_BUDGET = [
    ["mc", "--kind", "gram", "--M", "2", "--N", "2", "--p", "3", "--samples", str(10**8),
     "--seed", "1"],
    ["mc", "--kind", "model", "--M", "2", "--N", "2", "--p", "2", "--r", "2",
     "--samples", str(10**8), "--seed", "1"],
]


TEN_400 = str(10**400)
# Each is over the budget before its estimate, or the integers it prices,
# can be formed: priced from a logarithm or by bit lengths. The last three
# are priced before their arrays are formed: about 9 minutes of gram
# samples, the 1 GB of F_N at N = 8000, and 1.7 GB of four-phase products
# and values G at M = 300.
PRICED_BEFORE_FORMED = [
    ["truncated", "--M", TEN_400, "--N", "3", "--p", "2", "--r", "2"],
    ["mc", "--kind", "model", "--M", str(10**18), "--N", "5", "--p", str(10**6),
     "--r", TEN_400, "--samples", "1", "--seed", "1", "--budget", "1000"],
    ["estimate", "--kind", "decay", "--N", "2", "--p", str(10**9)],
    ["estimate", "--kind", "decay", "--N", "3", "--p", TEN_400],
    # delta = 1, so every rung prints and all 10^400 are priced
    ["converge", "--M", "1", "--N", "5", "--p", "3", "--r-max", TEN_400],
    ["mc", "--kind", "gram", "--M", "300", "--N", "2", "--p", "1000000", "--samples", "8000",
     "--seed", "1"],
    ["mc", "--kind", "model", "--M", "2", "--N", "8000", "--p", "2", "--r", "1", "--samples", "2",
     "--seed", "1"],
    ["mc", "--kind", "model", "--M", "300", "--N", "2", "--p", "2", "--r", "1", "--samples", "1",
     "--seed", "1"],
]
# At p = 1 every value is 1, answered before any price: no power of r is formed.
ANSWERED_AS_ONE = [
    ["truncated", "--M", "3", "--N", "5", "--p", "1", "--r", str(10**9), "--method", "beta",
     "--budget", "1"],
    ["truncated", "--M", "3", "--N", "5", "--p", "1", "--r", str(10**9)],
]
# The moment (MN)^(p-1) d >= 4^599 / 2 is past the float range, so the samples
# overflow and no estimate is formed: at r = 1 the exact moment is 4^599,
# and at r = 2 the exact count is over the budget, which left a nan estimate.
MOMENTS_PAST_THE_FLOAT_RANGE = [
    ["mc", "--kind", "model", "--M", "2", "--N", "2", "--p", "600", "--r", r, "--samples", "2",
     "--seed", "1"] for r in ("1", "2")]


def _run_module(argv):
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, "-m", "fouriermoments.cli", *argv],
                          capture_output=True, text=True, timeout=10,
                          env={**os.environ, "PYTHONPATH": str(src)})


@functools.cache
def _startup_seconds() -> float:
    """The best of 3 runs of `--version`: start-up, the imports and no work."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _run_module(["--version"])
        times.append(time.perf_counter() - start)
    return min(times)


@pytest.mark.parametrize("argv", [
    ["estimate", "--kind", "decay", "--N", "1000", "--p", "10"],
    ["estimate", "--kind", "rs", "--N", "2000", "--k", "3"],
    ["estimate", "--kind", "decay", "--N", str(10**290), "--p", "10"],
    ["estimate", "--kind", "decay", "--N", str(10**309), "--p", "10"],
    ["estimate", "--kind", "rs", "--N", "2", "--k", str(10**7)],
    ["estimate", "--kind", "rs", "--N", "2", "--k", TEN_20],
    ["truncated", "--M", "1", "--N", "5", "--p", TEN_20, "--r", "2"],
    ["limit", "--M", "1", "--N", "7", "--p", TEN_20, "--method", "direct"],
    ["truncated", "--M", "2", "--N", "2", "--p", str(10**8), "--r", "2"],
    ["truncated", "--M", "2", "--N", "2", "--p", TEN_20, "--r", "2"],
    ["truncated", "--M", "2", "--N", "2", "--p", str(10**7), "--r", "2", "--method", "alpha"],
    ["truncated", "--M", "2", "--N", "2", "--p", "3", "--r", "2", "--threads", "2"],
    ["estimate", "--kind", "rs", "--N", "3", "--k", str(10**400)],
    ["estimate", "--kind", "decay", "--N", str(10**300), "--p", "100000"],
    ["estimate", "--kind", "decay", "--N", "1000", "--p", "1000000"],
    ["mc", "--kind", "gram", "--M", TEN_20, "--N", "2", "--p", "3", "--samples", "2", "--seed", "1"],
    ["mc", "--kind", "model", "--M", "2", "--N", "2", "--p", "2", "--r", "2",
     "--samples", str(10**12), "--seed", "1"],
    ["mc", "--kind", "gram", "--M", "2", "--N", "2", "--p", "3", "--samples", str(10**12),
     "--seed", "1"],
    # a frame of 2 min(p, r) + 3 unit axes would pass numpy's 64
    ["mc", "--kind", "model", "--M", "1", "--N", "1", "--p", "40", "--r", "40", "--samples", "3",
     "--seed", "1"],
    *DRAWS_OVER_BUDGET,
    *PRICED_BEFORE_FORMED,
    *ANSWERED_AS_ONE,
    *MOMENTS_PAST_THE_FLOAT_RANGE,
])
def test_huge_arguments_end_in_an_exit_code(argv):
    # in a subprocess, numpy's overflow RuntimeWarning is a warning, not an error;
    # the bound is on the time past the interpreter's start-up
    start = time.perf_counter()
    done = _run_module(argv)
    assert time.perf_counter() - start < _startup_seconds() + 1.0
    expected = ((3,) if argv in DRAWS_OVER_BUDGET + PRICED_BEFORE_FORMED else
                (0,) if argv in ANSWERED_AS_ONE else
                (2,) if argv in MOMENTS_PAST_THE_FLOAT_RANGE else (0, 2, 3))
    assert done.returncode in expected, done.stderr
    assert "Traceback" not in done.stderr
    if argv in MOMENTS_PAST_THE_FLOAT_RANGE:
        assert "error: the sampled moment is past the float range" in done.stderr


@pytest.mark.parametrize("argv", ANSWERED_AS_ONE)
def test_values_of_one_are_answered_at_any_r(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    assert [row["value"] for row in parse_csv(out)] == ["1/1"]


@pytest.mark.parametrize("argv", [
    # 14 000 rungs print 150 MB, formatting integers of up to 4200 digits
    ["converge", "--M", "2", "--N", "2", "--p", "3", "--r-max", "14000"],
    # each rung forms integers of size M^(r+2)
    ["converge", "--M", "3", "--N", "12", "--p", "2", "--r-max", "30000"],
    # values stay 1 and small, but 10^5 rungs of fixed work took 4.3 s
    ["converge", "--M", "1", "--N", "2", "--p", "1", "--r-max", "10000000"],
])
def test_long_converge_ladders_end_at_once(argv):
    src = Path(__file__).resolve().parents[1] / "src"
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "fouriermoments.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert time.perf_counter() - start < 2.0
    assert done.returncode in (2, 3) and done.stdout == "", done.stderr


def test_converge_ladder_of_ones_is_answered(capsys):
    # at p = 1 every value is 1 (the gap 0), one bit each; only the rungs'
    # fixed work is priced
    code, out, err = run_cli(["converge", "--M", "3", "--N", "12", "--p", "1",
                              "--r-max", "30000"], capsys)
    assert code == 0, err
    rows = parse_csv(out)
    assert len(rows) == 4 * 30000
    assert {row["value"] for row in rows} == {"1/1", "0/1"}


def _run_beta_at(M, *argv):
    src = Path(__file__).resolve().parents[1] / "src"
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "fouriermoments.cli", "truncated",
                           "--M", str(M), "--N", "3", "--p", "4", "--r", "2",
                           "--method", "beta", *argv],
                          capture_output=True, text=True, timeout=10,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert time.perf_counter() - start < 2.0
    assert done.returncode == 0, done.stderr


def test_beta_at_a_huge_prime_M_is_answered_at_once():
    _run_beta_at(2**61 - 1, "--budget", "100000")


def test_beta_alone_is_not_cross_checked():
    # Past the Miller-Rabin bound, deciding that M is prime is a trial
    # division over the budget; with no direct count to compare with,
    # closed_form_is_exact is not asked.
    _run_beta_at(2**89 - 1)


def test_json_format(capsys):
    code, out, _ = run_cli(
        ["limit", "--M", "2", "--N", "2", "--p", "2", "--format", "json"], capsys)
    assert code == 0
    records = json.loads(out)
    assert records[0]["value"] == "3/4"
    assert set(records[0]) == set(CSV_HEADER)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "records.csv"
    code, out, _ = run_cli(
        ["limit", "--M", "2", "--N", "2", "--p", "2", "--out", str(target)], capsys)
    assert code == 0 and out == ""
    assert parse_csv(target.read_text())[0]["value"] == "3/4"


def test_cache_roundtrip(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    argv = ["limit", "--M", "3", "--N", "2", "--p", "4", "--method", "direct",
            "--cache", cache_dir]
    code1, out1, err1 = run_cli(argv, capsys)
    assert code1 == 0 and "cache hit" not in err1
    code2, out2, err2 = run_cli(argv, capsys)
    assert code2 == 0 and "cache hit" in err2
    assert mask_runtime(parse_csv(out1)) == mask_runtime(parse_csv(out2))
    for entry in (tmp_path / "cache").iterdir():
        entry.unlink()
    code3, out3, err3 = run_cli(argv, capsys)
    assert code3 == 0 and "cache hit" not in err3
    assert mask_runtime(parse_csv(out1)) == mask_runtime(parse_csv(out3))


RACE = """
import os, sys, time
from fractions import Fraction
from fouriermoments.cli import Cache
cache, barrier, me = Cache(sys.argv[1]), sys.argv[2], sys.argv[3]
open(os.path.join(barrier, me), "w").close()
deadline = time.monotonic() + 30
while len(os.listdir(barrier)) < 2 and time.monotonic() < deadline:  # store together
    time.sleep(0.001)
for i in range(300):
    cache.store(("delta:direct", 3, 3, 5, None), Fraction(i, 7))
"""


def test_concurrent_stores_of_one_key_leave_whole_entries(tmp_path):
    # each store used to write through the one name path + ".tmp", so one
    # writer's rename took the other's file away (FileNotFoundError)
    cache_dir, barrier = tmp_path / "cache", tmp_path / "barrier"
    barrier.mkdir()
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    writers = [subprocess.Popen([sys.executable, "-c", RACE, str(cache_dir), str(barrier), me],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                env=env) for me in "ab"]
    for writer in writers:
        out, err = writer.communicate(timeout=60)
        assert writer.returncode == 0 and out == err == "", err
    entries = list(cache_dir.iterdir())
    assert len(entries) == 1 and entries[0].suffix == ".json"
    for entry in entries:
        doc = json.loads(entry.read_text())
        assert doc["value"] in {f"{i // math.gcd(i, 7)}/{7 // math.gcd(i, 7)}"
                                for i in range(300)}


def test_a_failed_store_warns_and_keeps_the_value(tmp_path, capsys, monkeypatch):
    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", refuse)
    cache_dir = tmp_path / "cache"
    code, out, err = run_cli(["limit", "--M", "2", "--N", "2", "--p", "2",
                              "--cache", str(cache_dir)], capsys)
    assert code == 0 and [row["value"] for row in parse_csv(out)] == ["3/4"]
    assert "warning: cache entry not stored: disk full" in err
    assert not any(cache_dir.iterdir())  # nor a temporary file left behind


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV_VAR, str(tmp_path / "envcache"))
    argv = ["limit", "--M", "2", "--N", "2", "--p", "3", "--method", "partition"]
    run_cli(argv, capsys)
    _, _, err = run_cli(argv, capsys)
    assert "cache hit" in err


def test_cache_ignores_stale_version(tmp_path, capsys, monkeypatch):
    cache_dir = str(tmp_path / "cache")
    argv = ["limit", "--M", "2", "--N", "2", "--p", "3", "--method", "partition",
            "--cache", cache_dir]
    run_cli(argv, capsys)
    monkeypatch.setattr(cli, "__version__", "0.0.0-test")
    _, _, err = run_cli(argv, capsys)
    assert "cache hit" not in err


@pytest.mark.parametrize("corrupt", [
    lambda doc: ["not", "a", "dict"],
    lambda doc: {k: v for k, v in doc.items() if k != "value"},
    lambda doc: dict(doc, value="oops"),
    lambda doc: dict(doc, value="5"),
    lambda doc: dict(doc, value="5/x"),
    lambda doc: dict(doc, value="5/0"),
    lambda doc: dict(doc, value=5),
], ids=["not-a-dict", "no-value", "word", "no-slash", "non-integer",
        "zero-denominator", "not-a-string"])
def test_cache_malformed_entry_is_miss(tmp_path, capsys, corrupt):
    cache_dir = tmp_path / "cache"
    argv = ["limit", "--M", "2", "--N", "2", "--p", "3", "--method", "direct",
            "--cache", str(cache_dir)]
    run_cli(argv, capsys)
    (entry,) = cache_dir.iterdir()
    entry.write_text(json.dumps(corrupt(json.loads(entry.read_text()))))
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and "cache hit" not in err
    assert parse_csv(out)[0]["value"] == "5/8"
    assert json.loads(entry.read_text())["value"] == "5/8"
    _, _, err = run_cli(argv, capsys)
    assert "cache hit" in err


def test_readme_commands(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```sh")[1:]
    commands = [line for block in blocks for line in block.split("```")[0].splitlines()
                if line.startswith("fouriermoments ")]
    assert len(commands) == 10
    for line in commands:
        code, out, err = run_cli(shlex.split(line)[1:], capsys)
        assert code == 0, (line, err)
        assert out.splitlines()[0] == ",".join(f'"{name}"' for name in CSV_HEADER), line


KERNELS = ["numpy"] + [f"fouriermoments.{name}" for name in
                       ("partitions", "truncated", "limits", "model", "asymptotics")]
CLI_PROBE = f"KERNELS = {KERNELS!r}\n" + """
import contextlib, io, json, sys, types

def loaded(names):
    # a module the package registered lazily is no plain module until it runs
    return sorted(name for name in names if type(sys.modules.get(name)) is types.ModuleType)

import fouriermoments
registered = sorted(name for name in KERNELS if name in sys.modules)
after_package = loaded(KERNELS)
from fouriermoments import cli
after_cli = loaded(KERNELS)
timed_loads = []

def timed(fn, *args, timed=cli._timed):
    before = loaded(KERNELS)
    result = timed(fn, *args)
    timed_loads.extend(sorted(set(loaded(KERNELS)) - set(before)))
    return result

cli._timed = timed
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    timed_loads.clear()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    runs.append([code, out.getvalue(), err.getvalue(), list(timed_loads)])
print(json.dumps({"registered": registered, "package": after_package, "cli": after_cli,
                  "runs": runs, "after": loaded(KERNELS)}))
"""


def probe_cli(commands):
    """Run `commands` through `cli.main` in one fresh interpreter. Reports the
    kernel modules in sys.modules after `import fouriermoments`, those loaded
    after it, after `import fouriermoments.cli` and after the runs, and per
    run its exit code, stdout, stderr and the kernel modules loaded inside a
    timed region."""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", CLI_PROBE, json.dumps(commands)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_cache_hits_load_no_numpy(tmp_path):
    # a command answered from its cache runs the stdlib, `errors`, `closed`
    # and `cli` alone, in a fresh interpreter, and prints what the cold run did
    commands = [
        ["truncated", "--M", "2", "--N", "2", "--p", "3", "--r", "2", "--method", "direct,beta"],
        ["limit", "--M", "2", "--N", "2", "--p", "3", "--method", "direct,partition,binomial"],
        ["converge", "--M", "2", "--N", "2", "--p", "4", "--r-max", "8"],
    ]
    commands = [argv + ["--cache", str(tmp_path / "cache")] for argv in commands]
    cold = probe_cli(commands)["runs"]
    warm = probe_cli(commands)
    assert warm["package"] == warm["cli"] == warm["after"] == []
    # every module is registered unexecuted, so sys.modules names each one
    assert warm["registered"] == sorted(KERNELS[1:])
    for argv, (code, out, _, _), (warm_code, warm_out, warm_err, _) in zip(
            commands, cold, warm["runs"]):
        assert warm_code == code == 0, (argv, warm_err)
        assert "# cache hit" in warm_err, argv
        assert mask_runtime(parse_csv(warm_out)) == mask_runtime(parse_csv(out)), argv


def test_runtime_ms_times_the_kernel_after_its_import():
    # each README command, cold in one fresh interpreter, imports its kernel
    # before the clock starts, so the first route's runtime_ms is its work alone
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = [shlex.split(line)[1:] for block in readme.split("```sh")[1:]
                for line in block.split("```")[0].splitlines()
                if line.startswith("fouriermoments ")]
    probe = probe_cli(commands)
    assert probe["after"] == sorted(KERNELS)
    for argv, (code, _, err, timed_loads) in zip(commands, probe["runs"]):
        assert code == 0, (argv, err)
        assert timed_loads == [], argv


# Boundary values of the exit-code contract: a negative, zero, small primes
# and composites, and sizes near int64's top and past the float range.
FUZZ_VALUES = [-1, 0, 1, 2, 3, 4, 6, 7, 40, 10**6, 10**18, 10**400]
# Each subcommand's integer options; asymptotic's --N is a comma list.
FUZZ_COMMANDS = {
    ("truncated",): ("--M", "--N", "--p", "--r"),
    ("limit",): ("--M", "--N", "--p"),
    ("converge",): ("--M", "--N", "--p", "--r-max"),
    ("mc", "--kind", "model"): ("--M", "--N", "--p", "--r", "--samples", "--seed"),
    ("mc", "--kind", "gram"): ("--M", "--N", "--p", "--samples", "--seed"),
    ("asymptotic",): ("--t", "--p", "--N"),
    ("estimate", "--kind", "decay"): ("--N", "--p"),
    ("estimate", "--kind", "rs"): ("--N", "--k"),
}
FUZZ_METHODS = {"truncated": ("direct", "alpha", "beta", "d42"),
                "limit": ("direct", "partition", "binomial", "bound")}


def _fuzz_argv(rng, command, options, option, value):
    """One call of `command`: `option` at `value`, every other option at a
    boundary value, a method list where the command takes one, and the
    contract's largest budget, 10^6, which admits the most work."""
    argv = list(command)
    for name in options:
        chosen = value if name == option else rng.choice(FUZZ_VALUES)
        if name == "--N" and command == ("asymptotic",):
            chosen = ",".join(map(str, [chosen] + rng.sample(FUZZ_VALUES, rng.randrange(3))))
        argv += [name, str(chosen)]
    if command[0] in FUZZ_METHODS:
        methods = FUZZ_METHODS[command[0]]
        argv += ["--method", ",".join(rng.sample(methods, rng.randrange(1, len(methods) + 1)))]
    return argv + ["--budget", str(10**6)]


class _Stall(BaseException):
    """Raised by the alarm: main turns an OSError, TimeoutError among them,
    into exit 2, and no handler catches a BaseException."""


def test_fuzzed_commands_end_in_an_exit_code(capsys, monkeypatch):
    # every subcommand with every boundary value in each of its options, the
    # others drawn by a seeded generator: each call ends in 0, 2, 3 or 4, in
    # process and within the alarm, never in a traceback or a stall. This
    # seed draws `converge --M 1 --N 4 --p 2 --r-max 1000000`, whose rungs
    # are small: only their fixed work's price refuses it at once
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    rng = random.Random(16)

    def stall(signum, frame):
        raise _Stall("the call ran past its alarm")

    calls = [_fuzz_argv(rng, command, options, option, value)
             for command, options in FUZZ_COMMANDS.items()
             for option in options for value in FUZZ_VALUES]
    previous = signal.signal(signal.SIGALRM, stall)
    try:
        for argv in calls + [argv + ["--budget", str(10**6)] for argv in EXACT_MC_COMMANDS]:
            signal.setitimer(signal.ITIMER_REAL, 3.0)
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses a malformed option
                code = exc.code
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            out = capsys.readouterr().out
            assert code in (0, 2, 3, 4), shlex.join(argv)
            # an estimate at a unit side is exact: no spread, and no z but 0
            row = parse_csv(out)[0] if code == 0 and argv[0] == "mc" else None
            if row and min(int(row["M"]), int(row["N"])) == 1:
                assert row["std_error"] == "0.0" and row["z"] in ("0.0", ""), shlex.join(argv)
    finally:
        signal.signal(signal.SIGALRM, previous)
