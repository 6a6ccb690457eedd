"""Command-line front end: exact/Monte-Carlo moment computations, CSV/JSON
serialization, result caching, and the cross-method verification drivers.

Exit codes: 0 success, 2 parameter error or unusable output/cache path,
3 budget error, 4 cross-check failure (two exact methods disagreeing aborts
with both records printed).

At module level it imports the standard library, the package, `errors` and
`closed` alone. A route reads its kernel as `fouriermoments.<module>.<name>`
where it computes, and the package runs a module at its first read, so a
command whose values all come from the cache loads no numpy, and only `mc`
loads `model`. A route's `runtime_ms` times its kernel call alone, after
the read.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import fouriermoments

from . import __version__
from .closed import alpha, beta, c_from_d, closed_form_is_exact, d42_closed
from .errors import (DEFAULT_BUDGET, BudgetError, CrossCheckError, ParameterError, _check_budget,
                     _name, _validate_pos, budget)

CACHE_ENV_VAR = "FOURIERMOMENTS_CACHE"

CSV_HEADER = ["command", "M", "N", "p", "r", "method", "value", "value_float",
              "std_error", "z", "runtime_ms", "seed"]


@dataclass
class RunRecord:
    command: str
    method: str
    M: int | None = None
    N: int | None = None
    p: int | None = None
    r: int | None = None
    value_exact: Fraction | None = None
    value_float: float | None = None
    std_error: float | None = None
    z: float | None = None
    runtime_ms: int = 0
    seed: int | None = None

    def row(self) -> list:
        if self.value_exact is not None and self.value_float is None:
            self.value_float = float(self.value_exact)
        value = None if self.value_exact is None else _ratio_str(self.value_exact)
        return ["" if cell is None else cell for cell in (
            self.command, self.M, self.N, self.p, self.r, self.method, value,
            self.value_float, self.std_error, self.z, self.runtime_ms, self.seed)]

    def as_dict(self) -> dict:
        return dict(zip(CSV_HEADER, self.row()))


def _ratio_str(value: Fraction) -> str:
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # a term longer than the interpreter's int-to-str limit
        bits = max(abs(value.numerator), value.denominator).bit_length()
        raise ParameterError(
            f"the exact value has about {round(bits * math.log10(2))} digits, over "
            f"the limit of {sys.get_int_max_str_digits()} on printing an integer") from None


def _print_cost(value: Fraction) -> int:
    """The price of writing `value`: CPython turns an int of d digits of its
    own base into decimal in about d^2 steps, so each term costs the square
    of its digits past the first, read from its bit length. A term past the
    interpreter's int-to-str limit, which str refuses before converting,
    raises the ParameterError of printing it instead."""
    top, bottom = abs(value.numerator).bit_length(), value.denominator.bit_length()
    limit = sys.get_int_max_str_digits()
    if limit and max(top, bottom) >= limit * math.log2(10):
        _ratio_str(value)
    return (top // sys.int_info.bits_per_digit)**2 + (bottom // sys.int_info.bits_per_digit)**2


def _emit(records: list[RunRecord], fmt: str, out_path: str | None) -> None:
    _check_budget(f"writing {len(records)} records", sum(
        _print_cost(rec.value_exact) for rec in records if rec.value_exact is not None))
    if fmt == "json":
        text = json.dumps([rec.as_dict() for rec in records], indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_NONNUMERIC)
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow(rec.row())
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


class Cache:
    """One JSON document per exact value, keyed by a hash of the quantity
    key, with the engine version pinned; stale versions are recomputed."""

    def __init__(self, directory: str | None):
        self.directory = directory
        if directory:
            os.makedirs(directory, exist_ok=True)

    def _path(self, key: tuple) -> str:
        import hashlib  # it loads OpenSSL (3.6 MB resident), which only a cache needs
        digest = hashlib.sha256(json.dumps(key).encode()).hexdigest()
        return os.path.join(self.directory, digest + ".json")

    def fetch(self, key: tuple) -> Fraction | None:
        if not self.directory:
            return None
        try:  # a missing file is an OSError too
            with open(self._path(key), encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(doc, dict) or doc.get("engine_version") != __version__:
            return None
        try:
            num, den = doc["value"].split("/")
            value = Fraction(int(num), int(den))
        except (KeyError, AttributeError, ValueError, ZeroDivisionError):
            return None  # a malformed entry is a miss; the store rewrites it
        print(f"# cache hit: {key}", file=sys.stderr)
        return value

    def store(self, key: tuple, value: Fraction) -> None:
        if not self.directory:
            return
        doc = {"key": list(key), "value": _ratio_str(value),
               "engine_version": __version__}
        path = self._path(key)
        # Each writer has a temporary file of its own, so writers of one key
        # never rename each other's; the rename itself is atomic.
        tmp = f"{path}.{os.getpid()}-{os.urandom(6).hex()}.tmp"
        try:
            with open(tmp, "x", encoding="utf-8") as handle:
                json.dump(doc, handle)
            os.replace(tmp, path)
        except OSError as exc:  # the cache only saves time: the computed value stands
            print(f"warning: cache entry not stored: {exc}", file=sys.stderr)
            with contextlib.suppress(OSError):
                os.remove(tmp)


def _timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, int(round((time.perf_counter() - start) * 1000))


def _cached(cache: Cache, key: tuple, kernel, *args) -> tuple[Fraction, int]:
    """The value under `key` and the milliseconds of computing it: 0 for a
    cache hit; on a miss, `kernel()` reads the kernel, and its call on
    `args` alone is timed."""
    hit = cache.fetch(key)
    if hit is not None:
        return hit, 0
    value, ms = _timed(kernel(), *args)
    cache.store(key, value)
    return value, ms


def _delta_for(M: int, N: int, p: int, cache: Cache) -> tuple[Fraction, int]:
    return _cached(cache, ("delta:auto", M, N, p, None),
                   lambda: fouriermoments.limits.delta_exact, M, N, p)


def _d_for(M: int, N: int, p: int, r: int, cache: Cache) -> tuple[Fraction, int]:
    return _cached(cache, ("d:direct", M, N, p, r),
                   lambda: fouriermoments.truncated.count_d, M, N, p, r)


def _cross_check(records: list[RunRecord]) -> None:
    exact = [r for r in records if r.value_exact is not None]
    for other in exact[1:]:
        if other.value_exact != exact[0].value_exact:
            lines = "\n".join(str(r.as_dict()) for r in (exact[0], other))
            raise CrossCheckError(
                f"exact methods disagree:\n{lines}")


def _run_methods(command: str, routes: dict, args, **fields) -> list[RunRecord]:
    """One record per method of the comma list `args.method`; each route is
    a thunk returning the value and its milliseconds, so it reads its kernel
    only when it runs."""
    records = []
    for method in args.method.split(","):
        if method not in routes:
            raise ParameterError(f"unknown {command} method {method!r}")
        value, ms = routes[method]()
        records.append(RunRecord(command, method, M=args.M, N=args.N, p=args.p,
                                 value_exact=value, runtime_ms=ms, **fields))
    return records


def cmd_truncated(args, cache: Cache) -> list[RunRecord]:
    M, N, p, r = args.M, args.N, args.p, args.r

    def beta_route():
        delta, ms = _delta_for(M, N, p, cache)
        value, beta_ms = _timed(beta, M, N, p, r, delta)
        return value, ms + beta_ms

    def d42():
        if (p, r) != (4, 2):
            raise ParameterError("method d42 requires --p 4 --r 2")
        return _timed(d42_closed, M, N)

    records = _run_methods("truncated", {
        "direct": lambda: _d_for(M, N, p, r, cache),
        "alpha": lambda: _timed(alpha, M, N, p, r),
        "beta": beta_route,
        "d42": d42,
    }, args, r=r)
    # A closed form reproduces the direct count only where it is exact, and
    # is asked so only when a direct count is there to compare with.
    if any(rec.method == "direct" for rec in records):
        _cross_check([rec for rec in records if rec.method == "direct"
                      or closed_form_is_exact(rec.method, M, N, p, r)])
    return records


def cmd_limit(args, cache: Cache) -> list[RunRecord]:
    M, N, p = args.M, args.N, args.p
    records = _run_methods("limit", {
        "direct": lambda: _cached(cache, ("delta:direct", M, N, p, None),
                                  lambda: fouriermoments.limits.delta_direct, M, N, p),
        "partition": lambda: _cached(cache, ("delta:partition", M, N, p, None),
                                     lambda: fouriermoments.limits.delta_partition, M, N, p),
        "binomial": lambda: _cached(cache, ("delta:binomial", M, N, p, None),
                                    lambda: fouriermoments.limits.delta_binomial, M, N, p),
        "bound": lambda: _timed(fouriermoments.limits.delta_upper_bound, M, N, p),
    }, args)
    # The bound method is an upper estimate, not another route to the value.
    _cross_check([r for r in records if r.method != "bound"])
    if args.report == "decomposition":
        report, ms = _timed(fouriermoments.limits.decompose, M, N, p)
        for (s, t), contribution in sorted(report.contributions.items()):
            records.append(RunRecord("limit", f"st[{s},{t}]", M=M, N=N, p=p,
                                     value_exact=contribution, runtime_ms=ms))
        records.append(RunRecord("limit", "st-total", M=M, N=N, p=p,
                                 value_exact=report.total, runtime_ms=ms))
    return records


def cmd_converge(args, cache: Cache) -> list[RunRecord]:
    M, N, p = args.M, args.N, args.p
    _validate_pos(r_max=args.r_max)
    delta, _ = _delta_for(M, N, p, cache)
    # Where every rung surely prints, the ladder ends in _emit, so _emit's
    # price is checked as the text grows, not only after the last rung.
    whole = _check_ladder(M, N, p, args.r_max, delta) == args.r_max
    records, printed = [], 0
    # Values grow with r: stop at the first rung too long to print, not after the last.
    for r in range(1, args.r_max + 1):
        d, ms = _d_for(M, N, p, r, cache)
        b, beta_ms = _timed(beta, M, N, p, r, delta)
        common = dict(M=M, N=N, p=p, r=r, runtime_ms=ms + beta_ms)
        for method, value in (("direct", d), ("beta", b), ("delta", delta), ("gap", d - delta)):
            printed += _print_cost(value)  # raises the ParameterError of a value too long to print
            records.append(RunRecord("converge", method, value_exact=value, **common))
        if whole:
            _check_budget(f"writing {len(records)} records", printed)
    return records


def _check_ladder(M: int, N: int, p: int, r_max: int, delta: Fraction) -> int:
    """Refuse the converge ladder before its first rung, and return how many
    rungs surely print. Rung r forms four Fractions (count_d's, beta's
    product and sum, the gap) of up to b(r) = (p + r) ceil(log2 M) +
    p ceil(log2 N) + 1 bits, the bits of M^(p+r) N^p, which every value's
    denominator divides (every value lies in [0, 1]). The rungs counted are
    those that surely print: to r_max, but only while b(r) is under the
    int-to-str limit, as a longer value may stop the ladder, unless
    delta = 1, which makes every value 1. closed._check_bits prices a b-bit
    Fraction at (b / 300)^2, so the rule summed over the Fractions is the
    rule at the root of the sum of their squared bits. Each rung adds its
    fixed work, the whole price at M = 1, where b(r) stays small."""
    step = (M - 1).bit_length()  # b(r) = first + step r
    first, limit, rungs = p * (step + (N - 1).bit_length()) + 1, sys.get_int_max_str_digits(), r_max
    if limit and delta != 1:  # so M > 1 and step > 0
        rungs = min(r_max, max(0, (math.ceil(limit * math.log2(10)) - first - 1) // step))
    squares = (rungs * first**2 + first * step * rungs * (rungs + 1)
               + step**2 * rungs * (rungs + 1) * (2 * rungs + 1) // 6)
    # A rung's fixed work (cache reads, beta, four records) took about 40 us, 10^5 rungs
    # at (1, 2, 1) in 4.3 s on 2 shared x86 cores: 4 000 operations at 10^8 a second.
    _check_budget(f"converge ladder of {_name(rungs)} rungs",
                  (math.isqrt(4 * squares) // 300)**2 + 4000 * rungs)
    return rungs


def cmd_mc(args, cache: Cache) -> list[RunRecord]:
    M, N, p, r = args.M, args.N, args.p, args.r
    if args.kind == "model":
        if r is None:
            raise ParameterError("mc --kind model requires --r")
        est, ms = _timed(fouriermoments.model.mc_estimate_c, M, N, p, r, args.samples, args.seed)
    else:
        r = None
        est, ms = _timed(fouriermoments.model.mc_estimate_delta, M, N, p, args.samples, args.seed)
    record = RunRecord("mc", f"mc-{args.kind}", M=M, N=N, p=p, r=r,
                       value_float=est.mean, std_error=est.std_error,
                       runtime_ms=ms, seed=args.seed)
    try:
        if r is None:
            exact, _ = _delta_for(M, N, p, cache)
        else:
            d, _ = _d_for(M, N, p, r, cache)
            exact = c_from_d(d, M, N, p)
        exact = float(exact)
    except (BudgetError, ParameterError):
        return [record]  # estimate stands alone, no z column
    gap = record.value_float - exact
    if record.std_error == 0:  # every sample was exact: a gap is rounding or a fault
        record.z = 0.0 if abs(gap) <= 1e-9 * max(1.0, abs(exact)) else float("inf")
    else:
        record.z = gap / record.std_error
    return [record]


def cmd_asymptotic(args, cache: Cache) -> list[RunRecord]:
    report, ms = _timed(fouriermoments.asymptotics.regime_check, args.t, args.p, args.N)
    records = []
    for row in report.rows:
        records.append(RunRecord("asymptotic", "ladder", M=row.M, N=row.N,
                                 p=args.p, value_exact=row.delta,
                                 z=row.rel_error, runtime_ms=ms))
    return records


def cmd_estimate(args, cache: Cache) -> list[RunRecord]:
    if args.kind == "decay":
        law = fouriermoments.asymptotics.delta_decay_estimate
        value, ms = _timed(fouriermoments.limits.delta_m2_float, args.N, args.p)
        ref = law(args.N, args.p)
        # Past the bottom of the float range the law reads 0 and gives no ratio.
        return [RunRecord("estimate", "decay", M=2, N=args.N, p=args.p, value_float=value,
                          z=value / ref if ref else None, runtime_ms=ms)]
    law = fouriermoments.asymptotics.richmond_shallit
    value, ms = _timed(fouriermoments.limits.moment_integral, args.N, args.k)
    ref = law(args.N, args.k)
    return [RunRecord("estimate", "rs", N=args.N, p=args.k,
                      value_float=float(value), z=float(value) / ref,
                      runtime_ms=ms)]


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"not a rational number: {text!r}") from None


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma list of integers: {text!r}") from None


def _add_mnp(parser: argparse.ArgumentParser) -> None:
    for name in ("--M", "--N", "--p"):
        parser.add_argument(name, type=int, required=True)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--cache", default=None,
                        help=f"cache directory (default ${CACHE_ENV_VAR})")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="refuse exact work estimated above this many operations")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fouriermoments",
        description="Moments of the main character of deformed Fourier "
                    "matrix models, exact and Monte Carlo.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("truncated", help="truncated moments d_p^r and bounds")
    _add_mnp(tr)
    tr.add_argument("--r", type=int, required=True)
    tr.add_argument("--method", default="direct",
                    help="comma list from direct,alpha,beta,d42")
    _add_common(tr)
    tr.set_defaults(func=cmd_truncated)

    lim = sub.add_parser("limit", help="limiting moments delta_p")
    _add_mnp(lim)
    lim.add_argument("--method", default="partition",
                     help="comma list from direct,partition,binomial,bound")
    lim.add_argument("--report", choices=("decomposition",), default=None)
    _add_common(lim)
    lim.set_defaults(func=cmd_limit)

    conv = sub.add_parser("converge", help="d_p^r against its r -> infinity limit")
    _add_mnp(conv)
    conv.add_argument("--r-max", dest="r_max", type=int, required=True)
    _add_common(conv)
    conv.set_defaults(func=cmd_converge)

    mc = sub.add_parser("mc", help="Monte Carlo oracles")
    mc.add_argument("--kind", choices=("model", "gram"), required=True)
    _add_mnp(mc)
    mc.add_argument("--r", type=int, default=None)
    mc.add_argument("--samples", type=int, required=True)
    mc.add_argument("--seed", type=int, required=True)
    _add_common(mc)
    mc.set_defaults(func=cmd_mc)

    asym = sub.add_parser("asymptotic", help="proportional-regime ladders")
    asym.add_argument("--t", type=_rational, required=True,
                      help="ratio M/N (rational, e.g. 2 or 1/2)")
    asym.add_argument("--p", type=int, required=True)
    asym.add_argument("--N", type=_int_list, required=True,
                      help="comma list of N values")
    _add_common(asym)
    asym.set_defaults(func=cmd_asymptotic)

    est = sub.add_parser("estimate", help="large-argument decay estimates")
    est.add_argument("--kind", choices=("decay", "rs"), required=True)
    est.add_argument("--N", type=int, required=True)
    est.add_argument("--p", type=int, default=None)
    est.add_argument("--k", type=int, default=None)
    _add_common(est)
    est.set_defaults(func=cmd_estimate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "estimate":
        needed = {"decay": "p", "rs": "k"}[args.kind]
        if getattr(args, needed) is None:
            parser.error(f"estimate --kind {args.kind} requires --{needed}")
    try:
        cache = Cache(args.cache or os.environ.get(CACHE_ENV_VAR))
        with budget(args.budget):
            _emit(args.func(args, cache), args.format, args.out)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except CrossCheckError as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return 4
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
