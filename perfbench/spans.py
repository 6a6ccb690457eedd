"""Spans around the public `fouriermoments` functions, recorded from the
benchmark's side: each traced name is rebound, in every loaded module of
the package that holds it, to a wrapper that records a span and calls the
original. The source of the package is not touched.

A span keeps its name, start, end, parent span, self time (its duration
minus the time covered by its child spans), its arguments, and, for an
`lru_cache` function, whether the call was a cache miss. The wrapper
exposes the original `cache_info`/`cache_clear`, so cache behaviour and
its counts stay those of the untraced function.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

TRACED = {
    "truncated": ("count_d", "d42_closed"),
    "limits": ("delta_direct", "delta_partition", "epsilon", "delta_m2",
               "moment_integral", "delta_m2_float"),
    "partitions": ("triangle_pair_counts",),
    "asymptotics": ("stirling_polynomial", "regime_check"),
    "model": ("mc_estimate_c", "mc_estimate_delta", "dita_deform",
              "random_phase_matrix"),
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    self_s: float
    args: tuple
    kwargs: dict
    miss: bool | None = None

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[list] = []  # [span id, child time] per open span
        self._next_id = 0

    def wrap(self, name: str, fn):
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._open[-1][0] if self._open else None
            misses = cache_info().misses if cache_info else None
            self._open.append([span_id, 0.0])
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child = self._open.pop()
                if self._open:
                    self._open[-1][1] += end - start
                miss = cache_info().misses > misses if cache_info else None
                self.spans.append(Span(span_id, parent, name, start, end,
                                       end - start - child, args, kwargs, miss))

        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self) -> None:
        """Rebind every traced function wherever the package imported it."""
        import fouriermoments  # noqa: F401 -- imports every traced module
        holders = [m for n, m in sys.modules.items()
                   if n == "fouriermoments" or n.startswith("fouriermoments.")]
        for mod_name, names in TRACED.items():
            module = sys.modules[f"fouriermoments.{mod_name}"]
            for name in names:
                original = getattr(module, name)
                wrapper = self.wrap(f"{mod_name}.{name}", original)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def outer_time(self, name: str) -> float:
        """Total duration of the calls of `name` not nested in another call
        of the same name."""
        by_id = {s.id: s for s in self.spans}
        total = 0.0
        for span in self.named(name):
            parent = span.parent
            while parent is not None and by_id[parent].name != name:
                parent = by_id[parent].parent
            if parent is None:
                total += span.dur
        return total

    def self_time(self, name: str) -> float:
        return sum(s.self_s for s in self.named(name))
