"""Spans recorded by the benchmark around its own calls into liesys.

A span is (name, tag, start, end, parent, op id).  Spans are kept in memory
and written out once, when the run ends.  Nothing here patches liesys: the
workloads open a span around each call they make into a module's public
functions, so a span's layer is the module named before the first dot.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

LAYERS = ("expr", "geometry", "algebra", "dynamics", "superposition", "group",
          "pde", "catalog", "cli", "report")
BENCH_LAYER = "bench"


class _Span:
    __slots__ = ("name", "tag", "start", "end", "parent", "op", "_tracer")

    def __init__(self, tracer, name, tag, parent, op):
        self._tracer = tracer
        self.name, self.tag, self.parent, self.op = name, tag, parent, op
        self.start = self.end = 0.0

    def __enter__(self):
        self._tracer._stack.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = perf_counter()
        self._tracer._stack.pop()
        return False

    @property
    def elapsed(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        head = self.name.split(".", 1)[0]
        return head if head in LAYERS else BENCH_LAYER


class Tracer:
    """Records spans and per-layer samples (counts taken from return values).

    `scale` maps an operation id to the factor that converts its wall time
    to reference-speed time (see harness.calibrate); times are reported
    scaled, counts as they are."""

    enabled = True

    def __init__(self):
        self.spans: list[_Span] = []
        self.samples: dict[str, list[tuple[str, float, bool]]] = {}
        self.scale: dict[str, float] = {}
        self._stack: list[_Span] = []
        self.op = "setup"

    def span(self, name: str, tag: str | None = None) -> _Span:
        parent = self._stack[-1] if self._stack else None
        s = _Span(self, name, tag, parent, self.op)
        self.spans.append(s)
        return s

    def sample(self, name: str, value: float, time: bool = False) -> None:
        """Record a per-layer value; `time=True` marks it as a time to scale."""
        self.samples.setdefault(name, []).append((self.op, float(value), time))

    # -- aggregation ----------------------------------------------------------

    def _scaled(self, s: _Span) -> float:
        return s.elapsed * self.scale.get(s.op, 1.0)

    def span_medians_ms(self) -> dict[str, float]:
        """Median scaled duration per span key `<name>_ms[.<tag>]`, in ms."""
        durations: dict[str, list[float]] = {}
        for s in self.spans:
            key = f"{s.name}_ms" + (f".{s.tag}" if s.tag else "")
            durations.setdefault(key, []).append(self._scaled(s) * 1e3)
        return {k: statistics.median(v) for k, v in durations.items()}

    def sample_values(self) -> dict[str, list[float]]:
        return {name: [v * self.scale.get(op, 1.0) if time else v for op, v, time in rows]
                for name, rows in self.samples.items()}

    def self_seconds_by_layer(self, roots: list[_Span]) -> dict[str, float]:
        """Scaled self time (duration minus the time covered by child spans)
        summed per layer over the given root spans and everything under them."""
        covered: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                covered[id(s.parent)] = covered.get(id(s.parent), 0.0) + self._scaled(s)
        inside = {id(r) for r in roots}
        totals = {layer: 0.0 for layer in LAYERS + (BENCH_LAYER,)}
        for s in self.spans:  # parents are recorded before their children
            if id(s) in inside or (s.parent is not None and id(s.parent) in inside):
                inside.add(id(s))
                totals[s.layer] += self._scaled(s) - covered.get(id(s), 0.0)
        return totals

    def dump(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            {"name": s.name, "tag": s.tag, "start": s.start, "end": s.end,
             "parent": None if s.parent is None else index[id(s.parent)], "op": s.op}
            for s in self.spans
        ]
        path.write_text(json.dumps({"spans": rows, "scale": self.scale,
                                    "samples": self.samples}) + "\n")


class _NoSpan:
    __slots__ = ()
    elapsed = 0.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class NullTracer:
    """Tracing off: spans and samples cost one method call and record nothing."""

    enabled = False
    op = None

    def span(self, name: str, tag: str | None = None) -> _NoSpan:
        return _NO_SPAN

    def sample(self, name: str, value: float, time: bool = False) -> None:
        pass


NULL = NullTracer()
