"""Closed-loop measurement shared by the workloads.

One client runs a fixed cycle of operations; the next operation starts only
after the previous one has returned and been checked.  A run does a whole
number of cycles, derived from --seconds and the workload's nominal cycle
time, so every commit measures the same operations and the tail percentile
always refers to the same rank.

Times are reported at a reference CPU speed: each measured interval is
scaled by a calibration kernel timed around it and, on a timer signal,
every half second during it.
"""

from __future__ import annotations

import gc
import importlib
import math
import resource
import signal
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Callable

import numpy as np

from tracing import BENCH_LAYER, LAYERS, NULL, Tracer

SETUP_REPEATS = 9
REFERENCE_S = 0.003  # calibration kernel time at the reference speed
SAMPLE_EVERY_S = 0.5  # calibration period during a long operation


@dataclass
class Outcome:
    """What one operation returned, reduced to what the benchmark checks.

    `facts` holds counts and verdicts; they must repeat exactly for the same
    inputs.  `failures` lists every mismatch with the expected answer.
    `accuracy` holds numerical errors, aggregated by their maximum."""

    facts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)

    def expect(self, name: str, got, want) -> None:
        self.facts[name] = got
        if got != want:
            self.failures.append(f"{name}: got {got!r}, expected {want!r}")

    def expect_below(self, name: str, value: float, limit: float) -> None:
        if not value <= limit:
            self.failures.append(f"{name}: {value:.3g} exceeds {limit:.3g}")


@dataclass
class Op:
    kind: str
    label: str
    run: Callable  # (tracer) -> Outcome


def load_liesys():
    """Import liesys afresh (dropping any earlier import) and return its
    modules by layer name.  Import cost is part of set-up time."""
    for name in [m for m in sys.modules if m == "liesys" or m.startswith("liesys.")]:
        del sys.modules[name]
    importlib.import_module("liesys")
    return {layer: importlib.import_module(f"liesys.{layer}") for layer in LAYERS}


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten samples beyond it:
    the (N-10)-th smallest of N samples.  Returns (value, percentile, N)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


@dataclass
class RunResult:
    attempted: int
    failed: int
    end_to_end: dict
    per_layer: dict
    notes: list


def _kernel() -> float:
    """Fixed work in the mix liesys runs: rational and float arithmetic,
    dict updates, calls and small numpy arrays."""
    total, table, x = Fraction(0), {}, 0.0
    vec = np.zeros(3)
    for i in range(1, 300):
        total += Fraction(i % 13 + 1, i % 7 + 2)
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + i
        x += math.sin(i * 0.01) * 1.5 + i / 3.0
        vec = vec + np.array([x, 1.0, float(i)]) * 0.5
        x -= float(np.max(np.abs(vec))) * 1e-9
    return len(table) + total.denominator + x


def calibrate() -> float:
    """Seconds the calibration kernel takes now.  The garbage collector is
    paused meanwhile, so that no collection of the program's heap lands in
    the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        _kernel()
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def to_reference(kernels: list[float]) -> float:
    """Factor converting wall time to reference-speed time, from the kernel
    times taken around the measured interval (median, so one disturbed
    kernel run does not count).  The effective CPU speed of a shared
    machine drifts by tens of percent within seconds; the kernel drifts
    with it.  It shares the interpreter and CPU caches with the program,
    so a program that leaves them in another state can move it slightly."""
    return REFERENCE_S / statistics.median(kernels)


def _factors(kernels: list[float], inside: list[list[float]] | None = None) -> list[float]:
    """One factor per interval between consecutive kernel runs, from the two
    kernel runs on each side of it and the runs during it (`inside[j]`).  An
    operation of several seconds has about ten runs during it, so its factor
    follows the speed while it ran, not only at its ends."""
    return [to_reference(kernels[max(0, j - 1):j + 3] + (inside[j] if inside else []))
            for j in range(len(kernels) - 1)]


def run(workload, seed: int, seconds: int, trace: bool, workdir, trace_path=None,
        fingerprint: list | None = None) -> RunResult:
    tracer = Tracer() if trace else NULL
    cycles = max(2 if trace else 1, round(seconds / workload.NOMINAL_CYCLE_S))
    setup_wall, kernels = [], [calibrate()]
    for rep in range(SETUP_REPEATS):
        if trace:
            tracer.op = f"setup:{rep}"
        started = perf_counter()
        lib = load_liesys()
        state = workload.setup(lib, seed, tracer, workdir, cycles)
        setup_wall.append(perf_counter() - started)
        kernels.append(calibrate())
    setup_times = [w * f for w, f in zip(setup_wall, _factors(kernels))]
    if trace:
        tracer.scale.update({f"setup:{rep}": f for rep, f in enumerate(_factors(kernels))})

    wall: list[float] = []
    kernels = [calibrate()]
    inside: list[list[float]] = []  # kernel runs during each operation
    current = [NULL]

    def tick(*_):
        with current[0].span("calibrate"):
            inside[-1].append(calibrate())

    previous_handler = signal.signal(signal.SIGALRM, tick)
    traced_ops: list[tuple[int, str, bool]] = []
    roots = []
    facts: list[dict] = []
    accuracy: dict[str, float] = {}
    problems = []
    for c, cycle in enumerate(state.cycles):
        for i, op in enumerate(cycle):
            traced = trace and (i + c) % 2 == 0
            tr = tracer if traced else NULL
            if traced:
                tracer.op = f"{c}:{i}"
            root = tr.span("op", op.kind)
            current[0] = tr
            inside.append([])
            started = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
            with root:
                try:
                    outcome = op.run(tr)
                except Exception:
                    outcome = Outcome(failures=["raised " + traceback.format_exc(limit=-1).strip()])
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            wall.append(perf_counter() - started - sum(inside[-1]))
            kernels.append(calibrate())
            traced_ops.append((i, f"{c}:{i}", traced))
            if traced:
                roots.append(root)
            facts.append({"kind": op.kind, "label": op.label, "facts": outcome.facts})
            for name, value in outcome.accuracy.items():
                accuracy[name] = max(accuracy.get(name, 0.0), value)
            if outcome.failures:
                problems.append(f"[{op.kind} {op.label}] " + "; ".join(outcome.failures))
    signal.signal(signal.SIGALRM, previous_handler)
    factors = _factors(kernels, inside)
    durations = [w * f for w, f in zip(wall, factors)]  # reference-speed seconds
    per_index: dict[tuple[int, bool], list[float]] = {}
    for (i, op_id, traced), d, f in zip(traced_ops, durations, factors):
        per_index.setdefault((i, traced), []).append(d)
        if traced:
            tracer.scale[op_id] = f
    if trace:
        tracer.op = "finish"
    extras, finish_notes = workload.finish(state, tracer)
    if fingerprint is not None:
        fingerprint.extend(facts)

    value, pct, count = tail([d * 1e3 for d in durations])
    width = len(state.cycles[0])
    notes = [f"cycles: {cycles} x {width} operations; set-up repeated {SETUP_REPEATS} times; "
             f"{sum(map(len, inside))} calibration runs during operations",
             f"op_tail_ms is the p{pct:.2f} of {count} operations",
             "times are at reference speed: wall time x "
             f"{REFERENCE_S * 1e3:g} ms / calibration kernel time (median factor "
             f"{statistics.median(d / w for d, w in zip(durations, wall)):.3f}); wall time: "
             f"setup_s {statistics.median(setup_wall):.4g}, "
             f"op_p50_ms {statistics.median(wall) * 1e3:.4g}, "
             f"op_tail_ms {tail([w * 1e3 for w in wall])[0]:.4g}, "
             f"ops_per_s {_ops_per_s(wall, width, cycles):.4g}"]
    by_kind: dict[str, list[float]] = {}
    for f, d in zip(facts, durations):
        by_kind.setdefault(f["kind"], []).append(d * 1e3)
    notes.append("median ms by kind: " + ", ".join(
        f"{kind} {statistics.median(v):.1f} (x{len(v)})" for kind, v in by_kind.items()))
    notes += finish_notes + [f"FAILED {p}" for p in problems]
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": statistics.median(durations) * 1e3,
        "op_tail_ms": value,
        "ops_per_s": _ops_per_s(durations, width, cycles),
        "peak_rss_mb": _peak_rss_mb(),
        "fail_ratio": len(problems) / len(durations),
    }
    per_layer = dict(extras)
    per_layer.update(accuracy)
    if trace:
        per_layer.update(_layer_metrics(tracer, roots, per_index, width))
        if trace_path is not None:
            tracer.dump(trace_path)
    return RunResult(len(durations), len(problems), end_to_end, per_layer, notes)


def _ops_per_s(times: list[float], width: int, cycles: int) -> float:
    """Median over cycles of the cycle's operations per second."""
    return statistics.median(width / sum(times[c * width:(c + 1) * width]) for c in range(cycles))


def _layer_metrics(tracer: Tracer, roots, per_index, cycle_len: int) -> dict:
    out = dict(tracer.span_medians_ms())
    for name, values in tracer.sample_values().items():
        mean = name.endswith(("_share", "_mean"))
        out[name] = statistics.fmean(values) if mean else statistics.median(values)
    selfs = tracer.self_seconds_by_layer(roots)
    total = sum(selfs.values())
    for layer in LAYERS + (BENCH_LAYER,):
        out[f"self_share.{layer}"] = selfs[layer] / total if total else 0.0
    # each op index ran traced in some cycles and untraced in others
    traced = sum(statistics.fmean(per_index[(i, True)]) for i in range(cycle_len))
    untraced = sum(statistics.fmean(per_index[(i, False)]) for i in range(cycle_len))
    out["trace.ops_per_s_traced"] = cycle_len / traced
    out["trace.ops_per_s_untraced"] = cycle_len / untraced
    out["trace.overhead_share"] = traced / untraced - 1.0
    return out
