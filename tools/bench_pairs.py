"""Compare two source trees on one benchmark workload, run by run in pairs.

    python tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W --seeds S1,S2,...

For each seed, runs `bench/run.py --workload W --seed S --seconds N --trace 0`
in each tree, N being the parent's BENCHMARK.json `run_seconds`; the parent
runs first in the first pair, the change in the second, and so on.  Each
run has PYTHONDONTWRITEBYTECODE=1 and PYTHONPYCACHEPREFIX set to a new
empty directory, so every module it imports is compiled from source, as
in a fresh checkout, and no run reads stale bytecode or writes any.  For
each end-to-end metric of the parent's BENCHMARK.json it prints each side's
median and quartiles, the pairs the change won (ties count for neither),
whether the change's median is worse than the parent's by more than the
metric's bound, and whether a gain may be claimed: at least ten pairs, the
change winning nine in ten of them, and medians further apart than the
parent's interquartile range.  Uses the standard library only; it edits no
file of either tree, and adds only bench/run.py's work files.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The comparison of one metric over pairs of runs: parent[i] and
    change[i] ran as pair i, and `better` is "lower" or "higher"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair, and one pair at least")
    sign = 1 if better == "lower" else -1
    p, c = quartiles(parent), quartiles(change)
    won = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    gain = sign * (p[1] - c[1])  # > 0 when the change's median is better
    return {
        "parent": p,
        "change": c,
        "won": won,
        "pairs": len(parent),
        "worse_beyond_bound": -gain > bound * abs(p[1]),
        "gain_claimed": len(parent) >= 10 and 10 * won >= 9 * len(parent) and gain > p[2] - p[0],
    }


def _run(tree: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """One bench/run.py run's metrics by name: the end-to-end ones, or with
    trace 1 the per-layer ones; a run that is not correct exits."""
    with tempfile.TemporaryDirectory() as pycache:
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": pycache}
        done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed",
                               str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                              cwd=tree, env=env, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{tree}: seed {seed}: {result['failed']} of {result['attempted']} "
                         "operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=lambda s: [int(v) for v in s.split(",")])
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(_run(trees[side], args.workload, seed, spec["run_seconds"]))
        print(f"pair {i + 1} of {len(args.seeds)} (seed {seed}, {order[0]} first) done", flush=True)
    print(f"\n{args.workload}: {len(args.seeds)} pairs; median [first quartile, third quartile]")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        s = summarize([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                      metric["better"], metric["bound"])
        (p1, p2, p3), (c1, c2, c3) = s["parent"], s["change"]
        print(f"{name} ({metric['unit']}, {metric['better']} is better): "
              f"parent {p2:.6g} [{p1:.6g}, {p3:.6g}], change {c2:.6g} [{c1:.6g}, {c3:.6g}]; "
              f"change won {s['won']} of {s['pairs']}; "
              f"worse beyond bound {metric['bound']}: {'yes' if s['worse_beyond_bound'] else 'no'}; "
              f"gain claimed: {'yes' if s['gain_claimed'] else 'no'}")
        for side in ("parent", "change"):
            print(f"  {side} runs: " + ", ".join(f"{r[name]:.6g}" for r in runs[side]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
