"""Repeat check: run each workload twice with the same seed, in two fresh
processes, and require every count and verdict to match exactly (integrator
nodes, grid sizes, Newton nodes, zero-test samples, exit codes).

    python3 bench/repeat_check.py [--seed N]

Each run does one cycle.  Exits 0 when the two runs agree on every
workload, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli", "exact", "trajectories")


def _fingerprint(workload: str, seed: int, path: Path) -> list:
    subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0", "--fingerprint", str(path)],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=900)
    return json.loads(path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    workdir = ROOT / ".bench_work"
    workdir.mkdir(exist_ok=True)
    ok = True
    for workload in WORKLOADS:
        runs = [_fingerprint(workload, args.seed, workdir / f"fingerprint-{workload}-{k}.json")
                for k in (1, 2)]
        diffs = [(a, b) for a, b in zip(*runs) if a != b]
        if len(runs[0]) != len(runs[1]):
            diffs.append(("operation count", f"{len(runs[0])} vs {len(runs[1])}"))
        print(f"{workload}: {len(runs[0])} operations, "
              + ("identical counts and verdicts" if not diffs else f"{len(diffs)} differ"))
        for a, b in diffs[:10]:
            print(f"  first run:  {a}\n  second run: {b}")
        ok = ok and not diffs
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
