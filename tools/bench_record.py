"""Record what this checkout already measures, in one JSON file.

    python tools/bench_record.py OUT.json

Run from anywhere; every run starts at the root of the checkout.  OUT.json
holds:
- `workloads`: for each workload of BENCHMARK.json, the end-to-end metrics
  of `bench/run.py --trace 0` and the per-layer metrics of `--trace 1`,
  keyed by BENCHMARK.json's names, at seed 7 and its run_seconds, each run
  as tools/bench_pairs.py runs it; a run that is not correct stops the
  recorder, and nothing is written;
- `process_s`: the wall seconds of one process, best of 5 interleaved
  rounds after compileall, for the bare interpreter, `import numpy`,
  `import liesys.cli`, and liesys commands on problem files;
- `tier1`: one timed run of the tier-1 command, with its exit code and its
  last line;
- `sloc`: tools/sloc.py's code lines of src/liesys, per module;
- `machine`: the Python version, platform, CPU count and numpy version.

Prints one line per section.  Uses the standard library only and imports
no liesys module.  One file is a record, not a comparison: a gain is
claimed on pairs of runs from tools/bench_pairs.py.
"""

from __future__ import annotations

import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
sys.path.insert(0, str(TOOLS))
import bench_pairs  # noqa: E402  (a sibling script, found through the path above)
import sloc  # noqa: E402

SEED = 7
ROUNDS = 5
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
PROCESSES = {
    "python": ["-c", "pass"],
    "import numpy": ["-c", "import numpy"],
    "import liesys.cli": ["-c", "import liesys.cli"],
    **{f"{command} riccati.json": ["-m", "liesys", command, "problems/riccati.json"]
       for command in ("closure", "m", "verify", "superpose")},
    **{f"pde {command} pde_riccati.json": ["-m", "liesys", "pde", command, "problems/pde_riccati.json"]
       for command in ("check", "solve", "superpose")},
    "examples run-all --seed 0": ["-m", "liesys", "examples", "run-all", "--seed", "0"],
}


def _wall(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """One interpreter process on argv, with src/ first on PYTHONPATH as
    the tier-1 command puts it, and its wall seconds."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": "src" + (os.pathsep + path if path else "")}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True)
    return time.perf_counter() - start, done


def _process_seconds() -> dict[str, float]:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=ROOT, check=True,
                   capture_output=True)
    best = dict.fromkeys(PROCESSES, float("inf"))
    for _ in range(ROUNDS):
        for name, argv in PROCESSES.items():
            seconds, done = _wall(argv)
            if done.returncode:
                raise SystemExit(f"{name}: exit {done.returncode}\n{done.stderr}")
            best[name] = min(best[name], seconds)
    return best


def _tier1() -> dict:
    seconds, done = _wall(TIER1)
    lines = done.stdout.strip().splitlines()
    return {"seconds": seconds, "returncode": done.returncode, "summary": lines[-1] if lines else ""}


def record() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        workloads[workload] = {}
        for section, trace in (("end_to_end", 0), ("per_layer", 1)):
            print(f"bench/run.py --workload {workload} --trace {trace}", file=sys.stderr, flush=True)
            workloads[workload][section] = bench_pairs._run(ROOT, workload, SEED, spec["run_seconds"], trace)
    print("per-process wall times", file=sys.stderr, flush=True)
    process_s = _process_seconds()
    print("tier-1", file=sys.stderr, flush=True)
    tier1 = _tier1()
    modules = sloc.module_counts(ROOT)
    return {
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "cpu_count": os.cpu_count(), "numpy": importlib.metadata.version("numpy")},
        "seed": SEED,
        "run_seconds": spec["run_seconds"],
        "workloads": workloads,
        "process_s": process_s,
        "tier1": tier1,
        "sloc": {"total": sum(modules.values()), "modules": modules},
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    doc = record()
    Path(argv[0]).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"- machine: {', '.join(f'{key} {value}' for key, value in doc['machine'].items())}")
    for workload, sections in doc["workloads"].items():
        for section, metrics in sections.items():
            print(f"- {workload} {section}: " + ", ".join(f"{k} {v:.4g}" for k, v in metrics.items()))
    print("- process_s, best of 5: " + ", ".join(f"{k} {v:.3f}" for k, v in doc["process_s"].items()))
    print(f"- tier1: {doc['tier1']['seconds']:.1f} s, exit {doc['tier1']['returncode']}, "
          f"{doc['tier1']['summary']}")
    print(f"- src/liesys code lines: {doc['sloc']['total']}; "
          + ", ".join(f"{k} {v}" for k, v in doc["sloc"]["modules"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
