"""Benchmark for liesys, driven from outside through its public API.

    python3 bench/run.py --workload {cli,exact,trajectories} --seed N \
        --seconds S --trace {0,1} [--fingerprint PATH]

Run from the root of a checkout; liesys is imported from src/.  With
--trace 0 the last line of standard output is a JSON object whose metrics
are the end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
per-layer metrics, taken from spans around every call the benchmark makes
into liesys.  The lines before it list every metric by name with its unit.
--fingerprint writes every operation's counts and verdicts, for
bench/repeat_check.py.  See bench/NOTES.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli", "exact", "trajectories")


def _declared() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = lambda key: {m["name"]: m["unit"] for m in spec[key]}  # noqa: E731
    return units("end_to_end"), units("per_layer")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--fingerprint", default=None,
                        help="write every operation's counts and verdicts here (JSON)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "liesys" / "__init__.py").is_file():
        print(f"error: no liesys package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import harness  # noqa: E402  (needs the paths above)

    workload = __import__(f"w_{args.workload}")
    workdir = ROOT / ".bench_work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    end_to_end_units, per_layer_units = _declared()
    fingerprint = [] if args.fingerprint else None
    result = harness.run(workload, args.seed, args.seconds, bool(args.trace), workdir,
                         trace_path=workdir / f"trace-{args.seed}.json" if args.trace else None,
                         fingerprint=fingerprint)
    if fingerprint is not None:
        Path(args.fingerprint).write_text(
            json.dumps(fingerprint, indent=1, default=lambda v: v.item()) + "\n")  # numpy scalars

    import numpy  # noqa: E402

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; python "
          f"{platform.python_version()}, numpy {numpy.__version__}")
    for note in result.notes:
        print(note)
    print(f"fail_ratio = {result.end_to_end['fail_ratio']:.6g} "
          f"({result.failed} of {result.attempted} operations)")
    declared = per_layer_units if args.trace else end_to_end_units
    shown = dict(result.end_to_end) if not args.trace else {}
    shown.update(result.per_layer)
    for name, value in sorted(shown.items()):
        if name in end_to_end_units or name in per_layer_units:
            unit = end_to_end_units.get(name) or per_layer_units[name]
            print(f"{name} = {value:.6g} {unit}")
    metrics = {name: {"value": float(shown.get(name, 0.0)), "unit": unit}
               for name, unit in declared.items()}
    print(json.dumps({"correct": result.failed == 0, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
