"""List the src/liesys functions that no command and no benchmark operation
enters, and fail on one that has no stated reason to stay.

    python tools/reach.py

In one process, under sys.setprofile, it runs:

- every call of tools/cli_outputs.calls through liesys.cli.main, with the
  options that tools/cli_outputs.py adds (--json, and --csv for the commands
  that write dumps), into a temporary directory;
- `bench/run.py --workload W --seed 7 --seconds 1 --trace 1` for each
  workload.  Only a traced run calls LieSystem.velocity, and one second
  reaches the same functions as six.

Every function and method defined in src/liesys/*.py, nested ones
included, is then entered by a command, entered by the benchmark only, or
unreached.  Each function of the last two kinds needs a row that says why
it stays, in BENCH_ONLY or in REASONS.  The exit status is 1 when such a
function has no row, or when a row is stale: its function is no longer of
that kind, or no longer exists.  It prints each such name, then the
functions of the last two kinds with their reasons.  It takes about 9 s
on one Intel Xeon core with Python 3.11.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "liesys"
WORKLOADS = ("cli", "exact", "trajectories")

_PINNED = "bench/w_trajectories.py calls it, and bench/ changes only with the benchmark"
_GCD = ("the PRS fallback of the gcd: no recorded input makes the heuristic gcd "
        "give up, and the fallback is what makes gcd end")
_ORACLE = ("a helper of the oracles in TestEchelonAgainstDenseSolve and "
           "TestMinimalMAgainstVote (tests/test_algebra.py)")
# module.qualname -> why the function stays although nothing above enters it
REASONS = {
    "expr._gcd_inner": _GCD,
    "expr._prem": _GCD,
    "expr._as_univariate": _GCD,
    "expr._from_univariate": _GCD,
    "expr._content_wrt": _GCD,
    "expr._primitive_wrt": _GCD,
    "expr._padd": _GCD,
    "expr._pneg": _GCD,
    "expr.differentiate": "README names it, and tests use it as an oracle",
    "geometry.VectorField.evaluate": _ORACLE,
    "geometry.VectorField.__neg__": _ORACLE,
    "geometry.VectorField.__sub__": _ORACLE,
    "expr.ZeroDecision.__bool__": "without it `if is_zero(e):` would be true for every decision",
    "algebra.SpanResult.__bool__": "without it `if span_coefficients(...):` would always be true",
    "geometry.ProlongationDecision.__bool__": ("without it `if is_diagonal_prolongation(...):` "
                                               "would always be true"),
    "expr.Expr.__repr__": "what a failing assertion or a debugger shows of an Expr",
    "expr.Expr._render": "abstract: each node class overrides it",
    "expr.Expr._nf_compute": "abstract: each node class overrides it",
    "group._mobius_apply": ("MOBIUS.apply, the action on one point, which tests/test_group.py "
                            "checks for the group-action law; orbit_of builds the projective "
                            "vector once and takes one product per node"),
}
# module.qualname -> why the function stays although only the benchmark
# enters it (the Hermite dense output and the builders it feeds wait for a
# port of bench/w_trajectories.py to the commands' own builders)
BENCH_ONLY = {
    "dynamics.align_trajectories": _PINNED,
    "dynamics.Trajectory.t0": _PINNED + ", through align_trajectories",
    "dynamics.Trajectory.resampled": _PINNED + ", through align_trajectories",
    "dynamics.Trajectory._hermite": _PINNED + ", through resampled",
    "dynamics.fundamental_set": _PINNED,
    "group.act_solve": _PINNED,
    "superposition.derive_k": _PINNED,
    "dynamics.LieSystem.velocity": "bench/w_trajectories.py times it, in traced runs, and README names it",
    "dynamics.LieSystem._velocity": "what LieSystem.velocity calls",
    "catalog.gl_fields": "bench/w_exact.py builds its gl(n) closures from it",
    "report.validate_report": "bench/w_cli.py checks every report with it, and README names it",
}


def functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> module.qualname of every function defined in
    SRC; the first line is that of the first decorator, as in co_firstlineno."""
    found = {}

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                found[(str(path), min([child.lineno] + [d.lineno for d in child.decorator_list]))] = name
                visit(child, path, f"{name}.<locals>.")
            else:
                visit(child, path, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, f"{path.stem}.")
    return found


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cli_calls() -> None:
    """Every recorded CLI call, in process; a --help call exits after printing."""
    cli_outputs = _load("cli_outputs", ROOT / "tools" / "cli_outputs.py")
    sys.path.insert(0, str(ROOT / "src"))
    from liesys import cli

    with tempfile.TemporaryDirectory() as out:
        for name, argv in cli_outputs.calls(ROOT):
            dumps = Path(out) / name
            dumps.mkdir()
            try:
                cli.main(argv + cli_outputs.output_options(argv, Path(out) / f"{name}.json", dumps))
            except SystemExit:
                if "--help" not in argv:
                    raise


def _bench_runs() -> None:
    """One traced second of each workload."""
    bench_run = _load("bench_run", ROOT / "bench" / "run.py")
    for workload in WORKLOADS:
        bench_run.main(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1"])


def _entered(run) -> set[tuple[str, int]]:
    """(file, first line) of every Python function that run() enters."""
    entered = set()

    def profile(frame, event, _arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sink = io.StringIO()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            run()
    finally:
        sys.setprofile(None)
    return {(str(Path(f).resolve()), line) for f, line in entered}


def _check(table: dict, kept: list[str], names: set[str], what: str) -> bool:
    """Print the functions of `kept` without a row in `table`, and the rows
    of `table` that are stale; whether there is none of either."""
    missing = [name for name in kept if name not in table]
    stale = sorted(name for name in table if name not in kept)
    for name in missing:
        print(f"{what}, with no reason: {name}")
    for name in stale:
        print(f"stale reason: {name} " + (f"is no longer {what}" if name in names else "no longer exists"))
    return not missing and not stale


def main() -> int:
    os.chdir(ROOT)  # problem files are named relative to the checkout
    by_cli = _entered(_cli_calls)
    by_bench = _entered(_bench_runs)
    defined = functions()
    names = set(defined.values())
    unreached = sorted(name for key, name in defined.items() if key not in by_cli | by_bench)
    bench_only = sorted(name for key, name in defined.items() if key in by_bench - by_cli)
    ok = _check(REASONS, unreached, names, "unreached")
    ok = _check(BENCH_ONLY, bench_only, names, "entered by the benchmark only") and ok
    print(f"{len(defined)} functions: {len(defined) - len(unreached) - len(bench_only)} entered "
          f"by a command, {len(bench_only)} by the benchmark only, {len(unreached)} unreached")
    for title, kept, table in (("entered by the benchmark only", bench_only, BENCH_ONLY),
                               ("unreached", unreached, REASONS)):
        print(f"{title}:")
        for name in kept:
            print(f"  {name}: {table.get(name, '(no reason)')}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
