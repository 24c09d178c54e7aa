"""Record what the liesys CLI prints, so two source trees can be compared.

    python tools/cli_outputs.py TREE OUTDIR

runs, with TREE/src first on the import path and TREE as the working
directory:

- every command (closure, m, solve, superpose, verify, group and the three
  pde subcommands) on every problems/*.json of TREE, applicable or not;
- the flag calls in FLAG_CALLS, on the problem files they name;
- the calls in INPUT_CALLS, on inputs kept under tools/inputs/ that do not
  ship with the package;
- `examples list`, `examples run NAME` for each entry it lists, and
  `examples run-all --seed 0`.

For each call, OUTDIR gets NAME.stdout, NAME.stderr, NAME.exit and the
`--json` report NAME.json (absent when the call writes none).  Calls of
solve, superpose and group also write their `--csv` dumps, into a temporary
directory, and each FILE.csv there is copied to OUTDIR as NAME.FILE.csv.
Comparing two trees is then `diff -r OUT_A OUT_B`.  Problem files are passed
as relative paths, so the outputs hold no path of TREE or OUTDIR.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

COMMANDS = (("closure",), ("m",), ("solve",), ("superpose",), ("verify",), ("group",),
            ("pde", "check"), ("pde", "solve"), ("pde", "superpose"))
# (output name, argv): flag paths that the calls without options do not reach
FLAG_CALLS = (
    ("riccati.superpose.t-span_0,3", ["superpose", "problems/riccati.json", "--t-span", "0,3"]),
    ("riccati.verify.t-span_0,3", ["verify", "problems/riccati.json", "--t-span", "0,3"]),
    ("riccati.superpose.k_0.5", ["superpose", "problems/riccati.json", "--k", "0.5"]),
    ("riccati.solve.tol_1e-6", ["solve", "problems/riccati.json", "--tol", "1e-6"]),
    ("riccati.superpose.tol_1e-6", ["superpose", "problems/riccati.json", "--tol", "1e-6"]),
    ("pde_nonflat.pde_solve.audit", ["pde", "solve", "problems/pde_nonflat.json", "--audit"]),
    ("incomplete_pair.closure.complete", ["closure", "problems/incomplete_pair.json", "--complete"]),
)
# (output name, argv): a partial rule whose constraint set x2 = x1^2 the
# translations move, with and without coefficients; and two plane fields
# whose components have unlike non-constant denominators, so that their
# bracket takes the non-constant path of expr._nf_dot
INPUT_CALLS = (
    ("partial_not_invariant.verify", ["verify", "tools/inputs/partial_not_invariant.json"]),
    ("partial_not_invariant.superpose", ["superpose", "tools/inputs/partial_not_invariant.json"]),
    ("partial_not_invariant_rule.verify", ["verify", "tools/inputs/partial_not_invariant_rule.json"]),
    ("rational_plane.closure", ["closure", "tools/inputs/rational_plane.json"]),
    ("rational_plane.m", ["m", "tools/inputs/rational_plane.json"]),
)
# commands whose --csv dumps are recorded
CSV_COMMANDS = ("solve", "superpose", "group")
# each call is its own process; a few at a time keep memory small
WORKERS = 4
TIMEOUT_S = 600


def _liesys(tree: Path, argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "liesys", *argv], cwd=tree, env=env,
                          capture_output=True, text=True, timeout=TIMEOUT_S)


def calls(tree: Path) -> list[tuple[str, list[str]]]:
    """(output name, argv) of every recorded call in TREE."""
    out = []
    for problem in sorted((tree / "problems").glob("*.json")):
        for command in COMMANDS:
            name = f"{problem.stem}.{'_'.join(command)}"
            out.append((name, [*command, f"problems/{problem.name}"]))
    out += [(name, list(argv)) for name, argv in FLAG_CALLS + INPUT_CALLS]
    listing = _liesys(tree, ["examples", "list"])
    if listing.returncode != 0:
        raise SystemExit(f"`liesys examples list` failed in {tree}:\n{listing.stderr}")
    out.append(("examples.list", ["examples", "list"]))
    for line in listing.stdout.splitlines():
        entry = line.split()[0]
        out.append((f"examples.run.{entry}", ["examples", "run", entry]))
    out.append(("examples.run-all", ["examples", "run-all", "--seed", "0"]))
    return out


def record(tree: Path, outdir: Path, name: str, argv: list[str]) -> None:
    report = outdir / f"{name}.json"
    # `examples list` takes no options
    extra = [] if argv == ["examples", "list"] else ["--json", str(report)]
    with tempfile.TemporaryDirectory() as dumps:
        if argv[0] in CSV_COMMANDS:
            extra += ["--csv", dumps]
        try:
            done = _liesys(tree, argv + extra)
            stdout, stderr, code = done.stdout, done.stderr, str(done.returncode)
        except subprocess.TimeoutExpired:
            stdout, stderr, code = "", "", f"timeout after {TIMEOUT_S} s"
        for dump in sorted(Path(dumps).glob("*.csv")):
            shutil.copyfile(dump, outdir / f"{name}.{dump.name}")
    (outdir / f"{name}.stdout").write_text(stdout)
    (outdir / f"{name}.stderr").write_text(stderr)
    (outdir / f"{name}.exit").write_text(code + "\n")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    tree, outdir = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if not (tree / "src" / "liesys").is_dir():
        print(f"{tree} has no src/liesys", file=sys.stderr)
        return 2
    outdir.mkdir(parents=True, exist_ok=True)
    todo = calls(tree)
    with ThreadPoolExecutor(WORKERS) as pool:
        for future in [pool.submit(record, tree, outdir, name, args) for name, args in todo]:
            future.result()
    print(f"{len(todo)} calls recorded in {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
