"""Record what the liesys CLI prints, so two source trees can be compared.

    python tools/cli_outputs.py TREE OUTDIR

runs, with TREE/src first on the import path and TREE as the working
directory:

- every command (closure, m, solve, superpose, verify, group and the three
  pde subcommands) on every problems/*.json of TREE, applicable or not;
- the flag calls in FLAG_CALLS, on the problem files they name;
- `examples list`, `examples run NAME` for each entry it lists, and
  `examples run-all --seed 0`.

For each call, OUTDIR gets NAME.stdout, NAME.stderr, NAME.exit and the
`--json` report NAME.json (absent when the call writes none).  Comparing two
trees is then `diff -r OUT_A OUT_B`.  Problem files are passed as relative
paths, so the outputs hold no path of TREE or OUTDIR.
"""

from __future__ import annotations

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

COMMANDS = (("closure",), ("m",), ("solve",), ("superpose",), ("verify",), ("group",),
            ("pde", "check"), ("pde", "solve"), ("pde", "superpose"))
# (output name, argv): flag paths that the calls without options do not reach
FLAG_CALLS = (
    ("riccati.superpose.t-span_0,3", ["superpose", "problems/riccati.json", "--t-span", "0,3"]),
    ("riccati.verify.t-span_0,3", ["verify", "problems/riccati.json", "--t-span", "0,3"]),
    ("riccati.superpose.k_0.5", ["superpose", "problems/riccati.json", "--k", "0.5"]),
    ("pde_nonflat.pde_solve.audit", ["pde", "solve", "problems/pde_nonflat.json", "--audit"]),
    ("incomplete_pair.closure.complete", ["closure", "problems/incomplete_pair.json", "--complete"]),
)
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
    out += [(name, list(argv)) for name, argv in FLAG_CALLS]
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
    try:
        done = _liesys(tree, argv + extra)
        stdout, stderr, code = done.stdout, done.stderr, str(done.returncode)
    except subprocess.TimeoutExpired:
        stdout, stderr, code = "", "", f"timeout after {TIMEOUT_S} s"
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
