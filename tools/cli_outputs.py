"""Record what the liesys CLI prints, so two source trees can be compared.

    python tools/cli_outputs.py TREE OUTDIR

runs, with TREE/src first on the import path and TREE as the working
directory:

- every command (closure, m, solve, superpose, verify, group and the three
  pde subcommands) on every problems/*.json of TREE, applicable or not;
- the flag calls in FLAG_CALLS, on the problem files they name, two calls
  with a bad entry name or problem path, and the `--help` text of liesys,
  of each command, of `pde` and of `examples run`;
- the calls in INPUT_CALLS, on inputs kept under tools/inputs/ that do not
  ship with the package;
- `examples list`, `examples run NAME` for each entry it lists, and
  `examples run-all --seed 0`.

Every call runs with COLUMNS=80, so that argparse wraps its text alike on
every terminal.  For each call, OUTDIR gets NAME.stdout, NAME.stderr,
NAME.exit and the `--json` report NAME.json (absent when the call writes
none).  Calls of solve, superpose and group also write their `--csv`
dumps, into a temporary directory, and each FILE.csv there is copied to
OUTDIR as NAME.FILE.csv.  Comparing two trees is then `diff -r OUT_A
OUT_B`.  Problem files are passed as relative paths, so the outputs hold no
path of TREE or OUTDIR.
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
# (output name, argv): flag and error paths that the calls without options do not reach
FLAG_CALLS = (
    ("riccati.superpose.t-span_0,3", ["superpose", "problems/riccati.json", "--t-span", "0,3"]),
    ("riccati.verify.t-span_0,3", ["verify", "problems/riccati.json", "--t-span", "0,3"]),
    ("riccati.superpose.k_0.5", ["superpose", "problems/riccati.json", "--k", "0.5"]),
    ("riccati.solve.tol_1e-6", ["solve", "problems/riccati.json", "--tol", "1e-6"]),
    ("riccati.superpose.tol_1e-6", ["superpose", "problems/riccati.json", "--tol", "1e-6"]),
    ("pde_nonflat.pde_solve.audit", ["pde", "solve", "problems/pde_nonflat.json", "--audit"]),
    ("incomplete_pair.closure.complete", ["closure", "problems/incomplete_pair.json", "--complete"]),
    ("riccati.verify.tol-const_1e-12", ["verify", "problems/riccati.json", "--tol-const", "1e-12"]),
    ("riccati.superpose.tol-const_1e-12", ["superpose", "problems/riccati.json", "--tol-const", "1e-12"]),
    ("riccati.m.seed_3", ["m", "problems/riccati.json", "--seed", "3"]),
    ("riccati.verify.seed_3", ["verify", "problems/riccati.json", "--seed", "3"]),
    ("riccati.superpose.k_-1e-05", ["superpose", "problems/riccati.json", "--k", "-1e-05"]),
    ("linear2.solve.t-span_-0.5,0.5", ["solve", "problems/linear2.json", "--t-span", "-0.5,0.5"]),
    ("riccati.superpose.k_-inf", ["superpose", "problems/riccati.json", "--k", "-inf"]),
    # the Mobius orbit of 0 reaches the pole of x' = 1 + x^2 at t = pi/2
    ("sl2_group.group.t-span_0,2", ["group", "problems/sl2_group.json", "--t-span", "0,2"]),
    # an unknown catalog entry and a problem path that is a directory exit 2
    ("examples.run.nosuch", ["examples", "run", "nosuch"]),
    ("problems.closure", ["closure", "problems"]),
) + tuple(
    # the --help text of liesys, of each command, of `pde` and of `examples run`
    (".".join(["_".join(words) or "liesys", "help"]), [*words, "--help"])
    for words in [(), *COMMANDS, ("pde",), ("examples", "run")]
)
# (output name, argv): a partial rule whose constraint set x2 = x1^2 the
# translations move, with and without coefficients; two plane fields
# whose components have unlike non-constant denominators, so that their
# bracket takes the non-constant path of expr._nf_dot; and two rules with
# no phi, so every slot-0 node is a leaf solve: one whose solve starts at a
# singular point, one on a coarse grid whose leaf has two branches; a
# tangent rule whose psi does not see x_0, which `verify` and `superpose`
# refuse alike; and two phis off their own leaves, by x_1/1000 and by
# x_1/10^9, which `superpose` decides exactly as `verify` does, before it
# integrates; two matrix curves with a trace, one
# whose det g(1) = e^-30 decays far below one and one with det g(2) = e^10,
# whose determinants `group` checks against Liouville's formula; and a
# field that overflows at x0 = 1e200, once as x^2, whose power raises
# OverflowError, and once as x*x, which comes out inf; and a field that
# does not parse, which exits 2; a zero field, which spans the algebra {0}
# of dimension 0; and the line pair 1, x*exp(x)*exp(-x), whose atoms
# cancel in value but not in the normal form, so closure fails it and
# completion hits its cap (ROADMAP item 5), while m ranks it in floats;
# and a pde superpose whose rule, u_0 - u_1, is not tangent to the
# decomposition's basis, and one whose rule, the cross ratio of slots 1-4,
# does not see slot 0, each refused by the rule check it fails, and one
# on a decomposed system that is not flat, and pde_riccati.json without
# phi, so every grid node of slot 0 is a leaf solve; and a flat pde system whose
# residual exp(t1)*exp(t2)*u - exp(t1 + t2)*u is zero only by sampling, so
# that `pde solve` still audits its staircases (merging exp atoms, stage 2
# of ROADMAP item 5, would decide it exactly); and two plane fields 1 and
# x d/dx, whose m = 2 rests at k = 1 on sampled tuples, as 1 * 2 >= r = 2;
# a coefficient given as a table; a full rule whose particular starts are
# drawn from the seed; and the rule psi = (y_0 - y_1)/(y_2 - y_1) with
# y = exp(-x), no phi, on the fields 1 and exp(x), which a function atom
# carries through every command of a rule, solve included; a partial rule
# with no phi; and a rule whose m is 3.9, which is no integer and exits 2;
# the fields 1 and x^(2^63), whose exponent is past the bound of a
# monomial's field; and the field exp(x^2 + 729), which overflows at every
# sample point of the zero test; and the Mobius orbit 1/(1 - t) of x' = x^2,
# whose last node lands on the pole (group.POLE_INF) and reads null in --json;
# a psi whose slot-0 derivative is inf - inf = NaN where exp(400 d)^2 and
# exp(399 d)^2 overflow (d = x_0 - x_1), as at a tuple seed 5 draws; and
# supplied points where a field is NaN, as inf * 0, or inf, which a rank
# refuses as out of the float range
INPUT_CALLS = (
    ("partial_not_invariant.verify", ["verify", "tools/inputs/partial_not_invariant.json"]),
    ("partial_not_invariant.superpose", ["superpose", "tools/inputs/partial_not_invariant.json"]),
    ("partial_not_invariant_rule.verify", ["verify", "tools/inputs/partial_not_invariant_rule.json"]),
    ("rational_plane.closure", ["closure", "tools/inputs/rational_plane.json"]),
    ("rational_plane.m", ["m", "tools/inputs/rational_plane.json"]),
    ("leaf_singular_start.superpose", ["superpose", "tools/inputs/leaf_singular_start.json"]),
    ("leaf_other_branch.superpose", ["superpose", "tools/inputs/leaf_other_branch.json"]),
    ("psi_not_transversal.verify", ["verify", "tools/inputs/psi_not_transversal.json"]),
    ("psi_not_transversal.superpose", ["superpose", "tools/inputs/psi_not_transversal.json"]),
    ("phi_off_leaf.superpose", ["superpose", "tools/inputs/phi_off_leaf.json"]),
    ("phi_near_leaf.superpose", ["superpose", "tools/inputs/phi_near_leaf.json"]),
    ("group_decay.group", ["group", "tools/inputs/group_decay.json"]),
    ("group_trace.group", ["group", "tools/inputs/group_trace.json"]),
    ("overflow_power.solve", ["solve", "tools/inputs/overflow_power.json"]),
    ("overflow_product.solve", ["solve", "tools/inputs/overflow_product.json"]),
    ("malformed_field.closure", ["closure", "tools/inputs/malformed_field.json"]),
    ("zero_field.closure", ["closure", "tools/inputs/zero_field.json"]),
    ("atom_pair.closure", ["closure", "tools/inputs/atom_pair.json"]),
    ("atom_pair.closure.complete", ["closure", "tools/inputs/atom_pair.json", "--complete"]),
    ("atom_pair.m", ["m", "tools/inputs/atom_pair.json"]),
    ("pde_not_tangent.pde_superpose", ["pde", "superpose", "tools/inputs/pde_not_tangent.json"]),
    ("pde_not_transversal.pde_superpose", ["pde", "superpose", "tools/inputs/pde_not_transversal.json"]),
    ("pde_nonflat_decomposed.pde_superpose",
     ["pde", "superpose", "tools/inputs/pde_nonflat_decomposed.json"]),
    ("pde_riccati_newton.pde_superpose", ["pde", "superpose", "tools/inputs/pde_riccati_newton.json"]),
    ("pde_atom_flat.pde_check", ["pde", "check", "tools/inputs/pde_atom_flat.json"]),
    ("pde_atom_flat.pde_solve", ["pde", "solve", "tools/inputs/pde_atom_flat.json"]),
    ("m_sampled_below.m", ["m", "tools/inputs/m_sampled_below.json"]),
    ("translation_table.solve", ["solve", "tools/inputs/translation_table.json"]),
    ("translation_table.superpose", ["superpose", "tools/inputs/translation_table.json"]),
    ("translation_table.verify", ["verify", "tools/inputs/translation_table.json"]),
    ("linear2_drawn_points.superpose", ["superpose", "tools/inputs/linear2_drawn_points.json"]),
    ("linear2_drawn_points.verify", ["verify", "tools/inputs/linear2_drawn_points.json"]),
    ("exp_affine.closure", ["closure", "tools/inputs/exp_affine.json"]),
    ("exp_affine.m", ["m", "tools/inputs/exp_affine.json"]),
    ("exp_affine.verify", ["verify", "tools/inputs/exp_affine.json"]),
    ("exp_affine.superpose", ["superpose", "tools/inputs/exp_affine.json"]),
    ("exp_affine.solve", ["solve", "tools/inputs/exp_affine.json"]),
    ("partial_rank1_no_phi.verify", ["verify", "tools/inputs/partial_rank1_no_phi.json"]),
    ("partial_rank1_no_phi.superpose", ["superpose", "tools/inputs/partial_rank1_no_phi.json"]),
    ("rule_m_fraction.verify", ["verify", "tools/inputs/rule_m_fraction.json"]),
    ("exponent_past_field.closure", ["closure", "tools/inputs/exponent_past_field.json"]),
    ("exponent_past_field.m", ["m", "tools/inputs/exponent_past_field.json"]),
    ("exponent_past_field.verify", ["verify", "tools/inputs/exponent_past_field.json"]),
    ("exp_overflow_m.m", ["m", "tools/inputs/exp_overflow_m.json"]),
    ("mobius_pole.group", ["group", "tools/inputs/mobius_pole.json"]),
    ("nan_psi_derivative.verify.seed_5", ["verify", "tools/inputs/nan_psi_derivative.json", "--seed", "5"]),
    ("nan_field_points.verify", ["verify", "tools/inputs/nan_field_points.json"]),
    ("nan_field_points.superpose", ["superpose", "tools/inputs/nan_field_points.json"]),
    ("inf_field_points.verify", ["verify", "tools/inputs/inf_field_points.json"]),
    ("inf_field_points.superpose", ["superpose", "tools/inputs/inf_field_points.json"]),
)
# commands whose --csv dumps are recorded
CSV_COMMANDS = ("solve", "superpose", "group")
# each call is its own process; a few at a time keep memory small
WORKERS = 4
TIMEOUT_S = 600


def _liesys(tree: Path, argv: list[str]) -> subprocess.CompletedProcess:
    # argparse wraps its help and usage text to COLUMNS
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(
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


def output_options(argv: list[str], report: Path, dumps: Path) -> list[str]:
    """The options a recorded call adds to argv: its --json report, and the
    --csv dumps of the commands in CSV_COMMANDS."""
    if argv == ["examples", "list"] or "--help" in argv:  # take no options
        return []
    return ["--json", str(report)] + (["--csv", str(dumps)] if argv[0] in CSV_COMMANDS else [])


def record(tree: Path, outdir: Path, name: str, argv: list[str]) -> None:
    with tempfile.TemporaryDirectory() as dumps:
        try:
            done = _liesys(tree, argv + output_options(argv, outdir / f"{name}.json", Path(dumps)))
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
