"""Command-line front end: JSON problem files in, JSON/text reports out.

A problem file is read once into a Problem: the file's doc, its task
(DEFAULTS overridden by the file, then by the command line) and each
section, parsed on first use and kept.  Each problem command is one row
of PROBLEM_COMMANDS: its help, its options, the tolerances its report
records, and a function that takes the Problem and returns the command's
checks, extra and CSV dumps.  The checks come from library builders:
`closure` and `m` from algebra (closure_checks, m_checks), `solve` from
dynamics (integrated_check), `verify` and `superpose` from superposition
(rule_checks, solution_checks, superpose_checks), `group` from group
(group_checks) and the three `pde` commands from pde (flatness_checks,
path_checks, grid_superpose_checks).  Each problem-file key is read by one
function of this module.

One path serves every command: cmd_problem reads the problem file, runs
the row, writes the dumps under --csv and emits the report, and
build_parser adds one subcommand per row.  The example catalog runs the
same rows on the Problems it builds.

Exit codes: 0 all checks passed, 1 some check failed (or the computation
errored in a reported way), 2 usage or schema errors, and a problem file,
report path or dump directory that cannot be read or written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from functools import cache, cached_property
from pathlib import Path
from typing import Callable, NamedTuple

from .algebra import closure_checks, m_checks, prune_independent
from .dynamics import DEFAULT_TOL, CoefficientCurve, LieSystem, fundamental_points, integrate, integrated_check
from .errors import LiesysError, SchemaError
from .expr import Chart
from .geometry import VectorField
from .group import ACTIONS, GroupAction, MatrixCurve, group_checks, sl2_from_coefficients
from .pde import PdeSystem, flatness_checks, grid_superpose_checks, path_checks
from .report import Check, Report
from .superposition import (
    DEFAULT_TOL_CONST,
    SuperpositionRule,
    rule_checks,
    solution_checks,
    superpose_checks,
)

# the largest m n of a rule (m particular solutions of n coordinates): over
# 100 times the largest in any shipped or recorded input, m = 3 on n = 3
# (linear3.json), and small enough that the prolonged chart and the rule's
# checks are built in well under a second
MAX_RULE_SLOTS = 1000

DEFAULTS = {"tol": DEFAULT_TOL, "tol_const": DEFAULT_TOL_CONST, "seed": 0,
            "t_span": (0.0, 1.0)}

_TOP_KEYS = {
    "chart", "fields", "coefficients", "rule", "action", "pde",
    "t_span", "tol", "tol_const", "seed",
    "m", "k", "x0", "x0_guess", "initial_points", "target", "complete",
}
_RULE_KEYS = {"m", "s", "psi", "phi", "constraints"}
_ACTION_KEYS = {"name", "matrix", "sl2_coefficients", "x0"}
_PDE_KEYS = {"s", "chart", "fields", "decomposition"}
_DECOMP_KEYS = {"u", "basis"}


def _reject_unknown(doc: dict, allowed: set, where: str):
    if not isinstance(doc, dict):
        raise SchemaError(f"{where} must be a JSON object")
    unknown = set(doc) - allowed
    if unknown:
        raise SchemaError(f"unknown keys in {where}: {sorted(unknown)}")


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(s, str) for s in value)


# kind -> (test of one finite float, one of them, several of them)
_NUMBER_KINDS = {
    "number": (lambda v: True, "a finite number", "finite numbers"),
    "positive": (lambda v: v > 0, "a finite positive number", "finite positive numbers"),
    "nonnegative": (lambda v: v >= 0, "a finite nonnegative number", "finite nonnegative numbers"),
    "integer": (float.is_integer, "an integer", "integers"),
}


def _numbers(value, key: str, shape: tuple = (), kind: str = "number"):
    """The numeric key `key` nested to `shape`, one list length per level
    (() for a single number), each number passing `kind`: floats, or ints for
    kind "integer".  None stays None; anything else is a SchemaError."""
    if value is None:
        return None
    test, one, many = _NUMBER_KINDS[kind]
    expected = (one if not shape else f"a list of {shape[0]} {many}" if len(shape) == 1
                else f"{shape[0]} lists of {shape[1]} {many}")

    def check(v, dims):
        if dims:
            if not isinstance(v, (list, tuple)) or len(v) != dims[0]:
                raise SchemaError(f"'{key}' must be {expected}, got {value!r}")
            return [check(item, dims[1:]) for item in v]
        # inf, nan and an int beyond the float range all fail the bound
        if (isinstance(v, bool) or not isinstance(v, (int, float))
                or not abs(v) <= sys.float_info.max or not test(float(v))):
            raise SchemaError(f"'{key}' must be {expected}, got {value!r}")
        return int(v) if kind == "integer" else float(v)

    return check(value, tuple(shape))


def load_problem(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SchemaError(f"problem file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read problem file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"problem file is not valid JSON: {exc}") from None
    _reject_unknown(doc, _TOP_KEYS, "problem file")
    if "rule" in doc:
        _reject_unknown(doc["rule"], _RULE_KEYS, "rule")
    if "action" in doc:
        _reject_unknown(doc["action"], _ACTION_KEYS, "action")
    if "pde" in doc:
        _reject_unknown(doc["pde"], _PDE_KEYS, "pde")
        if isinstance(doc["pde"], dict) and doc["pde"].get("decomposition"):
            _reject_unknown(doc["pde"]["decomposition"], _DECOMP_KEYS, "pde.decomposition")
    return doc


def _coefficients(doc: dict, count: int) -> list[CoefficientCurve]:
    if "coefficients" not in doc:
        raise SchemaError("this command needs a 'coefficients' section")
    raw = doc["coefficients"]
    if not isinstance(raw, list):
        raise SchemaError(f"'coefficients' must be a list, got {raw!r}")
    if len(raw) != count:
        raise SchemaError(f"{count} fields but {len(raw)} coefficients")
    out = []
    for i, item in enumerate(raw):
        try:
            if isinstance(item, str):
                out.append(CoefficientCurve.from_string(item))
            elif isinstance(item, dict) and set(item) == {"table"}:
                table = item["table"]
                out.append(CoefficientCurve(table=(table["t"], table["values"])))
            else:
                raise SchemaError(
                    f"coefficient {i + 1} must be an expression string or {{'table': ...}}"
                )
        except (LiesysError, ValueError, KeyError, TypeError) as exc:
            raise SchemaError(f"coefficient {i + 1}: {exc}") from None
    return out


def rule_of(doc: dict, chart: Chart) -> SuperpositionRule:
    """The 'rule' section on `chart`, its m and s checked before anything is built."""
    if "rule" not in doc:
        raise SchemaError("this command needs a 'rule' section")
    m, s = (_numbers(doc["rule"].get(key), f"rule.{key}", kind="integer") for key in ("m", "s"))
    if s is not None and not 1 <= s <= chart.dim:
        raise SchemaError(f"bad rule: rank must be in 1..{chart.dim}")
    if m is not None and not 1 <= m * chart.dim <= MAX_RULE_SLOTS:
        raise SchemaError(f"bad rule: m must be in 1..{MAX_RULE_SLOTS // chart.dim} "
                          f"on a chart of dimension {chart.dim}")
    try:
        return SuperpositionRule.from_json_dict(chart, doc["rule"])
    except (LiesysError, ValueError, KeyError, TypeError) as exc:
        raise SchemaError(f"bad rule: {exc}") from None


def task_of(doc: dict, args) -> dict:
    """DEFAULTS overridden by the problem file, then by the command line (or
    by a catalog RunConfig, which has no t_span)."""
    task = dict(DEFAULTS)
    for key in task:
        if doc.get(key) is not None:
            task[key] = doc[key]
        if getattr(args, key, None) is not None:
            task[key] = getattr(args, key)
    for key, kind in (("tol", "positive"), ("tol_const", "positive"), ("seed", "integer")):
        task[key] = _numbers(task[key], key, kind=kind)
    a, b = _numbers(task["t_span"], "t_span", (2,))
    if not b > a:
        raise SchemaError("t_span must be [a, b] with b > a")
    task["t_span"] = (a, b)
    return task


class Problem:
    """A problem read once: its doc, its task (task_of) under `args`, which
    are the command line's options or a catalog RunConfig, and each section
    parsed on first use and kept, so that every row run on one Problem
    shares one chart, one list of fields, one system and one rule."""

    def __init__(self, doc: dict, args):
        self.doc, self.args = doc, args
        self.task = task_of(doc, args)

    @cached_property
    def chart(self) -> Chart:
        if "chart" not in self.doc:
            raise SchemaError("problem file needs a 'chart' section")
        try:
            return Chart(tuple(self.doc["chart"]))
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"bad chart: {exc}") from None

    @cached_property
    def fields(self) -> list[VectorField]:
        chart = self.chart
        if "fields" not in self.doc:
            raise SchemaError("problem file needs a 'fields' section")
        if not isinstance(self.doc["fields"], list):
            raise SchemaError("'fields' must be a list of fields")
        out = []
        for i, comps in enumerate(self.doc["fields"]):
            if isinstance(comps, str):
                comps = [comps]
            if not _strings(comps):
                raise SchemaError(f"field {i + 1}: components must be strings, got {comps!r}")
            try:
                out.append(VectorField.from_strings(chart, comps))
            except (LiesysError, ValueError) as exc:
                raise SchemaError(f"field {i + 1}: {exc}") from None
        if not out:
            raise SchemaError("'fields' must not be empty")
        return out

    @cached_property
    def system(self) -> LieSystem:
        """The Lie system of the 'coefficients' section on the fields."""
        curves = _coefficients(self.doc, len(self.fields))
        try:
            return LieSystem(self.fields, curves)
        except ValueError as exc:
            raise SchemaError(str(exc)) from None

    @cached_property
    def rule(self) -> SuperpositionRule:
        return rule_of(self.doc, self.chart)

    @cached_property
    def pde(self) -> PdeSystem:
        """The PDE system of the 'pde' section."""
        if "pde" not in self.doc:
            raise SchemaError("this command needs a 'pde' section")
        p = self.doc["pde"]
        s = _numbers(p.get("s"), "pde.s", kind="integer")
        if s is not None and isinstance(p.get("fields"), list) and s != len(p["fields"]):
            raise SchemaError(f"bad pde section: {len(p['fields'])} fields for {s} parameters")
        try:
            return PdeSystem.from_strings(int(p["s"]), p["chart"], p["fields"], p.get("decomposition"))
        except (LiesysError, ValueError, KeyError, TypeError) as exc:
            raise SchemaError(f"bad pde section: {exc}") from None


# ---------------------------------------------------------------------------
# Problem-file keys: each is read here, for the commands and the catalog
# ---------------------------------------------------------------------------


def _k(doc: dict, rule: SuperpositionRule, k=None) -> list[float] | None:
    """The rule's rank constants: `k` (the --k option) when given, else the
    file's; a single number stands for a list of one."""
    k = doc.get("k") if k is None else k
    return _numbers(k if k is None or isinstance(k, list) else [k], "k", (rule.rank,))


def _x0(doc: dict, dim: int) -> list[float] | None:
    return _numbers(doc.get("x0"), "x0", (dim,))


def _x0_guess(doc: dict, dim: int) -> list[float] | None:
    return _numbers(doc.get("x0_guess"), "x0_guess", (dim,))


def _initial_points(doc: dict, m: int, dim: int) -> list | None:
    return _numbers(doc.get("initial_points"), "initial_points", (m, dim))


def _target(doc: dict, s: int, kind: str) -> list[float] | None:
    """The parameter values to reach: `kind` "nonnegative" for a path
    solve, "positive" for a grid."""
    return _numbers(doc.get("target"), "target", (s,), kind)


def _points_for_rule(p: Problem) -> list:
    """Initial points of the m particular solutions named in the problem file.

    Full rules go through the fundamental-set rank gate; partial rules use
    fewer solutions than a fundamental set by design, so their points are
    taken as given."""
    sys, rule = p.system, p.rule
    points = _initial_points(p.doc, rule.m, sys.dim)
    if rule.is_partial:
        if points is None:
            raise SchemaError("a partial rule needs 'initial_points'")
        return points
    return fundamental_points(sys, rule.m, p.task["seed"], points)


def _group_problem(doc: dict) -> tuple[GroupAction, MatrixCurve, list | None]:
    """The action, the matrix curve a(t) and the start x0 of the 'action' section."""
    if "action" not in doc:
        raise SchemaError("group needs an 'action' section")
    action_doc = doc["action"]
    name = action_doc.get("name")
    if name not in ACTIONS:
        raise SchemaError(f"unknown action {name!r}; known: {sorted(ACTIONS)}")
    action = ACTIONS[name]
    coefficients, matrix = action_doc.get("sl2_coefficients"), action_doc.get("matrix")
    key = "sl2_coefficients" if coefficients is not None else "matrix"
    if coefficients is not None:
        if not (_strings(coefficients) and len(coefficients) == 3):
            raise SchemaError(f"'sl2_coefficients' must be 3 expression strings, got {coefficients!r}")
    elif matrix is not None:
        if not (isinstance(matrix, list) and all(map(_strings, matrix))):
            raise SchemaError(f"'matrix' must be a list of rows of expression strings, got {matrix!r}")
    else:
        raise SchemaError("action needs 'matrix' or 'sl2_coefficients'")
    try:
        if coefficients is not None:
            a = sl2_from_coefficients(*map(CoefficientCurve.from_string, coefficients))
        else:
            a = MatrixCurve.from_strings(matrix)
    except (LiesysError, ValueError) as exc:
        raise SchemaError(f"bad {key}: {exc}") from None
    x0 = _numbers(action_doc.get("x0"), "x0", (action.space_dim,))
    if x0 is not None and a.dim != action.group_dim:
        raise SchemaError(f"action {name} needs {action.group_dim}x{action.group_dim} matrices, "
                          f"got {a.dim}x{a.dim}")
    return action, a, x0


# ---------------------------------------------------------------------------
# Problem commands: one row each, run by cmd_problem and by the catalog
# ---------------------------------------------------------------------------


def _closure_row(p: Problem) -> tuple:
    return (*closure_checks(p.fields, complete=bool(getattr(p.args, "complete", None) or p.doc.get("complete"))), {})


def _m_row(p: Problem) -> tuple:
    fields = prune_independent(p.fields)
    if not fields:
        raise SchemaError("every field is zero; m needs a nonzero field")
    return (*m_checks(fields, p.task["seed"], _numbers(p.doc.get("m"), "m", kind="integer")), {})


def _solve_row(p: Problem) -> tuple:
    sys = p.system
    x0 = _x0(p.doc, sys.dim)
    if x0 is None:
        raise SchemaError("solve needs 'x0'")
    trajectory = integrate(sys, x0, p.task["t_span"], p.task["tol"])
    return ([integrated_check(trajectory)], {"trajectory": trajectory.to_json_dict()},
            {"trajectory": (trajectory, sys.chart.names)})


def _superpose_row(p: Problem) -> tuple:
    """superpose_checks on the file's points, k (or the --k option, when
    given), x0 and x0_guess, with phi decided under the task's seed.  Slot 0
    starts at x0, or on the leaf of k when k is given, and is integrated
    with the particular solutions either way."""
    sys, rule, task = p.system, p.rule, p.task
    points = _points_for_rule(p)
    x0, guess = _x0(p.doc, sys.dim), _x0_guess(p.doc, sys.dim)
    k = _k(p.doc, rule, getattr(p.args, "k", None))
    if k is None and x0 is None:
        raise SchemaError("superpose needs 'k' (or 'x0' to derive it from)")
    if rule.phi is None and guess is None and x0 is None:
        raise SchemaError("a rule without phi needs 'x0_guess' (or 'x0') to start the leaf solve")
    checks, k, slot0, particular = superpose_checks(
        rule, sys, points, task["t_span"], task["tol"], task["tol_const"],
        k=k, x0=x0, x0_guess=guess, seed=task["seed"])
    dumps = {f"slot{i}": (tr, sys.chart.names) for i, tr in enumerate([slot0, *particular])}
    return checks, {"k": [float(v) for v in k], "slot0": slot0.to_json_dict()}, dumps


def _verify_row(p: Problem) -> tuple:
    """The rule's own checks and, given a system, psi's drift along the
    solutions from the file's points, with slot 0 on the leaf of the file's
    k for a partial rule and from x0 for a full one (solution_checks)."""
    fields, rule, task = p.fields, p.rule, p.task
    sys = None if p.doc.get("coefficients") is None else p.system
    checks = rule_checks(rule, fields, task["seed"])
    if sys is None:
        return checks, {}, {}
    points = _points_for_rule(p)
    k = x0 = None
    if rule.is_partial:
        k = _k(p.doc, rule)
        if k is None:
            raise SchemaError("verifying a partial rule against a system needs 'k'")
    else:
        x0 = _x0(p.doc, sys.dim)
    more, extra = solution_checks(rule, sys, points, task["t_span"], task["tol"],
                                  task["tol_const"], k=k, x0=x0)
    return checks + more, extra, {}


def _group_row(p: Problem) -> tuple:
    action, a, x0 = _group_problem(p.doc)
    checks, _, orbit = group_checks(a, p.task["t_span"], p.task["tol"], action, x0)
    if orbit is None:
        return checks, {}, {}
    extra = {"orbit": orbit.to_json_dict(), "pole_crossings": [t for _, t in orbit.events]}
    return checks, extra, {"orbit": (orbit, None)}


def _pde_check_row(p: Problem) -> tuple:
    return (*flatness_checks(p.pde), {})


def _pde_solve_row(p: Problem) -> tuple:
    sys = p.pde
    x0, target = _x0(p.doc, sys.n), _target(p.doc, sys.s, "nonnegative")
    if x0 is None or target is None:
        raise SchemaError("pde solve needs 'x0' and 'target'")
    return (*path_checks(sys, x0, target, p.task["tol"], p.task["seed"],
                         audit=bool(getattr(p.args, "audit", False))), {})


def _pde_superpose_row(p: Problem) -> tuple:
    sys = p.pde
    if sys.s != 2 or sys.decomposition is None:
        raise SchemaError("pde superpose needs s = 2 parameters and a 'decomposition'")
    rule = rule_of(p.doc, sys.chart)
    k = _k(p.doc, rule)
    points = _initial_points(p.doc, rule.m, sys.n)
    target = _target(p.doc, sys.s, "positive")
    if k is None or points is None or target is None:
        raise SchemaError("pde superpose needs 'k', 'initial_points' and 'target'")
    checks, rebuilt = grid_superpose_checks(sys, rule, k, points, target, p.task["tol"],
                                            _x0_guess(p.doc, sys.n))
    return checks, {"slot0_corner": rebuilt[-1, -1].tolist()}, {}


class _Row(NamedTuple):
    """A problem command: its help; `run`, which parses what the command
    needs from a Problem and returns (checks, extra, CSV dumps as file stem
    -> (trajectory, column names or None)); the tolerances its report
    records; and its own options, as (flag, add_argument keywords)."""

    help: str
    run: Callable[[Problem], tuple[list[Check], dict, dict]]
    tolerances: tuple[str, ...] = ("tol",)
    options: tuple = ()


_BOTH_TOLS = ("tol", "tol_const")
_AUDIT_HELP = ("compare the endpoints of 8 staircases, even when flatness is exact, "
               "and integrate even if curvature is nonzero")
# the report's command -> its row; `pde X` is subcommand X of `pde`
PROBLEM_COMMANDS = {
    "closure": _Row("test closure under Lie brackets", _closure_row, options=(
        ("--complete", {"action": "store_true", "help": "adjoin missing brackets"}),)),
    "m": _Row("minimal fundamental-set size", _m_row),
    "solve": _Row("integrate the system from x0", _solve_row),
    "superpose": _Row("reconstruct a new solution from particular ones", _superpose_row, _BOTH_TOLS, (
        ("--k", {"type": float, "nargs": "+", "default": None, "help": "rule constants"}),)),
    "verify": _Row("verify a rule: tangency and constancy", _verify_row, _BOTH_TOLS),
    "group": _Row("right-invariant group equation and actions", _group_row),
    "pde check": _Row("symbolic zero-curvature check", _pde_check_row),
    "pde solve": _Row("staircase path solve", _pde_solve_row, options=(
        ("--audit", {"action": "store_true", "help": _AUDIT_HELP}),)),
    "pde superpose": _Row("grid superposition from particular solutions", _pde_superpose_row),
}


def _command(args) -> str:
    """The report's command: the subcommand words and, for `examples run`, the entry."""
    words = (args.command, getattr(args, "pde_command", None),
             getattr(args, "example_command", None), getattr(args, "name", None))
    return " ".join(filter(None, words))


def _emit(report: Report, args, dumps: dict | None = None) -> int:
    """Write `dumps` (file stem -> (trajectory, column names or None)) under
    --csv and the report's JSON under --json, print its text and return
    its exit code."""
    try:
        if dumps and args.csv:
            Path(args.csv).mkdir(parents=True, exist_ok=True)
            for stem, (trajectory, names) in dumps.items():
                trajectory.to_csv(Path(args.csv) / f"{stem}.csv", names)
        if getattr(args, "json", None):
            Path(args.json).write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
    except OSError as exc:
        raise SchemaError(f"cannot write {exc.filename}: {exc.strerror}") from None
    print(report.render_text())
    return report.exit_code


def cmd_problem(args) -> int:
    """Every problem command: read the problem file, run the command's row
    on it and emit the report with the row's dumps."""
    problem = Problem(load_problem(args.problem), args)
    checks, extra, dumps = args.row.run(problem)
    tolerances = {key: problem.task[key] for key in args.row.tolerances}
    return _emit(Report(_command(args), checks, problem.task["seed"], tolerances, extra), args, dumps)


def _entry_seed(master: int, name: str) -> int:
    digest = hashlib.sha256(f"{master}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def cmd_examples(args) -> int:
    # imported here: the catalog runs this module's rows
    from .catalog import ENTRIES, RunConfig, get_entry

    if args.example_command == "list":
        for name, entry in ENTRIES.items():
            print(f"{name:26s} {entry.summary}")
        return 0
    task = task_of({}, args)
    seed, tol, tol_const = (task[key] for key in ("seed", "tol", "tol_const"))
    if args.example_command == "run":
        checks, extra = get_entry(args.name).run(RunConfig(_entry_seed(seed, args.name), tol, tol_const))
    else:
        # run-all: the acceptance suite, in catalog order; each entry gets a
        # seed derived from the master seed so results do not depend on order
        checks, extra = [], {}
        for name, entry in ENTRIES.items():
            entry_checks, _ = entry.run(RunConfig(_entry_seed(seed, name), tol, tol_const))
            failed = [c.name for c in entry_checks if not c.passed]
            checks.append(Check(name, not failed,
                                detail=f"{len(entry_checks)} checks" + (f"; failed: {failed}" if failed else "")))
            extra[name] = {"checks": [c.to_json_dict() for c in entry_checks]}
    return _emit(Report(_command(args), checks, seed, {"tol": tol, "tol_const": tol_const}, extra), args)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, problem: bool = True):
    """--tol, --tol-const, --seed and --json; with `problem`, also the
    problem file, --t-span and --csv, which the examples commands do not take."""
    if problem:
        parser.add_argument("problem", help="JSON problem file")
    parser.add_argument("--tol", type=float, default=None, help="integration tolerance")
    parser.add_argument("--tol-const", dest="tol_const", type=float, default=None,
                        help="constancy drift tolerance")
    parser.add_argument("--seed", type=int, default=None, help="random seed")
    parser.add_argument("--json", default=None, help="write the JSON report here")
    if problem:
        parser.add_argument("--t-span", dest="t_span", type=_span, default=None,
                            help="integration interval a,b")
        parser.add_argument("--csv", default=None, help="directory for CSV trajectory dumps")


def _span(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("t-span must be 'a,b'")
    return float(parts[0]), float(parts[1])


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every argument beginning with `-` and a
    digit, or `-.` and a digit, as a value, and so do -inf, -infinity and
    -nan in any case (the other forms float() reads), so that `--k -1e-05`,
    `--k -inf` and `--t-span -0.5,0.5` parse.  argparse's own pattern
    matches only forms like -1 and -.5 and takes the rest for unknown
    options; no liesys option begins that way.  Subparsers are built with
    their parent's class, so every command reads values alike."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's (private) test for an argument that is a negative number
        self._negative_number_matcher = re.compile(r"-(\.?\d|(inf|infinity|nan)$)", re.IGNORECASE)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The liesys argument parser, built on first use and then reused: every
    parse_args call returns a fresh namespace, so no call sees another's
    arguments.  Not built at import, which would slow `import liesys`."""
    parser = _Parser(
        prog="liesys",
        description="Lie systems: closure tests, fundamental-set sizes, superposition rules",
    )
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for command, row in PROBLEM_COMMANDS.items():
        group, _, name = command.rpartition(" ")
        if group not in subparsers:  # `pde`, after the top-level commands
            subparsers[group] = subparsers[""].add_parser(group, help="flat PDE systems").add_subparsers(
                dest=f"{group}_command", required=True)
        q = subparsers[group].add_parser(name, help=row.help)
        _add_common(q)
        for flag, options in row.options:
            q.add_argument(flag, **options)
        q.set_defaults(fn=cmd_problem, row=row)

    sub = subparsers[""]
    p = sub.add_parser("examples", help="bundled example catalog")
    p.set_defaults(fn=cmd_examples)
    ex_sub = p.add_subparsers(dest="example_command", required=True)
    ex_sub.add_parser("list", help="list catalog entries")
    q = ex_sub.add_parser("run", help="run one entry")
    q.add_argument("name")
    _add_common(q, problem=False)
    q = ex_sub.add_parser("run-all", help="run the whole catalog (acceptance suite)")
    _add_common(q, problem=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            return args.fn(args)
        except SchemaError:
            raise
        except LiesysError as exc:
            return _emit(Report(_command(args), [Check("completed", False, detail=str(exc))]), args)
    except SchemaError as exc:  # also one raised while emitting a failed run's report
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
