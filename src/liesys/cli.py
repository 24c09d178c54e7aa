"""Command-line front end: JSON problem files in, JSON/text reports out.

`verify` and `superpose` take their checks from the builders in
superposition.py (rule_checks, solution_checks, superpose_checks), which the
example catalog shares; this module parses problem files and writes the
reports and CSV dumps.

Exit codes: 0 all checks passed, 1 some check failed (or the computation
errored in a reported way), 2 usage or schema errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from functools import cache
from pathlib import Path

import numpy as np

from .algebra import closure_test, minimal_m, prune_independent
from .catalog import ENTRIES, RunConfig, get_entry
from .dynamics import BLOWUP_BOUND, DEFAULT_TOL, CoefficientCurve, LieSystem, fundamental_points, integrate
from .errors import ClosureCapError, LiesysError, SchemaError
from .expr import Chart
from .geometry import VectorField
from .group import (ACTIONS, POLE_MARGIN, MatrixCurve, act_solve, check_equivariance,
                    sl2_from_coefficients, solve_group_equation)
from .pde import PdeSystem, curvature, path_independence_audit, path_solve, pde_superpose, solve_on_grid
from .report import Check, Report
from .superposition import (
    DEFAULT_TOL_CONST,
    SuperpositionRule,
    rule_checks,
    solution_checks,
    superpose_checks,
)

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


# kind -> (test of one float, one of them, several of them)
_NUMBER_KINDS = {
    "number": (lambda v: True, "a number", "numbers"),
    "positive": (lambda v: v > 0, "a positive number", "positive numbers"),
    "nonnegative": (lambda v: v >= 0, "a nonnegative number", "nonnegative numbers"),
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
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not test(float(v)):
            raise SchemaError(f"'{key}' must be {expected}, got {value!r}")
        return int(v) if kind == "integer" else float(v)

    return check(value, tuple(shape))


def load_problem(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise SchemaError(f"problem file not found: {path}") from None
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


def _chart(doc: dict) -> Chart:
    if "chart" not in doc:
        raise SchemaError("problem file needs a 'chart' section")
    try:
        return Chart(tuple(doc["chart"]))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad chart: {exc}") from None


def _fields(doc: dict, chart: Chart) -> list[VectorField]:
    if "fields" not in doc:
        raise SchemaError("problem file needs a 'fields' section")
    if not isinstance(doc["fields"], list):
        raise SchemaError("'fields' must be a list of fields")
    out = []
    for i, comps in enumerate(doc["fields"]):
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


def _rule(doc: dict, chart: Chart) -> SuperpositionRule:
    if "rule" not in doc:
        raise SchemaError("this command needs a 'rule' section")
    try:
        return SuperpositionRule.from_json_dict(chart, doc["rule"])
    except (LiesysError, ValueError, KeyError, TypeError) as exc:
        raise SchemaError(f"bad rule: {exc}") from None


def _system(doc: dict) -> LieSystem:
    chart = _chart(doc)
    fields = _fields(doc, chart)
    curves = _coefficients(doc, len(fields))
    try:
        return LieSystem(fields, curves)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def _pde_system(doc: dict) -> PdeSystem:
    if "pde" not in doc:
        raise SchemaError("this command needs a 'pde' section")
    p = doc["pde"]
    try:
        return PdeSystem.from_strings(
            int(p["s"]), p["chart"], p["fields"], p.get("decomposition")
        )
    except (LiesysError, ValueError, KeyError, TypeError) as exc:
        raise SchemaError(f"bad pde section: {exc}") from None


def _task(doc: dict, args) -> dict:
    """DEFAULTS overridden by the problem file, then by the command line."""
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


def _command(args) -> str:
    """The report's command: the subcommand words and, for `examples run`, the entry."""
    words = (args.command, getattr(args, "pde_command", None),
             getattr(args, "example_command", None), getattr(args, "name", None))
    return " ".join(filter(None, words))


def _emit(report: Report, args) -> int:
    doc = report.to_json_dict()
    if getattr(args, "json", None):
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n")
    print(report.render_text())
    return report.exit_code


def _csv_dir(args) -> Path | None:
    if getattr(args, "csv", None):
        path = Path(args.csv)
        path.mkdir(parents=True, exist_ok=True)
        return path
    return None


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_closure(args) -> int:
    doc = load_problem(args.problem)
    task = _task(doc, args)
    chart = _chart(doc)
    fields = _fields(doc, chart)
    complete = bool(args.complete or doc.get("complete"))
    checks, extra = [], {}
    try:
        report = closure_test(fields, complete=complete)
        checks.append(Check("closed", report.closed,
                            detail=f"dimension {report.dimension}"))
        if report.closed:
            checks.append(Check("jacobi_residual_zero", report.jacobi_residual() == 0))
        elif report.witness is not None:
            a, b, bracket = report.witness
            extra["witness"] = {"pair": [a, b], "bracket": bracket.to_json_dict()}
        extra["closure"] = report.to_json_dict()
    except ClosureCapError as exc:
        checks.append(Check("closed", False, detail=str(exc)))
    return _emit(Report("closure", checks, task["seed"], {"tol": task["tol"]}, extra), args)


def cmd_m(args) -> int:
    doc = load_problem(args.problem)
    task = _task(doc, args)
    chart = _chart(doc)
    fields = prune_independent(_fields(doc, chart))
    if not fields:
        raise SchemaError("every field is zero; m needs a nonzero field")
    report = minimal_m(fields, seed=task["seed"])
    checks = [Check("m_determined", True, probabilistic=not report.exact,
                    detail=f"m = {report.m} (r = {report.r})")]
    expected = _numbers(doc.get("m"), "m", kind="integer")
    if expected is not None:
        checks.append(Check.equals("m_matches_expected", report.m, expected))
    return _emit(
        Report("m", checks, task["seed"], {"tol": task["tol"]}, {"m": report.m,
               "report": report.to_json_dict()}),
        args,
    )


def cmd_solve(args) -> int:
    doc = load_problem(args.problem)
    task = _task(doc, args)
    sys = _system(doc)
    x0 = _numbers(doc.get("x0"), "x0", (sys.dim,))
    if x0 is None:
        raise SchemaError("solve needs 'x0'")
    trajectory = integrate(sys, x0, task["t_span"], task["tol"])
    detail = f"{len(trajectory.t)} nodes, blew_up={trajectory.blew_up}"
    # a run stopped short of t1 below the blow-up bound stopped on step underflow
    reached = (trajectory.truncated_at is None
               or np.abs(trajectory.states[-1]).max() > BLOWUP_BOUND)
    checks = [Check("integrated", bool(reached), detail=detail if reached else
                    f"step underflow at t={trajectory.truncated_at}; {detail}")]
    extra = {"trajectory": trajectory.to_json_dict()}
    out = _csv_dir(args)
    if out:
        trajectory.to_csv(out / "trajectory.csv", sys.chart.names)
    return _emit(Report("solve", checks, task["seed"], {"tol": task["tol"]}, extra), args)


def _constants(k, rule: SuperpositionRule) -> list[float] | None:
    """The rule's rank constants k; a single number stands for a list of one."""
    return _numbers(k if k is None or isinstance(k, list) else [k], "k", (rule.rank,))


def _points_for_rule(doc, task, sys, rule) -> list:
    """Initial points of the m particular solutions named in the problem file.

    Full rules go through the fundamental-set rank gate; partial rules use
    fewer solutions than a fundamental set by design, so their points are
    taken as given."""
    points = _numbers(doc.get("initial_points"), "initial_points", (rule.m, sys.dim))
    if rule.is_partial:
        if points is None:
            raise SchemaError("a partial rule needs 'initial_points'")
        return points
    return fundamental_points(sys, rule.m, task["seed"], points)


def cmd_superpose(args) -> int:
    doc = load_problem(args.problem)
    task = _task(doc, args)
    sys = _system(doc)
    rule = _rule(doc, sys.chart)
    points = _points_for_rule(doc, task, sys, rule)
    x0 = _numbers(doc.get("x0"), "x0", (sys.dim,))
    k = _constants(args.k if args.k is not None else doc.get("k"), rule)
    if k is None and x0 is None:
        raise SchemaError("superpose needs 'k' (or 'x0' to derive it from)")
    guess = _numbers(doc.get("x0_guess"), "x0_guess", (sys.dim,)) or x0
    if rule.phi is None and guess is None:
        raise SchemaError("a rule without phi needs 'x0_guess' (or 'x0') to start the leaf solve")
    checks, k, slot0, particular = superpose_checks(
        rule, sys, points, task["t_span"], task["tol"], task["tol_const"], k=k, x0=x0, x0_guess=guess)
    extra = {"k": [float(v) for v in k], "slot0": slot0.to_json_dict()}
    out = _csv_dir(args)
    if out:
        slot0.to_csv(out / "slot0.csv", sys.chart.names)
        for i, tr in enumerate(particular, start=1):
            tr.to_csv(out / f"slot{i}.csv", sys.chart.names)
    return _emit(
        Report("superpose", checks, task["seed"],
               {"tol": task["tol"], "tol_const": task["tol_const"]}, extra),
        args,
    )


def cmd_verify(args) -> int:
    doc = load_problem(args.problem)
    task = _task(doc, args)
    chart = _chart(doc)
    fields = _fields(doc, chart)
    rule = _rule(doc, chart)
    checks, extra = rule_checks(rule, fields, task["seed"]), {}
    if doc.get("coefficients") is not None:
        sys = LieSystem(fields, _coefficients(doc, len(fields)))
        points = _points_for_rule(doc, task, sys, rule)
        k = x0 = None
        if rule.is_partial:
            k = _constants(doc.get("k"), rule)
            if k is None:
                raise SchemaError("verifying a partial rule against a system needs 'k'")
        else:
            x0 = _numbers(doc.get("x0"), "x0", (sys.dim,))
        more, extra = solution_checks(rule, sys, points, task["t_span"], task["tol"],
                                      task["tol_const"], k=k, x0=x0)
        checks += more
    return _emit(
        Report("verify", checks, task["seed"],
               {"tol": task["tol"], "tol_const": task["tol_const"]}, extra),
        args,
    )


def cmd_group(args) -> int:
    doc = load_problem(args.problem)
    task = _task(doc, args)
    if "action" not in doc:
        raise SchemaError("group needs an 'action' section")
    action_doc = doc["action"]
    name = action_doc.get("name")
    if name not in ACTIONS:
        raise SchemaError(f"unknown action {name!r}; known: {sorted(ACTIONS)}")
    action = ACTIONS[name]
    checks, extra = [], {}
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
            curves = [CoefficientCurve.from_string(s) for s in coefficients]
            a = sl2_from_coefficients(*curves)
        else:
            a, curves = MatrixCurve.from_strings(matrix), None
    except (LiesysError, ValueError) as exc:
        raise SchemaError(f"bad {key}: {exc}") from None
    x0 = _numbers(action_doc.get("x0"), "x0", (action.space_dim,))
    if x0 is not None and a.dim != action.group_dim:
        raise SchemaError(f"action {name} needs {action.group_dim}x{action.group_dim} matrices, "
                          f"got {a.dim}x{a.dim}")
    if coefficients is not None:
        checks.append(Check("traceless", a.trace_is_zero()))
    g = solve_group_equation(a, task["t_span"], task["tol"])
    checks.append(Check.limit("defect_log", max(d for _, d in g.defect), 10 * task["tol"]))
    dets = g.determinants()
    checks.append(Check("det_nonzero", bool(np.all(np.abs(dets) > 1e-12))))
    if coefficients is not None:
        checks.append(Check.limit("det_equals_one", float(np.max(np.abs(dets - 1.0))), 1e-6))
    if x0 is not None:
        trajectory = act_solve(a, action, x0, task["t_span"], task["tol"])
        extra["orbit"] = trajectory.to_json_dict()
        extra["pole_crossings"] = [t for _, t in trajectory.events]
        out = _csv_dir(args)
        if out:
            trajectory.to_csv(out / "orbit.csv")
    # check_equivariance refuses a start within POLE_MARGIN of the pole x2 = 0
    if curves is not None and x0 is not None and len(x0) == 2 and abs(x0[1]) >= POLE_MARGIN:
        rep = check_equivariance(curves, x0, task["t_span"], task["tol"])
        checks.append(Check.limit("sl2_riccati_equivariance", rep.max_deviation, 1e-6))
    return _emit(Report("group", checks, task["seed"], {"tol": task["tol"]}, extra), args)


def cmd_pde(args) -> int:
    doc = load_problem(args.problem)
    task = _task(doc, args)
    sys = _pde_system(doc)
    checks, extra = [], {}
    if args.pde_command == "check":
        report = curvature(sys)
        flat_detail = "; ".join(
            f"pair {pair}: " + ", ".join(str(r) for r in rs)
            for pair, rs in report.residuals.items()
        )
        checks.append(Check("flat", report.flat, probabilistic=not report.exact,
                            detail=flat_detail or "no parameter pairs"))
        extra["residuals"] = {f"{a+1},{b+1}": [str(r) for r in rs]
                              for (a, b), rs in report.residuals.items()}
    elif args.pde_command == "solve":
        x0 = _numbers(doc.get("x0"), "x0", (sys.n,))
        target = _numbers(doc.get("target"), "target", (sys.s,), "nonnegative")
        if x0 is None or target is None:
            raise SchemaError("pde solve needs 'x0' and 'target'")
        result = path_solve(sys, x0, target, tol=task["tol"], audit=bool(args.audit))
        checks.append(Check("integrated", True, detail=f"endpoint {result.endpoint.tolist()}"))
        audit = path_independence_audit(
            sys, x0, target, path_count=8, tol=task["tol"], seed=task["seed"]
        )
        checks.append(Check.limit("path_independence_spread", audit.spread, 10 * task["tol"]))
        extra["endpoint"] = result.endpoint.tolist()
        extra["spread"] = audit.spread
    else:  # superpose
        if sys.s != 2 or sys.decomposition is None:
            raise SchemaError("pde superpose needs s = 2 parameters and a 'decomposition'")
        rule = _rule(doc, sys.chart)
        k = _constants(doc.get("k"), rule)
        points = _numbers(doc.get("initial_points"), "initial_points", (rule.m, sys.n))
        target = _numbers(doc.get("target"), "target", (sys.s,), "positive")
        if k is None or points is None or target is None:
            raise SchemaError("pde superpose needs 'k', 'initial_points' and 'target'")
        axes = [np.linspace(0.0, target[i], 11) for i in range(sys.s)]
        grids = [solve_on_grid(sys, p, axes, task["tol"]) for p in points]
        guess = (_numbers(doc.get("x0_guess"), "x0_guess", (sys.n,))
                 or grids[0].reshape(-1, sys.n)[0])
        rebuilt = pde_superpose(sys, rule, grids, np.array(k), guess)
        endpoint = path_solve(sys, rebuilt.reshape(-1, sys.n)[0], target, tol=task["tol"])
        gap = float(np.max(np.abs(rebuilt[tuple([-1] * sys.s)] - endpoint.endpoint)))
        checks.append(Check.limit("superposition_vs_path_solve", gap, 1e-5))
        extra["slot0_corner"] = rebuilt[tuple([-1] * sys.s)].tolist()
    return _emit(Report(_command(args), checks, task["seed"], {"tol": task["tol"]}, extra), args)


def _entry_seed(master: int, name: str) -> int:
    digest = hashlib.sha256(f"{master}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def cmd_examples(args) -> int:
    if args.example_command == "list":
        for name, entry in ENTRIES.items():
            print(f"{name:26s} {entry.summary}")
        return 0
    task = _task({}, args)
    seed, tol, tol_const = (task[key] for key in ("seed", "tol", "tol_const"))
    if args.example_command == "run":
        config = RunConfig(_entry_seed(seed, args.name), tol, tol_const)
        checks, extra = get_entry(args.name).run(config)
        report = Report(_command(args), checks, seed, {"tol": tol, "tol_const": tol_const}, extra)
        return _emit(report, args)
    # run-all: the acceptance suite, in catalog order; each entry gets a
    # seed derived from the master seed so results do not depend on order
    checks, extra = [], {}
    for name, entry in ENTRIES.items():
        entry_checks, _ = entry.run(RunConfig(_entry_seed(seed, name), tol, tol_const))
        failed = [c.name for c in entry_checks if not c.passed]
        checks.append(Check(name, not failed,
                            detail=f"{len(entry_checks)} checks" + (f"; failed: {failed}" if failed else "")))
        extra[name] = {"checks": [c.to_json_dict() for c in entry_checks]}
    report = Report(_command(args), checks, seed, {"tol": tol, "tol_const": tol_const}, extra)
    return _emit(report, args)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, problem: bool = True):
    if problem:
        parser.add_argument("problem", help="JSON problem file")
    parser.add_argument("--tol", type=float, default=None, help="integration tolerance")
    parser.add_argument("--tol-const", dest="tol_const", type=float, default=None,
                        help="constancy drift tolerance")
    parser.add_argument("--seed", type=int, default=None, help="random seed")
    parser.add_argument("--t-span", dest="t_span", type=_span, default=None,
                        help="integration interval a,b")
    parser.add_argument("--json", default=None, help="write the JSON report here")
    parser.add_argument("--csv", default=None, help="directory for CSV trajectory dumps")


def _span(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("t-span must be 'a,b'")
    return float(parts[0]), float(parts[1])


@cache
def build_parser() -> argparse.ArgumentParser:
    """The liesys argument parser, built on first use and then reused: every
    parse_args call returns a fresh namespace, so no call sees another's
    arguments.  Not built at import, which would slow `import liesys`."""
    parser = argparse.ArgumentParser(
        prog="liesys",
        description="Lie systems: closure tests, fundamental-set sizes, superposition rules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("closure", help="test closure under Lie brackets")
    _add_common(p)
    p.add_argument("--complete", action="store_true", help="adjoin missing brackets")
    p.set_defaults(fn=cmd_closure)

    p = sub.add_parser("m", help="minimal fundamental-set size")
    _add_common(p)
    p.set_defaults(fn=cmd_m)

    p = sub.add_parser("solve", help="integrate the system from x0")
    _add_common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("superpose", help="reconstruct a new solution from particular ones")
    _add_common(p)
    p.add_argument("--k", type=float, nargs="+", default=None, help="rule constants")
    p.set_defaults(fn=cmd_superpose)

    p = sub.add_parser("verify", help="verify a rule: tangency and constancy")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("group", help="right-invariant group equation and actions")
    _add_common(p)
    p.set_defaults(fn=cmd_group)

    p = sub.add_parser("pde", help="flat PDE systems")
    pde_sub = p.add_subparsers(dest="pde_command", required=True)
    for name, help_text in (("check", "symbolic zero-curvature check"),
                            ("solve", "staircase path solve with audit"),
                            ("superpose", "grid superposition from particular solutions")):
        q = pde_sub.add_parser(name, help=help_text)
        _add_common(q)
        if name == "solve":
            q.add_argument("--audit", action="store_true",
                           help="integrate even if curvature is nonzero")
        q.set_defaults(fn=cmd_pde)

    p = sub.add_parser("examples", help="bundled example catalog")
    ex_sub = p.add_subparsers(dest="example_command", required=True)
    q = ex_sub.add_parser("list", help="list catalog entries")
    q.set_defaults(fn=cmd_examples)
    q = ex_sub.add_parser("run", help="run one entry")
    q.add_argument("name")
    _add_common(q, problem=False)
    q.set_defaults(fn=cmd_examples)
    q = ex_sub.add_parser("run-all", help="run the whole catalog (acceptance suite)")
    _add_common(q, problem=False)
    q.set_defaults(fn=cmd_examples)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LiesysError as exc:
        return _emit(Report(_command(args), [Check("completed", False, detail=str(exc))]), args)


if __name__ == "__main__":
    sys.exit(main())
