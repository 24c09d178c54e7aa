"""Command-line front end: JSON problem files in, JSON/text reports out.

Exit codes: 0 all checks passed, 1 some check failed (or the computation
errored in a reported way), 2 usage or schema errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .algebra import closure_test, minimal_m, prune_independent
from .catalog import ENTRIES, RunConfig, get_entry
from .dynamics import CoefficientCurve, LieSystem, fundamental_points, integrate, integrate_tuple
from .errors import ClosureCapError, LiesysError, SchemaError
from .expr import Chart
from .geometry import VectorField
from .group import ACTIONS, MatrixCurve, act_solve, check_equivariance, sl2_from_coefficients, solve_group_equation
from .pde import PdeSystem, curvature, path_independence_audit, path_solve, pde_superpose, solve_on_grid
from .report import Check, Report
from .superposition import (
    SuperpositionRule,
    derive_k,
    reconstruct,
    verify_along_solutions,
    verify_partial_rule,
    verify_tangency,
)

DEFAULTS = {"tol": 1e-9, "tol_const": 1e-6, "seed": 0, "samples": 24, "t_span": (0.0, 1.0)}

_TOP_KEYS = {
    "chart", "fields", "coefficients", "rule", "action", "pde",
    "t_span", "tol", "tol_const", "seed", "samples",
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
        if not isinstance(comps, list) or not all(isinstance(c, str) for c in comps):
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
    task = dict(DEFAULTS)
    for key in ("tol", "tol_const", "seed", "samples"):
        if doc.get(key) is not None:
            task[key] = doc[key]
        if getattr(args, key, None) is not None:
            task[key] = getattr(args, key)
    span = doc.get("t_span")
    if getattr(args, "t_span", None) is not None:
        span = args.t_span
    if span is not None:
        if len(span) != 2 or not float(span[1]) > float(span[0]):
            raise SchemaError("t_span must be [a, b] with b > a")
        task["t_span"] = (float(span[0]), float(span[1]))
    task["seed"] = int(task["seed"])
    task["samples"] = int(task["samples"])
    return task


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
    report = minimal_m(fields, sample_count=task["samples"], seed=task["seed"])
    checks = [Check("m_determined", True, detail=f"m = {report.m} (r = {report.r})")]
    if doc.get("m") is not None:
        checks.append(Check.equals("m_matches_expected", report.m, int(doc["m"])))
    return _emit(
        Report("m", checks, task["seed"], {"tol": task["tol"]}, {"m": report.m,
               "report": report.to_json_dict()}),
        args,
    )


def cmd_solve(args) -> int:
    doc = load_problem(args.problem)
    task = _task(doc, args)
    sys = _system(doc)
    if doc.get("x0") is None:
        raise SchemaError("solve needs 'x0'")
    trajectory = integrate(sys, doc["x0"], task["t_span"], task["tol"])
    checks = [Check("integrated", True,
                    detail=f"{len(trajectory.t)} nodes, blew_up={trajectory.blew_up}")]
    extra = {"trajectory": trajectory.to_json_dict()}
    out = _csv_dir(args)
    if out:
        trajectory.to_csv(out / "trajectory.csv", sys.chart.names)
    return _emit(Report("solve", checks, task["seed"], {"tol": task["tol"]}, extra), args)


def _points_for_rule(doc, task, sys, rule) -> list:
    """Initial points of the m particular solutions named in the problem file.

    Full rules go through the fundamental-set rank gate; partial rules use
    fewer solutions than a fundamental set by design, so their points are
    taken as given."""
    points = doc.get("initial_points")
    if points is not None and len(points) != rule.m:
        raise SchemaError(f"rule needs {rule.m} initial points, got {len(points)}")
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
    checks, extra = [], {}
    k = args.k if args.k is not None else doc.get("k")
    direct = None
    if k is None:
        # no constants given: derive them from the initial point of x0 and
        # compare the reconstruction against the slot of x0 in the tuple
        if doc.get("x0") is None:
            raise SchemaError("superpose needs 'k' (or 'x0' to derive it from)")
        direct, *trajectories = integrate_tuple(
            sys, [doc["x0"]] + points, task["t_span"], task["tol"]
        )
        k = derive_k(rule, direct.states[0], [tr.states[0] for tr in trajectories])
    else:
        trajectories = integrate_tuple(sys, points, task["t_span"], task["tol"])
    k = np.atleast_1d(np.asarray(k, dtype=float))
    guess = doc.get("x0_guess") or doc.get("x0")
    if rule.phi is None and guess is None:
        raise SchemaError("a rule without phi needs 'x0_guess' (or 'x0') to start the leaf solve")
    rebuilt = reconstruct(rule, trajectories, k, x0_guess=guess)
    drift = verify_along_solutions(rule, sys, [rebuilt] + list(trajectories), task["tol_const"])
    checks.append(Check.limit("reconstructed_psi_drift", drift.max_drift, task["tol_const"]))
    if direct is not None:
        gap = float(np.max(np.abs(rebuilt.states - direct.states)))
        checks.append(Check.limit("reconstruction_vs_direct", gap, 1e-5))
    extra["k"] = [float(v) for v in k]
    extra["slot0"] = rebuilt.to_json_dict()
    out = _csv_dir(args)
    if out:
        rebuilt.to_csv(out / "slot0.csv", sys.chart.names)
        for i, tr in enumerate(trajectories, start=1):
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
    checks, extra = [], {}
    tangency = verify_tangency(rule, fields, seed=task["seed"])
    checks.append(Check("tangency_zero", tangency.all_zero,
                        probabilistic=tangency.probabilistic,
                        detail="; ".join(
                            f"field {c.field_index} psi {c.component}: {c.verdict}"
                            for c in tangency.checks if c.verdict == "nonzero") or "all residuals vanish"))
    if doc.get("coefficients") is not None:
        sys = LieSystem(fields, _coefficients(doc, len(fields)))
        points = _points_for_rule(doc, task, sys, rule)
        if rule.is_partial:
            # the slot-0 curve of a partial rule lives on the constraint
            # submanifold; check it solves the system instead of a drift
            if doc.get("k") is None:
                raise SchemaError("verifying a partial rule against a system needs 'k'")
            trajectories = integrate_tuple(sys, points, task["t_span"], task["tol"])
            report = verify_partial_rule(rule, sys, trajectories, np.atleast_1d(doc["k"]))
            checks.append(Check.limit("ode_residual", report.ode_residual_max, report.tol_ode))
            checks.append(
                Check.limit("constraint_residual", report.constraint_max, report.constraint_tol)
            )
        else:
            x0 = doc.get("x0")
            slot0 = x0 if x0 is not None else [float(v) + 0.1 for v in points[0]]
            tuple_ = integrate_tuple(sys, [slot0] + points, task["t_span"], task["tol"])
            drift = verify_along_solutions(rule, sys, tuple_, task["tol_const"])
            checks.append(
                Check.limit("psi_drift_along_solutions", drift.max_drift, task["tol_const"])
            )
            extra["initial_psi"] = [float(v) for v in drift.initial_values]
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
    checks, extra = [], {}
    if action_doc.get("sl2_coefficients") is not None:
        curves = [CoefficientCurve.from_string(s) for s in action_doc["sl2_coefficients"]]
        a = sl2_from_coefficients(*curves)
        checks.append(Check("traceless", a.trace_is_zero()))
    elif action_doc.get("matrix") is not None:
        a = MatrixCurve.from_strings(action_doc["matrix"])
        curves = None
    else:
        raise SchemaError("action needs 'matrix' or 'sl2_coefficients'")
    g = solve_group_equation(a, task["t_span"], task["tol"])
    checks.append(Check.limit("defect_log", max(d for _, d in g.defect), 10 * task["tol"]))
    dets = g.determinants()
    checks.append(Check("det_nonzero", bool(np.all(np.abs(dets) > 1e-12))))
    if action_doc.get("sl2_coefficients") is not None:
        checks.append(Check.limit("det_equals_one", float(np.max(np.abs(dets - 1.0))), 1e-6))
    x0 = action_doc.get("x0")
    if x0 is not None:
        trajectory = act_solve(a, ACTIONS[name], x0, task["t_span"], task["tol"])
        extra["orbit"] = trajectory.to_json_dict()
        extra["pole_crossings"] = [t for _, t in trajectory.events]
        out = _csv_dir(args)
        if out:
            trajectory.to_csv(out / "orbit.csv")
    if curves is not None and x0 is not None and len(x0) == 2:
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
        if doc.get("x0") is None or doc.get("target") is None:
            raise SchemaError("pde solve needs 'x0' and 'target'")
        result = path_solve(sys, doc["x0"], doc["target"], tol=task["tol"], audit=bool(args.audit))
        checks.append(Check("integrated", True, detail=f"endpoint {result.endpoint.tolist()}"))
        audit = path_independence_audit(
            sys, doc["x0"], doc["target"], path_count=8, tol=task["tol"], seed=task["seed"]
        )
        checks.append(Check.limit("path_independence_spread", audit.spread, 10 * task["tol"]))
        extra["endpoint"] = result.endpoint.tolist()
        extra["spread"] = audit.spread
    else:  # superpose
        if doc.get("rule") is None or doc.get("k") is None:
            raise SchemaError("pde superpose needs 'rule' and 'k'")
        rule = SuperpositionRule.from_json_dict(sys.chart, doc["rule"])
        if doc.get("initial_points") is None or doc.get("target") is None:
            raise SchemaError("pde superpose needs 'initial_points' and 'target'")
        axes = [np.linspace(0.0, float(doc["target"][i]), 11) for i in range(sys.s)]
        grids = [solve_on_grid(sys, p, axes, task["tol"]) for p in doc["initial_points"]]
        guess = doc.get("x0_guess") or grids[0].reshape(-1, sys.n)[0]
        rebuilt = pde_superpose(sys, rule, grids, np.atleast_1d(doc["k"]), guess)
        endpoint = path_solve(sys, rebuilt.reshape(-1, sys.n)[0], doc["target"], tol=task["tol"])
        gap = float(np.max(np.abs(rebuilt[tuple([-1] * sys.s)] - endpoint.endpoint)))
        checks.append(Check.limit("superposition_vs_path_solve", gap, 1e-5))
        extra["slot0_corner"] = rebuilt[tuple([-1] * sys.s)].tolist()
    return _emit(Report(f"pde {args.pde_command}", checks, task["seed"],
                        {"tol": task["tol"]}, extra), args)


def _entry_seed(master: int, name: str) -> int:
    digest = hashlib.sha256(f"{master}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def cmd_examples(args) -> int:
    if args.example_command == "list":
        for name, entry in ENTRIES.items():
            print(f"{name:26s} {entry.summary}")
        return 0
    seed = args.seed if args.seed is not None else DEFAULTS["seed"]
    tol = args.tol if args.tol is not None else DEFAULTS["tol"]
    tol_const = args.tol_const if args.tol_const is not None else DEFAULTS["tol_const"]
    samples = args.samples if args.samples is not None else DEFAULTS["samples"]
    if args.example_command == "run":
        config = RunConfig(_entry_seed(seed, args.name), tol, tol_const, samples)
        checks, extra = get_entry(args.name).run(config)
        report = Report(f"examples run {args.name}", checks, seed,
                        {"tol": tol, "tol_const": tol_const}, extra)
        return _emit(report, args)
    # run-all: the acceptance suite, in catalog order; each entry gets a
    # seed derived from the master seed so results do not depend on order
    checks, extra = [], {}
    for name, entry in ENTRIES.items():
        entry_checks, _ = entry.run(RunConfig(_entry_seed(seed, name), tol, tol_const, samples))
        failed = [c.name for c in entry_checks if not c.passed]
        checks.append(Check(name, not failed,
                            detail=f"{len(entry_checks)} checks" + (f"; failed: {failed}" if failed else "")))
        extra[name] = {"checks": [c.to_json_dict() for c in entry_checks]}
    report = Report("examples run-all", checks, seed,
                    {"tol": tol, "tol_const": tol_const}, extra)
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
    parser.add_argument("--samples", type=int, default=None, help="rank-test sample count")
    parser.add_argument("--t-span", dest="t_span", type=_span, default=None,
                        help="integration interval a,b")
    parser.add_argument("--json", default=None, help="write the JSON report here")
    parser.add_argument("--csv", default=None, help="directory for CSV trajectory dumps")


def _span(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("t-span must be 'a,b'")
    return float(parts[0]), float(parts[1])


def build_parser() -> argparse.ArgumentParser:
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LiesysError as exc:
        report = Report(args.command, [Check("completed", False, detail=str(exc))])
        print(report.render_text())
        return 1


if __name__ == "__main__":
    sys.exit(main())
