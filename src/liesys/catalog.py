"""Bundled example catalog: one entry per worked system, each a runner that
returns named checks.  `examples run-all` on the command line executes the
whole catalog; the acceptance test suite drives the same runners.

An entry with a problem file reads the file shipped in the package's
problems/ directory with the loaders of the command line, and builds its
checks with the same builders, under the same check names and limits: the
rule entries with superposition.rule_checks, then superpose_checks on one
integrated tuple for a full rule (as `liesys superpose`) or solution_checks
for a partial one (as `liesys verify`), after algebra.m_checks (and
closure_checks where they name the algebra's dimension); `sl2_group` with
group.group_checks (`liesys group`), and `pde_riccati` with
pde.flatness_checks, path_checks and grid_superpose_checks (`liesys pde`).
`euclidean_se2` redraws its coefficients from the seed in place of the
file's.  Python holds only what no file does: `linear_n` and
`lemma_counterexample`, the planar start and random triples of `sl2_group`,
and the checks with no command behind them."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from . import expr as ex
from .algebra import closure_checks, m_checks, span_coefficients
from .cli import (_constants, _group_problem, _numbers, _pde_system, _points_for_rule, _rule,
                  _superpose_inputs, _system, _task, load_problem)
from .dynamics import DEFAULT_TOL, CoefficientCurve, LieSystem
from .expr import Chart, Const, Var
from .geometry import ProductChart, VectorField, diagonal_prolongation, is_diagonal_prolongation
from .group import (
    LINEAR_SL2,
    MatrixCurve,
    check_equivariance,
    group_checks,
    orbit_of,
    sl2_from_coefficients,
    solve_group_equation,
)
from .pde import (
    curvature,
    flatness_checks,
    grid_superpose_checks,
    path_checks,
    path_independence_audit,
)
from .report import Check
from .superposition import (
    DEFAULT_TOL_CONST,
    SuperpositionRule,
    rule_checks,
    solution_checks,
    superpose_checks,
)

__all__ = ["RunConfig", "CatalogEntry", "ENTRIES", "get_entry"]


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    tol: float = DEFAULT_TOL
    tol_const: float = DEFAULT_TOL_CONST


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    summary: str
    runner: Callable[[RunConfig], tuple[list[Check], dict]]

    def run(self, config: RunConfig | None = None) -> tuple[list[Check], dict]:
        return self.runner(config or RunConfig())


# ---------------------------------------------------------------------------
# Shared builders
# ---------------------------------------------------------------------------

PROBLEMS = Path(__file__).with_name("problems")
LINE = Chart(("x",))
PLANE = Chart(("x", "y"))


def _problem(name: str, config: RunConfig, **override) -> tuple[dict, dict]:
    """The shipped problem file `name`.json, with `override` in place of its
    keys, and its task: the file's t_span under the config's seed and
    tolerances."""
    doc = {**load_problem(str(PROBLEMS / f"{name}.json")), **override}
    return doc, _task(doc, config)


def _lie_problem(name: str, config: RunConfig, **override) -> tuple[dict, dict, LieSystem, SuperpositionRule]:
    """_problem with the file's system and rule."""
    doc, task = _problem(name, config, **override)
    sys = _system(doc)
    return doc, task, sys, _rule(doc, sys.chart)


def gl_fields(chart: Chart) -> list[VectorField]:
    """Basis x^j d/dx^i of the full linear algebra on the chart."""
    n = chart.dim
    fields = []
    for i in range(n):
        for j in range(n):
            comps = ["0"] * n
            comps[i] = chart.names[j]
            fields.append(VectorField.from_strings(chart, comps))
    return fields


def _det(rows: list[list[ex.Expr]]) -> ex.Expr:
    if len(rows) == 1:
        return rows[0][0]
    terms = []
    for j in range(len(rows)):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = ex.Mul((rows[0][j], _det(minor)))
        terms.append(term if j % 2 == 0 else -term)
    return ex.Add(tuple(terms))


def linear_rule(chart: Chart) -> SuperpositionRule:
    """The standard rule of the n-dimensional linear system: phi is the
    k-weighted sum of n particular solutions, psi the Cramer inverse."""
    n = chart.dim
    product = ProductChart.of(chart, n + 1)
    col = lambda a: [Var(product.slot_var(v, a)) for v in chart.names]
    solution_matrix = [[col(a)[i] for a in range(1, n + 1)] for i in range(n)]
    d = _det(solution_matrix)
    psi = []
    for j in range(n):
        replaced = [
            [col(0)[i] if a == j else solution_matrix[i][a] for a in range(n)]
            for i in range(n)
        ]
        psi.append(ex.canonical_expr(ex.Div(_det(replaced), d)))
    phi = []
    for i in range(n):
        phi.append(
            ex.canonical_expr(
                ex.Add(tuple(ex.Mul((Var(f"k{a}"), col(a)[i])) for a in range(1, n + 1)))
            )
        )
    return SuperpositionRule(chart, n, n, tuple(psi), tuple(phi))


def _superposition(doc: dict, task: dict, sys: LieSystem,
                   rule: SuperpositionRule) -> tuple[list[Check], np.ndarray]:
    """The rule's checks, then superpose_checks on the inputs that `liesys
    superpose` reads from `doc`; and the k used."""
    points, k, x0, guess = _superpose_inputs(doc, task, sys, rule)
    checks, k, *_ = superpose_checks(rule, sys, points, task["t_span"], task["tol"],
                                     task["tol_const"], k=k, x0=x0, x0_guess=guess)
    return rule_checks(rule, sys.fields, task["seed"]) + checks, k


def _run_rule(doc: dict, task: dict, sys: LieSystem, rule: SuperpositionRule,
              dimension: int | None = None) -> tuple[list[Check], dict]:
    """An entry on one full rule: the closure checks and the check that the
    algebra has `dimension` (when given), the m checks, then the rule's
    checks with x0's solution rebuilt from the particular ones."""
    checks, extra = [], {}
    if dimension is not None:
        checks, extra = closure_checks(sys.fields)
        checks.append(Check.equals("dimension", extra["closure"]["dimension"], dimension))
    more, m_extra = m_checks(sys.fields, task["seed"], _numbers(doc.get("m"), "m", kind="integer"))
    rebuilt, k = _superposition(doc, task, sys, rule)
    return checks + more + rebuilt, {**extra, **m_extra, "k_used": [float(v) for v in k]}


# ---------------------------------------------------------------------------
# Entries
# ---------------------------------------------------------------------------


def _run_riccati(config: RunConfig):
    doc, task, sys, rule = _lie_problem("riccati", config)
    checks, extra = _run_rule(doc, task, sys, rule, dimension=3)
    expected = {(0, 1): ["1", "0", "0"], (0, 2): ["0", "2", "0"], (1, 2): ["0", "0", "1"]}
    got = {tuple(c["pair"]): c["c"] for c in extra["closure"]["constants"]}
    checks += [
        Check.equals("closure_constants_exact", got, expected),
        # the prolonged span on N^(m+1) has codimension (m+1)n - r: n exactly when r = m n
        Check("prolonged_span_codimension_is_n",
              (extra["m"] + 1) * sys.dim - extra["closure"]["dimension"] == sys.dim),
    ]
    return checks, extra


def _run_linear2(config: RunConfig):
    return _run_rule(*_lie_problem("linear2", config), dimension=4)


def _run_linear_n(config: RunConfig):
    sys = MatrixCurve.from_strings([["0", "1", "0"], ["-1", "0", "t/4"], ["0", "-t/4", "0"]]).system
    doc = {"m": 3, "initial_points": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
           "x0": [0.3, -0.2, 0.5], "t_span": [0.0, 1.0]}
    return _run_rule(doc, _task(doc, config), sys, linear_rule(sys.chart), dimension=9)


def _random_quadratic(rng: random.Random) -> str:
    """c0 + c1 t + c2 t^2 with each c drawn from [-1, 1] in steps of 1/1000."""
    t = Var("t")
    c = [Fraction(rng.randint(-1000, 1000), 1000) for _ in range(3)]
    return str(Const(c[0]) + Const(c[1]) * t + Const(c[2]) * (t**2))


def _run_euclidean(config: RunConfig):
    rng = random.Random(config.seed)
    return _run_rule(*_lie_problem("euclidean", config, coefficients=[_random_quadratic(rng) for _ in range(3)]))


def _run_separable(config: RunConfig):
    return _run_rule(*_lie_problem("separable_invsq", config))


def _run_translation(config: RunConfig):
    checks, rules = [], []
    for label, name in (("standard", "translation"), ("skewed", "translation_alt")):
        doc, task, sys, rule = _lie_problem(name, config)
        if not rules:  # both files hold the same system
            checks, extra = m_checks(sys.fields, task["seed"], _numbers(doc.get("m"), "m", kind="integer"))
        rules.append(rule)
        shared, _ = _superposition(doc, task, sys, rule)
        checks += [replace(c, name=f"{label}_{c.name}") for c in shared]
    same = all(ex.canonically_equal(a, b) for a, b in zip(rules[0].psi, rules[1].psi))
    checks.append(Check("rules_genuinely_differ", not same))
    return checks, extra


def _run_sl2_group(config: RunConfig):
    doc, task = _problem("sl2_group", config)
    mobius_action, a, mobius_x0 = _group_problem(doc)
    # the Mobius image of 0 is x1/x2 of the planar solution from (0, 1):
    # group_checks compares them in sl2_riccati_equivariance
    checks, g, planar = group_checks(a, task["t_span"], task["tol"], LINEAR_SL2, [0.0, 1.0])
    # closed forms of the file's rotation curve (1, 0, 1) and Mobius start 0
    t = g.t
    rotation = np.stack([np.stack([np.cos(t), np.sin(t)], -1), np.stack([-np.sin(t), np.cos(t)], -1)], 1)
    mobius = orbit_of(g, mobius_action, mobius_x0)
    column = np.stack([np.sin(t), np.cos(t)], -1)
    checks += [
        Check.limit("rotation_closed_form", float(np.max(np.abs(g.matrices - rotation))), 1e-6),
        Check.limit("mobius_orbit_is_tan", float(np.max(np.abs(mobius.states[:, 0] - np.tan(t)))), 1e-6),
        Check.limit("linear_orbit_is_exp_column", float(np.max(np.abs(planar.states - column))), 1e-6),
    ]

    rng = random.Random(config.seed)
    worst_dev, worst_det = 0.0, 0.0
    for _ in range(5):
        b = [CoefficientCurve.constant(Fraction(rng.randint(-1000, 1000), 1000)) for _ in range(3)]
        x2 = rng.choice([-1, 1]) * rng.uniform(0.6, 1.5)
        x0 = [rng.uniform(-1, 1), x2]
        rep = check_equivariance(b, x0, (0.0, 1.0), config.tol)
        worst_dev = max(worst_dev, rep.max_deviation)
        g = solve_group_equation(sl2_from_coefficients(*b), (0.0, 1.0), config.tol)
        worst_det = max(worst_det, float(np.max(np.abs(g.determinants() - 1.0))))
    checks.append(Check.limit("equivariance_random_triples", worst_dev, 1e-6))
    checks.append(Check.limit("equivariance_det_drift", worst_det, 1e-6))
    return checks, {"pole_events": list(mobius.events)}


def _run_pde_riccati(config: RunConfig):
    doc, task = _problem("pde_riccati", config)
    flat = _pde_system(doc)
    checks, _ = flatness_checks(flat)

    # the non-flat member of the family, whose curvature residual is u
    nonflat_doc, _ = _problem("pde_nonflat", config)
    nonflat = _pde_system(nonflat_doc)
    nonflat_report = curvature(nonflat)
    residual_is_u = ex.canonically_equal(nonflat_report.residuals[(0, 1)][0], Var("u"))
    checks.append(Check("nonflat_residual_is_u", residual_is_u and not nonflat_report.flat))

    target = _numbers(doc.get("target"), "target", (flat.s,), "positive")
    checks += path_checks(flat, _numbers(doc.get("x0"), "x0", (flat.n,)), target, task["tol"], task["seed"])[0]
    bad_audit = path_independence_audit(
        nonflat, _numbers(nonflat_doc.get("x0"), "x0", (nonflat.n,)),
        _numbers(nonflat_doc.get("target"), "target", (nonflat.s,), "nonnegative"), 8, task["tol"], task["seed"])
    checks.append(
        Check(
            "nonflat_path_spread_detectable",
            bad_audit.spread > 1e-3,
            value=bad_audit.spread,
            detail="spread must exceed 1e-3",
        )
    )

    rule = _rule(doc, flat.chart)
    k = _constants(doc.get("k"), rule)
    grid_checks, rebuilt = grid_superpose_checks(
        flat, rule, k, _numbers(doc.get("initial_points"), "initial_points", (rule.m, flat.n)), target,
        task["tol"], _numbers(doc.get("x0_guess"), "x0_guess", (flat.n,)))
    # slot 0 solves u' = u^2 along t1 + t2 from its value u0 at the origin
    u0 = rebuilt[0, 0, 0]
    t1, t2 = np.meshgrid(np.linspace(0.0, target[0], 11), np.linspace(0.0, target[1], 11), indexing="ij")
    gap = float(np.max(np.abs(rebuilt[:, :, 0] - u0 / (1 - u0 * (t1 + t2)))))
    checks += [Check.limit("grid_superposition_vs_closed_form", gap, 1e-5), *grid_checks]
    return checks, {"k_used": k[0]}


def _run_lemma_counterexample(config: RunConfig):
    base = VectorField.from_strings(LINE, ["1"])
    linear = VectorField.from_strings(LINE, ["x"])
    x1_tilde = diagonal_prolongation(base, 2)
    x2_tilde = diagonal_prolongation(linear, 2)
    product = x1_tilde.chart
    b1 = ex.parse("x_0*x_1", product.names)
    b2 = ex.parse("-(x_0 + x_1)", product.names)
    combination = x1_tilde.scale(b1) + x2_tilde.scale(b2)
    checks: list[Check] = []
    decision = is_diagonal_prolongation(combination)
    minus_x2 = VectorField.from_strings(LINE, ["-x^2"])
    base_matches = decision.is_prolongation and all(
        ex.canonically_equal(a, b)
        for a, b in zip(decision.base.components, minus_x2.components)
    )
    checks.append(Check("functional_combination_is_prolongation", base_matches))
    span = span_coefficients(combination, [x1_tilde, x2_tilde])
    checks.append(Check("not_in_constant_span", not span.in_span))

    rng = random.Random(config.seed)
    round_trip = True
    for _ in range(5):
        comps = []
        for _ in range(2):
            c = [Fraction(rng.randint(-300, 300), 100) for _ in range(3)]
            comps.append(str(Const(c[0]) + Const(c[1]) * Var("x") + Const(c[2]) * Var("y") ** 2))
        f = VectorField.from_strings(PLANE, comps)
        copies = rng.choice([2, 3, 4])
        verdict = is_diagonal_prolongation(diagonal_prolongation(f, copies))
        round_trip = round_trip and verdict.is_prolongation and all(
            ex.canonically_equal(a, b) for a, b in zip(verdict.base.components, f.components)
        )
    checks.append(Check("prolongation_round_trip", round_trip))
    return checks, {
        "combination": [str(c) for c in combination.components],
        "witness_base": None if decision.base is None else [str(c) for c in decision.base.components],
    }


def _run_partial(config: RunConfig, name: str):
    """The partial rule of the problem file `name`, checked against its
    system as `liesys verify` checks it."""
    doc, task, sys, rule = _lie_problem(name, config)
    checks = rule_checks(rule, sys.fields, task["seed"]) + solution_checks(
        rule, sys, _points_for_rule(doc, task, sys, rule), task["t_span"], task["tol"],
        task["tol_const"], k=_constants(doc.get("k"), rule))[0]
    return checks, {"rule": rule.to_json_dict()}


def _run_partial_rank1(config: RunConfig):
    return _run_partial(config, "partial_rank1")


def _run_partial_rank1_m2(config: RunConfig):
    return _run_partial(config, "partial_rank1_m2")


ENTRIES: dict[str, CatalogEntry] = {
    entry.name: entry
    for entry in (
        CatalogEntry("riccati", "Riccati equation: sl(2) closure, m=3, cross-ratio rule", _run_riccati),
        CatalogEntry("linear2", "2-dimensional linear system: m=2, weighted-sum rule", _run_linear2),
        CatalogEntry("linear_n", "3-dimensional linear system: m=3, weighted-sum rule", _run_linear_n),
        CatalogEntry("euclidean_se2", "Euclidean-group system: m=2, two distance integrals", _run_euclidean),
        CatalogEntry("separable_invsq", "separable equation with inverse closed form, m=1", _run_separable),
        CatalogEntry("translation_nonunique", "planar translations: two inequivalent rules", _run_translation),
        CatalogEntry("sl2_group", "right-invariant sl(2) equation, Mobius orbits, equivariance", _run_sl2_group),
        CatalogEntry("pde_riccati", "PDE Riccati family: flatness, paths, grid superposition", _run_pde_riccati),
        CatalogEntry("lemma_counterexample", "functional combination of prolongations with nonconstant coefficients", _run_lemma_counterexample),
        CatalogEntry("partial_linear_rank1", "rank-1 rule from one solution of the linear system", _run_partial_rank1),
        CatalogEntry("partial_linear_rank1_m2", "rank-1 rule from two solutions of the linear system", _run_partial_rank1_m2),
    )
}


def get_entry(name: str) -> CatalogEntry:
    try:
        return ENTRIES[name]
    except KeyError:
        raise KeyError(f"unknown catalog entry {name!r}; known: {', '.join(ENTRIES)}") from None

