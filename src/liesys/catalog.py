"""Bundled example catalog: one entry per worked system, each exposing the
problem data and a runner that returns named checks.  `examples run-all`
on the command line executes the whole catalog; the acceptance test suite
drives the same runners.

Entries build their checks with the builders of the command line, under the
same check names and limits: the rule entries with superposition.rule_checks,
then superpose_checks on one integrated tuple for a full rule or
solution_checks for a partial one, after algebra.m_checks (and
closure_checks where they name the algebra's dimension); `sl2_group` with
group.group_checks (`liesys group`), and `pde_riccati` with
pde.flatness_checks, path_checks and grid_superpose_checks (`liesys pde`).
Checks with no command behind them stay in the entries."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from . import expr as ex
from .algebra import closure_checks, m_checks, span_coefficients
from .dynamics import DEFAULT_TOL, CoefficientCurve, LieSystem
from .expr import Chart, Const, Var
from .geometry import ProductChart, VectorField, diagonal_prolongation, is_diagonal_prolongation
from .group import (
    LINEAR_SL2,
    MOBIUS,
    MatrixCurve,
    check_equivariance,
    group_checks,
    orbit_of,
    riccati_system,
    sl2_from_coefficients,
    solve_group_equation,
)
from .pde import (
    PdeSystem,
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

LINE = Chart(("x",))
PLANE = Chart(("x", "y"))


def cross_ratio_rule_on(name: str) -> SuperpositionRule:
    """The Riccati rule on the line with coordinate `name`: psi is the cross
    ratio of slot 0 with slots 1..3, phi its inverse in slot 0."""
    chart = Chart((name,))
    v = lambda a: f"{name}_{a}"
    return SuperpositionRule.from_strings(
        chart, 3, 1,
        psi=[f"(({v(0)} - {v(1)})*({v(2)} - {v(3)}))/(({v(0)} - {v(2)})*({v(1)} - {v(3)}))"],
        phi=[
            f"(({v(1)} - {v(3)})*{v(2)}*k1 + {v(1)}*({v(3)} - {v(2)}))"
            f"/(({v(1)} - {v(3)})*k1 + ({v(3)} - {v(2)}))"
        ],
    )


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


def _linear2_system() -> LieSystem:
    return MatrixCurve.from_strings([["t/4", "1"], ["-1", "-t/4"]]).system


def _random_quadratic_curve(rng: random.Random) -> CoefficientCurve:
    t = Var("t")
    c = [Fraction(rng.randint(-1000, 1000), 1000) for _ in range(3)]
    return CoefficientCurve(expression=Const(c[0]) + Const(c[1]) * t + Const(c[2]) * (t**2))


def _run_rule(config: RunConfig, sys: LieSystem, rule: SuperpositionRule, m: int,
              x0: list[float], points: list[list[float]], t_span: tuple[float, float],
              dimension: int | None = None) -> tuple[list[Check], dict]:
    """An entry on one full rule: the closure checks and the check that the
    algebra has `dimension` (when given), the m checks, then the rule's
    checks with x0's solution rebuilt from `points`."""
    checks, extra = [], {}
    if dimension is not None:
        checks, extra = closure_checks(sys.fields)
        checks.append(Check.equals("dimension", extra["closure"]["dimension"], dimension))
    more, m_extra = m_checks(sys.fields, config.seed, m)
    checks += more + rule_checks(rule, sys.fields, config.seed)
    rebuilt, k, *_ = superpose_checks(rule, sys, points, t_span, config.tol, config.tol_const, x0=x0)
    return checks + rebuilt, {**extra, **m_extra, "k_used": [float(v) for v in k]}


# ---------------------------------------------------------------------------
# Entries
# ---------------------------------------------------------------------------


def _run_riccati(config: RunConfig):
    sys = riccati_system(*(CoefficientCurve.from_string(s) for s in ("1", "0", "1")))
    checks, extra = _run_rule(config, sys, cross_ratio_rule_on("x"), 3, [-0.5],
                              [[-2.0], [-1.0], [0.0]], (0.0, 1.2), dimension=3)
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
    sys = _linear2_system()
    return _run_rule(config, sys, linear_rule(sys.chart), 2,
                     [0.4, -0.3], [[1.0, 0.0], [0.0, 1.0]], (0.0, 2.0), dimension=4)


def _run_linear_n(config: RunConfig):
    sys = MatrixCurve.from_strings([["0", "1", "0"], ["-1", "0", "t/4"], ["0", "-t/4", "0"]]).system
    return _run_rule(config, sys, linear_rule(sys.chart), 3, [0.3, -0.2, 0.5],
                     [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], (0.0, 1.0), dimension=9)


def _run_euclidean(config: RunConfig):
    rng = random.Random(config.seed)
    fields = [VectorField.from_strings(PLANE, comps) for comps in (["1", "0"], ["0", "1"], ["y", "-x"])]
    sys = LieSystem(fields, [_random_quadratic_curve(rng) for _ in range(3)])
    rule = SuperpositionRule.from_strings(
        PLANE, 2, 2, psi=["(x_0 - x_1)^2 + (y_0 - y_1)^2", "(x_0 - x_2)^2 + (y_0 - y_2)^2"]
    )
    return _run_rule(config, sys, rule, 2, [-0.4, 0.7], [[1.0, 0.0], [0.0, 1.0]], (0.0, 1.0))


def _run_separable(config: RunConfig):
    sys = LieSystem([VectorField.from_strings(LINE, ["x^2"])], [CoefficientCurve.from_string("1 + t/2")])
    rule = SuperpositionRule.from_strings(LINE, 1, 1, psi=["1/x_1 - 1/x_0"], phi=["x_1/(1 - k1*x_1)"])
    return _run_rule(config, sys, rule, 1, [1 / 3], [[0.5]], (0.0, 1.0))


def _run_translation(config: RunConfig):
    sys = LieSystem([VectorField.from_strings(PLANE, ["1", "0"])], [CoefficientCurve.from_string("1 - t/3")])
    checks, extra = m_checks(sys.fields, config.seed, 1)
    standard = SuperpositionRule.from_strings(
        PLANE, 1, 2, psi=["x_0 - x_1", "y_0 - y_1"], phi=["x_1 + k1", "y_1 + k2"]
    )
    skewed = SuperpositionRule.from_strings(
        PLANE, 1, 2, psi=["x_0 - x_1", "y_0 + y_1^3"], phi=["x_1 + k1", "k2 - y_1^3"]
    )
    for label, rule in (("standard", standard), ("skewed", skewed)):
        shared = rule_checks(rule, sys.fields, config.seed) + superpose_checks(
            rule, sys, [[-1.0, 0.4]], (0.0, 1.0), config.tol, config.tol_const, x0=[0.2, -0.6]
        )[0]
        checks += [replace(c, name=f"{label}_{c.name}") for c in shared]
    same = all(ex.canonically_equal(a, b) for a, b in zip(standard.psi, skewed.psi))
    checks.append(Check("rules_genuinely_differ", not same))
    return checks, extra


def _run_sl2_group(config: RunConfig):
    one, zero = CoefficientCurve.from_string("1"), CoefficientCurve.from_string("0")
    # the Mobius image of 0 is x1/x2 of the planar solution from (0, 1):
    # group_checks compares them in sl2_riccati_equivariance
    checks, g, planar = group_checks(sl2_from_coefficients(one, zero, one), (0.0, 1.2), config.tol,
                                     LINEAR_SL2, [0.0, 1.0])
    t = g.t
    rotation = np.stack([np.stack([np.cos(t), np.sin(t)], -1), np.stack([-np.sin(t), np.cos(t)], -1)], 1)
    mobius = orbit_of(g, MOBIUS, [0.0])
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
    flat = PdeSystem.from_strings(
        2,
        ["u"],
        [["u^2"], ["u^2"]],
        decomposition={"u": [["0", "0", "1"], ["0", "0", "1"]], "basis": [["1"], ["u"], ["u^2"]]},
    )
    checks, _ = flatness_checks(flat)

    nonflat = PdeSystem.from_strings(2, ["u"], [["u"], ["t1*u"]])
    nonflat_report = curvature(nonflat)
    residual_is_u = ex.canonically_equal(nonflat_report.residuals[(0, 1)][0], Var("u"))
    checks.append(Check("nonflat_residual_is_u", residual_is_u and not nonflat_report.flat))

    checks += path_checks(flat, [0.5], [0.4, 0.3], config.tol, config.seed)[0]
    bad_audit = path_independence_audit(nonflat, [1.0], [1.0, 1.0], 8, config.tol, config.seed)
    checks.append(
        Check(
            "nonflat_path_spread_detectable",
            bad_audit.spread > 1e-3,
            value=bad_audit.spread,
            detail="spread must exceed 1e-3",
        )
    )

    u0s = [-1.0, -2.0, 0.5]
    target = 0.25
    k = (target - u0s[0]) * (u0s[1] - u0s[2]) / ((target - u0s[1]) * (u0s[0] - u0s[2]))
    grid_checks, rebuilt = grid_superpose_checks(flat, cross_ratio_rule_on("u"), [k], [[u] for u in u0s],
                                                 [0.5, 0.5], config.tol, [target])
    t1, t2 = np.meshgrid(np.linspace(0.0, 0.5, 11), np.linspace(0.0, 0.5, 11), indexing="ij")
    closed_form = target / (1 - target * (t1 + t2))
    gap = float(np.max(np.abs(rebuilt[:, :, 0] - closed_form)))
    checks += [Check.limit("grid_superposition_vs_closed_form", gap, 1e-5), *grid_checks]
    return checks, {"k_used": float(k)}


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


def _partial_linear(config: RunConfig, psi: str, phi: list[str], constraint: str,
                    points: list[list[float]]):
    """A rank-1 partial rule of the linear2 system from len(points) solutions,
    with k1 = 0.7."""
    sys = _linear2_system()
    rule = SuperpositionRule.from_strings(
        sys.chart, len(points), 1, psi=[psi], phi=phi, constraints=[constraint]
    )
    checks = rule_checks(rule, sys.fields, config.seed) + solution_checks(
        rule, sys, points, (0.0, 1.0), config.tol, config.tol_const, k=[0.7]
    )[0]
    return checks, {"rule": rule.to_json_dict()}


def _run_partial_rank1(config: RunConfig):
    return _partial_linear(config, "x1_0/x1_1", ["k1*x1_1", "k1*x2_1"],
                           "x1_0*x2_1 - x2_0*x1_1", [[0.8, -0.5]])


def _run_partial_rank1_m2(config: RunConfig):
    return _partial_linear(config, "(x1_0 - x1_1)/x1_2", ["x1_1 + k1*x1_2", "x2_1 + k1*x2_2"],
                           "x1_2*(x2_0 - x2_1) - x2_2*(x1_0 - x1_1)", [[0.8, -0.5], [-0.3, 0.9]])


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

