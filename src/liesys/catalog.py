"""Bundled example catalog: one entry per worked system, each a runner that
returns named checks.  `examples run-all` on the command line executes the
whole catalog; the acceptance test suite drives the same runners.

An entry runs a problem file shipped in the package's problems/ directory
through the commands' own code (cli.run_closure, run_m, run_verify,
run_superpose, run_group and run_pde), so its checks are the commands'
checks, under the same names and limits.  A rule entry reports closure's
checks and `dimension` (where it names the algebra's dimension), m's, the
rule's own checks of `verify` and superpose's two, on one integrated tuple
of slot 0 from the file's x0 and the particular solutions; a partial rule
reports `verify` against its system.  Python holds only what no
file and no command does: `linear_n`'s system and rule, `euclidean_se2`'s
coefficients drawn from the seed, the planar start of `sl2_group`,
`lemma_counterexample`, and three checks: `dimension`,
`prolonged_span_codimension_is_n` and `rules_genuinely_differ`."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import expr as ex
from .algebra import span_coefficients
from .cli import (pde_system_of, read_problem, rule_of, run_closure, run_group, run_m, run_pde,
                  run_superpose, run_verify, system_of, task_of)
from .dynamics import DEFAULT_TOL, LieSystem
from .expr import Chart, Const, Var
from .geometry import ProductChart, VectorField, diagonal_prolongation, is_diagonal_prolongation
from .group import MatrixCurve
from .report import Check
from .superposition import DEFAULT_TOL_CONST, SuperpositionRule

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


def _problem(name: str, config: RunConfig, **override) -> tuple[dict, dict]:
    """The shipped problem file `name`.json, with `override` in place of its
    keys, and its task: the file's t_span under the config's seed and
    tolerances."""
    doc, task = read_problem(str(PROBLEMS / f"{name}.json"), config)
    return {**doc, **override}, task


def _lie_problem(name: str, config: RunConfig, **override) -> tuple[dict, dict, LieSystem, SuperpositionRule]:
    """_problem with the file's system and rule."""
    doc, task = _problem(name, config, **override)
    sys = system_of(doc)
    return doc, task, sys, rule_of(doc, sys.chart)


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


def _superposition(doc: dict, task: dict, sys: LieSystem, rule: SuperpositionRule) -> tuple[list[Check], list]:
    """The rule's own checks (`verify` without the system), then superpose's
    on one integrated tuple; and the k used."""
    checks, k, *_ = run_superpose(doc, task, sys, rule)
    return run_verify(doc, task, sys.fields, rule)[0] + checks, [float(v) for v in k]


def _run_rule(doc: dict, task: dict, sys: LieSystem, rule: SuperpositionRule,
              dimension: int | None = None) -> tuple[list[Check], dict]:
    """An entry on one full rule: closure's checks and the check that the
    algebra has `dimension` (when given), m's, then _superposition's."""
    checks, extra = [], {}
    if dimension is not None:
        checks, extra = run_closure(doc, sys.fields)
        checks.append(Check.equals("dimension", extra["closure"]["dimension"], dimension))
    more, m_extra = run_m(doc, task, sys.fields)
    rebuilt, k = _superposition(doc, task, sys, rule)
    return checks + more + rebuilt, {**extra, **m_extra, "k_used": k}


# ---------------------------------------------------------------------------
# Entries
# ---------------------------------------------------------------------------


def _run_riccati(config: RunConfig):
    doc, task, sys, rule = _lie_problem("riccati", config)
    checks, extra = _run_rule(doc, task, sys, rule, dimension=3)
    # the prolonged span on N^(m+1) has codimension (m+1)n - r: n exactly when r = m n
    checks.append(Check("prolonged_span_codimension_is_n",
                        (extra["m"] + 1) * sys.dim - extra["closure"]["dimension"] == sys.dim))
    return checks, extra


def _run_linear2(config: RunConfig):
    return _run_rule(*_lie_problem("linear2", config), dimension=4)


def _run_linear_n(config: RunConfig):
    sys = MatrixCurve.from_strings([["0", "1", "0"], ["-1", "0", "t/4"], ["0", "-t/4", "0"]]).system
    doc = {"m": 3, "initial_points": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
           "x0": [0.3, -0.2, 0.5], "t_span": [0.0, 1.0]}
    return _run_rule(doc, task_of(doc, config), sys, linear_rule(sys.chart), dimension=9)


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
            checks, extra = run_m(doc, task, sys.fields)
        rules.append(rule)
        shared, _ = _superposition(doc, task, sys, rule)
        checks += [replace(c, name=f"{label}_{c.name}") for c in shared]
    same = all(ex.canonically_equal(a, b) for a, b in zip(rules[0].psi, rules[1].psi))
    checks.append(Check("rules_genuinely_differ", not same))
    return checks, extra


def _run_sl2_group(config: RunConfig):
    doc, task = _problem("sl2_group", config)
    # the file's curve acting on the plane from (0, 1), whose x1/x2 is the
    # file's Mobius orbit of 0: group_checks adds sl2_riccati_equivariance
    doc["action"] = {**doc["action"], "name": "sl2_linear", "x0": [0.0, 1.0]}
    checks, extra, _ = run_group(doc, task)
    return checks, extra


def _run_pde_riccati(config: RunConfig):
    doc, task = _problem("pde_riccati", config)
    sys = pde_system_of(doc)
    checks, extra = [], {}
    for command in ("check", "solve", "superpose"):
        more, more_extra = run_pde(doc, task, sys, command)
        checks += more
        extra.update(more_extra)
    return checks, extra


def _run_lemma_counterexample(config: RunConfig):
    line = Chart(("x",))
    x1_tilde = diagonal_prolongation(VectorField.from_strings(line, ["1"]), 2)
    x2_tilde = diagonal_prolongation(VectorField.from_strings(line, ["x"]), 2)
    names = x1_tilde.chart.names
    combination = x1_tilde.scale(ex.parse("x_0*x_1", names)) + x2_tilde.scale(ex.parse("-(x_0 + x_1)", names))
    decision = is_diagonal_prolongation(combination)
    minus_x2 = VectorField.from_strings(line, ["-x^2"])
    base_matches = decision.is_prolongation and all(
        ex.canonically_equal(a, b) for a, b in zip(decision.base.components, minus_x2.components))
    checks = [Check("functional_combination_is_prolongation", base_matches),
              Check("not_in_constant_span", not span_coefficients(combination, [x1_tilde, x2_tilde]).in_span)]
    return checks, {
        "combination": [str(c) for c in combination.components],
        "witness_base": None if decision.base is None else [str(c) for c in decision.base.components],
    }


def _run_partial(config: RunConfig, name: str):
    """The partial rule of the problem file `name`, checked against its
    system as `liesys verify` checks it, with verify's `initial_psi`."""
    doc, task, sys, rule = _lie_problem(name, config)
    checks, extra = run_verify(doc, task, sys.fields, rule, sys)
    return checks, {"rule": rule.to_json_dict(), **extra}


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

