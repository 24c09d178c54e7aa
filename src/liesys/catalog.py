"""Bundled example catalog: one entry per worked system, each a runner that
returns named checks.  `examples run-all` on the command line executes the
whole catalog; the acceptance test suite drives the same runners.

An entry that runs a problem is built by _entry from a function that
returns the problem's doc and the names of the rows of
cli.PROBLEM_COMMANDS it runs.  The rows run in order on one cli.Problem,
so an entry's checks are the commands' checks, under the same names and
limits, on one parse of its doc, and its extra is the merge of the rows'
extras.  An entry that runs both closure and m ends
with the paper's uniqueness condition r = m n
(`prolonged_span_codimension_is_n`), derived from the two rows' extras.

Each doc is a problem file shipped in the package's problems/ directory;
only euclidean_se2 changes its file, redrawing the coefficients from the
seed.  Only translation_nonunique (two files, prefixed check names and
`rules_genuinely_differ`) and lemma_counterexample (no problem file) have
runners of their own.  gl_fields and linear_rule, the generators of
linear3.json, are kept for the benchmark."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

from . import expr as ex
from .algebra import span_coefficients
from .cli import PROBLEM_COMMANDS, Problem, load_problem
from .dynamics import DEFAULT_TOL
from .errors import SchemaError
from .expr import Chart, Const, Var
from .geometry import ProductChart, VectorField, diagonal_prolongation, is_diagonal_prolongation
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


PROBLEMS = Path(__file__).with_name("problems")


def _gl_components(names: Sequence[str]) -> list[list[str]]:
    """The components of x^j d/dx^i on the coordinates `names`, for each i, then each j."""
    n = len(names)
    return [[names[j] if p == i else "0" for p in range(n)] for i in range(n) for j in range(n)]


def gl_fields(chart: Chart) -> list[VectorField]:
    """Basis x^j d/dx^i of the full linear algebra on the chart."""
    return [VectorField.from_strings(chart, comps) for comps in _gl_components(chart.names)]


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


# ---------------------------------------------------------------------------
# Entries
# ---------------------------------------------------------------------------


def _run(problem: Problem, parts: Sequence[str]) -> tuple[list[Check], dict]:
    """The checks of the PROBLEM_COMMANDS rows `parts`, run in order on
    `problem`, and the merge of their extras; when the parts run both
    closure and m, the paper's uniqueness condition r = m n last."""
    checks, extra = [], {}
    for part in parts:
        more, more_extra, _ = PROBLEM_COMMANDS[part].run(problem)
        checks += more
        extra.update(more_extra)
    if {"closure", "m"} <= set(parts):
        # the prolonged span on N^(m+1) has codimension (m+1)n - r: n exactly when r = m n
        checks.append(Check("prolonged_span_codimension_is_n",
                            extra["closure"]["dimension"] == extra["m"] * problem.chart.dim))
    return checks, extra


def _entry(name: str, summary: str, doc_of: Callable[[RunConfig], dict], parts: Sequence[str]) -> CatalogEntry:
    """An entry that runs `parts` on the Problem of doc_of(config)."""
    return CatalogEntry(name, summary, lambda config: _run(Problem(doc_of(config), config), parts))


def _shipped(name: str, config: RunConfig | None = None) -> dict:
    """The problem file `name`.json shipped with the package, the same under every config."""
    return load_problem(str(PROBLEMS / f"{name}.json"))


def _random_quadratic(rng: random.Random) -> str:
    """c0 + c1 t + c2 t^2 with each c drawn from [-1, 1] in steps of 1/1000."""
    t = Var("t")
    c = [Fraction(rng.randint(-1000, 1000), 1000) for _ in range(3)]
    return str(Const(c[0]) + Const(c[1]) * t + Const(c[2]) * (t**2))


def _euclidean_doc(config: RunConfig) -> dict:
    rng = random.Random(config.seed)
    return {**_shipped("euclidean"), "coefficients": [_random_quadratic(rng) for _ in range(3)]}


def _run_translation(config: RunConfig):
    problems = [Problem(_shipped(name), config) for name in ("translation", "translation_alt")]
    checks, extra = _run(problems[0], ("m",))  # both files hold the same system
    for label, problem in zip(("standard", "skewed"), problems):
        shared, _ = _run(problem, ("superpose",))
        checks += [replace(c, name=f"{label}_{c.name}") for c in shared]
    same = all(ex.canonically_equal(a, b) for a, b in zip(problems[0].rule.psi, problems[1].rule.psi))
    checks.append(Check("rules_genuinely_differ", not same))
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


_RULE = ("m", "superpose")
_CLOSED_RULE = ("closure", *_RULE)

ENTRIES: dict[str, CatalogEntry] = {
    entry.name: entry
    for entry in (
        _entry("riccati", "Riccati equation: sl(2) closure, m=3, cross-ratio rule", partial(_shipped, "riccati"), _CLOSED_RULE),
        _entry("linear2", "2-dimensional linear system: m=2, weighted-sum rule", partial(_shipped, "linear2"), _CLOSED_RULE),
        _entry("linear_n", "3-dimensional linear system: m=3, weighted-sum rule", partial(_shipped, "linear3"), _CLOSED_RULE),
        _entry("euclidean_se2", "Euclidean-group system: m=2, two distance integrals", _euclidean_doc, _RULE),
        _entry("separable_invsq", "separable equation with inverse closed form, m=1", partial(_shipped, "separable_invsq"), _RULE),
        CatalogEntry("translation_nonunique", "planar translations: two inequivalent rules", _run_translation),
        _entry("sl2_group", "right-invariant sl(2) equation, Mobius orbits, equivariance", partial(_shipped, "sl2_linear"), ("group",)),
        _entry("pde_riccati", "PDE Riccati family: flatness, paths, grid superposition", partial(_shipped, "pde_riccati"),
               ("pde check", "pde solve", "pde superpose")),
        CatalogEntry("lemma_counterexample", "functional combination of prolongations with nonconstant coefficients", _run_lemma_counterexample),
        _entry("partial_linear_rank1", "rank-1 rule from one solution of the linear system", partial(_shipped, "partial_rank1"), ("verify",)),
        _entry("partial_linear_rank1_m2", "rank-1 rule from two solutions of the linear system", partial(_shipped, "partial_rank1_m2"), ("verify",)),
    )
}


def get_entry(name: str) -> CatalogEntry:
    """The entry `name`; an unknown name is a SchemaError, which the command line reports."""
    if name not in ENTRIES:
        raise SchemaError(f"unknown catalog entry {name!r}; known: {', '.join(ENTRIES)}")
    return ENTRIES[name]
