"""First-order PDE systems dx/dt^a = Y_a(t, x): symbolic zero-curvature
checks, staircase path solving with path-independence audits, and the
superposition rule of the ODE case carried over to parameter grids.

`curvature` is the one flatness verdict: the x-components of the brackets
of the lifted fields d/dt^a + Y_a, each decided by expr.is_zero.  Each
system decides it once, on first read of PdeSystem.curvature_report,
which every check below reads.  A Lie decomposition Y_a = sum u_a^alpha(t)
X_alpha, when given, is checked exactly against the fields on
construction, and serves only to decide a grid rule on its basis.

`flatness_checks`, `path_checks` and `grid_superpose_checks` turn these
into the named checks of `liesys pde` and of the catalog.  The last two
decide flatness once per command, before anything is integrated, and
`grid_superpose_checks` first decides the rule on the decomposition basis
by superposition.rule_checks, as `verify` does on a system's fields;
`path_solve`, `solve_on_grid` and `pde_superpose` take these decisions
as given.  By Frobenius a flat system's solution does not depend on the
path, so `path_checks` integrates one staircase when
flatness is exact, and audits AUDIT_PATHS staircases only when it was
sampled or when asked to.

Paths are axis-aligned staircases: flatness makes endpoints path-independent,
so staircases suffice and keep every integration one-dimensional.  Each
segment is one dynamics._dopri5 run, with the axis's field inlined into the
generated loop and the parameters t1..ts as its scalars.

A grid is the 2-d case of `superpose`'s tuple, as the paper's foliation
carries over unchanged: `grid_superpose_checks` starts slot 0 on the leaf
of k, integrates it with the m particular solutions as one stacked state
(`solve_on_grid`, one run per grid line for all of them), rebuilds slot 0
from the particular solutions by the one rebuild `reconstruct` also runs
(superposition._rebuild, through `pde_superpose`), and compares the two at
every node.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import expr as ex
from .dynamics import DEFAULT_TOL, _dopri5, _Rhs
from .errors import IntegrationBlowUpError, NotFlatError
from .expr import Chart, Expr
from .geometry import VectorField, lie_bracket
from .report import Check
from .superposition import GAP_LIMIT, SuperpositionRule, _rebuild, _slot0_start, rule_checks

__all__ = [
    "PdeSystem",
    "Decomposition",
    "CurvatureReport",
    "curvature",
    "path_solve",
    "path_independence_audit",
    "AuditResult",
    "solve_on_grid",
    "pde_superpose",
    "flatness_checks",
    "path_checks",
    "grid_superpose_checks",
]

# forward segments per axis in the randomized staircases of path_independence_audit
STAIRCASE_PIECES = 3
# staircases whose endpoints path_independence_audit compares, the default one first
AUDIT_PATHS = 8


@dataclass(frozen=True)
class Decomposition:
    """Y_a = sum_alpha u_a^alpha(t) X_alpha with expressions u in the parameters."""

    u: tuple[tuple[Expr, ...], ...]   # s rows of r entries
    basis: tuple[VectorField, ...]


@dataclass(frozen=True)
class PdeSystem:
    """s parameter directions t1..ts, an n-dimensional chart, and s fields
    whose components are expressions in (t1..ts, x^1..x^n)."""

    params: Chart
    chart: Chart
    fields: tuple[tuple[Expr, ...], ...]
    decomposition: Decomposition | None = None

    def __post_init__(self):
        if len(self.fields) != self.params.dim:
            raise ValueError(f"{len(self.fields)} fields for {self.params.dim} parameters")
        allowed = set(self.params.names) | set(self.chart.names)
        for comps in self.fields:
            if len(comps) != self.chart.dim:
                raise ValueError("component count must match the chart dimension")
            for c in comps:
                extra = ex.free_variables(c) - allowed
                if extra:
                    raise ValueError(f"component {c} uses unknown names {sorted(extra)}")
        if self.decomposition is not None:
            dec = self.decomposition
            if len(dec.u) != self.params.dim:
                raise ValueError("decomposition needs one coefficient row per parameter")
            for row in dec.u:
                if len(row) != len(dec.basis):
                    raise ValueError("decomposition rows must match the basis size")
                for e in row:
                    extra = ex.free_variables(e) - set(self.params.names)
                    if extra:
                        raise ValueError(f"decomposition coefficients may only use parameters")
            for a, comps in enumerate(self.fields):
                for i in range(self.chart.dim):
                    expansion = ex.Add(
                        tuple(
                            ex.Mul((dec.u[a][alpha], dec.basis[alpha].components[i]))
                            for alpha in range(len(dec.basis))
                        )
                    )
                    if not ex.canonically_equal(expansion, comps[i]):
                        raise ValueError(
                            f"decomposition expansion disagrees with field {a+1}, component {i+1}"
                        )

    @property
    def s(self) -> int:
        return self.params.dim

    @property
    def n(self) -> int:
        return self.chart.dim

    @cached_property
    def _inline_fields(self) -> list[_Rhs]:
        """Each field as the source text inlined into the integrator's run
        along its axis, over the parameters _b0.._b(s-1) and x as _x0.."""
        names = {p: f"_b{i}" for i, p in enumerate(self.params.names)}
        names.update((x, f"_x{i}") for i, x in enumerate(self.chart.names))
        return [_Rhs(self.s, tuple(ex.python_source(c, names) for c in f)) for f in self.fields]

    @cached_property
    def curvature_report(self) -> "CurvatureReport":
        """The system's one curvature report (`curvature`), decided on first
        read: every command and catalog run reads it here."""
        return curvature(self)

    @staticmethod
    def from_strings(
        s: int,
        chart_names: Sequence[str],
        fields: Sequence[Sequence[str]],
        decomposition: dict | None = None,
    ) -> "PdeSystem":
        params = Chart(tuple(f"t{i+1}" for i in range(s)))
        chart = Chart(tuple(chart_names))
        names = params.names + chart.names
        parsed = tuple(tuple(ex.parse(c, names) for c in comps) for comps in fields)
        dec = None
        if decomposition is not None:
            basis = tuple(
                VectorField.from_strings(chart, comps) for comps in decomposition["basis"]
            )
            u = tuple(
                tuple(ex.parse(c, params.names) for c in row) for row in decomposition["u"]
            )
            dec = Decomposition(u, basis)
        return PdeSystem(params, chart, parsed, dec)


# ---------------------------------------------------------------------------
# Curvature
# ---------------------------------------------------------------------------


@dataclass
class CurvatureReport:
    residuals: dict[tuple[int, int], tuple[Expr, ...]]
    verdicts: dict[tuple[int, int], tuple[ex.ZeroDecision, ...]]

    @property
    def flat(self) -> bool:
        return all(
            d.verdict in ("zero", "unknown")
            for ds in self.verdicts.values()
            for d in ds
        )

    @property
    def exact(self) -> bool:
        return all(d.exact for ds in self.verdicts.values() for d in ds)


def curvature(sys: PdeSystem) -> CurvatureReport:
    """Residual dY_b/dt^a - dY_a/dt^b + [Y_a, Y_b]_x per pair and component,
    taken as the x-components of [Z_a, Z_b] for Z_a = d/dt^a + Y_a on the
    extended chart (t1..ts, x); the system is flat iff every residual is zero."""
    extended = Chart(sys.params.names + sys.chart.names)
    lifts = [
        VectorField(extended, tuple(ex.Const(int(a == b)) for b in range(sys.s)) + comps)
        for a, comps in enumerate(sys.fields)
    ]
    residuals: dict[tuple[int, int], tuple[Expr, ...]] = {}
    verdicts: dict[tuple[int, int], tuple[ex.ZeroDecision, ...]] = {}
    for a in range(sys.s):
        for b in range(a + 1, sys.s):
            comps = lie_bracket(lifts[a], lifts[b]).components[sys.s :]
            residuals[(a, b)] = comps
            verdicts[(a, b)] = tuple(ex.is_zero(c) for c in comps)
    return CurvatureReport(residuals, verdicts)


# ---------------------------------------------------------------------------
# Path solving
# ---------------------------------------------------------------------------


def _advance(sys: PdeSystem, axis: int, t_frozen: np.ndarray, nodes: Sequence[float], x,
             tol: float) -> np.ndarray:
    """States at nodes[1:] from one integration along an axis from nodes[0],
    with the other parameters frozen at t_frozen, which lands on every node:
    each is an integrated value, not interpolated.  The run inlines the
    axis's field (PdeSystem._inline_fields) and read the parameters from a
    list set for this line.  A line that stops short raises
    IntegrationBlowUpError naming the stop _dopri5 returned: blow-up, step
    underflow or step budget."""
    nodes = [float(v) for v in nodes]
    if len(nodes) < 2:
        return np.empty((0, len(x)))
    t_now = list(map(float, t_frozen))

    def parameters(tau: float) -> list:
        t_now[axis] = tau
        return t_now

    ts, ys, _, stop = _dopri5(sys._inline_fields[axis], parameters, nodes[0], nodes[-1], x, tol,
                              stops=nodes[1:-1])
    if stop:
        raise IntegrationBlowUpError(f"{stop} along axis {axis + 1} near t{axis + 1}={ts[-1]:.6g}")
    return np.concatenate([ys[np.searchsorted(ts, nodes[1:-1])], ys[-1:]])


def _require_flat(report: CurvatureReport, remedy: str = "") -> None:
    """Raise NotFlatError, its message ending in `remedy`, when a curvature
    residual of `report` is decided nonzero."""
    for pair, ds in report.verdicts.items():
        if any(d.verdict == "nonzero" for d in ds):
            raise NotFlatError(f"curvature residual nonzero for parameter pair {pair}{remedy}")


def path_solve(
    sys: PdeSystem,
    x0: Sequence[float],
    target: Sequence[float],
    path: Sequence[tuple[int, float]] | None = None,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """The endpoint of 1-d integrations chained along an axis staircase from
    0 to `target` (default: each axis once, in order).  Flatness is the
    caller's to decide (path_checks): on a system that is not flat the
    endpoint depends on the staircase."""
    t_now = np.zeros(sys.s)
    target = np.asarray(target, dtype=float)
    if path is None:
        path = [(axis, float(target[axis])) for axis in range(sys.s)]
    x = np.asarray(x0, dtype=float)
    for axis, stop in path:
        start = float(t_now[axis])
        if stop == start:
            continue
        if stop < start:
            raise ValueError("staircase segments must move forward along each axis")
        x = _advance(sys, axis, t_now, (start, stop), x, tol)[-1]
        t_now[axis] = stop
    if not np.allclose(t_now, target, atol=1e-12):
        raise ValueError(f"path ends at {t_now}, not at the target {target}")
    return x


@dataclass
class AuditResult:
    spread: float
    endpoints: list[np.ndarray]


def _random_staircase(rng: random.Random, base: np.ndarray, target: np.ndarray):
    """Random interleaving of STAIRCASE_PIECES forward segments per axis range."""
    s = len(target)
    splits = []
    for axis in range(s):
        cuts = sorted(rng.uniform(0, 1) for _ in range(STAIRCASE_PIECES - 1))
        stops = [base[axis] + c * (target[axis] - base[axis]) for c in cuts] + [target[axis]]
        splits.append([(axis, float(v)) for v in stops])
    order = [axis for axis in range(s) for _ in range(STAIRCASE_PIECES)]
    rng.shuffle(order)
    path = []
    taken = [0] * s
    for axis in order:
        path.append(splits[axis][taken[axis]])
        taken[axis] += 1
    return path


def path_independence_audit(
    sys: PdeSystem,
    x0: Sequence[float],
    target: Sequence[float],
    *,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> AuditResult:
    """Max pairwise endpoint spread over the default staircase and
    AUDIT_PATHS - 1 randomized ones; a small spread certifies flatness
    numerically (complements the symbolic check when coefficients carry
    transcendentals)."""
    rng = random.Random(seed)
    base = np.zeros(sys.s)
    target = np.asarray(target, dtype=float)
    paths = [[(axis, float(target[axis])) for axis in range(sys.s)]]
    while len(paths) < AUDIT_PATHS:
        paths.append(_random_staircase(rng, base, target))
    endpoints = [path_solve(sys, x0, target, path=path, tol=tol) for path in paths]
    spread = 0.0
    for i in range(len(endpoints)):
        for j in range(i + 1, len(endpoints)):
            spread = max(spread, float(np.max(np.abs(endpoints[i] - endpoints[j]))))
    return AuditResult(spread, endpoints)


# ---------------------------------------------------------------------------
# Grids and superposition
# ---------------------------------------------------------------------------


def solve_on_grid(
    sys: PdeSystem, x0: Sequence[float], axes: Sequence[np.ndarray], tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Solution values on a rectangular parameter grid (flat systems): the
    first row along axis 1, then each column up axis 2, each line one
    integration that lands on its nodes, so every value is integrated.  x0
    may stack any number of starts, n values each; they move as one
    prolonged tuple, one integration per line for all of them, and the
    last axis of the result holds their values in the same order."""
    if sys.s != 2:
        raise NotImplementedError("grids are supported for s = 2")
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or not len(x0) or len(x0) % sys.n:
        raise ValueError(f"a grid start stacks starts of {sys.n} values each, got shape {x0.shape}")
    t1s, t2s = (np.asarray(axis, dtype=float) for axis in axes)
    if not (np.all(np.diff(t1s) > 0) and np.all(np.diff(t2s) > 0)):
        raise ValueError("grid axes must be strictly increasing")
    out = np.empty((len(t1s), len(t2s), len(x0)))
    out[0, 0] = x0
    if not np.allclose([t1s[0], t2s[0]], 0.0):
        out[0, 0] = path_solve(sys, x0, [t1s[0], t2s[0]], tol=tol)
    out[1:, 0] = _advance(sys, 0, np.array([0.0, t2s[0]]), t1s, out[0, 0], tol)
    for i, t1 in enumerate(t1s):
        out[i, 1:] = _advance(sys, 1, np.array([t1, 0.0]), t2s, out[i, 0], tol)
    return out


def pde_superpose(
    sys: PdeSystem,
    rule: SuperpositionRule,
    solutions: Sequence[np.ndarray],
    k: Sequence[float],
    x0_guess: Sequence[float],
) -> np.ndarray:
    """Slot 0 over m value grids of one shape grid_shape + (n,), returned
    with that shape, by superposition._rebuild: each line along the grid's
    last axis (t2) is one row, and the nodes are taken as evenly spaced.
    So slot 0 is phi at every node, or without phi a Newton solve per node
    that follows the leaf along its row, row 0 starting at x0_guess.  The
    rule's tangency to the decomposition basis, and its transversality,
    are the caller's to decide (grid_superpose_checks).  A failed node is
    named by its row (the t1 index) and column (the t2 index)."""
    if len(solutions) != rule.m:
        raise ValueError(f"need {rule.m} particular solutions, got {len(solutions)}")
    grids = np.stack([np.asarray(sol, dtype=float) for sol in solutions], axis=-2)
    rows = grids.reshape(-1, grids.shape[-3], rule.m * sys.n).tolist()
    labels = [[(i, j) for j in range(len(row))] for i, row in enumerate(rows)]
    nodes = _rebuild(rule, rows, k, x0_guess, labels)
    return np.array(nodes, dtype=float).reshape(grids.shape[:-2] + (sys.n,))


# ---------------------------------------------------------------------------
# Checks shared by the command line and the example catalog
# ---------------------------------------------------------------------------


def flatness_checks(sys: PdeSystem) -> tuple[list[Check], dict]:
    """`flat` from the curvature residuals (probabilistic unless every zero
    verdict was exact), which the extra `residuals` lists per parameter pair
    and the detail quotes, each past expr.MAX_DETAIL_CHARS as its component,
    term count and a prefix."""
    report = sys.curvature_report
    texts = {pair: [str(r) for r in rs] for pair, rs in report.residuals.items()}
    detail = "; ".join(
        f"pair {pair}: " + ", ".join(ex._brief(r, text, f"component {i}: ")
                                     for i, (r, text) in enumerate(zip(rs, texts[pair])))
        for pair, rs in report.residuals.items())
    residuals = {f"{a+1},{b+1}": rs for (a, b), rs in texts.items()}
    return ([Check("flat", report.flat, probabilistic=not report.exact,
                   detail=detail or "no parameter pairs")], {"residuals": residuals})


def path_checks(sys: PdeSystem, x0: Sequence[float], target: Sequence[float],
                tol: float = DEFAULT_TOL, seed: int = 0, audit: bool = False) -> tuple[list[Check], dict]:
    """`integrated` with the endpoint of the default staircase to `target`,
    extra `endpoint`.  One curvature report decides both the gate and the
    audit: a system that is not flat raises NotFlatError unless audit=True,
    and when every residual is decided zero exactly, the default staircase
    is the only one integrated.  Otherwise (flatness sampled, or
    audit=True) the AUDIT_PATHS staircases of path_independence_audit,
    whose first is the default one, add `path_independence_spread` within
    10 tol and the extra `spread`."""
    report = sys.curvature_report
    if not audit:
        _require_flat(report, "; pass --audit to `liesys pde solve` (audit=True in Python) "
                              "to integrate anyway")
        if report.exact:
            endpoint = path_solve(sys, x0, target, tol=tol).tolist()
            return [Check("integrated", True, detail=f"endpoint {endpoint}")], {"endpoint": endpoint}
    result = path_independence_audit(sys, x0, target, tol=tol, seed=seed)
    endpoint = result.endpoints[0].tolist()
    return ([Check("integrated", True, detail=f"endpoint {endpoint}"),
             Check.limit("path_independence_spread", result.spread, 10 * tol)],
            {"endpoint": endpoint, "spread": result.spread})


def grid_superpose_checks(sys: PdeSystem, rule: SuperpositionRule, k: Sequence[float],
                          points: Sequence[Sequence[float]], target: Sequence[float],
                          tol: float = DEFAULT_TOL, x0_guess: Sequence[float] | None = None,
                          seed: int = 0) -> tuple[list[Check], np.ndarray | None]:
    """(checks, slot-0 grid) of the rule as a foliation over the 11 x 11
    grid from 0 to `target`, the 2-d case of superpose_checks.  The system
    needs a decomposition.  Before anything is integrated, the rule is
    decided on the decomposition basis as `verify` decides it on a system's
    fields (rule_checks under `seed`), and a failing `tangency_zero` or
    `psi_transversal` ends the run with those checks and no grid; then a
    system that is not flat raises NotFlatError.  Slot 0 starts at the leaf
    point of k over `points` (_slot0_start; a leaf solve starts at
    x0_guess, default the first point), and is integrated with the m
    particular solutions from `points` as one tuple, one run per grid line.
    Slot 0 rebuilt from the particular solutions (pde_superpose) must match
    the integrated slot 0 within GAP_LIMIT at every node
    (`superposition_vs_path_solve`)."""
    checks = rule_checks(rule, sys.decomposition.basis, seed)
    if not all(c.passed for c in checks):
        return checks, None
    _require_flat(sys.curvature_report)
    guess = points[0] if x0_guess is None else x0_guess
    start = _slot0_start(rule, points, (0, 0), k, guess=guess)
    axes = [np.linspace(0.0, target[i], 11) for i in range(sys.s)]
    grid = solve_on_grid(sys, [*start, *(v for point in points for v in point)], axes, tol)
    rebuilt = pde_superpose(sys, rule, np.split(grid[..., sys.n:], rule.m, axis=-1), k, guess)
    gap = float(np.max(np.abs(rebuilt - grid[..., :sys.n])))
    return [*checks, Check.limit("superposition_vs_path_solve", gap, GAP_LIMIT)], rebuilt
