"""First-order PDE systems dx/dt^a = Y_a(t, x): symbolic zero-curvature
checks, staircase path solving with path-independence audits, and reuse of
the superposition machinery on parameter grids.

`curvature` is the one flatness verdict: the x-components of the brackets
of the lifted fields d/dt^a + Y_a, each decided by expr.is_zero.  A Lie
decomposition Y_a = sum u_a^alpha(t) X_alpha, when given, is checked
exactly against the fields on construction, and serves only pde_superpose,
whose rule must be tangent to its basis.

`flatness_checks`, `path_checks` and `grid_superpose_checks` turn these
into the named checks of `liesys pde` and of the catalog.

Paths are axis-aligned staircases: flatness makes endpoints path-independent,
so staircases suffice and keep every integration one-dimensional.  Each
segment is one dynamics._dopri5 run, with the axis's field inlined into the
generated loop and the parameters t1..ts as its scalars.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import expr as ex
from .dynamics import DEFAULT_TOL, _dopri5, _Rhs
from .errors import IntegrationBlowUpError, LiesysError, NotFlatError
from .expr import Chart, Expr
from .geometry import VectorField, lie_bracket
from .report import Check
from .superposition import GAP_LIMIT, SuperpositionRule, _LeafSolver, verify_tangency

__all__ = [
    "PdeSystem",
    "Decomposition",
    "CurvatureReport",
    "curvature",
    "path_solve",
    "PathResult",
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

    def residual(self, a: int, b: int) -> tuple[Expr, ...]:
        if a < b:
            return self.residuals[(a, b)]
        return tuple(ex.canonical_expr(-r) for r in self.residuals[(b, a)])


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


@dataclass
class PathResult:
    endpoint: np.ndarray
    path: list[tuple[int, float]]
    samples: list[tuple[np.ndarray, np.ndarray]]


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


def _require_flat(sys: PdeSystem) -> None:
    """Raise NotFlatError unless every curvature residual may be zero."""
    for pair, ds in curvature(sys).verdicts.items():
        if any(d.verdict == "nonzero" for d in ds):
            raise NotFlatError(f"curvature residual nonzero for parameter pair {pair}; "
                               "pass --audit to `liesys pde solve` (audit=True in Python) to integrate anyway")


def path_solve(
    sys: PdeSystem,
    x0: Sequence[float],
    target: Sequence[float],
    path: Sequence[tuple[int, float]] | None = None,
    tol: float = DEFAULT_TOL,
    audit: bool = False,
) -> PathResult:
    """Chain 1-d integrations along an axis staircase from 0 to `target`
    (default: each axis once, in order); requires a flat system unless
    audit=True."""
    if not audit:
        _require_flat(sys)
    t_now = np.zeros(sys.s)
    target = np.asarray(target, dtype=float)
    if path is None:
        path = [(axis, float(target[axis])) for axis in range(sys.s)]
    x = np.asarray(x0, dtype=float)
    samples: list[tuple[np.ndarray, np.ndarray]] = [(t_now.copy(), x.copy())]
    for axis, stop in path:
        start = float(t_now[axis])
        if stop == start:
            continue
        if stop < start:
            raise ValueError("staircase segments must move forward along each axis")
        x = _advance(sys, axis, t_now, (start, stop), x, tol)[-1]
        t_now[axis] = stop
        samples.append((t_now.copy(), x.copy()))
    if not np.allclose(t_now, target, atol=1e-12):
        raise ValueError(f"path ends at {t_now}, not at the target {target}")
    return PathResult(x, list(path), samples)


@dataclass
class AuditResult:
    spread: float
    endpoints: list[np.ndarray]
    paths: list[list[tuple[int, float]]]


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
    path_count: int = 8,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> AuditResult:
    """Max pairwise endpoint spread over randomized staircases; a small
    spread certifies flatness numerically (complements the symbolic check
    when coefficients carry transcendentals)."""
    if path_count < 2:
        raise ValueError("path_count must be >= 2")
    rng = random.Random(seed)
    base = np.zeros(sys.s)
    target = np.asarray(target, dtype=float)
    paths = [[(axis, float(target[axis])) for axis in range(sys.s)]]
    while len(paths) < path_count:
        paths.append(_random_staircase(rng, base, target))
    endpoints = [
        path_solve(sys, x0, target, path=path, tol=tol, audit=True).endpoint for path in paths
    ]
    spread = 0.0
    for i in range(len(endpoints)):
        for j in range(i + 1, len(endpoints)):
            spread = max(spread, float(np.max(np.abs(endpoints[i] - endpoints[j]))))
    return AuditResult(spread, endpoints, paths)


# ---------------------------------------------------------------------------
# Grids and superposition
# ---------------------------------------------------------------------------


def solve_on_grid(
    sys: PdeSystem, x0: Sequence[float], axes: Sequence[np.ndarray], tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Solution values on a rectangular parameter grid (flat systems): the
    first row along axis 1, then each column up axis 2, each line one
    integration that lands on its nodes, so every value is integrated."""
    if sys.s != 2:
        raise NotImplementedError("grids are supported for s = 2")
    t1s, t2s = (np.asarray(axis, dtype=float) for axis in axes)
    if not (np.all(np.diff(t1s) > 0) and np.all(np.diff(t2s) > 0)):
        raise ValueError("grid axes must be strictly increasing")
    out = np.empty((len(t1s), len(t2s), sys.n))
    out[0, 0] = x0
    if not np.allclose([t1s[0], t2s[0]], 0.0):
        out[0, 0] = path_solve(sys, x0, [t1s[0], t2s[0]], tol=tol).endpoint
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
    """Pointwise leaf solve over the parameter grid in row-major order.  Each
    node is warm-started from its grid neighbour: the previous node of its
    row, or for the first node of a row the first node of the previous row
    (the end of the previous row can lie across another particular
    solution).  `solutions` are m value grids of shape grid_shape + (n,);
    the slot-0 grid comes back with the same shape."""
    if sys.decomposition is None:
        raise ValueError("pde_superpose needs a system with a Lie decomposition")
    if len(solutions) != rule.m:
        raise ValueError(f"need {rule.m} particular solutions, got {len(solutions)}")
    report = verify_tangency(rule, sys.decomposition.basis)
    if not report.all_zero:
        bad = report.max_nonzero()
        raise LiesysError(
            f"rule is not tangent to the decomposition basis "
            f"(field {bad.field_index}, psi component {bad.component})"
        )
    grids = [np.asarray(sol, dtype=float) for sol in solutions]
    shape = grids[0].shape
    for g in grids[1:]:
        if g.shape != shape:
            raise ValueError("solution grids must share one shape")
    rests = np.concatenate([g.reshape(-1, sys.n) for g in grids], axis=1).tolist()
    k = np.asarray(k, dtype=float).tolist()
    solver = _LeafSolver(rule)
    count = len(rests)
    out = np.empty((count, sys.n))
    row = shape[-2]
    guess = np.asarray(x0_guess, dtype=float).tolist()
    for node in range(count):
        if node >= row and node % row == 0:
            guess = out[node - row].tolist()
        guess = solver.solve(rests[node], k, guess, float(node))
        out[node] = guess
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# Checks shared by the command line and the example catalog
# ---------------------------------------------------------------------------


def flatness_checks(sys: PdeSystem) -> tuple[list[Check], dict]:
    """`flat` from the curvature residuals (probabilistic unless every zero
    verdict was exact), which the extra `residuals` lists per parameter pair
    and the detail quotes, each past expr.MAX_DETAIL_CHARS as its component,
    term count and a prefix."""
    report = curvature(sys)
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
    and `path_independence_spread` within 10 tol over the 8 staircases of
    path_independence_audit, whose first is the default one; extras
    `endpoint` and `spread`.  A system that is not flat raises NotFlatError
    unless audit=True."""
    if not audit:
        _require_flat(sys)
    result = path_independence_audit(sys, x0, target, path_count=8, tol=tol, seed=seed)
    endpoint = result.endpoints[0].tolist()
    return ([Check("integrated", True, detail=f"endpoint {endpoint}"),
             Check.limit("path_independence_spread", result.spread, 10 * tol)],
            {"endpoint": endpoint, "spread": result.spread})


def grid_superpose_checks(sys: PdeSystem, rule: SuperpositionRule, k: Sequence[float],
                          points: Sequence[Sequence[float]], target: Sequence[float],
                          tol: float = DEFAULT_TOL, x0_guess: Sequence[float] | None = None,
                          ) -> tuple[list[Check], np.ndarray]:
    """(checks, slot-0 grid): the particular solutions from `points` on the
    11 x 11 grid from 0 to `target`, slot 0 rebuilt from them with constants
    k (leaf solves start at x0_guess, default the first solution's start),
    and `superposition_vs_path_solve`: its corner within GAP_LIMIT of the
    path solve from its first node.  A system that is not flat raises
    NotFlatError before anything is integrated."""
    _require_flat(sys)
    axes = [np.linspace(0.0, target[i], 11) for i in range(sys.s)]
    grids = [solve_on_grid(sys, p, axes, tol) for p in points]
    guess = grids[0].reshape(-1, sys.n)[0] if x0_guess is None else x0_guess
    rebuilt = pde_superpose(sys, rule, grids, np.array(k), guess)
    endpoint = path_solve(sys, rebuilt.reshape(-1, sys.n)[0], target, tol=tol, audit=True).endpoint
    gap = float(np.max(np.abs(rebuilt[tuple([-1] * sys.s)] - endpoint)))
    return [Check.limit("superposition_vs_path_solve", gap, GAP_LIMIT)], rebuilt
