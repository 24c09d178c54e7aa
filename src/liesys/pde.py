"""First-order PDE systems dx/dt^a = Y_a(t, x): symbolic zero-curvature
checks, staircase path solving with path-independence audits, and reuse of
the superposition machinery on parameter grids.

Paths are axis-aligned staircases: flatness makes endpoints path-independent,
so staircases suffice and keep every integration one-dimensional.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import expr as ex
from .dynamics import DEFAULT_TOL, CoefficientCurve, LieSystem, _dopri5
from .errors import IntegrationBlowUpError, LiesysError, NotFlatError
from .expr import Chart, Expr
from .geometry import VectorField, lie_bracket
from .superposition import SuperpositionRule, _LeafSolver, verify_tangency

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
    "riccati_pde",
    "decomposition_residuals",
    "reduce_to_ode",
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
    def _compiled_fields(self) -> list:
        """Each field as one function of (t1..ts, x), compiled once per system."""
        return [ex.compile_vector(f, self.params.names + self.chart.names) for f in self.fields]

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

    def to_json_dict(self) -> dict:
        doc = {
            "s": self.s,
            "chart": list(self.chart.names),
            "fields": [[str(c) for c in comps] for comps in self.fields],
        }
        if self.decomposition is not None:
            doc["decomposition"] = {
                "u": [[str(c) for c in row] for row in self.decomposition.u],
                "basis": [[str(c) for c in f.components] for f in self.decomposition.basis],
            }
        return doc


def riccati_pde(a: str, b: str, c: str, d: str, e: str, f: str) -> PdeSystem:
    """The planar total-differential family u_t1 = a u^2 + b u + c,
    u_t2 = d u^2 + e u + f with coefficients in (t1, t2)."""
    coeffs = [ex.parse(s, ("t1", "t2")) for s in (a, b, c, d, e, f)]
    u = ex.Var("u")
    f1 = ex.Add((ex.Mul((coeffs[0], ex.Pow(u, 2))), ex.Mul((coeffs[1], u)), coeffs[2]))
    f2 = ex.Add((ex.Mul((coeffs[3], ex.Pow(u, 2))), ex.Mul((coeffs[4], u)), coeffs[5]))
    return PdeSystem(Chart(("t1", "t2")), Chart(("u",)), ((f1,), (f2,)))


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


def _axis_rhs(sys: PdeSystem, axis: int, t_frozen: np.ndarray):
    field = sys._compiled_fields[axis]
    t_now = list(map(float, t_frozen))

    def rhs(tau: float, x: list) -> list:
        t_now[axis] = float(tau)
        return field(*t_now, *x)

    return rhs


def _advance(rhs, axis: int, nodes: Sequence[float], x, tol: float) -> np.ndarray:
    """States at nodes[1:] from one integration along an axis from nodes[0],
    which lands on every node: each is an integrated value, not interpolated."""
    nodes = [float(v) for v in nodes]
    if len(nodes) < 2:
        return np.empty((0, len(x)))
    ts, ys, _, blew_up, _ = _dopri5(rhs, nodes[0], nodes[-1], x, tol, stops=nodes[1:-1])
    if blew_up:
        raise IntegrationBlowUpError(f"blow-up along axis {axis + 1} near t{axis + 1}={ts[-1]:.6g}")
    return np.concatenate([ys[np.searchsorted(ts, nodes[1:-1])], ys[-1:]])


def path_solve(
    sys: PdeSystem,
    x0: Sequence[float],
    target: Sequence[float],
    path: Sequence[tuple[int, float]] | None = None,
    tol: float = DEFAULT_TOL,
    audit: bool = False,
    base: Sequence[float] | None = None,
) -> PathResult:
    """Chain 1-d integrations along an axis staircase from `base` (default 0)
    to `target`; requires a flat system unless audit=True."""
    if not audit:
        report = curvature(sys)
        bad = [
            (pair, i)
            for pair, ds in report.verdicts.items()
            for i, d in enumerate(ds)
            if d.verdict == "nonzero"
        ]
        if bad:
            raise NotFlatError(
                f"curvature residual nonzero for parameter pair {bad[0][0]}; "
                "pass audit=True to integrate anyway"
            )
    t_now = np.zeros(sys.s) if base is None else np.asarray(base, dtype=float)
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
        x = _advance(_axis_rhs(sys, axis, t_now), axis, (start, stop), x, tol)[-1]
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
    out[1:, 0] = _advance(_axis_rhs(sys, 0, np.array([0.0, t2s[0]])), 0, t1s, out[0, 0], tol)
    for i, t1 in enumerate(t1s):
        out[i, 1:] = _advance(_axis_rhs(sys, 1, np.array([t1, 0.0])), 1, t2s, out[i, 0], tol)
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
# Decomposition integrability and the s = 1 reduction
# ---------------------------------------------------------------------------


def decomposition_residuals(sys: PdeSystem) -> dict[tuple[int, int], tuple[Expr, ...]]:
    """Per parameter pair, the components of
    sum_g [du_b^g/dt^a - du_a^g/dt^b + sum u_a^al u_b^be c^g] X_g; all
    canonically zero exactly when the decomposed system is flat."""
    from .algebra import closure_test

    dec = sys.decomposition
    if dec is None:
        raise ValueError("system has no decomposition")
    report = closure_test(list(dec.basis))
    if not report.closed or len(report.basis) != len(dec.basis):
        raise ValueError("decomposition basis does not close as given")
    r = len(dec.basis)
    out: dict[tuple[int, int], tuple[Expr, ...]] = {}
    for a in range(sys.s):
        for b in range(a + 1, sys.s):
            gamma_coeff = []
            for g in range(r):
                terms = [
                    ex.differentiate(dec.u[b][g], sys.params.names[a]),
                    ex.Mul((ex.Const(-1), ex.differentiate(dec.u[a][g], sys.params.names[b]))),
                ]
                for al in range(r):
                    for be in range(r):
                        coeff = report.c(al, be)[g]
                        if coeff:
                            terms.append(
                                ex.Mul((ex.Const(coeff), dec.u[a][al], dec.u[b][be]))
                            )
                gamma_coeff.append(ex.Add(tuple(terms)))
            comps = []
            for i in range(sys.n):
                comps.append(
                    ex.canonical_expr(
                        ex.Add(
                            tuple(
                                ex.Mul((gamma_coeff[g], dec.basis[g].components[i]))
                                for g in range(r)
                            )
                        )
                    )
                )
            out[(a, b)] = tuple(comps)
    return out


def reduce_to_ode(sys: PdeSystem) -> LieSystem:
    """View an s = 1 system with a decomposition as the ordinary Lie system
    it is (t1 becomes t)."""
    if sys.s != 1:
        raise ValueError("reduce_to_ode needs s = 1")
    if sys.decomposition is None:
        raise ValueError("reduce_to_ode needs a decomposition")
    curves = [
        CoefficientCurve(expression=ex.rename_variables(e, {"t1": "t"}))
        for e in sys.decomposition.u[0]
    ]
    return LieSystem(list(sys.decomposition.basis), curves)
