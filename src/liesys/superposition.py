"""Superposition rules: tangency checks, constancy along solution tuples, and
leaf-following reconstruction of the unknown solution slot.

A rule of rank s over an n-dimensional chart consumes m particular solutions.
Its level map psi has s components on the (m+1)-slot product chart; full
rules have s = n, partial rules add n - s constraint expressions cutting the
submanifold on which the rule lives.  An optional explicit map phi expresses
slot 0 directly through slots 1..m and the constants k1..ks.

Reconstruction holds psi at its initial value by a damped Newton solve with
the exact Jacobian (derivative trees evaluated in floats), warm-started along
the grid.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expr as ex
from .dynamics import LieSystem, Trajectory, evaluate_field
from .errors import NonConvergenceError, SingularDomainError
from .expr import Chart, Expr
from .geometry import ProductChart, VectorField, diagonal_prolongation

__all__ = [
    "SuperpositionRule",
    "TangencyCheck",
    "TangencyReport",
    "verify_tangency",
    "ConstancyReport",
    "verify_along_solutions",
    "reconstruct",
    "PartialRuleReport",
    "verify_partial_rule",
    "derive_k",
]

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
NEWTON_MAX_HALVINGS = 8
# reconstruct with phi checks every this many grid points by a leaf solve
CROSSCHECK_EVERY = 10
DEFAULT_TOL_CONST = 1e-6


@dataclass(frozen=True)
class SuperpositionRule:
    """m solutions in, rank-s level map psi (and optional explicit phi)."""

    base_chart: Chart
    m: int
    rank: int
    psi: tuple[Expr, ...]
    phi: tuple[Expr, ...] | None = None
    constraints: tuple[Expr, ...] = ()

    def __post_init__(self):
        n = self.base_chart.dim
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 1 <= self.rank <= n:
            raise ValueError(f"rank must be in 1..{n}")
        if len(self.psi) != self.rank:
            raise ValueError(f"psi needs {self.rank} components, got {len(self.psi)}")
        if len(self.constraints) != n - self.rank:
            raise ValueError(f"need {n - self.rank} constraints, got {len(self.constraints)}")
        allowed = set(self.product_chart.names)
        for e in self.psi + self.constraints:
            extra = ex.free_variables(e) - allowed
            if extra:
                raise ValueError(f"level map uses unknown names {sorted(extra)}")
        if self.phi is not None:
            if len(self.phi) != n:
                raise ValueError(f"phi needs {n} components, got {len(self.phi)}")
            allowed_phi = set(self.phi_names)
            for e in self.phi:
                extra = ex.free_variables(e) - allowed_phi
                if extra:
                    raise ValueError(f"phi uses unknown names {sorted(extra)}")

    @property
    def product_chart(self) -> ProductChart:
        return ProductChart.of(self.base_chart, self.m + 1)

    @property
    def k_names(self) -> tuple[str, ...]:
        return tuple(f"k{i+1}" for i in range(self.rank))

    @property
    def phi_names(self) -> tuple[str, ...]:
        chart = self.product_chart
        slots = tuple(n for a in range(1, self.m + 1) for n in chart.slot_names(a))
        return slots + self.k_names

    @property
    def is_partial(self) -> bool:
        return self.rank < self.base_chart.dim

    @staticmethod
    def from_strings(
        base_chart: Chart,
        m: int,
        s: int,
        psi: Sequence[str],
        phi: Sequence[str] | None = None,
        constraints: Sequence[str] = (),
    ) -> "SuperpositionRule":
        chart = ProductChart.of(base_chart, m + 1)
        k_names = tuple(f"k{i+1}" for i in range(s))
        psi_exprs = tuple(ex.parse(t, chart.names) for t in psi)
        cons = tuple(ex.parse(t, chart.names) for t in constraints)
        phi_exprs = None
        if phi is not None:
            names = chart.names[base_chart.dim :] + k_names
            phi_exprs = tuple(ex.parse(t, names) for t in phi)
        return SuperpositionRule(base_chart, m, s, psi_exprs, phi_exprs, cons)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "s": self.rank,
            "psi": [str(e) for e in self.psi],
            "phi": None if self.phi is None else [str(e) for e in self.phi],
            "constraints": [str(e) for e in self.constraints],
        }

    @staticmethod
    def from_json_dict(base_chart: Chart, data: dict) -> "SuperpositionRule":
        return SuperpositionRule.from_strings(
            base_chart,
            int(data["m"]),
            int(data["s"]),
            list(data["psi"]),
            data.get("phi"),
            list(data.get("constraints") or ()),
        )


# ---------------------------------------------------------------------------
# Tangency: X~(psi^j) = 0 for every basis field
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TangencyCheck:
    field_index: int
    component: int
    residual: Expr
    verdict: str  # zero | nonzero | sampled-zero | unknown
    probabilistic: bool
    samples: int = 0


@dataclass
class TangencyReport:
    checks: list[TangencyCheck]

    @property
    def all_zero(self) -> bool:
        return all(c.verdict in ("zero", "sampled-zero") for c in self.checks)

    @property
    def probabilistic(self) -> bool:
        return any(c.probabilistic for c in self.checks)

    def max_nonzero(self) -> TangencyCheck | None:
        bad = [c for c in self.checks if c.verdict == "nonzero"]
        return bad[0] if bad else None


def _constraint_samples(rule: SuperpositionRule, count: int, seed: int) -> list[np.ndarray]:
    """Random points projected onto the constraint zero set by Gauss-Newton."""
    chart = rule.product_chart
    names = chart.names
    constraints = ex.compile_vector(rule.constraints, names)
    jacobian = ex.compile_vector(
        [ex._diff_tree(c, v) for c in rule.constraints for v in names], names
    )
    rng = random.Random(seed)
    points: list[np.ndarray] = []
    attempts = 0
    while len(points) < count and attempts < 50 * count:
        attempts += 1
        x = np.array([float(ex.random_rational(rng)) for _ in names])
        ok = True
        for _ in range(50):
            try:
                res = np.array(constraints(*x.tolist()), dtype=float)
            except (ZeroDivisionError, ValueError, OverflowError):
                ok = False
                break
            if float(np.max(np.abs(res), initial=0.0)) < 1e-12:
                break
            jac = np.array(jacobian(*x.tolist()), dtype=float).reshape(len(res), len(names))
            step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
            x = x + step
        else:
            ok = False
        if ok and np.all(np.isfinite(x)):
            points.append(x)
    if len(points) < count:
        raise SingularDomainError("could not sample the constraint submanifold", float("nan"))
    return points


def verify_tangency(
    rule: SuperpositionRule,
    fields: Sequence[VectorField],
    samples: int = 32,
    seed: int = 0,
) -> TangencyReport:
    """Residuals X~_a(psi^j) for each basis field and level-map component.

    Full rules are decided symbolically through the canonical form.  For
    partial rules the residual only needs to vanish on the constraint
    submanifold, so it is evaluated at sampled points of that set and the
    verdict is labelled probabilistic.
    """
    chart = rule.product_chart
    points = None
    if rule.is_partial:
        points = _constraint_samples(rule, samples, seed)
    checks: list[TangencyCheck] = []
    for alpha, base_field in enumerate(fields):
        if base_field.chart.names != rule.base_chart.names:
            raise ValueError("fields must live on the rule's base chart")
        prolonged = diagonal_prolongation(base_field, rule.m + 1)
        for j, psi_j in enumerate(rule.psi):
            residual = prolonged.apply_to(psi_j)
            if not rule.is_partial:
                decision = ex.is_zero(residual, seed=seed)
                checks.append(
                    TangencyCheck(
                        alpha, j, residual, decision.verdict, not decision.exact, decision.samples
                    )
                )
                continue
            fn = ex.compile_expr(residual, chart.names)
            verdict = "sampled-zero"
            used = 0
            for p in points:
                try:
                    value = fn(*p)
                except (ZeroDivisionError, ValueError, OverflowError):
                    continue
                used += 1
                if abs(value) > 1e-7:
                    verdict = "nonzero"
                    break
            if used == 0:
                verdict = "unknown"
            checks.append(TangencyCheck(alpha, j, residual, verdict, True, used))
    return TangencyReport(checks)


# ---------------------------------------------------------------------------
# Constancy along solution tuples
# ---------------------------------------------------------------------------


@dataclass
class ConstancyReport:
    drift: np.ndarray          # per psi component
    initial_values: np.ndarray
    tol_const: float

    @property
    def max_drift(self) -> float:
        return float(np.max(self.drift))

    @property
    def passed(self) -> bool:
        return bool(np.all(self.drift <= self.tol_const))


def _stack_states(trajectories: Sequence[Trajectory]) -> tuple[np.ndarray, np.ndarray]:
    grid = trajectories[0].t
    for tr in trajectories[1:]:
        if len(tr.t) != len(grid) or not np.allclose(tr.t, grid, atol=1e-12):
            raise ValueError("trajectories must share one grid (integrate them with integrate_tuple)")
    states = np.concatenate([tr.states for tr in trajectories], axis=1)
    return grid, states


def verify_along_solutions(
    rule: SuperpositionRule,
    sys: LieSystem,
    trajectories: Sequence[Trajectory],
    tol_const: float = DEFAULT_TOL_CONST,
) -> ConstancyReport:
    """Componentwise max |psi(t) - psi(0)| over the shared grid of an
    (m+1)-tuple of solutions; singular evaluation reports the offending t."""
    if len(trajectories) != rule.m + 1:
        raise ValueError(f"need {rule.m + 1} trajectories (slot 0 first), got {len(trajectories)}")
    if sys.chart.names != rule.base_chart.names:
        raise ValueError("system chart does not match the rule")
    grid, states = _stack_states(trajectories)
    fns = [ex.compile_expr(p, rule.product_chart.names) for p in rule.psi]
    values = np.empty((len(grid), rule.rank))
    for row, point in enumerate(states):
        for j, fn in enumerate(fns):
            try:
                v = fn(*point)
            except (ZeroDivisionError, ValueError, OverflowError):
                raise SingularDomainError(
                    "psi evaluation singular along the tuple", float(grid[row])
                ) from None
            if not np.isfinite(v):
                raise SingularDomainError(
                    "psi evaluation singular along the tuple", float(grid[row])
                )
            values[row, j] = v
    drift = np.max(np.abs(values - values[0]), axis=0)
    return ConstancyReport(drift, values[0].copy(), tol_const)


# ---------------------------------------------------------------------------
# Reconstruction (leaf following)
# ---------------------------------------------------------------------------


class _LeafSolver:
    """Damped Newton for psi(x0, slots) = k plus constraints = 0 in the
    slot-0 variables.

    The equations and the n x n slot-0 Jacobian are one compiled vector each.
    Jacobian entries are exact derivative trees (`ex._diff_tree`), not
    canonical forms, so building a solver runs no gcd; the quotient rule keeps
    the denominators and ln' = u'/u, so an entry is defined wherever its
    equation is.  Iterates are lists of plain floats, so a singular point
    raises instead of warning.  The residual norm is NaN when a residual is,
    as with np.max, so a NaN never counts as converged.  For n = 1 the step
    is -r/J, which is bit-identical to np.linalg.solve on the 1 x 1 system;
    larger systems go to np.linalg.solve.
    """

    def __init__(self, rule: SuperpositionRule):
        names = rule.product_chart.names
        self.n = rule.base_chart.dim
        equations = list(rule.psi) + list(rule.constraints)
        self.equations = ex.compile_vector(equations, names)
        self.jacobian = ex.compile_vector(
            [ex._diff_tree(e, v) for e in equations for v in names[: self.n]], names
        )

    def residual(self, x0: list[float], rest: list[float], k: list[float]) -> list[float]:
        out = self.equations(*x0, *rest)
        for j, kj in enumerate(k):
            out[j] -= kj
        return out

    def solve(self, rest: list[float], k: list[float], guess: list[float], t: float) -> list[float]:
        x = list(guess)
        try:
            res = self.residual(x, rest, k)
        except (ZeroDivisionError, ValueError, OverflowError):
            raise SingularDomainError("leaf solve started at a singular point", t) from None
        norm = _max_abs(res)
        for _ in range(NEWTON_MAX_ITER):
            if norm < NEWTON_TOL:
                return x
            try:
                jac = self.jacobian(*x, *rest)
            except (ZeroDivisionError, ValueError, OverflowError):
                raise SingularDomainError("Jacobian evaluation singular", t) from None
            try:
                if self.n == 1:
                    step = [-res[0] / jac[0]]
                else:
                    matrix = np.array(jac, dtype=float).reshape(self.n, self.n)
                    step = np.linalg.solve(matrix, [-r for r in res]).tolist()
            except (ZeroDivisionError, np.linalg.LinAlgError):
                raise NonConvergenceError("singular Jacobian in leaf solve", t) from None
            lam = 1.0
            for _ in range(NEWTON_MAX_HALVINGS + 1):
                try:
                    trial = [xi + lam * si for xi, si in zip(x, step)]
                    trial_res = self.residual(trial, rest, k)
                    trial_norm = _max_abs(trial_res)
                except (ZeroDivisionError, ValueError, OverflowError):
                    trial_norm = math.inf
                if math.isfinite(trial_norm) and (trial_norm < norm or norm < NEWTON_TOL):
                    break
                lam *= 0.5
            else:
                raise NonConvergenceError("Newton damping exhausted", t)
            x, res, norm = trial, trial_res, trial_norm
        if norm < NEWTON_TOL:
            return x
        raise NonConvergenceError(
            f"Newton did not converge in {NEWTON_MAX_ITER} iterations", t
        )


def _max_abs(values: list[float]) -> float:
    """max |v|, NaN when any v is NaN as with np.max (Python's max skips a
    NaN that is not the first item)."""
    return math.nan if any(map(math.isnan, values)) else max(map(abs, values))


def derive_k(rule: SuperpositionRule, x0: Sequence[float], slot_states: Sequence[Sequence[float]]) -> np.ndarray:
    """k := psi(x0(0), x_(1)(0), ..., x_(m)(0))."""
    point = np.concatenate([np.asarray(x0, float)] + [np.asarray(s, float) for s in slot_states])
    fns = [ex.compile_expr(p, rule.product_chart.names) for p in rule.psi]
    return np.array([fn(*point) for fn in fns])


def reconstruct(
    rule: SuperpositionRule,
    trajectories: Sequence[Trajectory],
    k: Sequence[float],
    x0_guess: Sequence[float] | None = None,
) -> Trajectory:
    """Slot-0 curve with psi held at k along the m particular solutions.

    With phi present the curve is evaluated directly and cross-checked by one
    Newton solve every CROSSCHECK_EVERY grid points; otherwise each grid
    point is a damped Newton solve warm-started from its predecessor.
    """
    if len(trajectories) != rule.m:
        raise ValueError(f"need {rule.m} particular solutions, got {len(trajectories)}")
    grid, rests = _stack_states(trajectories)
    k = np.asarray(k, dtype=float)
    if k.shape != (rule.rank,):
        raise ValueError(f"k must have {rule.rank} entries")
    n = rule.base_chart.dim
    solver = _LeafSolver(rule)
    rest_rows, k_list = rests.tolist(), k.tolist()

    states = np.empty((len(grid), n))
    if rule.phi is not None:
        phi_fns = [ex.compile_expr(p, rule.phi_names) for p in rule.phi]
        for row in range(len(grid)):
            args = np.concatenate([rests[row], k])
            try:
                states[row] = [fn(*args) for fn in phi_fns]
            except (ZeroDivisionError, ValueError, OverflowError):
                raise SingularDomainError("phi evaluation singular", float(grid[row])) from None
            if row % CROSSCHECK_EVERY == 0:
                checked = solver.solve(
                    rest_rows[row], k_list, states[row].tolist(), float(grid[row])
                )
                if float(np.max(np.abs(checked - states[row]))) > 1e-6:
                    raise NonConvergenceError(
                        "phi and leaf solve disagree beyond 1e-6", float(grid[row])
                    )
    else:
        if x0_guess is None:
            raise ValueError("x0_guess is required when the rule has no phi")
        guess = np.asarray(x0_guess, dtype=float).tolist()
        for row in range(len(grid)):
            guess = solver.solve(rest_rows[row], k_list, guess, float(grid[row]))
            states[row] = guess
    derivatives = (
        np.gradient(states, grid, axis=0) if len(grid) > 1 else np.zeros_like(states)
    )
    return Trajectory(grid, states, derivatives)


# ---------------------------------------------------------------------------
# Partial rules
# ---------------------------------------------------------------------------


@dataclass
class PartialRuleReport:
    ode_residual_max: float
    constraint_max: float
    tol_ode: float
    constraint_tol: float

    @property
    def passed(self) -> bool:
        return self.ode_residual_max <= self.tol_ode and self.constraint_max <= self.constraint_tol


def verify_partial_rule(
    rule: SuperpositionRule,
    sys: LieSystem,
    trajectories: Sequence[Trajectory],
    k: Sequence[float],
    tol_ode: float = 1e-4,
    fd_step: float = 1e-3,
    constraint_tol: float = 1e-8,
) -> PartialRuleReport:
    """Check that x0(t) = phi(x_(1..m)(t); k) solves the system: central
    finite differences of x0 against the field, plus constraint residuals
    along the tuple."""
    if rule.phi is None:
        raise ValueError("verify_partial_rule needs a rule with an explicit phi")
    grid, rests = _stack_states(trajectories)
    k = np.asarray(k, dtype=float)
    phi_fns = [ex.compile_expr(p, rule.phi_names) for p in rule.phi]

    def x0_at(t: float) -> np.ndarray:
        slot_vals = np.concatenate([tr.sample(t) for tr in trajectories])
        args = np.concatenate([slot_vals, k])
        return np.array([fn(*args) for fn in phi_fns])

    ode_residual = 0.0
    t_lo, t_hi = float(grid[0]), float(grid[-1])
    for t in grid:
        t = float(t)
        if t - fd_step < t_lo or t + fd_step > t_hi:
            continue
        derivative = (x0_at(t + fd_step) - x0_at(t - fd_step)) / (2 * fd_step)
        residual = derivative - evaluate_field(sys, t, x0_at(t))
        ode_residual = max(ode_residual, float(np.max(np.abs(residual))))

    constraint_max = 0.0
    if rule.constraints:
        names = rule.product_chart.names
        cons_fns = [ex.compile_expr(c, names) for c in rule.constraints]
        for row, t in enumerate(grid):
            point = np.concatenate([x0_at(float(t)), rests[row]])
            for fn in cons_fns:
                constraint_max = max(constraint_max, abs(fn(*point)))
    return PartialRuleReport(ode_residual, constraint_max, tol_ode, constraint_tol)
