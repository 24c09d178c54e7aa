"""Superposition rules: tangency checks, constancy along solution tuples, and
leaf-following reconstruction of the unknown solution slot.

A rule of rank s over an n-dimensional chart consumes m particular solutions.
Its level map psi has s components on the (m+1)-slot product chart; full
rules have s = n, partial rules add n - s constraint expressions cutting the
submanifold on which the rule lives.  An optional explicit map phi expresses
slot 0 directly through slots 1..m and the constants k1..ks.

Tangency is decided by the exact zero test of the residuals X~(psi): for full
rules on the residuals themselves, for partial rules on the residuals pulled
back along phi, which parametrizes the constraint set (a partial rule needs
phi for this).  Any phi must land on its own leaves, psi(phi) = k.

Reconstruction holds psi at its initial value by a damped Newton solve with
the exact Jacobian (derivative trees evaluated in floats), warm-started along
the grid.

`rule_checks`, `solution_checks` and `superpose_checks` turn these into the
named checks of `liesys verify` and `liesys superpose`, and of the catalog.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import algebra
from . import expr as ex
from .dynamics import LieSystem, Trajectory, integrate_tuple
from .errors import EvaluationError, LiesysError, NonConvergenceError, SingularDomainError
from .expr import Chart, Const, Expr, Var
from .geometry import ProductChart, VectorField, diagonal_prolongation
from .report import Check

__all__ = [
    "SuperpositionRule",
    "TangencyCheck",
    "TangencyReport",
    "verify_tangency",
    "transversality_rank",
    "ConstancyReport",
    "verify_along_solutions",
    "reconstruct",
    "PartialRuleReport",
    "verify_partial_rule",
    "derive_k",
    "rule_checks",
    "solution_checks",
    "superpose_checks",
]

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
NEWTON_MAX_HALVINGS = 8
# reconstruct with phi checks every this many grid points by a leaf solve
CROSSCHECK_EVERY = 10
DEFAULT_TOL_CONST = 1e-6
# largest gap between a rebuilt slot 0 and the integrated solution it rebuilds
GAP_LIMIT = 1e-5


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
    verdict: str  # zero | nonzero | unknown (every sample vanished)
    probabilistic: bool
    samples: int = 0


@dataclass
class TangencyReport:
    checks: list[TangencyCheck]

    @property
    def all_zero(self) -> bool:
        return all(c.verdict in ("zero", "unknown") for c in self.checks)

    @property
    def probabilistic(self) -> bool:
        return any(c.probabilistic for c in self.checks)

    def max_nonzero(self) -> TangencyCheck | None:
        bad = [c for c in self.checks if c.verdict == "nonzero"]
        return bad[0] if bad else None


def _phi_on_leaves(rule: SuperpositionRule, seed: int) -> tuple[dict[str, Expr], bool]:
    """The substitution of phi for the slot-0 variables, and whether a leaf
    condition could only be sampled.  Raises LiesysError when phi is missing
    or a leaf condition psi_j(phi) - k_j or C_l(phi) is nonzero."""
    if rule.phi is None:
        raise LiesysError("tangency of a partial rule is decided along phi, and the rule has no phi")
    on_phi = dict(zip(rule.product_chart.slot_names(0), rule.phi))
    conditions = [
        (f"psi component {j}: psi(phi) - {k}", ex.substitute(p, on_phi) - Var(k))
        for j, (p, k) in enumerate(zip(rule.psi, rule.k_names))
    ] + [
        (f"constraint {l}: C(phi)", ex.substitute(c, on_phi))
        for l, c in enumerate(rule.constraints)
    ]
    sampled = False
    for label, condition in conditions:
        decision = ex.is_zero(condition, seed=seed)
        if decision.verdict == "nonzero":
            residual = ex._tree_of(ex._nf_of(condition))
            raise LiesysError(
                f"phi is off its own leaves: {label} = {ex._brief(residual, str(residual))} is not zero"
            )
        sampled = sampled or not decision.exact
    return on_phi, sampled


def verify_tangency(
    rule: SuperpositionRule,
    fields: Sequence[VectorField],
    seed: int = 0,
) -> TangencyReport:
    """Residuals X~_a(psi^j), as built by VectorField.apply_to, for each
    basis field and level-map component, each decided by ex.is_zero.

    A phi must land on its own leaves, psi_j(phi) = k_j and C_l(phi) = 0,
    which is decided first (_phi_on_leaves); if one of them can only be
    sampled, every residual verdict is labelled probabilistic.  A partial
    rule's residual only needs to vanish on the constraint set N, which phi
    parametrizes by (x_(1..m), k): it is decided, and kept in its check,
    after substituting phi for slot 0.
    """
    on_phi, leaves_sampled = (
        _phi_on_leaves(rule, seed) if rule.phi is not None or rule.is_partial else (None, False)
    )
    checks: list[TangencyCheck] = []
    for alpha, base_field in enumerate(fields):
        if base_field.chart.names != rule.base_chart.names:
            raise ValueError("fields must live on the rule's base chart")
        prolonged = diagonal_prolongation(base_field, rule.m + 1)
        for j, psi_j in enumerate(rule.psi):
            residual = prolonged.apply_to(psi_j)
            if rule.is_partial:
                residual = ex.substitute(residual, on_phi)
            decision = ex.is_zero(residual, seed=seed)
            checks.append(TangencyCheck(
                alpha, j, residual, decision.verdict,
                leaves_sampled or not decision.exact, decision.samples,
            ))
    return TangencyReport(checks)


def transversality_rank(rule: SuperpositionRule, seed: int = 0) -> tuple[int, bool]:
    """Rank of the s x n matrix dpsi_j/dx_(0),i at random rational points of
    the product chart, and whether it is exact (algebra._generic_rank, with
    its Schwartz-Zippel bound).  Rank s means psi is transversal to the
    slot-0 fibre: a leaf and the m other points fix x_(0) locally.  Entries
    are derived by VectorField.apply_to on the coordinate fields, unreduced,
    so no gcd runs."""
    chart = rule.product_chart
    coordinates = [VectorField(chart, tuple(Const(int(w == v)) for w in chart.names))
                   for v in chart.slot_names(0)]
    matrix = [[d.apply_to(p) for d in coordinates] for p in rule.psi]

    def rank_at(values):
        env = dict(zip(chart.names, values))
        try:
            return algebra._rank([[ex.evaluate(e, env) for e in row] for row in matrix])
        except OverflowError:
            raise EvaluationError("a derivative of psi is out of the float range") from None

    rank, _, exact = algebra._generic_rank(rank_at, chart.dim, rule.rank, random.Random(seed))
    return rank, exact


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


def _psi_at(psi, point: list[float], t: float) -> list[float]:
    """The compiled psi at a point of a tuple, or SingularDomainError at t
    where psi is singular or not finite there."""
    try:
        values = psi(*point)
        if all(map(math.isfinite, values)):
            return values
    except (ZeroDivisionError, ValueError, OverflowError):
        pass
    raise SingularDomainError("psi evaluation singular along the tuple", t)


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
    psi = ex.compile_vector(rule.psi, rule.product_chart.names)
    values = np.empty((len(grid), rule.rank))
    for row, point in enumerate(states):
        values[row] = _psi_at(psi, point.tolist(), float(grid[row]))
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
    """k := psi(x0(0), x_(1)(0), ..., x_(m)(0)); a singular or non-finite psi
    there raises SingularDomainError at t = 0."""
    point = np.concatenate([np.asarray(x0, float)] + [np.asarray(s, float) for s in slot_states])
    psi = ex.compile_vector(rule.psi, rule.product_chart.names)
    return np.array(_psi_at(psi, point.tolist(), 0.0))


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
        phi = ex.compile_vector(rule.phi, rule.phi_names)
        for row in range(len(grid)):
            try:
                states[row] = phi(*rest_rows[row], *k_list)
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
    # the particular solutions share one grid, so they end together
    return Trajectory(grid, states, stop=trajectories[0].stop)


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
    constraint_tol: float = 1e-8,
) -> PartialRuleReport:
    """Check that x0(t) = phi(x_(1..m)(t); k) solves the system, at each node
    of the slots' shared grid.  The slots solve the system, so by the chain
    rule dphi/dt = sum_a dphi/dx_(a) . Y(t, x_(a)), with the slot Jacobian
    compiled from derivative trees; its largest difference from Y(t, phi) is
    the ODE residual.  Constraint residuals are taken at the same nodes."""
    if rule.phi is None:
        raise ValueError("verify_partial_rule needs a rule with an explicit phi")
    grid, rests = _stack_states(trajectories)
    slot_names = rule.phi_names[: rule.m * rule.base_chart.dim]
    phi = ex.compile_vector(rule.phi, rule.phi_names)
    jacobian = ex.compile_vector(
        [ex._diff_tree(e, v) for e in rule.phi for v in slot_names], rule.phi_names
    )
    constraints = ex.compile_vector(rule.constraints, rule.product_chart.names)
    k = [float(v) for v in k]
    n, width = rule.base_chart.dim, len(slot_names)
    ode_residual = 0.0
    constraint_max = 0.0
    for t, rest in zip(grid.tolist(), rests.tolist()):
        try:
            x0 = phi(*rest, *k)
            jac = jacobian(*rest, *k)
        except (ZeroDivisionError, ValueError, OverflowError):
            raise SingularDomainError("phi evaluation singular along the tuple", t) from None
        # Y at phi and at every slot, from one call on the stacked state
        velocity = sys._velocity(t, x0 + rest)
        field, slots = velocity[:n], velocity[n:]
        for i in range(n):
            dphi = sum(a * v for a, v in zip(jac[i * width : (i + 1) * width], slots))
            ode_residual = max(ode_residual, abs(dphi - field[i]))
        for value in constraints(*x0, *rest):
            constraint_max = max(constraint_max, abs(value))
    return PartialRuleReport(ode_residual, constraint_max, tol_ode, constraint_tol)


# ---------------------------------------------------------------------------
# Checks shared by the command line and the example catalog
# ---------------------------------------------------------------------------


def rule_checks(rule: SuperpositionRule, fields: Sequence[VectorField], seed: int = 0) -> list[Check]:
    """The leaves of psi are invariant under the prolonged fields
    (verify_tangency) and transversal to the slot-0 fibre (transversality_rank)."""
    tangency = verify_tangency(rule, fields, seed=seed)
    nonzero = "; ".join(f"field {c.field_index} psi {c.component}: {c.verdict}"
                        for c in tangency.checks if c.verdict == "nonzero")
    rank, exact = transversality_rank(rule, seed=seed)
    return [
        Check("tangency_zero", tangency.all_zero, probabilistic=tangency.probabilistic,
              detail=nonzero or "all residuals vanish"),
        Check("psi_transversal", rank == rule.rank, probabilistic=not exact,
              detail=f"rank {rank} of dpsi_j/dx_(0),i, need s = {rule.rank}"),
    ]


def solution_checks(rule: SuperpositionRule, sys: LieSystem, points: Sequence[Sequence[float]],
                    t_span: tuple[float, float], tol: float, tol_const: float,
                    k: Sequence[float] | None = None,
                    x0: Sequence[float] | None = None) -> tuple[list[Check], dict]:
    """Checks and report extras of the rule along solutions from the m
    `points`: psi's drift along the tuple with slot 0 from x0 (default
    points[0] shifted by 0.1) and `initial_psi` for a full rule; phi with
    constants k solving the system on its constraint set for a partial one."""
    if rule.is_partial:
        report = verify_partial_rule(rule, sys, integrate_tuple(sys, points, t_span, tol), k)
        return [Check.limit("ode_residual", report.ode_residual_max, report.tol_ode),
                Check.limit("constraint_residual", report.constraint_max, report.constraint_tol)], {}
    slot0 = x0 if x0 is not None else [float(v) + 0.1 for v in points[0]]
    tuple_ = integrate_tuple(sys, [slot0, *points], t_span, tol)
    drift = verify_along_solutions(rule, sys, tuple_, tol_const)
    return ([Check.limit("psi_drift_along_solutions", drift.max_drift, tol_const,
                         detail=_coverage(tuple_, t_span))],
            {"initial_psi": [float(v) for v in drift.initial_values]})


def superpose_checks(rule: SuperpositionRule, sys: LieSystem, points: Sequence[Sequence[float]],
                     t_span: tuple[float, float], tol: float, tol_const: float,
                     k: Sequence[float] | None = None, x0: Sequence[float] | None = None,
                     x0_guess: Sequence[float] | None = None,
                     ) -> tuple[list[Check], np.ndarray, Trajectory, list[Trajectory]]:
    """(checks, k, slot 0, particular solutions): psi must stay at k along
    slot 0 rebuilt from the solutions from the m `points` (leaf solves start
    at x0_guess, default x0).  Without k, x0 and the points are integrated as
    one tuple and k is psi at its start, evaluated with psi along the tuple,
    which fails where psi is singular; slot 0 must then match x0's own
    solution within GAP_LIMIT, and psi must be constant along the tuple."""
    tuple_ = None
    if k is None:
        tuple_ = integrate_tuple(sys, [x0, *points], t_span, tol)
        direct, particular = tuple_[0], tuple_[1:]
        along = verify_along_solutions(rule, sys, tuple_, tol_const)
        k = along.initial_values
    else:
        particular = integrate_tuple(sys, points, t_span, tol)
    k = np.atleast_1d(np.asarray(k, dtype=float))
    slot0 = reconstruct(rule, particular, k, x0_guess=x0 if x0_guess is None else x0_guess)
    drift = verify_along_solutions(rule, sys, [slot0, *particular], tol_const)
    span = _coverage(tuple_ or particular, t_span)
    checks = [Check.limit("reconstructed_psi_drift", drift.max_drift, tol_const, detail=span)]
    if tuple_ is not None:
        gap = float(np.max(np.abs(slot0.states - direct.states)))
        checks += [Check.limit("reconstruction_vs_direct", gap, GAP_LIMIT),
                   Check.limit("psi_drift_along_solutions", along.max_drift, tol_const, detail=span)]
    return checks, k, slot0, list(particular)


def _coverage(tuple_: Sequence[Trajectory], t_span: tuple[float, float]) -> str:
    """The detail of a drift check: empty for a tuple that reached t1,
    otherwise why and where it stopped and the part of t_span it covers."""
    reason, (a, b), t = tuple_[0].stop, t_span, tuple_[0].t_end
    return "" if reason is None else f"{reason} at t={t:.6g}: checked on [{a:g}, {t:.6g}] of [{a:g}, {b:g}]"
