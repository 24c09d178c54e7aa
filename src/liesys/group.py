"""Lie systems on matrix groups: the right-invariant equation dg/dt = a(t) g,
pushforward of solutions through group actions, and the sl(2,R) -> Riccati
equivariance check.

Only matrix groups are covered; staying on a subvariety of GL(d) is monitored
through invariants (determinant against the Liouville integral, unit
determinant for the sl(2) entries) rather than enforced structurally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from .dynamics import CoefficientCurve, LieSystem, Trajectory, _dopri5, integrate
from .errors import EvaluationError
from .expr import Chart, Expr
from .geometry import VectorField

__all__ = [
    "MatrixCurve",
    "sl2_from_coefficients",
    "GroupTrajectory",
    "solve_group_equation",
    "GroupAction",
    "LINEAR_SL2",
    "MOBIUS",
    "ACTIONS",
    "act_solve",
    "EquivarianceReport",
    "check_equivariance",
    "riccati_system",
    "planar_sl2_system",
]

POLE_INF = float("inf")
# nodes at which solve_group_equation logs the defect ||g' g^-1 - a(t)||
DEFECT_CHECKPOINTS = 10
# check_equivariance skips nodes with |x2| below this share of max(1, |x1|, |x2|)
POLE_MARGIN = 0.05


class MatrixCurve:
    """t -> d x d matrix, either entrywise expressions in t or a combination
    sum b_a(t) * a_a with constant basis matrices."""

    def __init__(
        self,
        dim: int,
        entries: Sequence[Sequence[Expr]] | None = None,
        basis: Sequence[np.ndarray] | None = None,
        curves: Sequence[CoefficientCurve] | None = None,
    ):
        self.dim = dim
        if entries is not None:
            if basis is not None or curves is not None:
                raise ValueError("give either entries or a basis combination")
            if len(entries) != dim or any(len(row) != dim for row in entries):
                raise ValueError(f"entries must be {dim}x{dim}")
            self.entries = tuple(tuple(row) for row in entries)
            self._fns = [[ex.compile_expr(e, ("t",)) for e in row] for row in entries]
            self.basis = None
            self.curves = None
        else:
            if basis is None or curves is None or len(basis) != len(curves):
                raise ValueError("basis combination needs matching matrices and curves")
            self.entries = None
            self._fns = None
            self.basis = [np.asarray(b, dtype=float) for b in basis]
            for b in self.basis:
                if b.shape != (dim, dim):
                    raise ValueError(f"basis matrix of shape {b.shape}, expected {(dim, dim)}")
            self.curves = list(curves)

    @staticmethod
    def from_strings(rows: Sequence[Sequence[str]]) -> "MatrixCurve":
        entries = [[ex.parse(s, ("t",)) for s in row] for row in rows]
        return MatrixCurve(len(rows), entries=entries)

    def __call__(self, t: float) -> np.ndarray:
        if self._fns is not None:
            out = np.array([[fn(float(t)) for fn in row] for row in self._fns], dtype=float)
        else:
            out = np.zeros((self.dim, self.dim))
            for b, curve in zip(self.basis, self.curves):
                out += curve(t) * b
        if not np.all(np.isfinite(out)):
            raise EvaluationError(f"matrix curve not finite at t={t}")
        return out

    def trace_is_zero(self) -> bool:
        """Exact when entries are expressions; basis combinations check the
        basis matrices' traces."""
        if self.entries is not None:
            total = ex.Add(tuple(self.entries[i][i] for i in range(self.dim)))
            return ex.is_zero(total).verdict == "zero"
        return all(abs(float(np.trace(b))) == 0.0 for b in self.basis)


def sl2_from_coefficients(
    b1: CoefficientCurve, b2: CoefficientCurve, b3: CoefficientCurve
) -> MatrixCurve:
    """Traceless curve [[b2/2, b1], [-b3, -b2/2]] carrying the sign convention
    under which the Mobius action of g(t) solves dx/dt = b1 + b2 x + b3 x^2."""
    e1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    e2 = np.array([[0.5, 0.0], [0.0, -0.5]])
    e3 = np.array([[0.0, 0.0], [-1.0, 0.0]])
    return MatrixCurve(2, basis=[e1, e2, e3], curves=[b1, b2, b3])


@dataclass
class GroupTrajectory:
    """Curve g(t) in GL(d) from the identity, with a defect log
    ||g' g^-1 - a(t)|| at checkpoints."""

    t: np.ndarray
    matrices: np.ndarray      # (len, d, d)
    derivatives: np.ndarray
    defect: list[tuple[float, float]]
    blew_up: bool = False
    truncated_at: float | None = None

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def determinants(self) -> np.ndarray:
        return np.linalg.det(self.matrices)


def solve_group_equation(
    a: MatrixCurve,
    t_span: tuple[float, float] = (0.0, 1.0),
    tol: float = 1e-9,
) -> GroupTrajectory:
    """Integrate dg/dt = a(t) g with g(0) = I (right-invariant equation); the
    defect is logged at DEFECT_CHECKPOINTS evenly spaced nodes."""
    d = a.dim

    def rhs(t: float, y: list) -> list:
        return (a(t) @ np.reshape(y, (d, d))).ravel().tolist()

    y0 = np.eye(d).reshape(-1)
    ts, ys, dys, blew_up, truncated_at = _dopri5(
        rhs, float(t_span[0]), float(t_span[1]), y0, tol
    )
    mats = ys.reshape(len(ts), d, d)
    dmats = dys.reshape(len(ts), d, d)
    defect = []
    for idx in np.linspace(0, len(ts) - 1, min(DEFECT_CHECKPOINTS, len(ts)), dtype=int):
        g = mats[idx]
        try:
            dev = dmats[idx] @ np.linalg.inv(g) - a(float(ts[idx]))
        except np.linalg.LinAlgError:
            dev = np.full((d, d), np.inf)
        defect.append((float(ts[idx]), float(np.max(np.abs(dev)))))
    return GroupTrajectory(ts, mats, dmats, defect, blew_up, truncated_at)


@dataclass(frozen=True)
class GroupAction:
    """Named action of a matrix group on a space, with an evaluator."""

    name: str
    group_dim: int
    space_dim: int
    apply: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _linear_apply(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    return g @ x


def _mobius_apply(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Mobius action on the completed line via projective coordinates:
    finite x is (x : 1), the pole is (1 : 0)."""
    value = float(x[0])
    vec = np.array([1.0, 0.0]) if math.isinf(value) else np.array([value, 1.0])
    image = g @ vec
    norm = float(np.max(np.abs(image)))
    if norm == 0.0:
        raise EvaluationError("Mobius action applied to a singular matrix")
    if abs(image[1]) <= 1e-14 * norm:
        return np.array([POLE_INF])
    return np.array([image[0] / image[1]])


LINEAR_SL2 = GroupAction("sl2_linear", 2, 2, _linear_apply)
MOBIUS = GroupAction("mobius", 2, 1, _mobius_apply)
ACTIONS = {action.name: action for action in (LINEAR_SL2, MOBIUS)}


def act_solve(
    a: MatrixCurve,
    action: GroupAction,
    x0: Sequence[float],
    t_span: tuple[float, float] = (0.0, 1.0),
    tol: float = 1e-9,
) -> Trajectory:
    """x(t) = action(g(t), x0): the single-solution (m = 1) superposition.

    For the Mobius action the orbit is tracked projectively, so pole
    crossings produce an inf sample and are logged in Trajectory.events."""
    if a.dim != action.group_dim:
        raise ValueError(f"action {action.name} needs {action.group_dim}x{action.group_dim} matrices")
    gtraj = solve_group_equation(a, t_span, tol)
    x0 = np.asarray(x0, dtype=float)
    states = np.empty((len(gtraj.t), action.space_dim))
    events = []
    previous_v2 = None
    for row, g in enumerate(gtraj.matrices):
        value = action.apply(g, x0)
        states[row] = value
        if action is MOBIUS:
            # track the projective pair; a sign change of the second
            # coordinate means the orbit crossed the pole (chart switch)
            vec = np.array([1.0, 0.0]) if math.isinf(float(x0[0])) else np.array([float(x0[0]), 1.0])
            v2 = float((g @ vec)[1])
            if math.isinf(value[0]) or (
                previous_v2 is not None and previous_v2 * v2 < 0.0
            ):
                events.append(("pole_crossing", float(gtraj.t[row])))
            previous_v2 = v2
    if np.all(np.isfinite(states)):
        derivatives = np.gradient(states, gtraj.t, axis=0)
    else:
        derivatives = np.zeros_like(states)
    return Trajectory(
        gtraj.t, states, derivatives, gtraj.blew_up, gtraj.truncated_at, tuple(events)
    )


def riccati_system(b1: CoefficientCurve, b2: CoefficientCurve, b3: CoefficientCurve) -> LieSystem:
    """dx/dt = b1 + b2 x + b3 x^2 as a Lie system on the line."""
    chart = Chart(("x",))
    fields = [VectorField.from_strings(chart, [s]) for s in ("1", "x", "x^2")]
    return LieSystem(fields, [b1, b2, b3])


def planar_sl2_system(
    b1: CoefficientCurve, b2: CoefficientCurve, b3: CoefficientCurve
) -> LieSystem:
    """The linear system dx1 = (b2/2)x1 + b1 x2, dx2 = -b3 x1 - (b2/2)x2."""
    chart = Chart(("x1", "x2"))
    fields = [
        VectorField.from_strings(chart, ["x2", "0"]),
        VectorField.from_strings(chart, ["x1/2", "-x2/2"]),
        VectorField.from_strings(chart, ["0", "-x1"]),
    ]
    return LieSystem(fields, [b1, b2, b3])


@dataclass
class EquivarianceReport:
    max_deviation: float
    compared_points: int
    total_points: int
    det_drift: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= 1e-6 and self.compared_points > 0


def check_equivariance(
    b: Sequence[CoefficientCurve],
    x0: Sequence[float],
    t_span: tuple[float, float] = (0.0, 1.0),
    tol: float = 1e-9,
) -> EquivarianceReport:
    """Compare x1(t)/x2(t) of the planar linear system with the solution x(t)
    of the Riccati equation dx/dt = b1 + b2 x + b3 x^2 from x0_1/x0_2.

    Both share b(t), so they are integrated as one Lie system on the chart
    (x1, x2, x) and compared at its nodes, skipping nodes within POLE_MARGIN
    of the pole x2 = 0.  A Riccati blow-up truncates both sides."""
    x0 = np.asarray(x0, dtype=float)
    if abs(x0[1]) < POLE_MARGIN:
        raise ValueError("initial point too close to the pole x2 = 0")
    chart = Chart(("x1", "x2", "x"))
    fields = [
        VectorField.from_strings(chart, comps)
        for comps in (["x2", "0", "1"], ["x1/2", "-x2/2", "x"], ["0", "-x1", "x^2"])
    ]
    joint = integrate(LieSystem(fields, list(b)), [x0[0], x0[1], x0[0] / x0[1]], t_span, tol)
    max_dev = 0.0
    compared = 0
    for x1, x2, x in joint.states:
        if abs(x2) < POLE_MARGIN * max(1.0, abs(x1), abs(x2)):
            continue
        compared += 1
        max_dev = max(max_dev, abs(x1 / x2 - x))
    gtraj = solve_group_equation(sl2_from_coefficients(*b), t_span, tol)
    det_drift = float(np.max(np.abs(gtraj.determinants() - 1.0)))
    return EquivarianceReport(max_dev, compared, len(joint.t), det_drift)
