"""Lie systems on matrix groups: the right-invariant equation dg/dt = a(t) g,
pushforward of solutions through group actions, and the sl(2,R) -> Riccati
equivariance check.

With a(t) = sum b_a(t) A_a, the group equation is the d-fold diagonal
prolongation of the linear Lie system x' = a(t) x, whose fields are
x -> A_a x: column j of g solves it from e_j.  solve_group_equation
integrates the d columns as one solution tuple (dynamics.integrate_tuple).

group_checks turns a solve of the group equation, and an orbit read from
it, into the named checks of `liesys group` and of the catalog.

Only matrix groups are covered, and g is checked on its determinant at
every node: by Liouville's formula det g(t) = exp(tau(t)), tau(t) the
integral of tr a from t0 to t.  An explicit Runge-Kutta method does not
conserve det g (Hairer, Lubich and Wanner, Geometric Numerical
Integration, section IV.3), so det_liouville measures the integrator's own
error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from .dynamics import (DEFAULT_TOL, CoefficientCurve, LieSystem, Trajectory, integrate,
                       integrate_tuple, integrated_check)
from .errors import EvaluationError
from .expr import Chart, Const, Expr, Mul, Var
from .geometry import VectorField
from .report import Check

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
    "orbit_of",
    "EquivarianceReport",
    "check_equivariance",
    "group_checks",
]

POLE_INF = float("inf")
# check_equivariance skips nodes with |x2| below this share of max(1, |x1|, |x2|)
POLE_MARGIN = 0.05
# largest |x1/x2 - x| at a compared node for sl2_riccati_equivariance to pass
EQUIVARIANCE_LIMIT = 1e-6
# components of the Riccati fields 1, x, x^2 (d/dx)
RICCATI = ("1", "x", "x^2")
# 3-point Gauss-Legendre nodes on [-1, 1] and their weights
_GAUSS3 = ((-math.sqrt(0.6), 5 / 9), (0.0, 8 / 9), (math.sqrt(0.6), 5 / 9))
# largest |det g - exp(tau)| / max(1, exp(tau)) at a node for det_liouville to pass
DET_LIMIT = 1e-6


class MatrixCurve:
    """t -> a(t) = sum b_a(t) A_a: constant d x d basis matrices A_a over Q,
    one coefficient curve b_a each."""

    def __init__(self, basis: Sequence[Sequence[Sequence[Fraction | int]]],
                 curves: Sequence[CoefficientCurve]):
        self.basis = [tuple(tuple(Fraction(v) for v in row) for row in b) for b in basis]
        self.curves = list(curves)
        if not self.basis or len(self.basis) != len(self.curves):
            raise ValueError("basis combination needs matching matrices and curves")
        self.dim = len(self.basis[0])
        if any(len(b) != self.dim or any(len(row) != self.dim for row in b) for b in self.basis):
            raise ValueError(f"basis matrices must be {self.dim}x{self.dim}")

    @staticmethod
    def from_strings(rows: Sequence[Sequence[str]]) -> "MatrixCurve":
        """Entries as curves on the unit matrices E_ij, in row-major order."""
        d = len(rows)
        if any(len(row) != d for row in rows):
            raise ValueError(f"entries must be {d}x{d}")
        units = [[[int((p, q) == (i, j)) for q in range(d)] for p in range(d)]
                 for i in range(d) for j in range(d)]
        return MatrixCurve(units, [CoefficientCurve.from_string(s) for row in rows for s in row])

    @cached_property
    def system(self) -> LieSystem:
        """The linear Lie system x' = a(t) x on the chart (x1..xd): fields
        x -> A_a x, a unit entry as a bare variable and a zero row as Const(0)."""
        chart = Chart(tuple(f"x{i + 1}" for i in range(self.dim)))
        xs = [Var(name) for name in chart.names]

        def component(row) -> Expr:
            terms = [x if c == 1 else Mul((Const(c), x)) for c, x in zip(row, xs) if c]
            return terms[0] if len(terms) == 1 else ex.Add(terms) if terms else Const(0)

        fields = [VectorField(chart, tuple(map(component, b))) for b in self.basis]
        return LieSystem(fields, self.curves)

    def trace_integral(self, t: np.ndarray) -> np.ndarray:
        """tau at the nodes t: the integral of tr a(s) = sum tr(A_a) b_a(s)
        from t[0], by 3-point Gauss-Legendre on each interval of t (order 6)
        and a cumulative sum.  The weights tr(A_a) are exact, and tau is 0
        when all of them are, as they are for every sl(2) curve."""
        weights = np.array([float(sum(b[i][i] for i in range(self.dim))) for b in self.basis])
        steps = np.zeros(len(t) - 1)
        if weights.any():
            mid, half = (t[1:] + t[:-1]) / 2, (t[1:] - t[:-1]) / 2
            for x, c in _GAUSS3:
                b = [self.system._coefficients(s) for s in mid + x * half]
                steps += c * half * (np.reshape(b, (-1, len(weights))) @ weights)
        return np.concatenate(([0.0], np.cumsum(steps)))


_SL2_BASIS = (
    ((0, 1), (0, 0)),
    ((Fraction(1, 2), 0), (0, Fraction(-1, 2))),
    ((0, 0), (-1, 0)),
)


def sl2_from_coefficients(
    b1: CoefficientCurve, b2: CoefficientCurve, b3: CoefficientCurve
) -> MatrixCurve:
    """Traceless curve [[b2/2, b1], [-b3, -b2/2]] carrying the sign convention
    under which the Mobius action of g(t) solves dx/dt = b1 + b2 x + b3 x^2."""
    return MatrixCurve(_SL2_BASIS, [b1, b2, b3])


@dataclass
class GroupTrajectory:
    """Curve g(t) in GL(d) from the identity, and why its run stopped short
    of t1 (dynamics.Trajectory.stop)."""

    t: np.ndarray
    matrices: np.ndarray      # (len, d, d)
    stop: str | None = None

    def determinants(self) -> np.ndarray:
        return np.linalg.det(self.matrices)


def solve_group_equation(
    a: MatrixCurve,
    t_span: tuple[float, float] = (0.0, 1.0),
    tol: float = DEFAULT_TOL,
) -> GroupTrajectory:
    """Integrate dg/dt = a(t) g with g(0) = I (right-invariant equation) as
    the columns of g, a solution tuple of a.system from the unit vectors."""
    columns = integrate_tuple(a.system, np.eye(a.dim), t_span, tol)
    mats = np.stack([tr.states for tr in columns], axis=-1)
    return GroupTrajectory(columns[0].t, mats, columns[0].stop)


@dataclass(frozen=True)
class GroupAction:
    """Named action of a matrix group on a space, with an evaluator."""

    name: str
    group_dim: int
    space_dim: int
    apply: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _linear_apply(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    return g @ x


def _projective(x: np.ndarray) -> np.ndarray:
    """Projective coordinates of a point of the completed line: finite x is
    (x : 1), the pole is (1 : 0)."""
    value = float(x[0])
    return np.array([1.0, 0.0]) if math.isinf(value) else np.array([value, 1.0])


def _mobius_apply(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Mobius action on the completed line via projective coordinates."""
    return _mobius_point(g @ _projective(x))


def _mobius_point(image: np.ndarray) -> np.ndarray:
    """The point of the completed line with projective coordinates `image`."""
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
    tol: float = DEFAULT_TOL,
) -> Trajectory:
    """x(t) = action(g(t), x0): the single-solution (m = 1) superposition,
    the orbit_of x0 under the solution g of the group equation of a."""
    if a.dim != action.group_dim:
        raise ValueError(f"action {action.name} needs {action.group_dim}x{action.group_dim} matrices")
    return orbit_of(solve_group_equation(a, t_span, tol), action, x0)


def orbit_of(g: GroupTrajectory, action: GroupAction, x0: Sequence[float]) -> Trajectory:
    """action(g(t), x0) at the nodes of g.

    For the Mobius action the orbit is tracked projectively: a node on the
    pole is an inf sample, and each pass through the pole is logged in
    Trajectory.events at its first node on or past the pole; an orbit that
    only ends on the pole passes nothing."""
    x0 = np.asarray(x0, dtype=float)
    states = np.empty((len(g.t), action.space_dim))
    if action is not MOBIUS:
        for row, matrix in enumerate(g.matrices):
            states[row] = action.apply(matrix, x0)
        return Trajectory(g.t, states, stop=g.stop)
    # track the projective pair; the orbit passes the pole (chart switch)
    # where the second coordinate changes sign from one node to the next,
    # or is exactly 0 at an interior node between nodes of opposite signs
    vec, v2 = _projective(x0), []
    for row, matrix in enumerate(g.matrices):
        image = matrix @ vec
        states[row] = _mobius_point(image)
        v2.append(float(image[1]))
    events = tuple(("pole_crossing", float(g.t[row])) for row in range(1, len(v2))
                   if v2[row - 1] * v2[row] < 0.0
                   or (v2[row] == 0.0 and row + 1 < len(v2) and v2[row - 1] * v2[row + 1] < 0.0))
    return Trajectory(g.t, states, stop=g.stop, events=events)


@dataclass
class EquivarianceReport:
    max_deviation: float
    compared_points: int
    total_points: int

    @property
    def passed(self) -> bool:
        return self.max_deviation <= EQUIVARIANCE_LIMIT and self.compared_points > 0


def check_equivariance(
    b: Sequence[CoefficientCurve],
    x0: Sequence[float],
    t_span: tuple[float, float] = (0.0, 1.0),
    tol: float = DEFAULT_TOL,
) -> EquivarianceReport:
    """Compare x1(t)/x2(t) of the planar linear system x' = a(t) x, with
    a = sl2_from_coefficients(*b), with the solution x(t) of the Riccati equation dx/dt = b1 + b2 x + b3 x^2 from x0_1/x0_2.

    Both share b(t), so they are integrated as one Lie system on the chart
    (x1, x2, x) and compared at its nodes, skipping nodes within POLE_MARGIN
    of the pole x2 = 0.  A Riccati blow-up truncates both sides."""
    x0 = np.asarray(x0, dtype=float)
    if abs(x0[1]) < POLE_MARGIN:
        raise ValueError("initial point too close to the pole x2 = 0")
    a = sl2_from_coefficients(*b)
    chart = Chart(a.system.chart.names + ("x",))
    fields = [VectorField(chart, f.components + (ex.parse(s, chart),))
              for f, s in zip(a.system.fields, RICCATI)]
    joint = integrate(LieSystem(fields, a.curves), [x0[0], x0[1], x0[0] / x0[1]], t_span, tol)
    max_dev = 0.0
    compared = 0
    for x1, x2, x in joint.states:
        if abs(x2) < POLE_MARGIN * max(1.0, abs(x1), abs(x2)):
            continue
        compared += 1
        max_dev = max(max_dev, abs(x1 / x2 - x))
    return EquivarianceReport(max_dev, compared, len(joint.t))


def group_checks(
    a: MatrixCurve,
    t_span: tuple[float, float] = (0.0, 1.0),
    tol: float = DEFAULT_TOL,
    action: GroupAction | None = None,
    x0: Sequence[float] | None = None,
) -> tuple[list[Check], GroupTrajectory, Trajectory | None]:
    """(checks, g, orbit) of `liesys group` and the catalog: g solves the
    group equation of a once, and must pass `integrated` and
    `det_liouville`: max over the nodes of |det g - exp(tau)| / max(1,
    exp(tau)), tau = MatrixCurve.trace_integral, at most DET_LIMIT.  The
    scale is that of the integrator's error, max(1, |y_i|), which bounds
    the absolute error of entries below 1; for an sl(2) curve it is
    max |det g - 1|.  With an action and x0, the orbit of x0 is read from g
    (orbit_of); a planar x0 of an sl(2) curve adds `sl2_riccati_equivariance`
    (check_equivariance), unless x0 lies within POLE_MARGIN of the pole
    x2 = 0; it fails when no node lies outside that margin."""
    g = solve_group_equation(a, t_span, tol)
    liouville = np.exp(a.trace_integral(g.t))
    drift = np.abs(g.determinants() - liouville) / np.maximum(1.0, liouville)
    checks = [integrated_check(g), Check.limit("det_liouville", float(np.max(drift)), DET_LIMIT)]
    orbit = None if x0 is None else orbit_of(g, action, x0)
    if a.basis == list(_SL2_BASIS) and x0 is not None and len(x0) == 2 and abs(x0[1]) >= POLE_MARGIN:
        rep = check_equivariance(a.curves, x0, t_span, tol)
        detail = "" if rep.compared_points else (
            f"0 of {rep.total_points} nodes compared: all lie within POLE_MARGIN of the pole x2 = 0")
        checks.append(Check("sl2_riccati_equivariance", rep.passed, rep.max_deviation,
                            EQUIVARIANCE_LIMIT, detail=detail))
    return checks, g, orbit
