"""Lie systems on matrix groups: the right-invariant equation dg/dt = a(t) g,
pushforward of solutions through group actions, and the sl(2,R) -> Riccati
equivariance check.

With a(t) = sum b_a(t) A_a, the group equation is the d-fold diagonal
prolongation of the linear Lie system x' = a(t) x, whose fields are
x -> A_a x: column j of g solves it from e_j.  solve_group_equation
integrates the d columns as one solution tuple (dynamics.integrate_tuple).

group_checks turns a solve of the group equation, and an orbit read from
it, into the named checks of `liesys group` and of the catalog.

Only matrix groups are covered; staying on a subvariety of GL(d) is not
enforced structurally but checked on the determinant at every node: nonzero
for any curve, within 1e-6 of one for an sl(2) curve.
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
        self._floats = [np.array(b, dtype=float) for b in self.basis]

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

    def __call__(self, t: float) -> np.ndarray:
        return sum((curve(t) * b for b, curve in zip(self._floats, self.curves)),
                   np.zeros((self.dim, self.dim)))

    def trace_is_zero(self) -> bool:
        """Exact verdict on sum tr(A_a) b_a(t) = 0; a table curve with a
        nonzero trace weight counts as a nonzero trace."""
        terms = [Const(0)]
        for b, curve in zip(self.basis, self.curves):
            weight = sum(b[i][i] for i in range(self.dim))
            if weight:
                if curve.table is not None:
                    return False
                terms.append(Mul((Const(weight), curve.expression)))
        return ex.is_zero(ex.Add(terms)).verdict == "zero"


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

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

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
    tol: float = DEFAULT_TOL,
) -> Trajectory:
    """x(t) = action(g(t), x0): the single-solution (m = 1) superposition,
    the orbit_of x0 under the solution g of the group equation of a."""
    if a.dim != action.group_dim:
        raise ValueError(f"action {action.name} needs {action.group_dim}x{action.group_dim} matrices")
    return orbit_of(solve_group_equation(a, t_span, tol), action, x0)


def orbit_of(g: GroupTrajectory, action: GroupAction, x0: Sequence[float]) -> Trajectory:
    """action(g(t), x0) at the nodes of g.

    For the Mobius action the orbit is tracked projectively, so pole
    crossings produce an inf sample and are logged in Trajectory.events."""
    x0 = np.asarray(x0, dtype=float)
    states = np.empty((len(g.t), action.space_dim))
    events = []
    previous_v2 = None
    for row, matrix in enumerate(g.matrices):
        value = action.apply(matrix, x0)
        states[row] = value
        if action is MOBIUS:
            # track the projective pair; a sign change of the second
            # coordinate means the orbit crossed the pole (chart switch)
            vec = np.array([1.0, 0.0]) if math.isinf(float(x0[0])) else np.array([float(x0[0]), 1.0])
            v2 = float((matrix @ vec)[1])
            if math.isinf(value[0]) or (
                previous_v2 is not None and previous_v2 * v2 < 0.0
            ):
                events.append(("pole_crossing", float(g.t[row])))
            previous_v2 = v2
    return Trajectory(g.t, states, stop=g.stop, events=tuple(events))


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
    group equation of a once, and must pass `integrated` and `det_nonzero`;
    a curve from sl2_from_coefficients must also be `traceless` and pass
    `det_equals_one`.  With an action and x0, the orbit of x0 is read from g
    (orbit_of); a planar x0 of an sl(2) curve adds `sl2_riccati_equivariance`
    (check_equivariance), unless x0 lies within POLE_MARGIN of the pole
    x2 = 0; it fails when no node lies outside that margin."""
    sl2 = a.basis == list(_SL2_BASIS)
    checks = [Check("traceless", a.trace_is_zero())] if sl2 else []
    g = solve_group_equation(a, t_span, tol)
    dets = g.determinants()
    checks += [integrated_check(g), Check("det_nonzero", bool(np.all(np.abs(dets) > 1e-12)))]
    if sl2:
        checks.append(Check.limit("det_equals_one", float(np.max(np.abs(dets - 1.0))), 1e-6))
    orbit = None if x0 is None else orbit_of(g, action, x0)
    if sl2 and x0 is not None and len(x0) == 2 and abs(x0[1]) >= POLE_MARGIN:
        rep = check_equivariance(a.curves, x0, t_span, tol)
        detail = "" if rep.compared_points else (
            f"0 of {rep.total_points} nodes compared: all lie within POLE_MARGIN of the pole x2 = 0")
        checks.append(Check("sl2_riccati_equivariance", rep.passed, rep.max_deviation,
                            EQUIVARIANCE_LIMIT, detail=detail))
    return checks, g, orbit
