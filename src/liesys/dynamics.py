"""Time-dependent systems Y(t,x) = sum b_a(t) X_a(x) and their integration.

The integrator is an embedded Dormand-Prince 5(4) pair with adaptive steps
(error per unit step, so halving the tolerance halves the global error).
Every verdict compares values at integrated nodes; the cubic-Hermite dense
output (4th-order interpolation) only serves align_trajectories.  The allowed error
never falls below ROUNDOFF_FLOOR = 64 eps relative to the state: near a
blow-up, where steps get short enough for tol * h to drop under it, the
embedded error estimate is round-off and would reject every step.  Blow-up
past a bound truncates the trajectory and flags it instead of raising:
escaping solutions are expected behaviour for Riccati-type systems.

Each system's right-hand side is one generated Python function
(_compile_velocity), evaluated on plain floats so singular points raise.
The integrator steps on plain floats too: each stage sum adds its tableau
terms left to right from 0, zero entries included, as a numpy loop would.

A k-tuple of solutions is integrated as one integral curve of the diagonal
prolongation of Y to the k-fold product chart, so all slots share one grid.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from .algebra import _independent, evaluation_rank
from .errors import EvaluationError, FundamentalSetError
from .expr import Expr
from .geometry import VectorField

__all__ = [
    "CoefficientCurve",
    "LieSystem",
    "Trajectory",
    "evaluate_field",
    "integrate",
    "integrate_tuple",
    "fundamental_points",
    "fundamental_set",
    "align_trajectories",
]

DEFAULT_TOL = 1e-9
BLOWUP_BOUND = 1e8
# random initial tuples drawn by fundamental_points before it gives up
MAX_RESAMPLES = 100
# Smallest error per unit state that a step must meet: below 64 ulp, y5 - y4
# is round-off in numbers of size `scale`, which no step size can reduce
# (Hairer, Norsett & Wanner, Solving ODEs I, section II.4).
ROUNDOFF_FLOOR = 64 * float(np.finfo(float).eps)


class CoefficientCurve:
    """Scalar function of t: an expression in the single variable t, or a
    tabulated curve with linear interpolation."""

    def __init__(self, expression: Expr | None = None,
                 table: tuple[Sequence[float], Sequence[float]] | None = None):
        if (expression is None) == (table is None):
            raise ValueError("provide exactly one of expression / table")
        self.expression = expression
        if expression is not None:
            extra = ex.free_variables(expression) - {"t"}
            if extra:
                raise ValueError(f"coefficient curve may only use t, got {sorted(extra)}")
            self.table = None
        else:
            ts, vals = table
            ts = np.asarray(ts, dtype=float)
            vals = np.asarray(vals, dtype=float)
            if ts.ndim != 1 or ts.shape != vals.shape or len(ts) < 2:
                raise ValueError("table needs matching 1-d arrays of length >= 2")
            if not np.all(np.diff(ts) > 0):
                raise ValueError("table times must be strictly increasing")
            self.table = (ts, vals)

    @staticmethod
    def from_string(text: str) -> "CoefficientCurve":
        return CoefficientCurve(expression=ex.parse(text, ("t",)))

    @staticmethod
    def constant(value: float | Fraction) -> "CoefficientCurve":
        return CoefficientCurve(expression=ex.Const(Fraction(value)))

    @cached_property
    def _fn(self):
        # compiled on first call: LieSystem inlines the expression instead
        return ex.compile_expr(self.expression, ("t",))

    def __call__(self, t: float) -> float:
        if self.table is None:
            v = float(self._fn(float(t)))
        else:
            ts, vals = self.table
            v = float(np.interp(t, ts, vals))
        if not np.isfinite(v):
            raise EvaluationError(f"coefficient curve not finite at t={t}")
        return v


class LieSystem:
    """Basis fields with coefficient curves; the chart comes from the fields."""

    def __init__(self, fields: Sequence[VectorField], coefficients: Sequence[CoefficientCurve]):
        fields = list(fields)
        if not fields:
            raise ValueError("LieSystem needs at least one field")
        if len(fields) != len(coefficients):
            raise ValueError(
                f"{len(fields)} fields but {len(coefficients)} coefficient curves"
            )
        chart = fields[0].chart
        for f in fields:
            if f.chart.names != chart.names:
                raise ValueError("all fields must share one chart")
        if len(fields) > 1 and not _independent(fields):
            raise ValueError("basis fields must be linearly independent over R")
        self.fields = fields
        self.coefficients = list(coefficients)
        self.chart = chart
        self._velocity = _compile_velocity(fields, self.coefficients)

    @property
    def dim(self) -> int:
        return self.chart.dim

    @property
    def r(self) -> int:
        return len(self.fields)

    def velocity(self, t: float, x: np.ndarray) -> np.ndarray:
        """Y(t, .) on k >= 1 stacked states of shape (k*n,), b(t) evaluated once."""
        return np.array(self._velocity(t, x.tolist()))


def _not_finite(t: float, x: list | None = None) -> EvaluationError:
    # built here rather than in generated code, whose scope has no builtins
    # for numpy's array printing to import with
    if x is None:
        return EvaluationError(f"coefficient curve not finite at t={t}")
    return EvaluationError(f"field value not finite at t={t}, x={np.array(x)}")


def _compile_velocity(fields: Sequence[VectorField], coefficients: Sequence[CoefficientCurve]):
    """One generated function (t, list of floats) -> list for sum b_a(t) X_a
    on each n-slice of a stacked state.  Expression curves are inlined, a field
    whose weight is 0.0 is not evaluated, and the terms are summed in field
    order onto 0.0, so the values are those of adding b_a * X_a one field at a
    time (a constant-0 component is left out: adding +-0.0 to that sum changes
    no bit).  Singular points raise as in compile_expr; non-finite values
    raise EvaluationError."""
    n, r = fields[0].chart.dim, len(fields)
    xs = {name: f"_x{i}" for i, name in enumerate(fields[0].chart.names)}
    tables = {f"_table{a}": c.table for a, c in enumerate(coefficients) if c.table is not None}
    weights = ", ".join(f"_b{a}" for a in range(r))
    lines = ["def velocity(t, v):", "    _t = _float(t)"]
    for a, curve in enumerate(coefficients):
        value = (f"_interp(_t, *_table{a})" if curve.table is not None
                 else ex.python_source(curve.expression, {"t": "_t"}))
        lines.append(f"    _b{a} = _float({value})")
    lines += [f"    if not all(map(_isfinite, ({weights},))):",
              "        raise _not_finite(t)",
              "    out = []",
              f"    for s in range(0, len(v), {n}):",
              f"        {', '.join(xs.values())}, = v[s:s + {n}]",
              "        out += ["]
    for i in range(n):
        terms = [f"(_b{a} * {ex.python_source(c, xs)} if _b{a} else 0.0)"
                 for a, c in enumerate(f.components[i] for f in fields)
                 if not (isinstance(c, ex.Const) and c.value == 0)]
        lines.append(f"            {' + '.join(['0.0'] + terms)},")
    lines += ["        ]",
              "    if not all(map(_isfinite, out)):",
              "        raise _not_finite(t, v)",
              "    return out"]
    return ex.compile_source("\n".join(lines), "velocity", _float=float, _interp=np.interp,
                             _isfinite=math.isfinite, _not_finite=_not_finite,
                             all=all, map=map, range=range, len=len, **tables)


def evaluate_field(sys: LieSystem, t: float, x: Sequence[float]) -> np.ndarray:
    """Value of sum b_a(t) X_a at (t, x), in floating point."""
    x = np.asarray(x, dtype=float)
    if x.shape != (sys.dim,):
        raise ValueError(f"state has shape {x.shape}, chart dimension is {sys.dim}")
    return sys.velocity(t, x)


@dataclass
class Trajectory:
    """Integration output: strictly increasing grid, states, and the node
    derivatives backing cubic-Hermite dense output."""

    t: np.ndarray
    states: np.ndarray
    derivatives: np.ndarray
    blew_up: bool = False
    truncated_at: float | None = None
    events: tuple = ()

    @property
    def t0(self) -> float:
        return float(self.t[0])

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    def endpoint(self) -> np.ndarray:
        return self.states[-1].copy()

    def _hermite(self, tq_arr: np.ndarray):
        if np.any(tq_arr < self.t[0] - 1e-12) or np.any(tq_arr > self.t[-1] + 1e-12):
            raise ValueError(f"sample times outside [{self.t[0]}, {self.t[-1]}]")
        idx = np.clip(np.searchsorted(self.t, tq_arr, side="right") - 1, 0, len(self.t) - 2)
        t0 = self.t[idx]
        h = self.t[idx + 1] - t0
        theta = np.clip((tq_arr - t0) / h, 0.0, 1.0)[:, None]
        y0, y1 = self.states[idx], self.states[idx + 1]
        d0, d1 = self.derivatives[idx], self.derivatives[idx + 1]
        h = h[:, None]
        value = (
            (2 * theta**3 - 3 * theta**2 + 1) * y0
            + (theta**3 - 2 * theta**2 + theta) * h * d0
            + (-2 * theta**3 + 3 * theta**2) * y1
            + (theta**3 - theta**2) * h * d1
        )
        slope = (
            (6 * theta**2 - 6 * theta) * y0
            + (3 * theta**2 - 4 * theta + 1) * h * d0
            + (-6 * theta**2 + 6 * theta) * y1
            + (3 * theta**2 - 2 * theta) * h * d1
        ) / h
        return value, slope

    def resampled(self, grid: np.ndarray) -> "Trajectory":
        grid = np.asarray(grid, dtype=float)
        states, derivs = self._hermite(grid)
        return Trajectory(grid, states, derivs, self.blew_up, self.truncated_at, self.events)

    def to_json_dict(self) -> dict:
        return {
            "t": self.t.tolist(),
            "states": self.states.tolist(),
            "blew_up": self.blew_up,
            "truncated_at": self.truncated_at,
        }

    def to_csv(self, path, names: Sequence[str] | None = None):
        n = self.states.shape[1]
        names = list(names) if names else [f"x{i+1}" for i in range(n)]
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["t"] + names)
            for t, row in zip(self.t, self.states):
                writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4)
# ---------------------------------------------------------------------------

_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _combination(coeffs: Sequence[float]) -> Callable[[list, float, list], list]:
    """(y, h, k) -> y + h * (((0 + c1*k1) + c2*k2) + ...) on lists of floats,
    zero coefficients included.  Not sum(): from Python 3.12 it compensates
    the rounding of float sums, where numpy's sum of arrays did not."""
    ks = ", ".join(f"_k{j}" for j in range(len(coeffs)))
    terms = " + ".join(["0.0"] + [f"{c!r} * _k{j}" for j, c in enumerate(coeffs)])
    return ex.compile_source(f"def combination(y, h, k):\n"
                             f"    return [_y + h * ({terms}) for _y, {ks} in zip(y, *k)]",
                             "combination", zip=zip)


_STAGES = tuple(zip(_C[1:], map(_combination, _A[1:])))
_HIGH, _LOW = _combination(_B5), _combination(_B4)


def _dopri5(
    f: Callable[[float, list], list],
    t0: float,
    t1: float,
    y0: Sequence[float],
    tol: float,
    stops: Sequence[float] = (),
):
    """Adaptive DOPRI5(4).  Error accepted per unit step, down to a round-off
    floor: err <= max(tol*min(1,h), ROUNDOFF_FLOOR) * scale.  The floor
    binds only where tol*min(1,h) < 1.4e-14 (h < 1.4e-5 at tol 1e-9), in
    practice near a blow-up; elsewhere steps are those of the unfloored rule.

    State and f(t, state) are lists of Python floats; stages, y5 and y4 sum
    in tableau order (_combination), and a non-finite y5 - y4 rejects a step.

    Each of `stops` inside (t0, t1) becomes a node: a step that would cross
    the next stop is shortened to end on it, t is set to the stop itself
    (not to t + h), and once accepted the step size proposed before the
    shortening carries over to the next step.  Stops outside (t0, t1) are
    ignored; with none, the nodes are those of the loop without the rule.

    Returns (ts, ys, dys, blew_up, truncated_at) as arrays; stops early with
    a flag on blow-up (sup-norm past BLOWUP_BOUND) or step underflow.
    """
    if not t1 > t0:
        raise ValueError("t_span must satisfy t1 > t0")
    if not tol > 0:
        raise ValueError("tol must be positive")
    y = np.asarray(y0, dtype=float).tolist()
    t = float(t0)
    try:
        k1 = f(t, y)
    except (EvaluationError, ZeroDivisionError, ValueError, OverflowError) as exc:
        raise EvaluationError(
            f"right-hand side not defined at the initial point t={t}, x={y}: {exc}"
        ) from None
    ts, ys, dys = [t], [y], [k1]
    h = min(0.01 * (t1 - t0), 0.1)
    blew_up = False
    truncated_at = None
    min_h = 1e-13 * max(1.0, abs(t1 - t0))
    stops = sorted({float(s) for s in stops if t0 < s < t1}, reverse=True)
    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        h = min(h, t1 - t)
        landing = bool(stops) and t + h >= stops[-1]
        step = stops[-1] - t if landing else h
        try:
            k = [k1]
            for c, combination in _STAGES:
                k.append(f(t + c * step, combination(y, step, k)))
            y5 = _HIGH(y, step, k)
            diffs = [a - b for a, b in zip(y5, _LOW(y, step, k))]
            # Python's max skips a NaN that numpy's would return
            err = max(map(abs, diffs)) if all(map(math.isfinite, diffs)) else math.inf
            scale = max(1.0, max(map(abs, y)), max(map(abs, y5)))
        except (EvaluationError, ZeroDivisionError, ValueError, OverflowError):
            err = math.inf
        allowed = max(tol * min(1.0, step), ROUNDOFF_FLOOR) * scale if err < math.inf else 0.0
        if err <= allowed:
            t = stops.pop() if landing else t + step
            y = y5
            k1 = k[6]  # FSAL
            ts.append(t)
            ys.append(y)
            dys.append(k1)
            if max(map(abs, y)) > BLOWUP_BOUND:
                blew_up = True
                truncated_at = t
                break
            if not landing:
                h *= 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (allowed / err) ** 0.2))
        else:
            h = step * (0.25 if err == math.inf else max(0.1, 0.9 * (allowed / err) ** 0.2))
        if h < min_h:
            blew_up = True
            truncated_at = t
            break
    return np.array(ts), np.array(ys, dtype=float), np.array(dys, dtype=float), blew_up, truncated_at


def integrate_tuple(
    sys: LieSystem,
    points: Sequence[Sequence[float]],
    t_span: tuple[float, float] = (0.0, 1.0),
    tol: float = DEFAULT_TOL,
) -> list[Trajectory]:
    """Integrate the solutions from `points` jointly as one prolonged system;
    all slots share one grid, and a blow-up in any slot truncates them all."""
    y0 = np.asarray(points, dtype=float)
    if y0.shape[1:] != (sys.dim,) or len(y0) == 0:
        raise ValueError(f"initial points have shape {y0.shape}, chart dimension is {sys.dim}")
    ts, ys, dys, blew_up, truncated_at = _dopri5(
        sys._velocity, float(t_span[0]), float(t_span[1]), y0.reshape(-1), tol
    )
    slots = zip(np.hsplit(ys, len(y0)), np.hsplit(dys, len(y0)))
    return [Trajectory(ts, y, dy, blew_up, truncated_at) for y, dy in slots]


def integrate(
    sys: LieSystem,
    x0: Sequence[float],
    t_span: tuple[float, float] = (0.0, 1.0),
    tol: float = DEFAULT_TOL,
) -> Trajectory:
    """Integrate the system from x0 over t_span with local error <= tol."""
    return integrate_tuple(sys, [x0], t_span, tol)[0]


def align_trajectories(trajectories: Sequence[Trajectory]) -> list[Trajectory]:
    """Resample onto the coarsest common refinement (union of the node sets,
    clipped to the overlapping time range)."""
    t0 = max(tr.t0 for tr in trajectories)
    t1 = min(tr.t_end for tr in trajectories)
    if not t1 > t0:
        raise ValueError("trajectories do not overlap in time")
    nodes = np.unique(np.concatenate([tr.t for tr in trajectories]))
    nodes = nodes[(nodes >= t0) & (nodes <= t1)]
    grid = np.concatenate(([t0], nodes, [t1]))
    keep = np.concatenate(([True], np.diff(grid) > 1e-12))
    grid = grid[keep]
    grid[-1] = t1
    return [tr.resampled(grid) for tr in trajectories]


def fundamental_points(
    sys: LieSystem,
    m: int,
    seed: int = 0,
    initial_points: Sequence[Sequence[float]] | None = None,
) -> list[list[float]]:
    """m initial points passing the rank test (stacked field evaluations of
    rank r).  Supplied points failing it are rejected outright; random points
    failing it or at a pole of a field are redrawn, up to MAX_RESAMPLES
    draws."""
    if m < 1:
        raise ValueError("m must be >= 1")
    r = sys.r
    if initial_points is not None:
        points = [list(map(float, p)) for p in initial_points]
        if len(points) != m:
            raise ValueError(f"expected {m} initial points, got {len(points)}")
        if evaluation_rank(sys.fields, points)[0] < r:
            raise FundamentalSetError(
                "supplied initial tuple is not fundamental (rank-deficient at t=0)"
            )
        return points
    rng = random.Random(seed)
    for _ in range(MAX_RESAMPLES):
        cand = [[float(ex.random_rational(rng)) for _ in range(sys.dim)] for _ in range(m)]
        try:
            rank, _ = evaluation_rank(sys.fields, cand)
        except EvaluationError:  # a field is undefined at cand
            continue
        if rank == r:
            return cand
    raise FundamentalSetError(f"no fundamental initial tuple found in {MAX_RESAMPLES} resamples")


def fundamental_set(
    sys: LieSystem,
    m: int,
    t_span: tuple[float, float] = (0.0, 1.0),
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    initial_points: Sequence[Sequence[float]] | None = None,
) -> list[Trajectory]:
    """Integrate m particular solutions from fundamental_points jointly."""
    points = fundamental_points(sys, m, seed, initial_points)
    return integrate_tuple(sys, points, t_span, tol)
