"""Time-dependent systems Y(t,x) = sum b_a(t) X_a(x) and their integration.

The integrator is an embedded Dormand-Prince 5(4) pair with adaptive steps
(error per unit step, so halving the tolerance halves the global error).
Every verdict compares values at integrated nodes; the cubic-Hermite dense
output (4th-order interpolation) only serves align_trajectories.  The allowed error
never falls below ROUNDOFF_FLOOR = 64 eps relative to the state: near a
blow-up, where steps get short enough for tol * h to drop under it, the
embedded error estimate is round-off and would reject every step.  Blow-up
past a bound truncates the trajectory and names it as the run's stop instead
of raising: escaping solutions are expected behaviour for Riccati-type
systems.  The other stops are step underflow and the step budget
MAX_ATTEMPTED_STEPS, which bounds the work of any run.

The integrator has one way to take a right-hand side: an _Rhs, the source
text of each component over a few scalars _b0, _b1, ... and one slot's
coordinates _x0, _x1, ..., with a function of t that gives the scalars.  A
Lie system's scalars are its coefficients b(t), from the one function each
system compiles of its own, coefficients(t) -> (b_1(t), ..., b_r(t)), with
its expression curves inlined and its tables interpolated
(_compile_coefficients); float() wraps only the values that are not
floats by construction: tables, and curves such as 2 or 10^400 that
evaluate to an int.  A PDE axis's scalars are the parameters t1..ts.
Everything else is generated from the _Rhs alone, so a later system with
the same fields reuses it with its own scalars: the velocity, the _Rhs on
stacked states with finiteness checks, evaluated on plain floats so
singular points raise (_compile_velocity); and, per state length N, one
function that runs the whole adaptive DOPRI5 loop (_run).  Its stages 2
to 7 (stage 1 is the derivative at the last node) inline the components,
with no list, slice or finiteness check; stages 2 to 6 call the scalars
once each, and stage 7, at stage 6's time, reuses them, so an attempted
step makes 5 scalars calls and 6 evaluations of the components.  States
and stages are scalar locals, step control uses comparisons rather than
min, max, abs or isfinite, and the accepted nodes go into flat lists that
become arrays once.  The stages need no check: each stage sum adds its
tableau terms left to right from 0, as a numpy loop would, with the zero
entries kept on purpose, so a non-finite stage value makes y5 - y4
non-finite (0.0 * inf = nan) and rejects the step just as a stage that
raises does.  Every node is bit-identical to a numpy loop over the checked
velocity.  The benchmark's Riccati escape (`trajectories` workload) costs
5.1 us per node, its `dynamics.us_per_node.escape` as tools/bench_record.py
recorded it on 2 cores under Python 3.11.
All of it goes through expr.compile_source, which compiles each source
text once per process in a bounded cache; runs are kept per (N, rhs), and
velocity texts per rhs, in bounded caches of their own.

A k-tuple of solutions is integrated as one integral curve of the diagonal
prolongation of Y to the k-fold product chart, so all slots share one grid.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import expr as ex
from .algebra import _independent, evaluation_rank, field_vector
from .errors import EvaluationError, FundamentalSetError
from .expr import Expr
from .geometry import VectorField
from .report import Check

__all__ = [
    "CoefficientCurve",
    "LieSystem",
    "Trajectory",
    "integrate",
    "integrate_tuple",
    "fundamental_points",
    "fundamental_set",
    "align_trajectories",
    "integrated_check",
]

DEFAULT_TOL = 1e-9
BLOWUP_BOUND = 1e8
# Attempted steps after which a run stops on "step budget".  The most any run
# attempts in the test suite, on the shipped problem files and in the
# benchmark at seed 7 is 4,533, so the budget leaves a margin of 22 times;
# it ends stiff runs that would otherwise take minutes and gigabytes.
MAX_ATTEMPTED_STEPS = 100_000
# random initial tuples drawn by fundamental_points before it gives up
MAX_RESAMPLES = 100
# Smallest error per unit state that a step must meet: below 64 ulp, y5 - y4
# is round-off in numbers of size `scale`, which no step size can reduce
# (Hairer, Norsett & Wanner, Solving ODEs I, section II.4).
ROUNDOFF_FLOOR = 64 * float(np.finfo(float).eps)
# what evaluating a right-hand side raises at a singular point
_SINGULAR = (EvaluationError, ZeroDivisionError, ValueError, OverflowError)


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
        self._coefficients = _compile_coefficients(self.coefficients)

    @property
    def dim(self) -> int:
        return self.chart.dim

    @property
    def r(self) -> int:
        return len(self.fields)

    @cached_property
    def _rhs(self) -> _Rhs:
        return _field_sums(self.fields)

    @cached_property
    def _velocity(self) -> Callable[[float, list], list]:
        return _compile_velocity(self._rhs, self._coefficients)

    def velocity(self, t: float, x: np.ndarray) -> np.ndarray:
        """Y(t, .) on k >= 1 stacked states of shape (k*n,), b(t) evaluated once."""
        return np.array(self._velocity(t, x.tolist()))


class _Rhs(NamedTuple):
    """A right-hand side as source text for generated code: one call of a
    function of t gives `scalars` numbers _b0, _b1, ..., and coordinate i of
    each slot of the state moves with components[i], written over them and
    the slot's coordinates _x0, _x1, ...  Being text, it keys the caches of
    the code built from it."""

    scalars: int
    components: tuple[str, ...]


def _compile_coefficients(coefficients: Sequence[CoefficientCurve]) -> Callable[[float], tuple]:
    """One generated function t -> (b_1(t), ..., b_r(t)) as floats, with the
    expression curves inlined and the tables interpolated; no finiteness
    check.  A value is converted with float() only where it is not a float
    by construction (_float_valued): a table's np.interp value, a numpy
    float, and an expression curve that evaluates to an int, such as 2,
    which float() turns into 2.0, or 10^400, into an OverflowError.  Its
    source names the tables only, so systems whose expression curves
    coincide share its code."""
    tables = {f"_table{a}": c.table for a, c in enumerate(coefficients) if c.table is not None}
    values = []
    for a, curve in enumerate(coefficients):
        if curve.table is not None:
            values.append(f"_float(_interp(_t, *_table{a}))")
        else:
            source = ex.python_source(curve.expression, {"t": "_t"})
            values.append(source if _float_valued(curve.expression) else f"_float({source})")
    return ex.compile_source("def coefficients(t):\n    _t = _float(t)\n"
                             f"    return {''.join(f'{v}, ' for v in values)}",
                             "coefficients", _float=float, _interp=np.interp, **tables)


def _float_valued(e: Expr) -> bool:
    """Whether e's python_source is a float for every float _t: it holds t,
    a quotient (a Div, or a Const that is not an integer, written n/d) or a
    function call.  Any other tree is built from integers by +, * and **
    with an integer exponent (a negative power parses as a Div), so it is
    an int, and a tree with a float anywhere is a float, since each of
    those operations on a float gives a float."""
    if isinstance(e, ex.Const):
        return e.value.denominator != 1
    if isinstance(e, (ex.Var, ex.Div, ex.Call)):
        return True
    if isinstance(e, ex.Pow):
        return _float_valued(e.base)
    return any(map(_float_valued, e.terms if isinstance(e, ex.Add) else e.factors))


def _field_sums(fields: Sequence[VectorField]) -> _Rhs:
    """sum b_a X_a as an _Rhs over the weights _b0.._b(r-1): each component
    adds (_ba * X_a if _ba else 0.0) in field order onto 0.0, so the values
    are those of adding b_a * X_a one field at a time, and a field whose
    weight is 0.0 is not evaluated.  A constant-0 component is left out
    (adding +-0.0 to a sum that starts at 0.0 changes no bit), except in a
    field that is 0 everywhere, whose first term stays so that a non-finite
    weight still makes the value non-finite."""
    xs = {name: f"_x{i}" for i, name in enumerate(fields[0].chart.names)}
    zero = lambda c: isinstance(c, ex.Const) and c.value == 0  # noqa: E731
    components = []
    for i in range(fields[0].chart.dim):
        terms = [f"(_b{a} * {ex.python_source(f.components[i], xs)} if _b{a} else 0.0)"
                 for a, f in enumerate(fields)
                 if not zero(f.components[i]) or (i == 0 and all(map(zero, f.components)))]
        components.append(" + ".join(["0.0"] + terms))
    return _Rhs(len(fields), tuple(components))


def _compile_velocity(rhs: _Rhs, coefficients: Callable[[float], tuple]):
    """One generated function (t, list of floats) -> list: rhs on each slot
    of a stacked state, with the scalars from `coefficients`.  Singular
    points raise as in expr.compile_vector; non-finite scalars or values raise
    EvaluationError, as does a value that overflows: "coefficient curve not
    finite at t=...", or "field value not finite", whether the value came
    out inf or its power raised OverflowError.  The source holds rhs only,
    so systems with the same fields share its code."""
    return ex.compile_source(_velocity_source(rhs), "velocity", _coefficients=coefficients,
                             _isfinite=math.isfinite, _inf=math.inf, _overflow=OverflowError,
                             _error=EvaluationError, all=all, map=map, range=range, len=len)


@lru_cache(maxsize=64)
def _velocity_source(rhs: _Rhs) -> str:
    n = len(rhs.components)
    lines = ["def velocity(t, v):",
             "    try:",
             "        _b = _coefficients(t)",
             "    except _overflow:",
             "        _b = _inf,",
             "    if not all(map(_isfinite, _b)):",
             "        raise _error(f'coefficient curve not finite at t={t}')",
             f"    {''.join(f'_b{a}, ' for a in range(rhs.scalars))}= _b",
             "    out = []",
             "    try:",
             f"        for s in range(0, len(v), {n}):",
             f"            {''.join(f'_x{i}, ' for i in range(n))}= v[s:s + {n}]",
             "            out += ["]
    lines += [f"                {c}," for c in rhs.components]
    lines += ["            ]",
              "    except _overflow:",
              "        out = [_inf]",
              "    if not all(map(_isfinite, out)):",
              "        raise _error('field value not finite')",
              "    return out"]
    return "\n".join(lines)


@dataclass
class Trajectory:
    """A run on a strictly increasing grid: its states, the node derivatives
    backing cubic-Hermite dense output (integrated runs only), and why it
    stopped short of t1, as _dopri5 returned it: None when it reached t1,
    else "blow-up", "step underflow" or "step budget"."""

    t: np.ndarray
    states: np.ndarray
    derivatives: np.ndarray | None = None
    stop: str | None = None
    events: tuple = ()

    @property
    def blew_up(self) -> bool:
        return self.stop == "blow-up"

    @property
    def truncated_at(self) -> float | None:
        """The time of the last node when the run stopped short of t1."""
        return None if self.stop is None else self.t_end

    @property
    def t0(self) -> float:
        return float(self.t[0])

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    def _hermite(self, tq_arr: np.ndarray):
        if self.derivatives is None:
            raise ValueError("no node derivatives to interpolate with: "
                             "only integrated runs can be resampled")
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
        return Trajectory(grid, states, derivs, self.stop, self.events)

    def to_json_dict(self) -> dict:
        """The trajectory as strict JSON: a state value that is not finite,
        such as a Mobius orbit node on the pole (group.POLE_INF), is null."""
        return {
            "t": self.t.tolist(),
            "states": [[v if math.isfinite(v) else None for v in row] for row in self.states.tolist()],
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


@lru_cache(maxsize=64)
def _run(n: int, rhs: _Rhs) -> Callable[..., tuple]:
    """The whole adaptive DOPRI5 loop on states of length n, generated once
    per (n, rhs): (scalars, t, t1, y, k1, h, tol, stops, budget, floor,
    bound) -> (ts, ys, dys, stop), the nodes and the flat lists of their
    states and derivatives.  States and stages are scalar locals; a stage
    makes one call scalars(t) for rhs's scalars at its time, except the
    last, whose time is the one before's (_C[6] == _C[5]) and which reuses
    its scalars: 5 calls and 6 evaluations of rhs per attempted step.  Each
    stage evaluates rhs's components inline, one slot of the state at a
    time, with no list, slice or finiteness check; each sum is y + h *
    (((0.0 + a1*k1) + a2*k2) + ...) in tableau order, zero entries
    included.  Not sum(): from Python 3.12 it compensates the rounding of
    float sums.  Every stage enters both y5 and y4, through a zero weight
    too (0.0 * inf is nan), so a stage with a non-finite value makes some
    y5 - y4 non-finite and rejects the step as one that raised would.
    `stops` is sorted in reverse and emptied as the run lands on it.

    Step control, the error norm and the blow-up test are written as
    comparisons, not calls of min, max, abs or isfinite, and each gives
    the builtin's value bit for bit:
    - min(a, b) is `b if b < a else a` and max(a, b) is `b if b > a else
      a`: Python's min and max keep the first item unless a later one
      compares strictly smaller (larger), so this holds for NaN too, and a
      chain of such steps is max over more items;
    - max(s, abs(v)) for s >= 0.0 is `v if v > s else -v if -v > s else
      s`: -v is abs(v) where v < 0.0, and where v is -0.0 or NaN, s stays,
      as max(s, 0.0) and max(s, nan) keep it.  Chains of it give the error
      max(|d_0|, |d_1|, ...) from s = 0.0 and the scale max(1.0, |y_i|,
      |y5_i|) from 1.0, and with s = 1.0 it is max(1.0, abs(t)) in the end
      and underflow tests;
    - isfinite(d) for a float d is `d - d == 0.0` (inf - inf and NaN - NaN
      are NaN), and all of d_0, d_1, ... are finite when (d_0 - d_0) +
      (d_1 - d_1) + ... == 0.0;
    - the error is inf when any d_i = y5_i - y4_i is not finite;
    - the blow-up test max(|y_i|) > bound is "some y_i > bound or y_i <
      -bound".  The two differ only when a NaN precedes a value past the
      bound, and an accepted state is finite: a step is accepted only when
      every y5 - y4 is finite, so y5, the new state, is."""
    def combination(coeffs, i):
        terms = " + ".join(["0.0"] + [f"{c!r} * k{j + 1}_{i}" for j, c in enumerate(coeffs)])
        return f"y_{i} + step * ({terms})"

    def each(name):
        return ", ".join(f"{name}_{i}" for i in range(n)) + ","

    def at_least(s, v):  # max(s, abs(v)) for s >= 0.0
        return f"{v} if {v} > {s} else -{v} if -{v} > {s} else {s}"

    width = len(rhs.components)
    lines = ["def run(scalars, t, t1, y, k1, h, tol, stops, budget, floor, bound):",
             f"    {each('y')} = y", f"    {each('k1')} = k1",
             f"    ts, ys, dys, stop, attempted = [t], [{each('y')}], [{each('k1')}], None, 0",
             f"    end = t1 - 1e-14 * ({at_least('1.0', 't1')})",
             "    low = -bound",
             "    while t < end:",
             "        if attempted == budget:",
             "            stop = 'step budget'",
             "            break",
             "        attempted += 1",
             "        if t1 - t < h:",
             "            h = t1 - t",
             "        landing = stops and t + h >= stops[-1]",
             "        step = stops[-1] - t if landing else h",
             "        try:"]
    for stage in range(1, 7):
        if _C[stage] != _C[stage - 1]:
            lines.append(f"            {''.join(f'_b{a}, ' for a in range(rhs.scalars))}"
                         f"= scalars(t + {_C[stage]!r} * step)")
        for slot in range(0, n, width):
            lines += [f"            _x{i} = {combination(_A[stage], slot + i)}" for i in range(width)]
            lines += [f"            k{stage + 1}_{slot + i} = {c}" for i, c in enumerate(rhs.components)]
    for i in range(n):
        lines += [f"            y5_{i} = {combination(_B5, i)}",
                  f"            d_{i} = y5_{i} - ({combination(_B4, i)})"]
    finite = " + ".join(f"(d_{i} - d_{i})" for i in range(n))
    lines += ["            err = 0.0",
              *(f"            err = {at_least('err', f'd_{i}')}" for i in range(n)),
              f"            if {finite} != 0.0:",
              "                err = _inf",
              "        except _errors:",
              "            err = _inf",
              "        if err < _inf:",
              "            allowed = tol * (step if step < 1.0 else 1.0)",
              "            if floor > allowed:",
              "                allowed = floor",
              "            scale = 1.0",
              *(f"            scale = {at_least('scale', f'{name}_{i}')}" for name in ("y", "y5") for i in range(n)),
              "            allowed *= scale"]
    beyond = " or ".join(f"y_{i} > bound or y_{i} < low" for i in range(n))
    lines += ["            if err <= allowed:",
              "                t = stops.pop() if landing else t + step",
              f"                {each('y')} = {each('y5')}",
              f"                {each('k1')} = {each('k7')}",
              "                ts.append(t)",
              f"                ys += ({each('y')})",
              f"                dys += ({each('k1')})",
              f"                if {beyond}:",
              "                    stop = 'blow-up'",
              "                    break",
              "                if not landing:",
              "                    if err == 0.0:",
              "                        h *= 5.0",
              "                    else:",
              "                        f = 0.9 * (allowed / err) ** 0.2",
              "                        h *= (f if f < 5.0 else 5.0) if f > 0.2 else 0.2",
              "            else:",
              "                f = 0.9 * (allowed / err) ** 0.2",
              "                h = step * (f if f > 0.1 else 0.1)",
              "        else:",
              "            h = step * 0.25",
              f"        if h < 1e-13 * ({at_least('1.0', 't')}):",
              "            stop = 'step underflow'",
              "            break",
              "    return ts, ys, dys, stop"]
    return ex.compile_source("\n".join(lines), "run", _inf=math.inf, _errors=_SINGULAR)


def _dopri5(
    rhs: _Rhs,
    scalars: Callable[[float], Sequence[float]],
    t0: float,
    t1: float,
    y0: Sequence[float],
    tol: float,
    stops: Sequence[float] = (),
):
    """Adaptive DOPRI5(4) on the right-hand side rhs, whose scalars at t are
    scalars(t), applied to each slot of the state.  Error accepted per unit
    step, down to a round-off floor: err <= max(tol*min(1,h), ROUNDOFF_FLOOR)
    * scale.  The floor binds only where tol*min(1,h) < 1.4e-14 (h < 1.4e-5
    at tol 1e-9), in practice near a blow-up; elsewhere steps are those of
    the unfloored rule.

    The state is a list of Python floats.  The derivative at t0 comes from
    the checked velocity of rhs (_compile_velocity), which raises at a
    singular or non-finite initial point.  The rest of the run is one call
    to the generated loop for the state's length (_run): rhs inlined, one
    scalars call per stage but the last, which reuses the one before's
    (1 + 5 calls and 6 evaluations of rhs per attempted step, with FSAL),
    stages, y5 and y4 summed in tableau order with zero entries kept, and a
    stage that raises or a non-finite y5 - y4 rejects the step.  Every node
    is the same bits as a numpy loop over the checked velocity.

    Each of `stops` inside (t0, t1) becomes a node: a step that would cross
    the next stop is shortened to end on it, t is set to the stop itself
    (not to t + h), and once accepted the step size proposed before the
    shortening carries over to the next step.  Stops outside (t0, t1) are
    ignored; with none, the nodes are those of the loop without the rule.

    Returns (ts, ys, dys, stop): the nodes, states and derivatives as
    arrays, and why the run ended before t1, or None when it reached t1.
    The stops are "blow-up" (sup-norm of an accepted state past
    BLOWUP_BOUND), "step underflow" (a step under 1e-13 * max(1, |t|), about
    450 ulp of t) and "step budget" (MAX_ATTEMPTED_STEPS steps attempted).
    The three bounds are read when the run starts.
    """
    if not t1 > t0:
        raise ValueError("t_span must satisfy t1 > t0")
    if not tol > 0:
        raise ValueError("tol must be positive")
    y = np.asarray(y0, dtype=float).tolist()
    t = float(t0)
    try:
        k1 = _compile_velocity(rhs, scalars)(t, y)
    except _SINGULAR as exc:
        raise EvaluationError(
            f"right-hand side not defined at the initial point t={t}, x={y}: {exc}"
        ) from None
    stops = sorted({float(s) for s in stops if t0 < s < t1}, reverse=True)
    ts, ys, dys, stop = _run(len(y), rhs)(scalars, t, t1, y, k1, min(0.01 * (t1 - t0), 0.1), tol,
                                          stops, MAX_ATTEMPTED_STEPS, ROUNDOFF_FLOOR, BLOWUP_BOUND)
    return np.array(ts), np.array(ys).reshape(-1, len(y)), np.array(dys).reshape(-1, len(y)), stop


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
    ts, ys, dys, stop = _dopri5(
        sys._rhs, sys._coefficients, float(t_span[0]), float(t_span[1]), y0.reshape(-1), tol)
    slots = zip(np.hsplit(ys, len(y0)), np.hsplit(dys, len(y0)))
    return [Trajectory(ts, y, dy, stop) for y, dy in slots]


def integrate(
    sys: LieSystem,
    x0: Sequence[float],
    t_span: tuple[float, float] = (0.0, 1.0),
    tol: float = DEFAULT_TOL,
) -> Trajectory:
    """Integrate the system from x0 over t_span with local error <= tol."""
    return integrate_tuple(sys, [x0], t_span, tol)[0]


def integrated_check(run) -> Check:
    """`integrated` on a Trajectory or group.GroupTrajectory: it passes when
    the run reached t1 or blew up, and fails when it stopped on step
    underflow or on the step budget, naming the stop and its time."""
    detail = f"{len(run.t)} nodes, blew_up={run.stop == 'blow-up'}"
    if run.stop in (None, "blow-up"):
        return Check("integrated", True, detail=detail)
    return Check("integrated", False, detail=f"{run.stop} at t={float(run.t[-1])}; {detail}")


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
    r, vector = sys.r, field_vector(sys.fields)
    if initial_points is not None:
        points = [list(map(float, p)) for p in initial_points]
        if len(points) != m:
            raise ValueError(f"expected {m} initial points, got {len(points)}")
        if evaluation_rank(vector, sys.dim, points)[0] < r:
            raise FundamentalSetError(
                "supplied initial tuple is not fundamental (rank-deficient at t=0)"
            )
        return points
    rng = random.Random(seed)
    for _ in range(MAX_RESAMPLES):
        cand = [[float(ex.random_rational(rng)) for _ in range(sys.dim)] for _ in range(m)]
        try:
            rank, _ = evaluation_rank(vector, sys.dim, cand)
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
