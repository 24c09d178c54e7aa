import json
import math
import random

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from liesys.cli import main
from liesys.dynamics import (
    _A,
    _B4,
    _B5,
    _C,
    BLOWUP_BOUND,
    ROUNDOFF_FLOOR,
    CoefficientCurve,
    LieSystem,
    _dopri5,
    align_trajectories,
    evaluate_field,
    fundamental_points,
    fundamental_set,
    integrate,
    integrate_tuple,
)
from liesys.errors import EvaluationError, FundamentalSetError
from liesys.expr import Add, Call, Chart, Const, Mul, Pow, Var, compile_expr
from liesys.geometry import VectorField
from liesys.group import MatrixCurve, solve_group_equation
from liesys.pde import PdeSystem, _axis_rhs

from conftest import random_tree

LINE = Chart(("x",))
PLANE = Chart(("x", "y"))


def line_system(component: str, coefficient: str = "1") -> LieSystem:
    return LieSystem(
        [VectorField.from_strings(LINE, [component])],
        [CoefficientCurve.from_string(coefficient)],
    )


def riccati_101() -> LieSystem:
    fields = [VectorField.from_strings(LINE, [s]) for s in ("1", "x", "x^2")]
    curves = [CoefficientCurve.from_string(s) for s in ("1", "0", "1")]
    return LieSystem(fields, curves)


class TestCoefficientCurve:
    def test_expression_curve(self):
        curve = CoefficientCurve.from_string("1 + t/2")
        assert curve(2.0) == pytest.approx(2.0)

    def test_tabulated_linear_interpolation(self):
        curve = CoefficientCurve(table=([0.0, 1.0, 2.0], [0.0, 2.0, 0.0]))
        assert curve(0.5) == pytest.approx(1.0)
        assert curve(1.5) == pytest.approx(1.0)

    def test_rejects_extra_variables(self):
        from liesys.expr import parse

        with pytest.raises(ValueError):
            CoefficientCurve(expression=parse("t + x", ("t", "x")))

    def test_rejects_unsorted_table(self):
        with pytest.raises(ValueError):
            CoefficientCurve(table=([0.0, 0.0], [1.0, 2.0]))


class TestEvaluateField:
    def test_exponential_growth(self):
        assert evaluate_field(line_system("x"), 0.0, [1.0]) == pytest.approx([1.0])

    def test_riccati_arithmetic(self):
        assert evaluate_field(riccati_101(), 0.0, [2.0]) == pytest.approx([5.0])

    def test_euclidean_rotation_component(self):
        fields = [VectorField.from_strings(PLANE, c) for c in (["1", "0"], ["0", "1"], ["y", "-x"])]
        curves = [CoefficientCurve.from_string(s) for s in ("0", "0", "1")]
        sys = LieSystem(fields, curves)
        assert evaluate_field(sys, 0.0, [1.0, 0.0]) == pytest.approx([0.0, -1.0])

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            evaluate_field(line_system("x"), 0.0, [1.0, 2.0])

    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError):
            LieSystem(
                [VectorField.from_strings(LINE, ["x"]), VectorField.from_strings(LINE, ["2*x"])],
                [CoefficientCurve.from_string("1")] * 2,
            )


class TestIntegrate:
    def test_exponential(self):
        tr = integrate(line_system("x"), [1.0], (0.0, 1.0), tol=1e-9)
        assert abs(tr.endpoint()[0] - math.e) <= 1e-8

    def test_separable_inverse_square_closed_form(self):
        tr = integrate(line_system("1/x^2"), [1.0], (0.0, 1.0), tol=1e-9)
        assert abs(tr.endpoint()[0] - 4.0 ** (1 / 3)) <= 1e-8

    def test_riccati_blow_up_truncates(self):
        tr = integrate(riccati_101(), [0.0], (0.0, 2.0))
        assert tr.blew_up
        assert tr.truncated_at is not None
        assert tr.truncated_at <= math.pi / 2 + 1e-3

    def test_tan_on_safe_interval(self):
        tr = integrate(riccati_101(), [0.0], (0.0, 1.2))
        assert not tr.blew_up
        assert abs(tr.endpoint()[0] - math.tan(1.2)) <= 1e-8

    def test_convergence_under_tolerance_halving(self):
        # step quantization makes a single halving noisy, so the factor is
        # measured as the per-halving geometric mean across a decade range
        cases = [
            (line_system("x"), [1.0], 1.0, math.e),
            (line_system("1/x^2"), [1.0], 1.0, 4.0 ** (1 / 3)),
            (riccati_101(), [0.0], 1.2, math.tan(1.2)),
        ]
        halvings = math.log2(1e-6 / 1e-9)
        for sys, x0, t1, exact in cases:
            coarse = abs(integrate(sys, x0, (0.0, t1), tol=1e-6).endpoint()[0] - exact)
            fine = abs(integrate(sys, x0, (0.0, t1), tol=1e-9).endpoint()[0] - exact)
            assert (coarse / fine) ** (1 / halvings) >= 2.0

    def test_flow_property_autonomous(self):
        sys = riccati_101()
        through = integrate(sys, [0.0], (0.0, 0.9), tol=1e-9)
        first = integrate(sys, [0.0], (0.0, 0.4), tol=1e-9)
        second = integrate(sys, first.endpoint(), (0.4, 0.9), tol=1e-9)
        assert abs(through.endpoint()[0] - second.endpoint()[0]) <= 1e-8

    def test_field_matches_finite_differences_along_trajectory(self):
        sys = riccati_101()
        tr = integrate(sys, [0.0], (0.0, 1.0), tol=1e-9)
        grid = np.linspace(0.0, 1.0, 1001)
        fine = tr.resampled(grid)
        h = grid[1] - grid[0]
        worst = 0.0
        for i in range(1, len(grid) - 1):
            fd = (fine.states[i + 1] - fine.states[i - 1]) / (2 * h)
            worst = max(worst, abs(fd[0] - evaluate_field(sys, grid[i], fine.states[i])[0]))
        assert worst <= 50 * h**2

    def test_matches_scipy_oracle(self):
        fields = [VectorField.from_strings(PLANE, c) for c in (["1", "0"], ["0", "1"], ["y", "-x"])]
        curves = [CoefficientCurve.from_string(s) for s in ("1 - t", "1/2", "1 + t/2")]
        sys = LieSystem(fields, curves)
        mine = integrate(sys, [0.3, -0.2], (0.0, 1.0), tol=1e-10)
        oracle = solve_ivp(
            lambda t, x: sys.velocity(t, x),
            (0.0, 1.0),
            [0.3, -0.2],
            rtol=1e-11,
            atol=1e-12,
            dense_output=True,
        )
        assert np.max(np.abs(mine.endpoint() - oracle.y[:, -1])) <= 1e-8

    def test_dense_output_accuracy(self):
        tr = integrate(line_system("x"), [1.0], (0.0, 1.0), tol=1e-9)
        ts = np.linspace(0.05, 0.95, 37)
        assert np.max(np.abs(tr.resampled(ts).states[:, 0] - np.exp(ts))) <= 1e-7

    def test_bad_t_span(self):
        with pytest.raises(ValueError):
            integrate(line_system("x"), [1.0], (1.0, 0.0))


class TestRoundOffFloor:
    def test_escape_of_x_squared_takes_few_nodes(self):
        tr = integrate(line_system("x^2"), [1.0], (0.0, 5.0), tol=1e-9)
        assert tr.blew_up
        assert abs(tr.truncated_at - 1.0) <= 1e-8
        assert len(tr.t) < 5000

    def test_regular_grids_unchanged(self):
        assert len(integrate(riccati_101(), [0.0], (0.0, 1.2)).t) == 75
        assert len(integrate(riccati_101(), [0.0], (0.0, 1.5)).t) == 237

    def test_sl2_group_seed_near_a_blow_up(self):
        assert main(["examples", "run", "sl2_group", "--seed", "1505200443"]) == 0


def reference_velocity(sys: LieSystem, t: float, x: np.ndarray) -> np.ndarray:
    """b_a(t) * X_a added one field at a time, each component compiled alone."""
    b = [curve(t) for curve in sys.coefficients]
    n = sys.dim
    out = np.zeros(len(x))
    for start in range(0, len(x), n):
        args = x[start : start + n].tolist()
        for weight, field in zip(b, sys.fields):
            if weight == 0.0:
                continue
            for i, c in enumerate(field.components):
                out[start + i] += weight * compile_expr(c, sys.chart.names)(*args)
    if not np.all(np.isfinite(out)):
        raise EvaluationError("field value not finite")
    return out


class TestCompiledVelocity:
    SINGULAR = (ZeroDivisionError, ValueError, OverflowError, EvaluationError)

    def random_system(self, rng: random.Random) -> LieSystem:
        t_names = ("t",)
        log = Call("ln", Add((Pow(Var("x"), 2), Const(1))))
        fields = [
            VectorField(PLANE, (random_tree(rng, ("x", "y"), 3, True), Mul((log, Var("y"))))),
            VectorField(PLANE, (Const(0), random_tree(rng, ("x", "y"), 3, True))),
            VectorField(PLANE, (random_tree(rng, ("x", "y"), 2), Call("exp", Var("x")))),
        ]
        curves = [
            CoefficientCurve(expression=random_tree(rng, t_names, 3, True)),
            CoefficientCurve(table=([0.0, 0.5, 1.0], [rng.uniform(-2, 2) for _ in range(3)])),
            CoefficientCurve(expression=Mul((Call("ln", Add((Var("t"), Const(1)))),
                                             random_tree(rng, t_names, 2)))),
        ]
        try:
            return LieSystem(fields, curves)
        except ValueError:  # dependent fields: draw again
            return self.random_system(rng)

    def test_matches_reference_bit_for_bit(self, rng):
        compared = 0
        for _ in range(40):
            sys = self.random_system(rng)
            for k in (1, 2, 3):
                t = rng.uniform(0.0, 1.0)
                x = np.array([rng.uniform(-2.0, 2.0) for _ in range(k * sys.dim)])
                try:
                    want = reference_velocity(sys, t, x)
                except self.SINGULAR:
                    with pytest.raises(self.SINGULAR):
                        sys.velocity(t, x)
                    continue
                assert sys.velocity(t, x).tobytes() == want.tobytes()
                compared += 1
        assert compared >= 100

    def test_zero_weight_field_is_not_evaluated(self):
        fields = [VectorField.from_strings(PLANE, c) for c in (["1", "y"], ["1/x", "ln(y)"])]
        sys = LieSystem(fields, [CoefficientCurve.from_string("1"),
                                 CoefficientCurve(table=([0.0, 1.0], [0.0, 1.0]))])
        x = np.array([0.0, -1.0, 0.5, 2.0])
        assert sys.velocity(0.0, x).tobytes() == reference_velocity(sys, 0.0, x).tobytes()
        with pytest.raises(ZeroDivisionError):
            sys.velocity(0.5, x)

    def test_weighted_singular_points_raise(self):
        sys = line_system("1/x", "1 + t")
        with pytest.raises(ZeroDivisionError):
            sys.velocity(0.0, np.array([0.0]))
        with pytest.raises(ValueError):
            line_system("ln(x)").velocity(0.0, np.array([-1.0]))
        with pytest.raises(EvaluationError):
            line_system("x*x").velocity(0.0, np.array([1e200]))
        with pytest.raises(EvaluationError):
            line_system("x", "exp(t)*exp(t)").velocity(500.0, np.array([1.0]))


def reference_dopri5(f, t0, t1, y0, tol, max_norm=BLOWUP_BOUND, stops=()):
    """_dopri5 as a loop over numpy arrays: f maps (t, array) to an array, and
    each stage is y + h * sum(a * k), summed by the builtin onto 0.  A step
    that would pass the next stop ends on it, and an accepted landing step
    leaves the proposed h as it was."""
    y = np.array(y0, dtype=float)
    t = float(t0)
    k1 = f(t, y)
    ts, ys, dys = [t], [y.copy()], [k1.copy()]
    h = min(0.01 * (t1 - t0), 0.1)
    blew_up = False
    truncated_at = None
    min_h = 1e-13 * max(1.0, abs(t1 - t0))
    pending = sorted(set(float(s) for s in stops if t0 < s < t1))
    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        h = min(h, t1 - t)
        landing = bool(pending) and t + h >= pending[0]
        step = pending[0] - t if landing else h
        try:
            k = [k1]
            for stage in range(1, 7):
                yi = y + step * sum(a * ki for a, ki in zip(_A[stage], k))
                k.append(f(t + _C[stage] * step, yi))
            y5 = y + step * sum(b * ki for b, ki in zip(_B5, k))
            y4 = y + step * sum(b * ki for b, ki in zip(_B4, k))
            err = float(np.max(np.abs(y5 - y4)))
            scale = max(1.0, float(np.max(np.abs(y))), float(np.max(np.abs(y5))))
            failed = not np.isfinite(err)
        except (EvaluationError, ZeroDivisionError, ValueError, OverflowError):
            failed = True
            err = np.inf
        allowed = max(tol * min(1.0, step), ROUNDOFF_FLOOR) * scale if np.isfinite(err) else 0.0
        if not failed and err <= allowed:
            t = pending.pop(0) if landing else t + step
            y = y5
            k1 = k[6]
            ts.append(t)
            ys.append(y.copy())
            dys.append(k1.copy())
            if float(np.max(np.abs(y))) > max_norm:
                blew_up = True
                truncated_at = t
                break
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (allowed / err) ** 0.2))
            if not landing:
                h *= factor
        else:
            h = step * (0.25 if not np.isfinite(err) else max(0.1, 0.9 * (allowed / err) ** 0.2))
        if h < min_h:
            blew_up = True
            truncated_at = t
            break
    return np.array(ts), np.array(ys), np.array(dys), blew_up, truncated_at


def assert_same_run(got, want):
    for a, b in zip(got[:3], want[:3]):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got[3:] == want[3:]


def on_arrays(f):
    return lambda t, y: np.array(f(t, y.tolist()))


class TestDopri5BitIdentity:
    """_dopri5 on lists of floats against the numpy loop it replaced."""

    def test_riccati_escape(self):
        sys = riccati_101()  # x' = 1 + x^2: tan escapes at pi/2
        tr = integrate(sys, [0.0], (0.0, 2.0))
        want = reference_dopri5(sys.velocity, 0.0, 2.0, [0.0], 1e-9)
        assert tr.blew_up and len(tr.t) > 1000
        assert_same_run((tr.t, tr.states, tr.derivatives, tr.blew_up, tr.truncated_at), want)

    def test_stacked_tuple_of_four(self):
        fields = [VectorField.from_strings(PLANE, c) for c in (["1", "x*y"], ["y", "-x"], ["x^2", "0"])]
        sys = LieSystem(fields, [CoefficientCurve.from_string(s) for s in ("1 - t", "1 + t/2", "t^2")])
        points = [[0.3, -0.2], [1.0, 0.0], [0.0, 1.0], [-0.5, 0.7]]
        slots = integrate_tuple(sys, points, (0.0, 1.5), tol=1e-10)
        want = reference_dopri5(sys.velocity, 0.0, 1.5, np.ravel(points), 1e-10)
        got = (slots[0].t, np.hstack([tr.states for tr in slots]),
               np.hstack([tr.derivatives for tr in slots]), slots[0].blew_up, slots[0].truncated_at)
        assert_same_run(got, want)

    def test_group_equation(self):
        a = MatrixCurve.from_strings([["t", "1", "0"], ["-1", "0", "t^2"], ["1/2", "0", "-t"]])
        g = solve_group_equation(a, (0.0, 2.0), tol=1e-10)
        # the columns of g, stacked: slot j of the tuple is column j
        want = reference_dopri5(a.system.velocity, 0.0, 2.0, np.eye(3).reshape(-1), 1e-10)
        columns = lambda m: np.swapaxes(m, 1, 2).reshape(len(g.t), -1)
        got = (g.t, columns(g.matrices), columns(g.derivatives), g.blew_up, g.truncated_at)
        assert_same_run(got, want)

    def test_pde_axis(self):
        sys = PdeSystem.from_strings(2, ["u", "v"], [["u^2", "u*v"], ["v - t1*u", "sin(t2)*u"]])
        for axis in (0, 1):
            t_frozen = np.array([0.3, 0.2])
            field, t_now = sys._compiled_fields[axis], t_frozen.tolist()

            def array_rhs(tau, x):
                t_now[axis] = float(tau)
                return np.array(field(*t_now, *x.tolist()))

            got = _dopri5(_axis_rhs(sys, axis, t_frozen), 0.2, 1.4, np.array([0.4, -0.3]), 1e-9)
            assert_same_run(got, reference_dopri5(array_rhs, 0.2, 1.4, [0.4, -0.3], 1e-9))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_non_finite_right_hand_side_is_rejected(self, bad, slot):
        def f(t, y):
            out = [math.cos(t) * y[1], 1.0 - y[0]]
            if t > 0.3:
                out[slot] = bad
            return out

        got = _dopri5(f, 0.0, 1.0, [1.0, 0.5], 1e-9)
        assert_same_run(got, reference_dopri5(on_arrays(f), 0.0, 1.0, [1.0, 0.5], 1e-9))
        ts, ys, _, blew_up, truncated_at = got
        assert blew_up and truncated_at <= 0.3 and np.all(np.isfinite(ys))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_inf_with_zero_weight_still_rejects(self):
        # k2 has weight 0 in y5 and y4, so only 0 * inf = nan rejects the step
        # whose k2 (the 14th call: third attempt, second stage) is inf
        def counting_rhs():
            calls = []

            def f(t, y):
                calls.append(t)
                return [math.inf if len(calls) == 14 else math.cos(t), math.sin(t)]

            return f

        got = _dopri5(counting_rhs(), 0.0, 1.0, [1.0, 0.5], 1e-9)
        assert_same_run(got, reference_dopri5(on_arrays(counting_rhs()), 0.0, 1.0, [1.0, 0.5], 1e-9))
        assert not got[3] and np.all(np.isfinite(got[1]))


class TestStops:
    """_dopri5 landing on interior stops."""

    RHS = staticmethod(lambda t, y: [math.cos(3 * t) * y[1], 1.0 - y[0] * y[1]])
    STOPS = [0.1, 1 / 3, 0.35, 0.35 + 1e-12, 0.7, 2 ** 0.5 / 2, 1.2, 1 / 3]

    def test_every_stop_is_a_node(self):
        ts = _dopri5(self.RHS, 0.0, 1.5, [1.0, 0.5], 1e-9, stops=self.STOPS)[0]
        assert np.all(np.diff(ts) > 0)
        for stop in self.STOPS:
            assert ts[np.searchsorted(ts, stop)] == stop

    def test_no_step_crosses_a_stop(self):
        ts = _dopri5(self.RHS, 0.0, 1.5, [1.0, 0.5], 1e-9, stops=self.STOPS)[0]
        for left, right in zip(ts[:-1], ts[1:]):
            assert not any(left < stop < right for stop in self.STOPS)

    def test_stops_outside_the_span_are_ignored(self):
        got = _dopri5(self.RHS, 0.2, 1.5, [1.0, 0.5], 1e-9, stops=[-1.0, 0.0, 0.2, 1.5, 1.6, 9.0])
        assert_same_run(got, _dopri5(self.RHS, 0.2, 1.5, [1.0, 0.5], 1e-9))

    def test_matches_reference(self):
        got = _dopri5(self.RHS, 0.0, 1.5, [1.0, 0.5], 1e-9, stops=self.STOPS)
        want = reference_dopri5(on_arrays(self.RHS), 0.0, 1.5, [1.0, 0.5], 1e-9, stops=self.STOPS)
        assert_same_run(got, want)

    def test_matches_reference_through_an_escape(self):
        sys = riccati_101()  # tan escapes at pi/2, past the last stop
        stops = np.linspace(0.0, 2.0, 21)
        got = _dopri5(sys._velocity, 0.0, 2.0, [0.0], 1e-9, stops=stops)
        assert_same_run(got, reference_dopri5(sys.velocity, 0.0, 2.0, [0.0], 1e-9, stops=stops))
        assert got[3] and 1.5 in got[0] and 1.6 not in got[0]


class TestIntegrateTuple:
    def test_slots_share_one_grid_and_match_their_own_integration(self):
        fields = [VectorField.from_strings(PLANE, c) for c in (["1", "0"], ["0", "1"], ["y", "-x"])]
        curves = [CoefficientCurve.from_string(s) for s in ("1 - t", "1/2", "1 + t/2")]
        cases = [
            (riccati_101(), [[-2.0], [-1.0], [0.0], [0.3]], (0.0, 1.2)),
            (LieSystem(fields, curves), [[0.3, -0.2], [1.0, 0.0], [0.0, 1.0]], (0.0, 1.0)),
        ]
        for sys, points, span in cases:
            tuple_ = integrate_tuple(sys, points, span)
            assert len(tuple_) == len(points)
            for p, tr in zip(points, tuple_):
                assert np.array_equal(tr.t, tuple_[0].t)
                alone = integrate(sys, p, span)
                assert tr.t[-1] == alone.t[-1] == span[1]
                assert np.max(np.abs(tr.endpoint() - alone.endpoint())) <= 1e-7
        # every node of every slot against the closed form tan(t + atan(x0))
        points = [-2.0, -1.0, 0.0, 0.3]
        tuple_ = integrate_tuple(riccati_101(), [[p] for p in points], (0.0, 1.2))
        for x0, tr in zip(points, tuple_):
            assert np.max(np.abs(tr.states[:, 0] - np.tan(tr.t + math.atan(x0)))) <= 1e-7

    def test_blow_up_in_one_slot_stops_every_slot(self):
        tuple_ = integrate_tuple(riccati_101(), [[0.0], [0.5]], (0.0, 1.2))
        pole = math.pi / 2 - math.atan(0.5)
        for tr in tuple_:
            assert tr.blew_up
            assert tr.truncated_at == tuple_[0].truncated_at
            assert abs(tr.truncated_at - pole) <= 1e-6
        assert abs(tuple_[0].endpoint()[0] - math.tan(tuple_[0].t_end)) <= 1e-6

    def test_single_point_tuple_is_integrate(self):
        sys = riccati_101()
        alone = integrate(sys, [0.0], (0.0, 1.2))
        (slot,) = integrate_tuple(sys, [[0.0]], (0.0, 1.2))
        assert len(alone.t) == 75
        assert np.array_equal(slot.t, alone.t)
        assert np.array_equal(slot.states, alone.states)

    def test_point_shape_checked(self):
        with pytest.raises(ValueError):
            integrate_tuple(riccati_101(), [[0.0, 1.0]], (0.0, 1.0))
        with pytest.raises(ValueError):
            integrate_tuple(riccati_101(), [], (0.0, 1.0))


class TestTrajectoryIO:
    def test_csv_roundtrip(self, tmp_path):
        tr = integrate(line_system("x"), [1.0], (0.0, 0.5))
        path = tmp_path / "out.csv"
        tr.to_csv(path, ["x"])
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "t,x"
        assert len(rows) == len(tr.t) + 1
        last = rows[-1].split(",")
        assert float(last[1]) == pytest.approx(tr.endpoint()[0])

    def test_json_dict(self):
        tr = integrate(line_system("x"), [1.0], (0.0, 0.5))
        doc = json.loads(json.dumps(tr.to_json_dict()))
        assert doc["blew_up"] is False
        assert len(doc["t"]) == len(doc["states"])


class TestFundamentalSet:
    def test_riccati_distinct_points_accepted(self):
        sys = riccati_101()
        trajectories = fundamental_set(
            sys, 3, (0.0, 1.0), initial_points=[[-2.0], [-1.0], [0.0]]
        )
        assert len(trajectories) == 3
        grid = trajectories[0].t
        assert all(np.array_equal(tr.t, grid) for tr in trajectories)

    def test_equal_points_rejected(self):
        with pytest.raises(FundamentalSetError):
            fundamental_set(riccati_101(), 3, initial_points=[[0.5], [0.5], [1.0]])

    def test_linear_system_independent_vectors(self):
        chart = Chart(("x1", "x2"))
        fields = [
            VectorField.from_strings(chart, c)
            for c in (["x1", "0"], ["x2", "0"], ["0", "x1"], ["0", "x2"])
        ]
        curves = [CoefficientCurve.from_string(s) for s in ("0", "1", "-1", "0")]
        sys = LieSystem(fields, curves)
        trajectories = fundamental_set(
            sys, 2, (0.0, 1.0), initial_points=[[1.0, 0.0], [0.0, 1.0]]
        )
        assert len(trajectories) == 2
        with pytest.raises(FundamentalSetError):
            fundamental_set(sys, 2, initial_points=[[1.0, 0.0], [2.0, 0.0]])

    def test_random_points_found(self):
        trajectories = fundamental_set(riccati_101(), 3, (0.0, 0.5), seed=5)
        assert len(trajectories) == 3

    def test_random_point_at_a_pole_is_redrawn(self):
        # seed 6226 draws x = 0 first, the pole of 1/x^2
        points = fundamental_points(line_system("1/x^2"), 1, seed=6226)
        assert len(points) == 1 and points[0][0] != 0.0

    def test_alignment_clips_to_overlap(self):
        sys = riccati_101()
        a = integrate(sys, [0.0], (0.0, 1.2))
        b = integrate(sys, [0.5], (0.0, 1.2))  # blows up near 1.1
        assert b.blew_up
        aligned = align_trajectories([a, b])
        assert aligned[0].t[-1] <= b.t[-1] + 1e-12
        assert np.array_equal(aligned[0].t, aligned[1].t)
