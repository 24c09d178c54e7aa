import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from liesys import dynamics, pde
from liesys.dynamics import (
    _A,
    _B4,
    _B5,
    _C,
    BLOWUP_BOUND,
    MAX_ATTEMPTED_STEPS,
    ROUNDOFF_FLOOR,
    CoefficientCurve,
    LieSystem,
    _compile_velocity,
    _dopri5,
    _Rhs,
    _run,
    _velocity_source,
    align_trajectories,
    fundamental_points,
    fundamental_set,
    integrate,
    integrate_tuple,
)
from liesys.errors import EvaluationError, FundamentalSetError, IntegrationBlowUpError
from liesys.expr import Add, Call, Chart, Const, Mul, Pow, Var, _compiled, compile_expr, compile_vector
from liesys.geometry import VectorField
from liesys.group import MatrixCurve, check_equivariance, solve_group_equation
from liesys.pde import PdeSystem, solve_on_grid

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


class TestVelocity:
    def test_exponential_growth(self):
        assert line_system("x").velocity(0.0, np.array([1.0])) == pytest.approx([1.0])

    def test_riccati_arithmetic(self):
        assert riccati_101().velocity(0.0, np.array([2.0])) == pytest.approx([5.0])

    def test_euclidean_rotation_component(self):
        fields = [VectorField.from_strings(PLANE, c) for c in (["1", "0"], ["0", "1"], ["y", "-x"])]
        curves = [CoefficientCurve.from_string(s) for s in ("0", "0", "1")]
        sys = LieSystem(fields, curves)
        assert sys.velocity(0.0, np.array([1.0, 0.0])) == pytest.approx([0.0, -1.0])

    def test_stacked_states_move_one_slot_each(self):
        assert line_system("x").velocity(0.0, np.array([1.0, 2.0])) == pytest.approx([1.0, 2.0])

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

    def test_long_span_is_not_a_step_underflow(self):
        # the first step is capped at 0.1, under 1e-13 of a span of 1e13
        tr = integrate(line_system("1", "1/1000000000"), [1.0], (0.0, 1e13))
        assert not tr.blew_up and tr.truncated_at is None
        assert tr.t_end == 1e13 and abs(tr.endpoint()[0] - 10001.0) <= 1e-8

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
            worst = max(worst, abs(fd[0] - sys.velocity(grid[i], fine.states[i])[0]))
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
        # the first triple that `examples run sl2_group --seed 1505200443` drew
        # when that entry checked random triples: its Riccati solution passes
        # through infinity, so the joint integration runs into the blow-up
        # bound in the round-off regime (3,967 nodes, not tens) and all but
        # 234 nodes lie within POLE_MARGIN of the pole x2 = 0
        b = [CoefficientCurve.constant(Fraction(p, q)) for p, q in ((149, 200), (363, 500), (383, 500))]
        report = check_equivariance(b, [-0.9666077268840205, -0.9286558658253965], (0.0, 1.0), 1e-9)
        assert (report.total_points, report.compared_points) == (3967, 234)
        assert report.passed


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

    def test_same_source_shares_code_but_not_tables(self):
        fields = [VectorField.from_strings(PLANE, c) for c in (["1", "y"], ["x", "0"])]

        def system(values):
            return LieSystem(fields, [CoefficientCurve.from_string("1"),
                                      CoefficientCurve(table=([0.0, 1.0], values))])

        first, second = system([0.0, 2.0]), system([5.0, -1.0])
        assert first._velocity.__code__ is second._velocity.__code__
        x = np.array([3.0, 7.0])
        assert first.velocity(0.5, x).tolist() == [1.0 + 1.0 * 3.0, 7.0]
        assert second.velocity(0.5, x).tolist() == [1.0 + 2.0 * 3.0, 7.0]

    def test_compile_cache_is_bounded(self):
        maxsize = _compiled.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize < 10_000


def reference_dopri5(f, t0, t1, y0, tol, max_norm=BLOWUP_BOUND, stops=(),
                     max_steps=MAX_ATTEMPTED_STEPS):
    """_dopri5 as a loop over numpy arrays: f maps (t, array) to an array, and
    each stage is y + h * sum(a * k), summed by the builtin onto 0.  A step
    that would pass the next stop ends on it, and an accepted landing step
    leaves the proposed h as it was.  Returns (ts, ys, dys, stop)."""
    y = np.array(y0, dtype=float)
    t = float(t0)
    k1 = f(t, y)
    ts, ys, dys = [t], [y.copy()], [k1.copy()]
    h = min(0.01 * (t1 - t0), 0.1)
    stop = None
    attempted = 0
    pending = sorted(set(float(s) for s in stops if t0 < s < t1))
    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        if attempted == max_steps:
            stop = "step budget"
            break
        attempted += 1
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
                stop = "blow-up"
                break
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (allowed / err) ** 0.2))
            if not landing:
                h *= factor
        else:
            h = step * (0.25 if not np.isfinite(err) else max(0.1, 0.9 * (allowed / err) ** 0.2))
        if h < 1e-13 * max(1.0, abs(t)):
            stop = "step underflow"
            break
    return np.array(ts), np.array(ys), np.array(dys), stop


def assert_same_run(got, want):
    """Runs as (arrays..., stop): the same bits in each array, the same stop."""
    assert len(got) == len(want)
    for a, b in zip(got[:-1], want[:-1]):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got[-1] == want[-1]


def on_arrays(f):
    return lambda t, y: np.array(f(t, y.tolist()))


def checked(rhs, scalars):
    """The checked velocity of an _Rhs, on arrays: the reference's f."""
    return on_arrays(_compile_velocity(rhs, scalars))


def callable_axis(sys, axis, parameters):
    """A PDE axis as a function of (tau, array), the field compiled on its
    own with compile_vector and the parameters from parameters(tau)."""
    field = compile_vector(sys.fields[axis], sys.params.names + sys.chart.names)
    return lambda tau, x: np.array(field(*parameters(tau), *x.tolist()))


class TestDopri5BitIdentity:
    """_dopri5 on lists of floats against the numpy loop it replaced."""

    def test_riccati_escape(self):
        sys = riccati_101()  # x' = 1 + x^2: tan escapes at pi/2
        tr = integrate(sys, [0.0], (0.0, 2.0))
        want = reference_dopri5(sys.velocity, 0.0, 2.0, [0.0], 1e-9)
        assert tr.blew_up and len(tr.t) > 1000
        assert_same_run((tr.t, tr.states, tr.derivatives, tr.stop), want)

    def test_stacked_tuple_of_four(self):
        fields = [VectorField.from_strings(PLANE, c) for c in (["1", "x*y"], ["y", "-x"], ["x^2", "0"])]
        sys = LieSystem(fields, [CoefficientCurve.from_string(s) for s in ("1 - t", "1 + t/2", "t^2")])
        points = [[0.3, -0.2], [1.0, 0.0], [0.0, 1.0], [-0.5, 0.7]]
        slots = integrate_tuple(sys, points, (0.0, 1.5), tol=1e-10)
        want = reference_dopri5(sys.velocity, 0.0, 1.5, np.ravel(points), 1e-10)
        assert_same_run(run_of(slots), want)

    def test_group_equation(self):
        a = MatrixCurve.from_strings([["t", "1", "0"], ["-1", "0", "t^2"], ["1/2", "0", "-t"]])
        g = solve_group_equation(a, (0.0, 2.0), tol=1e-10)
        # the columns of g, stacked: slot j of the tuple is column j
        want = reference_dopri5(a.system.velocity, 0.0, 2.0, np.eye(3).reshape(-1), 1e-10)
        columns = np.swapaxes(g.matrices, 1, 2).reshape(len(g.t), -1)
        ts, ys, _, stop = want
        assert_same_run((g.t, columns, g.stop), (ts, ys, stop))

    def test_pde_axis(self):
        sys = PdeSystem.from_strings(2, ["u", "v"], [["u^2", "u*v"], ["v - t1*u", "sin(t2)*u"]])
        for axis in (0, 1):
            t_now = [0.3, 0.2]

            def parameters(tau):
                t_now[axis] = tau
                return t_now

            got = _dopri5(sys._inline_fields[axis], parameters, 0.2, 1.4, np.array([0.4, -0.3]), 1e-9)
            want = reference_dopri5(callable_axis(sys, axis, parameters), 0.2, 1.4, [0.4, -0.3], 1e-9)
            assert_same_run(got, want)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_non_finite_right_hand_side_is_rejected(self, bad, slot):
        # past t = 0.3 the value of the slot's component is `bad`
        rhs = _Rhs(3, ("_b0 * _x1 + _b1", "1.0 - _x0 + _b2"))

        def scalars(t):
            out = [math.cos(t), 0.0, 0.0]
            if t > 0.3:
                out[1 + slot] = bad
            return out

        got = _dopri5(rhs, scalars, 0.0, 1.0, [1.0, 0.5], 1e-9)
        assert_same_run(got, reference_dopri5(checked(rhs, scalars), 0.0, 1.0, [1.0, 0.5], 1e-9))
        ts, ys, _, stop = got
        assert stop == "step underflow" and ts[-1] <= 0.3 and np.all(np.isfinite(ys))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_inf_with_zero_weight_still_rejects(self):
        # k2 has weight 0 in y5 and y4, so only 0 * inf = nan rejects the step
        # whose k2 (the 14th scalars call: third attempt, second stage) is inf
        rhs = _Rhs(2, ("_b0", "_b1"))

        def counting_scalars():
            calls = []

            def scalars(t):
                calls.append(t)
                return math.inf if len(calls) == 14 else math.cos(t), math.sin(t)

            return scalars

        got = _dopri5(rhs, counting_scalars(), 0.0, 1.0, [1.0, 0.5], 1e-9)
        want = reference_dopri5(checked(rhs, counting_scalars()), 0.0, 1.0, [1.0, 0.5], 1e-9)
        assert_same_run(got, want)
        assert got[3] is None and np.all(np.isfinite(got[1]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 12, 16])
    def test_state_lengths(self, n):
        # one slot of width n: x_i' = cos(t + i) x_(i-1) - x_i / 2 + x_i x_(i+1) / 5
        rhs = _Rhs(n, tuple(f"_b{i} * _x{(i - 1) % n} - 0.5 * _x{i} + 0.2 * _x{i} * _x{(i + 1) % n}"
                            for i in range(n)))

        def scalars(t):
            return [math.cos(t + i) for i in range(n)]

        y0 = [math.sin(i + 1) for i in range(n)]
        want = reference_dopri5(checked(rhs, scalars), 0.0, 3.0, y0, 1e-9)
        assert_same_run(_dopri5(rhs, scalars, 0.0, 3.0, y0, 1e-9), want)

    def test_singular_point_in_a_middle_stage(self):
        # the 10th scalars call is stage 4 of the second attempted step, where
        # the component 1.0 / _b1 divides by zero
        rhs = _Rhs(2, ("_b0 * _x1", "1.0 / _b1 - _x0"))

        def counting_scalars(calls):
            def scalars(t):
                calls.append(t)
                return math.cos(t), 0.0 if len(calls) == 10 else 1.0

            return scalars

        calls, want_calls = [], []
        got = _dopri5(rhs, counting_scalars(calls), 0.0, 1.0, [1.0, 0.5], 1e-9)
        want = reference_dopri5(checked(rhs, counting_scalars(want_calls)), 0.0, 1.0, [1.0, 0.5], 1e-9)
        assert_same_run(got, want)
        assert calls == want_calls
        assert got[3] is None and got[0][-1] == 1.0

    def test_random_systems(self, rng):
        compared = 0
        for _ in range(12):
            sys = TestCompiledVelocity().random_system(rng)
            x0 = [rng.uniform(-2.0, 2.0) for _ in range(sys.dim)]
            try:
                want = reference_dopri5(sys.velocity, 0.0, 1.0, x0, 1e-8)
            except TestCompiledVelocity.SINGULAR:
                with pytest.raises(EvaluationError):
                    integrate(sys, x0, (0.0, 1.0), tol=1e-8)
                continue
            tr = integrate(sys, x0, (0.0, 1.0), tol=1e-8)
            assert_same_run((tr.t, tr.states, tr.derivatives, tr.stop), want)
            compared += 1
        assert compared >= 8

    @pytest.mark.parametrize("span", [(0.0, 1.0), (0.0, 2.0)])
    def test_calls_per_attempted_step(self, span):
        # FSAL: one scalars call at t0, then six per attempted step, accepted or not
        sys = riccati_101()

        def counting_coefficients(calls):
            def scalars(t):
                calls.append(t)
                return sys._coefficients(t)

            return scalars

        calls, want_calls = [], []
        got = _dopri5(sys._rhs, counting_coefficients(calls), *span, [0.0], 1e-9)
        want = reference_dopri5(checked(sys._rhs, counting_coefficients(want_calls)), *span, [0.0], 1e-9)
        assert_same_run(got, want)
        assert calls == want_calls
        attempted, left = divmod(len(calls) - 1, 6)
        assert left == 0 and attempted >= len(got[0]) - 1


class TestRunEdges:
    """Runs whose node lists are shortest or widest, against the numpy loop:
    _run keeps states and derivatives in flat lists, reshaped once."""

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("n", [1, 3])
    def test_no_accepted_step(self, n):
        # finite at t0 only, so every step is rejected until h underflows
        rhs = _Rhs(1, tuple(f"_b0 * _x{(i + 1) % n}" for i in range(n)))

        def scalars(t):
            return (1.0,) if t == 0.0 else (math.nan,)

        y0 = [0.5 + i for i in range(n)]
        got = _dopri5(rhs, scalars, 0.0, 1.0, y0, 1e-9)
        assert_same_run(got, reference_dopri5(checked(rhs, scalars), 0.0, 1.0, y0, 1e-9))
        ts, ys, dys, stop = got
        assert stop == "step underflow" and ts.tolist() == [0.0]
        assert ys.shape == dys.shape == (1, n) and ys.tolist() == [y0]

    def test_blow_up_on_the_first_accepted_step(self):
        # two slots of x' = b, both past BLOWUP_BOUND after the first step
        rhs = _Rhs(1, ("_b0",))

        def scalars(t):
            return (1e12,)

        got = _dopri5(rhs, scalars, 0.0, 1.0, [0.0, 1.0], 1e-9)
        assert_same_run(got, reference_dopri5(checked(rhs, scalars), 0.0, 1.0, [0.0, 1.0], 1e-9))
        ts, ys, dys, stop = got
        assert stop == "blow-up" and len(ts) == 2 and ys.shape == dys.shape == (2, 2)
        assert ts[1] == 0.01 and np.all(ys[1] > BLOWUP_BOUND)

    def test_landing_on_stops_with_twelve_coordinates(self):
        n = 12
        rhs = _Rhs(n, tuple(f"_b{i} * _x{(i - 1) % n} - 0.5 * _x{i} + 0.2 * _x{i} * _x{(i + 1) % n}"
                            for i in range(n)))

        def scalars(t):
            return [math.cos(t + i) for i in range(n)]

        y0 = [math.sin(i + 1) for i in range(n)]
        stops = [0.25, 1 / 3, 1.0, 1.0 + 1e-12, 2 ** 0.5, 2.9]
        got = _dopri5(rhs, scalars, 0.0, 3.0, y0, 1e-9, stops=stops)
        assert_same_run(got, reference_dopri5(checked(rhs, scalars), 0.0, 3.0, y0, 1e-9, stops=stops))
        ts, ys, dys, stop = got
        assert stop is None and set(stops) <= set(ts.tolist())
        assert ys.shape == dys.shape == (len(ts), n)


class TestStepBudget:
    """A run stops on "step budget" once it has attempted MAX_ATTEMPTED_STEPS
    steps, and only then."""

    @staticmethod
    def counted_run(t1, calls):
        sys = riccati_101()

        def scalars(t):
            calls.append(t)
            return sys._coefficients(t)

        return _dopri5(sys._rhs, scalars, 0.0, t1, [0.0], 1e-9)

    def test_budget_stop_matches_the_reference(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_ATTEMPTED_STEPS", 40)
        calls = []
        got = self.counted_run(2.0, calls)
        assert_same_run(got, reference_dopri5(riccati_101().velocity, 0.0, 2.0, [0.0], 1e-9,
                                              max_steps=40))
        assert got[3] == "step budget" and len(calls) == 1 + 6 * 40

    def test_a_run_that_uses_the_whole_budget_reaches_t1(self, monkeypatch):
        calls = []
        full = self.counted_run(1.2, calls)
        attempted = (len(calls) - 1) // 6
        assert full[3] is None and full[0][-1] == 1.2
        monkeypatch.setattr(dynamics, "MAX_ATTEMPTED_STEPS", attempted)
        assert_same_run(self.counted_run(1.2, []), full)
        monkeypatch.setattr(dynamics, "MAX_ATTEMPTED_STEPS", attempted - 1)
        cut = self.counted_run(1.2, [])
        assert cut[3] == "step budget" and cut[0][-1] < 1.2


class TestStops:
    """_dopri5 landing on interior stops."""

    # x' = cos(3t) y, y' = 1 - x y
    RHS = _Rhs(1, ("_b0 * _x1", "1.0 - _x0 * _x1"))
    SCALARS = staticmethod(lambda t: (math.cos(3 * t),))
    STOPS = [0.1, 1 / 3, 0.35, 0.35 + 1e-12, 0.7, 2 ** 0.5 / 2, 1.2, 1 / 3]

    def run(self, t0, stops=()):
        return _dopri5(self.RHS, self.SCALARS, t0, 1.5, [1.0, 0.5], 1e-9, stops=stops)

    def test_every_stop_is_a_node(self):
        ts = self.run(0.0, self.STOPS)[0]
        assert np.all(np.diff(ts) > 0)
        for stop in self.STOPS:
            assert ts[np.searchsorted(ts, stop)] == stop

    def test_no_step_crosses_a_stop(self):
        ts = self.run(0.0, self.STOPS)[0]
        for left, right in zip(ts[:-1], ts[1:]):
            assert not any(left < stop < right for stop in self.STOPS)

    def test_stops_outside_the_span_are_ignored(self):
        assert_same_run(self.run(0.2, [-1.0, 0.0, 0.2, 1.5, 1.6, 9.0]), self.run(0.2))

    def test_matches_reference(self):
        want = reference_dopri5(checked(self.RHS, self.SCALARS), 0.0, 1.5, [1.0, 0.5], 1e-9,
                                stops=self.STOPS)
        assert_same_run(self.run(0.0, self.STOPS), want)

    def test_matches_reference_through_an_escape(self):
        sys = riccati_101()  # tan escapes at pi/2, past the last stop
        stops = np.linspace(0.0, 2.0, 21)
        got = _dopri5(sys._rhs, sys._coefficients, 0.0, 2.0, [0.0], 1e-9, stops=stops)
        assert_same_run(got, reference_dopri5(sys.velocity, 0.0, 2.0, [0.0], 1e-9, stops=stops))
        assert got[3] == "blow-up" and 1.5 in got[0] and 1.6 not in got[0]


def run_of(slots):
    """A tuple from integrate_tuple as one run of _dopri5 on the stacked state."""
    return (slots[0].t, np.hstack([tr.states for tr in slots]),
            np.hstack([tr.derivatives for tr in slots]), slots[0].stop)


class TestInlinedStep:
    """integrate and integrate_tuple step with the fields inlined and no
    finiteness check; every run matches the numpy loop on the checked
    velocity, failed stages included."""

    @staticmethod
    def assert_matches_reference(sys, points, span, tol=1e-9):
        got = run_of(integrate_tuple(sys, points, span, tol))
        assert_same_run(got, reference_dopri5(sys.velocity, *span, np.ravel(points), tol))
        return got

    @pytest.mark.parametrize("square", ["x^2", "x*x"])
    def test_stage_that_overflows_mid_step(self, square):
        # past t = 0.5 the weight of the square ramps towards 1e300, so a
        # later stage's x is past 1e154: x^2 raises OverflowError, x*x is inf
        sys = LieSystem([VectorField.from_strings(LINE, c) for c in (["1"], [square])],
                        [CoefficientCurve.from_string("1"),
                         CoefficientCurve(table=([0.0, 0.5, 0.6], [0.0, 0.0, 1e300]))])
        ts, ys, _, stop = self.assert_matches_reference(sys, [[0.0]], (0.0, 1.0))
        assert stop == "step underflow" and abs(ts[-1] - 0.5) <= 1e-6 and len(ts) > 5
        assert np.all(np.isfinite(ys))

    def test_coefficient_that_becomes_inf_at_a_stage(self):
        # exp(t) * exp(t) is inf past t = 354.89
        sys = line_system("x", "-exp(t)*exp(t)*exp(-705)")
        ts, _, _, stop = self.assert_matches_reference(sys, [[1.0]], (350.0, 356.0))
        assert stop == "step underflow" and abs(ts[-1] - 354.8914) <= 1e-4 and len(ts) > 100
        # a field that is 0 everywhere still turns the inf weight into a nan
        zero = line_system("0", "exp(t)*exp(t)")
        ts, ys, _, stop = self.assert_matches_reference(zero, [[1.0]], (354.0, 356.0))
        assert stop == "step underflow" and abs(ts[-1] - 354.8914) <= 1e-4 and np.all(ys == 1.0)

    def test_zero_weight_field_at_its_pole(self):
        # x stays at 0, the pole of 1/x, whose weight is 0 until t = 0.5
        sys = LieSystem([VectorField.from_strings(LINE, c) for c in (["x"], ["1/x"])],
                        [CoefficientCurve.from_string("1"),
                         CoefficientCurve(table=([0.0, 0.5, 1.0], [0.0, 0.0, 1.0]))])
        ts, ys, _, stop = self.assert_matches_reference(sys, [[0.0]], (0.0, 1.0))
        assert stop == "step underflow" and abs(ts[-1] - 0.5) <= 1e-6 and len(ts) > 5
        assert not np.any(ys)

    @pytest.mark.parametrize("slots", [1, 2, 3, 4])
    def test_slots_with_a_table_curve(self, slots):
        table = CoefficientCurve(table=([0.0, 0.4, 0.9, 1.5], [1.0, -0.5, 2.0, 0.3]))
        riccati = LieSystem([VectorField.from_strings(LINE, [c]) for c in ("1", "x", "x^2")],
                            [CoefficientCurve.from_string("1 - t"), table,
                             CoefficientCurve.from_string("-1")])
        plane = LieSystem([VectorField.from_strings(PLANE, c) for c in (["1", "y"], ["x", "0"])],
                          [table, CoefficientCurve.from_string("sin(t)")])
        starts = [[-0.3, 0.2], [0.3, -1.0], [0.9, 0.5], [1.6, 0.0]][:slots]
        self.assert_matches_reference(riccati, [p[:1] for p in starts], (0.0, 1.5))
        self.assert_matches_reference(plane, starts, (0.0, 1.5))

    @pytest.mark.parametrize("u0", [[0.4, -0.3], [2.0, 1.0]])
    def test_pde_grid_matches_the_callable_axis(self, monkeypatch, u0):
        # every line of the grid, the one that blows up included, against the
        # numpy loop on the axis's field compiled on its own
        sys = PdeSystem.from_strings(2, ["u", "v"], [["u^2", "u*v"], ["v - t1*u", "sin(t2)*u"]])
        axes = [np.linspace(0.0, 0.8, 5), np.linspace(0.0, 0.6, 4)]
        lines, dopri5 = [], pde._dopri5

        def recording(*args, **kwargs):
            lines.append((args, kwargs, dopri5(*args, **kwargs)))
            return lines[-1][2]

        monkeypatch.setattr(pde, "_dopri5", recording)
        try:
            grid = solve_on_grid(sys, u0, axes)
        except IntegrationBlowUpError:
            grid = None
        assert lines and (grid is None) == (lines[-1][2][3] is not None)
        for (rhs, parameters, t0, t1, x, tol), kwargs, got in lines:
            axis = sys._inline_fields.index(rhs)
            want = reference_dopri5(callable_axis(sys, axis, parameters), t0, t1, x, tol, **kwargs)
            assert_same_run(got, want)


class TestSharedCode:
    """Code generated from a system's fields is compiled once per process."""

    def test_systems_with_the_same_fields_share_velocity_and_steps(self):
        fields = [VectorField.from_strings(PLANE, c) for c in (["1", "y"], ["x", "0"])]

        def system(values):
            return LieSystem(fields, [CoefficientCurve.from_string("1"),
                                      CoefficientCurve(table=([0.0, 1.0], values))])

        first, second = system([0.0, 2.0]), system([5.0, -1.0])
        points = [[0.3, -0.2], [1.0, 0.0], [0.0, 1.0], [-0.5, 0.7]]
        for slots in range(1, 5):
            integrate_tuple(first, points[:slots], (0.0, 1.0))
        misses = _compiled.cache_info().misses
        for slots in range(1, 5):
            integrate_tuple(second, points[:slots], (0.0, 1.0))
            assert _run(2 * slots, first._rhs).__code__ is _run(2 * slots, second._rhs).__code__
        assert _compiled.cache_info().misses == misses
        assert first._velocity.__code__ is second._velocity.__code__

    def test_run_caches_are_bounded(self):
        for cache in (_run, _velocity_source):
            maxsize = cache.cache_info().maxsize
            assert maxsize is not None and 0 < maxsize < 10_000

    def test_a_riccati_system_costs_one_compile(self, rng):
        curves = [CoefficientCurve.constant(Fraction(rng.randint(1, 10**9), 10**9 + 7)) for _ in range(3)]
        fields = [VectorField.from_strings(LINE, [s]) for s in ("1", "x", "x^2")]
        misses = _compiled.cache_info().misses
        LieSystem(fields, curves)
        assert _compiled.cache_info().misses == misses + 1


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
