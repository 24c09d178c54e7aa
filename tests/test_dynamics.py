import json
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from liesys.dynamics import (
    CoefficientCurve,
    LieSystem,
    align_trajectories,
    evaluate_field,
    fundamental_set,
    integrate,
    integrate_tuple,
)
from liesys.errors import FundamentalSetError
from liesys.expr import Chart
from liesys.geometry import VectorField

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
        assert np.max(np.abs(tr.sample(ts)[:, 0] - np.exp(ts))) <= 1e-7

    def test_bad_t_span(self):
        with pytest.raises(ValueError):
            integrate(line_system("x"), [1.0], (1.0, 0.0))


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

    def test_alignment_clips_to_overlap(self):
        sys = riccati_101()
        a = integrate(sys, [0.0], (0.0, 1.2))
        b = integrate(sys, [0.5], (0.0, 1.2))  # blows up near 1.1
        assert b.blew_up
        aligned = align_trajectories([a, b])
        assert aligned[0].t[-1] <= b.t[-1] + 1e-12
        assert np.array_equal(aligned[0].t, aligned[1].t)
