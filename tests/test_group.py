import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from liesys.catalog import gl_fields
from liesys.dynamics import CoefficientCurve, LieSystem, integrate
from liesys.expr import Chart
from liesys.geometry import VectorField
from liesys.group import (
    ACTIONS,
    LINEAR_SL2,
    MOBIUS,
    MatrixCurve,
    act_solve,
    check_equivariance,
    sl2_from_coefficients,
    solve_group_equation,
)

from test_dynamics import reference_dopri5

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def curves(*texts):
    return [CoefficientCurve.from_string(t) for t in texts]


def random_sl2(rng) -> np.ndarray:
    while True:
        a = rng.uniform(-2, 2)
        if abs(a) < 0.2:
            continue
        b, c = rng.uniform(-2, 2), rng.uniform(-2, 2)
        return np.array([[a, b], [c, (1 + b * c) / a]])


class TestSolveGroupEquation:
    def test_constant_matrix_matches_expm_oracle(self):
        rng = random.Random(5)
        for _ in range(4):
            mat = np.array([[rng.uniform(-1, 1) for _ in range(3)] for _ in range(3)])
            entries = [[str(Fraction_like(v)) for v in row] for row in mat]
            curve = MatrixCurve.from_strings(entries)
            gtraj = solve_group_equation(curve, (0.0, 1.0), tol=1e-10)
            oracle = expm(curve(0.0) * 1.0)
            assert np.max(np.abs(gtraj.matrices[-1] - oracle)) <= 1e-7

    def test_zero_matrix_stays_identity(self):
        curve = MatrixCurve.from_strings([["0", "0"], ["0", "0"]])
        gtraj = solve_group_equation(curve, (0.0, 1.0))
        assert np.max(np.abs(gtraj.matrices - np.eye(2))) == 0.0

    def test_sl2_rotation_closed_form(self):
        a = sl2_from_coefficients(*curves("1", "0", "1"))
        gtraj = solve_group_equation(a, (0.0, 2.0))
        t = gtraj.t
        exact = np.stack(
            [np.stack([np.cos(t), np.sin(t)], -1), np.stack([-np.sin(t), np.cos(t)], -1)], 1
        )
        assert np.max(np.abs(gtraj.matrices - exact)) <= 1e-6

    def test_starts_at_identity_and_keeps_unit_determinant(self):
        a = sl2_from_coefficients(*curves("1", "t", "1 - t"))
        gtraj = solve_group_equation(a, (0.0, 1.0))
        assert np.max(np.abs(gtraj.matrices[0] - np.eye(2))) == 0.0
        assert np.max(np.abs(gtraj.determinants() - 1.0)) <= 1e-6
        assert a.trace_is_zero()

    def test_liouville_determinant(self):
        # trace is 2t, so det g(t) = exp(t^2)
        curve = MatrixCurve.from_strings([["t", "1"], ["0", "t"]])
        gtraj = solve_group_equation(curve, (0.0, 1.0))
        expected = np.exp(gtraj.t**2)
        assert np.max(np.abs(gtraj.determinants() - expected)) <= 1e-6


def numpy_group_solve(a, t_span, tol):
    """The group equation on a numpy right-hand side, g flattened row by
    row and a(t) @ g per stage, in the numpy loop of test_dynamics."""
    d = a.dim

    def rhs(t, y):
        return (a(t) @ np.reshape(y, (d, d))).ravel()

    ts, ys, dys, _ = reference_dopri5(rhs, t_span[0], t_span[1], np.eye(d).reshape(-1), tol)
    return ts, ys.reshape(len(ts), d, d), dys.reshape(len(ts), d, d)


class TestLinearSystemForm:
    """g solved as the columns of the linear Lie system x' = a(t) x."""

    def sl2_cases(self):
        yield curves("1", "0", "1")
        yield curves("1", "t", "1 - t")
        rng = random.Random(7)
        for _ in range(6):
            yield [CoefficientCurve.from_string(Fraction_like(rng.uniform(-1, 1))) for _ in range(3)]

    def test_sl2_matches_the_numpy_right_hand_side(self):
        # numpy's a(t) @ g rounds a two-term dot product differently from
        # two rounded products, so the error estimate, whose last bits set
        # the next step, can move a node by ~4e-8; each reference matrix is
        # carried to the node's time along its derivative (error ~ dt^2)
        for b in self.sl2_cases():
            a = sl2_from_coefficients(*b)
            g = solve_group_equation(a, (0.0, 1.0))
            ts, mats, dmats = numpy_group_solve(a, (0.0, 1.0), 1e-9)
            assert len(g.t) == len(ts)
            assert np.max(np.abs(g.t - ts)) <= 1e-6
            shifted = mats + (g.t - ts)[:, None, None] * dmats
            assert np.max(np.abs(g.matrices - shifted)) <= 1e-12

    def test_entries_endpoint_matches_the_numpy_right_hand_side(self):
        a = MatrixCurve.from_strings([["t", "1", "0"], ["-1", "0", "t^2"], ["1/2", "0", "-t"]])
        g = solve_group_equation(a, (0.0, 2.0), tol=1e-10)
        ts, mats, _ = numpy_group_solve(a, (0.0, 2.0), 1e-10)
        assert g.t[-1] == ts[-1] == 2.0
        assert np.max(np.abs(g.matrices[-1] - mats[-1])) <= 1e-10

    def test_unit_matrices_give_the_gl_fields(self):
        a = MatrixCurve.from_strings([["t", "1", "0"], ["-1", "0", "t^2"], ["1/2", "0", "-t"]])
        want = gl_fields(Chart(("x1", "x2", "x3")))
        assert a.system.chart.names == ("x1", "x2", "x3")
        for got, field in zip(a.system.fields, want, strict=True):
            assert [(type(c), str(c)) for c in got.components] == [
                (type(c), str(c)) for c in field.components]

    def test_sl2_fields_have_exact_halves(self):
        fields = sl2_from_coefficients(*curves("1", "0", "1")).system.fields
        assert [[str(c) for c in f.components] for f in fields] == [
            ["x2", "0"], ["1/2*x1", "-1/2*x2"], ["0", "-x1"]]

    def test_value_is_the_basis_combination(self):
        a = sl2_from_coefficients(*curves("1", "t", "1 - t"))
        assert np.array_equal(a(0.5), [[0.25, 1.0], [-0.5, -0.25]])

    def test_non_square_entries_rejected(self):
        with pytest.raises(ValueError):
            MatrixCurve.from_strings([["0", "1"], ["1"]])


TABLE = CoefficientCurve(table=([0.0, 1.0], [0.0, 2.0]))


class TestTraceIsZero:
    def test_traceless_entries(self):
        assert MatrixCurve.from_strings([["t^2 - 1", "1"], ["t", "1 - t^2"]]).trace_is_zero()

    def test_entries_with_a_trace(self):
        assert not MatrixCurve.from_strings([["t", "1"], ["0", "t"]]).trace_is_zero()

    def test_sl2_with_table_curves(self):
        assert sl2_from_coefficients(TABLE, TABLE, TABLE).trace_is_zero()

    def test_table_curve_on_a_diagonal_unit(self):
        a = MatrixCurve([[[1, 0], [0, 0]], [[0, 1], [0, 0]]], [TABLE, curves("1")[0]])
        assert not a.trace_is_zero()


def Fraction_like(v: float) -> str:
    from fractions import Fraction

    f = Fraction(v).limit_denominator(1000)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


class TestActions:
    def test_axioms_on_random_samples(self):
        rng = random.Random(9)
        for action in ACTIONS.values():
            for _ in range(100):
                g1, g2 = random_sl2(rng), random_sl2(rng)
                if action is MOBIUS:
                    x = np.array([rng.uniform(-3, 3)])
                else:
                    x = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2)])
                ex = action.apply(np.eye(2), x)
                assert np.max(np.abs(ex - x)) <= 1e-12
                lhs = action.apply(g1 @ g2, x)
                rhs = action.apply(g1, action.apply(g2, x))
                if np.all(np.isfinite(lhs)) and np.all(np.isfinite(rhs)):
                    scale = max(1.0, float(np.max(np.abs(lhs))))
                    assert np.max(np.abs(lhs - rhs)) <= 1e-7 * scale

    def test_mobius_pole_handling(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert math.isinf(MOBIUS.apply(swap, np.array([0.0]))[0])
        assert MOBIUS.apply(swap, np.array([float("inf")]))[0] == 0.0


class TestActSolve:
    def test_linear_action_gives_exp_columns(self):
        a = sl2_from_coefficients(*curves("1", "0", "1"))
        tr = act_solve(a, LINEAR_SL2, [1.0, 0.0], (0.0, 1.0))
        exact = np.stack([np.cos(tr.t), -np.sin(tr.t)], -1)
        assert np.max(np.abs(tr.states - exact)) <= 1e-6

    def test_mobius_orbit_is_tan(self):
        a = sl2_from_coefficients(*curves("1", "0", "1"))
        tr = act_solve(a, MOBIUS, [0.0], (0.0, 1.2))
        assert np.max(np.abs(tr.states[:, 0] - np.tan(tr.t))) <= 1e-6

    def test_single_solution_superposition_matches_integrate(self):
        b = curves("1", "0", "1")
        a = sl2_from_coefficients(*b)
        orbit = act_solve(a, MOBIUS, [0.0], (0.0, 1.2))
        riccati = LieSystem([VectorField.from_strings(Chart(("x",)), [s]) for s in ("1", "x", "x^2")], b)
        direct = integrate(riccati, [0.0], (0.0, 1.2))
        assert np.max(np.abs(orbit.states - direct.resampled(orbit.t).states)) <= 1e-5

    def test_identity_curve_constant_trajectory(self):
        a = MatrixCurve.from_strings([["0", "0"], ["0", "0"]])
        tr = act_solve(a, MOBIUS, [0.7], (0.0, 1.0))
        assert np.max(np.abs(tr.states - 0.7)) == 0.0

    def test_pole_crossing_logged(self):
        a = sl2_from_coefficients(*curves("1", "0", "1"))
        tr = act_solve(a, MOBIUS, [0.0], (0.0, 2.0))
        crossings = [t for _, t in tr.events]
        assert len(crossings) == 1
        assert abs(crossings[0] - math.pi / 2) <= 0.05


class TestEquivariance:
    def test_rotation_case_both_sides_tan(self):
        rep = check_equivariance(curves("1", "0", "1"), [0.0, 1.0], (0.0, 1.0))
        assert rep.max_deviation <= 1e-6
        g = solve_group_equation(sl2_from_coefficients(*curves("1", "0", "1")), (0.0, 1.0))
        assert np.max(np.abs(g.determinants() - 1.0)) <= 1e-6

    def test_diagonal_case_exponentials(self):
        # b = (0,1,0): x1 = e^{t/2} x1(0), x2 = e^{-t/2} x2(0)
        sys = sl2_from_coefficients(*curves("0", "1", "0")).system
        tr = integrate(sys, [1.0, 1.0], (0.0, 1.0))
        assert abs(tr.endpoint()[0] - math.exp(0.5)) <= 1e-8
        assert abs(tr.endpoint()[1] - math.exp(-0.5)) <= 1e-8
        rep = check_equivariance(curves("0", "1", "0"), [1.0, 1.0], (0.0, 1.0))
        assert rep.max_deviation <= 1e-6

    def test_zero_coefficients_keep_ratio_zero(self):
        rep = check_equivariance(curves("0", "0", "0"), [0.0, 1.0], (0.0, 1.0))
        assert rep.max_deviation == 0.0

    def test_initial_pole_rejected(self):
        with pytest.raises(ValueError):
            check_equivariance(curves("1", "0", "1"), [1.0, 0.0], (0.0, 1.0))

    def test_deviation_is_integration_error_on_seeded_triples(self):
        # both sides are one integration, compared at its own nodes
        rng = random.Random(7)
        for _ in range(6):
            b = [CoefficientCurve.from_string(Fraction_like(rng.uniform(-1, 1))) for _ in range(3)]
            x0 = [rng.uniform(-1, 1), rng.choice([-1, 1]) * rng.uniform(0.6, 1.5)]
            rep = check_equivariance(b, x0, (0.0, 1.0))
            assert rep.compared_points == rep.total_points
            assert rep.max_deviation <= 1e-9

    def test_riccati_escape_truncates_both_sides(self):
        # x = tan t escapes at pi/2 < 2, where x2 = cos t crosses the pole
        rep = check_equivariance(curves("1", "0", "1"), [0.0, 1.0], (0.0, 2.0))
        assert rep.passed
        assert 0 < rep.compared_points < rep.total_points

    def test_problem_file_data(self):
        # problems/sl2_group.json: the Mobius orbit of x0 is x1/x2 of the
        # planar solution from (x0, 1)
        doc = json.loads((PROBLEMS / "sl2_group.json").read_text())
        x0 = doc["action"]["x0"][0]
        rep = check_equivariance(curves(*doc["action"]["sl2_coefficients"]), [x0, 1.0],
                                 tuple(doc["t_span"]))
        assert rep.compared_points == rep.total_points
        assert rep.max_deviation <= 1e-9

    def test_random_triples(self):
        rng = random.Random(13)
        for _ in range(5):
            b = [CoefficientCurve.from_string(Fraction_like(rng.uniform(-1, 1))) for _ in range(3)]
            x0 = [rng.uniform(-1, 1), rng.choice([-1, 1]) * rng.uniform(0.6, 1.5)]
            rep = check_equivariance(b, x0, (0.0, 1.0))
            assert rep.compared_points > 0
            assert rep.max_deviation <= 1e-6
