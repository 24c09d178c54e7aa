import numpy as np
import pytest

from liesys import pde
from liesys.dynamics import integrate
from liesys.errors import LiesysError, NotFlatError
from liesys.expr import Chart, Var, canonically_equal, is_zero, parse
from liesys.pde import (
    PdeSystem,
    curvature,
    decomposition_residuals,
    path_independence_audit,
    path_solve,
    pde_superpose,
    reduce_to_ode,
    riccati_pde,
    solve_on_grid,
)
from liesys.superposition import SuperpositionRule


def flat_riccati(decomposed=True):
    decomposition = None
    if decomposed:
        decomposition = {
            "u": [["0", "0", "1"], ["0", "0", "1"]],
            "basis": [["1"], ["u"], ["u^2"]],
        }
    return PdeSystem.from_strings(2, ["u"], [["u^2"], ["u^2"]], decomposition)


def nonflat():
    return PdeSystem.from_strings(2, ["u"], [["u"], ["t1*u"]])


def cross_ratio_u():
    return SuperpositionRule.from_strings(
        Chart(("u",)),
        3,
        1,
        psi=["((u_0 - u_1)*(u_2 - u_3))/((u_0 - u_2)*(u_1 - u_3))"],
    )


class TestCurvature:
    def test_flat_riccati_residual_exactly_zero(self):
        report = curvature(flat_riccati(decomposed=False))
        assert report.flat and report.exact
        assert all(is_zero(r).verdict == "zero" for r in report.residuals[(0, 1)])

    def test_nonflat_residual_is_u(self):
        report = curvature(nonflat())
        assert not report.flat
        assert canonically_equal(report.residuals[(0, 1)][0], Var("u"))

    def test_single_parameter_vacuously_flat(self):
        sys = PdeSystem.from_strings(1, ["u"], [["u^2"]])
        report = curvature(sys)
        assert report.flat and report.residuals == {}

    def test_residual_antisymmetry(self):
        report = curvature(nonflat())
        forward = report.residual(0, 1)
        backward = report.residual(1, 0)
        assert all(
            is_zero(a + b).verdict == "zero" for a, b in zip(forward, backward)
        )

    def test_family_constructor_nonflat_member(self):
        # u_t1 = u^2, u_t2 = u^2 + t1 fails the closedness condition
        member = riccati_pde("1", "0", "0", "1", "0", "t1")
        report = curvature(member)
        assert not report.flat
        expected = parse("1 - 2*t1*u", ("t1", "u"))
        assert canonically_equal(report.residuals[(0, 1)][0], expected)

    def test_decomposition_expansion_validated(self):
        with pytest.raises(ValueError):
            PdeSystem.from_strings(
                2,
                ["u"],
                [["u^2"], ["u"]],
                {"u": [["0", "0", "1"], ["0", "0", "1"]], "basis": [["1"], ["u"], ["u^2"]]},
            )


class TestPathSolve:
    def test_closed_form_endpoint(self):
        result = path_solve(flat_riccati(), [0.5], [0.4, 0.3])
        exact = 0.5 / (1 - 0.5 * 0.7)
        assert abs(result.endpoint[0] - exact) <= 1e-6

    def test_zero_fields_stay_put(self):
        sys = PdeSystem.from_strings(2, ["u"], [["0"], ["0"]])
        result = path_solve(sys, [0.3], [1.0, 1.0])
        assert result.endpoint[0] == 0.3

    def test_nonflat_needs_audit_flag(self):
        with pytest.raises(NotFlatError):
            path_solve(nonflat(), [1.0], [1.0, 1.0])

    def test_nonflat_staircases_diverge(self):
        first = path_solve(nonflat(), [1.0], [1.0, 1.0], path=[(0, 1.0), (1, 1.0)], audit=True)
        second = path_solve(nonflat(), [1.0], [1.0, 1.0], path=[(1, 1.0), (0, 1.0)], audit=True)
        assert abs(first.endpoint[0] - second.endpoint[0]) > 1e-3

    def test_path_must_reach_target(self):
        with pytest.raises(ValueError):
            path_solve(flat_riccati(), [0.5], [0.4, 0.3], path=[(0, 0.4)])


class TestAudit:
    def test_flat_spread_small(self):
        audit = path_independence_audit(flat_riccati(), [0.5], [0.4, 0.3], 8, seed=2)
        assert audit.spread <= 1e-5

    def test_nonflat_spread_detectable(self):
        audit = path_independence_audit(nonflat(), [1.0], [1.0, 1.0], 8, seed=2)
        assert audit.spread > 1e-3

    def test_single_parameter_single_path(self):
        sys = PdeSystem.from_strings(1, ["u"], [["u^2"]])
        audit = path_independence_audit(sys, [0.5], [0.5], 4, seed=0)
        assert audit.spread <= 1e-12

    def test_needs_two_paths(self):
        with pytest.raises(ValueError):
            path_independence_audit(flat_riccati(), [0.5], [0.4, 0.3], 1)


class TestGridSuperposition:
    def test_cross_ratio_reproduces_fourth_solution(self):
        sys = flat_riccati()
        axes = [np.linspace(0.0, 0.5, 11), np.linspace(0.0, 0.5, 11)]
        u0s = [-1.0, -2.0, 0.5]
        grids = [solve_on_grid(sys, [u], axes) for u in u0s]
        target = 0.25
        k = (target - u0s[0]) * (u0s[1] - u0s[2]) / ((target - u0s[1]) * (u0s[0] - u0s[2]))
        rebuilt = pde_superpose(sys, cross_ratio_u(), grids, [k], [target])
        t1, t2 = np.meshgrid(axes[0], axes[1], indexing="ij")
        closed_form = target / (1 - target * (t1 + t2))
        assert np.max(np.abs(rebuilt[:, :, 0] - closed_form)) <= 1e-5
        corner = path_solve(sys, [target], [0.5, 0.5]).endpoint
        assert abs(rebuilt[-1, -1, 0] - corner[0]) <= 1e-5

    def test_target_across_a_particular_solution(self):
        # row 2 starts near -1.55, but the end of row 1 lies near -1.1, on the
        # other side of the particular solution from -1.2
        sys = flat_riccati()
        axes = [np.linspace(0.0, 0.3, 11), np.linspace(0.0, 0.3, 11)]
        u0s = [0.0, -1.2, -0.8]
        grids = [solve_on_grid(sys, [u], axes) for u in u0s]
        target = -1.6
        k = (target - u0s[0]) * (u0s[1] - u0s[2]) / ((target - u0s[1]) * (u0s[0] - u0s[2]))
        rebuilt = pde_superpose(sys, cross_ratio_u(), grids, [k], [target])
        t1, t2 = np.meshgrid(axes[0], axes[1], indexing="ij")
        closed_form = target / (1 - target * (t1 + t2))
        assert np.max(np.abs(rebuilt[:, :, 0] - closed_form)) <= 1e-5

    def test_k_from_known_solution_reproduces_it(self):
        sys = flat_riccati()
        axes = [np.linspace(0.0, 0.4, 6), np.linspace(0.0, 0.4, 6)]
        u0s = [-1.0, -2.0, 0.5]
        grids = [solve_on_grid(sys, [u], axes) for u in u0s]
        target = u0s[0]
        # the cross ratio degenerates to 0 when slot 0 rides on slot 1
        rebuilt = pde_superpose(sys, cross_ratio_u(), grids, [0.0], [target - 0.05])
        assert np.max(np.abs(rebuilt - grids[0])) <= 1e-8

    def test_translation_rule_on_constant_system(self):
        sys = PdeSystem.from_strings(
            2, ["u"], [["1"], ["1"]],
            {"u": [["1"], ["1"]], "basis": [["1"]]},
        )
        rule = SuperpositionRule.from_strings(
            Chart(("u",)), 1, 1, psi=["u_0 - u_1"], phi=["u_1 + k1"]
        )
        axes = [np.linspace(0.0, 0.5, 6), np.linspace(0.0, 0.5, 6)]
        grid = solve_on_grid(sys, [0.2], axes)
        rebuilt = pde_superpose(sys, rule, [grid], [0.3], [0.5])
        assert np.max(np.abs(rebuilt - (grid + 0.3))) <= 1e-9

    def test_rule_must_be_tangent(self):
        sys = flat_riccati()
        bad = SuperpositionRule.from_strings(Chart(("u",)), 1, 1, psi=["u_0"], phi=["k1"])
        axes = [np.linspace(0.0, 0.2, 3), np.linspace(0.0, 0.2, 3)]
        grid = solve_on_grid(sys, [0.1], axes)
        with pytest.raises(LiesysError, match="not tangent"):
            pde_superpose(sys, bad, [grid], [0.1], [0.1])


class TestGridSweep:
    @staticmethod
    def spy(monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[4])  # tol
            return dopri5(*args, **kwargs)

        dopri5 = pde._dopri5
        monkeypatch.setattr(pde, "_dopri5", counting)
        return calls

    @pytest.mark.parametrize("u0", [-2.0, -1.0, 0.0, 0.5])
    def test_one_integration_per_line(self, monkeypatch, u0):
        calls = self.spy(monkeypatch)
        axes = [np.linspace(0.0, 0.5, 11), np.linspace(0.0, 0.5, 11)]
        grid = solve_on_grid(flat_riccati(), [u0], axes)
        assert len(calls) == 12  # the first row, then each of the 11 columns
        t1, t2 = np.meshgrid(axes[0], axes[1], indexing="ij")
        assert np.max(np.abs(grid[:, :, 0] - u0 / (1 - u0 * (t1 + t2)))) <= 1e-9

    def test_tol_reaches_the_first_node_off_the_origin(self, monkeypatch):
        calls = self.spy(monkeypatch)
        axes = [np.linspace(0.1, 0.4, 4), np.linspace(0.1, 0.4, 4)]
        solve_on_grid(flat_riccati(), [0.5], axes, tol=1e-4)
        assert set(calls) == {1e-4}

    def test_single_node_axes(self):
        grid = solve_on_grid(flat_riccati(), [0.5], [np.array([0.0, 0.2]), np.array([0.0])])
        assert grid.shape == (2, 1, 1) and abs(grid[1, 0, 0] - 0.5 / 0.9) <= 1e-9
        assert solve_on_grid(flat_riccati(), [0.5], [np.array([0.0])] * 2)[0, 0, 0] == 0.5

    def test_axes_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            solve_on_grid(flat_riccati(), [0.5], [np.array([0.0, 0.2, 0.1]), np.array([0.0, 0.1])])


class TestDecomposition:
    def test_integrability_residuals_zero(self):
        residuals = decomposition_residuals(flat_riccati())
        assert all(is_zero(c).verdict == "zero" for c in residuals[(0, 1)])

    def test_nonflat_decomposed_residual_nonzero(self):
        sys = PdeSystem.from_strings(
            2, ["u"], [["u^2"], ["t1*u^2"]],
            {"u": [["0", "0", "1"], ["0", "0", "t1"]], "basis": [["1"], ["u"], ["u^2"]]},
        )
        residuals = decomposition_residuals(sys)
        assert any(is_zero(c).verdict != "zero" for c in residuals[(0, 1)])

    def test_s1_reduction_matches_ode_integration(self):
        sys = PdeSystem.from_strings(
            1, ["u"], [["(1 + t1/2)*u^2"]],
            {"u": [["0", "0", "1 + t1/2"]], "basis": [["1"], ["u"], ["u^2"]]},
        )
        ode = reduce_to_ode(sys)
        via_path = path_solve(sys, [0.5], [0.8])
        via_ode = integrate(ode, [0.5], (0.0, 0.8))
        assert abs(via_path.endpoint[0] - via_ode.endpoint()[0]) <= 1e-8

    def test_s1_superposition_matches_ode_reconstruction(self):
        from liesys.dynamics import align_trajectories
        from liesys.superposition import derive_k, reconstruct

        sys = PdeSystem.from_strings(
            1, ["u"], [["u^2"]],
            {"u": [["0", "0", "1"]], "basis": [["1"], ["u"], ["u^2"]]},
        )
        ode = reduce_to_ode(sys)
        starts = [-1.0, -2.0, 0.5]
        aligned = align_trajectories([integrate(ode, [u], (0.0, 0.8)) for u in starts])
        grid = aligned[0].t
        rule = cross_ratio_u()
        target = 0.25
        k = derive_k(rule, [target], [[u] for u in starts])
        via_ode = reconstruct(rule, aligned, k, x0_guess=[target])

        value_grids = [tr.states.reshape(-1, 1) for tr in aligned]
        via_pde = pde_superpose(sys, rule, value_grids, k, [target])
        assert np.max(np.abs(via_pde - via_ode.states)) <= 1e-9
