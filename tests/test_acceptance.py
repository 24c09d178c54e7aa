"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they go;
tolerances are fixed here, not configurable.
"""

import json
import math
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import liesys
from liesys.algebra import closure_test, minimal_m
from liesys.catalog import RunConfig, get_entry
from liesys.cli import main
from liesys.dynamics import CoefficientCurve, LieSystem, integrate
from liesys.expr import Chart, Const, Var, canonically_equal, is_zero
from liesys.geometry import (
    VectorField,
    diagonal_prolongation,
    lie_bracket,
)
from liesys.group import check_equivariance, sl2_from_coefficients, solve_group_equation
from liesys.pde import (
    PdeSystem,
    curvature,
    path_independence_audit,
    pde_superpose,
    solve_on_grid,
)
from liesys.superposition import SuperpositionRule, rule_checks, solution_checks

from conftest import random_polynomial

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
LINE = Chart(("x",))
PLANE = Chart(("x", "y"))


def announce(number: int, passed: bool, description: str):
    print(f"ACCEPTANCE {number:2d}: {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {number}: {description}"


def riccati_fields():
    return [VectorField.from_strings(LINE, [s]) for s in ("1", "x", "x^2")]


def test_criterion_1_riccati_fundamental_set_size(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "m.json"
    code = main(["m", str(PROBLEMS / "riccati.json"), "--json", str(out)])
    cli_m = json.loads(out.read_text())["extra"]["m"]
    ms = {minimal_m(riccati_fields(), seed=s).m for s in range(10)}
    elapsed = time.perf_counter() - started
    ok = code == 0 and cli_m == 3 and ms == {3} and elapsed < 1.0
    announce(1, ok, f"riccati m = 3, stable over 10 seeds, in {elapsed:.2f}s (< 1 s)")


def test_criterion_2_euclidean_system():
    started = time.perf_counter()
    checks, _ = get_entry("euclidean_se2").run(RunConfig(seed=0))
    by_name = {c.name: c for c in checks}
    elapsed = time.perf_counter() - started
    m_ok = by_name["m_matches_expected"].passed
    drift = by_name["psi_drift_along_solutions"]
    ok = m_ok and drift.value <= 1e-6 and elapsed < 5.0
    announce(
        2,
        ok,
        f"euclidean m = 2 and C1/C2 drift {drift.value:.2e} <= 1e-6 with random "
        f"bounded coefficients, in {elapsed:.2f}s (< 5 s)",
    )


def test_criterion_3_lemma_counterexample():
    checks, _ = get_entry("lemma_counterexample").run(RunConfig(seed=0))
    by_name = {c.name: c for c in checks}
    ok = (by_name["functional_combination_is_prolongation"].passed
          and by_name["not_in_constant_span"].passed)
    announce(
        3,
        ok,
        "xy*X1~ - (x+y)*X2~ is a prolongation with base -x^2 d/dx yet lies in no "
        "constant span of X1~, X2~",
    )


def test_criterion_4_closure_exactness():
    report = closure_test(riccati_fields())
    constants_ok = (
        report.closed
        and report.constants[(0, 1)] == (Fraction(1), Fraction(0), Fraction(0))
        and report.constants[(0, 2)] == (Fraction(0), Fraction(2), Fraction(0))
        and report.constants[(1, 2)] == (Fraction(0), Fraction(0), Fraction(1))
        and report.jacobi_residual() == 0
    )
    completion = closure_test(
        [VectorField.from_strings(LINE, ["1"]), VectorField.from_strings(LINE, ["x^2"])],
        complete=True,
    )
    ok = constants_ok and completion.closed and completion.dimension == 3
    announce(
        4,
        ok,
        "riccati constants exactly c01^0=1, c02^1=2, c12^2=1 with zero Jacobi "
        "residual; {d/dx, x^2 d/dx} completes to dimension 3",
    )


def test_criterion_5_superposition_round_trip():
    ric_checks, _ = get_entry("riccati").run(RunConfig(seed=0))
    ric = {c.name: c for c in ric_checks}["reconstruction_vs_direct"]
    lin_checks, _ = get_entry("linear2").run(RunConfig(seed=0))
    lin = {c.name: c for c in lin_checks}["reconstruction_vs_direct"]
    ok = ric.value <= 1e-5 and lin.value <= 1e-6
    announce(
        5,
        ok,
        f"cross-ratio reconstruction error {ric.value:.2e} <= 1e-5 on [0, 1.2]; "
        f"2x2 weighted-sum error {lin.value:.2e} <= 1e-6 on [0, 2]",
    )


def test_criterion_6_separable_closed_form():
    checks, _ = get_entry("separable_invsq").run(RunConfig(seed=0))
    gap = {c.name: c for c in checks}["reconstruction_vs_direct"]
    ok = gap.value <= 1e-6
    announce(
        6,
        ok,
        f"x = x1/(1 - k*x1) reconstruction matches integration to {gap.value:.2e} <= 1e-6",
    )


def test_criterion_7_group_equivariance():
    rng = random.Random(42)
    worst_dev = worst_det = 0.0
    for _ in range(5):
        b = [CoefficientCurve(expression=Const(Fraction(rng.randint(-1000, 1000), 1000))) for _ in range(3)]
        x0 = [rng.uniform(-1, 1), rng.choice([-1, 1]) * rng.uniform(0.6, 1.5)]
        rep = check_equivariance(b, x0, (0.0, 1.0))
        worst_dev = max(worst_dev, rep.max_deviation)
        g = solve_group_equation(sl2_from_coefficients(*b), (0.0, 1.0))
        worst_det = max(worst_det, float(np.max(np.abs(g.determinants() - 1.0))))
    ok = worst_dev <= 1e-6 and worst_det <= 1e-6
    announce(
        7,
        ok,
        f"x1/x2 equals the direct Riccati solution to {worst_dev:.2e} <= 1e-6 for 5 "
        f"random coefficient triples; |det g - 1| <= {worst_det:.2e} <= 1e-6",
    )


def test_criterion_8_partial_rules():
    chart = Chart(("x1", "x2"))
    fields = [
        VectorField.from_strings(chart, c)
        for c in (["x1", "0"], ["x2", "0"], ["0", "x1"], ["0", "x2"])
    ]
    curves = [CoefficientCurve.from_string(s) for s in ("t/4", "1", "-1", "-t/4")]
    sys = LieSystem(fields, curves)
    scaling = SuperpositionRule.from_strings(
        chart, 1, 1, psi=["x1_0/x1_1"], phi=["k1*x1_1", "k1*x2_1"],
        constraints=["x1_0*x2_1 - x2_0*x1_1"],
    )
    shift = SuperpositionRule.from_strings(
        chart, 2, 1, psi=["(x1_0 - x1_1)/x1_2"],
        phi=["x1_1 + k1*x1_2", "x2_1 + k1*x2_2"],
        constraints=["x1_2*(x2_0 - x2_1) - x2_2*(x1_0 - x1_1)"],
    )
    drifts, initial = [], []
    for rule, points in ((scaling, [[0.8, -0.5]]), (shift, [[0.8, -0.5], [-0.3, 0.9]])):
        # slot 0 starts on the leaf k1 = 0.7 of the constraint set
        [drift], extra = solution_checks(rule, sys, points, (0.0, 1.0), 1e-9, 1e-6, k=[0.7])
        tangency = rule_checks(rule, fields)[0]
        drifts.append(drift.value if drift.passed and tangency.passed else math.inf)
        initial.append(abs(extra["initial_psi"][0] - 0.7))
    ok = max(drifts) <= 1e-9 and max(initial) <= 1e-15
    announce(
        8,
        ok,
        f"both rank-1 rules pass: tangency and the constraint set's invariance exact, "
        f"psi drift <= {max(drifts):.2e} (limit 1e-9) from a start on the leaf of k",
    )


def test_criterion_9_pde_flatness():
    flat = PdeSystem.from_strings(
        2, ["u"], [["u^2"], ["u^2"]],
        {"u": [["0", "0", "1"], ["0", "0", "1"]], "basis": [["1"], ["u"], ["u^2"]]},
    )
    flat_report = curvature(flat)
    flat_ok = flat_report.flat and flat_report.exact
    nonflat = PdeSystem.from_strings(2, ["u"], [["u"], ["t1*u"]])
    nonflat_report = curvature(nonflat)
    residual_ok = canonically_equal(nonflat_report.residuals[(0, 1)][0], Var("u"))
    spread_flat = path_independence_audit(flat, [0.5], [0.4, 0.3], seed=1).spread
    spread_bad = path_independence_audit(nonflat, [1.0], [1.0, 1.0], seed=1).spread

    axes = [np.linspace(0.0, 0.5, 11), np.linspace(0.0, 0.5, 11)]
    u0s = [-1.0, -2.0, 0.5]
    grids = [solve_on_grid(flat, [u], axes) for u in u0s]
    target = 0.25
    k = (target - u0s[0]) * (u0s[1] - u0s[2]) / ((target - u0s[1]) * (u0s[0] - u0s[2]))
    rule = SuperpositionRule.from_strings(
        Chart(("u",)), 3, 1,
        psi=["((u_0 - u_1)*(u_2 - u_3))/((u_0 - u_2)*(u_1 - u_3))"],
    )
    rebuilt = pde_superpose(flat, rule, grids, [k], [target])
    t1, t2 = np.meshgrid(axes[0], axes[1], indexing="ij")
    superpose_err = float(np.max(np.abs(rebuilt[:, :, 0] - target / (1 - target * (t1 + t2)))))
    ok = (
        flat_ok and residual_ok
        and spread_flat <= 1e-5 and spread_bad > 1e-3 and superpose_err <= 1e-5
    )
    announce(
        9,
        ok,
        f"flat curvature exactly zero; non-flat residual is u; spreads "
        f"{spread_flat:.2e} <= 1e-5 (flat) and {spread_bad:.2e} > 1e-3 (non-flat); "
        f"11x11 grid superposition error {superpose_err:.2e} <= 1e-5",
    )


def test_criterion_10_property_suites(tmp_path):
    rng = random.Random(99)

    def random_field():
        return VectorField(
            PLANE, tuple(random_polynomial(rng, PLANE.names) for _ in PLANE.names)
        )

    def zero_field(f):
        return all(is_zero(c).verdict == "zero" for c in f.components)

    jacobi_ok = True
    for _ in range(200):
        a, b, c = random_field(), random_field(), random_field()
        jacobi_ok = jacobi_ok and zero_field(lie_bracket(a, b) + lie_bracket(b, a))
        cyclic = (
            lie_bracket(lie_bracket(a, b), c)
            + lie_bracket(lie_bracket(b, c), a)
            + lie_bracket(lie_bracket(c, a), b)
        )
        jacobi_ok = jacobi_ok and zero_field(cyclic)

    commutation_ok = True
    for _ in range(100):
        a, b = random_field(), random_field()
        copies = rng.choice([2, 3, 4])
        lhs = diagonal_prolongation(lie_bracket(a, b), copies)
        rhs = lie_bracket(diagonal_prolongation(a, copies), diagonal_prolongation(b, copies))
        commutation_ok = commutation_ok and all(
            canonically_equal(p, q) for p, q in zip(lhs.components, rhs.components)
        )

    def line_system(component):
        return LieSystem(
            [VectorField.from_strings(LINE, [component])], [CoefficientCurve.from_string("1")]
        )

    riccati = LieSystem(riccati_fields(), [CoefficientCurve.from_string(s) for s in ("1", "0", "1")])
    convergence_ok = True
    halvings = math.log2(1e-6 / 1e-9)
    for sys, x0, t1, exact in (
        (line_system("x"), [1.0], 1.0, math.e),
        (line_system("1/x^2"), [1.0], 1.0, 4.0 ** (1 / 3)),
        (riccati, [0.0], 1.2, math.tan(1.2)),
    ):
        coarse = abs(integrate(sys, x0, (0.0, t1), tol=1e-6).states[-1][0] - exact)
        fine = abs(integrate(sys, x0, (0.0, t1), tol=1e-9).states[-1][0] - exact)
        convergence_ok = convergence_ok and (coarse / fine) ** (1 / halvings) >= 2.0

    started = time.perf_counter()
    out = tmp_path / "runall.json"
    code = main(["examples", "run-all", "--json", str(out)])
    elapsed = time.perf_counter() - started
    runall_ok = code == 0 and elapsed < 60.0

    ok = jacobi_ok and commutation_ok and convergence_ok and runall_ok
    announce(
        10,
        ok,
        f"antisymmetry/Jacobi exact on 200 random triples; prolongation-bracket "
        f"commutation on 100 pairs; convergence factor >= 2 per halving; "
        f"examples run-all exit {code} in {elapsed:.1f}s (< 60 s)",
    )


def test_readme_api_example_runs_as_written():
    readme = (PROBLEMS.parent / "README.md").read_text()
    (example,) = [block for block in re.findall(r"```python\n(.*?)```", readme, re.S)
                  if "from liesys import" in block]
    scope = {}
    exec(example, scope)  # noqa: S102 - README's own example
    assert scope["report"].closed and scope["report"].dimension == 3
    assert scope["size"].m == 3
    # the package re-exports exactly the names the example imports
    imported = re.search(r"from liesys import (.*)", example).group(1)
    assert sorted(liesys.__all__) == sorted(name.strip() for name in imported.split(","))
