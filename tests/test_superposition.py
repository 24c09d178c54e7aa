import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from liesys import expr as ex
from liesys import superposition
from liesys.catalog import gl_fields, linear_rule
from liesys.cli import main, rule_of
from liesys.dynamics import (CoefficientCurve, LieSystem, Trajectory, align_trajectories, integrate,
                             integrate_tuple)
from liesys.errors import EvaluationError, LiesysError, NonConvergenceError, SchemaError, SingularDomainError
from liesys.expr import Chart
from liesys.geometry import VectorField, diagonal_prolongation
from liesys.superposition import (
    NEWTON_MAX_HALVINGS,
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    SuperpositionRule,
    _leaf_solve,
    _predicted,
    derive_k,
    reconstruct,
    rule_checks,
    solution_checks,
    superpose_checks,
    transversality_rank,
    verify_along_solutions,
    verify_tangency,
)

from conftest import compile_scalar
from test_cli_fuzz import expressions, rules

LINE = Chart(("x",))
PLANE = Chart(("x", "y"))
INPUTS = Path(__file__).resolve().parent.parent / "tools" / "inputs"
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


RULE_FILES = sorted(path for path in [*PROBLEMS.glob("*.json"), *INPUTS.glob("*.json")]
                    if "rule" in json.loads(path.read_text()))


def _rank_is_sympys(doc: dict) -> bool:
    """transversality_rank of the doc's rule is sympy's rank of the matrix
    dpsi_j/dx_(0),i, exact exactly when psi's own normal forms hold no
    function atom (on the rule files and rules(); sympy's Jacobian is no
    oracle for this, as sympy cancels atoms when it builds an expression).
    False where no rule is built (the CLI exits 2) or every sampled tuple
    is a pole, or a power past the exact bound, of an entry."""
    chart = Chart(tuple(doc.get("chart") or doc["pde"]["chart"]))
    try:
        rule = rule_of(doc, chart)
        rank, exact = transversality_rank(rule)
    except (SchemaError, EvaluationError):
        return False
    names = {v: sympy.Symbol(v) for v in rule.product_chart.names}
    psi = [sympy.sympify(str(p).replace("^", "**"), locals=names) for p in rule.psi]
    jacobian = sympy.Matrix(psi).jacobian([names[v] for v in rule.product_chart.slot_names(0)])
    assert rank == jacobian.rank(iszerofunc=lambda e: sympy.simplify(e) == 0)
    assert exact == (not any(ex._nf_of(p).trans for p in rule.psi))
    return True


def riccati_fields():
    return [VectorField.from_strings(LINE, [s]) for s in ("1", "x", "x^2")]


def riccati_system(b=("1", "0", "1")):
    return LieSystem(riccati_fields(), [CoefficientCurve.from_string(s) for s in b])


def cross_ratio():
    return SuperpositionRule.from_strings(
        LINE,
        3,
        1,
        psi=["((x_0 - x_1)*(x_2 - x_3))/((x_0 - x_2)*(x_1 - x_3))"],
        phi=["((x_1 - x_3)*x_2*k1 + x_1*(x_3 - x_2))/((x_1 - x_3)*k1 + (x_3 - x_2))"],
    )


def euclidean_rule():
    return SuperpositionRule.from_strings(
        PLANE,
        2,
        2,
        psi=["(x_0 - x_1)^2 + (y_0 - y_1)^2", "(x_0 - x_2)^2 + (y_0 - y_2)^2"],
    )


def euclidean_system():
    fields = [VectorField.from_strings(PLANE, c) for c in (["1", "0"], ["0", "1"], ["y", "-x"])]
    curves = [CoefficientCurve.from_string(s) for s in ("1 - t", "1/2", "1 + t/2")]
    return LieSystem(fields, curves)


def linear2_system():
    chart = Chart(("x1", "x2"))
    fields = [
        VectorField.from_strings(chart, c)
        for c in (["x1", "0"], ["x2", "0"], ["0", "x1"], ["0", "x2"])
    ]
    curves = [CoefficientCurve.from_string(s) for s in ("t/4", "1", "-1", "-t/4")]
    return LieSystem(fields, curves)


def linear2_rule():
    chart = Chart(("x1", "x2"))
    return SuperpositionRule.from_strings(
        chart,
        2,
        2,
        psi=[
            "(x1_0*x2_2 - x2_0*x1_2)/(x1_1*x2_2 - x2_1*x1_2)",
            "(x1_1*x2_0 - x2_1*x1_0)/(x1_1*x2_2 - x2_1*x1_2)",
        ],
        phi=["k1*x1_1 + k2*x1_2", "k1*x2_1 + k2*x2_2"],
    )


def solution_tuple(sys, starts, t_span=(0.0, 1.0), tol=1e-9):
    return align_trajectories([integrate(sys, p, t_span, tol) for p in starts])


class TestRuleValidation:
    def test_component_counts(self):
        with pytest.raises(ValueError):
            SuperpositionRule.from_strings(PLANE, 1, 2, psi=["x_0 - x_1"])
        with pytest.raises(ValueError):
            SuperpositionRule.from_strings(PLANE, 1, 1, psi=["x_0"])  # needs 1 constraint

    def test_json_roundtrip(self):
        rule = cross_ratio()
        back = SuperpositionRule.from_json_dict(LINE, rule.to_json_dict())
        assert back.m == 3 and back.rank == 1
        assert str(back.psi[0]) == str(rule.psi[0])


class TestTangency:
    def test_cross_ratio_annihilated_by_riccati_prolongations(self):
        report = verify_tangency(cross_ratio(), riccati_fields())
        assert report.all_zero
        assert all(c.verdict == "zero" for c in report.checks)
        assert not report.probabilistic

    def test_euclidean_rule_annihilated(self):
        fields = euclidean_system().fields
        report = verify_tangency(euclidean_rule(), fields)
        assert report.all_zero and not report.probabilistic

    def test_cross_ratio_decided_without_a_canonical_form(self, monkeypatch):
        # each verdict is read off the numerator X~(N) D - N X~(D): no gcd,
        # canonical form, residual tree or prolonged field is built
        def refuse(*args):
            raise AssertionError("a tangency verdict built more than a numerator")

        for owner, name in ((ex, "_expr_from_nf"), (ex, "canonical_expr"), (ex, "_gcd_core"),
                            (ex, "_tree_of"), (VectorField, "apply_to"),
                            (superposition, "diagonal_prolongation")):
            monkeypatch.setattr(owner, name, refuse)
        report = verify_tangency(cross_ratio(), riccati_fields())
        assert [(c.verdict, c.probabilistic) for c in report.checks] == [("zero", False)] * 3

    def test_gl4_linear_rule_tangent_within_ten_seconds(self):
        import time

        chart = Chart(("x1", "x2", "x3", "x4"))
        started = time.perf_counter()
        report = verify_tangency(linear_rule(chart), gl_fields(chart))
        elapsed = time.perf_counter() - started
        assert len(report.checks) == 64
        assert all(c.verdict == "zero" and not c.probabilistic for c in report.checks)
        assert elapsed < 10, f"{elapsed:.1f} s"

    def test_full_rule_with_phi_off_its_leaves_raises(self):
        rule = SuperpositionRule.from_strings(
            PLANE, 1, 2, psi=["x_0 - x_1", "y_0 - y_1"], phi=["x_1 + 2*k1", "y_1 + k2"]
        )
        field = VectorField.from_strings(PLANE, ["1", "0"])
        with pytest.raises(LiesysError, match=r"psi\(phi\) - k1 = k1 is not zero"):
            verify_tangency(rule, [field])

    def test_slot0_projection_not_tangent(self):
        rule = SuperpositionRule.from_strings(LINE, 3, 1, psi=["x_0"])
        report = verify_tangency(rule, riccati_fields())
        assert not report.all_zero
        assert all(c.verdict == "nonzero" for c in report.checks)


class TestTransversality:
    def test_catalog_rules_have_full_rank(self):
        assert transversality_rank(cross_ratio()) == (1, True)
        assert transversality_rank(euclidean_rule()) == (2, True)
        assert transversality_rank(linear2_rule()) == (2, True)
        assert transversality_rank(linear_rule(Chart(("x", "y", "z")))) == (3, True)

    def test_level_maps_that_fix_no_slot0_point(self):
        constant = SuperpositionRule.from_strings(LINE, 1, 1, psi=["x_0 - x_0 + x_1"])
        assert transversality_rank(constant) == (0, True)
        # both components move x_0 and y_0 only along x_0 + y_0
        dependent = SuperpositionRule.from_strings(
            PLANE, 1, 2, psi=["x_0 + y_0", "(x_0 + y_0)^2 + x_1"])
        assert transversality_rank(dependent) == (1, True)

    def test_function_atoms_give_a_float_rank(self):
        rule = SuperpositionRule.from_strings(LINE, 1, 1, psi=["sin(x_0) - x_1"])
        assert transversality_rank(rule) == (1, False)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_a_derivative_that_is_not_finite_is_a_missed_tuple(self, seed):
        # dpsi/dx_0 = 1 + 800 exp(400 d)^2 - 798 exp(399 d)^2, d = x_0 - x_1,
        # is inf - inf = NaN where both squares overflow, as at a tuple each
        # of these seeds draws
        a, b = "exp(400*x_0 - 400*x_1)", "exp(399*x_0 - 399*x_1)"
        rule = SuperpositionRule.from_strings(LINE, 1, 1, psi=[f"x_0 - x_1 + {a}*{a} - {b}*{b}"])
        assert transversality_rank(rule, seed=seed) == (1, False)

    def test_a_psi_nested_to_the_parse_limit_compiles(self):
        # 31 quotients deep, the most parse() takes: a node of the exact
        # derivative trees nests no deeper than in the leaf solve's float
        # source, below CPython's 200 parenthesis levels
        psi = "x_1"
        for _ in range(31):
            psi = f"sin(x_1)/(x_0 + {psi})"
        assert transversality_rank(SuperpositionRule.from_strings(LINE, 1, 1, psi=[psi])) == (1, False)

    def test_an_atom_off_the_slot0_partials_leaves_the_rank_exact(self):
        # dpsi/dx_0 = 1 is rational, so its rank is decided over Q
        rule = SuperpositionRule.from_strings(LINE, 1, 1, psi=["x_0 + exp(x_1)"])
        assert transversality_rank(rule) == (1, True)

    def test_derivatives_are_not_reduced(self, monkeypatch):
        rule = linear_rule(Chart(("x", "y", "z")))
        calls = []
        real = ex._gcd_core

        def counted(p, q):
            calls.append(1)
            return real(p, q)

        monkeypatch.setattr(ex, "_gcd_core", counted)
        assert transversality_rank(rule) == (3, True)
        assert not calls

    def test_applies_no_vector_field(self, monkeypatch):
        # the entries are the leaf solve's derivative trees, not X(psi) for
        # coordinate fields X on the product chart
        def refuse(field, f):
            raise AssertionError("transversality_rank applied a vector field")

        monkeypatch.setattr(VectorField, "apply_to", refuse)
        assert transversality_rank(cross_ratio()) == (1, True)

    @pytest.mark.parametrize("path", RULE_FILES, ids=lambda p: f"{p.parent.name}/{p.stem}")
    def test_rank_of_each_rule_file_is_sympys(self, path):
        # rule_m_fraction's m = 3.9 is refused before a rule is built
        assert _rank_is_sympys(json.loads(path.read_text())) == (path.stem != "rule_m_fraction")

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(doc=rules())
    def test_rank_of_fuzzed_rules_is_sympys(self, doc):
        _rank_is_sympys(doc)


def _tree_verdicts(rule, field):
    """The verdicts of X~(psi_j) as VectorField.apply_to builds them on the
    diagonal prolongation, each decided by ex.is_zero."""
    prolonged = diagonal_prolongation(field, rule.m + 1)
    return [ex.is_zero(prolonged.apply_to(p)).verdict for p in rule.psi]


@st.composite
def translation_rules(draw):
    """(doc, planted): a rational psi = E(x_0 - x_1) on the line, which the
    prolonged translation d/dx annihilates, and, when planted, that psi
    plus x_0^e / F(x_0 - x_1) with e >= 1, which it does not: X~ of the
    sum is e x_0^(e - 1) / F."""
    def of_difference():
        return "(" + draw(expressions(["d"])).replace("d", "((x_0) - (x_1))") + ")"

    psi, planted = of_difference(), draw(st.booleans())
    if planted:
        psi += f" + (x_0)^{draw(st.integers(1, 3))}/{of_difference()}"
    return {"chart": ["x"], "fields": [["1"]], "rule": {"m": 1, "s": 1, "psi": [psi], "phi": None}}, planted


class TestNumeratorDecisions:
    """A full rule whose psi and fields hold no function atom is decided on
    psi's polynomial numerators: tangency on X~(N) D - N X~(D), the rank on
    the rows N_v D - N D_v.  The oracles are apply_to's residual trees, the
    construction of the planted rules and, for the ranks of rules() and of
    the rule files, sympy (TestTransversality)."""

    # 60 examples, about 1.5 s on one core
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(doc=rules())
    def test_fuzzed_rules_agree_with_the_residual_trees(self, doc):
        chart = Chart(tuple(doc["chart"]))
        try:
            rule = rule_of(doc, chart)
            fields = [VectorField.from_strings(chart, c) for c in doc["fields"]]
        except LiesysError:
            return
        for field in fields:
            try:
                got = superposition._numerator_verdicts(rule, field)
                want = None if got is None else _tree_verdicts(rule, field)
            except LiesysError:  # a fold past an expansion bound
                continue
            assert got == want

    # 60 examples, about 1 s on one core
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(case=translation_rules())
    def test_planted_rules_are_decided_as_built(self, case):
        doc, planted = case
        field = VectorField.from_strings(LINE, ["1"])
        try:
            rule = rule_of(doc, LINE)
            got = superposition._numerator_verdicts(rule, field)
        except LiesysError:  # E or F identically zero, or an exponent past 2^63
            return
        if got is not None:
            assert got == ["nonzero" if planted else "zero"] == _tree_verdicts(rule, field)

    # 30 examples, well under a second
    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(pole=st.integers(-2000, 2000), x0=st.integers(-2000, 2000))
    def test_a_tuple_on_a_pole_of_d_is_a_miss(self, pole, x0):
        rule = SuperpositionRule.from_strings(LINE, 1, 1, psi=[f"x_0/(1000*x_1 - ({pole}))"])
        names, at = rule.product_chart.names, Fraction(pole, 1000)
        with pytest.raises(EvaluationError, match="division by zero"):
            superposition._rows_at(rule._gradient, ["x_0"], names, [Fraction(x0, 1000), at])
        [[entry]] = superposition._rows_at(rule._gradient, ["x_0"], names,
                                           [Fraction(x0, 1000), at + Fraction(1, 1000)])
        assert entry != 0
        assert transversality_rank(rule) == (1, True)

    def test_a_numerator_past_the_term_bound_is_decided_by_the_quotient_rule(self):
        # X~(N) D multiplies 405 by 861 terms, past MAX_TERM_PAIRS; apply_to's
        # quotient rule first cancels gcd(D, X~(D)) = (x_0 + x_1 + 1)^39
        rule = SuperpositionRule.from_strings(LINE, 1, 1, psi=["(x_0 + x_1 + 2)^27/(x_0 + x_1 + 1)^40"])
        field = VectorField.from_strings(LINE, ["x"])
        with pytest.raises(LiesysError, match="term pairs"):
            superposition._annihilates(rule._gradient[0], superposition._prolonged_rates(rule, field))
        assert [c.verdict for c in verify_tangency(rule, [field]).checks] == ["nonzero"]

    def test_a_degree_past_the_exact_bound_is_ranked_on_the_trees(self):
        # N = x_0 x_1^(2^40) + 1 is past the integers' bound at every tuple,
        # while the derivative tree of x_0 + 1/x_1^(2^40) in x_0 is 1
        rule = SuperpositionRule.from_strings(LINE, 1, 1, psi=[f"x_0 + 1/x_1^{2**40}"])
        with pytest.raises(EvaluationError, match="would exceed"):
            superposition._rows_at(rule._gradient, ["x_0"], rule.product_chart.names,
                                   [Fraction(1, 2), Fraction(3, 4)])
        assert transversality_rank(rule) == (1, True)


class TestConstancy:
    def test_cross_ratio_constant_along_tan_solutions(self):
        sys = riccati_system()
        tuple4 = solution_tuple(sys, ([-0.5], [-2.0], [-1.0], [0.0]), (0.0, 1.2))
        report = verify_along_solutions(cross_ratio(), sys, tuple4)
        assert report.max_drift <= 1e-6

    def test_linear_matrix_psi_constant(self):
        sys = linear2_system()
        tuple3 = solution_tuple(sys, ([0.4, -0.3], [1.0, 0.0], [0.0, 1.0]), (0.0, 2.0))
        report = verify_along_solutions(linear2_rule(), sys, tuple3)
        assert report.max_drift <= 1e-6

    def test_constant_solutions_have_exact_zero_drift(self):
        sys = LieSystem(
            [VectorField.from_strings(LINE, ["1"])], [CoefficientCurve.from_string("0")]
        )
        tuple2 = solution_tuple(sys, ([0.3], [0.9]))
        rule = SuperpositionRule.from_strings(LINE, 1, 1, psi=["x_0 - x_1"], phi=["x_1 + k1"])
        report = verify_along_solutions(rule, sys, tuple2)
        assert report.max_drift == 0.0

    def test_singular_tuple_reports_time(self):
        sys = riccati_system()
        # slot 0 rides on top of slot 2, so the cross-ratio denominator
        # (x_0 - x_2) vanishes along the whole tuple
        tuple4 = solution_tuple(sys, ([-1.0], [-2.0], [-1.0], [0.0]))
        with pytest.raises(SingularDomainError) as err:
            verify_along_solutions(cross_ratio(), sys, tuple4)
        assert math.isfinite(err.value.t)


class TestReconstruct:
    def test_linear_weighted_sum_matches_direct(self):
        sys = linear2_system()
        aligned = solution_tuple(sys, ([0.4, -0.3], [1.0, 0.0], [0.0, 1.0]), (0.0, 2.0))
        direct, particulars = aligned[0], aligned[1:]
        k = derive_k(linear2_rule(), direct.states[0], [tr.states[0] for tr in particulars])
        rebuilt = reconstruct(linear2_rule(), particulars, k)
        assert np.max(np.abs(rebuilt.states - direct.states)) <= 1e-6

    def test_separable_closed_form_rule(self):
        field = VectorField.from_strings(LINE, ["x^2"])
        sys = LieSystem([field], [CoefficientCurve.from_string("1 + t/2")])
        rule = SuperpositionRule.from_strings(
            LINE, 1, 1, psi=["1/x_1 - 1/x_0"], phi=["x_1/(1 - k1*x_1)"]
        )
        assert verify_tangency(rule, [field]).all_zero
        aligned = solution_tuple(sys, ([1 / 3], [0.5]))
        k = derive_k(rule, aligned[0].states[0], [aligned[1].states[0]])
        rebuilt = reconstruct(rule, aligned[1:], k)
        assert np.max(np.abs(rebuilt.states - aligned[0].states)) <= 1e-6

    @pytest.mark.parametrize("psi, x0", [("x_0/x_0", 0.0), ("x_0*x_0*x_1", 1e200)])
    def test_derive_k_singular_psi_raises(self, psi, x0):
        # a ZeroDivisionError, then an infinite k, out of the compiled psi
        rule = SuperpositionRule.from_strings(LINE, 1, 1, psi=[psi])
        with pytest.raises(SingularDomainError, match="psi evaluation singular"):
            derive_k(rule, [x0], [[1.0]])

    def test_k_matching_a_particular_solution_reproduces_it(self):
        sys = riccati_system()
        aligned = solution_tuple(sys, ([-2.0], [-1.0], [0.0]), (0.0, 1.2))
        k = derive_k(cross_ratio(), aligned[0].states[0], [tr.states[0] for tr in aligned])
        # slot 0 started exactly at the first particular solution
        rebuilt = reconstruct(cross_ratio(), aligned, k)
        assert np.max(np.abs(rebuilt.states - aligned[0].states)) <= 1e-9

    def test_newton_path_without_phi(self):
        sys = euclidean_system()
        aligned = solution_tuple(sys, ([-0.4, 0.7], [1.0, 0.0], [0.0, 1.0]))
        k = derive_k(euclidean_rule(), aligned[0].states[0], [tr.states[0] for tr in aligned[1:]])
        rebuilt = reconstruct(euclidean_rule(), aligned[1:], k, x0_guess=[-0.4, 0.7])
        assert np.max(np.abs(rebuilt.states - aligned[0].states)) <= 1e-5

    def test_rebuilt_run_cannot_be_resampled(self):
        # reconstruct fills in no node derivatives, so there is no dense output
        particulars = integrate_tuple(linear2_system(), ([1.0, 0.0], [0.0, 1.0]), (0.0, 1.0))
        rebuilt = reconstruct(linear2_rule(), particulars, [0.4, -0.3])
        assert rebuilt.derivatives is None and rebuilt.stop is None
        with pytest.raises(ValueError, match="only integrated runs can be resampled"):
            rebuilt.resampled(rebuilt.t)

    def test_guess_required_without_phi(self):
        sys = euclidean_system()
        aligned = solution_tuple(sys, ([1.0, 0.0], [0.0, 1.0]))
        with pytest.raises(ValueError):
            reconstruct(euclidean_rule(), aligned, [1.0, 1.0])

    def test_leaf_permutation_stability(self):
        sys = riccati_system()
        aligned = solution_tuple(sys, ([-0.5], [-2.0], [-1.0], [0.0]), (0.0, 1.2))
        rng = random.Random(3)
        for _ in range(4):
            order = [1, 2, 3]
            rng.shuffle(order)
            permuted = [aligned[0]] + [aligned[i] for i in order]
            report = verify_along_solutions(cross_ratio(), sys, permuted)
            assert report.max_drift <= 1e-6


class TestPhiPsiConsistency:
    def test_catalogued_rules(self):
        cases = [
            (cross_ratio(), 1),
            (linear2_rule(), 2),
            (
                SuperpositionRule.from_strings(
                    LINE, 1, 1, psi=["1/x_1 - 1/x_0"], phi=["x_1/(1 - k1*x_1)"]
                ),
                1,
            ),
            (
                SuperpositionRule.from_strings(
                    PLANE, 1, 2, psi=["x_0 - x_1", "y_0 - y_1"], phi=["x_1 + k1", "y_1 + k2"]
                ),
                2,
            ),
        ]
        rng = random.Random(11)
        for rule, s in cases:
            psi_fns = [compile_scalar(p, rule.product_chart.names) for p in rule.psi]
            phi_fns = [compile_scalar(p, rule.phi_names) for p in rule.phi]
            checked = 0
            while checked < 100:
                slots = [rng.uniform(-2, 2) for _ in range(rule.m * rule.base_chart.dim)]
                k = [rng.uniform(-2, 2) for _ in range(s)]
                try:
                    x0 = [fn(*slots, *k) for fn in phi_fns]
                    back = [fn(*x0, *slots) for fn in psi_fns]
                except ZeroDivisionError:
                    continue
                if not all(math.isfinite(v) for v in back):
                    continue
                assert max(abs(b - kv) for b, kv in zip(back, k)) <= 1e-8
                checked += 1


class TestLevelMapJacobian:
    def test_full_rank_at_generic_points(self):
        # the leaf solve needs d(psi, constraints)/dx_(0) of rank n at
        # generic points (on the constraint set for partial rules)
        from liesys.expr import differentiate

        rng = random.Random(21)
        cases = [
            cross_ratio(),
            euclidean_rule(),
            linear2_rule(),
            SuperpositionRule.from_strings(
                LINE, 1, 1, psi=["1/x_1 - 1/x_0"], phi=["x_1/(1 - k1*x_1)"]
            ),
        ]
        for rule in cases:
            n = rule.base_chart.dim
            names = rule.product_chart.names
            rows = [
                [compile_scalar(differentiate(p, v), names) for v in names[:n]]
                for p in list(rule.psi) + list(rule.constraints)
            ]
            found = 0
            while found < 20:
                point = [rng.uniform(-2, 2) for _ in names]
                try:
                    jac = np.array([[fn(*point) for fn in row] for row in rows])
                except ZeroDivisionError:
                    continue
                if not np.all(np.isfinite(jac)):
                    continue
                assert np.linalg.matrix_rank(jac) == len(rule.psi) + len(rule.constraints)
                found += 1


class TestPartialRules:
    def setup_method(self):
        self.sys = linear2_system()
        chart = self.sys.chart
        self.rank1 = SuperpositionRule.from_strings(
            chart,
            1,
            1,
            psi=["x1_0/x1_1"],
            phi=["k1*x1_1", "k1*x2_1"],
            constraints=["x1_0*x2_1 - x2_0*x1_1"],
        )
        self.rank1_m2 = SuperpositionRule.from_strings(
            chart,
            2,
            1,
            psi=["(x1_0 - x1_1)/x1_2"],
            phi=["x1_1 + k1*x1_2", "x2_1 + k1*x2_2"],
            constraints=["x1_2*(x2_0 - x2_1) - x2_2*(x1_0 - x1_1)"],
        )

    def drift(self, rule, starts, k, sys=None):
        """solution_checks' one check and its initial_psi, slot 0 on k's leaf."""
        [check], extra = solution_checks(rule, sys or self.sys, starts, (0.0, 1.0), 1e-9, 1e-6, k=k)
        assert check.name == "psi_drift_along_solutions"
        return check, extra["initial_psi"]

    def test_scaling_rule_passes(self):
        check, initial = self.drift(self.rank1, [[0.8, -0.5]], [0.7])
        assert check.passed and check.value <= 1e-9
        # slot 0 starts at phi(points; k), on the leaf of k
        assert initial == pytest.approx([0.7], abs=1e-15)

    def test_two_solution_rule_passes(self):
        check, initial = self.drift(self.rank1_m2, [[0.8, -0.5], [-0.3, 0.9]], [0.7])
        assert check.passed and check.value <= 1e-9
        assert initial == pytest.approx([0.7], abs=1e-15)

    def test_tangency_exact_on_constraint_set(self):
        # every residual's numerator is a multiple of the constraint's, so the
        # verdict needs no sample points and cannot depend on the seed
        for rule in (self.rank1, self.rank1_m2):
            for seed in (4, 19):
                report = verify_tangency(rule, self.sys.fields, seed=seed)
                assert not report.probabilistic
                assert [c.verdict for c in report.checks] == ["zero"] * 8
                # per field, psi's residual and then the constraint's
                assert [(c.level, c.component) for c in report.checks] == [
                    ("psi", 0), ("constraint", 0)] * 4

    def test_tangency_exact_with_a_scaled_constraint(self):
        # the factor 1 + x1_1^2 never vanishes, so the zero set is that of the
        # rank-1 constraint; the residual of x2 d/dx1 is -C/x1_1^2 with C the
        # unscaled constraint, which phi pulls back to exactly 0
        rule = SuperpositionRule.from_strings(
            self.sys.chart,
            1,
            1,
            psi=["x1_0/x1_1"],
            phi=["k1*x1_1", "k1*x2_1"],
            constraints=["(x1_0*x2_1 - x2_0*x1_1)*(1 + x1_1^2)"],
        )
        report = verify_tangency(rule, self.sys.fields, seed=4)
        assert report.all_zero and not report.probabilistic
        assert [c.verdict for c in report.checks] == ["zero"] * 8

    def test_two_constraint_rule_exact_against_gl3(self):
        # x0 = k x1 in three dimensions: two constraints, no single one of
        # which cuts the constraint set, so only the pull-back along phi
        # decides the residuals exactly
        chart = Chart(("x1", "x2", "x3"))
        rule = SuperpositionRule.from_strings(
            chart,
            1,
            1,
            psi=["x1_0/x1_1"],
            phi=["k1*x1_1", "k1*x2_1", "k1*x3_1"],
            constraints=["x1_0*x2_1 - x2_0*x1_1", "x1_0*x3_1 - x3_0*x1_1"],
        )
        for seed in range(20):
            report = verify_tangency(rule, gl_fields(chart), seed=seed)
            assert not report.probabilistic
            assert [c.verdict for c in report.checks] == ["zero"] * 27, seed

    def test_phi_off_its_own_leaves_raises(self):
        # phi = (x1_1 + k1, x2_1 + k1) keeps psi = k1 but pulls the
        # constraint x1_0 - x2_0 back to x1_1 - x2_1
        bad = SuperpositionRule.from_strings(
            self.sys.chart,
            1,
            1,
            psi=["x1_0 - x1_1"],
            phi=["x1_1 + k1", "x2_1 + k1"],
            constraints=["x1_0 - x2_0"],
        )
        with pytest.raises(LiesysError, match="constraint 0"):
            verify_tangency(bad, self.sys.fields)

    def test_partial_rule_without_phi_raises(self):
        rule = SuperpositionRule.from_strings(
            self.sys.chart, 1, 1, psi=["x1_0/x1_1"], constraints=["x1_0*x2_1 - x2_0*x1_1"]
        )
        with pytest.raises(LiesysError, match="no phi"):
            verify_tangency(rule, self.sys.fields)

    def test_constraint_with_a_function_atom_is_probabilistic(self):
        # C(phi) = x1_1*(sin(k1*x2_1)^2 + cos(k1*x2_1)^2 - 1) is zero, but
        # the canonical form keeps sin and cos apart, so is_zero samples it
        rule = SuperpositionRule.from_strings(
            self.sys.chart,
            1,
            1,
            psi=["x1_0/x1_1"],
            phi=["k1*x1_1", "k1*x2_1"],
            constraints=["x1_0*x2_1 - x2_0*x1_1 + x1_1*(sin(x2_0)^2 + cos(x2_0)^2 - 1)"],
        )
        report = verify_tangency(rule, self.sys.fields)
        assert report.all_zero
        assert all(c.probabilistic for c in report.checks)
        # the constraint's residuals under x1 d/dx1 and x2 d/dx1 keep
        # sin^2 + cos^2 - 1, so only samples find them zero
        assert [c.verdict for c in report.checks] == [
            "zero", "unknown", "zero", "unknown", "zero", "zero", "zero", "zero"]

    def test_constraint_set_not_invariant_fails_tangency(self):
        # phi keeps psi = k1 and lands on x2_0 = x1_0^2, but the prolonged
        # d/dx1 and d/dx2 move slot 0 off that parabola: psi's residuals
        # vanish, the constraint's do not
        translations = [VectorField.from_strings(self.sys.chart, c) for c in (["1", "0"], ["0", "1"])]
        rule = SuperpositionRule.from_strings(
            self.sys.chart, 1, 1, psi=["x1_0 - x1_1"],
            phi=["x1_1 + k1", "(x1_1 + k1)^2"], constraints=["x2_0 - x1_0^2"],
        )
        report = verify_tangency(rule, translations)
        assert [(c.level, c.verdict) for c in report.checks] == [
            ("psi", "zero"), ("constraint", "nonzero")] * 2
        assert not report.all_zero and not report.probabilistic
        tangency = rule_checks(rule, translations)[0]
        assert not tangency.passed
        assert tangency.detail == "field 0 constraint 0: nonzero; field 1 constraint 0: nonzero"

    def test_drift_is_round_off_along_the_tuple(self):
        for rule, starts in ((self.rank1, [[0.8, -0.5]]),
                             (self.rank1_m2, [[0.8, -0.5], [-0.3, 0.9]])):
            check, _ = self.drift(rule, starts, [0.7])
            assert check.passed and check.value <= 1e-12

    def test_start_builds_no_leaf_solver(self, monkeypatch):
        # verify's start is phi at the points, evaluated once
        def refuse(rule):
            raise AssertionError("a leaf solver was built")
        monkeypatch.setattr(superposition, "_leaf_solve", refuse)
        check, _ = self.drift(self.rank1, [[0.8, -0.5]], [0.7])
        assert check.passed

    def test_singular_phi_is_a_domain_error(self):
        # x2_1 starts at -1/2, where this phi divides by zero
        singular = SuperpositionRule.from_strings(
            self.sys.chart,
            1,
            1,
            psi=["x1_0/x1_1"],
            phi=["k1*x1_1/(x2_1 + 1/2)", "k1*x2_1"],
            constraints=["x1_0*x2_1 - x2_0*x1_1"],
        )
        with pytest.raises(SingularDomainError, match="phi evaluation singular"):
            self.drift(singular, [[0.8, -0.5]], [0.7])

    def test_rule_against_a_system_it_does_not_solve(self):
        # x0 = k x1 maps solutions to solutions only for linear systems; with
        # x1^2 d/dx1 added, d(k x1)/dt = k x1^2 differs from (k x1)^2
        fields = list(self.sys.fields) + [VectorField.from_strings(self.sys.chart, ["x1^2", "0"])]
        curves = list(self.sys.coefficients) + [CoefficientCurve.from_string("1")]
        nonlinear = LieSystem(fields, curves)
        check, _ = self.drift(self.rank1, [[0.8, -0.5]], [0.7], sys=nonlinear)
        assert not check.passed and check.value > 1e-3
        tangency = rule_checks(self.rank1, fields)[0]
        assert not tangency.passed
        assert tangency.detail == "field 4 psi 0: nonzero; field 4 constraint 0: nonzero"

    def test_full_rank_rule_behaves_like_full_rule(self):
        # s = n with an empty constraint list: given k, slot 0 starts on k's
        # leaf as a partial rule's does
        check, initial = self.drift(linear2_rule(), [[1.0, 0.0], [0.0, 1.0]], [0.4, -0.3])
        assert check.passed and check.value <= 1e-12
        assert initial == pytest.approx([0.4, -0.3], abs=1e-15)

    def test_wrong_rule_fails(self):
        # phi is off its leaves (C(phi) = x1_1 - x2_1), so verify ends in the
        # leaf error; along solutions psi = x1_0 - x1_1 drifts as well
        bad = SuperpositionRule.from_strings(
            self.sys.chart,
            1,
            1,
            psi=["x1_0 - x1_1"],
            phi=["x1_1 + k1", "x2_1 + k1"],
            constraints=["x1_0 - x2_0"],
        )
        with pytest.raises(LiesysError, match="constraint 0: C\\(phi\\)"):
            rule_checks(bad, self.sys.fields)
        check, _ = self.drift(bad, [[0.8, -0.5]], [0.7])
        assert not check.passed


class _ReferenceLeafSolver:
    """The leaf solver as it was before derivative trees: Jacobian entries
    in canonical form from `differentiate`, iteration on numpy arrays."""

    def __init__(self, rule):
        names = rule.product_chart.names
        n = rule.base_chart.dim
        equations = list(rule.psi) + list(rule.constraints)
        self.eq_fns = [compile_scalar(e, names) for e in equations]
        self.jac_fns = [
            [compile_scalar(ex.differentiate(e, v), names) for v in names[:n]] for e in equations
        ]
        self.n_psi = rule.rank

    def residual(self, x0, rest, k):
        args = np.concatenate([x0, rest])
        out = np.array([fn(*args) for fn in self.eq_fns])
        out[: self.n_psi] -= k
        return out

    def solve(self, rest, k, guess, t):
        x = np.array(guess, dtype=float)
        try:
            res = self.residual(x, rest, k)
        except (ZeroDivisionError, ValueError, OverflowError):
            raise SingularDomainError("leaf solve started at a singular point", t) from None
        norm = float(np.max(np.abs(res)))
        for _ in range(NEWTON_MAX_ITER):
            if norm < NEWTON_TOL:
                return x
            args = np.concatenate([x, rest])
            try:
                jac = np.array([[fn(*args) for fn in row] for row in self.jac_fns])
                step = np.linalg.solve(jac, -res)
            except np.linalg.LinAlgError:
                raise NonConvergenceError("singular Jacobian in leaf solve", t) from None
            except (ZeroDivisionError, ValueError, OverflowError):
                raise SingularDomainError("Jacobian evaluation singular", t) from None
            lam = 1.0
            for _ in range(NEWTON_MAX_HALVINGS + 1):
                try:
                    trial = x + lam * step
                    trial_res = self.residual(trial, rest, k)
                    trial_norm = float(np.max(np.abs(trial_res)))
                except (ZeroDivisionError, ValueError, OverflowError):
                    trial_norm = np.inf
                if np.isfinite(trial_norm) and (trial_norm < norm or norm < NEWTON_TOL):
                    break
                lam *= 0.5
            else:
                raise NonConvergenceError("Newton damping exhausted", t)
            x, res, norm = trial, trial_res, trial_norm
        if norm < NEWTON_TOL:
            return x
        raise NonConvergenceError(f"Newton did not converge in {NEWTON_MAX_ITER} iterations", t)


class _ListLeafSolver:
    """The leaf solver as it was before it was generated: the equations and
    the Jacobian entries (`ex._diff_tree`) as one compiled vector each, the
    residual, trial and step as lists, the norm by _max_abs.  The generated
    solve must return the same floats and raise the same errors."""

    def __init__(self, rule):
        names = rule.product_chart.names
        self.n = rule.base_chart.dim
        equations = list(rule.psi) + list(rule.constraints)
        self.equations = ex.compile_vector(equations, names)
        self.jacobian = ex.compile_vector(
            [ex._diff_tree(e, v) for e in equations for v in names[: self.n]], names
        )

    def residual(self, x0, rest, k):
        out = self.equations(*x0, *rest)
        for j, kj in enumerate(k):
            out[j] -= kj
        return out

    def solve(self, rest, k, guess, t):
        x = list(guess)
        try:
            res = self.residual(x, rest, k)
        except (ZeroDivisionError, ValueError, OverflowError):
            raise SingularDomainError("leaf solve started at a singular point", t) from None
        norm = _max_abs(res)
        for _ in range(NEWTON_MAX_ITER):
            if norm < NEWTON_TOL:
                return x
            try:
                jac = self.jacobian(*x, *rest)
            except (ZeroDivisionError, ValueError, OverflowError):
                raise SingularDomainError("Jacobian evaluation singular", t) from None
            try:
                if self.n == 1:
                    step = [-res[0] / jac[0]]
                else:
                    matrix = np.array(jac, dtype=float).reshape(self.n, self.n)
                    step = np.linalg.solve(matrix, [-r for r in res]).tolist()
            except (ZeroDivisionError, np.linalg.LinAlgError):
                raise NonConvergenceError("singular Jacobian in leaf solve", t) from None
            lam = 1.0
            for _ in range(NEWTON_MAX_HALVINGS + 1):
                try:
                    trial = [xi + lam * si for xi, si in zip(x, step)]
                    trial_res = self.residual(trial, rest, k)
                    trial_norm = _max_abs(trial_res)
                except (ZeroDivisionError, ValueError, OverflowError):
                    trial_norm = math.inf
                if math.isfinite(trial_norm) and (trial_norm < norm or norm < NEWTON_TOL):
                    break
                lam *= 0.5
            else:
                raise NonConvergenceError("Newton damping exhausted", t)
            x, res, norm = trial, trial_res, trial_norm
        if norm < NEWTON_TOL:
            return x
        raise NonConvergenceError(f"Newton did not converge in {NEWTON_MAX_ITER} iterations", t)


def _max_abs(values):
    return math.nan if any(map(math.isnan, values)) else max(map(abs, values))


def _result(solve, rest, k, guess):
    """What solve(rest, k, guess, 0.5) returns, or the type and message of
    the leaf-solve error it raises."""
    try:
        return solve(rest, k, guess, 0.5)
    except (NonConvergenceError, SingularDomainError) as exc:
        return type(exc), str(exc)


def _outcome(solve, rest, k, guess):
    """The solution as an array, or the type and message of the exception."""
    out = _result(solve, rest, k, guess)
    return out if isinstance(out, tuple) else np.asarray(out)


def _both(rule, rest, k, guess):
    new = _outcome(_leaf_solve(rule), list(rest), list(k), list(guess))
    old = _outcome(_ReferenceLeafSolver(rule).solve, np.array(rest), np.array(k), np.array(guess))
    return new, old


def _partial_rules():
    chart = Chart(("x1", "x2"))
    rank1 = SuperpositionRule.from_strings(
        chart, 1, 1, psi=["x1_0/x1_1"], phi=["k1*x1_1", "k1*x2_1"],
        constraints=["x1_0*x2_1 - x2_0*x1_1"],
    )
    rank1_m2 = SuperpositionRule.from_strings(
        chart, 2, 1, psi=["(x1_0 - x1_1)/x1_2"], phi=["x1_1 + k1*x1_2", "x2_1 + k1*x2_2"],
        constraints=["x1_2*(x2_0 - x2_1) - x2_2*(x1_0 - x1_1)"],
    )
    return rank1, rank1_m2


def _leaf_cases():
    """(name, rule, draw) parameters where draw(rng) gives a slot-0 point and
    the other slots, with slot 0 on the constraint set of a partial rule."""
    uniform = lambda rng, count: [rng.uniform(-2, 2) for _ in range(count)]
    free = lambda n, m: lambda rng: (uniform(rng, n), uniform(rng, n * m))

    def on_rank1(rng):
        rest, c = uniform(rng, 2), rng.uniform(-2, 2)
        return [c * rest[0], c * rest[1]], rest

    def on_rank1_m2(rng):
        rest, c = uniform(rng, 4), rng.uniform(-2, 2)
        return [rest[0] + c * rest[2], rest[1] + c * rest[3]], rest

    pde_cross_ratio = SuperpositionRule.from_strings(
        Chart(("u",)), 3, 1, psi=["((u_0 - u_1)*(u_2 - u_3))/((u_0 - u_2)*(u_1 - u_3))"]
    )
    rank1, rank1_m2 = _partial_rules()
    cases = [
        ("riccati", cross_ratio(), free(1, 3)),
        ("gl2", linear_rule(Chart(("x1", "x2"))), free(2, 2)),
        ("gl3", linear_rule(Chart(("x1", "x2", "x3"))), free(3, 3)),
        ("pde_u", pde_cross_ratio, free(1, 3)),
        ("partial_rank1", rank1, on_rank1),
        ("partial_rank1_m2", rank1_m2, on_rank1_m2),
    ]
    return [pytest.param(*case, id=case[0]) for case in cases]


class TestLeafSolver:
    """The float leaf solver against the canonical-form reference: Jacobian
    entries differ in the last bits, so iterates may too, by far less than
    NEWTON_TOL; exceptions are the same."""

    @pytest.mark.parametrize("name,rule,draw", _leaf_cases())
    def test_agrees_with_reference(self, name, rule, draw):
        rng = random.Random(f"leaf-{name}")
        solve, reference = _leaf_solve(rule), _ReferenceLeafSolver(rule).solve
        names = rule.product_chart.names
        psi = [compile_scalar(p, names) for p in rule.psi]
        solved = 0
        for _ in range(60):
            x0, rest = draw(rng)
            try:
                k = [fn(*x0, *rest) for fn in psi]
            except ZeroDivisionError:
                continue
            guess = [v + rng.uniform(-0.1, 0.1) for v in x0]
            new = _outcome(solve, rest, k, guess)
            old = _outcome(reference, np.array(rest), np.array(k), np.array(guess))
            if isinstance(old, tuple):
                assert new == old
                continue
            assert np.max(np.abs(new - old)) <= 1e-12
            solved += 1
        assert solved >= 40

    def test_gl3_jacobian_holds_no_zero_partial(self):
        # psi is det(...)/det(...) with only the numerator in slot 0: with
        # every zero term of the product and quotient rules kept, each entry
        # carried the denominator's derivative, and the nine entries wrote
        # 9,714 characters of source
        rule = linear_rule(Chart(("x1", "x2", "x3")))
        names = rule.product_chart.names
        params = {name: f"_v{i}" for i, name in enumerate(names)}
        sources = [ex.python_source(ex._diff_tree(e, v), params) for e in rule.psi for v in names[:3]]
        assert not any("(0)" in text for text in sources)  # how python_source writes Const(0)
        assert sum(map(len, sources)) <= 2300  # 2,213 now

    def test_jacobian_of_a_power_keeps_the_power(self, monkeypatch):
        # d/dx_0 of (x_0 - x_1)^20 + x_0 is 20*(x_0 - x_1)^19 + 1 = 1 to
        # rounding at (10.001, 10.0); expanded, its terms reach about 1e25 and
        # cancel to noise.  With one iteration the solve returns its first
        # step from 10.001, 10.001 - r/J, where psi is linear to rounding
        # ((x_0 - 10)^20 < 1e-20), so the root 9.9 to 1e-12 pins J = 1 to 1e-11
        rule = SuperpositionRule.from_strings(LINE, 1, 1, psi=["(x_0 - x_1)^20 + x_0"])
        monkeypatch.setattr(superposition, "NEWTON_MAX_ITER", 1)
        assert _leaf_solve(rule)([10.0], [9.9], [10.001], 0.0) == pytest.approx([9.9], abs=1e-12)
        assert _ListLeafSolver(rule).jacobian(10.001, 10.0) == pytest.approx([1.0], abs=1e-12)

    def test_singular_start(self):
        new, old = _both(cross_ratio(), [0.5, -1.0, 2.0], [0.3], [-1.0])
        assert new == old == (SingularDomainError,
                              "leaf solve started at a singular point (t=0.5)")

    @pytest.mark.parametrize("rule,rest,k,guess", [
        (SuperpositionRule.from_strings(LINE, 1, 1, psi=["(x_0 - x_1)^2"]),
         [0.5], [0.3], [0.5]),
        (euclidean_rule(), [0.5, 0.5, -1.0, 2.0], [0.3, 1.0], [0.5, 0.5]),
    ], ids=["n1", "n2"])
    def test_zero_jacobian(self, rule, rest, k, guess):
        new, old = _both(rule, rest, k, guess)
        assert new == old == (NonConvergenceError, "singular Jacobian in leaf solve (t=0.5)")

    def test_nan_equation_raises(self):
        # the first residual is 0 and the second inf - inf: a norm that
        # skipped the NaN would return the guess as converged
        rule = SuperpositionRule.from_strings(
            PLANE, 1, 2, psi=["x_0 - x_1", "y_0 + y_1*y_1*y_1 - y_1*y_1*y_1"]
        )
        new, old = _both(rule, [0.5, 1e200], [0.0, 0.3], [0.5, 0.2])
        assert new == old == (NonConvergenceError, "Newton damping exhausted (t=0.5)")

    def test_no_canonical_forms(self, monkeypatch):
        rule = linear_rule(Chart(("x1", "x2", "x3")))

        def refuse(*args):
            raise AssertionError("canonical form in the leaf solver")

        monkeypatch.setattr(ex, "canonical_expr", refuse)
        monkeypatch.setattr(ex, "_gcd_core", refuse)
        rest = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
        x = _leaf_solve(rule)(rest, [0.2, -0.3, 0.5], [0.0, 0.0, 0.0], 0.0)
        assert np.max(np.abs(np.subtract(x, [0.2, -0.3, 0.5]))) <= 1e-12


class TestGeneratedSolveBitIdentity:
    """The generated solve against the list-based one it replaced
    (_ListLeafSolver): the same floats, or the same error and message."""

    @pytest.mark.parametrize("name,rule,draw", _leaf_cases() + [pytest.param(
        "euclidean", euclidean_rule(),
        lambda rng: ([rng.uniform(-2, 2) for _ in range(2)], [rng.uniform(-2, 2) for _ in range(4)]),
        id="euclidean")])
    def test_same_floats(self, name, rule, draw):
        # guesses up to 1 away take several damped iterations, and some fail;
        # the euclidean rule is the one with n > 1 that is not linear in slot 0
        rng = random.Random(f"bits-{name}")
        solve, listed = _leaf_solve(rule), _ListLeafSolver(rule).solve
        psi = ex.compile_vector(rule.psi, rule.product_chart.names)
        solved = 0
        for _ in range(80):
            x0, rest = draw(rng)
            try:
                k = psi(*x0, *rest)
            except ZeroDivisionError:
                continue
            guess = [v + rng.uniform(-1.0, 1.0) for v in x0]
            new = _result(solve, rest, k, guess)
            assert new == _result(listed, rest, k, guess)
            solved += not isinstance(new, tuple)
        assert solved >= 40

    @pytest.mark.parametrize("rule,rest,k,guess,error", [
        (cross_ratio(), [0.5, -1.0, 2.0], [0.3], [-1.0],
         (SingularDomainError, "leaf solve started at a singular point (t=0.5)")),
        # the Jacobian entry x_1/x_1^2 underflows to a zero divisor where psi is 1
        (SuperpositionRule.from_strings(LINE, 1, 1, psi=["x_0/x_1"]), [1e-200], [0.5], [1e-200],
         (SingularDomainError, "Jacobian evaluation singular (t=0.5)")),
        (SuperpositionRule.from_strings(LINE, 1, 1, psi=["(x_0 - x_1)^2"]), [0.5], [0.3], [0.5],
         (NonConvergenceError, "singular Jacobian in leaf solve (t=0.5)")),
        (euclidean_rule(), [0.5, 0.5, -1.0, 2.0], [0.3, 1.0], [0.5, 0.5],
         (NonConvergenceError, "singular Jacobian in leaf solve (t=0.5)")),
        (SuperpositionRule.from_strings(PLANE, 1, 2, psi=["x_0 - x_1", "y_0 + y_1*y_1*y_1 - y_1*y_1*y_1"]),
         [0.5, 1e200], [0.0, 0.3], [0.5, 0.2], (NonConvergenceError, "Newton damping exhausted (t=0.5)")),
        # x^2 + 1 = 0 has no root: from 0.001 the step is about -500, and
        # nine halvings of it all land where x^2 + 1 is larger
        (SuperpositionRule.from_strings(LINE, 1, 1, psi=["x_0^2 - x_1"]), [-1.0], [0.0], [0.001],
         (NonConvergenceError, "Newton damping exhausted (t=0.5)")),
        # a root of multiplicity 20: each step shrinks x_0 - x_1 by 19/20
        (SuperpositionRule.from_strings(LINE, 1, 1, psi=["(x_0 - x_1)^20"]), [0.0], [0.0], [100.0],
         (NonConvergenceError, f"Newton did not converge in {NEWTON_MAX_ITER} iterations (t=0.5)")),
    ], ids=["singular_start", "singular_jacobian_entry", "zero_jacobian_n1", "zero_jacobian_n2",
            "nan_equation", "damping_exhausted", "not_converged"])
    def test_same_error(self, rule, rest, k, guess, error):
        assert _result(_leaf_solve(rule), rest, k, guess) == _result(
            _ListLeafSolver(rule).solve, rest, k, guess) == error


class _Passes:
    """A range(NEWTON_MAX_ITER) that counts what it yields: swapped for a
    generated solve's `_iterations`, the Newton loop passes, each ending in
    the convergence test."""

    def __init__(self):
        self.count = 0

    def __iter__(self):
        for i in range(NEWTON_MAX_ITER):
            self.count += 1
            yield i


def _counted(monkeypatch) -> _Passes:
    """The Newton passes of every leaf solver built from here on: each
    build has its own namespace, so each gets the one counter."""
    passes, build = _Passes(), superposition._leaf_solve

    def counting(rule):
        solve = build(rule)
        solve.__globals__["_iterations"] = passes
        return solve

    monkeypatch.setattr(superposition, "_leaf_solve", counting)
    return passes


def _builds(monkeypatch) -> list:
    """The rules of the leaf solvers built from here on."""
    built, build = [], superposition._leaf_solve
    monkeypatch.setattr(superposition, "_leaf_solve", lambda rule: built.append(rule) or build(rule))
    return built


def test_leaf_solve_reads_the_newton_constants_when_built(monkeypatch):
    monkeypatch.setattr(superposition, "NEWTON_MAX_ITER", 1)
    with pytest.raises(NonConvergenceError, match="in 1 iterations"):
        _leaf_solve(cross_ratio())([0.5, -1.0, 2.0], [0.3], [5.0], 0.0)


def _newton_only(rule):
    return SuperpositionRule(rule.base_chart, rule.m, rule.rank, rule.psi)


class TestLeafFollowing:
    """reconstruct without phi starts each node at the secant predictor
    through the two before it; Newton passes per node are counted, not
    timed."""

    def test_riccati_on_a_union_grid(self, monkeypatch):
        # slot 0 integrated on its own and aligned with the tuple, as the
        # benchmark does: steps alternate between the two grids' nodes
        sys, rule = riccati_system(), _newton_only(cross_ratio())
        direct = integrate(sys, [-0.5], (0.0, 1.2), 1e-9)
        aligned = align_trajectories([direct] + integrate_tuple(sys, ([-2.0], [0.0], [-1.0]), (0.0, 1.2), 1e-9))
        k = derive_k(rule, aligned[0].states[0], [tr.states[0] for tr in aligned[1:]])
        passes = _counted(monkeypatch)
        rebuilt = reconstruct(rule, aligned[1:], k, x0_guess=[-0.5])
        # 3.04 on these 141 nodes; started at the previous node, 3.98
        assert passes.count / len(rebuilt.t) <= 3.1
        assert np.max(np.abs(rebuilt.states - aligned[0].states)) <= 1e-6

    def test_linear_rule_takes_one_step_per_node(self, monkeypatch):
        # psi is linear in slot 0: any guess is one exact step from the leaf,
        # and the start at x0 none; 1.99 passes per node on 130 nodes
        sys, rule = linear2_system(), _newton_only(linear2_rule())
        aligned = solution_tuple(sys, ([0.4, -0.3], [1.0, 0.0], [0.0, 1.0]), (0.0, 2.0))
        k = derive_k(rule, aligned[0].states[0], [tr.states[0] for tr in aligned[1:]])
        passes = _counted(monkeypatch)
        rebuilt = reconstruct(rule, aligned[1:], k, x0_guess=[0.4, -0.3])
        assert passes.count == 2 * len(rebuilt.t) - 1
        assert np.max(np.abs(rebuilt.states - aligned[0].states)) <= 1e-6

    def test_coarse_grid_stays_on_its_branch(self, monkeypatch, capsys):
        # tools/inputs/leaf_other_branch.json: psi = (x_0 - x_1)^2 = 1/4 has
        # the branches x_1 +- 1/2, and the tuple's nodes are 0, 0.01, 0.06,
        # 0.31 and 1.  From the node at 0.31 the solve at 1 landed on x_1 - 1/2
        sys = LieSystem([VectorField.from_strings(LINE, ["1"])], [CoefficientCurve.from_string("1 - t/3")])
        rule = SuperpositionRule.from_strings(LINE, 1, 1, psi=["(x_0 - x_1)^2"])
        passes = _counted(monkeypatch)
        checks, _, slot0, _ = superpose_checks(rule, sys, [[0.0]], (0.0, 1.0), 1e-9, 1e-6, x0=[0.5])
        assert [c.passed for c in checks] == [True] * 4
        assert checks[2].value <= 1e-12  # 6.2e-14; 1 before
        assert passes.count / len(slot0.t) <= 3.4  # 4.2 before
        assert main(["superpose", str(INPUTS / "leaf_other_branch.json")]) == 0
        assert "PASS reconstruction_vs_direct" in capsys.readouterr().out

    @pytest.mark.parametrize("rule,sys,points,x0", [
        (_newton_only(cross_ratio()), riccati_system(), [[-2.0], [0.0], [-1.0]], [-0.5]),
        (SuperpositionRule.from_strings(LINE, 1, 1, psi=["(x_0 - x_1)^2"]),
         LieSystem([VectorField.from_strings(LINE, ["1"])], [CoefficientCurve.from_string("1 - t/3")]),
         [[0.0]], [0.5]),
    ], ids=["riccati", "two_branches"])
    def test_near_duplicate_nodes(self, rule, sys, points, x0):
        # a step of 1e-11 and then one of 0.05, q = 5e9: the secant through
        # the pair would carry their Newton error 5e9 times into the guess
        grid = np.array([0.0, 0.05, 0.1, 0.1 + 1e-11, 0.15, 0.2, 0.25, 0.25 + 1e-11, 0.3, 0.35, 0.4])
        tuple_ = [tr.resampled(grid) for tr in integrate_tuple(sys, [x0, *points], (0.0, 0.4), 1e-10)]
        k = derive_k(rule, x0, points)
        rebuilt = reconstruct(rule, tuple_[1:], k, x0_guess=x0)
        assert np.max(np.abs(rebuilt.states - tuple_[0].states)) <= 1e-9

    def test_predictor(self):
        before, last = [1.0, 2.0], [1.5, 2.5]
        assert _predicted(before, last, 0.0, 0.1, 0.3) == [2.5, 3.5]
        assert _predicted(before, last, 0.0, 0.1, 0.6) == pytest.approx([4.0, 5.0])
        # past PREDICTOR_MAX_RATIO = 5, and over a repeated node, the guess is the last node
        assert _predicted(before, last, 0.0, 0.1, 0.61) is last
        assert _predicted(before, last, 0.1, 0.1 + 1e-11, 0.15) is last
        assert _predicted(before, last, 0.1, 0.1, 0.15) is last


def _phi_cases():
    """(name, rule, system, points, k) for superpose_checks: four rules whose
    phi is on its leaves, then three whose phi is off them."""
    rank1, _ = _partial_rules()
    off_phi = SuperpositionRule.from_strings(
        LINE, 3, 1, psi=[str(cross_ratio().psi[0])], phi=[f"{cross_ratio().phi[0]} + x_1/1000"])
    separable = SuperpositionRule.from_strings(LINE, 1, 1, psi=["1/x_1 - 1/x_0"], phi=["x_1/(1 - k1*x_1)"])
    off_constraint = SuperpositionRule.from_strings(
        rank1.base_chart, 1, 1, psi=["x1_0/x1_1"], phi=["k1*x1_1", "k1*x2_1 + 1/1000"],
        constraints=["x1_0*x2_1 - x2_0*x1_1"])
    # a flat psi: psi(phi) - k1 = 1/2000000, under the 1e-6 a leaf solve
    # from phi may move it
    flat = SuperpositionRule.from_strings(LINE, 3, 1, psi=["(x_0 - x_1)/1000"],
                                          phi=["x_1 + 1000*k1 + 1/2000"])
    squares = LieSystem([VectorField.from_strings(LINE, ["x^2"])], [CoefficientCurve.from_string("1 + t/2")])
    riccati = (riccati_system(), [[-2.0], [0.0], [-1.0]], [0.3])
    partial = (linear2_system(), [[0.8, -0.5]], [0.7])
    cases = [("riccati", cross_ratio(), *riccati), ("separable_invsq", separable, squares, [[0.5]], [0.3]),
             ("linear2", linear2_rule(), linear2_system(), [[1.0, 0.0], [0.0, 1.0]], [0.3, 0.5]),
             ("partial_rank1", rank1, *partial),
             ("riccati_phi_off", off_phi, *riccati), ("partial_phi_off", off_constraint, *partial),
             ("flat_psi", flat, *riccati)]
    return [pytest.param(*case, id=case[0]) for case in cases]


class TestPhiDecidedExactly:
    """superpose_checks decides phi once, exactly, as verify does
    (_phi_on_leaves); reconstruct takes phi as given and builds no leaf
    solver for it."""

    @pytest.mark.parametrize("name,rule,sys,points,k", _phi_cases()[:4])
    def test_phi_on_its_leaves_passes(self, name, rule, sys, points, k, monkeypatch):
        built = _builds(monkeypatch)
        checks, _, _, _ = superpose_checks(rule, sys, points, (0.0, 1.0), 1e-9, 1e-6, k=k)
        assert [c.passed for c in checks] == [True] * 4
        assert built == []

    @pytest.mark.parametrize("name,rule,sys,points,k", _phi_cases()[4:])
    def test_phi_off_its_leaves_fails(self, name, rule, sys, points, k):
        with pytest.raises(LiesysError, match="phi is off its own leaves") as err:
            superpose_checks(rule, sys, points, (0.0, 1.0), 1e-9, 1e-6, k=k)
        if name == "flat_psi":
            assert str(err.value).endswith("psi(phi) - k1 = 1/2000000 is not zero")

    def test_phi_on_a_pole_of_psi_is_named(self):
        # phi = x_2 puts slot 0 on a pole of the cross ratio
        rule = SuperpositionRule.from_strings(LINE, 3, 1, psi=[str(cross_ratio().psi[0])], phi=["x_2"])
        reason = ("phi lands where psi is undefined: psi component 0: "
                  "division by an expression that is identically zero")
        with pytest.raises(LiesysError) as err:
            superpose_checks(rule, riccati_system(), [[-2.0], [0.0], [-1.0]], (0.0, 1.0), 1e-9, 1e-6, k=[0.3])
        assert str(err.value) == reason
        with pytest.raises(LiesysError) as err:
            verify_tangency(rule, riccati_fields())
        assert str(err.value) == reason

    def test_nan_residual(self):
        # phi is exactly on the leaves, though the second residual is
        # inf - inf at y_1 = 1e200: reconstruct returns phi there, where a
        # leaf solve from phi could only fail
        rule = SuperpositionRule.from_strings(
            PLANE, 1, 2, psi=["x_0 - x_1", "y_0 + y_1*y_1*y_1 - y_1*y_1*y_1"], phi=["x_1 + k1", "k2"])
        assert superposition._phi_on_leaves(rule, 0)[1] is False
        particular = Trajectory(np.array([0.5]), np.array([[0.5, 1e200]]))
        assert reconstruct(rule, [particular], [0.0, 0.3]).states.tolist() == [[0.5, 0.3]]

    def test_superpose_of_phi_files_builds_no_solver(self, capsys, monkeypatch):
        docs = {path: json.loads(path.read_text()) for path in sorted(PROBLEMS.glob("*.json"))}
        files = [path for path, doc in docs.items() if "chart" in doc and (doc.get("rule") or {}).get("phi")]
        assert len(files) == 8
        built = _builds(monkeypatch)
        for path in files + [INPUTS / "phi_off_leaf.json"]:
            assert main(["superpose", str(path)]) in (0, 1), path.name
        out = capsys.readouterr().out
        assert "FAIL completed  (phi is off its own leaves: psi component 0: psi(phi) - k1 = " in out
        assert built == []
