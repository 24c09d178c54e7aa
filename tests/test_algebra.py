import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from liesys import algebra, catalog
from liesys import expr as ex
from liesys.algebra import (
    LieClosureReport,
    closure_test,
    minimal_m,
    prune_independent,
    span_coefficients,
)
from liesys.catalog import gl_fields
from liesys.dynamics import CoefficientCurve, LieSystem
from liesys.errors import ChartMismatchError, ClosureCapError, RankTestError
from liesys.expr import Chart, is_zero
from liesys.geometry import VectorField, lie_bracket
from liesys.pde import PdeSystem

from conftest import monic_gcd, random_polynomial

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

LINE = Chart(("x",))
PLANE = Chart(("x", "y"))


def field(chart, *components):
    return VectorField.from_strings(chart, components)


def riccati():
    return [field(LINE, "1"), field(LINE, "x"), field(LINE, "x^2")]


def euclidean():
    return [field(PLANE, "1", "0"), field(PLANE, "0", "1"), field(PLANE, "y", "-x")]


class TestSpanCoefficients:
    def test_in_span(self):
        result = span_coefficients(field(LINE, "x"), [field(LINE, "1"), field(LINE, "x")])
        assert result.in_span
        assert result.coefficients == (Fraction(0), Fraction(1))

    def test_not_in_span_with_residual(self):
        result = span_coefficients(field(LINE, "2*x"), [field(LINE, "1"), field(LINE, "x^2")])
        assert not result.in_span
        assert result.residual is not None
        assert not all(is_zero(c).verdict == "zero" for c in result.residual.components)

    def test_riccati_bracket_coefficients(self):
        basis = riccati()
        from liesys.geometry import lie_bracket

        bracket = lie_bracket(basis[0], basis[2])
        result = span_coefficients(bracket, basis)
        assert result.coefficients == (Fraction(0), Fraction(2), Fraction(0))

    def test_rational_components(self):
        target = field(LINE, "3/x^2")
        result = span_coefficients(target, [field(LINE, "1/x^2")])
        assert result.in_span and result.coefficients == (Fraction(3),)


class TestClosure:
    def test_riccati_structure_constants_exact(self):
        report = closure_test(riccati())
        assert report.closed and report.dimension == 3
        assert report.constants[(0, 1)] == (Fraction(1), Fraction(0), Fraction(0))
        assert report.constants[(0, 2)] == (Fraction(0), Fraction(2), Fraction(0))
        assert report.constants[(1, 2)] == (Fraction(0), Fraction(0), Fraction(1))
        assert report.jacobi_residual() == 0

    def test_reversed_pair_negates_the_constants(self):
        report = closure_test(riccati())
        span = span_coefficients(lie_bracket(report.basis[2], report.basis[0]), report.basis)
        assert span.in_span and span.coefficients == tuple(-v for v in report.constants[(0, 2)])

    def test_bracket_reconstruction_is_zero(self):
        # [X_a, X_b] = sum_g c(a, b)_g X_g, with the report's constants
        report = closure_test(riccati())
        for a in range(3):
            for b in range(3):
                if a == b:
                    continue
                span = span_coefficients(lie_bracket(report.basis[a], report.basis[b]), report.basis)
                assert span.in_span and span.coefficients == _c(report, a, b)

    def test_incomplete_pair_fails_with_witness(self):
        report = closure_test([field(LINE, "1"), field(LINE, "x^2")])
        assert not report.closed
        a, b, bracket = report.witness
        assert span_coefficients(bracket, report.basis).in_span is False

    def test_completion_reaches_dimension_three(self):
        report = closure_test([field(LINE, "1"), field(LINE, "x^2")], complete=True)
        assert report.closed
        assert report.dimension == 3
        assert report.completion_trace == [2, 3]
        assert report.jacobi_residual() == 0

    def test_single_field_trivial_algebra(self):
        report = closure_test([field(LINE, "x^2")])
        assert report.closed and report.dimension == 1
        assert report.constants == {}

    def test_cap_exceeded(self):
        # translations against x^3 d/dx generate ever higher degrees
        with pytest.raises(ClosureCapError):
            closure_test([field(LINE, "1"), field(LINE, "x^3")], complete=True, cap=6)

    def test_dependent_input_pruned(self):
        fields = [field(LINE, "1"), field(LINE, "2"), field(LINE, "x")]
        report = closure_test(fields)
        assert report.dimension == 2

    def test_gl3_brackets_read_derivative_trees(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("canonical derivative in a bracket")

        monkeypatch.setattr(ex, "differentiate", refuse)
        report = closure_test(gl_fields(Chart(("x", "y", "z"))))
        assert report.closed and report.dimension == 9

    def test_gl3_brackets_build_no_derivative_tree(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("derivative tree of a polynomial field")

        monkeypatch.setattr(ex, "_diff_tree", refuse)
        fields = gl_fields(Chart(("x", "y", "z")))
        report = closure_test(fields)
        assert report.closed and report.dimension == 9
        a, b, c = fields[1], fields[3], fields[8]
        cyclic = (lie_bracket(lie_bracket(a, b), c) + lie_bracket(lie_bracket(b, c), a)
                  + lie_bracket(lie_bracket(c, a), b))
        assert cyclic.is_zero_field()

    def test_euclidean_algebra(self):
        report = closure_test(euclidean())
        assert report.closed and report.dimension == 3
        assert report.constants[(0, 1)] == (Fraction(0),) * 3
        assert report.constants[(0, 2)] == (Fraction(0), Fraction(-1), Fraction(0))
        assert report.constants[(1, 2)] == (Fraction(1), Fraction(0), Fraction(0))


class TestZeroComponentsAreFree:
    def test_rescaled_gl4_closure_derives_no_constant(self, monkeypatch):
        chart = Chart(("x1", "x2", "x3", "x4"))
        pairs = list(itertools.product(range(4), repeat=2))  # (i, j): s_ij x_j d/dx_i
        s = {(i, j): Fraction(i + 1, j + 2) for i, j in pairs}
        fields = [field(chart, *(f"({s[i, j]})*x{j + 1}" if k == i else "0" for k in range(4)))
                  for i, j in pairs]
        partials, calls = ex._nf_partials, []
        monkeypatch.setattr(ex, "_nf_partials",
                            lambda nf, names: calls.append(1) or partials(nf, names))
        report = closure_test(fields)
        # each field's one nonconstant component, over a constant denominator,
        # walked once for all its partials however many of the 120 brackets
        # read it, and no zero component walked at all
        assert len(calls) == len(fields) == 16
        # [s_ij x_j d_i, s_kl x_l d_k] = s_ij s_kl (d_il x_j d_k - d_kj x_l d_i)
        want = {}
        for (a, (i, j)), (b, (k, l)) in itertools.combinations(enumerate(pairs), 2):
            c = [Fraction(0)] * 16
            if i == l:
                c[4 * k + j] += s[i, j] * s[k, l] / s[k, j]
            if k == j:
                c[4 * i + l] -= s[i, j] * s[k, l] / s[i, l]
            want[(a, b)] = tuple(c)
        assert report.closed and report.constants == want


class TestSumsStayUnbuilt:
    """Brackets, the echelon and zero tests read normal forms, so a sum
    rebuilt from one builds its terms only where something renders it."""

    @pytest.fixture
    def sums(self, monkeypatch):
        """Term counts of the sums made and of those built since."""
        made, built = [], []
        init, build = ex._PolySum.__init__, ex._poly_terms

        def making(self, poly, lc):
            made.append(len(poly))
            init(self, poly, lc)

        def building(poly, lc):
            if len(poly) > 1:
                built.append(len(poly))
            return build(poly, lc)

        monkeypatch.setattr(ex._PolySum, "__init__", making)
        monkeypatch.setattr(ex, "_poly_terms", building)
        return made, built

    def test_closed_rescaled_gl3_builds_no_sum(self, sums):
        report = closure_test(_gl_scaled(3, seed=5))
        assert report.closed and report.dimension == 9
        assert sums[1] == []

    def test_closed_algebra_with_sum_brackets_builds_no_sum(self, sums):
        report = closure_test([field(LINE, "1 + x"), field(LINE, "x - x^2"), field(LINE, "x^2 + 2")])
        assert report.closed and report.dimension == 3
        made, built = sums
        assert made == [] and built == []  # closure reduces brackets as normal forms

    def test_jacobi_sum_builds_no_sum(self, sums):
        texts = [("x^2 + 2*x*y - 3", "y^2 - x/2 + 1"), ("3*x*y - y", "x^2 + y^2"),
                 ("x^2/3 - y + 2", "x*y + 5*x")]
        x, y, z = (VectorField(PLANE, tuple(ex.canonical_expr(ex.parse(c, PLANE)) for c in row))
                   for row in texts)
        terms = [lie_bracket(lie_bracket(p, q), r) for p, q, r in ((x, y, z), (y, z, x), (z, x, y))]
        for i in range(2):
            decision = is_zero(ex.Add(tuple(t.components[i] for t in terms)))
            assert decision.verdict == "zero" and decision.exact
        made, built = sums
        assert made and built == []

    def test_jacobi_sum_makes_no_canonical_form(self, monkeypatch):
        """The benchmark's Jacobi shape reads normal forms only: no
        canonical form is made, and components still render as the tree of
        their canonical Fraction pair."""
        made = []
        canonical = ex._NF.canonical

        def counting(nf):
            if nf._canonical is None:
                made.append(nf)
            return canonical(nf)

        monkeypatch.setattr(ex._NF, "canonical", counting)
        texts = [("x^2 + 2*x*y - 3", "y^2 - x/2 + 1"), ("3*x*y - y", "x^2 + y^2"),
                 ("x^2/3 - y + 2", "x*y + 5*x")]
        x, y, z = fields = [VectorField(PLANE, tuple(ex.canonical_expr(ex.parse(c, PLANE)) for c in row))
                            for row in texts]
        inner = [lie_bracket(p, q) for p, q in ((x, y), (y, z), (z, x))]
        terms = [lie_bracket(b, r) for b, r in zip(inner, (z, x, y))]
        totals = [ex.Add(tuple(t.components[i] for t in terms)) for i in range(2)]
        assert all(is_zero(total).verdict == "zero" for total in totals)
        assert made == []
        stack = [c for f in fields + inner + terms for c in f.components] + totals
        while stack:
            node = stack.pop()
            assert node._nf is None or node._nf._canonical is None
            if isinstance(node, ex.Div):
                stack += [node.numerator, node.denominator]
            elif isinstance(node, ex.Mul):
                stack += node.factors
            elif type(node) is ex.Add:  # a sum not built from a normal form
                stack += node.terms
        components = [c for t in inner + terms for c in t.components]
        want = [str(ex._tree(*c._nf.canonical(), c._nf)) for c in components]
        assert [str(c) for c in components] == want

    @pytest.mark.parametrize("components", [None, (["1"], ["x^3 + x"])])
    def test_open_closure_builds_its_witness_once_rendered(self, sums, components):
        if components is None:
            components = json.loads((PROBLEMS / "incomplete_pair.json").read_text())["fields"]
        report = closure_test([field(LINE, *c) for c in components])
        assert not report.closed
        made, built = sums
        assert built == []
        witness = report.witness[2]
        want = sorted(len(p) for c in witness.components for p in ex._nf_of(c).canonical()
                      if len(p) > 1)
        witness.to_json_dict()
        assert sorted(built) == want


class TestBracketTreesOnlyOutsideTheSpan:
    """closure_test reduces each bracket as its normal forms and builds the
    tree of a component's canonical form only for a bracket outside the span."""

    @pytest.fixture
    def trees(self, monkeypatch):
        built, tree = [], ex._expr_from_nf
        monkeypatch.setattr(ex, "_expr_from_nf", lambda nf: built.append(nf) or tree(nf))
        return built

    def test_closed_algebra_builds_none(self, trees):
        fields = _gl_scaled(3, seed=5)
        trees.clear()  # scale builds the fields' trees
        report = closure_test(fields)
        assert report.closed and report.dimension == 9
        assert trees == []

    def test_open_algebra_builds_its_witness(self, trees):
        doc = json.loads((PROBLEMS / "incomplete_pair.json").read_text())
        report = closure_test([field(LINE, *c) for c in doc["fields"]])
        assert not report.closed
        assert [str(ex._tree_of(nf)) for nf in trees] == [str(report.witness[2].components[0])]

    def test_completion_builds_each_adjoined_field(self, trees):
        with pytest.raises(ClosureCapError, match="cap 6"):
            closure_test([field(LINE, "1"), field(LINE, "x^3")], complete=True, cap=6)
        # the cap stops at six fields: four brackets adjoined, the fifth not built
        assert len(trees) == 4


class TestZeroAlgebra:
    def test_zero_fields_span_dimension_zero(self):
        fields = [field(PLANE, "0", "0"), field(PLANE, "x - x", "0")]
        report = closure_test(fields)
        assert report.closed and report.dimension == 0 and report.basis == []
        assert report.constants == {} and report.jacobi_residual() == 0
        assert closure_test(fields, complete=True).completion_trace == [0]
        checks, extra = algebra.closure_checks(fields)
        assert [(c.name, c.passed, c.detail) for c in checks] == [
            ("closed", True, "dimension 0"), ("jacobi_residual_zero", True, "")]
        assert extra["closure"]["basis"] == []


class TestMinimalM:
    def test_riccati_needs_three(self):
        assert minimal_m(riccati(), seed=0).m == 3

    def test_euclidean_needs_two(self):
        assert minimal_m(euclidean(), seed=0).m == 2

    def test_single_nonvanishing_field(self):
        assert minimal_m([field(LINE, "1/x^2")], seed=0).m == 1

    def test_free_translation_on_plane(self):
        assert minimal_m([field(PLANE, "1", "0")], seed=0).m == 1

    def test_seed_stability(self):
        for fields, expected in ((riccati(), 3), (euclidean(), 2), ([field(LINE, "1/x^2")], 1)):
            assert {minimal_m(fields, seed=s).m for s in range(10)} == {expected}

    def test_m_bounded_by_r(self):
        for fields in (riccati(), euclidean()):
            report = minimal_m(fields, seed=1)
            assert report.m <= report.r

    def test_rank_profile_shape(self):
        report = minimal_m(riccati(), seed=2)
        assert [v.k for v in report.rank_profile] == [1, 2, 3]
        assert [v.rank for v in report.rank_profile] == [1, 2, 3]
        # every tuple is drawn below m; the first full-rank tuple ends the search
        assert [v.tuples for v in report.rank_profile] == [3, 3, 1]
        assert report.exact

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_gl_ranks_one_tuple_per_k(self, monkeypatch, n):
        fields = _gl_scaled(n, seed=n)
        rank, points = algebra.evaluation_rank, []
        monkeypatch.setattr(algebra, "evaluation_rank",
                            lambda fs, ps: points.append(len(ps)) or rank(fs, ps))
        report = minimal_m(fields, seed=n)
        # rank k n is the most k points can give: the first tuple to reach it
        # ends the ranking at k, and the other two are drawn but not ranked
        assert points == list(range(1, n + 1))
        assert report.m == n and report.exact
        assert [(v.k, v.rank, v.tuples) for v in report.rank_profile] == [
            (k, k * n, 3 if k < n else 1) for k in range(1, n + 1)]
        # ranking every tuple draws the same points to the same report
        generic = algebra._generic_rank
        monkeypatch.setattr(algebra, "_generic_rank",
                            lambda rank_at, size, target, rng, ceiling: generic(
                                rank_at, size, target, rng))
        points.clear()
        assert minimal_m(fields, seed=n) == report
        assert len(points) == 3 * n - 2

    def test_a_sampled_k_below_m_is_not_exact(self):
        # at k = 1, 1 * 2 >= r = 2: the shape cannot bound the rank, so m > 1
        # rests on the sampled tuples although every rank is taken over Q
        report = minimal_m([field(PLANE, "1", "0"), field(PLANE, "x", "0")], seed=0)
        assert report.m == 2 and [v.rank for v in report.rank_profile] == [1, 2]
        assert not report.exact

    def test_dependent_input_rejected(self):
        with pytest.raises(ValueError):
            minimal_m([field(LINE, "1"), field(LINE, "2")])

    def test_prune_independent(self):
        kept = prune_independent([field(LINE, "1"), field(LINE, "2"), field(LINE, "x")])
        assert len(kept) == 2


# ---------------------------------------------------------------------------
# The dense solve the echelon form replaced, kept as an oracle: every field's
# denominators are cleared again and the whole basis re-eliminated per target.
# ---------------------------------------------------------------------------


def _reference_solve(rows, rhs):
    m = [row[:] + [b] for row, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append((r, c))
        r += 1
        if r == len(m):
            break
    for i in range(r, len(m)):
        if m[i][ncols] != 0:
            return None
    solution = [Fraction(0)] * ncols
    for row, col in pivots:
        solution[col] = m[row][ncols]
    return solution


def _reference_rows(target, basis):
    rows, rhs = [], []
    for i in range(target.chart.dim):
        nfs = [ex._nf_of(e) for e in [f.components[i] for f in basis] + [target.components[i]]]
        # the unreduced integer pairs, over Q
        pairs = [[{m: Fraction(c) for m, c in p.items()} for p in nf.num_den] for nf in nfs]
        common = {m: Fraction(c) for m, c in ex._PONE.items()}
        for _, den in pairs:
            common = ex._pmul(ex._pdiv_exact(common, monic_gcd(common, den)), den)
        cleared = [ex._pmul(num, ex._pdiv_exact(common, den)) for num, den in pairs]
        for mono in sorted({m for p in cleared for m in p}):
            rows.append([p.get(mono, Fraction(0)) for p in cleared[:-1]])
            rhs.append(cleared[-1].get(mono, Fraction(0)))
    return rows, rhs


def _reference_span(target, basis):
    """Coefficients of target in basis (0 on fields dependent on earlier ones), or None."""
    return _reference_solve(*_reference_rows(target, list(basis)))


def _reference_closure(fields, complete=False, cap=32):
    basis = []
    for f in fields:
        if not f.is_zero_field() and not (basis and _reference_span(f, basis) is not None):
            basis.append(f)
    trace = [len(basis)] if complete else None
    constants = {}
    pending = [(a, b) for a in range(len(basis)) for b in range(a + 1, len(basis))]
    while pending:
        a, b = pending.pop(0)
        bracket = lie_bracket(basis[a], basis[b])
        solution = _reference_span(bracket, basis)
        if solution is not None:
            constants[(a, b)] = tuple(solution)
            continue
        if not complete:
            return LieClosureReport(basis, constants, False, (a, b, bracket), trace)
        if len(basis) >= cap:
            raise ClosureCapError(f"no finite closure found up to dimension cap {cap}")
        basis.append(bracket)
        trace.append(len(basis))
        pending = pending + [(i, len(basis) - 1) for i in range(len(basis) - 1)]
        pending.insert(0, (a, b))
    constants = {k: v + (Fraction(0),) * (len(basis) - len(v)) for k, v in constants.items()}
    return LieClosureReport(basis, constants, True, completion_trace=trace)


def _c(report, a, b):
    """The constants of [X_a, X_b], for any a and b, by antisymmetry."""
    if a == b:
        return (Fraction(0),) * report.dimension
    return report.constants[(a, b)] if a < b else tuple(-v for v in report.constants[(b, a)])


def _reference_jacobi(report):
    r = report.dimension
    worst = Fraction(0)
    for a in range(r):
        for b in range(r):
            for g in range(r):
                for nu in range(r):
                    total = Fraction(0)
                    for mu in range(r):
                        total += _c(report, a, b)[mu] * _c(report, mu, g)[nu]
                        total += _c(report, b, g)[mu] * _c(report, mu, a)[nu]
                        total += _c(report, g, a)[mu] * _c(report, mu, b)[nu]
                    worst = max(worst, abs(total))
    return worst


def _same_closure(fields, complete=False, cap=32):
    """closure_test and the reference agree on every reported field, or both hit the cap."""
    try:
        want = _reference_closure(fields, complete, cap)
    except ClosureCapError as exc:
        with pytest.raises(ClosureCapError, match=str(exc)):
            closure_test(fields, complete, cap)
        return None
    got = closure_test(fields, complete, cap)
    assert got.to_json_dict() == want.to_json_dict()
    assert got.constants == want.constants
    return got


def _random_component(rng, with_atom):
    atoms = ["x", "y", "sin(x)"] if with_atom else ["x", "y"]
    terms = [
        f"({Fraction(rng.randint(-4, 4), rng.randint(1, 3))})"
        + "".join(f"*{a}^{rng.randint(1, 2)}" for a in rng.sample(atoms, rng.randint(0, 2)))
        for _ in range(rng.randint(0, 3))
    ]
    den = rng.choice(["1", "1", "1", "x", "x^2", "y + 1", "x*y - 2"])
    return f"({' + '.join(terms) or '0'})/({den})"


def _random_fields(rng, count, with_atom):
    return [
        field(PLANE, _random_component(rng, with_atom), _random_component(rng, with_atom))
        for _ in range(count)
    ]


def _combination(rng, fields):
    out = None
    for f in fields:
        piece = f.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
        out = piece if out is None else out + piece
    return out


def _gl_scaled(n, seed):
    rng = random.Random(seed)
    chart = Chart(tuple(f"x{i + 1}" for i in range(n)))
    return [f.scale(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 5)))
            for f in gl_fields(chart)]


def _closure_problems():
    """Problem files whose fields or PDE decomposition basis go through closure_test."""
    docs = {p: json.loads(p.read_text()) for p in sorted(PROBLEMS.glob("*.json"))}
    return [p for p, d in docs.items() if "fields" in d or "decomposition" in d.get("pde", {})]


class TestEchelonAgainstDenseSolve:
    @pytest.mark.parametrize("seed", range(40))
    def test_span_coefficients_match(self, seed):
        rng = random.Random(seed)
        basis = _random_fields(rng, rng.randint(1, 4), with_atom=seed % 2 == 1)
        if seed % 3 == 0:  # a dependent field: its coefficient stays 0
            basis.insert(rng.randint(1, len(basis)), _combination(rng, basis))
        for target in (_combination(rng, basis), _random_fields(rng, 1, seed % 2 == 1)[0]):
            got = span_coefficients(target, basis)
            want = _reference_span(target, basis)
            assert got.in_span == (want is not None)
            if want is not None:
                assert got.coefficients == tuple(want)
            else:
                # the residual is target - sum c_a X_a for constants c
                assert not got.residual.is_zero_field()
                assert span_coefficients(target - got.residual, basis).in_span

    def test_residual_is_the_echelon_remainder(self):
        result = span_coefficients(field(LINE, "1 + x^2"), [field(LINE, "1")])
        assert not result.in_span
        assert str(result.residual.components[0]) == "x^2"

    def test_target_denominator_outside_the_basis(self):
        result = span_coefficients(field(LINE, "1/x + 2"), [field(LINE, "x"), field(LINE, "1")])
        assert not result.in_span
        assert str(result.residual.components[0]) == "1/x"

    def test_independence_checks(self):
        x, y = field(PLANE, "x", "0"), field(PLANE, "y/(x + 1)", "sin(y)")
        LieSystem([x, y], [CoefficientCurve.from_string("1")] * 2)
        with pytest.raises(ValueError, match="linearly independent over R"):
            LieSystem([x, y, x.scale(2) + y], [CoefficientCurve.from_string("1")] * 3)
        with pytest.raises(ValueError, match="prune_independent first"):
            minimal_m([x, y, x.scale(2) + y])
        with pytest.raises(ChartMismatchError, match="shared chart"):
            minimal_m([x, field(LINE, "1")])

    def test_chart_mismatch_names_both_charts(self):
        with pytest.raises(ChartMismatchError, match=r"charts \(x, y\) and \(x\) need a shared chart"):
            closure_test([field(PLANE, "x", "0"), field(LINE, "1")])


def _rational(bits):
    return st.builds(Fraction, st.integers(-(2 ** bits), 2 ** bits), st.integers(1, 2 ** bits))


@st.composite
def _exact_matrices(draw):
    """Rows of Fractions and ints: dense, or a product of factors of low
    rank; then with zero rows and repeated rows put in."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    entry = st.one_of(st.just(Fraction(0)), st.integers(-3, 3), _rational(4), _rational(90))
    if draw(st.booleans()):
        k = draw(st.integers(0, 3))
        a = [[draw(entry) for _ in range(k)] for _ in range(rows)]
        b = [[draw(entry) for _ in range(cols)] for _ in range(k)]
        mat = [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(cols)]
               for i in range(rows)]
    else:
        mat = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    for _ in range(draw(st.integers(0, 2))):
        extra = [Fraction(0)] * cols if not mat or draw(st.booleans()) else list(
            draw(st.sampled_from(mat)))
        mat.insert(draw(st.integers(0, len(mat))), extra)
    return mat, cols


class TestRankOverQ:
    @settings(max_examples=200, deadline=None)
    @given(_exact_matrices())
    def test_matches_sympy(self, matrix):
        mat, cols = matrix
        want = sympy.Matrix(len(mat), cols, [sympy.Rational(v.numerator, v.denominator)
                                             for row in mat for v in row]).rank()
        assert algebra._rank_over_q(mat) == want


class TestEchelonOverZ:
    def test_rows_hold_ints_after_a_widened_denominator(self):
        chart = Chart(("x1", "x2", "x3", "x4"))
        widening = [field(chart, "0", "x1^2", "0", "0"), field(chart, "x1", "x2/(x1 + 1)", "0", "0")]
        span = algebra._Echelon(_gl_scaled(4, seed=4) + widening)
        assert len(span.fields) == 18 and not ex._is_const_poly(span._dens[1])
        assert all(type(v) is int for row in span._rows.values() for v in row.values())
        in_span, coefficients = span.coefficients(span.nfs(widening[1].scale(Fraction(-7, 3))))
        assert in_span and coefficients == [0] * 17 + [Fraction(-7, 3)]

    def test_closure_makes_a_fraction_only_for_a_returned_constant(self, monkeypatch):
        fields = gl_fields(Chart(("x1", "x2", "x3", "x4")))
        made, new = [], Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **k: made.append(1) or new(cls, *a, **k))
        report = closure_test(fields)
        monkeypatch.undo()
        nonzero = sum(1 for cs in report.constants.values() for v in cs if v)
        assert report.closed and nonzero == 60
        assert len(made) <= nonzero + 4


class TestClosureAgainstDenseSolve:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_gl(self, n):
        report = _same_closure(_gl_scaled(n, seed=n))
        assert report.closed and report.dimension == n * n

    @pytest.mark.parametrize("path", _closure_problems(), ids=lambda p: p.stem)
    def test_problem_files(self, path):
        doc = json.loads(path.read_text())
        if "pde" in doc:
            p = doc["pde"]
            fields = list(PdeSystem.from_strings(
                int(p["s"]), p["chart"], p["fields"], p["decomposition"]).decomposition.basis)
        else:
            fields = [field(Chart(tuple(doc["chart"])), *comps) for comps in doc["fields"]]
        _same_closure(fields)
        _same_closure(fields, complete=True)

    def test_catalog(self, monkeypatch):
        real, seen = algebra.closure_test, []

        def checked(fields, *args, **kwargs):
            seen.append(len(fields))
            assert _same_closure(list(fields), *args, **kwargs) is not None
            return real(fields, *args, **kwargs)

        monkeypatch.setattr(algebra, "closure_test", checked)
        for entry in catalog.ENTRIES.values():
            entry.run()
        assert len(seen) >= 3

    @pytest.mark.parametrize("fields", [
        ["1", "1/x^2"],  # 1/x^n for ever: both hit the cap
        ["x^2", "1/x"],
        ["1/x", "x^3"],
    ])
    def test_completion_with_rational_fields(self, fields):
        _same_closure([field(LINE, c) for c in fields], complete=True, cap=6)

    @pytest.mark.parametrize("fields", [
        [("0", "x^2"), ("x", "y/(x + 1)")],  # the bracket's denominator is new to D_2
        [("x^2", "x"), ("x", "1/x")],
    ])
    def test_completion_widening_a_denominator(self, fields):
        report = _same_closure([field(PLANE, *c) for c in fields], complete=True)
        assert report.closed and report.completion_trace == [2, 3]

    @pytest.mark.parametrize("seed", range(12))
    def test_random_rational_completion(self, seed):
        rng = random.Random(100 + seed)
        _same_closure(_random_fields(rng, 2, with_atom=False), complete=True, cap=5)


class TestJacobiResidual:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_full_sum(self, seed):
        rng = random.Random(seed)
        r = rng.randint(1, 5)
        constants = {
            (a, b): tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) * (rng.random() < 0.6)
                          for _ in range(r))
            for a in range(r) for b in range(a + 1, r)
        }
        report = LieClosureReport([field(LINE, "1")] * r, constants, closed=True)
        got = report.jacobi_residual()
        assert type(got) is Fraction and got == _reference_jacobi(report)

    def test_gl3_is_zero(self):
        assert closure_test(_gl_scaled(3, seed=0)).jacobi_residual() == Fraction(0)


def _reference_minimal_m(fields, seed=0, samples=24):
    """m by the float vote minimal_m used before exact ranks: at each k, 24
    random rational k-tuples without near-coincident slots, each ranked by
    singular values of the float evaluations; stop at the first k where at
    least 0.9 of them reach rank r."""
    r, n = len(fields), fields[0].chart.dim
    rng = random.Random(seed)
    for k in range(1, r + 1):
        ranks = []
        while len(ranks) < samples:
            points = [[ex.random_rational(rng) for _ in range(n)] for _ in range(k)]
            if any(max(abs(float(a - b)) for a, b in zip(p, q)) < 1e-6
                   for p, q in itertools.combinations(points, 2)):
                continue
            rows = [[float(f.evaluate(p)[i]) for f in fields] for p in points for i in range(n)]
            ranks.append(algebra.matrix_rank(np.array(rows)))
        if sum(rank == r for rank in ranks) >= 0.9 * samples:
            return k
    raise RankTestError("no k <= r reached full rank")


def _same_m(fields, seed=0):
    got = minimal_m(fields, seed=seed)
    assert got.m == _reference_minimal_m(fields, seed)
    return got


class TestMinimalMAgainstVote:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_gl(self, n):
        for seed in range(10):
            assert _same_m(gl_fields(Chart(tuple(f"x{i + 1}" for i in range(n)))), seed).m == n

    def test_catalog(self, monkeypatch):
        seen = []

        def checked(fields, seed=0):
            seen.append(len(fields))
            return _same_m(list(fields), seed)

        monkeypatch.setattr(algebra, "minimal_m", checked)
        for entry in catalog.ENTRIES.values():
            entry.run()
        assert len(seen) >= 6

    @pytest.mark.parametrize("seed", range(32))
    def test_random_polynomial_fields(self, seed):
        rng = random.Random(300 + seed)
        chart = rng.choice([LINE, PLANE])
        fields = prune_independent([
            field(chart, *(str(random_polynomial(rng, chart.names, max_degree=3))
                           for _ in chart.names))
            for _ in range(rng.randint(1, 4))])
        if fields:
            _same_m(fields, seed)
