import time

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from liesys import expr as ex
from liesys.errors import ChartMismatchError
from liesys.expr import Chart, Const, canonically_equal, is_zero, parse
from liesys.geometry import (
    ProductChart,
    VectorField,
    diagonal_prolongation,
    is_diagonal_prolongation,
    lie_bracket,
)

from conftest import random_polynomial

LINE = Chart(("x",))
PLANE = Chart(("x", "y"))


def field(chart, *components):
    return VectorField.from_strings(chart, components)


def fields_equal(a: VectorField, b: VectorField) -> bool:
    return a.chart.names == b.chart.names and all(
        canonically_equal(p, q) for p, q in zip(a.components, b.components)
    )


def zero_field(f: VectorField) -> bool:
    return all(is_zero(c).verdict == "zero" for c in f.components)


def random_field(rng, chart=PLANE):
    return VectorField(
        chart, tuple(random_polynomial(rng, chart.names) for _ in chart.names)
    )


class TestLieBracket:
    def test_translation_and_scaling(self):
        assert fields_equal(
            lie_bracket(field(LINE, "1"), field(LINE, "x")), field(LINE, "1")
        )

    def test_bracket_with_itself_vanishes(self, rng):
        for _ in range(10):
            x = random_field(rng)
            assert zero_field(lie_bracket(x, x))

    def test_rotation_bracket(self):
        got = lie_bracket(field(PLANE, "1", "0"), field(PLANE, "y", "-x"))
        assert fields_equal(got, field(PLANE, "0", "-1"))

    @pytest.mark.parametrize("a, b", [("x", "2*x"), ("sin(x)", "2*sin(x)")])
    def test_cancelling_component_is_an_exact_zero(self, monkeypatch, a, b):
        canonical = ex._NF.canonical

        def checked(nf):
            assert nf.num_den[0], "canonical form of a zero"
            return canonical(nf)

        monkeypatch.setattr(ex._NF, "canonical", checked)
        (c,) = lie_bracket(field(LINE, a), field(LINE, b)).components
        assert isinstance(c, Const) and c.value == 0
        decision = is_zero(c)
        assert decision.verdict == "zero" and decision.exact

    def test_chart_mismatch(self):
        with pytest.raises(ChartMismatchError):
            lie_bracket(field(LINE, "x"), field(PLANE, "x", "y"))

    def test_matches_sympy_oracle(self, rng):
        x, y = sympy.symbols("x y")
        for _ in range(15):
            a, b = random_field(rng), random_field(rng)
            got = lie_bracket(a, b)
            av = [sympy.sympify(str(c).replace("^", "**")) for c in a.components]
            bv = [sympy.sympify(str(c).replace("^", "**")) for c in b.components]
            for i in range(2):
                oracle = sum(
                    av[j] * sympy.diff(bv[i], v) - bv[j] * sympy.diff(av[i], v)
                    for j, v in enumerate((x, y))
                )
                mine = sympy.sympify(str(got.components[i]).replace("^", "**"))
                assert sympy.simplify(mine - oracle) == 0

    def test_antisymmetry_and_jacobi(self, rng):
        for _ in range(25):
            a, b, c = (random_field(rng) for _ in range(3))
            assert zero_field(lie_bracket(a, b) + lie_bracket(b, a))
            jacobi = (
                lie_bracket(lie_bracket(a, b), c)
                + lie_bracket(lie_bracket(b, c), a)
                + lie_bracket(lie_bracket(c, a), b)
            )
            assert zero_field(jacobi)


# rational plane components: a polynomial of up to three terms over a
# denominator that is constant or not
_POLYNOMIALS = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(1, 3), st.integers(0, 2), st.integers(0, 2)),
    max_size=3,
).map(lambda terms: " + ".join(f"({a}/{b})*x^{i}*y^{j}" for a, b, i, j in terms) or "0")
_COMPONENTS = st.tuples(
    _POLYNOMIALS, st.sampled_from(["1", "3", "x", "y^2 + 1", "x*y - 2", "(x - y)^2", "x^2*y"])
).map(lambda t: f"({t[0]})/({t[1]})")
_PLANE_FIELDS = st.tuples(_COMPONENTS, _COMPONENTS).map(lambda c: field(PLANE, *c))


class TestBracketFromPartials:
    """lie_bracket reads partials each field derives once; the derivations
    X(Y^i) - Y(X^i) of apply_to are the oracle."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(x=_PLANE_FIELDS, y=_PLANE_FIELDS)
    def test_matches_two_derivations(self, x, y):
        got = lie_bracket(x, y)
        for i in range(2):
            want = ex.Add((x.apply_to(y.components[i]), -y.apply_to(x.components[i])))
            assert canonically_equal(got.components[i], want)

    @pytest.mark.parametrize("atom", ["sin(x)", "exp(x)"])
    def test_function_atom_marks_every_component(self, atom):
        # [X, Y] = (0, y^2) holds no function atom, and X(Y^i) - Y(X^i) did
        x, y = field(PLANE, atom, "y"), field(PLANE, "0", "y^2")
        for a, b in ((x, y), (y, x)):
            comps = lie_bracket(a, b).components
            assert [ex._nf_of(c).trans for c in comps] == [True, True]
            assert is_zero(comps[0]).exact and not is_zero(comps[1]).exact
        assert not any(ex._nf_of(c).trans
                       for c in lie_bracket(field(PLANE, "x", "y"), y).components)

    def test_fields_derive_once(self, monkeypatch):
        x, y, z = field(PLANE, "x*y", "1"), field(PLANE, "y^2", "x"), field(PLANE, "0", "x^2")
        partials, calls = ex._nf_partials, []
        monkeypatch.setattr(ex, "_nf_partials",
                            lambda nf, names: calls.append(1) or partials(nf, names))
        for a, b in ((x, y), (y, z), (z, x), (x, y)):
            lie_bracket(a, b)
        # one for all the partials of each nonconstant component: x*y, y^2, x
        # and x^2, and none for the constants 1 and 0
        assert len(calls) == 4


def _dense_bracket_nfs(x, y):
    """The bracket loop with no shortcut for a component that no partial
    reaches: every component goes through expr._nf_dot."""
    names, jx, jy = x.chart.names, x._jet, y._jet
    trans = any(nf.trans for nf, _ in jx + jy)
    nfs = []
    for (_, dx), (_, dy) in zip(jx, jy):
        terms = [(1, xv, dy[v]) for v, (xv, _) in zip(names, jx) if v in dy]
        terms += [(-1, yv, dx[v]) for v, (yv, _) in zip(names, jy) if v in dx]
        nfs.append(ex._nf_dot(terms, trans))
    return nfs


# plane components with constants and a sin atom next to the rational ones
_MIXED_COMPONENTS = st.one_of(
    _COMPONENTS,
    st.sampled_from(["0", "2", "-1/3", "sin(x)", "sin(1)", "y*sin(x)/(x^2 + 1)"]),
    st.tuples(_COMPONENTS, st.sampled_from(["sin(x)", "sin(y)^2"])).map(lambda t: f"{t[0]}*{t[1]}"),
)
_MIXED_FIELDS = st.tuples(_MIXED_COMPONENTS, _MIXED_COMPONENTS).map(lambda c: field(PLANE, *c))


class TestBracketAgainstDenseLoop:
    """A component where neither field has a nonzero partial is zero at
    once; the loop that multiplies out every component is the oracle."""

    @staticmethod
    def _same(x, y):
        got, want = lie_bracket(x, y), [ex._expr_from_nf(nf) for nf in _dense_bracket_nfs(x, y)]
        for g, w in zip(got.components, want):
            assert str(g) == str(w)
            assert ex._nf_of(g).num_den == ex._nf_of(w).num_den
            assert ex._nf_of(g).trans == ex._nf_of(w).trans
        return got

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(x=_MIXED_FIELDS, y=_MIXED_FIELDS)
    def test_matches_the_dense_loop(self, x, y):
        self._same(x, y)

    def test_zero_component_keeps_the_function_atom_mark(self):
        # component 0 pairs two constants; sin(x) sits in component 1
        comps = self._same(field(PLANE, "1", "sin(x)"), field(PLANE, "2", "y")).components
        assert str(comps[0]) == "0" and ex._nf_of(comps[0]).trans
        decision = is_zero(ex.Add((comps[0], ex.Var("y"))))
        assert decision.verdict == "nonzero" and not decision.exact


class TestDiagonalProlongation:
    def test_two_copies_of_translation(self):
        got = diagonal_prolongation(field(LINE, "1"), 2)
        assert got.chart.names == ("x_0", "x_1")
        assert [str(c) for c in got.components] == ["1", "1"]

    def test_three_copies_of_translation(self):
        got = diagonal_prolongation(field(LINE, "1"), 3)
        assert got.chart.names == ("x_0", "x_1", "x_2")
        assert [str(c) for c in got.components] == ["1", "1", "1"]

    def test_zero_field(self):
        assert zero_field(diagonal_prolongation(field(PLANE, "0", "0"), 3))

    def test_many_slots_cost_linear_time(self):
        # the chart check builds the chart's name set once per field; a set
        # per component made it quadratic in the slots, over ten times this bound
        started = time.perf_counter()
        got = diagonal_prolongation(field(LINE, "x^2"), 20_000)
        assert time.perf_counter() - started < 2.0
        assert got.chart.dim == 20_000 and str(got.components[-1]) == "x_19999^2"

    def test_commutes_with_bracket(self, rng):
        for _ in range(15):
            a, b = random_field(rng), random_field(rng)
            copies = rng.choice([2, 3, 4])
            lhs = diagonal_prolongation(lie_bracket(a, b), copies)
            rhs = lie_bracket(
                diagonal_prolongation(a, copies), diagonal_prolongation(b, copies)
            )
            assert fields_equal(lhs, rhs)


class TestIsDiagonalProlongation:
    def test_functional_combination_is_still_a_prolongation(self):
        # x*y * (d/dx + d/dy) - (x+y) * (x d/dx + y d/dy) collapses to a
        # prolongation of -x^2 d/dx even though the coefficients are not
        # constant (the projections fail to be independent here)
        x1 = diagonal_prolongation(field(LINE, "1"), 2)
        x2 = diagonal_prolongation(field(LINE, "x"), 2)
        names = x1.chart.names
        combo = x1.scale(parse("x_0*x_1", names)) + x2.scale(parse("-(x_0 + x_1)", names))
        assert [str(c) for c in combo.components] == ["-x_0^2", "-x_1^2"]
        decision = is_diagonal_prolongation(combo)
        assert decision.is_prolongation
        assert fields_equal(decision.base, field(LINE, "-x^2"))

    def test_cross_slot_dependence_witnessed(self):
        chart = ProductChart.of(LINE, 2)
        bad = VectorField(chart, (parse("x_1", chart.names), parse("0", chart.names)))
        decision = is_diagonal_prolongation(bad)
        assert not decision.is_prolongation
        assert decision.witness_slots == (0, 1)

    def test_mismatched_slot_functions_witnessed(self):
        chart = ProductChart.of(LINE, 2)
        bad = VectorField(chart, (parse("x_0", chart.names), parse("x_1^2", chart.names)))
        decision = is_diagonal_prolongation(bad)
        assert not decision.is_prolongation
        assert decision.witness_slots == (0, 1)

    def test_round_trip(self, rng):
        for _ in range(10):
            f = random_field(rng)
            copies = rng.choice([2, 3, 4])
            decision = is_diagonal_prolongation(diagonal_prolongation(f, copies))
            assert decision.is_prolongation
            assert fields_equal(decision.base, f)

    def test_requires_product_chart(self):
        with pytest.raises(ChartMismatchError):
            is_diagonal_prolongation(field(PLANE, "x", "y"))
