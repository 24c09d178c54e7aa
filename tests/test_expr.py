import functools
import itertools
import math
import random
import re
import sys
import threading
import time
import unittest.mock
from fractions import Fraction

import pytest
import sympy
import sympy.polys.orderings
import sympy.polys.rings
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liesys import expr as ex
from liesys.errors import EvaluationError, LiesysError, ParseError
from liesys.expr import (
    FUNCTIONS,
    Add,
    Call,
    Chart,
    Const,
    Div,
    Mul,
    Pow,
    Var,
    canonical_expr,
    canonically_equal,
    compile_vector,
    differentiate,
    evaluate,
    free_variables,
    is_zero,
    parse,
    python_source,
    substitute,
)
from liesys.expr import _divides, _padd, _pdiv_exact, _pmul
from liesys.geometry import VectorField, lie_bracket

from conftest import VARS, compile_scalar, monic, monic_gcd, random_polynomial, random_tree


def equivalent(a, b) -> bool:
    return canonically_equal(a, b)


def _poly(text, names=VARS):
    """The polynomial text as expr folds it: its normal form's numerator."""
    return ex._nf_of(parse(text, names)).num_den[0]


@functools.lru_cache(maxsize=None)
def _mono(text, names=VARS):
    """The one monomial of a term such as "x^2*sin(y)" or "1"."""
    (m,) = _poly(text, names)
    return m


ONE = _mono("1")


class TestParse:
    def test_power_literal(self):
        e = parse("x^2", ["x"])
        assert isinstance(e, Pow)
        assert str(canonical_expr(e)) == "x^2"

    def test_unknown_identifier_named(self):
        with pytest.raises(ParseError) as err:
            parse("y*dx_coeff", ["y"])
        assert "dx_coeff" in str(err.value)

    def test_collection_forced_by_canonical_form(self):
        assert equivalent(parse("1 + x + x", ["x"]), parse("1 + 2*x", ["x"]))

    def test_syntax_error_with_position(self):
        with pytest.raises(ParseError) as err:
            parse("x + * 2", ["x"])
        assert err.value.position == 4

    def test_rational_literals(self):
        e = parse("3/4 + 1/4", ["x"])
        assert evaluate(e, {}) == Fraction(1)

    def test_precedence_and_unary_minus(self):
        assert evaluate(parse("-2^2", ["x"]), {}) == Fraction(-4)
        assert evaluate(parse("2 - 3*4", ["x"]), {}) == Fraction(-10)
        assert evaluate(parse("12/3/2", ["x"]), {}) == Fraction(2)

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse("x^y", ["x", "y"])
        with pytest.raises(ParseError):
            parse("x^(1/2)", ["x"])

    def test_negative_exponent(self):
        assert equivalent(parse("x^-2", ["x"]), parse("1/x^2", ["x"]))

    def test_function_call(self):
        e = parse("sin(x)^2", ["x"])
        assert abs(evaluate(e, {"x": 0.5}) - math.sin(0.5) ** 2) < 1e-15

    def test_function_name_needs_call(self):
        with pytest.raises(ParseError):
            parse("sin + 1", ["x"])

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("x y", ["x", "y"])

    def test_roundtrip_random_trees(self):
        rng = random.Random(7)
        for i in range(1000):
            e = random_tree(rng, depth=3, transcendental=(i % 4 == 0))
            back = parse(str(e), ("x", "y", "z"))
            assert equivalent(back, e), f"round trip failed for {e}"


class TestChart:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Chart(("x", "x"))

    def test_reserved_names_rejected(self):
        with pytest.raises(ValueError):
            Chart(("sin",))

    def test_dimension(self):
        assert Chart(("a", "b", "c")).dim == 3


class TestDifferentiate:
    def test_power_rule(self):
        assert equivalent(differentiate(parse("x^2", ["x"]), "x"), parse("2*x", ["x"]))

    def test_other_variable(self):
        assert equivalent(differentiate(parse("x^2", ["x", "y"]), "y"), Const(0))

    def test_quotient_expression_against_oracle(self):
        # frozen from an independent computer-algebra run: 2*x*y - 1/y
        names = ["x", "y"]
        mine = differentiate(parse("x^2*y - x/y", names), "x")
        assert equivalent(mine, parse("2*x*y - 1/y", names))
        x, y = sympy.symbols("x y")
        oracle = sympy.diff(x**2 * y - x / y, x)
        assert sympy.simplify(oracle - sympy.sympify("2*x*y - 1/y")) == 0

    def test_matches_sympy_on_random_trees(self, rng):
        syms = sympy.symbols("x y z")
        for _ in range(40):
            e = random_tree(rng, depth=3)
            mine = differentiate(e, "x")
            oracle = sympy.diff(sympy.sympify(str(e).replace("^", "**")), syms[0])
            diff = sympy.simplify(sympy.sympify(str(mine).replace("^", "**")) - oracle)
            assert diff == 0, f"derivative mismatch for {e}"

    def test_linearity(self, rng):
        for _ in range(30):
            e1, e2 = random_tree(rng), random_tree(rng)
            lhs = differentiate(e1 + e2, "x")
            rhs = differentiate(e1, "x") + differentiate(e2, "x")
            assert equivalent(lhs, rhs)

    def test_leibniz(self, rng):
        for _ in range(30):
            e1, e2 = random_tree(rng), random_tree(rng)
            lhs = differentiate(Mul((e1, e2)), "x")
            rhs = Mul((differentiate(e1, "x"), e2)) + Mul((e1, differentiate(e2, "x")))
            assert equivalent(lhs, rhs)

    def test_transcendental_chain_rule(self):
        e = parse("sin(x^2)", ["x"])
        assert equivalent(differentiate(e, "x"), parse("2*x*cos(x^2)", ["x"]))
        assert equivalent(differentiate(parse("ln(x)", ["x"]), "x"), parse("1/x", ["x"]))
        # the tree reference reads the same table of rules, so each is pinned here
        assert equivalent(differentiate(parse("cos(x)", ["x"]), "x"), parse("-sin(x)", ["x"]))
        assert equivalent(differentiate(parse("exp(3*x)", ["x"]), "x"), parse("3*exp(3*x)", ["x"]))

    @pytest.mark.parametrize("const, rate, trans", [
        ("3/2", "sin(x)", True), ("3/2", "x^2/3", False), ("sin(x) - sin(x) + 2", "x^2/3", True)])
    def test_derivation_of_a_constant_is_zero_without_a_partial(self, monkeypatch, const, rate,
                                                                  trans):
        def refuse(*args):
            raise AssertionError("_pdiff of a constant")

        monkeypatch.setattr(ex, "_pdiff", refuse)
        got = ex._nf_derive(ex._nf_of(parse(const, ["x"])), {"x": ex._nf_of(parse(rate, ["x"]))})
        # trans as for any derivation: the constant's or a rate's function atom
        assert got.num_den == ({}, _poly("1")) and got.trans is trans


_LEAVES = st.one_of(st.builds(lambda p, q: Const(Fraction(p, q)), st.integers(-6, 6), st.integers(1, 4)),
                   st.sampled_from(VARS).map(Var),
                   st.tuples(st.sampled_from(VARS).map(Var), st.integers(2, 5)).map(lambda t: Pow(*t)))
_POLYS = st.recursive(_LEAVES, lambda c: st.one_of(
    st.lists(c, min_size=2, max_size=3).map(lambda ts: Add(tuple(ts))),
    st.lists(c, min_size=2, max_size=3).map(lambda fs: Mul(tuple(fs))),
    st.tuples(c, st.integers(2, 3)).map(lambda t: Pow(*t))), max_leaves=6)
_NONCONSTANT = st.sampled_from(VARS).map(lambda v: Add((Var(v), Const(2))))
# over q^2 * r, whose derivative shares the factor q; times and over the same
# variable, an unreduced pair whose partial by it can be zero
_RATIONALS = st.one_of(
    st.tuples(_POLYS, _NONCONSTANT, _POLYS).map(
        lambda t: Div(t[0], Mul((Pow(t[1], 2), Add((Pow(t[2], 2), Const(1))))))),
    st.tuples(_POLYS, _POLYS, st.sampled_from(VARS).map(Var)).map(
        lambda t: Div(Mul((t[0], t[2])), Mul((Add((Pow(t[1], 2), Const(1))), t[2])))))
_ATOMIC = st.tuples(_POLYS, st.sampled_from(FUNCTIONS[:3]), _POLYS).map(
    lambda t: Mul((t[0], Call(t[1], t[2]))))


class TestPartialsInOnePass:
    """_nf_partials reads every partial off one pass over the monomials; the
    derivation it replaces, once per variable, is the oracle, and the
    derivative tree, which shares no code with either, checks their value."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(e=st.one_of(_POLYS, _RATIONALS, _ATOMIC))
    def test_each_partial_is_the_derivation_by_its_variable(self, e):
        nf = ex._nf_of(e)
        names = (*VARS, "w")  # w, in no expression, has a zero partial
        got = ex._nf_partials(nf, names)
        for v in names:
            want = ex._nf_derive(nf, {v: ex._NF_ONE})
            assert (v in got) == bool(want.num_den[0]), f"d/d{v} {e}"
            if v in got:
                assert got[v].num_den == want.num_den and got[v].trans is want.trans, f"d/d{v} {e}"
                num, den = got[v].num_den  # a pair with no common integer content
                assert math.gcd(*num.values(), *den.values()) == 1, f"d/d{v} {e}"
            assert canonically_equal(ex._expr_from_nf(got.get(v, want)), ex._diff_tree(e, v))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(e=st.recursive(_LEAVES, lambda c: st.lists(c, min_size=1, max_size=3).map(
        lambda fs: Mul(tuple(fs))), max_leaves=8))
    def test_unit_factors_fold_as_the_general_product(self, e):
        def general(node):
            # every part multiplied through _pmul from 1, a power by _ppow
            if isinstance(node, Const):
                v = node.value
                return {ONE: v.numerator} if v else {}, {ONE: v.denominator}
            if isinstance(node, Var):
                return {_mono(node.name): 1}, {ONE: 1}
            if isinstance(node, Pow):
                return tuple(ex._ppow(part, node.exponent) for part in general(node.base))
            num, den = {ONE: 1}, {ONE: 1}
            for n, d in map(general, node.factors):
                num, den = _pmul(num, n), _pmul(den, d)
            return ex._NF(num, den, False).num_den

        nf = ex._nf_of(e)
        assert nf.num_den == general(e) and not nf.trans


def _full_rule_tree(e, v):
    """d/dv by the product and quotient rules keeping every term, zeros and
    unit factors included: the oracle for what _diff_tree leaves out."""
    if isinstance(e, (Const, Var)):
        return Const(1 if isinstance(e, Var) and e.name == v else 0)
    if isinstance(e, Add):
        return Add(tuple(_full_rule_tree(t, v) for t in e.terms))
    if isinstance(e, Mul):
        fs = e.factors
        return Add(tuple(Mul(fs[:i] + (_full_rule_tree(f, v),) + fs[i + 1:]) for i, f in enumerate(fs)))
    if isinstance(e, Pow):
        return Mul((Const(e.exponent), ex._make_pow(e.base, e.exponent - 1), _full_rule_tree(e.base, v)))
    if isinstance(e, Div):
        a, b = e.numerator, e.denominator
        top = Add((Mul((_full_rule_tree(a, v), b)), -Mul((a, _full_rule_tree(b, v)))))
        return Div(top, Pow(b, 2))
    inner = _full_rule_tree(e.arg, v)
    if e.fn == "ln":
        return Div(inner, e.arg)
    return Mul((ex._DERIVATIVES[e.fn](e.arg), inner))


def _grow(children):
    """One node over `children`: denominators and ln arguments that are not
    identically zero, so that every tree has a canonical form."""
    positive = children.map(lambda u: Add((Pow(u, 2), Const(1))))
    return st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda ts: Add(tuple(ts))),
        st.lists(children, min_size=2, max_size=3).map(lambda fs: Mul(tuple(fs))),
        st.tuples(children, children).map(lambda t: t[0] - t[1]),
        st.tuples(children, st.integers(2, 3)).map(lambda t: Pow(*t)),
        st.tuples(children, st.one_of(positive, st.sampled_from(VARS).map(Var))).map(lambda t: Div(*t)),
        st.tuples(st.sampled_from(("sin", "cos", "exp")), children).map(lambda t: Call(*t)),
        positive.map(lambda u: Call("ln", u)),
    )


_TREES = st.recursive(
    st.one_of(st.builds(lambda p, q: Const(Fraction(p, q)), st.integers(-5, 5), st.integers(1, 3)),
              st.sampled_from(VARS).map(Var)),
    _grow, max_leaves=8)


class TestDerivativeTrees:
    """_diff_tree leaves out identically zero terms and unit factors and
    nothing else, so its values equal the full rules' wherever those are
    nonzero."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(e=_TREES)
    def test_exact_and_bit_identical_to_the_full_rules(self, e):
        rng = random.Random(str(e))
        points = [[rng.uniform(-2, 2) for _ in VARS] for _ in range(4)]
        for v in VARS:
            tree = ex._diff_tree(e, v)
            assert canonically_equal(tree, differentiate(e, v)), f"d/d{v} {e}"
            got, want = compile_scalar(tree, VARS), compile_scalar(_full_rule_tree(e, v), VARS)
            for point in points:
                try:
                    value = float(want(*point))
                except (ZeroDivisionError, ValueError, OverflowError):
                    continue
                if math.isfinite(value) and value != 0:
                    assert float(got(*point)).hex() == value.hex(), f"d/d{v} {e} at {point}"

    def test_a_variable_by_itself_is_the_constant_one(self):
        one = ex._diff_tree(Var("x"), "x")
        assert type(one) is Const and one.value == 1 and compile_vector([one], ["x"])(0.5) == [1]
        zero = ex._diff_tree(Var("y"), "x")
        assert type(zero) is Const and zero.value == 0 and compile_vector([zero], ["x"])(0.5) == [0]

    def test_zero_and_unit_partials_are_left_out(self):
        names = ["x", "y"]
        got = {v: str(ex._diff_tree(parse("x*y + sin(y)/(y^2 + 1)", names), v)) for v in names}
        assert got == {"x": "y", "y": "x + (cos(y)*(y^2 + 1) - sin(y)*2*y)/((y^2 + 1)^2)"}


class TestIsZero:
    def test_polynomial_identity(self):
        assert is_zero(parse("(x+1)^2 - x^2 - 2*x - 1", ["x"])).verdict == "zero"

    def test_nonzero(self):
        d = is_zero(parse("x - y", ["x", "y"]))
        assert d.verdict == "nonzero" and d.exact

    def test_pythagorean_is_probabilistic(self):
        d = is_zero(parse("sin(x)^2 + cos(x)^2 - 1", ["x"]))
        assert d.verdict == "unknown"
        assert not d.exact
        assert d.samples >= 32

    def test_formally_zero_transcendental(self):
        assert is_zero(parse("sin(x) - sin(x)", ["x"])).verdict == "zero"

    def test_transcendental_nonzero(self):
        assert is_zero(parse("sin(x) - x", ["x"])).verdict == "nonzero"

    def test_rational_function_zero(self):
        assert is_zero(parse("(x^2 - 1)/(x - 1) - x - 1", ["x"])).verdict == "zero"

    def test_points_past_the_float_range_are_skipped(self):
        # ln(x)^2000 overflows for 0 < x < 0.24: such a point is not regular
        d = is_zero(parse("sin(x)^2 + cos(x)^2 - 1 + 0*ln(x)^2000", ["x"]))
        assert d.verdict == "unknown" and d.samples == 32


class TestCanonicalForm:
    def test_addition_commutes(self, rng):
        for _ in range(30):
            e1, e2 = random_polynomial(rng), random_polynomial(rng)
            assert equivalent(e1 + e2, e2 + e1)

    def test_multiplication_by_zero(self, rng):
        for _ in range(20):
            e = random_polynomial(rng)
            assert is_zero(Mul((e, Const(0)))).verdict == "zero"

    def test_reduction_to_coprime_quotient(self):
        e = canonical_expr(parse("(x^2*y + x*y^2)/(x*y)", ["x", "y"]))
        assert str(e) == "x + y"

    def test_nested_quotients(self):
        assert equivalent(
            parse("1/(1/x + 1/y)", ["x", "y"]), parse("x*y/(x + y)", ["x", "y"])
        )

    def test_denominator_normalization(self):
        a = parse("x/(2*y)", ["x", "y"])
        b = parse("(3*x)/(6*y)", ["x", "y"])
        assert equivalent(a, b)

    def test_zero_denominator_raises(self):
        with pytest.raises(EvaluationError):
            is_zero(parse("1/(x - x)", ["x"]))

    def test_multiply_divide_round_trip(self, rng):
        # (e*f)/f must reduce back to e identically, exercising the gcd
        from liesys.expr import Div

        from conftest import random_tree as tree

        count = 0
        while count < 60:
            e = tree(rng, depth=3)
            f = random_polynomial(rng)
            if is_zero(f).verdict == "zero":
                continue
            try:
                assert equivalent(Div(Mul((e, f)), f), e)
            except EvaluationError:
                continue
            count += 1

    def test_gcd_with_variable_factor_in_content(self):
        # the common factor carries a bare variable: gcd(z*f, f) must be all
        # of f, including its z-content
        names = ["x", "y", "z"]
        f = parse("x^2*y^2*z^2 - 2/3*z^2 - 1/2*z", names)
        quotient = canonical_expr(parse(f"(z*({f}))/({f})", names))
        assert str(quotient) == "z"

    def test_trivariate_product_reduction_is_fast(self):
        import time

        names = ["x", "y", "z"]
        e = parse("(y/(z^2 + 3) - 1/4)/(z^2 + 1)", names)
        f = parse("-2 - 2/3*x^2*z + 3/2*z^2*y^2*x^2 + 1*z^2*y*x", names)
        started = time.perf_counter()
        assert equivalent(Div(Mul((e, f)), f), e)
        assert time.perf_counter() - started < 2.0

    def test_heuristic_and_remainder_gcd_routes_agree(self, rng):
        # both gcd routes (integer-evaluation heuristic and pseudo-remainder
        # sequence) must find the same monic gcd on planted common factors
        from liesys.expr import _gcd_inner, _nf_of, _pmul

        names = ("x", "y", "z")
        agreed = 0
        while agreed < 25:
            a, b, g = (random_polynomial(rng, names) for _ in range(3))
            pa, pb, pg = (_nf_of(e).num_den[0] for e in (a, b, g))
            if not pa or not pb or not pg:
                continue
            p, q = _pmul(pa, pg), _pmul(pb, pg)
            assert monic_gcd(p, q) == monic(_gcd_inner(p, q))
            agreed += 1

    @staticmethod
    def coprime_pairs(rng):
        """Coprime pairs in many variables: each Cramer numerator of a 2x2
        and a 3x3 symbolic system over its determinant, and random
        multilinear pairs in 6-12 variables."""
        def variable(name):
            return _poly(name, [name])

        def det(matrix):
            out = {}
            for perm in itertools.permutations(range(len(matrix))):
                inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
                term = {ONE: -1 if inversions % 2 else 1}
                for row, col in enumerate(perm):
                    term = _pmul(term, matrix[row][col])
                out = _padd(out, term)
            return out

        pairs = []
        for n in (2, 3):
            matrix = [[variable(f"a{i}_{j}") for j in range(n)] for i in range(n)]
            for j in range(n):
                replaced = [[variable(f"b{i}") if c == j else row[c] for c in range(n)]
                            for i, row in enumerate(matrix)]
                pairs.append((det(replaced), det(matrix)))
        while len(pairs) < 30:
            names = [f"v{i}" for i in range(rng.randint(6, 12))]
            p, q = ({_mono("*".join(sorted(rng.sample(names, rng.randint(1, 4)))), tuple(names)):
                     rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(rng.randint(2, 6))}
                    for _ in range(2))
            if ex._is_const_poly(ex._gcd_inner(p, q)):
                pairs.append((p, q))
        return pairs

    def test_heuristic_gcd_of_coprime_pairs_in_many_variables(self, rng, monkeypatch):
        # the heuristic accepts a constant candidate without a trial division;
        # it must give the pseudo-remainder route's gcd, and, term for term,
        # what it gave when every candidate was divided
        from liesys.expr import _gcd_core, _gcd_inner, _int_primitive

        pairs = self.coprime_pairs(rng)
        got = [_gcd_core(p, q) for p, q in pairs]
        for (p, q), g in zip(pairs, got):
            assert g == _int_primitive(_gcd_inner(p, q)) == _poly("1")

        def trial_divides(candidate, p):
            content = math.gcd(*candidate.values())
            try:
                _pdiv_exact(p, {m: c // content for m, c in candidate.items()})
                return True
            except ArithmeticError:
                return False

        monkeypatch.setattr(ex, "_divides", trial_divides)
        assert [_gcd_core(p, q) for p, q in pairs] == got

    def test_cramer_quotients_need_no_division_by_a_constant(self, monkeypatch):
        # the psi of catalog.linear_rule on a 3-dimensional chart are Cramer
        # quotients of coprime polynomials in 12 and 9 variables; their
        # heuristic gcd passes through constant candidates, which by Gauss's
        # lemma divide without a trial division
        from liesys import catalog

        real = ex._pdiv_exact

        def no_constant_divisor(p, q):
            assert not ex._is_const_poly(q), "trial division by a constant"
            return real(p, q)

        monkeypatch.setattr(ex, "_pdiv_exact", no_constant_divisor)
        rule = catalog.linear_rule(Chart(("x", "y", "z")))
        assert len(rule.psi) == 3 and all(isinstance(psi, Div) for psi in rule.psi)

    def test_gcd_the_heuristic_gives_up_on_falls_back_to_the_remainder_sequence(self):
        # the integer-evaluation heuristic gives up on these products of g^10
        # (42 recursive calls); the pseudo-remainder sequence must still
        # return g^10, primitive over Z, with all of its 286 terms
        from liesys.expr import _gcd_core, _heu_gcd, _pmul

        g = _poly("x^2*y*z - 3*x*y^2 + z^3 + 2")
        g10 = _poly("1")
        for _ in range(10):
            g10 = _pmul(g10, g)
        p = _pmul(g10, _poly("x^3 + y*z - 1"))
        q = _pmul(g10, _poly("y^2 - x*z + 5"))
        assert _heu_gcd(p, q) is None
        got = _gcd_core(p, q)
        assert len(got) == 286
        assert got in (g10, {m: -c for m, c in g10.items()})

    def test_gcd_of_a_divisor_skips_the_heuristic_with_its_sign(self, rng, monkeypatch):
        # gcd(a*b, c*a) = a and gcd(a, -a) = a up to sign; the divisor route
        # must return the heuristic's sign, which reaches unreduced pairs
        from liesys.expr import _gcd_core, _heu_gcd, _int_primitive, _pneg

        cases = []
        while len(cases) < 30:
            a, b = (ex._nf_of(random_polynomial(rng, VARS)).num_den[0] for _ in range(2))
            p, q = _pmul(a, b), _pmul(a, {ONE: rng.choice([-3, -1, 2])})
            if ex._is_const_poly(a) or len(p) <= len(a):  # the divisor is tried, not a*b
                continue
            for pair in ((p, q), (q, p), (a, _pneg(a))):
                want = _heu_gcd(*map(_int_primitive, pair))
                if want is not None:
                    cases.append((pair, _int_primitive(want)))

        def refuse(*args):
            raise AssertionError("heuristic gcd of a divisor")

        monkeypatch.setattr(ex, "_heu_gcd", refuse)
        for pair, want in cases:
            assert _gcd_core(*pair) == want

    def test_canonical_matches_sympy_and_is_coprime(self, rng):
        import sympy

        from liesys.expr import Div
        from conftest import random_tree as tree

        syms = sympy.symbols("x y z")
        for _ in range(25):
            e = tree(rng, depth=3)
            try:
                ce = canonical_expr(e)
            except EvaluationError:
                continue
            mine = sympy.sympify(str(ce).replace("^", "**"))
            orig = sympy.sympify(str(e).replace("^", "**"))
            assert sympy.simplify(sympy.together(orig - mine)) == 0
            if isinstance(ce, Div):
                num = sympy.sympify(str(ce.numerator).replace("^", "**"))
                den = sympy.sympify(str(ce.denominator).replace("^", "**"))
                assert sympy.gcd(sympy.Poly(num, *syms), sympy.Poly(den, *syms)).is_ground


class TestEvaluate:
    def test_exact_rational(self):
        v = evaluate(parse("x^2*y - x/y", ["x", "y"]), {"x": Fraction(2), "y": Fraction(3)})
        assert v == Fraction(34, 3)
        assert isinstance(v, Fraction)

    def test_float_for_transcendental(self):
        v = evaluate(parse("exp(x)", ["x"]), {"x": Fraction(1)})
        assert isinstance(v, float) and abs(v - math.e) < 1e-15

    def test_missing_name(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("x + y", ["x", "y"]), {"x": 1})

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("1/x", ["x"]), {"x": 0})

    def test_compiled_matches_evaluate(self, rng):
        for _ in range(25):
            e = random_tree(rng, depth=3)
            fn = compile_scalar(e, ("x", "y", "z"))
            point = {n: Fraction(rng.randint(-20, 20), 10) for n in ("x", "y", "z")}
            try:
                expected = float(evaluate(e, point))
            except EvaluationError:
                continue
            got = fn(float(point["x"]), float(point["y"]), float(point["z"]))
            assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))

    def test_compiling_a_variable_outside_the_order_names_them_all(self):
        # every missing name, sorted, across all the trees of a vector
        message = re.escape("expression uses variables not in order: ['w', 'y', 'z']")
        e = parse("x + sin(z)*y + w", ["w", "x", "y", "z"])
        with pytest.raises(EvaluationError, match=f"^{message}$"):
            compile_vector([e], ("x",))
        with pytest.raises(EvaluationError, match=f"^{message}$"):
            compile_vector([parse("x*y", ["x", "y"]), parse("z + w/x", ["w", "x", "z"])], ("x",))


class TestSubstitute:
    def test_rename(self):
        e = substitute(parse("x^2 + y", ["x", "y"]), {"x": Var("u")})
        assert equivalent(e, parse("u^2 + y", ["u", "y"]))

    def test_composition(self):
        e = substitute(parse("x^2", ["x"]), {"x": parse("y + 1", ["y"])})
        assert equivalent(e, parse("y^2 + 2*y + 1", ["y"]))

    def test_free_variables_sees_into_calls(self):
        assert free_variables(parse("sin(x*y) + 1", ["x", "y"])) == {"x", "y"}


def random_sparse(rng, coefficient, atoms=("x", "y", "sin(x)"), terms=4, degree=3):
    """Random nonzero polynomial in the canonical-form representation."""
    p = {}
    while not p:
        for _ in range(rng.randint(1, terms)):
            chosen = rng.sample(atoms, rng.randint(0, len(atoms)))
            mono = _mono("*".join(f"{a}^{rng.randint(1, degree)}" for a in chosen) or "1")
            c = coefficient(rng)
            if c:
                p = _padd(p, {mono: c})
    return p


def small_int(rng):
    return rng.randint(-5, 5)


def small_fraction(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def as_sympy(p):
    symbols = {}
    out = sympy.Integer(0)
    for mono, c in p.items():
        term = sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else sympy.Integer(c)
        for atom, e in ex._pairs(mono):
            term *= symbols.setdefault(atom, sympy.Symbol(atom.replace("(", "_").replace(")", "")))**e
        out += term
    return out


class TestExactDivision:
    @pytest.mark.parametrize("coefficient", [small_fraction, small_int])
    def test_quotient_of_a_product_is_the_other_factor(self, rng, coefficient):
        for _ in range(200):
            a, b = random_sparse(rng, coefficient), random_sparse(rng, coefficient)
            assert _pdiv_exact(_pmul(a, b), b) == a
        assert _pdiv_exact({}, b) == {}

    def test_inexact_division_raises(self, rng):
        x, y = _mono("x"), _mono("y")
        with pytest.raises(ArithmeticError):
            _pdiv_exact({x: Fraction(1)}, {y: Fraction(1)})
        with pytest.raises(ArithmeticError):  # over Z only: 2x / 3x is 2/3
            _pdiv_exact({x: 2}, {x: 3})
        assert _pdiv_exact({x: Fraction(2)}, {x: Fraction(3)}) == {ONE: Fraction(2, 3)}
        for coefficient in (small_fraction, small_int):
            for _ in range(100):
                a, b = random_sparse(rng, coefficient), random_sparse(rng, coefficient)
                if all(mono == ONE for mono in b):
                    continue  # a constant divides everything over Q
                with pytest.raises(ArithmeticError):
                    _pdiv_exact(_padd(_pmul(a, b), {ONE: coefficient(rng) or 1}), b)

    def test_int_and_fraction_coefficients_mixed_divide_over_q(self):
        # int over int stays over Z (test_inexact_division_raises)
        x = _mono("x")
        assert _pdiv_exact({ONE: Fraction(3, 2)}, {ONE: 1}) == {ONE: Fraction(3, 2)}
        assert _pdiv_exact({x: 3}, {x: Fraction(3, 2)}) == {ONE: 2}

    def test_divides_agrees_with_division_over_q(self, rng):
        seen = set()
        for _ in range(80):
            a, b = random_sparse(rng, small_int), random_sparse(rng, small_int)
            p = _pmul(a, b)
            for factor in (1, -1, 6, -4):
                for base in (b, a, _padd(b, {ONE: 1}), _pmul(b, {_mono("y"): 1})):
                    candidate = {m: factor * c for m, c in base.items()}
                    q, r = sympy.div(as_sympy(p), as_sympy(candidate), domain="QQ")
                    want = r == 0
                    assert _divides(candidate, p) == want, (candidate, p)
                    seen.add(want)
        assert seen == {True, False}


def _reference_reduce(num, den):
    """Coprime parts and a monic denominator, by one gcd over Q; the
    coefficients are Fractions."""
    if not num:
        return {}, {ONE: Fraction(1)}
    if not ex._is_const_poly(den):
        g = monic_gcd(num, den)
        if not ex._is_const_poly(g):
            num, den = _pdiv_exact(num, g), _pdiv_exact(den, g)
    lc = Fraction(den[ex._lead(den, ex._atoms_of(den))])
    return {m: c / lc for m, c in num.items()}, {m: c / lc for m, c in den.items()}


def _reference_nf(e):
    """The canonical (num, den) of e by a fold over Q that reduces every
    node by a gcd as it goes, so that every intermediate form is canonical."""
    one = {ONE: Fraction(1)}
    if isinstance(e, Const):
        return {ONE: e.value} if e.value else {}, one
    if isinstance(e, (Var, Call)):
        ex._nf_of(e)  # registers the atom
        key = e.name if isinstance(e, Var) else f"{e.fn}({ex._nf_str(*_reference_nf(e.arg))})"
        return {ex._ATOMS.units[key]: Fraction(1)}, one
    if isinstance(e, Add):
        num, den = {}, one
        for t in e.terms:
            tn, td = _reference_nf(t)
            num, den = _reference_reduce(_padd(_pmul(num, td), _pmul(tn, den)), _pmul(den, td))
        return num, den
    if isinstance(e, Mul):
        num, den = one, one
        for f in e.factors:
            fn, fd = _reference_nf(f)
            num, den = _pmul(num, fn), _pmul(den, fd)
        return _reference_reduce(num, den)
    if isinstance(e, Pow):
        num, den = _reference_nf(e.base)
        return ex._ppow(num, e.exponent), ex._ppow(den, e.exponent)
    (an, ad), (bn, bd) = _reference_nf(e.numerator), _reference_nf(e.denominator)
    if not bn:
        raise EvaluationError("division by an expression that is identically zero")
    return _reference_reduce(_pmul(an, bd), _pmul(ad, bn))


def _dual(e, env, v):
    """(value, d/dv) of a rational tree at a rational point, exactly, by
    dual-number arithmetic; ZeroDivisionError at a pole."""
    if isinstance(e, Const):
        return e.value, 0
    if isinstance(e, Var):
        return Fraction(env[e.name]), int(e.name == v)
    if isinstance(e, Pow):
        a, da = _dual(e.base, env, v)
        return a**e.exponent, e.exponent * a ** (e.exponent - 1) * da
    if isinstance(e, Div):
        (a, da), (b, db) = _dual(e.numerator, env, v), _dual(e.denominator, env, v)
        return a / b, (da * b - a * db) / b**2
    if isinstance(e, Add):
        parts = [_dual(t, env, v) for t in e.terms]
        return sum(a for a, _ in parts), sum(da for _, da in parts)
    value, slope = Fraction(1), 0
    for f in e.factors:
        a, da = _dual(f, env, v)
        value, slope = value * a, slope * a + value * da
    return value, slope


def _function_atoms_only_if_trans(nf):
    atoms = ex._atoms_of(*nf.canonical())
    return nf.trans or not any(isinstance(ex._ATOMS[a], Call) for a in atoms)


def _children(e):
    if isinstance(e, Add):
        return e.terms
    if isinstance(e, Mul):
        return e.factors
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, Div):
        return (e.numerator, e.denominator)
    if isinstance(e, Call):
        return (e.arg,)
    return ()


def _reference_str(num, den):
    top = ex._expr_from_poly(num)
    return str(top if den == ex._PONE else Div(top, ex._expr_from_poly(den)))


class TestLazyReduction:
    """Normal forms are reduced only where the canonical form is read; the
    results must be those of reducing every node as it is folded."""

    def trees(self, rng):
        for i in range(500):
            yield random_tree(rng, depth=4, transcendental=i % 3 == 0)
        for _ in range(60):
            a, b = random_tree(rng, depth=3), random_tree(rng, depth=2)
            yield Pow(Div(a, Add((b, Const(rng.randint(1, 3))))), rng.randint(2, 4))
            yield Mul((Pow(Div(b, a), 2), Div(a, b)))

    def test_canonical_forms_and_zero_verdicts_match_the_reference(self, rng):
        compared = 0
        for e in self.trees(rng):
            try:
                got = str(canonical_expr(e))
            except EvaluationError:
                with pytest.raises(EvaluationError):
                    _reference_nf(e)
                continue
            num, den = _reference_nf(e)
            assert got == _reference_str(num, den), str(e)
            try:
                decision = is_zero(e)
            except EvaluationError:  # too few regular points to sample a function atom
                assert num and ex._nf_of(e).trans
                continue
            assert (decision.verdict == "zero" and decision.exact) == (not num), str(e)
            compared += 1
        assert compared >= 500

    def test_folds_run_over_the_integers(self, rng):
        """Every folded pair has int coefficients, and num and den share no
        integer content; the canonical form holds Fractions, never floats."""
        checked = 0
        for e in self.trees(rng):
            try:
                nf = ex._nf_of(e)
                canonical = nf.canonical()
            except EvaluationError:
                continue
            stack = [e]
            while stack:
                node = stack.pop()
                stack.extend(_children(node))
                if node._nf is None:
                    continue
                num, den = node._nf.num_den
                assert all(type(c) is int for p in (num, den) for c in p.values()), str(node)
                assert not num or math.gcd(*num.values(), *den.values()) == 1, str(node)
            assert all(type(c) is int for p in nf.reduced() for c in p.values()), str(e)
            assert all(type(c) is Fraction for p in canonical for c in p.values()), str(e)
            checked += 1
        assert checked >= 500

    def test_derivatives_of_normal_forms_match_derivative_trees(self, rng):
        """On the random trees, every third with function atoms.  The quotient
        powers that follow are left to the next test: canonical forms of their
        derivative trees take minutes or exceed MAX_TERM_PAIRS."""
        compared = 0
        for e in itertools.islice(self.trees(rng), 500):
            for v in ("x", "z"):
                try:
                    want = str(canonical_expr(ex._diff_tree(e, v)))
                except (EvaluationError, LiesysError) as exc:
                    with pytest.raises(type(exc), match=re.escape(str(exc))):
                        ex._nf_derive(ex._nf_of(e), {v: ex._NF_ONE})
                    continue
                nf = ex._nf_derive(ex._nf_of(e), {v: ex._NF_ONE})
                assert str(ex._expr_from_nf(nf)) == want, f"d/d{v} {e}"
                assert _function_atoms_only_if_trans(nf)
                compared += 1
        assert compared >= 900

    def test_derivations_along_fields_match_derivative_trees(self, rng):
        """X(f) along random fields on (x, y, z), half of them with function
        atoms in their components and some f with a function atom added,
        against sum_i X^i * (reference df/dx^i).  A field's function atoms
        must set `trans` even where f has none."""
        compared = 0
        for i in range(300):
            e = random_tree(rng, depth=3, transcendental=i % 3 == 0)
            if i % 4 == 0:
                e = Add((e, Call(rng.choice(ex.FUNCTIONS), random_tree(rng, depth=2))))
            field = [random_tree(rng, depth=2, transcendental=i % 2 == 0) for _ in VARS]
            if i % 6 == 0:
                field[rng.randrange(3)] = Call(rng.choice(ex.FUNCTIONS), random_tree(rng, depth=1))
            try:
                partials = [canonical_expr(ex._diff_tree(e, v)) for v in VARS]
                want = ex._nf_of(Add(tuple(Mul((c, d)) for c, d in zip(field, partials))))
                want.canonical()
            except (EvaluationError, LiesysError):
                continue
            nf = ex._nf_derive(ex._nf_of(e), {v: ex._nf_of(c) for v, c in zip(VARS, field)})
            assert nf.canonical() == want.canonical(), f"{field} applied to {e}"
            assert _function_atoms_only_if_trans(nf)
            compared += 1
        assert compared >= 280

    def test_derivatives_of_quotient_powers_match_dual_numbers(self, rng):
        trees = list(self.trees(rng))[500:]
        compared = 0
        for e in trees:
            try:
                ex._nf_of(e)
            except EvaluationError:
                continue
            for v in ("x", "z"):
                derivative = differentiate(e, v)
                for _ in range(5):
                    env = {n: ex.random_rational(rng) for n in "xyz"}
                    try:
                        _, want = _dual(e, env, v)
                    except ZeroDivisionError:
                        continue
                    assert evaluate(derivative, env) == want, f"d/d{v} {e} at {env}"
                    compared += 1
                    break
        assert compared >= 200

    def test_zero_sum_decided_without_a_gcd(self, monkeypatch):
        e = parse("(x^2 - 1)/(x - 1) - (x + 1)*(y + 2)/(y + 2)", ["x", "y"])

        def refuse(*args):
            raise AssertionError("gcd in a zero test")

        monkeypatch.setattr(ex, "_gcd_core", refuse)
        assert is_zero(e).verdict == "zero"

    def test_power_of_a_unit_quotient_is_one_quickly(self):
        import time

        started = time.perf_counter()
        e = canonical_expr(parse("((x+y+1)/(x+y+1))^200", ["x", "y"]))
        assert str(e) == "1"
        assert time.perf_counter() - started < 0.5


class TestHugeConstants:
    """Python refuses to write integers past 4,300 digits; every place that
    writes a constant turns that into a LiesysError naming its size."""

    huge = Fraction(3**37440, 7)

    def test_rendering_a_constant(self):
        with pytest.raises(LiesysError, match="59341 bits"):
            str(Const(self.huge))

    def test_rendering_a_polynomial(self):
        with pytest.raises(LiesysError, match="59341 bits"):
            str(canonical_expr(Mul((Const(self.huge), Var("x")))))
        with pytest.raises(LiesysError, match="59341 bits"):
            canonical_expr(Call("sin", Const(self.huge)))

    def test_compiling(self):
        with pytest.raises(LiesysError, match="59341 bits"):
            python_source(Mul((Const(self.huge), Var("x"))), {"x": "_v0"})


class TestExactPowerBound:
    """A power's normal form refuses a power whose leading coefficient alone
    would pass MAX_EXACT_BITS, before multiplying it out, as evaluate does;
    the bound is a lower bound on the size, so a power that fits passes."""

    def test_constant_power_at_the_bound(self):
        fits = canonical_expr(Pow(Const(2), ex.MAX_EXACT_BITS))
        assert fits.value == 2**ex.MAX_EXACT_BITS
        with pytest.raises(EvaluationError, match=f"would exceed {ex.MAX_EXACT_BITS} bits"):
            canonical_expr(Pow(Const(2), ex.MAX_EXACT_BITS + 1))

    def test_polynomial_leading_coefficient(self):
        # c^2 at x^2, c = 3^340000 of 538,882 bits, passes the bound; the
        # constant term 1 would not
        with pytest.raises(EvaluationError, match="would exceed"):
            canonical_expr(Pow(parse("3^340000*x + 1", ["x"]), 2))

    def test_denominator(self):
        with pytest.raises(EvaluationError, match="would exceed"):
            canonical_expr(Pow(parse("x/3^999", ["x"]), 999))


PLANE_NAMES = ("x", "y")


def _plane(text):
    return parse(text, PLANE_NAMES)


def _bracket_component(i):
    chart = Chart(PLANE_NAMES)
    x = VectorField.from_strings(chart, ["x^2 + 2*x*y - 3", "sin(x + y)*y - x/2"])
    y = VectorField.from_strings(chart, ["exp(y)*x + y^2", "x^2 + y^2 - 1"])
    return lie_bracket(x, y).components[i]


def _derivation(text):
    field = VectorField.from_strings(Chart(PLANE_NAMES), ["x^2 + y", "x*y - 1"])
    return field.apply_to(_plane(text))


# trees whose top node, or a quotient's parts, are sums not yet built
LAZY_CASES = {
    "canonical polynomial": lambda: canonical_expr(_plane("(x + y)^3 - sin(x)*exp(y) + x/2")),
    "canonical quotient": lambda: canonical_expr(_plane("(x^2 + sin(x + y))/(x - exp(y) + 1)")),
    "bracket component 0": lambda: _bracket_component(0),
    "bracket component 1": lambda: _bracket_component(1),
    "derivation": lambda: _derivation("x^3*y + y^2"),
    "derivation of a quotient": lambda: _derivation("(x + y)/(x - y + 2)"),
    "constant denominator above 1": lambda: canonical_expr(_plane("x/3 + y/6")),
    "negative leading denominator": lambda: canonical_expr(_plane("(x + 1)/(2 - x^2)")),
    # the one-term numerator is divided by lc = -2 at once, the sum on read
    "one-term numerator": lambda: canonical_expr(_plane("7/(-2*x + y)")),
}

_SOURCE_NAMES = {"x": "_v0", "y": "_v1"}

# each reads the whole tree; each is the first reader of a fresh tree
LAZY_READERS = {
    "str": str,
    "python_source": lambda e: python_source(e, _SOURCE_NAMES),
    "evaluate": lambda e: evaluate(e, {"x": Fraction(1, 3), "y": Fraction(2, 5)}),
    "free_variables": free_variables,
    "substitute": lambda e: str(substitute(e, {"x": _plane("x + y"), "y": _plane("2*x")})),
    "_diff_tree": lambda e: [str(ex._diff_tree(e, v)) for v in PLANE_NAMES],
}


def _unbuilt_sums(e):
    """The sums of e, or of a quotient e's parts, whose terms are not built."""
    parts = (e.numerator, e.denominator) if isinstance(e, Div) else (e,)
    return [p for p in parts if type(p) is ex._PolySum]


def _eager(e):
    """The tree an eager build makes of e's canonical form: the tree of its
    Fraction pair nf.canonical(), every sum's terms built, and so on inside
    function arguments; made without reading the sums of e."""
    return _built(ex._tree(*e._nf.canonical(), e._nf))


def _built(e):
    if isinstance(e, Add):  # a sum of the eager copy, so its own to build
        return Add(tuple(map(_built, e.terms)))
    if isinstance(e, Mul):
        return Mul(tuple(map(_built, e.factors)))
    if isinstance(e, Pow):
        return Pow(_built(e.base), e.exponent)
    if isinstance(e, Div):
        return Div(_built(e.numerator), _built(e.denominator))
    if isinstance(e, Call):
        return Call(e.fn, _eager(e.arg))
    return e


def _grow_rational(children):
    """One node over `children` with no function atom, whose denominators
    are nonzero constants or positive or negative polynomials."""
    positive = children.map(lambda u: Add((Pow(u, 2), Const(1))))
    denominators = st.one_of(positive, positive.map(lambda u: -u), st.sampled_from(VARS).map(Var),
                             st.builds(lambda p, q: Const(Fraction(p, q)),
                                       st.sampled_from((-6, -2, 3, 7)), st.integers(1, 4)))
    return st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda ts: Add(tuple(ts))),
        st.lists(children, min_size=2, max_size=3).map(lambda fs: Mul(tuple(fs))),
        st.tuples(children, children).map(lambda t: t[0] - t[1]),
        st.tuples(children, st.integers(2, 3)).map(lambda t: Pow(*t)),
        st.tuples(children, denominators).map(lambda t: Div(*t)),
    )


_RATIONAL_TREES = st.recursive(
    st.one_of(st.builds(lambda p, q: Const(Fraction(p, q)), st.integers(-5, 5), st.integers(1, 6)),
              st.sampled_from(VARS).map(Var)),
    _grow_rational, max_leaves=8)


class TestLazySums:
    """A sum rebuilt from a normal form builds its terms on first read, with
    the one builder an eager build runs, and is a plain Add from then on."""

    @pytest.mark.parametrize("reader", sorted(LAZY_READERS))
    @pytest.mark.parametrize("case", sorted(LAZY_CASES))
    def test_first_read_matches_the_eager_tree(self, case, reader):
        lazy = LAZY_CASES[case]()
        sums = _unbuilt_sums(lazy)
        assert sums, "the case has no unbuilt sum"
        eager = _eager(lazy)
        assert all(type(s) is ex._PolySum for s in sums)
        read = LAZY_READERS[reader]
        assert read(lazy) == read(eager)
        if reader == "free_variables":  # read the polynomials' atoms only
            assert all(type(s) is ex._PolySum for s in sums)
            str(lazy)
            assert free_variables(lazy) == free_variables(eager)
        assert all(type(s) is Add for s in sums)
        assert all(s.terms is s.terms for s in sums)
        assert str(lazy) == str(eager)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(e=_RATIONAL_TREES)
    @example(e=_plane("x/3 + y/6"))
    @example(e=_plane("(x + 1)/(2 - x^2)"))
    @example(e=_plane("7/(-2*x)"))
    def test_canonical_tree_is_the_tree_of_the_fraction_pair(self, e):
        """canonical_expr divides the reduced integer pair by lc where it
        builds terms; the tree of the Fraction pair nf.canonical() is the
        oracle."""
        got = canonical_expr(e)
        nf = ex._nf_of(e)
        want = ex._tree(*nf.canonical(), nf)
        assert str(got) == str(want)
        point = {"x": Fraction(1, 3), "y": Fraction(-2, 5), "z": Fraction(3, 7)}
        assert evaluate(got, point) == evaluate(want, point)
        names = {v: f"_v{i}" for i, v in enumerate(VARS)}
        assert python_source(got, names) == python_source(want, names)

    def test_function_atoms_inside_an_unbuilt_sum_are_walked(self):
        e = canonical_expr(parse("sin(z*y) + exp(x - z) + x", VARS))
        assert type(e) is ex._PolySum
        assert free_variables(e) == {"x", "y", "z"}
        assert type(e) is ex._PolySum

    def test_racing_readers_share_one_build(self, monkeypatch):
        lazy = canonical_expr(parse("(x + y + z + 1)^6", VARS))
        want = str(_eager(lazy))
        builds = []
        build = ex._poly_terms

        def slow_build(p, lc):
            builds.append(len(p))
            time.sleep(0.01)  # the other readers arrive while this one builds
            return build(p, lc)

        monkeypatch.setattr(ex, "_poly_terms", slow_build)
        ready = threading.Barrier(4, timeout=10)
        texts = [None] * 4

        def read(i):
            ready.wait()
            texts[i] = str(lazy)

        threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert texts == [want] * 4
        assert type(lazy) is Add
        assert builds == [84]


# -- the accumulators against the fold they replaced: _nf_sum as it folded
#    before, and a sum of sign * a * b as one normal form per product, kept
#    here as the oracle.

def _fold_oracle(nfs):
    num, den, trans = {}, ex._PONE, False
    for nf in nfs:
        tnum, tden = nf.num_den
        if tden == den:
            num = _padd(num, tnum)
        elif ex._is_const_poly(den) and ex._is_const_poly(tden):
            d, td = den[ONE], tden[ONE]
            lcm = math.lcm(d, td)
            num = _padd(ex._pscale(num, lcm // d), ex._pscale(tnum, lcm // td))
            den = {ONE: lcm}
        else:
            num = _padd(_pmul(num, tden), _pmul(tnum, den))
            den = _pmul(den, tden)
        trans = trans or nf.trans
    return ex._NF(num, den, trans)


def _dot_oracle(terms, trans):
    products = [ex._NF_ZEROS[trans]]
    for sign, a, b in terms:
        (an, ad), (bn, bd) = a.num_den, b.num_den
        num = _pmul(an, bn)
        products.append(ex._NF(num if sign > 0 else ex._pneg(num), _pmul(ad, bd), a.trans or b.trans))
    return _fold_oracle(products)


_ACC_ATOMS = ("x", "y", "sin(x)")
_MONOMIALS = st.lists(st.tuples(st.sampled_from(_ACC_ATOMS), st.integers(1, 3)),
                      max_size=2, unique_by=lambda t: t[0]).map(
    lambda ms: _mono("*".join(f"{a}^{e}" for a, e in sorted(ms)) or "1"))
_POLYS = st.dictionaries(_MONOMIALS, st.integers(-4, 4).filter(bool), max_size=4)
_DENS = st.one_of(
    st.integers(-6, 6).filter(bool).map(lambda d: {ONE: d}),
    _POLYS.filter(lambda p: p and not ex._is_const_poly(p)),
)


def _nf_from(num, den):
    return ex._NF(num, den, "sin(x)" in ex._atoms_of(num, den))


@st.composite
def _normal_forms(draw, max_size=5):
    """Normal forms over constant and non-constant denominators, some of
    them followed later by their negation, so that terms cancel to zero."""
    nfs = draw(st.lists(st.builds(_nf_from, _POLYS, _DENS), max_size=max_size))
    for i in draw(st.lists(st.integers(0, max(len(nfs) - 1, 0)), max_size=2)) if nfs else ():
        num, den = nfs[i].num_den
        nfs.append(ex._NF(ex._pneg(num), den, nfs[i].trans))
    return nfs


def _snapshot(nfs):
    return [(dict(nf.num_den[0]), dict(nf.num_den[1])) for nf in nfs]


def _shared_constants_unchanged():
    assert ex._PONE == {ONE: 1}
    assert ex._NF_ONE.num_den == ({ONE: 1}, {ONE: 1})
    assert [nf.num_den for nf in ex._NF_ZEROS] == [({}, {ONE: 1})] * 2


class TestAccumulator:
    """_nf_sum and _nf_dot add into numerators they own: they give the
    canonical form and `trans` of the fold they replaced, write no input,
    and over constant denominators give its very pair."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(nfs=_normal_forms())
    def test_sum_matches_the_fold(self, nfs):
        before = _snapshot(nfs)
        got, want = ex._nf_sum(nfs), _fold_oracle(nfs)
        assert got.num_den == want.num_den and got.trans == want.trans
        assert got.canonical() == want.canonical()
        assert _snapshot(nfs) == before
        _shared_constants_unchanged()

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(left=_normal_forms(max_size=4), right=_normal_forms(max_size=4),
           signs=st.lists(st.sampled_from((1, -1)), min_size=6, max_size=6), trans=st.booleans())
    def test_dot_matches_one_normal_form_per_product(self, left, right, signs, trans):
        terms = list(zip(signs, left, right))
        before = _snapshot(left + right)
        got, want = ex._nf_dot(terms, trans), _dot_oracle(terms, trans)
        assert got.canonical() == want.canonical() and got.trans == want.trans
        if all(ex._is_const_poly(nf.num_den[1]) for nf in left + right):
            assert got.num_den == want.num_den
        assert _snapshot(left + right) == before
        _shared_constants_unchanged()

    def test_products_past_the_term_pair_bound_raise(self):
        wide = ex._NF({_mono(f"x^{i}*y"): 1 for i in range(1, 601)}, ex._PONE, False)
        tall = ex._NF({_mono(f"y^{j}"): 1 for j in range(2, 602)}, ex._PONE, False)
        with pytest.raises(LiesysError, match=r"a product of 600 by 600 terms exceeds 262144 term pairs"):
            ex._nf_dot([(1, wide, tall)])
        with pytest.raises(LiesysError, match=r"a product of 600 by 600 terms exceeds 262144 term pairs"):
            ex._nf_product((wide, tall))


# -- packed monomials against sympy's sparse polynomials.  The atoms are
#    registered in reverse alphabetical order before any test reads them, so
#    that their slots run against their names: every order and rendering must
#    follow the names.  exp(2) holds no variable, so its fold registers no
#    other atom.

_PACKED = ("exp(2)", "pa", "pb", "pc")
for _text in reversed(_PACKED):
    ex._nf_of(parse(_text, _PACKED[1:]))
_RING, *_GENS = sympy.polys.rings.ring("e2, a, b, c", sympy.ZZ, sympy.polys.orderings.grlex)
_QRING = _RING.clone(domain=sympy.QQ)
_SPARSE = st.dictionaries(st.tuples(*[st.integers(0, 3)] * len(_PACKED)),
                          st.integers(-5, 5).filter(bool), max_size=5)


def _packed(terms):
    """(our polynomial, sympy's) of {exponents over _PACKED: coefficient}."""
    text = " + ".join(f"({c})*" + "*".join(f"{a}^{e}" for a, e in zip(_PACKED, exps)) + "*1"
                      for exps, c in terms.items()) or "0"
    return _poly(text, _PACKED[1:]), _RING.from_dict(terms)


def _as_sympy(p):
    """Our polynomial as sympy's, read through the decoder."""
    terms = {}
    for m, c in p.items():
        pairs = dict(ex._pairs(m))
        terms[tuple(pairs.pop(a, 0) for a in _PACKED)] = c
        assert not pairs, f"atoms outside {_PACKED}: {pairs}"
    return _RING.from_dict(terms)


def _reference_poly_str(poly):
    """_poly_str's text, built from sympy's terms in graded lexicographic order."""
    parts = []
    for exps, c in poly.terms():
        factors = [a if e == 1 else f"{a}^{e}" for a, e in zip(_PACKED, exps) if e]
        body = "*".join(([] if abs(c) == 1 and factors else [str(abs(c))]) + factors)
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    text = parts[0][1] if parts[0][0] == "+" else f"-{parts[0][1]}"
    return text + "".join(f" {sign} {body}" for sign, body in parts[1:])


def _same_rational(nf, num, den):
    got_num, got_den = map(_as_sympy, nf.num_den)
    return got_num * den == num * got_den


def _primitive_up_to_sign(poly):
    prim = poly.primitive()[1]
    return prim if prim.LC > 0 else -prim


class TestPackedMonomials:
    """A monomial is one int, its atoms' exponents in 64-bit fields by slot."""

    def test_slots_run_against_the_names(self):
        slots = [ex._ATOMS.slots.index(a) for a in _PACKED]
        assert slots == sorted(slots, reverse=True)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(terms=st.lists(_SPARSE, min_size=5, max_size=5), signs=st.tuples(*[st.sampled_from((1, -1))] * 2))
    def test_polynomial_kernel_matches_sympy(self, terms, signs):
        (p, P), (q, Q), (g, G), (d, D), (r, R) = map(_packed, terms)
        assert _as_sympy(p) == P and _poly(ex._poly_str(p), _PACKED[1:]) == p
        assert ex._poly_str(p) == _reference_poly_str(P)
        assert _as_sympy(_pmul(p, q)) == P * Q
        for a, gen in zip(_PACKED, _GENS):  # the univariate view and back
            view = ex._as_univariate(p, a)
            assert ex._from_univariate(view, a) == p
            assert all(_as_sympy(c).degree(gen) == 0 for c in view.values())
            assert sum((_as_sympy(c) * gen**e for e, c in view.items()), _RING.zero) == P
        if not (q and d and r):
            return
        # sums and dot products over a like and an unlike denominator
        trans = "exp(2)" in ex._atoms_of(p, d)
        (e, E) = (d, D) if signs[0] > 0 else (r, R)
        nf_p, nf_q = ex._NF(p, d, trans), ex._NF(q, e, trans)
        assert _same_rational(ex._nf_sum([nf_p, nf_q]), P * E + Q * D, D * E)
        dot = ex._nf_dot([(signs[1], nf_p, nf_q), (1, nf_q, nf_q)])
        assert _same_rational(dot, signs[1] * P * Q * E + Q * Q * D, D * E * E)
        partials = ex._nf_partials(nf_p, _PACKED[1:])
        for a, gen in zip(_PACKED[1:], _GENS[1:]):
            want = P.diff(gen) * D - P * D.diff(gen)
            assert (a in partials) == bool(want)
            if a in partials:
                assert _same_rational(partials[a], want, D * D)
        # exact division, and a dividend off by r, which is exact only if q divides r
        assert ex._pdiv_exact(_pmul(p, q), q) == p
        quotient, rest = (P * Q + R).set_ring(_QRING).div(Q.set_ring(_QRING))
        if not rest and all(c.denominator == 1 for c in quotient.coeffs()):
            assert _as_sympy(ex._pdiv_exact(ex._padd(_pmul(p, q), r), q)) == quotient.set_ring(_RING)
        else:
            with pytest.raises(ArithmeticError):
                ex._pdiv_exact(ex._padd(_pmul(p, q), r), q)
        if p and g:
            a, b = _pmul(p, g), _pmul(q, g)
            want = _primitive_up_to_sign((P * G).gcd(Q * G))
            assert _primitive_up_to_sign(_as_sympy(ex._gcd_core(a, b))) == want
            # the remainder sequence: the heuristic gives up on the pair itself, as on
            # the g^10 pair, and still serves the contents' gcds
            calls = []

            def give_up_first(p, q, heuristic=ex._heu_gcd):
                calls.append((p, q))
                return None if len(calls) == 1 else heuristic(p, q)

            with unittest.mock.patch.object(ex, "_heu_gcd", give_up_first):
                assert _primitive_up_to_sign(_as_sympy(ex._gcd_core(a, b))) == want

    def test_racing_registrations_give_each_atom_its_own_slot(self):
        class SlowKey(str):  # the table's writes hash it: each lets the other threads run
            def __hash__(self):
                time.sleep(1e-4)
                return str.__hash__(self)

        names = [f"race{i}_{j}" for i in range(4) for j in range(25)]
        ready = threading.Barrier(4, timeout=10)
        units = [None] * 4

        def register(i):
            ready.wait()
            units[i] = [ex._ATOMS.unit(SlowKey(n), Var(n)) for n in names[i::4] + names[:25]]

        threads = [threading.Thread(target=register, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        got = {n: ex._ATOMS.units[n] for n in names}
        assert len(set(got.values())) == len(names)
        assert all(ex._ATOMS.slots[u.bit_length() // 64] == n for n, u in got.items())
        assert all(us[25:] == [got[n] for n in names[:25]] for us in units)

    def test_exponents_stay_below_two_to_the_63(self):
        bound = re.escape("an exponent of y would reach 2^63; exponents must stay below 2^63")
        top = _poly(f"x*y^{2**62}")
        assert _pmul(top, _poly(f"y^{2**62 - 1}")) == _poly(f"x*y^{2**63 - 1}")
        with pytest.raises(LiesysError, match=f"^{bound}$"):
            _pmul(top, top)
        with pytest.raises(LiesysError, match=f"^{bound}$"):
            ex._nf_of(parse(f"x*y^{2**63}", VARS))
        with pytest.raises(LiesysError, match=f"^{bound}$"):
            ex._nf_of(parse(f"(x*y^2)^{2**62}", VARS))


class TestEvalAtomInt:
    """_eval_atom_int sets an atom to an integer, each distinct power of it
    computed once, and gives the dict of the term-by-term evaluation."""

    @staticmethod
    def per_term(p, atom, xi):
        out = {}
        for m, c in p.items():
            e, rest = ex._split(m, atom)
            out[rest] = out.get(rest, 0) + c * xi**e
        return {m: c for m, c in out.items() if c}

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(p=_POLYS, atom=st.sampled_from(_ACC_ATOMS),
           xi=st.one_of(st.integers(-3, 3), st.integers(2**60, 2**200)))
    def test_matches_the_per_term_form(self, p, atom, xi):
        got = ex._eval_atom_int(p, atom, xi)
        assert got == self.per_term(p, atom, xi)
        assert all(got.values())
