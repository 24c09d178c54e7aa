import math
import random
from fractions import Fraction

import pytest
import sympy

from liesys.errors import EvaluationError, ParseError
from liesys.expr import (
    Chart,
    Const,
    Mul,
    Pow,
    Var,
    canonical_expr,
    canonically_equal,
    compile_expr,
    differentiate,
    evaluate,
    free_variables,
    is_zero,
    parse,
    substitute,
)
from liesys.expr import _divides, _padd, _pdiv_exact, _pmul

from conftest import random_polynomial, random_tree


def equivalent(a, b) -> bool:
    return canonically_equal(a, b)


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
        assert equivalent(Mul((e, f)) / f, e)
        assert time.perf_counter() - started < 2.0

    def test_heuristic_and_remainder_gcd_routes_agree(self, rng):
        # both gcd routes (integer-evaluation heuristic and pseudo-remainder
        # sequence) must find the same monic gcd on planted common factors
        from liesys.expr import _gcd_inner, _monic, _nf_of, _pmul, _poly_gcd

        names = ("x", "y", "z")
        agreed = 0
        while agreed < 25:
            a, b, g = (random_polynomial(rng, names) for _ in range(3))
            pa, pb, pg = (_nf_of(e).num_den[0] for e in (a, b, g))
            if not pa or not pb or not pg:
                continue
            p, q = _pmul(pa, pg), _pmul(pb, pg)
            assert _poly_gcd(p, q) == _monic(_gcd_inner(p, q))
            agreed += 1

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
            fn = compile_expr(e, ("x", "y", "z"))
            point = {n: Fraction(rng.randint(-20, 20), 10) for n in ("x", "y", "z")}
            try:
                expected = float(evaluate(e, point))
            except EvaluationError:
                continue
            got = fn(float(point["x"]), float(point["y"]), float(point["z"]))
            assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))


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
            mono = tuple(sorted((a, rng.randint(1, degree)) for a in chosen))
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
        for atom, e in mono:
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
        x, y = (("x", 1),), (("y", 1),)
        with pytest.raises(ArithmeticError):
            _pdiv_exact({x: Fraction(1)}, {y: Fraction(1)})
        with pytest.raises(ArithmeticError):  # over Z only: 2x / 3x is 2/3
            _pdiv_exact({x: 2}, {x: 3})
        assert _pdiv_exact({x: Fraction(2)}, {x: Fraction(3)}) == {(): Fraction(2, 3)}
        for coefficient in (small_fraction, small_int):
            for _ in range(100):
                a, b = random_sparse(rng, coefficient), random_sparse(rng, coefficient)
                if all(not mono for mono in b):
                    continue  # a constant divides everything over Q
                with pytest.raises(ArithmeticError):
                    _pdiv_exact(_padd(_pmul(a, b), {(): coefficient(rng) or 1}), b)

    def test_divides_agrees_with_division_over_q(self, rng):
        seen = set()
        for _ in range(80):
            a, b = random_sparse(rng, small_int), random_sparse(rng, small_int)
            p = _pmul(a, b)
            for factor in (1, -1, 6, -4):
                for base in (b, a, _padd(b, {(): 1}), _pmul(b, {(("y", 1),): 1})):
                    candidate = {m: factor * c for m, c in base.items()}
                    q, r = sympy.div(as_sympy(p), as_sympy(candidate), domain="QQ")
                    want = r == 0
                    assert _divides(candidate, p) == want, (candidate, p)
                    seen.add(want)
        assert seen == {True, False}
