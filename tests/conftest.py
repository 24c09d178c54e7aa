import random
from fractions import Fraction

import numpy as np
import pytest

from liesys import expr as ex
from liesys.expr import Add, Call, Const, Div, Expr, Mul, Pow, Var, compile_vector

VARS = ("x", "y", "z")


def random_polynomial(rng: random.Random, names=VARS, max_degree=2, terms=3) -> Expr:
    """Random polynomial with small rational coefficients."""
    out = Const(Fraction(rng.randint(-3, 3)))
    for _ in range(rng.randint(1, terms)):
        factors = [Const(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))]
        for name in rng.sample(names, k=rng.randint(1, len(names))):
            power = rng.randint(1, max_degree)
            factors.append(Pow(Var(name), power) if power > 1 else Var(name))
        out = out + Mul(tuple(factors))
    return out


def monic(p):
    """p over the coefficient of its graded-lex leading monomial, in Fractions."""
    lc = Fraction(p[ex._lead(p, ex._atoms_of(p))])
    return {m: c / lc for m, c in p.items()}


def monic_gcd(p, q):
    """The monic gcd over Q of nonzero int or Fraction polys, in Fractions."""
    return monic(ex._gcd_core(p, q))


def random_tree(rng: random.Random, names=VARS, depth=3, transcendental=False) -> Expr:
    """Random expression tree; guards against identically-zero denominators."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return Const(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        return Var(rng.choice(names))
    kinds = ["add", "mul", "pow"]
    if transcendental:
        kinds.append("call")
    kinds.append("div")
    kind = rng.choice(kinds)
    if kind == "add":
        return Add(tuple(random_tree(rng, names, depth - 1, transcendental) for _ in range(2)))
    if kind == "mul":
        return Mul(tuple(random_tree(rng, names, depth - 1, transcendental) for _ in range(2)))
    if kind == "pow":
        return Pow(random_tree(rng, names, depth - 1, transcendental), rng.randint(2, 3))
    if kind == "call":
        fn = rng.choice(("sin", "cos", "exp"))
        return Call(fn, random_tree(rng, names, depth - 1, False))
    num = random_tree(rng, names, depth - 1, transcendental)
    den = Add((Pow(Var(rng.choice(names)), 2), Const(rng.randint(1, 4))))
    return Div(num, den)


def compile_scalar(e: Expr, names):
    """e as a function of the variables `names`, by expr.compile_vector, on
    plain floats of its arguments, so singular points raise."""
    vector = compile_vector([e], names)
    return lambda *args: vector(*map(float, args))[0]


def curve_value(curve, t: float) -> float:
    """A coefficient curve at t, apart from the code a LieSystem generates:
    np.interp on a table, the expression compiled by itself otherwise."""
    if curve.table is not None:
        return float(np.interp(t, *curve.table))
    return float(compile_scalar(curve.expression, ("t",))(t))


@pytest.fixture
def rng():
    return random.Random(20240817)
