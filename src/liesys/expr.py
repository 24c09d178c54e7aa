"""Symbolic scalar expressions over named variables with exact rational coefficients.

The expression language covers rational arithmetic over a fixed set of names
(sums, products, quotients, integer powers) plus the function set
sin / cos / exp / ln carried symbolically.  Every node folds its children
into a normal form: a quotient of expanded integer-coefficient polynomials
whose atoms are variables or whole function applications (treated as
opaque).  The fold runs no gcd, so normal forms are unreduced pairs whose
numerator is zero exactly when the expression is: zero is decidable for
rational trees.  The canonical form (Fraction coefficients, coprime parts,
monic denominator) is computed where it is read.  With
function atoms the zero test falls back to sampling at random rational
points and labels its verdict as probabilistic.

Grammar (see README for the EBNF): integer literals, rationals written
``p/q``, identifiers ``[A-Za-z_][A-Za-z0-9_]*``, operators ``+ - * / ^`` with
standard precedence (``^`` binds tightest and takes an integer exponent), and
function application ``sin(...)``.

Expressions are immutable after construction, with one deferred step: a sum
rebuilt from a normal form builds its term trees on the first read of its
terms, idempotently and under a lock, and is a plain Add from then on.  Every
operation here is a pure function, so values can be shared freely across
threads.
"""

from __future__ import annotations

import heapq
import keyword
import math
import operator
import random
import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

from .errors import EvaluationError, LiesysError, ParseError

__all__ = [
    "FUNCTIONS",
    "Chart",
    "Expr",
    "Const",
    "Var",
    "Add",
    "Mul",
    "Pow",
    "Div",
    "Call",
    "parse",
    "differentiate",
    "is_zero",
    "ZeroDecision",
    "evaluate",
    "substitute",
    "canonical_expr",
    "canonically_equal",
    "free_variables",
    "compile_vector",
    "compile_source",
    "python_source",
    "random_rational",
]

FUNCTIONS = ("sin", "cos", "exp", "ln")

_MATH = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "ln": math.log}


@dataclass(frozen=True)
class Chart:
    """Ordered coordinate names of a local chart."""

    names: tuple[str, ...]

    def __post_init__(self):
        if isinstance(self.names, list):
            object.__setattr__(self, "names", tuple(self.names))
        if len(self.names) < 1:
            raise ValueError("chart needs at least one coordinate")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate coordinate names in {self.names}")
        for name in self.names:
            if not isinstance(name, str) or not name.isidentifier() or keyword.iskeyword(name):
                raise ValueError(f"bad coordinate name {name!r}")
            if name in FUNCTIONS:
                raise ValueError(f"coordinate name {name!r} shadows a function")

    @property
    def dim(self) -> int:
        return len(self.names)


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------


def _as_expr(value) -> "Expr":
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Const(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to Expr (use Fraction, not float)")


class Expr:
    """Base class of all expression nodes.  Immutable; arithmetic builds new trees."""

    __slots__ = ("_nf",)
    precedence = 100

    def __init__(self):
        self._nf = None

    # -- arithmetic sugar ---------------------------------------------------
    def __add__(self, other):
        return Add((self, _as_expr(other)))

    def __sub__(self, other):
        return Add((self, Mul((Const(-1), _as_expr(other)))))

    def __mul__(self, other):
        return Mul((self, _as_expr(other)))

    def __neg__(self):
        return Mul((Const(-1), self))

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            raise TypeError("exponents must be integers")
        return _make_pow(self, exponent)

    def __str__(self) -> str:
        return self._render()

    def __repr__(self) -> str:
        text = self._render()  # first: it turns an unbuilt sum into an Add
        return f"<{type(self).__name__} {text}>"

    def _render(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError

    def _nf_compute(self):  # pragma: no cover - overridden
        raise NotImplementedError


class Const(Expr):
    __slots__ = ("value",)
    precedence = 100

    def __init__(self, value):
        super().__init__()
        if isinstance(value, float):
            raise TypeError("Const takes int or Fraction, not float")
        self.value = value if isinstance(value, Fraction) else Fraction(value)

    def _render(self) -> str:
        return _rational_str(self.value)

    def _nf_compute(self):
        v = self.value
        den = _PONE if v.denominator == 1 else {0: v.denominator}
        return _NF({0: v.numerator} if v else {}, den, False, reduced=True)


class Var(Expr):
    __slots__ = ("name",)
    precedence = 100

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def _render(self) -> str:
        return self.name

    def _nf_compute(self):
        return _NF({_ATOMS.unit(self.name, self): 1}, _PONE, False, reduced=True)


class Add(Expr):
    __slots__ = ("terms",)
    precedence = 1

    def __init__(self, terms: Iterable[Expr]):
        super().__init__()
        self.terms = tuple(terms)
        if not self.terms:
            raise ValueError("empty sum")

    def _render(self) -> str:
        parts = [_wrap(self.terms[0], self.precedence)]
        for t in self.terms[1:]:
            s = _wrap(t, self.precedence)
            if s.startswith("-"):
                parts.append(f" - {s[1:]}")
            else:
                parts.append(f" + {s}")
        return "".join(parts)

    def _nf_compute(self):
        return _nf_sum(_nf_of(t) for t in self.terms)


_TERMS = Add.terms  # the slot itself, beneath _PolySum's property
_BUILD = threading.Lock()


class _PolySum(Add):
    """The sum of a polynomial's terms, two or more, each coefficient divided
    by lc: the terms slot holds the pair (polynomial, lc) until the first
    read of `terms` builds the term trees (_poly_terms, where the Fractions
    are made) and turns the node into a plain Add, whose later reads take
    the slot directly."""

    __slots__ = ()

    def __init__(self, poly, lc):
        Expr.__init__(self)
        _TERMS.__set__(self, (poly, lc))

    @property
    def terms(self):
        with _BUILD:  # one build per node, so racing readers get one tuple
            if type(self) is _PolySum:
                _TERMS.__set__(self, _poly_terms(*_TERMS.__get__(self)))
                self.__class__ = Add
        return _TERMS.__get__(self)


class Mul(Expr):
    __slots__ = ("factors",)
    precedence = 2

    def __init__(self, factors: Iterable[Expr]):
        super().__init__()
        self.factors = tuple(factors)
        if not self.factors:
            raise ValueError("empty product")

    def _render(self) -> str:
        factors = list(self.factors)
        sign = ""
        if isinstance(factors[0], Const) and factors[0].value == -1 and len(factors) > 1:
            sign = "-"
            factors = factors[1:]
        return sign + "*".join(_wrap(f, self.precedence) for f in factors)

    def _nf_compute(self):
        return _nf_product(_nf_of(f) for f in self.factors)


class Pow(Expr):
    __slots__ = ("base", "exponent")
    precedence = 4

    def __init__(self, base: Expr, exponent: int):
        super().__init__()
        if not isinstance(exponent, int) or exponent < 2:
            raise ValueError("Pow stores integer exponents >= 2; use _make_pow / ** for the rest")
        self.base = base
        self.exponent = exponent

    def _render(self) -> str:
        return f"{_wrap(self.base, self.precedence)}^{self.exponent}"

    def _nf_compute(self):
        if isinstance(self.base, Var):  # x^e: the one monomial _ppow would build
            if self.exponent >> 63:
                _past_the_field(self.base.name)
            return _NF({_ATOMS.unit(self.base.name, self.base) * self.exponent: 1}, _PONE, False,
                       reduced=True)
        nf = _nf_of(self.base)
        num, den = nf.reduced()
        # a part's leading coefficient c gives c^exponent at the power's
        # leading monomial: refuse before multiplying out what cannot fit
        for part in (num, den):
            if part:
                _bound_power(_lc(part), self.exponent)
        # coprime parts stay so under powers
        return _NF(_ppow(num, self.exponent), _ppow(den, self.exponent), nf.trans, reduced=True)


class Div(Expr):
    __slots__ = ("numerator", "denominator")
    precedence = 2

    def __init__(self, numerator: Expr, denominator: Expr):
        super().__init__()
        self.numerator = numerator
        self.denominator = denominator

    def _render(self) -> str:
        num = _wrap(self.numerator, self.precedence)
        den_simple = isinstance(self.denominator, (Var, Call)) or (
            isinstance(self.denominator, Const) and self.denominator.value >= 0
            and self.denominator.value.denominator == 1
        )
        den = self.denominator._render() if den_simple else f"({self.denominator._render()})"
        return f"{num}/{den}"

    def _nf_compute(self):
        a, b = _nf_of(self.numerator), _nf_of(self.denominator)
        (an, ad), (bn, bd) = a.num_den, b.num_den
        if not bn:
            raise EvaluationError("division by an expression that is identically zero")
        return _NF(_pmul(an, bd), _pmul(ad, bn), a.trans or b.trans)


class Call(Expr):
    __slots__ = ("fn", "arg")
    precedence = 100

    def __init__(self, fn: str, arg: Expr):
        super().__init__()
        if fn not in FUNCTIONS:
            raise ValueError(f"unknown function {fn!r}")
        self.fn = fn
        self.arg = arg

    def _render(self) -> str:
        return f"{self.fn}({self.arg._render()})"

    def _nf_compute(self):
        arg_nf = _nf_of(self.arg)
        key = f"{self.fn}({_nf_str(*arg_nf.canonical())})"
        unit = _ATOMS.units.get(key)
        if unit is None:
            unit = _ATOMS.unit(key, Call(self.fn, _expr_from_nf(arg_nf)))
        return _NF({unit: 1}, _PONE, True, reduced=True)


def _wrap(e: Expr, parent_precedence: int) -> str:
    s = e._render()
    if e.precedence < parent_precedence:
        return f"({s})"
    if parent_precedence == Pow.precedence and not isinstance(e, (Var, Call)):
        return f"({s})"
    return s


def _chain(cls, operands: list) -> Expr:
    return operands[0] if len(operands) == 1 else cls(tuple(operands))


def _make_pow(base: Expr, exponent: int) -> Expr:
    if exponent == 0:
        return Const(1)
    if exponent == 1:
        return base
    if exponent < 0:
        return Div(Const(1), _make_pow(base, -exponent))
    return Pow(base, exponent)


# ---------------------------------------------------------------------------
# Normal forms: a quotient of expanded polynomials over Z, reduced to coprime
# parts only where that is read, and to the canonical form (Fraction
# coefficients, monic denominator) only where that form is read.
# A polynomial is a dict mapping monomials to coefficients: int in the folded
# and reduced pairs, Fraction in canonical forms.  A tree rebuilt from a
# normal form holds the reduced pair and the leading coefficient of its
# denominator, and makes Fractions only where it builds a term: when a
# sum's terms are first read, or at once for a one-term polynomial.  The
# canonical form itself is made where it is read: by canonical equality,
# by the keys of function atoms and by the echelon.  An atom is a variable
# name or the canonical key of a function application, and its slot is the
# order in which _ATOMS first registered it.  A monomial is one int, with the
# exponent of the atom in slot i in bits [64 i, 64 i + 64): 1 is the monomial
# 0, and a monomial product is an integer sum.  An exponent stays below 2^63,
# the top bit of its field, which each product and each fold of x^e test.
# Exponents are read by atom name only through _pairs, which decodes a
# monomial into (atom, exponent) pairs sorted by atom, so term order and
# every rendering follow the names and not the slots.
# Ownership: the dicts of a built _NF, of _PONE and of the _NF_ONE and
# _NF_ZEROS constants are shared and never written, so a new _NF may hold
# them uncopied: an integer Const holds _PONE, a product its first factor's
# numerator (_nf_product), and a partial over a denominator that the
# derivation leaves constant holds that denominator (_nf_quotient).  Only
# the accumulators write a dict: _padd_into and _pmul_into add into the
# `out` they are given, and _nf_sum and _nf_dot add into numerators they
# create themselves, so they neither copy nor write an input.  Every other
# helper leaves its inputs as they are.  A monomial is an int and a decoding
# a tuple, so the one memoised decoding of a monomial is shared as it is.
# The slots grow with _ATOMS, and _pairs keeps its decodings in an LRU cache
# bounded at PAIRS_MEMO entries: one cycle of the benchmark's cli, exact and
# trajectories workloads at seed 7 leaves 33, 31 and 20 slots, and 132, 109
# and 80 decodings in use.
# ---------------------------------------------------------------------------

_PONE = {0: 1}
_FIELD = 2**64 - 1  # one slot's exponent field
_QZERO = Fraction(0)


class _AtomTable(dict):
    """atom key -> the Expr that reconstructs it (Var or Call), append-only.
    A key's slot is the order of its first registration: `slots` lists the
    keys by slot, `units` maps each key to its monomial (the atom to the
    first power), and `tops` masks the top bit of every slot's field.
    unit() is the one writer of all four, under a lock, so racing folds
    never give two keys one slot; it publishes a key's monomial last."""

    __slots__ = ("slots", "units", "tops", "_lock")

    def __init__(self):
        super().__init__()
        self.slots, self.units, self.tops, self._lock = [], {}, 0, threading.Lock()

    def unit(self, key: str, atom: Expr) -> int:
        """key's monomial; a new key is registered with atom."""
        unit = self.units.get(key)
        if unit is None:
            with self._lock:
                unit = self.units.get(key)
                if unit is None:
                    unit = 1 << 64 * len(self.slots)
                    self[key] = atom
                    self.slots.append(key)
                    self.tops |= unit << 63
                    self.units[key] = unit
        return unit


# Filled by the folds of Var, of a Var's power and of Call.  Derivations
# (_nf_derive) look function atoms up here and may add entries (cos(u) for
# the rate of sin(u)), and every monomial reads its atoms' keys and slots
# here, so any scoping of this table must keep every atom of a live normal
# form, and of a live unbuilt sum (_PolySum), reachable.
_ATOMS = _AtomTable()


class _NF:
    """A node's value as num/den, integer-coefficient polynomials folded from
    its children's pairs with no gcd: num is {} exactly when the value is
    zero.  The pair shares no integer content, and a constant denominator
    is a positive {0: d}.  `trans` marks a function atom anywhere below;
    reduced=True declares the parts coprime already."""

    __slots__ = ("num_den", "trans", "_reduced", "_canonical")

    def __init__(self, num, den, trans, reduced=False):
        if not num:
            den = _PONE
        elif not reduced and den != _PONE:
            g = math.gcd(*den.values())
            if g != 1:
                g = math.gcd(g, *num.values())
            if len(den) == 1 and den.get(0, 0) < 0:
                g = -g
            if g != 1:
                num = {m: c // g for m, c in num.items()}
                den = {m: c // g for m, c in den.items()}
        self.num_den = (num, den)
        self.trans = trans
        self._reduced = self.num_den if reduced else None
        self._canonical = None

    def reduced(self):
        """num_den with coprime parts over Z: both divided by their primitive
        gcd, which keeps them free of shared content; computed at most once."""
        if self._reduced is None:
            num, den = self.num_den
            if not _is_const_poly(den):
                g = _gcd_core(num, den)
                if not _is_const_poly(g):
                    num, den = _pdiv_exact(num, g), _pdiv_exact(den, g)
            self._reduced = (num, den)
        return self._reduced

    def canonical(self):
        """The canonical (num, den): reduced() divided by the leading
        coefficient of its denominator, so Fraction coefficients, coprime
        parts and a monic denominator; computed at most once."""
        if self._canonical is None:
            num, den = self.reduced()
            lc = _lc(den)
            scale = Fraction if lc == 1 else (lambda c: Fraction(c, lc))
            self._canonical = tuple({m: scale(c) for m, c in p.items()} for p in (num, den))
        return self._canonical


def _nf_of(e: Expr) -> _NF:
    nf = e._nf
    if nf is None:
        nf = e._nf_compute()
        e._nf = nf
    return nf


def _nf_sum(nfs: Iterable[_NF]) -> _NF:
    """The sum of normal forms with no gcd, added in place into one numerator
    that _nf_sum creates, so no input is copied or written: a common
    denominator is kept rather than squared, constant ones combine by their
    lcm, and other unlike ones are cross-multiplied."""
    num, den, trans = {}, _PONE, False
    for nf in nfs:
        tnum, tden = nf.num_den
        trans = trans or nf.trans
        if tden == den:
            _padd_into(num, tnum)
        elif _is_const_poly(den) and _is_const_poly(tden):
            d, td = den[0], tden[0]
            lcm = math.lcm(d, td)
            if lcm != d:
                for m in num:
                    num[m] *= lcm // d
            _padd_into(num, tnum, lcm // td)
            den = {0: lcm}
        else:
            num = _pmul(num, tden)
            _pmul_into(num, tnum, den)
            den = _pmul(den, tden)
    return _NF(num, den, trans)


def _nf_dot(terms, trans: bool = False) -> _NF:
    """The sum of sign * a * b over (sign, a, b) triples of normal forms,
    with no normal form per product.  Products over constant denominators
    are multiplied straight into one numerator over the lcm L of their
    d_a * d_b, each scaled by L / (d_a * d_b).  Products over a non-constant
    denominator go into one numerator per distinct denominator, and the
    distinct ones are joined over their lcm, D * (E / gcd(D, E)), not D * E,
    which keeps the final reduction small.  `trans` is set when it is passed
    or any factor has a function atom."""
    const, groups, lcm = [], [], 1
    for sign, a, b in terms:
        (an, ad), (bn, bd) = a.num_den, b.num_den
        trans = trans or a.trans or b.trans
        if not (an and bn):
            continue
        if _is_const_poly(ad) and _is_const_poly(bd):
            d = ad[0] * bd[0]
            lcm = math.lcm(lcm, d)
            const.append((sign, an, bn, d))
            continue
        den = _pmul(ad, bd)
        for gden, gnum in groups:
            if gden == den:
                break
        else:
            gnum = {}
            groups.append((den, gnum))
        _pmul_into(gnum, an, bn, sign)
    num = {}
    for sign, an, bn, d in const:
        _pmul_into(num, an, bn, sign * (lcm // d))
    den = _PONE if lcm == 1 else {0: lcm}
    for gden, gnum in groups:
        if gnum:
            # num/den + gnum/gden over den * (gden / g)
            g = _gcd_core(den, gden)
            a, b = (den, gden) if _is_const_poly(g) else (_pdiv_exact(den, g), _pdiv_exact(gden, g))
            num = _pmul(num, b)
            _pmul_into(num, gnum, a)
            den = _pmul(den, b)
    return _NF(num, den, trans)


def _nf_product(nfs: Iterable[_NF]) -> _NF:
    """The product of normal forms, folded with no gcd: the first factor's
    numerator is taken as it is, and a denominator of 1 is skipped."""
    num, den, trans = None, _PONE, False
    for nf in nfs:
        n, d = nf.num_den
        num = n if num is None else _pmul(num, n)
        if d != _PONE:
            den = d if den is _PONE else _pmul(den, d)
        trans = trans or nf.trans
    return _NF(_PONE if num is None else num, den, trans)


def _padd(p, q):
    out = dict(p)
    _padd_into(out, q)
    return out


def _padd_into(out, q, c=1):
    """out += c * q, in place."""
    for m, k in q.items():
        if c != 1:
            k *= c
        s = out.get(m)
        if s is None:
            out[m] = k
        else:
            s += k
            if s:
                out[m] = s
            else:
                del out[m]


def _pneg(p):
    return {m: -c for m, c in p.items()}


def _pscale(p, c):
    if not c:
        return {}
    if c == 1:
        return dict(p)
    return {m: k * c for m, k in p.items()}


def _pmul(p, q):
    if not p or not q:
        return {}
    if len(p) == 1 and 0 in p:
        return _pscale(q, p[0])
    if len(q) == 1 and 0 in q:
        return _pscale(p, q[0])
    out: dict = {}
    _pmul_into(out, p, q)
    return out


def _pmul_into(out, p, q, c=1):
    """out += c * p * q, in place; raises LiesysError past MAX_TERM_PAIRS
    term pairs unless p or q is a constant, and past an exponent of 2^63."""
    if len(p) == 1 and 0 in p:
        _padd_into(out, q, c * p[0])
        return
    if len(q) == 1 and 0 in q:
        _padd_into(out, p, c * q[0])
        return
    if len(p) * len(q) > MAX_TERM_PAIRS:
        raise LiesysError(
            f"expanding a product of {len(p)} by {len(q)} terms exceeds "
            f"{MAX_TERM_PAIRS} term pairs"
        )
    tops = _ATOMS.tops
    for m1, c1 in p.items():
        if c != 1:
            c1 *= c
        for m2, c2 in q.items():
            m = m1 + m2
            if m & tops:
                _past_the_field(next(a for a, e in _pairs(m) if e >> 63))
            s = out.get(m)
            if s is None:
                out[m] = c1 * c2
            else:
                s += c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]


def _ppow(p, k: int):
    out = dict(_PONE)
    base = p
    while k:
        if k & 1:
            out = _pmul(out, base)
        k >>= 1
        if k:
            base = _pmul(base, base)
    return out


# Most monomials _pairs keeps decoded; see the note above.
PAIRS_MEMO = 2**12


@lru_cache(maxsize=PAIRS_MEMO)
def _pairs(m: int) -> tuple[tuple[str, int], ...]:
    """The (atom, exponent) pairs of monomial m, sorted by atom: the one
    reader of exponents by atom name.  A slot's atom never changes, so the
    pairs are memoised process-wide."""
    pairs, slots, slot = [], _ATOMS.slots, 0
    while m:
        e = m & _FIELD
        if e:
            pairs.append((slots[slot], e))
        m >>= 64
        slot += 1
    return tuple(sorted(pairs))


def _past_the_field(atom: str):
    raise LiesysError(f"an exponent of {atom} would reach 2^63; exponents must stay below 2^63")


def _atoms_of(*polys) -> list[str]:
    """The atoms of polys, sorted: those of the bitwise or of their monomials."""
    present = 0
    for p in polys:
        for m in p:
            present |= m
    return [a for a, _ in _pairs(present)]


def _dense(m, atoms: Sequence[str]):
    d = dict(_pairs(m))
    return tuple([d.get(a, 0) for a in atoms])


def _grlex(m, atoms: Sequence[str]):
    """m's graded lexicographic key on atoms, which hold every atom of m."""
    dense = _dense(m, atoms)
    return (sum(dense), *dense)


def _lead(p, atoms: Sequence[str]):
    """Leading monomial under graded lexicographic order on the given atoms."""
    return max(p, key=lambda m: _grlex(m, atoms))


def _lc(p) -> int:
    """The coefficient of a nonzero polynomial's leading monomial (_lead
    over its own atoms)."""
    return next(iter(p.values())) if len(p) == 1 else p[_lead(p, _atoms_of(p))]


def _pdiv_exact(p, q):
    """Exact division p / q of polys, over Z where both coefficients of a
    step are int and over Q otherwise; raises ArithmeticError if q does not
    divide p.  Monomials are keyed by negated (total degree, dense
    exponents): products are key sums, and the graded-lex leading monomial of
    the remainder is the least key on a heap (cancelled keys are skipped).
    q's tail is subtracted in place."""
    if not p:
        return {}
    atoms = _atoms_of(p, q)
    index = {a: i for i, a in enumerate(atoms)}
    units = [_ATOMS.units[a] for a in atoms]

    def key(m):
        k = [0] * len(atoms)
        for a, e in _pairs(m):
            k[index[a]] = -e
        return (sum(k), *k)

    rem = {key(m): c for m, c in p.items()}
    heap = sorted(rem)  # a sorted list is a heap
    (lq, cq), *tail = sorted((key(m), c) for m, c in q.items())
    quot: dict = {}
    while heap:
        lr = heapq.heappop(heap)
        c = rem.pop(lr, None)
        if c is None:
            continue
        shift = tuple(map(operator.sub, lr, lq))
        coeff, r = divmod(c, cq) if isinstance(c, int) and isinstance(cq, int) else (c / cq, 0)
        if r or max(shift) > 0:
            raise ArithmeticError("inexact polynomial division")
        quot[sum(-d * u for d, u in zip(shift[1:], units))] = coeff
        for k, ck in tail:
            m = tuple(map(operator.add, shift, k))
            if m not in rem:
                heapq.heappush(heap, m)
            v = rem.get(m, 0) - coeff * ck
            if v:
                rem[m] = v
            else:
                del rem[m]
    return quot


def _split(m, atom: str) -> tuple[int, int]:
    """(e, rest) with m = atom^e * rest."""
    for a, e in _pairs(m):
        if a == atom:
            return e, m - e * _ATOMS.units[atom]
    return 0, m


def _degree_in(p, atom: str) -> int:
    return max((_split(m, atom)[0] for m in p), default=0)


def _as_univariate(p, atom: str) -> dict[int, dict]:
    """View p as a polynomial in `atom` with polynomial coefficients."""
    out: dict[int, dict] = {}
    for m, c in p.items():
        e, rest = _split(m, atom)
        coeff = out.setdefault(e, {})
        coeff[rest] = coeff.get(rest, 0) + c
    for e in list(out):
        out[e] = {m: c for m, c in out[e].items() if c}
        if not out[e]:
            del out[e]
    return out


def _from_univariate(coeffs: dict[int, dict], atom: str) -> dict:
    out: dict = {}
    unit = _ATOMS.units[atom]
    for e, poly in coeffs.items():
        out = _padd(out, _pmul(poly, {e * unit: 1}))
    return out


def _content_wrt(p, atom: str):
    """gcd of the coefficients of p viewed as univariate in atom."""
    g: dict | None = None
    for poly in _as_univariate(p, atom).values():
        g = dict(poly) if g is None else _gcd_core(g, poly)
        if g == _PONE:
            return dict(_PONE)
    return g if g is not None else {}


def _is_const_poly(p) -> bool:
    return not p or (len(p) == 1 and 0 in p)


def _gcd_inner(p, q):
    """gcd of nonzero polynomials, up to a rational unit (primitive PRS)."""
    if _is_const_poly(p) or _is_const_poly(q):
        return dict(_PONE)
    atoms = _atoms_of(p, q)
    x = atoms[-1]
    dp, dq = _degree_in(p, x), _degree_in(q, x)
    if dp == 0:
        return _gcd_core(p, _content_wrt(q, x))
    if dq == 0:
        return _gcd_core(_content_wrt(p, x), q)
    cp, cq = _content_wrt(p, x), _content_wrt(q, x)
    c = _gcd_core(cp, cq)
    u = _pdiv_exact(p, cp)
    v = _pdiv_exact(q, cq)
    if dp < dq:
        u, v = v, u
    while True:
        r = _prem(u, v, x)
        if not r:
            g = v
            break
        if _degree_in(r, x) == 0:
            g = dict(_PONE)
            break
        u, v = v, _primitive_wrt(r, x)
    if not _is_const_poly(g):
        g = _primitive_wrt(g, x)
    return _pmul(c, g)


def _primitive_wrt(p, atom: str):
    cont = _content_wrt(p, atom)
    if cont == _PONE:
        return dict(p)
    return _pdiv_exact(p, cont)


def _prem(u, v, atom: str):
    """Pseudo-remainder of u by v with respect to atom."""
    uc = _as_univariate(u, atom)
    vc = _as_univariate(v, atom)
    dv = max(vc)
    lv = vc[dv]
    r = uc
    while r and max(r) >= dv:
        dr = max(r)
        lr = r[dr]
        scaled = {e: _pmul(c, lv) for e, c in r.items()}
        sub = {e + dr - dv: _pmul(c, lr) for e, c in vc.items()}
        new: dict[int, dict] = {}
        for e in set(scaled) | set(sub):
            val = _padd(scaled.get(e, {}), _pneg(sub.get(e, {})))
            if val:
                new[e] = val
        r = new
    return _from_univariate(r, atom)


# -- heuristic gcd: evaluate at a large integer, gcd the images, rebuild the
#    polynomial from balanced base-xi digits, and confirm by trial division.
#    Sound because candidates are verified; the pseudo-remainder route above
#    stays as the fallback when the heuristic gives up.


def _int_primitive(p):
    """A nonzero int or Fraction poly scaled to primitive int coefficients."""
    scale = math.lcm(*(c.denominator for c in p.values()))
    ints = {m: c.numerator * (scale // c.denominator) for m, c in p.items()}
    content = math.gcd(*ints.values())
    return ints if content == 1 else {m: v // content for m, v in ints.items()}


def _eval_atom_int(p, atom: str, xi: int):
    """p with `atom` set to the integer xi.  Each distinct power xi**e is
    computed once: xi is a big integer, and many terms share an exponent."""
    out: dict = {}
    powers: dict = {}
    for m, c in p.items():
        e, rest = _split(m, atom)
        if e not in powers:
            powers[e] = xi**e
        out[rest] = out.get(rest, 0) + c * powers[e]
    return {m: c for m, c in out.items() if c}


def _genpoly(gamma, xi: int, atom: str):
    """Rebuild sum_j d_j * atom^j from balanced base-xi digits of gamma."""
    out: dict = {}
    unit = _ATOMS.units[atom]
    level = dict(gamma)
    j = 0
    while level:
        digits = {}
        for m, c in level.items():
            r = c % xi
            if 2 * r > xi:
                r -= xi
            if r:
                digits[m] = r
        for m, c in digits.items():
            key = m + j * unit
            out[key] = out.get(key, 0) + c
        nxt = {}
        for m in set(level) | set(digits):
            v = level.get(m, 0) - digits.get(m, 0)
            if v:
                nxt[m] = v // xi
        level = nxt
        j += 1
    return {m: c for m, c in out.items() if c}


def _int_content(p) -> int:
    return math.gcd(*p.values())


def _divides(candidate, p) -> bool:
    """Whether the nonzero candidate divides p over Q, for integer polys.  By
    Gauss's lemma it does exactly when its primitive part divides p over Z,
    so a constant candidate, whose primitive part is ±1, always divides and
    is accepted without a trial division."""
    if _is_const_poly(candidate):
        return True
    content = _int_content(candidate)
    try:
        _pdiv_exact(p, {m: c // content for m, c in candidate.items()})
        return True
    except ArithmeticError:
        return False


def _heu_gcd(p, q):
    """Heuristic gcd of integer-coefficient polys, or None when it gives up."""
    p_const, q_const = _is_const_poly(p), _is_const_poly(q)
    if p_const or q_const:
        a = abs(p[0]) if p_const else _int_content(p)
        b = abs(q[0]) if q_const else _int_content(q)
        return {0: math.gcd(a, b)}
    atoms = _atoms_of(p, q)
    x = atoms[-1]
    height = min(max(abs(c) for c in p.values()), max(abs(c) for c in q.values()))
    xi = 2 * height + 29
    degree = max(_degree_in(p, x), _degree_in(q, x))
    for _ in range(6):
        if (degree + 1) * xi.bit_length() > 200_000:
            return None
        pe, qe = _eval_atom_int(p, x, xi), _eval_atom_int(q, x, xi)
        if pe and qe:
            gamma = _heu_gcd(pe, qe)
            if gamma is not None:
                # reconstruct from the raw image: integer contents inside the
                # recursion are evaluated polynomial factors of the gcd and
                # must not be stripped before the digits are decoded
                candidate = _genpoly(gamma, xi, x)
                if candidate and _divides(candidate, p) and _divides(candidate, q):
                    return candidate
        xi = xi * 73794 // 27011
    return None


def _gcd_core(p, q):
    """The primitive gcd over Z of nonzero int or Fraction polys, up to sign."""
    if _is_const_poly(p) or _is_const_poly(q):
        return dict(_PONE)
    p, q = _int_primitive(p), _int_primitive(q)
    short, long = sorted((p, q), key=len)
    if _divides(short, long):
        # with _heu_gcd's sign: positive lexicographic leading coefficient
        atoms = _atoms_of(short)
        return short if short[max(short, key=lambda m: _dense(m, atoms))] > 0 else _pneg(short)
    heuristic = _heu_gcd(p, q)
    return _int_primitive(heuristic if heuristic is not None else _gcd_inner(p, q))


def _sorted_terms(p):
    atoms = _atoms_of(p)
    return sorted(p.items(), key=lambda item: _grlex(item[0], atoms), reverse=True)


def _int_str(v: int) -> str:
    try:
        return str(v)
    except ValueError:  # past Python's integer-to-string limit
        raise LiesysError(f"a constant of {v.bit_length()} bits is too large to write out") from None


def _rational_str(q: Fraction) -> str:
    n, d = q.numerator, q.denominator
    return _int_str(n) if d == 1 else f"{_int_str(n)}/{_int_str(d)}"


def _poly_str(p) -> str:
    if not p:
        return "0"
    parts = []
    for mono, coeff in _sorted_terms(p):
        factors = [f"{a}^{e}" if e > 1 else a for a, e in _pairs(mono)]
        if not factors:
            body = _rational_str(abs(coeff))
        else:
            c = abs(coeff)
            body = "*".join(([] if c == 1 else [_rational_str(c)]) + factors)
        parts.append(("-" if coeff < 0 else "+", body))
    sign, body = parts[0]
    text = body if sign == "+" else f"-{body}"
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _nf_str(num, den) -> str:
    if den == _PONE:
        return _poly_str(num)
    return f"({_poly_str(num)})/({_poly_str(den)})"


def _poly_terms(p, lc) -> tuple[Expr, ...]:
    """The term trees of a nonzero polynomial divided by lc, leading term
    first: the one builder of terms, run at once for one term and on first
    read for more."""
    terms = []
    for mono, coeff in _sorted_terms(p):
        factors: list[Expr] = []
        if coeff != lc or not mono:
            factors.append(Const(coeff if lc == 1 else Fraction(coeff, lc)))
        for atom, e in _pairs(mono):
            factors.append(_make_pow(_ATOMS[atom], e))
        terms.append(_chain(Mul, factors))
    return tuple(terms)


def _expr_from_poly(p, lc=1) -> Expr:
    if not p:
        return Const(_QZERO)
    return _poly_terms(p, lc)[0] if len(p) == 1 else _PolySum(p, lc)


def _tree(num, den, nf: _NF, lc=1) -> Expr:
    """num/den divided through by lc as a tree that carries nf; a
    denominator of lc is left out."""
    top = _expr_from_poly(num, lc)
    e = top if den == {0: lc} else Div(top, _expr_from_poly(den, lc))
    e._nf = nf
    return e


def _tree_of(nf: _NF) -> Expr:
    """nf's integer (num, den) pair as it stands, as a tree that carries nf."""
    return _tree(*nf.num_den, nf)


def _expr_from_nf(nf: _NF) -> Expr:
    """nf's canonical form as a tree that carries nf's reduced integer pair:
    the pair divided by the leading coefficient of its denominator, with
    each Fraction made where a term is built.  A zero is Const(0) carrying
    nf itself, with no gcd or Fraction built."""
    if not nf.num_den[0]:
        return _tree_of(nf)
    num, den = nf.reduced()
    return _tree(num, den, _NF(num, den, nf.trans, reduced=True), _lc(den))


def canonical_expr(e: Expr) -> Expr:
    """Rebuild e from its canonical form (expanded, collected, reduced)."""
    return _expr_from_nf(_nf_of(e))


def _brief(e: Expr, text: str, label: str = "") -> str:
    """text, e's rendering, if it has at most MAX_DETAIL_CHARS characters;
    else the label, the term count of e's normal form and text's first
    MAX_DETAIL_CHARS characters."""
    if len(text) <= MAX_DETAIL_CHARS:
        return text
    num, den = _nf_of(e).num_den
    terms = f"{len(num)} terms" if den == _PONE else f"{len(num)} terms over {len(den)}"
    return f"{label}{terms}, {text[:MAX_DETAIL_CHARS]}..."


def canonically_equal(a: Expr, b: Expr) -> bool:
    """Exact equality of canonical forms (formal equality over the atoms)."""
    return _nf_of(a).canonical() == _nf_of(b).canonical()


def free_variables(e: Expr) -> frozenset[str]:
    """Variable names occurring in the tree, including inside function arguments."""
    out: set[str] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, Add):
            terms = _TERMS.__get__(node)
            if isinstance(terms[0], dict):  # an unbuilt sum: its polynomial's atoms
                terms = [_ATOMS[a] for a in _atoms_of(terms[0])]
            stack.extend(terms)
        elif isinstance(node, Mul):
            stack.extend(node.factors)
        elif isinstance(node, Pow):
            stack.append(node.base)
        elif isinstance(node, Div):
            stack.append(node.numerator)
            stack.append(node.denominator)
        elif isinstance(node, Call):
            stack.append(node.arg)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()])")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# Deepest nesting of parentheses, unary minus, function calls and quotients
# (a/b/c puts a two quotients deep) that parse() accepts; every tree walk
# recurses once per level, so this keeps them far below the recursion limit.
MAX_NESTING = 32
# Most binary operators in one expression.  A run of + - or * is one flat node but
# compiles to Python as deep as the run, and nested runs add up; CPython stops near 3,000.
MAX_OPERATORS = 1000
# Largest exact power evaluate() computes, in bits of the numerator or the
# denominator, and largest leading coefficient of a power's normal form:
# nested powers that parse in a few levels would otherwise build numbers of
# billions of digits.
MAX_EXACT_BITS = 2**20
# Most term pairs one polynomial product multiplies out, at a few microseconds
# each: expanding (x+1)^100000 squares ever longer polynomials and would not end.
MAX_TERM_PAIRS = 2**18
# Longest rendering of one expression that a report's detail text quotes in
# full; a longer one is quoted as its term count and a prefix this long.
MAX_DETAIL_CHARS = 200
# is_zero with function atoms: random points sampled, largest |value| taken as zero.
ZERO_TEST_SAMPLES = 32
ZERO_TEST_TOL = 1e-9


class _Parser:
    def __init__(self, text: str, names):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.names = frozenset(names)
        self.depth = 0
        self.peak = 0  # deepest level entered in the current term, quotients included
        self.operators = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, at = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", at)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expression()
        kind, value, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", at)
        return e

    def operator(self, ops: str) -> str | None:
        """The next token, consumed, if it is one of the binary operators ops."""
        kind, value, at = self.peek()
        if kind != "op" or value not in ops:
            return None
        self.operators += 1
        if self.operators > MAX_OPERATORS:
            raise ParseError(f"more than {MAX_OPERATORS} binary operators", at)
        self.advance()
        return value

    def expression(self) -> Expr:
        terms = [self.term()]
        while op := self.operator("+-"):
            rhs = self.term()
            terms.append(rhs if op == "+" else -rhs)
        return _chain(Add, terms)

    def term(self) -> Expr:
        outer_peak, self.peak = self.peak, self.depth
        factors = [self.factor()]
        while op := self.operator("*/"):
            if op == "*":
                factors.append(self.factor())
            else:
                self.peak += 1  # the operands so far now sit one quotient deeper
                factors = [Div(_chain(Mul, factors), self.factor())]
        self.peak = max(outer_peak, self.peak)
        return _chain(Mul, factors)

    def factor(self) -> Expr:
        kind, value, at = self.peek()
        self.peak = max(self.peak, self.depth)
        if self.peak > MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels", at)
        self.depth += 1
        if kind == "op" and value == "-":
            self.advance()
            e = -self.factor()
        else:
            e = self.power()
        self.depth -= 1
        return e

    def power(self) -> Expr:
        base = self.primary()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return _make_pow(base, self.exponent())
        return base

    def exponent(self) -> int:
        opened = 0
        while self.peek()[:2] == ("op", "("):
            self.advance()
            opened += 1
        kind, value, at = self.peek()
        sign = 1
        if kind == "op" and value == "-":
            self.advance()
            sign = -1
            kind, value, at = self.peek()
        if kind != "int":
            raise ParseError("exponent must be an integer literal", at)
        self.advance()
        for _ in range(opened):
            self.expect_op(")")
        return sign * int(value)

    def primary(self) -> Expr:
        kind, value, at = self.advance()
        if kind == "int":
            return Const(int(value))
        if kind == "op" and value == "(":
            e = self.expression()
            self.expect_op(")")
            return e
        if kind == "name":
            if value in FUNCTIONS:
                self.expect_op("(")
                arg = self.expression()
                self.expect_op(")")
                return Call(value, arg)
            if value not in self.names:
                raise ParseError(f"unknown identifier {value!r}", at)
            return Var(value)
        raise ParseError(f"unexpected {value!r}" if value else "unexpected end of input", at)


def parse(text: str, names: Iterable[str] | Chart) -> Expr:
    """Parse infix text over the given variable names.

    Raises ParseError with a position for malformed input or identifiers not
    in `names` (function names sin/cos/exp/ln are always available).
    """
    if isinstance(names, Chart):
        names = names.names
    return _Parser(text, names).parse()


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------


# f'(u) for each function f: the rules both derivations below read
_DERIVATIVES = {
    "sin": lambda u: Call("cos", u),
    "cos": lambda u: -Call("sin", u),
    "exp": lambda u: Call("exp", u),
    "ln": lambda u: Div(Const(1), u),
}


# d/dv of Var(v): the unit factor that _product leaves out, since x*1 is x
_ONE = Const(1)


def _diff_tree(e: Expr, v: str) -> Expr:
    """de/dv as a tree by the product and quotient rules, for trees evaluated
    point by point (compiled Jacobians, sampled residuals, and exactly in
    superposition.transversality_rank): a power stays a power,
    where an expanded normal form would cancel far past rounding.  Terms that
    are identically zero and factors d/dv v = 1 are left out; the rest keeps
    the full rules' shape and order, so a nonzero value keeps its bits."""
    d = _dtree(e, v)
    return Const(0) if d is None else d


def _product(factors: tuple) -> Expr:
    kept = [f for f in factors if f is not _ONE]
    return _chain(Mul, kept) if kept else _ONE


def _dtree(e: Expr, v: str) -> Expr | None:
    """_diff_tree's derivative, None where it is identically zero."""
    if isinstance(e, Const):
        return None
    if isinstance(e, Var):
        return _ONE if e.name == v else None
    if isinstance(e, Add):
        terms = [d for d in (_dtree(t, v) for t in e.terms) if d is not None]
        return _chain(Add, terms) if terms else None
    if isinstance(e, Mul):
        fs = e.factors
        terms = [_product(fs[:i] + (d,) + fs[i + 1:])
                 for i, d in enumerate(_dtree(f, v) for f in fs) if d is not None]
        return _chain(Add, terms) if terms else None
    if isinstance(e, Pow):
        d = _dtree(e.base, v)
        return None if d is None else _product((Const(e.exponent), _make_pow(e.base, e.exponent - 1), d))
    if isinstance(e, Div):
        # (a'b - ab')/b^2 without its zero half: a'/b would round differently
        a, b = e.numerator, e.denominator
        da, db = _dtree(a, v), _dtree(b, v)
        top = ([] if da is None else [_product((da, b))]) + ([] if db is None else [-_product((a, db))])
        return Div(_chain(Add, top), Pow(b, 2)) if top else None
    if isinstance(e, Call):
        inner = _dtree(e.arg, v)
        if inner is None:
            return None
        if e.fn == "ln":  # u'/u, one rounding fewer than (1/u)*u'
            return Div(inner, e.arg)
        return _product((_DERIVATIVES[e.fn](e.arg), inner))
    raise TypeError(f"cannot differentiate {type(e).__name__}")


_NF_ONE = _NF(_PONE, _PONE, False, reduced=True)
# the derivative of a constant, indexed by its `trans`
_NF_ZEROS = (_NF({}, _PONE, False, reduced=True), _NF({}, _PONE, True, reduced=True))


def _nf_derive(nf: _NF, rates: Mapping[str, _NF]) -> _NF:
    """X(num/den) for the derivation X with X(v) = rates[v], by the chain rule
    over the atoms of the unreduced pair and the quotient rule; a function
    atom f(u) has the rate f'(u) X(u).  Exact, and expanded: trees evaluated in
    floats derive by _diff_tree.  `trans` is set when nf or any rate has a
    function atom."""
    num, den = nf.num_den
    trans = nf.trans or any(r.trans for r in rates.values())
    if _is_const_poly(num) and _is_const_poly(den):
        return _NF_ZEROS[trans]
    rates = {v: r for v, r in rates.items() if r.num_den[0]}
    if nf.trans:
        for a in _atoms_of(num, den):
            atom = _ATOMS.get(a)
            if isinstance(atom, Call):
                du = _nf_derive(_nf_of(atom.arg), rates)
                if du.num_den[0]:  # first, so ln of an identically zero u is skipped
                    rates[a] = _nf_product((_nf_of(_DERIVATIVES[atom.fn](atom.arg)), du))
    (an, ad) = _pdiff(num, rates).num_den
    (bn, bd) = ({}, _PONE) if _is_const_poly(den) else _pdiff(den, rates).num_den
    return _nf_quotient(num, den, an, ad, bn, bd, trans)


def _nf_quotient(num, den, an, ad, bn, bd, trans: bool) -> _NF:
    """X(num/den) by the quotient rule from X(num) = an/ad and X(den) =
    bn/bd; a den that X leaves constant (bn = {}) only divides an/ad."""
    if not bn:
        return _NF(an, den if ad == _PONE else _pmul(ad, den), trans)
    # (an/ad * den - num * bn/bd) / den^2 with g = gcd(den, bn) cancelled:
    # g holds den's repeated factors, which would swell the final reduction
    g = _gcd_core(den, bn)
    rest, bn = _pdiv_exact(den, g), _pdiv_exact(bn, g)
    top = _pmul(_pmul(an, bd), rest)
    _pmul_into(top, _pmul(num, bn), ad, -1)
    return _NF(top, _pmul(_pmul(ad, bd), _pmul(den, rest)), trans)


def _lowered(p, atoms) -> dict[str, dict]:
    """{a: dp/da} for the atoms a in `atoms` that p holds, read off one pass
    over p's monomials."""
    partials: dict[str, dict] = {}
    for m, c in p.items():
        for a, e in _pairs(m):
            if a in atoms:  # lowering one exponent keeps monomials apart
                partials.setdefault(a, {})[m - _ATOMS.units[a]] = c * e
    return partials


def _pdiff(p, rates: Mapping[str, _NF]) -> _NF:
    """X(p) by the chain rule: the sum over p's atoms a of dp/da (_lowered)
    times rates[a], multiplied into one numerator by _nf_dot with no normal
    form per atom."""
    return _nf_dot((1, _NF(q, _PONE, False), rates[a]) for a, q in _lowered(p, rates).items())


def _nf_partials(nf: _NF, names: Sequence[str]) -> dict[str, _NF]:
    """{v: d_v nf} for the names v whose partial is nonzero, each equal to
    _nf_derive(nf, {v: _NF_ONE}).  With no function atom, num and den are
    each lowered once (_lowered) for all the names; a function atom's chain
    rule runs through _nf_derive once per name."""
    if nf.trans:
        parts = ((v, _nf_derive(nf, {v: _NF_ONE})) for v in names)
    else:
        num, den = nf.num_den
        dnum, dden = _lowered(num, names), _lowered(den, names)
        parts = ((v, _nf_quotient(num, den, dnum.get(v, {}), _PONE, dden.get(v, {}), _PONE, False))
                 for v in names if v in dnum or v in dden)
    return {v: d for v, d in parts if d.num_den[0]}


def differentiate(e: Expr, v: str) -> Expr:
    """Exact partial derivative with respect to the variable named v, in
    canonical form, read from _nf_partials; a zero one keeps e's `trans`."""
    nf = _nf_of(e)
    return _expr_from_nf(_nf_partials(nf, (v,)).get(v, _NF_ZEROS[nf.trans]))


# ---------------------------------------------------------------------------
# Evaluation and zero testing
# ---------------------------------------------------------------------------


def _bound_power(c: int, exponent: int) -> None:
    """Raise EvaluationError when c^exponent, which has at least
    (bits of c - 1) * exponent bits, would pass MAX_EXACT_BITS."""
    if (abs(c).bit_length() - 1) * exponent > MAX_EXACT_BITS:
        raise EvaluationError(f"exact power ^{exponent} would exceed {MAX_EXACT_BITS} bits")


def evaluate(e: Expr, env: Mapping[str, Fraction | int | float]):
    """Evaluate at a point.  Exact (Fraction) for rational trees over rational
    inputs; function applications force floating point."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            v = env[e.name]
        except KeyError:
            raise EvaluationError(f"no value supplied for {e.name!r}") from None
        return Fraction(v) if isinstance(v, int) else v
    if isinstance(e, Add):
        return sum(evaluate(t, env) for t in e.terms)
    if isinstance(e, Mul):
        out = 1
        for f in e.factors:
            out *= evaluate(f, env)
        return out
    if isinstance(e, Pow):
        base = evaluate(e.base, env)
        if isinstance(base, Fraction):
            _bound_power(max(abs(base.numerator), base.denominator), e.exponent)
        return base ** e.exponent
    if isinstance(e, Div):
        den = evaluate(e.denominator, env)
        if den == 0:
            raise EvaluationError("division by zero at evaluation point")
        return evaluate(e.numerator, env) / den
    if isinstance(e, Call):
        arg = float(evaluate(e.arg, env))
        try:
            return _MATH[e.fn](arg)
        except (ValueError, OverflowError) as exc:
            raise EvaluationError(f"{e.fn}({arg}) out of domain") from exc
    raise TypeError(f"cannot evaluate {type(e).__name__}")


def random_rational(rng: random.Random, span: int = 2) -> Fraction:
    """Uniform-ish rational in [-span, span] with denominator up to 1000."""
    return Fraction(rng.randint(-span * 1000, span * 1000), 1000)


@dataclass(frozen=True)
class ZeroDecision:
    """Outcome of a zero test: verdict in {'zero','nonzero','unknown'};
    exact=False marks a probabilistic (sampling-based) verdict."""

    verdict: str
    exact: bool
    samples: int = 0

    def __bool__(self) -> bool:
        return self.verdict == "zero"


def is_zero(e: Expr, seed: int = 0) -> ZeroDecision:
    """Decide whether e is identically zero.

    Rational trees are decided exactly: the normal form's numerator is {}
    exactly when e is zero, so no gcd runs.  Trees whose normal form
    involves function atoms and is not formally zero fall back to
    evaluation at ZERO_TEST_SAMPLES random rational points: any value above
    ZERO_TEST_TOL decides NonZero, all-zero yields Unknown (probabilistic).
    Where fewer of 20 * ZERO_TEST_SAMPLES points are regular it raises
    EvaluationError naming how many were, and why the last one was not.
    """
    nf = _nf_of(e)
    if not nf.num_den[0]:
        return ZeroDecision("zero", exact=True)
    if not nf.trans:
        return ZeroDecision("nonzero", exact=True)
    rng = random.Random(seed)
    names = sorted(free_variables(e))
    taken = 0
    attempts = 0
    last = None  # why the last point tried was not regular
    while taken < ZERO_TEST_SAMPLES and attempts < 20 * ZERO_TEST_SAMPLES:
        attempts += 1
        env = {n: random_rational(rng) for n in names}
        try:
            value = float(evaluate(e, env))
        except (EvaluationError, OverflowError) as exc:  # not a regular point in floats
            last = f"{exc} ({exc.__cause__})" if exc.__cause__ else str(exc)
            continue
        if not math.isfinite(value):
            last = f"value {value}"
            continue
        if abs(value) > ZERO_TEST_TOL:
            return ZeroDecision("nonzero", exact=False, samples=taken + 1)
        taken += 1
    if taken < ZERO_TEST_SAMPLES:
        raise EvaluationError(f"could not find enough regular sample points for zero test: "
                              f"{taken} of {attempts} points tried were regular, "
                              f"{ZERO_TEST_SAMPLES} needed; last: {last}")
    return ZeroDecision("unknown", exact=False, samples=taken)


# ---------------------------------------------------------------------------
# Substitution and compilation
# ---------------------------------------------------------------------------


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions (capture-free; plain tree rewrite)."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Add):
        return Add(tuple(substitute(t, mapping) for t in e.terms))
    if isinstance(e, Mul):
        return Mul(tuple(substitute(f, mapping) for f in e.factors))
    if isinstance(e, Pow):
        return Pow(substitute(e.base, mapping), e.exponent)
    if isinstance(e, Div):
        return Div(substitute(e.numerator, mapping), substitute(e.denominator, mapping))
    if isinstance(e, Call):
        return Call(e.fn, substitute(e.arg, mapping))
    raise TypeError(f"cannot substitute into {type(e).__name__}")


def rename_variables(e: Expr, mapping: Mapping[str, str]) -> Expr:
    return substitute(e, {old: Var(new) for old, new in mapping.items()})


def python_source(e: Expr, names: Mapping[str, str]) -> str:
    """Python source of e, with each variable written as names[variable] and
    the functions as _sin/_cos/_exp/_ln (run it with compile_source)."""
    if isinstance(e, Const):
        return f"({_rational_str(e.value)})"
    if isinstance(e, Var):
        return names[e.name]
    if isinstance(e, Add):
        return "(" + "+".join(python_source(t, names) for t in e.terms) + ")"
    if isinstance(e, Mul):
        return "(" + "*".join(python_source(f, names) for f in e.factors) + ")"
    if isinstance(e, Pow):
        return f"({python_source(e.base, names)}**{e.exponent})"
    if isinstance(e, Div):
        return f"({python_source(e.numerator, names)}/{python_source(e.denominator, names)})"
    if isinstance(e, Call):
        return f"_{e.fn}({python_source(e.arg, names)})"
    raise TypeError(f"cannot compile {type(e).__name__}")


@lru_cache(maxsize=256)
def _compiled(source: str):
    return compile(source, "<string>", "exec")


def compile_source(source: str, name: str, **scope) -> Callable:
    """The function `name` defined by generated source, run without builtins
    in a scope holding the functions python_source emits plus `scope`.

    Each source text is compiled once per process, in a bounded cache (256
    texts; `examples run-all --seed 0` compiles 49), and run in a fresh
    namespace on every call, so systems whose sources coincide share code
    but never scope values such as coefficient tables."""
    namespace = {"__builtins__": {}, **{f"_{fn}": f for fn, f in _MATH.items()}, **scope}
    exec(_compiled(source), namespace)  # noqa: S102 - source generated from our own AST
    return namespace[name]


def compile_vector(exprs: Sequence[Expr], var_order: Sequence[str]) -> Callable[..., list]:
    """One function of the variables in var_order returning the list of the
    values of exprs; a variable outside var_order raises EvaluationError
    naming every such variable.  Pass plain floats: division by zero and
    domain errors then surface as ZeroDivisionError, ValueError or
    OverflowError, which callers treat as singular points (numpy scalars
    would give inf or nan with a warning instead)."""
    params = {name: f"_v{i}" for i, name in enumerate(var_order)}
    try:
        bodies = [python_source(e, params) for e in exprs]
    except KeyError:
        missing = set().union(*(free_variables(e) for e in exprs)) - set(var_order)
        raise EvaluationError(f"expression uses variables not in order: {sorted(missing)}") from None
    return compile_source(f"def vector({', '.join(params.values())}):\n"
                          f"    return [{', '.join(bodies)}]", "vector")
