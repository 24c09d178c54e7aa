"""Symbolic scalar expressions over named variables with exact rational coefficients.

The expression language covers rational arithmetic over a fixed set of names
(sums, products, quotients, integer powers) plus the function set
sin / cos / exp / ln carried symbolically.  Every expression normalizes to a
canonical form: a single quotient of coprime expanded polynomials whose atoms
are either variables or whole function applications (treated as opaque).
Canonical forms make equality and zero-testing decidable for rational trees;
in the presence of function atoms the zero test falls back to sampling at
random rational points and labels its verdict as probabilistic.

Grammar (see README for the EBNF): integer literals, rationals written
``p/q``, identifiers ``[A-Za-z_][A-Za-z0-9_]*``, operators ``+ - * / ^`` with
standard precedence (``^`` binds tightest and takes an integer exponent), and
function application ``sin(...)``.

Expressions are immutable after construction and every operation here is a
pure function, so values can be shared freely across threads.
"""

from __future__ import annotations

import heapq
import keyword
import math
import operator
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .errors import EvaluationError, ParseError

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
    "compile_expr",
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
            if not name.isidentifier() or keyword.iskeyword(name):
                raise ValueError(f"bad coordinate name {name!r}")
            if name in FUNCTIONS:
                raise ValueError(f"coordinate name {name!r} shadows a function")

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def __contains__(self, name: str) -> bool:
        return name in self.names


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

    def __radd__(self, other):
        return Add((_as_expr(other), self))

    def __sub__(self, other):
        return Add((self, Mul((Const(-1), _as_expr(other)))))

    def __rsub__(self, other):
        return Add((_as_expr(other), Mul((Const(-1), self))))

    def __mul__(self, other):
        return Mul((self, _as_expr(other)))

    def __rmul__(self, other):
        return Mul((_as_expr(other), self))

    def __truediv__(self, other):
        return Div(self, _as_expr(other))

    def __rtruediv__(self, other):
        return Div(_as_expr(other), self)

    def __neg__(self):
        return Mul((Const(-1), self))

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            raise TypeError("exponents must be integers")
        return _make_pow(self, exponent)

    def __str__(self) -> str:
        return self._render()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self._render()}>"

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
        self.value = Fraction(value)

    def _render(self) -> str:
        v = self.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"

    def _nf_compute(self):
        return _NF(_pconst(self.value), _PONE, False)


class Var(Expr):
    __slots__ = ("name",)
    precedence = 100

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def _render(self) -> str:
        return self.name

    def _nf_compute(self):
        _ATOMS.setdefault(self.name, self)
        return _NF({((self.name, 1),): Fraction(1)}, _PONE, False)


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
        num, den, trans = _pzero(), _PONE, False
        for t in self.terms:
            nf = _nf_of(t)
            num = _padd(_pmul(num, nf.num_den[1]), _pmul(nf.num_den[0], den))
            den = _pmul(den, nf.num_den[1])
            trans = trans or nf.trans
            num, den = _reduce(num, den)
        return _NF(num, den, trans)


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
        num, den, trans = _PONE, _PONE, False
        for f in self.factors:
            nf = _nf_of(f)
            num = _pmul(num, nf.num_den[0])
            den = _pmul(den, nf.num_den[1])
            trans = trans or nf.trans
        num, den = _reduce(num, den)
        return _NF(num, den, trans)


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
        nf = _nf_of(self.base)
        # base is already reduced and den-monic, so powers stay coprime and monic
        return _NF(_ppow(nf.num_den[0], self.exponent), _ppow(nf.num_den[1], self.exponent), nf.trans)


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
        if not b.num_den[0]:
            raise EvaluationError("division by an expression that is identically zero")
        num, den = _reduce(_pmul(a.num_den[0], b.num_den[1]), _pmul(a.num_den[1], b.num_den[0]))
        return _NF(num, den, a.trans or b.trans)


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
        key = f"{self.fn}({_nf_str(arg_nf)})"
        if key not in _ATOMS:
            _ATOMS[key] = Call(self.fn, _expr_from_nf(arg_nf))
        return _NF({((key, 1),): Fraction(1)}, _PONE, True)


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
# Canonical form: single quotient of coprime expanded polynomials.
# A polynomial is a dict mapping monomials to Fraction coefficients; a
# monomial is a sorted tuple of (atom, exponent) pairs where an atom is a
# variable name or the canonical key of a function application.
# ---------------------------------------------------------------------------

_PONE = {(): Fraction(1)}

# atom key -> Expr that reconstructs it (Var or Call); append-only
_ATOMS: dict[str, Expr] = {}


class _NF:
    __slots__ = ("num_den", "trans")

    def __init__(self, num, den, trans):
        self.num_den = (num, den)
        self.trans = trans


def _nf_of(e: Expr) -> _NF:
    nf = e._nf
    if nf is None:
        nf = e._nf_compute()
        e._nf = nf
    return nf


def _pzero():
    return {}


def _pconst(c: Fraction):
    return {(): c} if c else {}


def _padd(p, q):
    out = dict(p)
    for m, c in q.items():
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s = s + c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _pneg(p):
    return {m: -c for m, c in p.items()}

def _pscale(p, c: Fraction):
    if not c:
        return {}
    return {m: k * c for m, k in p.items()}


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for a, e in m2:
        d[a] = d.get(a, 0) + e
    return tuple(sorted(d.items()))


def _pmul(p, q):
    if not p or not q:
        return {}
    if p == _PONE:
        return dict(q)
    if q == _PONE:
        return dict(p)
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = _mono_mul(m1, m2)
            c = c1 * c2
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
    return out


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


def _atoms_of(*polys) -> list[str]:
    atoms: set[str] = set()
    for p in polys:
        for m in p:
            for a, _ in m:
                atoms.add(a)
    return sorted(atoms)


def _dense(m, atoms: Sequence[str]):
    d = dict(m)
    return tuple(d.get(a, 0) for a in atoms)


def _lead(p, atoms: Sequence[str]):
    """Leading monomial under graded lexicographic order on the given atoms."""
    return max(p, key=lambda m: (sum(e for _, e in m), _dense(m, atoms)))


def _pdiv_exact(p, q):
    """Exact division p / q of polys with Fraction coefficients, or with int
    ones over Z; raises ArithmeticError if q does not divide p.  Monomials are
    keyed by negated (total degree, dense exponents): products are key sums,
    and the graded-lex leading monomial of the remainder is the least key on a
    heap (cancelled keys are skipped).  q's tail is subtracted in place."""
    if not p:
        return {}
    atoms = _atoms_of(p, q)
    index = {a: i for i, a in enumerate(atoms)}

    def key(m):
        k = [0] * len(atoms)
        for a, e in m:
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
        coeff, r = divmod(c, cq) if isinstance(cq, int) else (c / cq, 0)
        if r or max(shift) > 0:
            raise ArithmeticError("inexact polynomial division")
        quot[tuple((a, -d) for a, d in zip(atoms, shift[1:]) if d)] = coeff
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


def _degree_in(p, atom: str) -> int:
    deg = 0
    for m in p:
        for a, e in m:
            if a == atom and e > deg:
                deg = e
    return deg


def _as_univariate(p, atom: str) -> dict[int, dict]:
    """View p as a polynomial in `atom` with polynomial coefficients."""
    out: dict[int, dict] = {}
    for m, c in p.items():
        e = 0
        rest = []
        for a, k in m:
            if a == atom:
                e = k
            else:
                rest.append((a, k))
        coeff = out.setdefault(e, {})
        mono = tuple(rest)
        coeff[mono] = coeff.get(mono, Fraction(0)) + c
    for e in list(out):
        out[e] = {m: c for m, c in out[e].items() if c}
        if not out[e]:
            del out[e]
    return out


def _from_univariate(coeffs: dict[int, dict], atom: str) -> dict:
    out: dict = {}
    for e, poly in coeffs.items():
        shift = {} if e == 0 else {((atom, e),): Fraction(1)}
        out = _padd(out, _pmul(poly, shift) if e else dict(poly))
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
    return not p or (len(p) == 1 and () in p)


def _monic(p):
    if not p:
        return {}
    lc = p[_lead(p, _atoms_of(p))]
    return _pscale(p, 1 / lc)


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
    """Scale a rational-coefficient poly to primitive integer coefficients."""
    scale = 1
    for c in p.values():
        d = c.denominator
        scale = scale * d // math.gcd(scale, d)
    ints = {m: int(c * scale) for m, c in p.items()}
    content = 0
    for v in ints.values():
        content = math.gcd(content, abs(v))
    return {m: v // content for m, v in ints.items()}


def _eval_atom_int(p, atom: str, xi: int):
    out: dict = {}
    for m, c in p.items():
        e = 0
        rest = []
        for a, k in m:
            if a == atom:
                e = k
            else:
                rest.append((a, k))
        key = tuple(rest)
        out[key] = out.get(key, 0) + c * xi**e
    return {m: c for m, c in out.items() if c}


def _genpoly(gamma, xi: int, atom: str):
    """Rebuild sum_j d_j * atom^j from balanced base-xi digits of gamma."""
    out: dict = {}
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
            key = _mono_mul(m, ((atom, j),)) if j else m
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
    content = 0
    for v in p.values():
        content = math.gcd(content, abs(v))
    return content


def _divides(candidate, p) -> bool:
    """Whether the nonzero candidate divides p over Q, for integer polys.  By
    Gauss's lemma it does exactly when its primitive part divides p over Z."""
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
        a = abs(p[()]) if p_const else _int_content(p)
        b = abs(q[()]) if q_const else _int_content(q)
        return {(): math.gcd(a, b)}
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
    """Some gcd of nonzero polys, up to a rational unit."""
    if _is_const_poly(p) or _is_const_poly(q):
        return dict(_PONE)
    heuristic = _heu_gcd(_int_primitive(p), _int_primitive(q))
    if heuristic is not None:
        content = _int_content(heuristic)
        return {m: Fraction(c, content) for m, c in heuristic.items()}
    return _gcd_inner(p, q)


def _poly_gcd(p, q):
    if not p:
        return _monic(q)
    if not q:
        return _monic(p)
    return _monic(_gcd_core(p, q))


def _reduce(num, den):
    """Normalize a quotient: coprime parts, monic denominator."""
    if not den:
        raise EvaluationError("division by an expression that is identically zero")
    if not num:
        return {}, dict(_PONE)
    if den == _PONE:
        return num, dict(_PONE)
    if _is_const_poly(den):
        return _pscale(num, 1 / den[()]), dict(_PONE)
    g = _poly_gcd(num, den)
    if not _is_const_poly(g):
        num = _pdiv_exact(num, g)
        den = _pdiv_exact(den, g)
    if _is_const_poly(den):
        return _pscale(num, 1 / den[()]), dict(_PONE)
    lc = den[_lead(den, _atoms_of(den))]
    return _pscale(num, 1 / lc), _pscale(den, 1 / lc)


def _sorted_terms(p):
    atoms = _atoms_of(p)
    return sorted(
        p.items(),
        key=lambda item: (sum(e for _, e in item[0]), _dense(item[0], atoms)),
        reverse=True,
    )


def _poly_str(p) -> str:
    if not p:
        return "0"
    parts = []
    for mono, coeff in _sorted_terms(p):
        factors = [f"{a}^{e}" if e > 1 else a for a, e in mono]
        if not factors:
            body = str(abs(coeff))
        else:
            c = abs(coeff)
            body = "*".join(([] if c == 1 else [str(c)]) + factors)
        parts.append(("-" if coeff < 0 else "+", body))
    sign, body = parts[0]
    text = body if sign == "+" else f"-{body}"
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _nf_str(nf: _NF) -> str:
    num, den = nf.num_den
    if den == _PONE:
        return _poly_str(num)
    return f"({_poly_str(num)})/({_poly_str(den)})"


def _atom_expr(atom: str) -> Expr:
    e = _ATOMS.get(atom)
    if e is None:
        e = Var(atom)
        _ATOMS[atom] = e
    return e


def _expr_from_poly(p) -> Expr:
    if not p:
        return Const(0)
    terms = []
    for mono, coeff in _sorted_terms(p):
        factors: list[Expr] = []
        if coeff != 1 or not mono:
            factors.append(Const(coeff))
        for atom, e in mono:
            factors.append(_make_pow(_atom_expr(atom), e))
        terms.append(_chain(Mul, factors))
    return _chain(Add, terms)


def _expr_from_nf(nf: _NF) -> Expr:
    num, den = nf.num_den
    if den == _PONE:
        e = _expr_from_poly(num)
    else:
        e = Div(_expr_from_poly(num), _expr_from_poly(den))
    e._nf = nf
    return e


def canonical_expr(e: Expr) -> Expr:
    """Rebuild e from its canonical form (expanded, collected, reduced)."""
    return _expr_from_nf(_nf_of(e))


def canonically_equal(a: Expr, b: Expr) -> bool:
    """Exact equality of canonical forms (formal equality over the atoms)."""
    na, nb = _nf_of(a), _nf_of(b)
    return na.num_den == nb.num_den


def free_variables(e: Expr) -> frozenset[str]:
    """Variable names occurring in the tree, including inside function arguments."""
    out: set[str] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, Add):
            stack.extend(node.terms)
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
# denominator: nested squarings that parse in a few levels would otherwise
# build numbers of billions of digits.
MAX_EXACT_BITS = 2**20


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


def _diff_tree(e: Expr, v: str) -> Expr:
    if isinstance(e, Const):
        return Const(0)
    if isinstance(e, Var):
        return Const(1) if e.name == v else Const(0)
    if isinstance(e, Add):
        return Add(tuple(_diff_tree(t, v) for t in e.terms))
    if isinstance(e, Mul):
        terms = []
        factors = e.factors
        for i, f in enumerate(factors):
            terms.append(Mul(factors[:i] + (_diff_tree(f, v),) + factors[i + 1:]))
        return Add(tuple(terms))
    if isinstance(e, Pow):
        return Mul((Const(e.exponent), _make_pow(e.base, e.exponent - 1), _diff_tree(e.base, v)))
    if isinstance(e, Div):
        a, b = e.numerator, e.denominator
        return Div(Add((Mul((_diff_tree(a, v), b)), -Mul((a, _diff_tree(b, v))))), Pow(b, 2))
    if isinstance(e, Call):
        inner = _diff_tree(e.arg, v)
        if e.fn == "sin":
            return Mul((Call("cos", e.arg), inner))
        if e.fn == "cos":
            return Mul((Const(-1), Call("sin", e.arg), inner))
        if e.fn == "exp":
            return Mul((Call("exp", e.arg), inner))
        return Div(inner, e.arg)  # ln
    raise TypeError(f"cannot differentiate {type(e).__name__}")


def differentiate(e: Expr, v: str) -> Expr:
    """Exact partial derivative with respect to the variable named v, in canonical form."""
    return canonical_expr(_diff_tree(e, v))


# ---------------------------------------------------------------------------
# Evaluation and zero testing
# ---------------------------------------------------------------------------


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
            # the power has at least (bits - 1) * exponent bits
            size = max(abs(base.numerator), base.denominator).bit_length()
            if (size - 1) * e.exponent > MAX_EXACT_BITS:
                raise EvaluationError(
                    f"exact power ^{e.exponent} would exceed {MAX_EXACT_BITS} bits"
                )
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


def is_zero(e: Expr, samples: int = 32, seed: int = 0, tol: float = 1e-9) -> ZeroDecision:
    """Decide whether e is identically zero.

    Rational trees are decided exactly from the canonical form.  Trees whose
    canonical form involves function atoms and is not formally zero fall back
    to evaluation at `samples` random rational points: any clearly nonzero
    value decides NonZero, all-zero yields Unknown (probabilistic).
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
    while taken < samples and attempts < 20 * samples:
        attempts += 1
        env = {n: random_rational(rng) for n in names}
        try:
            value = float(evaluate(e, env))
        except EvaluationError:
            continue
        if not math.isfinite(value):
            continue
        if abs(value) > tol:
            return ZeroDecision("nonzero", exact=False, samples=taken + 1)
        taken += 1
    if taken < samples:
        raise EvaluationError("could not find enough regular sample points for zero test")
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
        v = e.value
        return f"({v.numerator}/{v.denominator})" if v.denominator != 1 else f"({v.numerator})"
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


def compile_source(source: str, name: str, **scope) -> Callable:
    """The function `name` defined by generated source, run without builtins
    in a scope holding the functions python_source emits plus `scope`."""
    namespace = {"__builtins__": {}, **{f"_{fn}": f for fn, f in _MATH.items()}, **scope}
    exec(source, namespace)  # noqa: S102 - source generated from our own AST
    return namespace[name]


def _parameters(exprs: Iterable[Expr], var_order: Sequence[str]) -> dict[str, str]:
    missing = set().union(*(free_variables(e) for e in exprs)) - set(var_order)
    if missing:
        raise EvaluationError(f"expression uses variables not in order: {sorted(missing)}")
    return {name: f"_v{i}" for i, name in enumerate(var_order)}


def compile_expr(e: Expr, var_order: Sequence[str]) -> Callable[..., float]:
    """Compile to a scalar float function of the variables in var_order.

    Division by zero and domain errors surface as ZeroDivisionError /
    ValueError / OverflowError, which callers treat as singular points.
    """
    params = _parameters([e], var_order)
    raw = compile_source(f"def raw({', '.join(params.values())}):\n"
                         f"    return {python_source(e, params)}", "raw")

    def call(*args: float) -> float:
        # plain floats so that singular points raise (numpy scalars would
        # silently produce inf/nan with a warning instead)
        return raw(*[float(a) for a in args])

    return call


def compile_vector(exprs: Sequence[Expr], var_order: Sequence[str]) -> Callable[..., list]:
    """One function of the variables in var_order returning the list of the
    values of exprs.  Pass plain floats: singular points then raise as in
    compile_expr."""
    params = _parameters(exprs, var_order)
    body = ", ".join(python_source(e, params) for e in exprs)
    return compile_source(f"def vector({', '.join(params.values())}):\n"
                          f"    return [{body}]", "vector")
