"""Lie-algebra decision core: exact span coefficients, closure under brackets
with constant structure coefficients, and the rank criterion for the minimal
fundamental-set size m.  `closure_checks` and `m_checks` turn the last two
into the named checks of `liesys closure` and `liesys m`, and of the catalog.

Structure constants are found by reducing normal-form coefficients against
one incremental echelon form of the basis, exactly and fraction-free over
Z: the elimination runs in int, and a Fraction is made only for a value
returned (a structure constant, a span coefficient, the Jacobi maximum).
Closure reads each bracket as its normal forms, a component that no
partial reaches being zero at once, and builds a bracket's tree only for a
witness or for a field that completion adjoins.  The rank behind m is
exact too for rational fields, by the same integer elimination at random
rational points; singular values (with a relative threshold) serve only
matrices holding floats, from function atoms or float points.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from . import expr as ex
from .errors import ChartMismatchError, ClosureCapError, EvaluationError, RankTestError
from .geometry import VectorField, _bracket_nfs, _field_of_nfs
from .report import Check

__all__ = [
    "SpanResult",
    "span_coefficients",
    "prune_independent",
    "LieClosureReport",
    "closure_test",
    "FundamentalSizeReport",
    "minimal_m",
    "evaluation_rank",
    "matrix_rank",
    "closure_checks",
    "m_checks",
]

_RANK_RTOL = 1e-10
# random rational k-tuples minimal_m draws at each k before it tries k + 1
TUPLES_PER_K = 3


# ---------------------------------------------------------------------------
# Exact linear algebra over Z
# ---------------------------------------------------------------------------


def _eliminate(p: int, vec: dict, q: int, row: dict) -> None:
    """vec = p * vec - q * row on sparse integer vectors, in place, dropping
    entries that cancel."""
    if p != 1:
        for k in vec:
            vec[k] *= p
    for k, v in row.items():
        t = vec.get(k, 0) - q * v
        if t:
            vec[k] = t
        else:
            vec.pop(k, None)


def _primitive(vec: dict, lead) -> dict:
    """vec divided by the gcd of its entries, signed so that vec[lead] > 0."""
    g = math.gcd(*vec.values())
    g = -g if vec[lead] < 0 else g
    return vec if g == 1 else {k: v // g for k, v in vec.items()}


class _Echelon:
    """Echelon form over Z of the fields added so far, one chart, kept
    fraction-free: a Fraction is made only for a coefficient returned.

    A field's vector holds its integer coefficients in (component, monomial)
    coordinates once component i is multiplied by D_i, the primitive integer
    lcm of the primitive denominators of component i over the fields seen,
    and the whole field by the least integer that clears the denominators'
    contents.  A row is primitive with a positive pivot and is zero at every
    other pivot; at key (-1, a) it holds its coefficient of added field a, so
    that its coordinates are the combination of the added fields these keys
    give, and reducing a target against the rows yields its coefficients
    with nothing solved again.  A target is read as its components' reduced
    normal forms, so a bracket from geometry._bracket_nfs is reduced with no
    tree built for it.
    """

    def __init__(self, fields: Iterable[VectorField] = ()):
        self.fields: list[VectorField] = []
        self._names: tuple[str, ...] | None = None
        self._dens: list[dict] = []
        self._rows: dict = {}  # pivot coordinate -> row
        for f in fields:
            self.add(f)

    def nfs(self, f: VectorField) -> tuple[ex._NF, ...]:
        """f's component normal forms; f must be on the chart of the fields
        seen, and the first field seen sets it."""
        if self._names is None:
            self._names, self._dens = f.chart.names, [ex._PONE] * f.chart.dim
        elif f.chart.names != self._names:
            raise ChartMismatchError(f"fields on charts ({', '.join(self._names)}) and "
                                     f"({', '.join(f.chart.names)}) need a shared chart")
        return tuple(ex._nf_of(c) for c in f.components)

    def _reduce(self, nfs: Sequence[ex._NF]) -> tuple[dict, int]:
        """(vec, s): s times the field with component normal forms nfs, minus
        the rows that clear its pivot coordinates, with s > 0 and gcd(s,
        vec's entries) = 1; key (-1, a) holds minus s times the coefficient
        of field a taken off."""
        parts = []
        for i, nf in enumerate(nfs):
            if not nf.num_den[0]:  # a zero component has no coordinates
                continue
            num, den = nf.reduced()
            content = math.gcd(*den.values())
            if content != 1:
                den = {m: c // content for m, c in den.items()}
            common = self._dens[i]
            try:
                scale = common if den == ex._PONE else ex._pdiv_exact(common, den)
            except ArithmeticError:  # widen D_i to the lcm and rebuild the rows
                self._dens[i] = ex._pmul(ex._pdiv_exact(common, ex._gcd_core(common, den)), den)
                fields, self._rows = list(self.fields), {}
                self.fields.clear()  # the same list: closure_test holds it as its basis
                for g in fields:
                    self.add(g)
                return self._reduce(nfs)
            parts.append((i, ex._pmul(num, scale), content))
        s = math.lcm(*(content for _, _, content in parts))
        vec = {}
        for i, poly, content in parts:
            vec.update(((i, mono), v * (s // content)) for mono, v in poly.items())
        # each pivot coordinate sits in its own row only, so one pass clears all
        for pivot in [k for k in vec if k in self._rows]:
            row = self._rows[pivot]
            _eliminate(row[pivot], vec, vec[pivot], row)
            s *= row[pivot]
        g = math.gcd(s, *vec.values())
        return ({k: v // g for k, v in vec.items()}, s // g) if g != 1 else (vec, s)

    def add(self, f: VectorField) -> bool:
        """Adjoin f as a row; False, with nothing added, when f is in the span."""
        vec, s = self._reduce(self.nfs(f))
        pivot = next((k for k in vec if k[0] >= 0), None)
        if pivot is None:
            return False
        vec[(-1, len(self.fields))] = s
        self.fields.append(f)
        row = _primitive(vec, pivot)
        for key, other in self._rows.items():
            if pivot in other:
                _eliminate(row[pivot], other, other[pivot], row)
                self._rows[key] = _primitive(other, key)
        self._rows[pivot] = row
        return True

    def coefficients(self, nfs: Sequence[ex._NF]) -> tuple[bool, list[Fraction]]:
        """Whether the field with component normal forms nfs is in the span
        of the added fields, and the coefficients of the combination the
        reduction took off it."""
        vec, s = self._reduce(nfs)
        coefficients = [ex._QZERO] * len(self.fields)
        for (i, a), v in vec.items():
            if i < 0:
                coefficients[a] = Fraction(-v, s)
        return all(i < 0 for i, _ in vec), coefficients


def _independent(fields: Sequence[VectorField]) -> bool:
    """Whether the fields are linearly independent over Q, hence over R."""
    return len(_Echelon(fields).fields) == len(fields)


@dataclass(frozen=True)
class SpanResult:
    in_span: bool
    coefficients: tuple[Fraction, ...] | None = None
    residual: VectorField | None = None

    def __bool__(self) -> bool:
        return self.in_span


def span_coefficients(target: VectorField, basis: Sequence[VectorField]) -> SpanResult:
    """Constant coefficients c with target = sum c_a X_a, exact over Q.

    A basis field dependent on earlier ones gets coefficient 0.  NotInSpan
    carries the residual field target - sum c_a X_a left by the echelon
    reduction.
    """
    basis = list(basis)
    span = _Echelon()
    kept = [a for a, f in enumerate(basis) if span.add(f)]
    in_span, reduced = span.coefficients(span.nfs(target))
    coefficients = [ex._QZERO] * len(basis)
    for a, c in zip(kept, reduced):
        coefficients[a] = c
    if in_span:
        return SpanResult(True, coefficients=tuple(coefficients))
    return SpanResult(False, residual=_minus_combination(target, coefficients, basis))


def _minus_combination(
    target: VectorField, coefficients: Sequence[Fraction], basis: Sequence[VectorField]
) -> VectorField:
    """target - sum c_a X_a."""
    for c, f in zip(coefficients, basis):
        if c:
            target = target - f.scale(ex.Const(c))
    return target


def prune_independent(fields: Sequence[VectorField]) -> list[VectorField]:
    """Drop fields linearly dependent (over R, decided over Q) on earlier ones."""
    return _Echelon(f for f in fields if not f.is_zero_field()).fields


# ---------------------------------------------------------------------------
# Closure under brackets
# ---------------------------------------------------------------------------


@dataclass
class LieClosureReport:
    """Outcome of the closure test on a pruned basis.

    `constants[(a, b)]` holds the exact coefficients of [X_a, X_b] in the
    basis for a < b; antisymmetry supplies the rest.
    """

    basis: list[VectorField]
    constants: dict[tuple[int, int], tuple[Fraction, ...]]
    closed: bool
    witness: tuple[int, int, VectorField] | None = None
    completion_trace: list[int] | None = None

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def jacobi_residual(self) -> Fraction:
        """Max |cyclic sum| over all index triples; exactly 0 when closed.

        The cyclic sum of antisymmetric c is totally antisymmetric and vanishes
        on a repeated index, so triples a < b < g reach the same maximum.  The
        sums are taken in integers, over every constant times the lcm L of
        their denominators, and the maximum divided by L^2.
        """
        r = self.dimension
        scale = math.lcm(*(v.denominator for cs in self.constants.values() for v in cs))
        c: dict = {(a, a): {} for a in range(r)}
        for (a, b), cs in self.constants.items():
            c[a, b] = {mu: v.numerator * (scale // v.denominator) for mu, v in enumerate(cs) if v}
            c[b, a] = {mu: -v for mu, v in c[a, b].items()}
        worst = 0
        for a, b, g in itertools.combinations(range(r), 3):
            total: dict[int, int] = {}
            for x, y, z in ((a, b, g), (b, g, a), (g, a, b)):
                for mu, v in c[x, y].items():
                    for nu, w in c[mu, z].items():
                        total[nu] = total.get(nu, 0) + v * w
            worst = max([worst, *map(abs, total.values())])
        return Fraction(worst, scale * scale)

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "closed": self.closed,
            "basis": [f.to_json_dict() for f in self.basis],
            "constants": [
                {"pair": [a, b], "c": [str(v) for v in cs]}
                for (a, b), cs in sorted(self.constants.items())
            ],
            "witness": None
            if self.witness is None
            else {
                "pair": [self.witness[0], self.witness[1]],
                "bracket": self.witness[2].to_json_dict(),
            },
            "completion_trace": self.completion_trace,
        }


def closure_test(
    fields: Sequence[VectorField], complete: bool = False, cap: int = 32
) -> LieClosureReport:
    """Prune, bracket all pairs, and match constants exactly.

    Each bracket is reduced as its normal forms (geometry._bracket_nfs), a
    component that no partial reaches being zero at once; its field, with
    the tree of each component's canonical form, is built only when it is
    not in the span: for the witness, or for a field that completion
    adjoins.  Fields that are all zero span {0}, whose basis is empty.

    With complete=True, missing brackets are adjoined and the test iterates
    to a fixed point; exceeding `cap` raises ClosureCapError (no finite
    closure found up to the cap, which is not proof there is none).
    """
    if not fields:
        raise ValueError("closure_test needs at least one field")
    span = _Echelon(f for f in fields if not f.is_zero_field())
    basis = span.fields  # grows as span.add adjoins brackets
    trace = [len(basis)] if complete else None
    constants: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    pending = [(a, b) for a in range(len(basis)) for b in range(a + 1, len(basis))]
    while pending:
        a, b = pending.pop(0)
        nfs = _bracket_nfs(basis[a], basis[b])
        in_span, coefficients = span.coefficients(nfs)
        if in_span:
            constants[(a, b)] = tuple(coefficients)
            continue
        if complete and len(basis) >= cap:
            raise ClosureCapError(
                f"no finite closure found up to dimension cap {cap}"
            )
        bracket = _field_of_nfs(basis[a].chart, nfs)
        if not complete:
            return LieClosureReport(
                basis, constants, closed=False, witness=(a, b, bracket), completion_trace=trace
            )
        span.add(bracket)
        trace.append(len(basis))
        new = len(basis) - 1
        pending = list(pending) + [(i, new) for i in range(new)]
        pending.insert(0, (a, b))
    constants = {
        key: value + (ex._QZERO,) * (len(basis) - len(value))
        for key, value in constants.items()
    }
    return LieClosureReport(basis, constants, closed=True, completion_trace=trace)


# ---------------------------------------------------------------------------
# Minimal fundamental-set size
# ---------------------------------------------------------------------------


def matrix_rank(mat: np.ndarray) -> int:
    """Rank from singular values with relative threshold 1e-10 * sigma_max."""
    if mat.size == 0:
        return 0
    sigma = np.linalg.svd(mat, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.sum(sigma > _RANK_RTOL * sigma[0]))


def _rank_over_q(rows: Iterable[Sequence[Fraction]]) -> int:
    """Rank of exact rows, fraction-free over Z: each row is scaled by the
    lcm of its denominators, then eliminated in integers."""
    pivots: dict = {}  # pivot column -> row; a row is zero at every earlier pivot
    for values in rows:
        scale = math.lcm(*(v.denominator for v in values))
        vec = {j: v.numerator * (scale // v.denominator) for j, v in enumerate(values) if v}
        for col, row in pivots.items():
            if col in vec:
                _eliminate(row[col], vec, vec[col], row)
        if vec:
            col = next(iter(vec))
            pivots[col] = _primitive(vec, col)
    return len(pivots)


def _rank(rows: Sequence[Sequence]) -> tuple[int, bool]:
    """Rank of evaluated rows, and whether it is exact: Fractions are ranked
    over Q, a matrix holding a float (function atoms, float points) by
    matrix_rank.  Raises OverflowError for a value past the float range."""
    if any(isinstance(v, float) for row in rows for v in row):
        return matrix_rank(np.array(rows, dtype=float)), False
    return _rank_over_q(rows), True


def evaluation_rank(fields: Sequence[VectorField], points: Sequence[Sequence]) -> tuple[int, bool]:
    """Rank of the stacked evaluations A_a^i(x_(s)) (rows (slot, component),
    columns fields), and whether it is exact (see _rank).  A constant
    component, which cannot raise, is read as its value."""
    envs = [dict(zip(fields[0].chart.names, p)) for p in points] if fields else []
    try:
        return _rank(list(zip(*(
            [c.value if isinstance(c, ex.Const) else ex.evaluate(c, env)
             for env in envs for c in f.components]
            for f in fields))))
    except OverflowError:
        at = "; ".join(f"({', '.join(map(str, p))})" for p in points)
        raise EvaluationError(f"field value at {at} is out of the float range") from None


def _generic_rank(rank_at: Callable[[list[Fraction]], tuple[int, bool]], size: int,
                  target: int, rng: random.Random,
                  ceiling: int | None = None) -> tuple[int, int, bool]:
    """(highest rank, tuples drawn, all exact) of rank_at at up to TUPLES_PER_K
    random tuples of `size` coordinates uniform on {i/1000 : |i| <= 2000},
    stopping at target.  Once a tuple reaches `ceiling` (default target), the
    most rank_at can return, the remaining tuples are drawn but neither
    evaluated nor ranked: the rng stream and the tuples drawn stay those of
    a search that ranks them all.  An exact rank can only come out too low:
    each tuple misses with probability at most D/4001 (Schwartz 1980; Zippel
    1979), D the total degree of N*Q for a nonzero target-size minor N/Q of
    the rational matrix (a pole, where rank_at raises EvaluationError, is a
    miss; the last one is raised when no tuple evaluates).  Float ranks
    prove nothing."""
    ceiling = target if ceiling is None else ceiling
    best, error, exact = None, None, True
    for tuples in range(1, TUPLES_PER_K + 1):
        values = [ex.random_rational(rng) for _ in range(size)]
        if best == ceiling:
            continue
        try:
            rank, rank_exact = rank_at(values)
        except EvaluationError as exc:
            error = exc
            continue
        best = rank if best is None else max(best, rank)
        exact = exact and rank_exact
        if rank == target:
            break
    if best is None:
        raise error
    return best, tuples, exact


@dataclass
class RankAtK:
    k: int
    rank: int  # highest over the tuples drawn at k that evaluated
    tuples: int  # drawn at k, those at a pole included


@dataclass
class FundamentalSizeReport:
    m: int
    r: int
    seed: int
    exact: bool  # every rank taken over Q, and each k < m bounded below r by its shape
    rank_profile: list[RankAtK]

    def to_json_dict(self) -> dict:
        return asdict(self)


def minimal_m(fields: Sequence[VectorField], seed: int = 0) -> FundamentalSizeReport:
    """Least k at which the fields evaluated at a random rational k-tuple have
    rank r, by _generic_rank at each k with the ceiling min(k n, r) (k n rows,
    r columns), so below m the tuples after the first to reach k n are not
    ranked; fields must be linearly independent (prune_independent first).
    With exact ranks, rank r at one tuple proves m <= k, so m can only come
    out too large.  m > k - 1 is proved by the shape when (k - 1) n < r, and
    only sampled otherwise; the report is exact when neither half was
    sampled."""
    fields = list(fields)
    if not fields:
        raise ValueError("minimal_m needs at least one field")
    if not _independent(fields):
        raise ValueError("fields are linearly dependent; prune_independent first")
    r = len(fields)
    n = fields[0].chart.dim
    rng = random.Random(seed)
    profile: list[RankAtK] = []
    exact = True
    for k in range(1, r + 1):
        rank, tuples, rank_exact = _generic_rank(
            lambda values: evaluation_rank(fields, [values[i:i + n] for i in range(0, k * n, n)]),
            k * n, r, rng, min(k * n, r),
        )
        # below m, rank < r is proved by the shape only when k n < r; else it was sampled
        exact = exact and rank_exact and (rank == r or k * n < r)
        profile.append(RankAtK(k, rank, tuples))
        if rank == r:
            return FundamentalSizeReport(k, r, seed, exact, profile)
    raise RankTestError(
        "no k <= r reached full rank at generic tuples; input is non-generic "
        "or internally inconsistent"
    )


# ---------------------------------------------------------------------------
# Checks shared by the command line and the example catalog
# ---------------------------------------------------------------------------


def closure_checks(fields: Sequence[VectorField], complete: bool = False) -> tuple[list[Check], dict]:
    """`closed` (detail: the algebra's dimension), then `jacobi_residual_zero`
    when closed, with the report under the extra `closure` and, when not
    closed, the first bracket outside the span under `witness`.  A completion
    that passes its cap fails `closed` with the cap's message."""
    try:
        report = closure_test(fields, complete=complete)
    except ClosureCapError as exc:
        return [Check("closed", False, detail=str(exc))], {}
    checks, extra = [Check("closed", report.closed, detail=f"dimension {report.dimension}")], {}
    if report.closed:
        checks.append(Check("jacobi_residual_zero", report.jacobi_residual() == 0))
    elif report.witness is not None:
        a, b, bracket = report.witness
        extra["witness"] = {"pair": [a, b], "bracket": bracket.to_json_dict()}
    extra["closure"] = report.to_json_dict()
    return checks, extra


def m_checks(fields: Sequence[VectorField], seed: int = 0,
             expected: int | None = None) -> tuple[list[Check], dict]:
    """`m_determined` (probabilistic unless minimal_m's report is exact) and,
    given an expected m, `m_matches_expected`; extras `m` and `report`.  The
    fields must be linearly independent, as for minimal_m.  A search that
    reaches no full rank fails `m_determined` with its message, alone."""
    try:
        report = minimal_m(fields, seed=seed)
    except RankTestError as exc:
        return [Check("m_determined", False, detail=str(exc))], {}
    checks = [Check("m_determined", True, probabilistic=not report.exact,
                    detail=f"m = {report.m} (r = {report.r})")]
    if expected is not None:
        checks.append(Check.equals("m_matches_expected", report.m, expected))
    return checks, {"m": report.m, "report": report.to_json_dict()}
