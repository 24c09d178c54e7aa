"""Lie-algebra decision core: exact span coefficients, closure under brackets
with constant structure coefficients, and the sampled rank criterion for the
minimal fundamental-set size m.

Structure constants are found by equating canonical-form coefficients, a
linear system over the rationals solved exactly; floating point enters only
in the rank sampling (singular values with a relative threshold).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from .errors import ChartMismatchError, ClosureCapError, EvaluationError, RankTestError
from .geometry import VectorField, lie_bracket

__all__ = [
    "SpanResult",
    "span_coefficients",
    "prune_independent",
    "LieClosureReport",
    "closure_test",
    "FundamentalSizeReport",
    "minimal_m",
    "evaluation_matrix",
    "matrix_rank",
]

_RANK_RTOL = 1e-10


# ---------------------------------------------------------------------------
# Exact linear algebra over Q
# ---------------------------------------------------------------------------


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve rows . c = rhs exactly; None if inconsistent.  Requires the
    solution, when consistent, to be unique on the pivot columns; free
    columns are set to zero."""
    m = [row[:] + [b] for row, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    pivots: list[tuple[int, int]] = []
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
    # rows below the pivot block were checked; rows in the block are satisfied
    return solution


@dataclass(frozen=True)
class SpanResult:
    in_span: bool
    coefficients: tuple[Fraction, ...] | None = None
    residual: VectorField | None = None

    def __bool__(self) -> bool:
        return self.in_span


def _component_rows(target: VectorField, basis: Sequence[VectorField]):
    """Rows of the coefficient-matching system, one per monomial per component.

    Rational components are cleared through a common denominator first so the
    match happens between expanded polynomials.
    """
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i in range(target.chart.dim):
        entries = [f.components[i] for f in basis] + [target.components[i]]
        nfs = [ex._nf_of(e) for e in entries]
        common = dict(ex._PONE)
        for nf in nfs:
            den = nf.num_den[1]
            g = ex._poly_gcd(common, den)
            common = ex._pmul(ex._pdiv_exact(common, g), den)
        cleared = []
        for nf in nfs:
            num, den = nf.num_den
            cleared.append(ex._pmul(num, ex._pdiv_exact(common, den)))
        monomials = sorted({m for p in cleared for m in p})
        for mono in monomials:
            rows.append([p.get(mono, Fraction(0)) for p in cleared[:-1]])
            rhs.append(cleared[-1].get(mono, Fraction(0)))
    return rows, rhs


def span_coefficients(target: VectorField, basis: Sequence[VectorField]) -> SpanResult:
    """Constant coefficients c with target = sum c_a X_a, exact over Q.

    NotInSpan carries the residual field target - sum c_a X_a for the best
    partially consistent solve.
    """
    basis = list(basis)
    for f in basis:
        if f.chart.names != target.chart.names:
            raise ChartMismatchError("span_coefficients needs a shared chart")
    rows, rhs = _component_rows(target, basis)
    solution = _solve_exact(rows, rhs)
    if solution is not None:
        return SpanResult(True, coefficients=tuple(solution))
    # inconsistent: solve the least-squares-free consistent part for a witness
    residual = target
    partial = _solve_exact(rows, [Fraction(0)] * len(rhs))
    combo = None
    for c, f in zip(partial or [], basis):
        if c:
            piece = f.scale(ex.Const(c))
            combo = piece if combo is None else combo + piece
    if combo is not None:
        residual = target - combo
    return SpanResult(False, residual=residual)


def prune_independent(fields: Sequence[VectorField]) -> list[VectorField]:
    """Drop fields linearly dependent (over R, decided over Q) on earlier ones."""
    kept: list[VectorField] = []
    for f in fields:
        if f.is_zero_field():
            continue
        if kept and span_coefficients(f, kept).in_span:
            continue
        kept.append(f)
    return kept


# ---------------------------------------------------------------------------
# Closure under brackets
# ---------------------------------------------------------------------------


@dataclass
class LieClosureReport:
    """Outcome of the closure test on a pruned basis.

    `constants[(a, b)]` holds the exact coefficients of [X_a, X_b] in the
    basis for a < b; antisymmetry supplies the rest through `c(a, b)`.
    """

    basis: list[VectorField]
    constants: dict[tuple[int, int], tuple[Fraction, ...]]
    closed: bool
    witness: tuple[int, int, VectorField] | None = None
    completion_trace: list[int] | None = None

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def c(self, a: int, b: int) -> tuple[Fraction, ...]:
        if a == b:
            return tuple(Fraction(0) for _ in self.basis)
        if a < b:
            return self.constants[(a, b)]
        return tuple(-v for v in self.constants[(b, a)])

    def jacobi_residual(self) -> Fraction:
        """Max |cyclic sum| over all index triples; exactly 0 when closed."""
        r = self.dimension
        worst = Fraction(0)
        for a in range(r):
            for b in range(r):
                for g in range(r):
                    for nu in range(r):
                        total = Fraction(0)
                        for mu in range(r):
                            total += self.c(a, b)[mu] * self.c(mu, g)[nu]
                            total += self.c(b, g)[mu] * self.c(mu, a)[nu]
                            total += self.c(g, a)[mu] * self.c(mu, b)[nu]
                        worst = max(worst, abs(total))
        return worst

    def reconstruct_bracket_residual(self, a: int, b: int) -> VectorField:
        """[X_a, X_b] - sum c X_g; canonically zero whenever closed."""
        combo = None
        for coeff, f in zip(self.c(a, b), self.basis):
            if coeff:
                piece = f.scale(ex.Const(coeff))
                combo = piece if combo is None else combo + piece
        bracket = lie_bracket(self.basis[a], self.basis[b])
        return bracket if combo is None else bracket - combo

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

    With complete=True, missing brackets are adjoined and the test iterates
    to a fixed point; exceeding `cap` raises ClosureCapError (no finite
    closure found up to the cap, which is not proof there is none).
    """
    if not fields:
        raise ValueError("closure_test needs at least one field")
    basis = prune_independent(fields)
    if not basis:
        basis = [fields[0]]  # all-zero input: report the trivial algebra
    trace = [len(basis)] if complete else None
    constants: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    pending = [(a, b) for a in range(len(basis)) for b in range(a + 1, len(basis))]
    while pending:
        a, b = pending.pop(0)
        bracket = lie_bracket(basis[a], basis[b])
        result = span_coefficients(bracket, basis)
        if result.in_span:
            constants[(a, b)] = result.coefficients
            continue
        if not complete:
            return LieClosureReport(
                basis, constants, closed=False, witness=(a, b, bracket), completion_trace=trace
            )
        if len(basis) >= cap:
            raise ClosureCapError(
                f"no finite closure found up to dimension cap {cap}"
            )
        basis.append(bracket)
        trace.append(len(basis))
        new = len(basis) - 1
        pending = list(pending) + [(i, new) for i in range(new)]
        pending.insert(0, (a, b))
    constants = {
        key: value + (Fraction(0),) * (len(basis) - len(value))
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


def evaluation_matrix(fields: Sequence[VectorField], points: Sequence[Sequence]) -> np.ndarray:
    """Stacked evaluations A_a^i(x_(s)): rows (slot, component), columns fields."""
    n = fields[0].chart.dim
    rows = []
    for point in points:
        env = dict(zip(fields[0].chart.names, point))
        try:
            columns = [f.evaluate(env) for f in fields]
            for i in range(n):
                rows.append([float(col[i]) for col in columns])
        except OverflowError:
            raise EvaluationError(
                f"field value at ({', '.join(map(str, point))}) is out of the float range"
            ) from None
    return np.array(rows, dtype=float)


def _default_exclusion(points: list[list[Fraction]]) -> bool:
    """Reject tuples with (near-)coincident slots: non-generic configurations."""
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if max(abs(float(a - b)) for a, b in zip(points[i], points[j])) < 1e-6:
                return True
    return False


@dataclass
class RankVote:
    k: int
    modal_rank: int
    vote_fraction: float
    degenerate_discarded: int


@dataclass
class FundamentalSizeReport:
    m: int
    r: int
    samples_per_k: int
    rank_profile: list[RankVote]
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "r": self.r,
            "samples_per_k": self.samples_per_k,
            "seed": self.seed,
            "rank_profile": [
                {
                    "k": v.k,
                    "modal_rank": v.modal_rank,
                    "vote_fraction": v.vote_fraction,
                    "degenerate_discarded": v.degenerate_discarded,
                }
                for v in self.rank_profile
            ],
        }


def minimal_m(
    fields: Sequence[VectorField],
    sample_count: int = 24,
    seed: int = 0,
    vote_threshold: float = 0.9,
    exclusion: Callable[[list[list[Fraction]]], bool] | None = None,
    span_box: int = 2,
) -> FundamentalSizeReport:
    """Least k at which stacked evaluations of the fields reach full rank r
    at generic k-tuples (sampled vote).

    Fields must be linearly independent (prune_independent first).  Sample
    tuples are random rational points in [-span_box, span_box]^n; tuples hit
    by the exclusion predicate (default: near-coincident slots) are redrawn
    and counted as degenerate.
    """
    fields = list(fields)
    if not fields:
        raise ValueError("minimal_m needs at least one field")
    for f in fields:
        if span_coefficients(f, [g for g in fields if g is not f]).in_span:
            raise ValueError("fields are linearly dependent; prune_independent first")
    r = len(fields)
    n = fields[0].chart.dim
    reject = exclusion if exclusion is not None else _default_exclusion
    rng = random.Random(seed)
    profile: list[RankVote] = []
    for k in range(1, r + 1):
        ranks = []
        discarded = 0
        while len(ranks) < sample_count:
            points = [[ex.random_rational(rng, span_box) for _ in range(n)] for _ in range(k)]
            if k > 1 and reject(points):
                discarded += 1
                if discarded > 50 * sample_count:
                    raise RankTestError("exclusion predicate rejected every sampled tuple")
                continue
            ranks.append(matrix_rank(evaluation_matrix(fields, points)))
        vote = sum(1 for v in ranks if v == r) / len(ranks)
        modal = max(set(ranks), key=ranks.count)
        profile.append(RankVote(k, modal, vote, discarded))
        if vote >= vote_threshold:
            return FundamentalSizeReport(k, r, sample_count, profile, seed)
    raise RankTestError(
        "no k <= r reached full rank at generic tuples; input is non-generic "
        "or internally inconsistent"
    )
