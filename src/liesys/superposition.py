"""Superposition rules: tangency checks, constancy along solution tuples, and
leaf-following reconstruction of the unknown solution slot.

A rule of rank s over an n-dimensional chart consumes m particular solutions.
Its level map psi has s components on the (m+1)-slot product chart; full
rules have s = n, partial rules add n - s constraint expressions cutting the
submanifold on which the rule lives.  An optional explicit map phi expresses
slot 0 directly through slots 1..m and the constants k1..ks.

A full rule whose psi and fields hold no function atom is decided on psi's
polynomial numerators: for psi_j = N/D, X~(psi_j) = 0 exactly when
X~(N) D - N X~(D) is the zero polynomial (tangency), and dpsi_j/dx_(0) has
the rank of the rows N_v D - N D_v wherever D does not vanish
(transversality).  N, D and their partials are read once per rule
(SuperpositionRule._gradient) and serve every field and both decisions.
Otherwise tangency is the zero test of the residuals X~(psi) that
VectorField.apply_to builds: for full rules on the residuals themselves, for
partial rules on the residuals pulled back along phi, which parametrizes the
constraint set N (a partial rule needs phi for this).  On N the residuals
X~(C) of the constraints are decided too, so tangency covers N's invariance
under the prolonged fields.  Any phi must land on its own leaves,
psi(phi) = k and C(phi) = 0.

Along solutions every rule is checked one way: psi's drift along one
integrated (m+1)-tuple, with slot 0 starting at x0, or on the leaf of k at t0
(phi there for a rule with phi, a leaf solve otherwise).

Reconstruction follows the leaf of k over the m solutions' values, by one
rebuild (_rebuild) for every caller: a curve is one row of nodes
(`reconstruct`), a PDE grid one row per t1 value (pde.pde_superpose), and
a start one node (_slot0_start).  With phi, slot 0 is phi there: phi is
taken as given, and decided once per command, exactly, by
`verify_tangency` (_phi_on_leaves), which `rule_checks` runs before
`superpose` integrates anything.  Without phi each node is a
damped Newton solve from the secant predictor through the two nodes
before it in its row, x_(k-1) + q (x_(k-1) - x_(k-2)) with
q = dt_k / dt_(k-1), or from the previous node where q > 5
(PREDICTOR_MAX_RATIO), since the slope carries the nodes' Newton error q
times over; a grid row's first node is predicted in the same way from the
first nodes of the rows before it.
This is the Euler-Newton predictor-corrector of continuation methods.
The solve is one function generated for the rule by each rebuild
(_leaf_solve), with no cache of its own: residuals, norm, the exact
Jacobian (derivative trees evaluated in floats) and each damped trial are
scalar locals; for n > 1 the step is still np.linalg.solve.

`rule_checks`, `solution_checks` and `superpose_checks` turn these into the
named checks of `liesys verify` and `liesys superpose`, and of the catalog.
`rule_checks` is the one decision of a rule: `verify` reports it,
`superpose_checks` and pde.grid_superpose_checks start with it and
integrate nothing when it fails.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from . import algebra
from . import expr as ex
from .dynamics import LieSystem, Trajectory, integrate_tuple
from .errors import EvaluationError, LiesysError, NonConvergenceError, SingularDomainError
from .expr import Chart, Expr, Var
from .geometry import ProductChart, VectorField, diagonal_prolongation
from .report import Check

__all__ = [
    "SuperpositionRule",
    "TangencyCheck",
    "TangencyReport",
    "verify_tangency",
    "transversality_rank",
    "ConstancyReport",
    "verify_along_solutions",
    "reconstruct",
    "derive_k",
    "rule_checks",
    "solution_checks",
    "superpose_checks",
]

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
NEWTON_MAX_HALVINGS = 8
# reconstruct without phi starts a node at the previous one, not at the
# secant predictor, where the step is more than this many times the last
PREDICTOR_MAX_RATIO = 5.0
DEFAULT_TOL_CONST = 1e-6
# largest gap between a rebuilt slot 0 and the integrated solution it rebuilds
GAP_LIMIT = 1e-5


@dataclass(frozen=True)
class SuperpositionRule:
    """m solutions in, rank-s level map psi (and optional explicit phi)."""

    base_chart: Chart
    m: int
    rank: int
    psi: tuple[Expr, ...]
    phi: tuple[Expr, ...] | None = None
    constraints: tuple[Expr, ...] = ()

    def __post_init__(self):
        n = self.base_chart.dim
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 1 <= self.rank <= n:
            raise ValueError(f"rank must be in 1..{n}")
        if len(self.psi) != self.rank:
            raise ValueError(f"psi needs {self.rank} components, got {len(self.psi)}")
        if len(self.constraints) != n - self.rank:
            raise ValueError(f"need {n - self.rank} constraints, got {len(self.constraints)}")
        allowed = set(self.product_chart.names)
        for e in self.psi + self.constraints:
            extra = ex.free_variables(e) - allowed
            if extra:
                raise ValueError(f"level map uses unknown names {sorted(extra)}")
        if self.phi is not None:
            if len(self.phi) != n:
                raise ValueError(f"phi needs {n} components, got {len(self.phi)}")
            allowed_phi = set(self.phi_names)
            for e in self.phi:
                extra = ex.free_variables(e) - allowed_phi
                if extra:
                    raise ValueError(f"phi uses unknown names {sorted(extra)}")

    @property
    def product_chart(self) -> ProductChart:
        return ProductChart.of(self.base_chart, self.m + 1)

    @property
    def k_names(self) -> tuple[str, ...]:
        return tuple(f"k{i+1}" for i in range(self.rank))

    @property
    def phi_names(self) -> tuple[str, ...]:
        chart = self.product_chart
        slots = tuple(n for a in range(1, self.m + 1) for n in chart.slot_names(a))
        return slots + self.k_names

    @property
    def is_partial(self) -> bool:
        return self.rank < self.base_chart.dim

    @cached_property
    def _gradient(self) -> tuple[tuple[dict, dict, dict[str, dict], dict[str, dict]], ...] | None:
        """Per psi_j, its unreduced normal-form pair (N, D) and their nonzero
        partials {v: d_v} over the product chart (ex._lowered), read once
        for verify_tangency and transversality_rank; None when some psi_j
        holds a function atom or cannot be folded within the expansion
        bounds (LiesysError), where the tree paths decide, or raise, as
        before."""
        try:
            nfs = [ex._nf_of(p) for p in self.psi]
        except LiesysError:
            return None
        if any(nf.trans for nf in nfs):
            return None
        names = frozenset(self.product_chart.names)
        return tuple((num, den, ex._lowered(num, names), ex._lowered(den, names))
                     for num, den in (nf.num_den for nf in nfs))

    @staticmethod
    def from_strings(
        base_chart: Chart,
        m: int,
        s: int,
        psi: Sequence[str],
        phi: Sequence[str] | None = None,
        constraints: Sequence[str] = (),
    ) -> "SuperpositionRule":
        chart = ProductChart.of(base_chart, m + 1)
        k_names = tuple(f"k{i+1}" for i in range(s))
        psi_exprs = tuple(ex.parse(t, chart.names) for t in psi)
        cons = tuple(ex.parse(t, chart.names) for t in constraints)
        phi_exprs = None
        if phi is not None:
            names = chart.names[base_chart.dim :] + k_names
            phi_exprs = tuple(ex.parse(t, names) for t in phi)
        return SuperpositionRule(base_chart, m, s, psi_exprs, phi_exprs, cons)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "s": self.rank,
            "psi": [str(e) for e in self.psi],
            "phi": None if self.phi is None else [str(e) for e in self.phi],
            "constraints": [str(e) for e in self.constraints],
        }

    @staticmethod
    def from_json_dict(base_chart: Chart, data: dict) -> "SuperpositionRule":
        return SuperpositionRule.from_strings(
            base_chart,
            int(data["m"]),
            int(data["s"]),
            list(data["psi"]),
            data.get("phi"),
            list(data.get("constraints") or ()),
        )


# ---------------------------------------------------------------------------
# Tangency: X~(psi^j) = 0 for every basis field
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TangencyCheck:
    field_index: int
    component: int
    verdict: str  # zero | nonzero | unknown (every sample vanished)
    probabilistic: bool
    samples: int = 0
    level: str = "psi"  # psi | constraint: what the prolonged field was applied to


@dataclass
class TangencyReport:
    checks: list[TangencyCheck]

    @property
    def all_zero(self) -> bool:
        return all(c.verdict in ("zero", "unknown") for c in self.checks)

    @property
    def probabilistic(self) -> bool:
        return any(c.probabilistic for c in self.checks)


def _phi_on_leaves(rule: SuperpositionRule, seed: int) -> tuple[Mapping[str, Expr], bool]:
    """The substitution of phi for the slot-0 variables, and whether a leaf
    condition could only be sampled.  Raises LiesysError when phi is missing,
    a leaf condition psi_j(phi) - k_j or C_l(phi) is nonzero, or phi lands
    where psi_j or C_l is undefined.  verify_tangency makes the one call of
    a command, so nothing is cached."""
    if rule.phi is None:
        raise LiesysError("tangency of a partial rule is decided along phi, and the rule has no phi")
    on_phi = dict(zip(rule.product_chart.slot_names(0), rule.phi))
    conditions = [
        ("psi", f"psi component {j}", f"psi(phi) - {k}", ex.substitute(p, on_phi) - Var(k))
        for j, (p, k) in enumerate(zip(rule.psi, rule.k_names))
    ] + [
        ("C", f"constraint {l}", "C(phi)", ex.substitute(c, on_phi))
        for l, c in enumerate(rule.constraints)
    ]
    sampled = False
    for level, label, term, condition in conditions:
        try:
            decision = ex.is_zero(condition, seed=seed)
        except EvaluationError as exc:
            raise LiesysError(f"phi lands where {level} is undefined: {label}: {exc}") from None
        if decision.verdict == "nonzero":
            residual = ex._tree_of(ex._nf_of(condition))
            raise LiesysError(
                f"phi is off its own leaves: {label}: {term} = {ex._brief(residual, str(residual))} is not zero"
            )
        sampled = sampled or not decision.exact
    return on_phi, sampled


def _prolonged_rates(rule: SuperpositionRule, field: VectorField) -> dict[str, ex._NF] | None:
    """The rates X~(x_(a)^i) = X^i, renamed into slot a, of the prolonged
    field on every variable of the product chart, folded slot by slot from
    slot 0, as diagonal_prolongation's components are, with no prolonged
    field built; None when a component holds a function atom."""
    chart, rates = rule.product_chart, {}
    for a in range(rule.m + 1):
        nfs = [ex._nf_of(chart.to_slot(c, a)) for c in field.components]
        if any(nf.trans for nf in nfs):
            return None
        rates.update(zip(chart.slot_names(a), nfs))
    return rates


def _annihilates(gradient_j: tuple, rates: Mapping[str, ex._NF]) -> bool:
    """X~(N/D) = 0 for psi_j = N/D with its partials (SuperpositionRule._gradient),
    decided on the polynomial X~(N) D - N X~(D), with X~(N) and X~(D) the
    dot products of the partials with the rates (ex._nf_dot): no quotient
    rule or tree, and a gcd only where _nf_dot joins unlike non-constant
    denominators of the rates."""
    num, den, dnum, dden = gradient_j

    def moved(partials):
        return ex._nf_dot((1, ex._NF(q, ex._PONE, False), rates[v]) for v, q in partials.items()).num_den

    an, ad = moved(dnum)
    bn, bd = moved(dden) if dden else ({}, ex._PONE)
    if not bn:
        return not an
    top = ex._pmul(ex._pmul(an, bd), den)
    ex._pmul_into(top, ex._pmul(num, bn), ad, -1)
    return not top


def _numerator_verdicts(rule: SuperpositionRule, field: VectorField) -> list[str] | None:
    """The verdict of X~(psi_j) for each j, on numerators (_annihilates), for
    a full rule whose psi and field hold no function atom; None otherwise,
    or where a numerator passes an expansion bound (LiesysError), which the
    quotient rule's gcd(D, X~(D)) may keep within them."""
    if rule.is_partial or rule._gradient is None:
        return None
    rates = _prolonged_rates(rule, field)
    if rates is None:
        return None
    try:
        return ["zero" if _annihilates(g, rates) else "nonzero" for g in rule._gradient]
    except LiesysError:
        return None


def verify_tangency(
    rule: SuperpositionRule,
    fields: Sequence[VectorField],
    seed: int = 0,
) -> TangencyReport:
    """X~_a(psi^j) = 0 for each basis field and level-map component.

    A full rule whose psi and field hold no function atom is decided on
    numerators: X~(N/D) = 0 exactly when X~(N) D - N X~(D) is the zero
    polynomial, from psi's partials read once per rule
    (SuperpositionRule._gradient) and the prolonged field's rates, folded
    slot by slot (_prolonged_rates).  Otherwise each residual, as built by
    VectorField.apply_to on the diagonal prolongation, is decided by
    ex.is_zero.

    A phi must land on its own leaves, psi_j(phi) = k_j and C_l(phi) = 0,
    which is decided first (_phi_on_leaves); if one of them can only be
    sampled, every residual verdict is labelled probabilistic.  A partial
    rule's residuals only need to vanish on the constraint set N, which phi
    parametrizes by (x_(1..m), k): they are decided after substituting phi
    for slot 0.  They include X~_a(C_l) for each constraint (level
    "constraint"), which vanish on N exactly when N is invariant under the
    prolonged fields.
    """
    on_phi, leaves_sampled = (
        _phi_on_leaves(rule, seed) if rule.phi is not None or rule.is_partial else (None, False)
    )
    levels = [("psi", j, p) for j, p in enumerate(rule.psi)]
    if rule.is_partial:
        levels += [("constraint", l, c) for l, c in enumerate(rule.constraints)]
    checks: list[TangencyCheck] = []
    for alpha, base_field in enumerate(fields):
        if base_field.chart.names != rule.base_chart.names:
            raise ValueError("fields must live on the rule's base chart")
        verdicts = _numerator_verdicts(rule, base_field)
        if verdicts is not None:
            checks += [TangencyCheck(alpha, j, verdict, leaves_sampled) for j, verdict in enumerate(verdicts)]
            continue
        prolonged = diagonal_prolongation(base_field, rule.m + 1)
        for level, j, function in levels:
            residual = prolonged.apply_to(function)
            if rule.is_partial:
                residual = ex.substitute(residual, on_phi)
            decision = ex.is_zero(residual, seed=seed)
            checks.append(TangencyCheck(
                alpha, j, decision.verdict,
                leaves_sampled or not decision.exact, decision.samples, level,
            ))
    return TangencyReport(checks)


def _rows_at(gradient: tuple, slot0: Sequence[str], names: Sequence[str],
             values: Sequence[Fraction]) -> list[list[int]]:
    """Per psi_j = N/D (SuperpositionRule._gradient), the row N_v D - N D_v
    over the slot-0 variables v at the rational point `values` of `names`,
    in integers: each of N, D and their partials is homogenized to K, the
    larger total degree of N and D, by L, the lcm of the point's
    denominators (ex._homogenized_at).  The row is L^(2K) D^2 times that
    of dpsi_j/dx_(0), so it has the same rank where D does not vanish.
    Raises EvaluationError where some D_j vanishes (a pole of psi_j) or an
    integer L^K or x^K might pass MAX_EXACT_BITS."""
    scale = math.lcm(*(v.denominator for v in values))
    point = {a: v.numerator * (scale // v.denominator) for a, v in zip(names, values)}
    largest = max(scale, *map(abs, point.values()))
    rows = []
    for num, den, dnum, dden in gradient:
        degree = max(ex._degree(num), ex._degree(den))
        ex._bound_power(largest, degree)
        n, d = (ex._homogenized_at(p, point, scale, degree) for p in (num, den))
        if not d:
            raise EvaluationError("division by zero at evaluation point")
        rows.append([ex._homogenized_at(dnum.get(v, {}), point, scale, degree) * d
                     - n * ex._homogenized_at(dden.get(v, {}), point, scale, degree) for v in slot0])
    return rows


def transversality_rank(rule: SuperpositionRule, seed: int = 0) -> tuple[int, bool]:
    """Rank of the s x n matrix dpsi_j/dx_(0),i at random rational points of
    the product chart, and whether it is exact (algebra._generic_rank, with
    its Schwartz-Zippel bound).  Rank s means psi is transversal to the
    slot-0 fibre: a leaf and the m other points fix x_(0) locally.

    Where psi holds no function atom, row j is N_v D - N D_v for psi_j =
    N/D, from the partials read once per rule (SuperpositionRule._gradient),
    evaluated in integers (_rows_at): it has the rank of dpsi_j/dx_(0)
    wherever D_j is nonzero, and a tuple where some D_j vanishes is a miss.
    Where every tuple misses there, and with function atoms, the entries
    are the derivative trees (ex._diff_tree) of the first s rows of the
    Jacobian that the leaf solve compiles (_leaf_solve), unreduced, so no
    gcd runs, compiled once as an exact vector (ex.compile_vector)."""
    chart, n = rule.product_chart, rule.base_chart.dim
    if rule._gradient is not None:
        slot0 = chart.slot_names(0)
        try:
            rank, _, exact = algebra._generic_rank(
                lambda values: algebra._rank(_rows_at(rule._gradient, slot0, chart.names, values)),
                chart.dim, rule.rank, random.Random(seed))
            return rank, exact
        except EvaluationError:
            pass
    entries = ex.compile_vector([ex._diff_tree(p, v) for p in rule.psi for v in chart.slot_names(0)],
                                chart.names, exact=True)

    def rank_at(values):
        try:
            flat = entries(*values)
            return algebra._rank([flat[j:j + n] for j in range(0, len(flat), n)])
        except OverflowError:
            raise EvaluationError("a derivative of psi is out of the float range") from None

    rank, _, exact = algebra._generic_rank(rank_at, chart.dim, rule.rank, random.Random(seed))
    return rank, exact


# ---------------------------------------------------------------------------
# Constancy along solution tuples
# ---------------------------------------------------------------------------


@dataclass
class ConstancyReport:
    drift: np.ndarray          # per psi component
    initial_values: np.ndarray
    tol_const: float

    @property
    def max_drift(self) -> float:
        return float(np.max(self.drift))


def _stack_states(trajectories: Sequence[Trajectory]) -> tuple[np.ndarray, np.ndarray]:
    grid = trajectories[0].t
    for tr in trajectories[1:]:
        if tr.t is not grid and (len(tr.t) != len(grid) or not np.allclose(tr.t, grid, atol=1e-12)):
            raise ValueError("trajectories must share one grid (integrate them with integrate_tuple)")
    states = np.concatenate([tr.states for tr in trajectories], axis=1)
    return grid, states


def _psi_at(psi, point: list[float], t: float) -> list[float]:
    """The compiled psi at a point of a tuple, or SingularDomainError at t
    where psi is singular or not finite there."""
    try:
        values = psi(*point)
        if all(map(math.isfinite, values)):
            return values
    except (ZeroDivisionError, ValueError, OverflowError):
        pass
    raise SingularDomainError("psi evaluation singular along the tuple", t)


def verify_along_solutions(
    rule: SuperpositionRule,
    sys: LieSystem,
    trajectories: Sequence[Trajectory],
    tol_const: float = DEFAULT_TOL_CONST,
) -> ConstancyReport:
    """Componentwise max |psi(t) - psi(0)| over the shared grid of an
    (m+1)-tuple of solutions; singular evaluation reports the offending t.
    psi is evaluated on Python float rows, converted to one array at the
    end."""
    if len(trajectories) != rule.m + 1:
        raise ValueError(f"need {rule.m + 1} trajectories (slot 0 first), got {len(trajectories)}")
    if sys.chart.names != rule.base_chart.names:
        raise ValueError("system chart does not match the rule")
    grid, states = _stack_states(trajectories)
    psi = ex.compile_vector(rule.psi, rule.product_chart.names)
    values = np.array([_psi_at(psi, point, t) for point, t in zip(states.tolist(), grid.tolist())],
                      dtype=float)
    drift = np.max(np.abs(values - values[0]), axis=0)
    return ConstancyReport(drift, values[0].copy(), tol_const)


# ---------------------------------------------------------------------------
# Reconstruction (leaf following)
# ---------------------------------------------------------------------------


def _leaf_solve(rule: SuperpositionRule) -> Callable[..., list[float]]:
    """Damped Newton for psi(x0, slots) = k plus constraints = 0 in the
    slot-0 variables, as one function generated for the rule:
    solve(rest, k, guess, t) -> slot 0, where `rest` holds the other slots
    and t only names the node in an error (a time, or a grid node).

    The iterate, the residuals r_j = psi_j - k_j (the constraints have no
    k), their norm, the n x n slot-0 Jacobian and each damped trial are
    scalar locals, each equation and entry written inline; the one list and
    call per iteration is np.linalg.solve's, for n > 1.  Jacobian entries
    are exact derivative trees (`ex._diff_tree`), not canonical forms, so
    building a solver runs no gcd; they leave out zero partials and unit
    factors, and keep every nonzero value's bits.  The quotient rule keeps
    the denominators and ln' = u'/u, so an entry is defined wherever its
    equation is; an entry that is identically zero is the constant 0 and
    never raises, even where the b^2 of its dropped quotient-rule terms
    would underflow.  Iterates are plain floats, so a singular point raises
    instead of warning.  The residual norm is NaN when a residual is, as
    with np.max (Python's max skips a NaN that is not the first item), so
    a NaN never counts as converged.  For n = 1 the step is -r/J, which is
    bit-identical to np.linalg.solve on the 1 x 1 system.  The NEWTON_*
    constants are read when the solver is built.  Each source text is
    compiled once per process (ex.compile_source), so rules with the same
    equations share its code; the solver itself is built per call, and
    each rebuild (_rebuild) builds one.
    """
    n, names = rule.base_chart.dim, rule.product_chart.names
    equations = list(rule.psi) + list(rule.constraints)
    rest = [f"p_{i}" for i in range(len(names) - n)]
    at = dict(zip(names, [f"x_{i}" for i in range(n)] + rest))

    def each(name):
        return ", ".join(f"{name}_{i}" for i in range(n)) + ","

    # the residuals at x, written once: the start and every trial assign x
    residuals = [f"r_{j} = {ex.python_source(e, at)}" + (f" - k_{j}" if j < rule.rank else "")
                 for j, e in enumerate(equations)]
    absolutes = ", ".join(f"_abs(r_{j})" for j in range(n))
    norm = (" or ".join(f"r_{j} != r_{j}" for j in range(n))
            + " else " + (f"_max({absolutes})" if n > 1 else absolutes))
    jacobian = [f"j_{row * n + i} = {ex.python_source(ex._diff_tree(e, v), at)}"
                for row, e in enumerate(equations) for i, v in enumerate(names[:n])]
    if n == 1:
        step = "s_0 = -r_0 / j_0"
    else:
        matrix = ", ".join("[" + ", ".join(f"j_{row * n + i}" for i in range(n)) + "]" for row in range(n))
        step = (f"{each('s')} = _solve(_array([{matrix}], dtype=_float), "
                f"[{', '.join(f'-r_{j}' for j in range(n))}]).tolist()")
    lines = ["def solve(rest, k, guess, t):",
             f"    {''.join(f'{p}, ' for p in rest)}= rest",
             f"    {''.join(f'k_{j}, ' for j in range(rule.rank))}= k",
             f"    {each('x')} = guess",
             "    try:",
             *(f"        {line}" for line in residuals),
             "    except _errors:",
             "        raise _Singular('leaf solve started at a singular point', t) from None",
             f"    norm = _nan if {norm}",
             "    for _ in _iterations:",
             "        if norm < _tol:",
             f"            return [{each('x')}]",
             "        try:",
             *(f"            {line}" for line in jacobian),
             "        except _errors:",
             "            raise _Singular('Jacobian evaluation singular', t) from None",
             "        try:",
             f"            {step}",
             "        except _singular_matrix:",
             "            raise _NonConvergence('singular Jacobian in leaf solve', t) from None",
             # the iterate is v while x and r hold each trial; a trial that
             # is not taken is overwritten by the next, or the loop raises
             f"        {each('v')} = {each('x')}",
             "        lam = 1.0",
             "        for _ in _halvings:",
             "            try:",
             *(f"                x_{i} = v_{i} + lam * s_{i}" for i in range(n)),
             *(f"                {line}" for line in residuals),
             f"                trial = _nan if {norm}",
             "            except _errors:",
             "                trial = _inf",
             # norm >= NEWTON_TOL here, or the loop would have returned
             "            if _isfinite(trial) and trial < norm:",
             "                break",
             "            lam *= 0.5",
             "        else:",
             "            raise _NonConvergence('Newton damping exhausted', t)",
             "        norm = trial",
             "    if norm < _tol:",
             f"        return [{each('x')}]",
             "    raise _NonConvergence(_unconverged, t)"]
    return ex.compile_source(
        "\n".join(lines), "solve", _max=max, _abs=abs, _isfinite=math.isfinite, _nan=math.nan,
        _inf=math.inf, _float=float, _array=np.array, _solve=np.linalg.solve,
        _errors=(ZeroDivisionError, ValueError, OverflowError),
        _singular_matrix=(ZeroDivisionError, np.linalg.LinAlgError),
        _Singular=SingularDomainError, _NonConvergence=NonConvergenceError, _tol=NEWTON_TOL,
        _iterations=range(NEWTON_MAX_ITER), _halvings=range(NEWTON_MAX_HALVINGS + 1),
        _unconverged=f"Newton did not converge in {NEWTON_MAX_ITER} iterations")


def derive_k(rule: SuperpositionRule, x0: Sequence[float], slot_states: Sequence[Sequence[float]]) -> np.ndarray:
    """k := psi(x0(0), x_(1)(0), ..., x_(m)(0)); a singular or non-finite psi
    there raises SingularDomainError at t = 0."""
    point = np.concatenate([np.asarray(x0, float)] + [np.asarray(s, float) for s in slot_states])
    psi = ex.compile_vector(rule.psi, rule.product_chart.names)
    return np.array(_psi_at(psi, point.tolist(), 0.0))


def _phi_points(rule: SuperpositionRule, k: list[float]) -> Callable[[list[float], float], list[float]]:
    """phi with k bound: at(rest, t) is slot 0 over the slots `rest` at t,
    or SingularDomainError where phi is singular."""
    phi = ex.compile_vector(rule.phi, rule.phi_names)

    def at(rest, t):
        try:
            return phi(*rest, *k)
        except (ZeroDivisionError, ValueError, OverflowError):
            raise SingularDomainError("phi evaluation singular", t) from None
    return at


def _slot0_start(rule: SuperpositionRule, points: Sequence[Sequence[float]],
                 t0: float | tuple[int, int], k: Sequence[float] | None = None,
                 x0: Sequence[float] | None = None, guess: Sequence[float] | None = None,
                 ) -> Sequence[float]:
    """Where slot 0 starts at t0 (a time, or the first node of a PDE grid)
    over the m `points`: given k, k's leaf point there, _rebuild's one node
    (phi, or a leaf solve from `guess`); otherwise x0, or points[0] shifted
    by 0.1."""
    if k is None:
        return x0 if x0 is not None else [float(v) + 0.1 for v in points[0]]
    return _rebuild(rule, [[[float(v) for point in points for v in point]]], k, guess, [[t0]])[0][0]


def _predicted(before: list[float], last: list[float], t0: float, t1: float, t2: float) -> list[float]:
    """The secant predictor for the node at t2 from the nodes `before` at t0
    and `last` at t1: last + q (last - before) with q = (t2 - t1) / (t1 - t0),
    or `last` where q > PREDICTOR_MAX_RATIO (or t1 = t0).  The slope carries
    the two nodes' Newton error, q times over, into the guess; on a grid
    with near-duplicate nodes q reaches thousands."""
    step = t1 - t0
    if step == 0 or not abs(q := (t2 - t1) / step) <= PREDICTOR_MAX_RATIO:
        return last
    return [b + q * (b - a) for a, b in zip(before, last)]


def _rebuild(rule: SuperpositionRule, rows: Sequence[Sequence[list[float]]], k: Sequence[float],
             guess: Sequence[float] | None, labels: Sequence[Sequence[float | tuple[int, int]]],
             axes: tuple[Sequence[float], Sequence[float]] | None = None) -> list[list[list[float]]]:
    """The one rebuild of slot 0 with psi held at k, node by node, over
    `rows` of the m particular solutions' values: rows[i][j], the m slots'
    coordinates in slot order, is the node at (axes[0][i], axes[1][j]),
    evenly spaced when axes is None.  A curve is one row (reconstruct); a
    PDE grid has one row per t1 value (pde_superpose); a start is one node
    (_slot0_start).

    With phi, every node is phi there, taken as given: whether phi lands on
    its own leaves is decided exactly, once, by verify_tangency
    (_phi_on_leaves), which rule_checks runs.  Without phi, every node is
    a damped Newton solve (_leaf_solve) that follows the leaf along its row: the
    first node of row 0 starts at `guess`, the second node of a row at the
    first, and every later one at the secant predictor through the two
    nodes before it (_predicted).  A row's first node follows the first
    nodes of the rows before it in the same way, along axes[0].  A failure
    names its node by labels[i][j]: its t on a curve, its (row, column) on
    a PDE grid.  A k of another shape than the rule's s values raises
    ValueError."""
    if np.shape(k) != (rule.rank,):
        raise ValueError(f"k must have {rule.rank} entries")
    k = np.asarray(k, dtype=float).tolist()
    if rule.phi is not None:
        phi = _phi_points(rule, k)
        return [[phi(rest, t) for rest, t in zip(row, names)] for row, names in zip(rows, labels)]
    if guess is None:
        raise ValueError("x0_guess is required when the rule has no phi")
    solve, guess, out = _leaf_solve(rule), np.asarray(guess, dtype=float).tolist(), []
    down, along = axes or (range(len(rows)), range(len(rows[0])))
    for i, (row, names) in enumerate(zip(rows, labels)):
        if i >= 2:
            guess = _predicted(out[-2][0], out[-1][0], down[i - 2], down[i - 1], down[i])
        elif i:
            guess = out[0][0]
        nodes = []
        for j, rest in enumerate(row):
            if j >= 2:
                guess = _predicted(nodes[-2], nodes[-1], along[j - 2], along[j - 1], along[j])
            guess = solve(rest, k, guess, names[j])
            nodes.append(guess)
        out.append(nodes)
    return out


def reconstruct(
    rule: SuperpositionRule,
    trajectories: Sequence[Trajectory],
    k: Sequence[float],
    x0_guess: Sequence[float] | None = None,
) -> Trajectory:
    """Slot-0 curve with psi held at k along the m particular solutions:
    their shared grid as one row of _rebuild, phi at each node or a Newton
    solve from the secant predictor, a failure naming the node's t.  The
    nodes are Python floats until the one array conversion at the end."""
    if len(trajectories) != rule.m:
        raise ValueError(f"need {rule.m} particular solutions, got {len(trajectories)}")
    grid, rests = _stack_states(trajectories)
    ts = grid.tolist()
    [nodes] = _rebuild(rule, [rests.tolist()], k, x0_guess, [ts], ((0.0,), ts))
    # the particular solutions share one grid, so they end together
    return Trajectory(grid, np.array(nodes, dtype=float), stop=trajectories[0].stop)


# ---------------------------------------------------------------------------
# Checks shared by the command line and the example catalog
# ---------------------------------------------------------------------------


def rule_checks(rule: SuperpositionRule, fields: Sequence[VectorField], seed: int = 0) -> list[Check]:
    """The leaves of psi, and a partial rule's constraint set, are invariant
    under the prolonged fields (verify_tangency), and psi is transversal to
    the slot-0 fibre (transversality_rank)."""
    tangency = verify_tangency(rule, fields, seed=seed)
    nonzero = "; ".join(f"field {c.field_index} {c.level} {c.component}: {c.verdict}"
                        for c in tangency.checks if c.verdict == "nonzero")
    rank, exact = transversality_rank(rule, seed=seed)
    return [
        Check("tangency_zero", tangency.all_zero, probabilistic=tangency.probabilistic,
              detail=nonzero or "all residuals vanish"),
        Check("psi_transversal", rank == rule.rank, probabilistic=not exact,
              detail=f"rank {rank} of dpsi_j/dx_(0),i, need s = {rule.rank}"),
    ]


def solution_checks(rule: SuperpositionRule, sys: LieSystem, points: Sequence[Sequence[float]],
                    t_span: tuple[float, float], tol: float, tol_const: float,
                    k: Sequence[float] | None = None,
                    x0: Sequence[float] | None = None) -> tuple[list[Check], dict]:
    """psi's drift along the tuple of slot 0 and the m solutions from
    `points`, and the report extra `initial_psi`.  Slot 0 starts on the leaf
    of k when k is given (a partial rule's start on its constraint set),
    else at x0, else at points[0] shifted by 0.1 (_slot0_start)."""
    slot0 = _slot0_start(rule, points, float(t_span[0]), k, x0)
    _, along, drift = _psi_drift(rule, sys, [slot0, *points], t_span, tol, tol_const)
    return [drift], {"initial_psi": [float(v) for v in along.initial_values]}


def superpose_checks(rule: SuperpositionRule, sys: LieSystem, points: Sequence[Sequence[float]],
                     t_span: tuple[float, float], tol: float, tol_const: float,
                     k: Sequence[float] | None = None, x0: Sequence[float] | None = None,
                     x0_guess: Sequence[float] | None = None, seed: int = 0,
                     ) -> tuple[list[Check], np.ndarray | None, Trajectory | None, list[Trajectory]]:
    """(checks, k, slot 0, particular solutions) of the rule as a foliation:
    a start on the leaf of k must move with the m solutions from `points`.
    The rule is decided first, as `verify` decides it (rule_checks on the
    system's fields under `seed`): a phi off its own leaves, or on a pole
    of psi, or a partial rule with no phi raises LiesysError with verify's
    reason, and a failing `tangency_zero` or `psi_transversal` ends the run
    before anything is integrated, returning those checks, None, None and
    no particular solutions.  Slot 0 starts at x0 or, given k, at the leaf
    point of k over the points at t0 (_slot0_start; leaf solves start at
    x0_guess, default x0).  It is integrated with the points as one tuple, and k,
    when not given, is psi at the tuple's start.  Slot 0 rebuilt from the
    particular solutions with psi held at k must match its integrated
    solution within GAP_LIMIT (`reconstruction_vs_direct`), and psi must
    stay constant along the tuple (`psi_drift_along_solutions`), which fails
    where psi is singular."""
    checks = rule_checks(rule, sys.fields, seed)
    if not all(c.passed for c in checks):
        return checks, None, None, []
    guess = x0 if x0_guess is None else x0_guess
    if k is not None:
        k = np.atleast_1d(np.asarray(k, dtype=float))
    start = _slot0_start(rule, points, float(t_span[0]), k, x0, guess)
    tuple_, along, drift = _psi_drift(rule, sys, [start, *points], t_span, tol, tol_const)
    k = along.initial_values if k is None else k
    slot0 = reconstruct(rule, tuple_[1:], k, x0_guess=guess)
    gap = float(np.max(np.abs(slot0.states - tuple_[0].states)))
    checks += [Check.limit("reconstruction_vs_direct", gap, GAP_LIMIT), drift]
    return checks, k, slot0, tuple_[1:]


def _psi_drift(rule: SuperpositionRule, sys: LieSystem, starts: Sequence[Sequence[float]],
               t_span: tuple[float, float], tol: float, tol_const: float,
               ) -> tuple[list[Trajectory], ConstancyReport, Check]:
    """The tuple integrated from `starts`, psi along it, and
    `psi_drift_along_solutions`: drift <= tol_const along a tuple that
    reached t1 or blew up; a stop on step underflow or the step budget
    fails, as `integrated` does.  The detail is empty for a tuple that
    reached t1, otherwise why and where it stopped and the part of t_span
    it covers."""
    tuple_ = integrate_tuple(sys, starts, t_span, tol)
    along = verify_along_solutions(rule, sys, tuple_, tol_const)
    reason, (a, b), t = tuple_[0].stop, t_span, tuple_[0].t_end
    detail = "" if reason is None else f"{reason} at t={t:.6g}: checked on [{a:g}, {t:.6g}] of [{a:g}, {b:g}]"
    check = Check.limit("psi_drift_along_solutions", along.max_drift, tol_const, detail=detail)
    check.passed = check.passed and reason in (None, "blow-up")
    return tuple_, along, check
