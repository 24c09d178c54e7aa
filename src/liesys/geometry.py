"""Vector fields on charts, Lie brackets, and diagonal prolongations.

A vector field is a tuple of expression components over a chart.  Diagonal
prolongations copy a field to every slot of a product chart; the converse
test (is a given field on a product a prolongation?) is decided symbolically
by canonical-form equality, never numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from . import expr as ex
from .errors import ChartMismatchError
from .expr import Chart, Const, Expr

__all__ = [
    "VectorField",
    "ProductChart",
    "lie_bracket",
    "diagonal_prolongation",
    "is_diagonal_prolongation",
    "ProlongationDecision",
]


@dataclass(frozen=True)
class ProductChart(Chart):
    """Chart of m+1 copies of a base chart; slot a gets names `<var>_<a>`.

    Slot 0 is reserved for the reconstructed (unknown) solution.
    """

    base: Chart = None  # type: ignore[assignment]
    copies: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.base is None or self.copies < 1:
            raise ValueError("ProductChart needs a base chart and copies >= 1")

    @staticmethod
    def of(base: Chart, copies: int) -> "ProductChart":
        names = tuple(f"{v}_{a}" for a in range(copies) for v in base.names)
        return ProductChart(names=names, base=base, copies=copies)

    def slot_names(self, a: int) -> tuple[str, ...]:
        n = self.base.dim
        return self.names[a * n : (a + 1) * n]

    def slot_var(self, name: str, a: int) -> str:
        return f"{name}_{a}"

    def to_slot(self, e: Expr, a: int) -> Expr:
        """Rename base-chart variables into slot a."""
        return ex.rename_variables(e, {v: self.slot_var(v, a) for v in self.base.names})

    def from_slot(self, e: Expr, a: int) -> Expr:
        return ex.rename_variables(e, {self.slot_var(v, a): v for v in self.base.names})


@dataclass(frozen=True)
class VectorField:
    """n expression components over an n-dimensional chart.

    `_jet` holds the components' normal forms and their nonzero partials,
    read on first use by one expr._nf_partials call per nonconstant
    component (lie_bracket reads it).  Filling it is idempotent,
    so threads that race on it are safe: each stores an equal value.  The
    normal forms it holds are live in the sense of the `_ATOMS` note in
    `expr`, so the atoms they name (cos(u), from a partial of sin(u)) stay
    reachable there while the field does.
    """

    chart: Chart
    components: tuple[Expr, ...]

    def __post_init__(self):
        if isinstance(self.components, list):
            object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) != self.chart.dim:
            raise ValueError(
                f"{len(self.components)} components on a {self.chart.dim}-dimensional chart"
            )
        names = set(self.chart.names)
        for c in self.components:
            extra = ex.free_variables(c) - names
            if extra:
                raise ValueError(f"component {c} uses non-chart variables {sorted(extra)}")

    @staticmethod
    def from_strings(chart: Chart, components: Iterable[str]) -> "VectorField":
        return VectorField(chart, tuple(ex.parse(s, chart) for s in components))

    @classmethod
    def _on_chart(cls, chart: Chart, components: tuple[Expr, ...]) -> "VectorField":
        """A field from n components known to use only the chart's variables,
        with no walk over their trees."""
        field = object.__new__(cls)
        object.__setattr__(field, "chart", chart)
        object.__setattr__(field, "components", components)
        return field

    @cached_property
    def _jet(self) -> tuple[tuple[ex._NF, dict[str, ex._NF]], ...]:
        """Per component X^i, its normal form and {v: d_v X^i} over the
        variables whose partial is nonzero, read by one expr._nf_partials
        call; a constant component has none, and makes no call."""
        jet = []
        for nf in map(ex._nf_of, self.components):
            num, den = nf.num_den
            constant = ex._is_const_poly(num) and ex._is_const_poly(den)
            jet.append((nf, {} if constant else ex._nf_partials(nf, self.chart.names)))
        return tuple(jet)

    def _rates(self) -> dict[str, ex._NF]:
        """The derivation X as the normal forms of X(x^i) = X^i."""
        return {v: ex._nf_of(c) for v, c in zip(self.chart.names, self.components)}

    def apply_to(self, f: Expr) -> Expr:
        """X(f) = sum_i X^i df/dx^i, with no canonical form: one derivation of
        f's normal form if rational, else derivative trees of f and the
        components as written, since the zero test then samples it in floats."""
        if not any(ex._nf_of(e).trans for e in (f, *self.components)):
            return ex._tree_of(ex._nf_derive(ex._nf_of(f), self._rates()))
        return ex.Add(tuple(
            ex.Mul((c, ex._diff_tree(f, v))) for v, c in zip(self.chart.names, self.components)
        ))

    def evaluate(self, point: Mapping[str, object] | Sequence) -> list:
        env = point if isinstance(point, Mapping) else dict(zip(self.chart.names, point))
        return [ex.evaluate(c, env) for c in self.components]

    def is_zero_field(self) -> bool:
        return all(ex.is_zero(c).verdict == "zero" for c in self.components)

    def __add__(self, other: "VectorField") -> "VectorField":
        _require_same_chart(self, other)
        return VectorField(
            self.chart,
            tuple(ex.canonical_expr(a + b) for a, b in zip(self.components, other.components)),
        )

    def __neg__(self) -> "VectorField":
        return self.scale(Const(-1))

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + (-other)

    def scale(self, factor: Expr | int | Fraction) -> "VectorField":
        f = factor if isinstance(factor, Expr) else Const(factor)
        return VectorField(
            self.chart, tuple(ex.canonical_expr(ex.Mul((f, c))) for c in self.components)
        )

    def to_json_dict(self) -> dict:
        return {"chart": list(self.chart.names), "components": [str(c) for c in self.components]}


def _require_same_chart(x: VectorField, y: VectorField):
    if x.chart.names != y.chart.names:
        raise ChartMismatchError(f"charts differ: {x.chart.names} vs {y.chart.names}")


def _bracket_nfs(x: VectorField, y: VectorField) -> tuple[ex._NF, ...]:
    """The normal forms of [X,Y]^i = sum_v (X^v d_v Y^i - Y^v d_v X^i), from
    the partials each field reads once (VectorField._jet), skipping zero
    components and zero partials: brackets of one field with r - 1 others
    walk each of its components once, not r - 1 times.  A component where
    neither X^i nor Y^i has a nonzero partial is the zero normal form at
    once; the others multiply their products straight into one numerator by
    expr._nf_dot, with no normal form per product.  Every component, a zero one too, is
    marked as holding a function atom when X or Y has one, so the zero test
    of a sum that holds it samples."""
    _require_same_chart(x, y)
    names, jx, jy = x.chart.names, x._jet, y._jet
    trans = any(nf.trans for nf, _ in jx + jy)
    nfs = []
    for (_, dx), (_, dy) in zip(jx, jy):
        if not (dx or dy):
            nfs.append(ex._NF_ZEROS[trans])
            continue
        terms = [(1, xv, dy[v]) for v, (xv, _) in zip(names, jx) if v in dy]
        terms += [(-1, yv, dx[v]) for v, (yv, _) in zip(names, jy) if v in dx]
        nfs.append(ex._nf_dot(terms, trans))
    return tuple(nfs)


def _field_of_nfs(chart: Chart, nfs: Sequence[ex._NF]) -> VectorField:
    """The field whose components are the trees of the normal forms'
    canonical forms, each carrying its reduced normal form; the normal
    forms of a bracket use only the chart's variables."""
    return VectorField._on_chart(chart, tuple(ex._expr_from_nf(nf) for nf in nfs))


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """[X,Y] as a field: the normal forms of _bracket_nfs, each component the
    tree of its canonical form, carrying its reduced normal form, whose sums
    build their terms on first read.  Closure reads _bracket_nfs itself, a
    component that no partial reaches being zero there too, and builds this
    field only for a witness or a field that completion adjoins."""
    return _field_of_nfs(x.chart, _bracket_nfs(x, y))


def diagonal_prolongation(x: VectorField, copies: int) -> VectorField:
    """Copy X into every slot of the product chart: slots stay uncoupled."""
    product = ProductChart.of(x.chart, copies)
    comps = []
    for a in range(copies):
        for c in x.components:
            comps.append(product.to_slot(c, a))
    return VectorField(product, tuple(comps))


@dataclass(frozen=True)
class ProlongationDecision:
    is_prolongation: bool
    base: VectorField | None = None
    witness_slots: tuple[int, int] | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.is_prolongation


def is_diagonal_prolongation(z: VectorField) -> ProlongationDecision:
    """Decide whether a field on a product chart is a diagonal prolongation.

    Yes iff every slot's components depend only on that slot's variables and
    all slots carry the same component functions after renaming (canonical
    equality).  Returns the base field on success, a witness slot pair
    otherwise.
    """
    chart = z.chart
    if not isinstance(chart, ProductChart):
        raise ChartMismatchError("is_diagonal_prolongation needs a field on a ProductChart")
    n = chart.base.dim
    slot_components: list[tuple[Expr, ...]] = []
    for a in range(chart.copies):
        comps = z.components[a * n : (a + 1) * n]
        allowed = set(chart.slot_names(a))
        for c in comps:
            foreign = ex.free_variables(c) - allowed
            if foreign:
                culprit = sorted(foreign)[0]
                b = next(
                    s for s in range(chart.copies) if culprit in chart.slot_names(s)
                )
                return ProlongationDecision(
                    False,
                    witness_slots=(a, b),
                    reason=f"slot-{a} components depend on slot-{b} variables ({culprit})",
                )
        slot_components.append(tuple(chart.from_slot(c, a) for c in comps))
    base_comps = slot_components[0]
    for a in range(1, chart.copies):
        for i in range(n):
            if not ex.canonically_equal(base_comps[i], slot_components[a][i]):
                return ProlongationDecision(
                    False,
                    witness_slots=(0, a),
                    reason=f"slot-0 and slot-{a} carry different component functions",
                )
    base = VectorField(chart.base, tuple(ex.canonical_expr(c) for c in base_comps))
    return ProlongationDecision(True, base=base)
