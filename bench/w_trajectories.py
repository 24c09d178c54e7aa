"""Workload `trajectories`: one operation is one seeded numerical problem.
Its symbolic work (systems, rules, the PDE decomposition) happens in set-up;
operations use the `expr` layer only to compile and evaluate.  It loads
`dynamics`, `superposition`, `pde` and `group`.

Operation kinds, with the answers known in advance:
- `riccati`: dx/dt = b1 + b2 x + b3 x^2 with random quadratic coefficient
  curves on [0, 1.5]: b_a(t) = c0 + c1 t + c2 t^2 with c0 within 0.05 of
  1, 0, -1 and |c1|, |c2| <= 0.02, so |b1 - 1|, |b2|, |b3 + 1| <= 0.125.
  Then x' >= 0.53 at x = -0.5 and x' <= -2.1 at x = 2: the strip
  [-0.5, 2] is invariant, and four starting points in it, at least 0.55
  apart, never escape.  `fundamental_set` (m = 3), slot-0 `integrate`,
  `verify_along_solutions` with the cross ratio, and `reconstruct` with phi
  and Newton-only, which must give the same curve, close to the direct
  slot-0 solution.
- `linear2`, `linear3`: dx/dt = A(t) x over gl(n) with the linear rule;
  linear solutions never escape and the rule is exact.  The particular
  starts e_i + (entries within 0.2) are diagonally dominant, so independent.
- `pde`: the flat u_t1 = u_t2 = u^2 on [0, 0.42]^2.  `solve_on_grid` from
  three initial values near -1.6, -0.8 and 0, then `pde_superpose` for one
  near 0.4, against the closed form u/(1 - u (t1 + t2)), finite while
  u (t1 + t2) <= 0.5 * 0.84 < 1.  The reconstructed value is the largest of
  the four: pde_superpose
  warm-starts each row from the end of the previous one, and when another
  solution lies between the two the Newton solve has to cross the pole of
  the cross ratio and fails.  That case is run once after the cycles and
  counted in `pde.superpose_crossing_failures`.
- `group`: constant sl(2) coefficients within 0.25 of (1, 0, 1).
  g(t) = exp(tA) in closed form (A^2 = delta I), the linear orbit g(t) x0,
  and `check_equivariance` from a start whose orbit keeps x2 >= 0.1.
- `escape`: b1 >= 0, |b2| <= 1/4, b3 >= 1/2 and x0 >= 1 give
  x' >= x^2/4, so the solution passes 1e8 before t = 4 / x0 <= 4; it is
  integrated at the default tol 1e-9 over [0, 5] and must report blew_up.
  One operation in nine is an escape: it puts the integrator's round-off
  step-rejection regime into every run.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

from harness import Op, Outcome, calibrate, to_reference
from tracing import NULL

NOMINAL_CYCLE_S = 8.75
TOL = 1e-9
TOL_CONST = 1e-6
# Constancy drift and the gap to the direct solution are measured, not
# judged against tol_const: at tol 1e-9 the cubic-Hermite resampling in
# align_trajectories alone can push drift past tol_const on a correct rule
# (ROADMAP item 3).  They fail an operation only past this gross limit.
GROSS_LIMIT = 1e-4
RECON_LIMIT = 1e-5  # the catalog's own limit, for solutions on their own grids
PHI_NEWTON_LIMIT = 1e-8
RICCATI_PER_CYCLE = 4


def _curve_text(rng: random.Random, base: tuple, jitter: tuple) -> str:
    """c0 + c1 t + c2 t^2 with c_j within jitter_j/1000 of base_j."""
    c = [Fraction(b) + Fraction(rng.randint(-j, j), 1000) for b, j in zip(base, jitter)]
    return f"({c[0]}) + ({c[1]})*t + ({c[2]})*t^2"


def _riccati_points(rng: random.Random) -> list[float]:
    """Four starts near -0.35, 0.3, 0.95 and 1.6, in seeded order (the
    first is slot 0)."""
    return [p + rng.uniform(-0.05, 0.05) for p in rng.sample((-0.35, 0.3, 0.95, 1.6), 4)]


def _expm_sl2(b1: float, b2: float, b3: float, t: np.ndarray) -> np.ndarray:
    """exp(tA) for A = [[b2/2, b1], [-b3, -b2/2]], from A^2 = delta I."""
    a = np.array([[b2 / 2, b1], [-b3, -b2 / 2]])
    delta = b2 * b2 / 4 - b1 * b3
    if delta > 0:
        r = math.sqrt(delta)
        c, s = np.cosh(r * t), np.sinh(r * t) / r
    elif delta < 0:
        w = math.sqrt(-delta)
        c, s = np.cos(w * t), np.sin(w * t) / w
    else:
        c, s = np.ones_like(t), t
    return c[:, None, None] * np.eye(2) + s[:, None, None] * a


class State:
    def __init__(self, lib):
        self.lib = lib
        self.cycles: list[list[Op]] = []
        self.velocity_system = None
        self.crossing_probe: Op | None = None


def _fresh(lib, e):
    return lib["expr"].substitute(e, {})


def _fresh_rule(lib, rule, with_phi: bool = True):
    """A copy of a full rule on fresh trees, with its phi or Newton-only."""
    phi = tuple(_fresh(lib, e) for e in rule.phi) if with_phi else None
    return lib["superposition"].SuperpositionRule(
        rule.base_chart, rule.m, rule.rank, tuple(_fresh(lib, e) for e in rule.psi), phi)


def _tuple_op(state: State, kind: str, label: str, system, rule, slot0, points, span) -> Op:
    """fundamental_set, slot-0 integrate, constancy and both reconstructions."""
    lib = state.lib
    dyn, sp = lib["dynamics"], lib["superposition"]

    def run(tr) -> Outcome:
        with_phi, newton = _fresh_rule(lib, rule), _fresh_rule(lib, rule, with_phi=False)
        out = Outcome()
        with tr.span("dynamics.fundamental_set"):
            particular = dyn.fundamental_set(system, rule.m, span, TOL, initial_points=points)
        with tr.span("dynamics.integrate", "regular"):
            direct = dyn.integrate(system, slot0, span, TOL)
        out.expect("blew_up", [t.blew_up for t in [direct] + particular],
                   [False] * (rule.m + 1))
        out.facts["nodes"] = len(direct.t)
        out.facts["grid_nodes"] = len(particular[0].t)
        tr.sample("dynamics.nodes.regular", len(direct.t))
        tr.sample("dynamics.grid_nodes", len(particular[0].t))
        with tr.span("dynamics.align_trajectories"):
            aligned = dyn.align_trajectories([direct] + particular)
        with tr.span("superposition.verify_along"):
            drift = sp.verify_along_solutions(with_phi, system, aligned, TOL_CONST)
        out.expect_below("drift", drift.max_drift, GROSS_LIMIT)
        out.accuracy["drift_to_tol_max"] = drift.max_drift / TOL_CONST
        with tr.span("superposition.derive_k"):
            k = sp.derive_k(with_phi, aligned[0].states[0], [a.states[0] for a in aligned[1:]])
        with tr.span("superposition.reconstruct", "phi"):
            by_phi = sp.reconstruct(with_phi, aligned[1:], k)
        with tr.span("superposition.reconstruct", "newton") as s:
            by_newton = sp.reconstruct(newton, aligned[1:], k, x0_guess=slot0)
        tr.sample("superposition.newton_us_per_node", s.elapsed * 1e6 / len(by_newton.t), time=True)
        out.facts["newton_nodes"] = len(by_newton.t)
        out.expect_below("phi_vs_newton", float(np.max(np.abs(by_phi.states - by_newton.states))),
                         PHI_NEWTON_LIMIT)
        gap = float(np.max(np.abs(by_phi.states - aligned[0].states)))
        out.expect_below("reconstructed_vs_direct", gap, GROSS_LIMIT)
        out.accuracy["recon_err_max"] = gap
        return out

    return Op(kind, label, run)


def _escape_op(state: State, system, x0: float) -> Op:
    lib = state.lib

    def run(tr) -> Outcome:
        out = Outcome()
        with tr.span("dynamics.integrate", "escape") as s:
            traj = lib["dynamics"].integrate(system, [x0], (0.0, 5.0), TOL)
        nodes = len(traj.t)
        out.expect("blew_up", traj.blew_up, True)
        out.expect("escaped_before_4_over_x0", traj.truncated_at is not None
                   and traj.truncated_at <= 4.0 / x0, True)
        out.facts["nodes"] = nodes
        tr.sample("dynamics.nodes.escape", nodes)
        tr.sample("dynamics.us_per_node.escape", s.elapsed * 1e6 / nodes, time=True)
        return out

    return Op("escape", f"x0={x0:.3f}", run)


def _pde_op(state: State, system, rule, u0s, target: float, extent: float) -> Op:
    lib = state.lib
    pde = lib["pde"]
    axes = [np.linspace(0.0, extent, 11)] * 2
    t1, t2 = np.meshgrid(axes[0], axes[1], indexing="ij")
    closed = target / (1 - target * (t1 + t2))
    u1, u2, u3 = u0s
    k = (target - u1) * (u2 - u3) / ((target - u2) * (u1 - u3))  # cross ratio at t = 0

    def run(tr) -> Outcome:
        fresh_rule = _fresh_rule(lib, rule)
        grids = []
        for u in u0s:
            with tr.span("pde.solve_on_grid"):
                grids.append(pde.solve_on_grid(system, [u], axes, TOL))
        with tr.span("pde.superpose"):
            rebuilt = pde.pde_superpose(system, fresh_rule, grids, [k], [target])
        out = Outcome()
        out.facts["grid_shape"] = list(rebuilt.shape)
        for u, grid in zip(u0s, grids):
            exact = u / (1 - u * (t1 + t2))
            out.expect_below(f"grid_u0={u:.3f}_vs_closed_form",
                             float(np.max(np.abs(grid[:, :, 0] - exact))), RECON_LIMIT)
        out.expect_below("superposed_vs_closed_form",
                         float(np.max(np.abs(rebuilt[:, :, 0] - closed))), RECON_LIMIT)
        return out

    return Op("pde", f"target={target:.3f}", run)


def _group_op(state: State, b: tuple[float, float, float], curve_trees, x0) -> Op:
    lib = state.lib
    dyn, grp = lib["dynamics"], lib["group"]
    span = (0.0, 1.0)

    def run(tr) -> Outcome:
        curves = [dyn.CoefficientCurve(expression=_fresh(lib, e)) for e in curve_trees]
        a = grp.sl2_from_coefficients(*curves)
        out = Outcome()
        with tr.span("group.solve_group_equation"):
            g = grp.solve_group_equation(a, span, TOL)
        out.expect_below("g_vs_closed_form",
                         float(np.max(np.abs(g.matrices - _expm_sl2(*b, g.t)))), 1e-6)
        out.expect_below("det_minus_one", float(np.max(np.abs(g.determinants() - 1.0))), 1e-6)
        with tr.span("group.act_solve"):
            orbit = grp.act_solve(a, grp.LINEAR_SL2, x0, span, TOL)
        exact = _expm_sl2(*b, orbit.t) @ np.asarray(x0)
        out.expect_below("orbit_vs_closed_form",
                         float(np.max(np.abs(orbit.states - exact))), 1e-6)
        with tr.span("group.check_equivariance"):
            report = grp.check_equivariance(curves, x0, span, TOL)
        out.expect("equivariance_passed", report.passed, True)
        out.facts["nodes"] = [len(g.t), len(orbit.t), report.compared_points, report.total_points]
        return out

    return Op("group", f"b={b[0]:.2f},{b[1]:.2f},{b[2]:.2f}", run)


# The seed moves values around fixed problems, so that every seed asks for
# about the same work: A(t) near the catalog's linear systems, the Riccati
# coefficients near (1, 0, -1), the sl(2) coefficients near (1, 0, 1).
LINEAR_BASE = {
    2: [[(0, "1/4", 0), (1, 0, 0)], [(-1, 0, 0), (0, "-1/4", 0)]],
    3: [[(0, 0, 0), (1, 0, 0), (0, 0, 0)], [(-1, 0, 0), (0, 0, 0), (0, "1/4", 0)],
        [(0, 0, 0), (0, "-1/4", 0), (0, 0, 0)]],
}


def _instance_texts(rng: random.Random) -> dict:
    """Inputs of one cycle, as text and floats."""
    linear = {}
    for n, rows in LINEAR_BASE.items():
        curves = [_curve_text(rng, base, (100, 100, 50)) for row in rows for base in row]
        points = [[float(i == j) + rng.uniform(-0.2, 0.2) for j in range(n)] for i in range(n)]
        linear[n] = (curves, points, [rng.uniform(-1, 1) for _ in range(n)])
    p, q = Fraction(rng.randint(0, 1000), 1000), Fraction(rng.randint(-250, 250), 1000)
    r, s = Fraction(rng.randint(500, 1000), 1000), Fraction(rng.randint(0, 500), 1000)
    u_values = [v + rng.uniform(-0.1, 0.1) for v in (-1.6, -0.8, 0.0, 0.4)]
    b = tuple(Fraction(base) + Fraction(rng.randint(-250, 250), 1000) for base in (1, 0, 1))
    return {
        "riccati": [([_curve_text(rng, (center, 0, 0), (50, 20, 20)) for center in (1, 0, -1)],
                     _riccati_points(rng)) for _ in range(RICCATI_PER_CYCLE)],
        "linear": linear,
        "escape": ([str(p), str(q), f"{r} + {s}*t"], 1 + rng.randint(0, 1000) / 1000),
        "u_particular": rng.sample(u_values[:3], 3),
        "u_target": u_values[3],
        "extent": rng.uniform(0.38, 0.42),
        "b": b,
        "x0": _group_start(rng, b),
    }


def _group_start(rng: random.Random, b) -> list[float]:
    """A start whose orbit keeps x2 >= 0.1 on [0, 1] by the closed form, so
    the Riccati image x1/x2 stays finite and check_equivariance compares
    every node instead of integrating into a blow-up."""
    ts = np.linspace(0.0, 1.0, 201)
    while True:
        phi, radius = rng.uniform(-1.2, 0.0), rng.uniform(0.8, 1.5)
        x0 = [radius * math.sin(phi), radius * math.cos(phi)]
        if np.min((_expm_sl2(*map(float, b), ts) @ np.array(x0))[:, 1]) >= 0.1:
            return x0


def setup(lib, seed: int, tracer, workdir: Path, cycles: int) -> State:
    """Every cycle gets its own seeded instances, so a run averages over
    several escapes and systems rather than repeating one draw."""
    root = Path(__file__).resolve().parent.parent
    rng = random.Random(seed)
    state = State(lib)
    ex, geo, dyn, pde, cat = lib["expr"], lib["geometry"], lib["dynamics"], lib["pde"], lib["catalog"]
    sp = lib["superposition"]
    riccati_doc = json.loads((root / "problems" / "riccati.json").read_text())
    pde_doc = json.loads((root / "problems" / "pde_riccati.json").read_text())
    texts = [_instance_texts(rng) for _ in range(cycles)]

    line = ex.Chart(("x",))
    parse_t = lambda c: ex.parse(c, ("t",))  # noqa: E731
    with tracer.span("expr.parse"):
        riccati_fields = [ex.parse(c[0], line) for c in riccati_doc["fields"]]
        product = [f"x_{a}" for a in range(4)]
        cross_ratio = (ex.parse(riccati_doc["rule"]["psi"][0], product),
                       ex.parse(riccati_doc["rule"]["phi"][0], product[1:] + ["k1"]))
        pde_chart = pde_doc["pde"]["chart"]
        pde_fields = [[ex.parse(c, ["t1", "t2"] + pde_chart) for c in comps]
                      for comps in pde_doc["pde"]["fields"]]
        decomposition = pde_doc["pde"]["decomposition"]
        pde_u = [[ex.parse(c, ("t1", "t2")) for c in row] for row in decomposition["u"]]
        pde_basis = [[ex.parse(c, pde_chart) for c in comps] for comps in decomposition["basis"]]
        u_product = [f"u_{a}" for a in range(4)]
        pde_cross_ratio = (ex.parse(pde_doc["rule"]["psi"][0], u_product),
                           ex.parse(pde_doc["rule"]["phi"][0], u_product[1:] + ["k1"]))
        trees = [{
            "riccati": [[parse_t(c) for c in curves] for curves, _ in t["riccati"]],
            "linear": {n: [parse_t(c) for c in curves] for n, (curves, _, _) in t["linear"].items()},
            "escape": [parse_t(c) for c in t["escape"][0]],
            "b": [parse_t(str(v)) for v in t["b"]],
        } for t in texts]

    def system(fields, curves):
        return dyn.LieSystem(fields, [dyn.CoefficientCurve(expression=c) for c in curves])

    charts = {n: ex.Chart(tuple(f"x{i + 1}" for i in range(n))) for n in (2, 3)}
    with tracer.span("dynamics.LieSystem"):
        riccati_basis = [geo.VectorField(line, (f,)) for f in riccati_fields]
        gl_basis = {n: cat.gl_fields(chart) for n, chart in charts.items()}
        systems = [{
            "riccati": [system(riccati_basis, curves) for curves in tr["riccati"]],
            "linear": {n: system(gl_basis[n], curves) for n, curves in tr["linear"].items()},
            "escape": system(riccati_basis, tr["escape"]),
        } for tr in trees]
    with tracer.span("catalog.linear_rule"):
        linear_rules = {n: cat.linear_rule(chart) for n, chart in charts.items()}
    rule = sp.SuperpositionRule(line, 3, 1, (cross_ratio[0],), (cross_ratio[1],))
    u_chart = ex.Chart(tuple(pde_chart))
    u_rule = sp.SuperpositionRule(u_chart, 3, 1, (pde_cross_ratio[0],), (pde_cross_ratio[1],))
    with tracer.span("pde.PdeSystem"):
        pde_system = pde.PdeSystem(
            ex.Chart(("t1", "t2")), u_chart, tuple(tuple(comps) for comps in pde_fields),
            pde.Decomposition(tuple(tuple(row) for row in pde_u),
                              tuple(geo.VectorField(u_chart, tuple(c)) for c in pde_basis)))

    for c, (t, tr, sy) in enumerate(zip(texts, trees, systems)):
        ops = [_escape_op(state, sy["escape"], t["escape"][1])]
        for i, (ric, (_, points)) in enumerate(zip(sy["riccati"], t["riccati"])):
            ops.append(_tuple_op(state, "riccati", f"cycle {c} instance {i}", ric, rule,
                                 [points[0]], [[p] for p in points[1:]], (0.0, 1.5)))
        for n, (_, points, start) in t["linear"].items():
            ops.append(_tuple_op(state, f"linear{n}", f"cycle {c} gl({n})", sy["linear"][n],
                                 linear_rules[n], start, points, (0.0, 1.0)))
        ops.append(_pde_op(state, pde_system, u_rule, t["u_particular"], t["u_target"],
                           t["extent"]))
        ops.append(_group_op(state, tuple(float(v) for v in t["b"]), tr["b"], t["x0"]))
        state.cycles.append(ops)
    # u = -1.6 starts below u = -1.2; row 2 starts near -1.55 but its guess,
    # the end of row 1, is near -1.1, on the other side of -1.2 there
    state.crossing_probe = _pde_op(state, pde_system, u_rule, [0.0, -1.2, -0.8], -1.6, 0.3)
    state.velocity_system = systems[0]["riccati"][0]
    return state


def finish(state: State, tracer) -> tuple[dict, list[str]]:
    """Run the row-crossing PDE case, and time LieSystem.velocity directly on
    the first Riccati system (traced runs only): median over batches of the
    time per call."""
    notes = []
    try:
        probe = state.crossing_probe.run(NULL)
    except Exception as exc:  # the probe reports the failure instead of raising
        probe = Outcome(failures=[f"{type(exc).__name__}: {exc}"])
    if probe.failures:
        notes.append("pde_superpose across a particular solution: " + "; ".join(probe.failures))
    extras = {"pde.superpose_crossing_failures": 1 if probe.failures else 0}
    if not tracer.enabled:
        return extras, notes
    system, x = state.velocity_system, np.array([0.3])
    per_call = []
    for _ in range(7):
        before = calibrate()
        started = perf_counter()
        for _ in range(500):
            system.velocity(0.5, x)
        elapsed = perf_counter() - started
        per_call.append(elapsed / 500 * 1e6 * to_reference([before, calibrate()]))
    per_call.sort()
    extras["dynamics.velocity_us"] = per_call[len(per_call) // 2]
    return extras, notes
