"""Workload `cli`: what users run.  One operation is one in-process
`liesys.cli.main([...])` call with its output captured and its JSON report
checked by `validate_report`.

The cycle has three parts: every applicable command on every problem file
under problems/, `examples run <name>` for each catalog entry, and
`examples run-all`.  The calls are made as users type them, with the
default seed; the benchmark's seed shuffles their order in the cycle and
varies the hostile inputs.  (With some `--seed` values `examples run
sl2_group` draws an equivariance triple whose Riccati image blows up and
takes about 6 s in the integrator's round-off regime instead of 0.1 s; the
trajectories workload measures that regime on purpose.)  This is the only
workload that goes through argument parsing, problem loading, report
rendering and run-all's thread pool.

Four hostile problem files are generated and run after the measured cycles.
Each should end in exit 1 or 2; any other ending (a traceback, for one) is
counted in `cli.hostile_failures`.  They stay out of the measured operations because
the benchmark's operations must all succeed on a working program, and they
do not at the commit this benchmark was written against.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

from harness import Op, Outcome

NOMINAL_CYCLE_S = 6.0

# Expected exit codes, derived by hand from the mathematics of each file:
# 0 when every check holds, 1 for a FAIL verdict or a reported error.
PROBLEM_CALLS = [
    # se(2) = span{d/dx, d/dy, y d/dx - x d/dy} closes; r = 3 on a plane needs
    # two points (m = 2, as the file says); the two distances are invariants.
    ("euclidean", ("closure",), 0), ("euclidean", ("m",), 0), ("euclidean", ("solve",), 0),
    ("euclidean", ("superpose",), 0), ("euclidean", ("verify",), 0),
    # [d/dx, x^2 d/dx] = 2x d/dx lies outside span{d/dx, x^2 d/dx}: not closed.
    ("incomplete_pair", ("closure",), 1), ("incomplete_pair", ("m",), 0),
    # gl(2) closes, m = 2, Cramer psi and weighted-sum phi are exact.
    ("linear2", ("closure",), 0), ("linear2", ("m",), 0), ("linear2", ("solve",), 0),
    ("linear2", ("superpose",), 0), ("linear2", ("verify",), 0),
    # rank-1 partial rules of the same linear system: x0 = k x1 (resp.
    # x1 + k x2) solves it and satisfies the constraint identically.
    ("partial_rank1", ("closure",), 0), ("partial_rank1", ("m",), 0),
    ("partial_rank1", ("superpose",), 0), ("partial_rank1", ("verify",), 0),
    ("partial_rank1_m2", ("closure",), 0), ("partial_rank1_m2", ("m",), 0),
    ("partial_rank1_m2", ("superpose",), 0), ("partial_rank1_m2", ("verify",), 0),
    # u_t1 = u, u_t2 = t1 u: curvature residual is u, so not flat; solve
    # without --audit refuses a non-flat system (reported error, exit 1).
    ("pde_nonflat", ("pde", "check"), 1), ("pde_nonflat", ("pde", "solve"), 1),
    # u_t1 = u_t2 = u^2 is flat; u = u0/(1 - u0 (t1 + t2)) stays finite for
    # u0 = 0.5 up to t1 + t2 = 1, and the cross ratio is a rule for it.
    ("pde_riccati", ("pde", "check"), 0), ("pde_riccati", ("pde", "solve"), 0),
    ("pde_riccati", ("pde", "superpose"), 0),
    # sl(2) closes, m = 3; x = tan(t + atan(x0)) stays finite on [0, 1.2]
    # for x0 = -0.5; the cross ratio is invariant.
    ("riccati", ("closure",), 0), ("riccati", ("m",), 0), ("riccati", ("solve",), 0),
    ("riccati", ("superpose",), 0), ("riccati", ("verify",), 0),
    # one field, m = 1; x = 1/(1/x0 - t - t^2/4) stays finite on [0, 1].
    ("separable_invsq", ("closure",), 0), ("separable_invsq", ("m",), 0),
    ("separable_invsq", ("solve",), 0), ("separable_invsq", ("superpose",), 0),
    ("separable_invsq", ("verify",), 0),
    # rotation g(t) = exp(t J); the Mobius orbit of 0 is tan t, finite on [0, 1.2].
    ("sl2_group", ("group",), 0),
    # d/dx alone: m = 1; both level maps are constant along translations.
    ("translation", ("closure",), 0), ("translation", ("m",), 0),
    ("translation", ("solve",), 0), ("translation", ("superpose",), 0),
    ("translation", ("verify",), 0),
    ("translation_alt", ("closure",), 0), ("translation_alt", ("m",), 0),
    ("translation_alt", ("solve",), 0), ("translation_alt", ("superpose",), 0),
    ("translation_alt", ("verify",), 0),
]

# Every catalog entry checks mathematical identities, so each passes (exit 0).
CATALOG = ("riccati", "linear2", "linear_n", "euclidean_se2", "separable_invsq",
           "translation_nonunique", "sl2_group", "pde_riccati", "lemma_counterexample",
           "partial_linear_rank1", "partial_linear_rank1_m2")


class State:
    def __init__(self, lib, workdir: Path):
        self.lib = lib
        self.report_path = workdir / "report.json"
        self.ops: list[Op] = []
        self.cycles: list[list[Op]] = []
        self.hostile: list[tuple[str, list[str]]] = []


def _call(state: State, tr, span: str, argv: list[str]) -> tuple[int | None, str | None]:
    """Run one CLI call; returns (exit code, exception summary or None)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            with tr.span(span):
                return state.lib["cli"].main(argv), None
    except SystemExit as exc:
        return exc.code, None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {str(exc)[:120]}"


def _cli_op(state: State, kind: str, label: str, span: str, argv: list[str], want: int):
    argv = argv + ["--json", str(state.report_path)]

    def run(tr) -> Outcome:
        out = Outcome()
        state.report_path.unlink(missing_ok=True)
        code, error = _call(state, tr, span, argv)
        if error:
            out.failures.append("raised " + error)
        out.expect("exit", code, want)
        if state.report_path.exists():
            doc = json.loads(state.report_path.read_text())
            with tr.span("report.validate"):
                state.lib["report"].validate_report(doc)
            out.expect("report_passed", doc["passed"], want == 0)
            out.facts["checks"] = [(c["name"], c["passed"]) for c in doc["checks"]]
            out.facts["nodes"] = {key: len(doc["extra"][key]["t"])
                                  for key in ("trajectory", "slot0", "orbit") if key in doc["extra"]}
            for check in doc["checks"]:
                if check["name"] == "psi_drift_along_solutions":
                    out.accuracy["drift_to_tol_max"] = check["value"] / check["threshold"]
        elif want == 0:
            out.failures.append("no JSON report written")
        return out

    return Op(kind, label, run)


def _hostile_files(workdir: Path, rng: random.Random) -> list[tuple[str, list[str]]]:
    """The malformed inputs of ROADMAP item 5, varied slightly by the seed.
    Each must end in exit 1 or 2.  `(x+1)^100000` under closure is left out:
    it does not return within minutes, and an in-process call that never
    returns cannot be bounded."""
    depth = 3000 + rng.randrange(100)
    cases = {
        "hostile_ln": ({"chart": ["x"], "fields": [["ln(x)"]], "coefficients": ["1"],
                        "x0": [-1.0 - rng.randrange(1000) / 1000]}, ["solve"]),
        "hostile_zero_field": ({"chart": ["x", "y"], "fields": [["0", "0"]]}, ["m"]),
        "hostile_number": ({"chart": ["x"], "fields": [[1 + rng.randrange(9)]]}, ["closure"]),
        "hostile_nesting": ({"chart": ["x"], "fields": [["(" * depth + "x" + ")" * depth]]},
                            ["closure"]),
    }
    out = []
    for name, (doc, command) in cases.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc))
        out.append((name, command + [str(path)]))
    return out


def setup(lib, seed: int, tracer, workdir: Path, cycles: int) -> State:
    root = Path(__file__).resolve().parent.parent
    state = State(lib, workdir)
    rng = random.Random(seed)
    docs = {name: json.loads((root / "problems" / f"{name}.json").read_text())
            for name in sorted({p for p, _, _ in PROBLEM_CALLS})}
    parse = lib["expr"].parse
    with tracer.span("expr.parse"):
        for doc in docs.values():
            for comps in doc.get("fields", []):
                for c in comps:
                    parse(c, doc["chart"])
            for c in doc.get("coefficients", []):
                parse(c, ("t",))
            if "pde" in doc:
                pde = doc["pde"]
                names = [f"t{i + 1}" for i in range(pde["s"])] + pde["chart"]
                for comps in pde["fields"]:
                    for c in comps:
                        parse(c, names)
    for problem, command, want in PROBLEM_CALLS:
        argv = list(command) + [str(root / "problems" / f"{problem}.json")]
        span = "cli." + "_".join(command)
        state.ops.append(_cli_op(state, "cli." + "_".join(command), problem, span, argv, want))
    for name in CATALOG:
        argv = ["examples", "run", name]
        state.ops.append(_cli_op(state, "examples_run", name, f"catalog.{name}", argv, 0))
    state.ops.append(_cli_op(state, "run_all", "run-all", "cli.run_all", ["examples", "run-all"], 0))
    rng.shuffle(state.ops)
    state.hostile = _hostile_files(workdir, rng)
    state.cycles = [state.ops] * cycles
    return state


def finish(state: State, tracer) -> tuple[dict, list[str]]:
    failures, notes = 0, []
    for name, argv in state.hostile:
        code, error = _call(state, tracer, "cli.hostile", argv)
        if error is not None or code not in (1, 2):
            failures += 1
            notes.append(f"hostile input {name}: " + (f"traceback {error}" if error
                                                      else f"exit {code}, expected 1 or 2"))
    return {"cli.hostile_failures": failures}, notes
