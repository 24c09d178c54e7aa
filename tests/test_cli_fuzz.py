"""Generated problem files through `liesys m`, `liesys closure`, `liesys
verify`, `liesys superpose` (with and without --k), `liesys solve`, `liesys
group`, `liesys pde` and `liesys pde superpose`, in process.

Whatever the fields, each call ends in exit 0, 1 or 2 within a bounded time:
no exception escapes `main` and nothing hangs.
"""

import json
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from liesys.cli import main

# generous: most examples take milliseconds, the slowest well under a second
WALL_TIME_BOUND_S = 20.0


def expressions(names, functions=()):
    """Rational expressions in `names` with poles and powers up to 40, and
    with leaves f(v) for f in `functions` and v in `names`."""
    leaves = st.one_of(st.sampled_from(names), st.integers(-3, 3).map(str),
                       *[st.sampled_from(names).map(f"{f}({{}})".format) for f in functions])
    return st.recursive(leaves, lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]}){t[1]}({t[2]})"),
        st.tuples(inner, st.integers(0, 40)).map(lambda t: f"({t[0]})^{t[1]}"),
    ), max_leaves=8)


@st.composite
def problems(draw):
    names = draw(st.sampled_from([["x"], ["x", "y"]]))
    component = expressions(names)
    fields = draw(st.lists(st.lists(component, min_size=len(names), max_size=len(names)),
                           min_size=1, max_size=3))
    return {"chart": names, "fields": fields}


@settings(derandomize=True, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(doc=problems(), command=st.sampled_from(["m", "closure"]))
def test_symbolic_commands_end_in_an_exit_code(tmp_path, capsys, doc, command):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code = main([command, str(path)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code in (0, 1, 2)
    assert elapsed < WALL_TIME_BOUND_S, f"{command} took {elapsed:.1f} s on {doc}"


@st.composite
def rules(draw):
    """A rule with m = 1 on generated fields: psi of 1-2 components on slots
    0-1, the constraints a partial rule needs, and sometimes a phi.  Field
    components may hold sin, exp and ln of the chart variables.  One m and
    one s in eight is a size that is no integer or out of range, which exits
    2 before the rule's chart is built; psi has the legal s components."""
    names = draw(st.sampled_from([["x"], ["x", "y"]]))
    slots = [f"{v}_{a}" for a in (0, 1) for v in names]
    s = draw(st.integers(1, len(names)))
    phi = draw(st.none() | st.lists(expressions([f"{v}_1" for v in names]
                                                 + [f"k{j + 1}" for j in range(s)]),
                                    min_size=len(names), max_size=len(names)))

    def size(legal, bad):
        return draw(st.sampled_from(bad)) if draw(st.integers(0, 7)) == 0 else legal

    rule = {"m": size(1, [0, -1, 1.5, True, "1", None, 10**30]),
            "s": size(s, [0, 3, 1.5, True, "1", None, 10**12]),
            "psi": draw(st.lists(expressions(slots), min_size=s, max_size=s)),
            "phi": phi,
            "constraints": draw(st.lists(expressions(slots), min_size=len(names) - s,
                                         max_size=len(names) - s))}
    component = expressions(names, functions=("sin", "exp", "ln"))
    fields = draw(st.lists(st.lists(component, min_size=len(names), max_size=len(names)),
                           min_size=1, max_size=3))
    return {"chart": names, "fields": fields, "rule": rule}


@settings(derandomize=True, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(doc=rules())
def test_verify_ends_in_an_exit_code(tmp_path, capsys, doc):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code = main(["verify", str(path)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code in (0, 1, 2)
    assert elapsed < WALL_TIME_BOUND_S, f"verify took {elapsed:.1f} s on {doc}"


def short_span(draw) -> tuple[float, float]:
    t0 = draw(st.integers(-4, 4)) / 4
    return t0, t0 + draw(st.integers(1, 8)) / 8


@st.composite
def superpose_problems(draw):
    """A rule of rules() on at most as many fields as the chart has
    coordinates (m = 1 allows no more), a coefficient curve per field over a
    short t_span, the initial point of its one particular solution (a full
    rule may leave it to be drawn), and k, x0 or both, with a start for the
    leaf solve beside k alone.  A curve is 0 or a
    small linear, trigonometric or exponential curve in t, as in
    pde_superpose_problems: stiff curves can need billions of steps, which
    no budget bounds yet."""
    doc = draw(rules())
    small = st.integers(-3, 3)
    curve = st.one_of(st.just("0"),
                      st.tuples(small, small).map(lambda c: "({}) + ({})*t".format(*c)),
                      st.tuples(small, st.sampled_from(["sin", "cos", "exp"]))
                      .map(lambda c: "({})*{}(t)".format(*c)))
    dim = len(doc["chart"])
    doc["fields"] = doc["fields"][:dim]
    count = len(doc["fields"])
    doc["coefficients"] = draw(st.lists(curve, min_size=count, max_size=count))
    doc["t_span"] = list(short_span(draw))
    point = st.lists(st.integers(-24, 24).map(lambda v: v / 8), min_size=dim, max_size=dim)
    if doc["rule"]["constraints"] or draw(st.booleans()):
        doc["initial_points"] = [draw(point)]
    given = draw(st.sampled_from(["k", "x0", "both"]))
    if given != "x0":
        s = len(doc["rule"]["psi"])
        doc["k"] = draw(st.lists(st.floats(-3, 3), min_size=s, max_size=s))
    if given != "k":
        doc["x0"] = draw(point)
    elif draw(st.booleans()):
        doc["x0_guess"] = draw(point)
    return doc


@settings(derandomize=True, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(doc=superpose_problems())
def test_superpose_ends_in_an_exit_code(tmp_path, capsys, doc):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code = main(["superpose", str(path)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code in (0, 1, 2)
    assert elapsed < WALL_TIME_BOUND_S, f"superpose took {elapsed:.1f} s on {doc}"


@settings(derandomize=True, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(doc=superpose_problems(), data=st.data())
def test_superpose_with_k_ends_in_an_exit_code(tmp_path, capsys, doc, data):
    # k from --k, over the file's: slot 0 starts on the leaf of k, by phi or
    # by a leaf solve from x0_guess or x0.  Each k is written by repr, so
    # exponent notation such as -2.2e-309 reaches the parser
    s = len(doc["rule"]["psi"])
    k = data.draw(st.lists(st.floats(-3, 3), min_size=s, max_size=s))
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code = main(["superpose", str(path), "--k", *map(repr, k)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code in (0, 1, 2)
    assert elapsed < WALL_TIME_BOUND_S, f"superpose --k {k} took {elapsed:.1f} s on {doc}"


@st.composite
def trajectories(draw):
    """A system to integrate: fields holding sin, exp and ln of the chart
    variables, coefficient curves in t (expressions or tables), an x0 and a
    short t_span.  Singular points, overflow and non-finite stages are all
    reachable."""
    names = draw(st.sampled_from([["x"], ["x", "y"]]))
    component = expressions(names, functions=("sin", "exp", "ln"))
    fields = draw(st.lists(st.lists(component, min_size=len(names), max_size=len(names)),
                           min_size=1, max_size=3))
    t0 = draw(st.integers(-4, 4)) / 4
    t1 = t0 + draw(st.integers(1, 8)) / 8
    table = st.lists(st.floats(-3, 3), min_size=2, max_size=2).map(
        lambda values: {"table": {"t": [t0, t1], "values": values}})
    curve = st.one_of(expressions(["t"], functions=("sin", "exp", "ln")), table)
    return {"chart": names, "fields": fields,
            "coefficients": draw(st.lists(curve, min_size=len(fields), max_size=len(fields))),
            "x0": draw(st.lists(st.floats(-3, 3), min_size=len(names), max_size=len(names))),
            "t_span": [t0, t1]}


@settings(derandomize=True, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(doc=trajectories())
def test_solve_ends_in_an_exit_code(tmp_path, capsys, doc):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code = main(["solve", str(path)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code in (0, 1, 2)
    assert elapsed < WALL_TIME_BOUND_S, f"solve took {elapsed:.1f} s on {doc}"


@st.composite
def group_problems(draw):
    """An action of the group equation of generated sl(2) coefficients or of
    a 1 x 1 or 2 x 2 matrix of curves in t, sometimes with an x0, over a
    short t_span.  A curve is the sine of an expression, or a constant past
    1e30, which stops the solve at its first node; coefficients between
    those sizes can need billions of steps, which no budget bounds yet."""
    curve = st.one_of(expressions(["t"], functions=("sin", "exp", "ln")).map("sin({})".format),
                      st.integers(100, 400).map("(2)^{}".format))
    action = {"name": draw(st.sampled_from(["mobius", "sl2_linear"]))}
    if draw(st.booleans()):
        action["sl2_coefficients"] = draw(st.lists(curve, min_size=3, max_size=3))
    else:
        d = draw(st.integers(1, 2))
        action["matrix"] = draw(st.lists(st.lists(curve, min_size=d, max_size=d),
                                         min_size=d, max_size=d))
    if draw(st.booleans()):
        size = 1 if action["name"] == "mobius" else 2
        action["x0"] = draw(st.lists(st.floats(-3, 3), min_size=size, max_size=size))
    return {"action": action, "t_span": list(short_span(draw))}


@settings(derandomize=True, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(doc=group_problems())
def test_group_ends_in_an_exit_code(tmp_path, capsys, doc):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code = main(["group", str(path)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code in (0, 1, 2)
    assert elapsed < WALL_TIME_BOUND_S, f"group took {elapsed:.1f} s on {doc}"


@st.composite
def pde_problems(draw):
    """s = 1 or 2 fields in the parameters and the chart variables, holding
    sin, exp and ln, an x0 and a target at most 0.5 along each axis."""
    names = draw(st.sampled_from([["u"], ["u", "v"]]))
    s = draw(st.integers(1, 2))
    component = expressions(names + [f"t{i + 1}" for i in range(s)], functions=("sin", "exp", "ln"))
    fields = draw(st.lists(st.lists(component, min_size=len(names), max_size=len(names)),
                           min_size=s, max_size=s))
    return {"pde": {"s": s, "chart": names, "fields": fields},
            "x0": draw(st.lists(st.floats(-3, 3), min_size=len(names), max_size=len(names))),
            "target": draw(st.lists(st.integers(0, 4).map(lambda v: v / 8), min_size=s, max_size=s))}


@settings(derandomize=True, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(doc=pde_problems(), command=st.sampled_from([["check"], ["solve"], ["solve", "--audit"]]))
def test_pde_ends_in_an_exit_code(tmp_path, capsys, doc, command):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code = main(["pde", command[0], str(path), *command[1:]])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code in (0, 1, 2)
    assert elapsed < WALL_TIME_BOUND_S, f"pde {' '.join(command)} took {elapsed:.1f} s on {doc}"


@st.composite
def pde_superpose_problems(draw):
    """s = 2 systems on the basis 1, u, u^2 with decomposition coefficients
    in t1 and t2, the fields built from that expansion, and the cross ratio
    rule with drawn initial points, k and target.  A coefficient is 0 or a
    small linear, trigonometric or exponential curve.  About half of the
    systems are flat, with two equal rows in t1 + t2 only.  In about half,
    one coefficient is a pole inside the grid or a constant past 1e30
    instead.  As in group_problems, sizes in between are left out: a sine of
    a large multiple of t can need billions of steps, which no budget bounds
    yet."""
    small = st.integers(-3, 3)
    flat = draw(st.booleans())
    arg = st.sampled_from(["(t1 + t2)"] if flat else ["t1", "t2", "(t1 - t2)"])
    curve = st.one_of(st.just("0"),
                      st.tuples(small, small, arg).map(lambda c: "({}) + ({})*{}".format(*c)),
                      st.tuples(small, st.sampled_from(["sin", "cos", "exp"]), arg)
                      .map(lambda c: "({})*{}({})".format(*c)))
    row = st.lists(curve, min_size=3, max_size=3)
    first = draw(row)
    u = [first, list(first) if flat else draw(row)]
    if draw(st.booleans()):
        pole = st.tuples(st.sampled_from(["t1", "t2"]), st.integers(1, 4)).map(
            lambda c: "1/({} - {}/8)".format(*c))
        u[draw(st.integers(0, 1))][draw(st.integers(0, 2))] = draw(
            st.one_of(pole, st.integers(100, 400).map("(2)^{}".format)))
    fields = [[f"({c0}) + ({c1})*u + ({c2})*u^2"] for c0, c1, c2 in u]
    doc = {"pde": {"s": 2, "chart": ["u"], "fields": fields,
                   "decomposition": {"u": u, "basis": [["1"], ["u"], ["u^2"]]}},
           "rule": {"m": 3, "s": 1,
                    "psi": ["((u_0 - u_1)*(u_2 - u_3))/((u_0 - u_2)*(u_1 - u_3))"],
                    "constraints": []},
           "initial_points": draw(st.lists(st.integers(-24, 24).map(lambda v: [v / 8]), min_size=3,
                                           max_size=3, unique_by=lambda p: p[0])),
           "k": [draw(st.floats(-3, 3))],
           "target": draw(st.lists(st.integers(1, 4).map(lambda v: v / 8), min_size=2, max_size=2))}
    if draw(st.booleans()):
        doc["x0_guess"] = [draw(st.integers(-24, 24)) / 8]
    return doc


@settings(derandomize=True, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(doc=pde_superpose_problems())
def test_pde_superpose_ends_in_an_exit_code(tmp_path, capsys, doc):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code = main(["pde", "superpose", str(path)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code in (0, 1, 2)
    assert elapsed < WALL_TIME_BOUND_S, f"pde superpose took {elapsed:.1f} s on {doc}"
