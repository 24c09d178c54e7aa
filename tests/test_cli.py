import ast
import dataclasses
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from liesys import catalog, dynamics, pde, superposition
from liesys.catalog import RunConfig, get_entry
from liesys.cli import build_parser, main
from liesys.expr import MAX_EXACT_BITS, Chart, Const, canonically_equal
from liesys.geometry import VectorField
from liesys.report import validate_report
from liesys.superposition import SuperpositionRule

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
INPUTS = Path(__file__).resolve().parent.parent / "tools" / "inputs"


def run(tmp_path, *argv, json_name="report.json"):
    """Invoke the CLI in-process, returning (exit_code, report_dict)."""
    out = tmp_path / json_name
    code = main([*argv, "--json", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    if doc is not None:
        validate_report(doc)
    return code, doc


def run_subprocess(*argv, timeout):
    """Invoke the CLI in a fresh interpreter, failing the test past `timeout` seconds."""
    path = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, "-m", "liesys", *map(str, argv)],
                          capture_output=True, text=True, timeout=timeout, env=env)


class TestMCommand:
    def test_riccati_m_three(self, tmp_path):
        code, doc = run(tmp_path, "m", str(PROBLEMS / "riccati.json"))
        assert code == 0
        assert doc["extra"]["m"] == 3

    def test_euclidean_m_two(self, tmp_path):
        code, doc = run(tmp_path, "m", str(PROBLEMS / "euclidean.json"))
        assert code == 0
        assert doc["extra"]["m"] == 2

    def test_translation_m_one(self, tmp_path):
        code, doc = run(tmp_path, "m", str(PROBLEMS / "translation.json"))
        assert code == 0
        assert doc["extra"]["m"] == 1

    def test_m_determined_fails_when_no_tuple_reaches_full_rank(self, tmp_path):
        # sin^2 + cos^2 is 1, which the exact pruning does not see: the
        # three fields have rank 2 at every tuple
        path = tmp_path / "identity.json"
        path.write_text(json.dumps({"chart": ["x"],
                                    "fields": [["1"], ["sin(x)^2 + cos(x)^2"], ["x"]]}))
        code, doc = run(tmp_path, "m", str(path))
        assert code == 1
        [check] = doc["checks"]
        assert check["name"] == "m_determined" and not check["passed"]
        assert "no k <= r reached full rank" in check["detail"]

    @staticmethod
    def power_problem(tmp_path, squarings=0, field="x"):
        for _ in range(squarings):
            field = f"({field})^2"
        path = tmp_path / "power.json"
        path.write_text(json.dumps({"chart": ["x"], "fields": [[field]], "coefficients": ["1"]}))
        return path

    @pytest.mark.parametrize("squarings,field,seed", [
        (0, "x^1000", 0),  # underflows to 0.0 at |x| < 0.5
        (0, "x^1100", 0),  # overflows the float range at |x| > 1.9
        (12, "x", 0),
        (0, "1/x^2", 90),  # seed 90 draws the pole x = 0
    ], ids=["x^1000", "x^1100", "12_squarings", "1/x^2-seed_90"])
    def test_one_field_needs_one_point(self, tmp_path, squarings, field, seed):
        path = self.power_problem(tmp_path, squarings, field)
        code, doc = run(tmp_path, "m", str(path), "--seed", str(seed))
        assert code == 0 and doc["extra"]["m"] == 1
        assert not doc["checks"][0]["probabilistic"]

    def test_m_sampled_below_is_labelled_probabilistic(self, tmp_path, capsys):
        # m > 1 rests on sampled tuples at k = 1, where k n = 2 >= r = 2
        code, doc = run(tmp_path, "m", str(INPUTS / "m_sampled_below.json"))
        assert code == 0 and doc["extra"]["m"] == 2
        assert doc["checks"][0]["probabilistic"] and not doc["extra"]["report"]["exact"]
        assert "PASS m_determined  [probabilistic]  (m = 2 (r = 2))" in capsys.readouterr().out

    def test_function_atoms_give_a_probabilistic_m(self, tmp_path):
        path = tmp_path / "trig.json"
        path.write_text(json.dumps({"chart": ["x"], "fields": [["sin(x)"], ["cos(x)"]]}))
        code, doc = run(tmp_path, "m", str(path))
        assert code == 0 and doc["extra"]["m"] == 2
        assert doc["checks"][0]["probabilistic"] and not doc["extra"]["report"]["exact"]

    def test_a_numerically_dependent_pair_fails(self, tmp_path, capsys):
        # canonical forms keep sin and cos apart, so both fields survive pruning
        path = tmp_path / "trig.json"
        path.write_text(json.dumps({"chart": ["x"], "fields": [["sin(x)^2 + cos(x)^2"], ["1"]]}))
        code, doc = run(tmp_path, "m", str(path))
        assert code == 1 and doc["command"] == "m"
        assert "no k <= r reached full rank" in capsys.readouterr().out

    def test_31_squarings_fail_within_the_exact_power_budget(self, tmp_path):
        # the exact value would have 2^31 times the bits of a sample point
        done = run_subprocess("m", self.power_problem(tmp_path, 31), timeout=60)
        assert done.returncode == 1
        assert "FAIL completed" in done.stdout and "bits" in done.stdout
        assert "Traceback" not in done.stderr

    def test_a_zero_test_that_finds_no_regular_point_says_why(self, tmp_path, capsys):
        # exp(x^2 + 729) overflows floats at every sample point in [-2, 2]
        code, doc = run(tmp_path, "m", str(INPUTS / "exp_overflow_m.json"))
        assert code == 1 and "overall: FAIL" in capsys.readouterr().out
        assert doc["checks"][0]["detail"] == (
            "could not find enough regular sample points for zero test: 0 of 640 points tried "
            "were regular, 32 needed; last: exp(729.595984) out of domain (math range error)")


@pytest.mark.parametrize("command", ["closure", "m", "verify"])
def test_an_exponent_past_its_field_fails_completed(capsys, command):
    # x^(2^63) does not fit a monomial's 64-bit exponent field; every command
    # fails by name, where it once closed, sampled or derived past the bound
    assert main([command, str(INPUTS / "exponent_past_field.json")]) == 1
    [line] = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line
              and "overall" not in line]
    atom = "x_0" if command == "verify" else "x"
    assert line == (f"  FAIL completed  (an exponent of {atom} would reach 2^63; "
                    "exponents must stay below 2^63)")


class TestClosureCommand:
    def test_gl4_closure_finishes_in_seconds(self, tmp_path):
        # 16 fields: 120 brackets and 560 Jacobi triples
        names = [f"x{i + 1}" for i in range(4)]
        fields = [[names[j] if k == i else "0" for k in range(4)]
                  for i in range(4) for j in range(4)]
        path = tmp_path / "gl4.json"
        path.write_text(json.dumps({"chart": names, "fields": fields}))
        done = run_subprocess("closure", path, timeout=30)
        assert done.returncode == 0, done.stdout + done.stderr
        assert "PASS closed  (dimension 16)" in done.stdout
        assert "PASS jacobi_residual_zero" in done.stdout

    def test_expansion_beyond_the_term_budget_fails(self, tmp_path):
        path = tmp_path / "power.json"
        path.write_text(json.dumps({"chart": ["x"], "fields": [["(x+1)^100000"]]}))
        done = run_subprocess("closure", path, timeout=60)
        assert done.returncode in (1, 2)
        assert "term pairs" in done.stdout + done.stderr
        assert "Traceback" not in done.stderr

    def test_exact_power_past_the_bit_budget_fails_in_seconds(self, tmp_path):
        # (3^999)^999 would have about 1.6e6 bits, past MAX_EXACT_BITS; its
        # 99th power would take minutes to multiply out
        path = tmp_path / "power.json"
        path.write_text(json.dumps({"chart": ["x"], "fields": [["x*((3^999)^999)^99"]]}))
        done = run_subprocess("closure", path, timeout=10)
        assert done.returncode == 1
        assert f"FAIL completed  (exact power ^999 would exceed {MAX_EXACT_BITS} bits)" in done.stdout
        assert "Traceback" not in done.stderr

    def test_constant_past_the_digit_limit_fails_cleanly(self, tmp_path):
        # a bracket folds 3^37440, past Python's 4,300-digit integer-to-string limit
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"chart": ["x", "y"], "fields": [
            ["y/(-1)", "x^34"], ["2^6/(3-(-2))", "((x^21)*((3^32)^30))^39"], ["(y/x)^4", "y/2"],
        ]}))
        code, doc = run(tmp_path, "closure", str(path))
        assert code == 1
        assert doc["checks"] == [{"name": "completed", "passed": False, "value": None,
                                  "threshold": None, "probabilistic": False,
                                  "detail": "a constant of 59341 bits is too large to write out"}]

    def test_riccati_closed(self, tmp_path):
        code, doc = run(tmp_path, "closure", str(PROBLEMS / "riccati.json"))
        assert code == 0
        assert doc["extra"]["closure"]["dimension"] == 3

    def test_incomplete_pair_fails_with_witness(self, tmp_path):
        code, doc = run(tmp_path, "closure", str(PROBLEMS / "incomplete_pair.json"))
        assert code == 1
        assert doc["passed"] is False
        assert doc["extra"]["closure"]["witness"]["pair"] == [0, 1]
        assert "witness" not in doc["extra"]

    def test_completion_flag(self, tmp_path):
        code, doc = run(
            tmp_path, "closure", str(PROBLEMS / "incomplete_pair.json"), "--complete"
        )
        assert code == 0
        assert doc["extra"]["closure"]["dimension"] == 3


class TestSolveAndSuperpose:
    def test_solve_writes_trajectory_and_csv(self, tmp_path):
        code, doc = run(
            tmp_path,
            "solve",
            str(PROBLEMS / "riccati.json"),
            "--csv",
            str(tmp_path / "dumps"),
        )
        assert code == 0
        assert doc["extra"]["trajectory"]["blew_up"] is False
        csv_text = (tmp_path / "dumps" / "trajectory.csv").read_text().splitlines()
        assert csv_text[0] == "t,x"
        assert len(csv_text) > 10

    def test_solve_fails_cleanly_where_the_field_is_undefined(self, tmp_path, capsys):
        problem = tmp_path / "log.json"
        problem.write_text(json.dumps(
            {"chart": ["x"], "fields": [["ln(x)"]], "coefficients": ["1"], "x0": [-1]}
        ))
        assert main(["solve", str(problem)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "initial point" in out

    @pytest.mark.parametrize("name", ["overflow_power", "overflow_product"])
    def test_solve_names_an_overflowing_field_one_way(self, tmp_path, name):
        # x^2 raises OverflowError at x = 1e200, while x*x comes out inf
        code, doc = run(tmp_path, "solve", str(INPUTS / f"{name}.json"))
        assert code == 1
        assert doc["checks"][-1]["detail"] == ("right-hand side not defined at the initial point "
                                               "t=0.0, x=[1e+200]: field value not finite")

    def test_solve_fails_on_step_underflow(self, tmp_path, capsys):
        # the second coefficient is about -1.2e12 at t0: every step is
        # rejected down to the underflow bound at the first node
        problem = tmp_path / "underflow.json"
        problem.write_text(json.dumps({
            "chart": ["x"], "fields": [["(2)^36"], ["x"]],
            "coefficients": ["t", "((t)+(ln(t)))/((t)^20)"], "x0": [0], "t_span": [0.25, 0.5]}))
        code, doc = run(tmp_path, "solve", str(problem))
        assert code == 1
        check = doc["checks"][0]
        assert check["name"] == "integrated" and not check["passed"]
        assert check["detail"] == "step underflow at t=0.25; 1 nodes, blew_up=False"
        assert "FAIL integrated  (step underflow at t=0.25; 1 nodes, blew_up=False)" in capsys.readouterr().out
        trajectory = doc["extra"]["trajectory"]
        assert trajectory["blew_up"] is False and trajectory["truncated_at"] == 0.25

    def test_solve_fails_on_the_step_budget_within_seconds(self, tmp_path):
        # steps stay under 1e-6 on [1, 1.25]: without the budget, 801,839
        # nodes and half a minute, ending in PASS
        problem = tmp_path / "stiff.json"
        problem.write_text(json.dumps({
            "chart": ["x"], "fields": [["((x)*((x)^7))^17"], ["((exp(x))^6)/((x)^23)"]],
            "coefficients": [{"table": {"t": [1, 1.25], "values": [-0.231, -0.505]}},
                             "((t)*((t)^7))^5"],
            "x0": [0.613298184003245], "t_span": [1, 1.25]}))
        done = run_subprocess("solve", problem, timeout=20)
        assert done.returncode == 1
        assert "FAIL integrated  (step budget at t=" in done.stdout

    def test_solve_passes_through_a_blow_up(self, tmp_path):
        problem = tmp_path / "escape.json"
        problem.write_text(json.dumps({"chart": ["x"], "fields": [["x^2"]], "coefficients": ["1"],
                                       "x0": [1.0], "t_span": [0.0, 5.0]}))
        code, doc = run(tmp_path, "solve", str(problem))
        assert code == 0
        assert doc["extra"]["trajectory"]["blew_up"] is True
        assert doc["checks"][0]["detail"] == (
            f"{len(doc['extra']['trajectory']['t'])} nodes, blew_up=True")

    def test_superpose_with_explicit_k(self, tmp_path):
        code, doc = run(tmp_path, "superpose", str(PROBLEMS / "riccati.json"), "--k", "0.5")
        assert code == 0
        names = [c["name"] for c in doc["checks"]]
        assert names == ["tangency_zero", "psi_transversal", "reconstruction_vs_direct",
                         "psi_drift_along_solutions"]
        assert doc["extra"]["k"] == [0.5]

    def test_superpose_with_k_fails_a_wrong_rule(self, tmp_path):
        # psi and phi agree with each other, so every leaf solve would
        # converge, but the leaves of psi are not invariant: the run ends at
        # verify's checks of the rule, before anything is integrated
        problem = edited_problem(tmp_path, "riccati", {
            "rule.psi": ["(x_0 - x_1)/(x_2 - x_3)"], "rule.phi": ["x_1 + k1*(x_2 - x_3)"]})
        code, doc = run(tmp_path, "superpose", str(problem), "--k", "0.5")
        assert code == 1
        _, verified = run(tmp_path, "verify", str(problem), json_name="verify.json")
        assert doc["checks"] == verified["checks"][:2]
        assert [c["passed"] for c in doc["checks"]] == [False, True]
        assert doc["extra"] == {}

    @pytest.mark.parametrize("problem", ["partial_rank1", "partial_rank1_m2"])
    def test_superpose_with_the_files_k_checks_the_tuple(self, tmp_path, problem):
        code, doc = run(tmp_path, "superpose", str(PROBLEMS / f"{problem}.json"))
        assert code == 0
        assert [c["name"] for c in doc["checks"]] == [
            "tangency_zero", "psi_transversal", "reconstruction_vs_direct", "psi_drift_along_solutions"]

    def test_superpose_derives_k_and_compares(self, tmp_path):
        code, doc = run(tmp_path, "superpose", str(PROBLEMS / "riccati.json"))
        assert code == 0
        names = [c["name"] for c in doc["checks"]]
        assert "reconstruction_vs_direct" in names

    def test_superpose_keeps_the_truncation_of_the_tuple(self, tmp_path):
        # the particular solution from 0 is tan(t), which escapes at pi/2
        code, doc = run(tmp_path, "superpose", str(PROBLEMS / "riccati.json"), "--t-span", "0,3")
        slot0 = doc["extra"]["slot0"]
        assert slot0["blew_up"] is True
        assert slot0["truncated_at"] == slot0["t"][-1] < 3

    @pytest.mark.parametrize("command", ["superpose", "verify"])
    @pytest.mark.parametrize("span,detail", [
        ([], ""),
        # the particular solution from 0 is tan(t), which escapes at pi/2
        (["--t-span", "0,3"], "blow-up at t=1.5708: checked on [0, 1.5708] of [0, 3]"),
    ])
    def test_drift_checks_name_a_stop_short_of_t1(self, tmp_path, command, span, detail):
        code, doc = run(tmp_path, command, str(PROBLEMS / "riccati.json"), *span)
        drifts = [c["detail"] for c in doc["checks"] if "drift" in c["name"]]
        assert code == 0 and drifts == [detail]

    @pytest.mark.parametrize("argv,count", [
        (["verify"], 1), (["superpose"], 1), (["superpose", "--k", "0.5"], 1),
    ])
    def test_drift_checks_fail_on_the_step_budget(self, tmp_path, monkeypatch, argv, count):
        # at tol 1e-9 the tuple needs more than 30 steps to reach t1 = 1.2
        monkeypatch.setattr(dynamics, "MAX_ATTEMPTED_STEPS", 30)
        code, doc = run(tmp_path, *argv[:1], str(PROBLEMS / "riccati.json"), *argv[1:])
        drifts = [c for c in doc["checks"] if "drift" in c["name"]]
        assert code == 1 and len(drifts) == count
        for check in drifts:
            assert not check["passed"] and check["value"] <= check["threshold"]
            assert re.fullmatch(r"step budget at t=0\.\d+: checked on \[0, 0\.\d+\] of \[0, 1\.2\]",
                                check["detail"])

    def test_verify_fails_when_the_budget_cuts_the_span(self, tmp_path):
        # sin(exp(16 t)) oscillates ever faster: the tuple spends the whole
        # step budget by t = 0.6, and the drift there is well under its limit
        problem = tmp_path / "budget.json"
        doc = json.loads((PROBLEMS / "riccati.json").read_text())
        problem.write_text(json.dumps({**doc, "coefficients": ["sin(exp(16*t))", "0", "1"],
                                       "t_span": [0, 1]}))
        code, report = run(tmp_path, "verify", str(problem))
        drift = report["checks"][-1]
        assert code == 1 and drift["name"] == "psi_drift_along_solutions" and not drift["passed"]
        assert drift["detail"] == "step budget at t=0.600187: checked on [0, 0.600187] of [0, 1]"

    def test_superpose_euclidean_newton_path(self, tmp_path):
        code, doc = run(tmp_path, "superpose", str(PROBLEMS / "euclidean.json"))
        assert code == 0

    def test_superpose_all_catalogued_problem_files(self, tmp_path):
        for name in ("linear2.json", "separable_invsq.json", "translation.json",
                     "translation_alt.json"):
            code, doc = run(tmp_path, "superpose", str(PROBLEMS / name), json_name=name)
            assert code == 0, name


class TestVerify:
    def test_fields_are_parsed_once(self, tmp_path, monkeypatch):
        # the system is built on the fields the rule's checks use
        calls, real = [], VectorField.from_strings
        monkeypatch.setattr(VectorField, "from_strings",
                            staticmethod(lambda *args: calls.append(1) or real(*args)))
        code, _ = run(tmp_path, "verify", str(PROBLEMS / "riccati.json"))
        assert code == 0 and len(calls) == 3

    @pytest.mark.parametrize("seed", ["5", "6"])
    def test_a_nan_derivative_of_psi_is_a_missed_tuple(self, tmp_path, capsys, seed):
        # dpsi/dx_0 = 1 + 800 exp(400 d)^2 - 798 exp(399 d)^2, d = x_0 - x_1,
        # is inf - inf = NaN where both squares overflow, as at tuples these
        # seeds draw: a miss of the rank search, not an SVD of NaN
        code, _ = run(tmp_path, "verify", str(INPUTS / "nan_psi_derivative.json"), "--seed", seed)
        assert code == 0
        assert "  PASS psi_transversal  [probabilistic]" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["verify", "superpose"])
    @pytest.mark.parametrize("name", ["nan_field_points", "inf_field_points"])
    def test_a_field_past_the_float_range_at_supplied_points_fails_by_name(
            self, capsys, command, name):
        # exp(x)*exp(x) is inf at 401, and inf * 0 = NaN at 400: neither
        # ranks, and neither is a rank-deficient tuple
        assert main([command, str(INPUTS / f"{name}.json")]) == 1
        assert ("  FAIL completed  (field value at (400.0); (401.0) is out of the float range)"
                in capsys.readouterr().out.splitlines())

    def test_euclidean_rule(self, tmp_path):
        code, doc = run(tmp_path, "verify", str(PROBLEMS / "euclidean.json"))
        assert code == 0
        assert all(c["passed"] for c in doc["checks"])

    def test_both_translation_rules_pass(self, tmp_path):
        for name in ("translation.json", "translation_alt.json"):
            code, doc = run(tmp_path, "verify", str(PROBLEMS / name), json_name=name)
            assert code == 0, name

    def test_partial_rules_checked_against_the_system(self, tmp_path):
        for name in ("partial_rank1.json", "partial_rank1_m2.json"):
            code, doc = run(tmp_path, "verify", str(PROBLEMS / name), json_name=name)
            assert code == 0, name
            names = [c["name"] for c in doc["checks"]]
            assert names == ["tangency_zero", "psi_transversal", "psi_drift_along_solutions"]
            # the constraint divides every tangency residual: an exact verdict
            tangency = next(c for c in doc["checks"] if c["name"] == "tangency_zero")
            assert tangency["probabilistic"] is False
            drift = next(c for c in doc["checks"] if c["name"] == "psi_drift_along_solutions")
            assert drift["value"] <= 1e-12
            # slot 0 starts on the leaf of the file's k
            assert doc["extra"]["initial_psi"] == pytest.approx([0.7], abs=1e-15)

    def test_gl3_linear_rule_verifies_within_a_minute(self, tmp_path):
        from liesys.catalog import gl_fields, linear_rule
        from liesys.expr import Chart

        chart = Chart(("x", "y", "z"))
        path = tmp_path / "gl3.json"
        path.write_text(json.dumps({
            "chart": list(chart.names),
            "fields": [[str(c) for c in f.components] for f in gl_fields(chart)],
            "rule": linear_rule(chart).to_json_dict(),
        }))
        done = run_subprocess("verify", path, timeout=60)
        assert done.returncode == 0, done.stdout + done.stderr
        assert "PASS tangency_zero  (all residuals vanish)" in done.stdout
        assert "PASS psi_transversal  (rank 3 of dpsi_j/dx_(0),i, need s = 3)" in done.stdout

    def test_constant_level_map_is_not_transversal(self, tmp_path):
        # psi is constant, so every leaf is tangent to the slot-0 fibre and
        # fixes no x_(0); tangency and drift alone pass it
        path = edited_problem(tmp_path, "translation", {
            "rule.psi": ["y_1 - y_1 + 1", "x_1 - x_1 + 2"], "rule.phi": None})
        code, doc = run(tmp_path, "verify", str(path))
        assert code == 1
        assert [c["name"] for c in doc["checks"] if not c["passed"]] == ["psi_transversal"]
        check = next(c for c in doc["checks"] if c["name"] == "psi_transversal")
        assert check["detail"] == "rank 0 of dpsi_j/dx_(0),i, need s = 2"
        assert not check["probabilistic"]

    def test_every_problem_rule_is_transversal(self, tmp_path):
        for path in sorted(PROBLEMS.glob("*.json")):
            if {"chart", "rule"} <= set(json.loads(path.read_text())):
                code, doc = run(tmp_path, "verify", str(path), json_name=path.name)
                assert code == 0, path.name
                check = next(c for c in doc["checks"] if c["name"] == "psi_transversal")
                assert check["passed"] and not check["probabilistic"], path.name

    def test_full_rule_with_phi_off_its_leaves_fails(self, tmp_path, capsys):
        path = edited_problem(tmp_path, "translation", {"rule.phi": ["x_1 + 2*k1", "y_1 + k2"]})
        assert main(["verify", str(path)]) == 1
        assert "psi(phi) - k1 = k1 is not zero" in capsys.readouterr().out

    @pytest.mark.parametrize("name,options", [
        ("phi_near_leaf", []), ("phi_near_leaf", ["--k", "0.5"]), ("phi_off_leaf", []),
    ], ids=["near", "near_k", "off"])
    def test_superpose_fails_a_phi_off_its_leaves_as_verify_does(self, capsys, name, options):
        # riccati.json with phi + x_1/10^9 (near) or + x_1/1000 (off); slot 0
        # rebuilt from the near phi is within 2e-9 of the integrated one
        path = str(INPUTS / f"{name}.json")
        assert main(["verify", path]) == 1
        [reason] = [line for line in capsys.readouterr().out.splitlines() if "FAIL completed" in line]
        assert reason.startswith("  FAIL completed  (phi is off its own leaves: psi component 0: ")
        assert main(["superpose", path, *options]) == 1
        assert reason in capsys.readouterr().out.splitlines()

    def test_high_degree_phi_off_its_leaves_fails_within_seconds(self, tmp_path):
        # psi(phi) - k1 has degree 62,792 in x_1; the message shows it as it
        # stands, without reducing it by a gcd that would run for hours
        path = tmp_path / "high_degree.json"
        path.write_text(json.dumps({
            "chart": ["x", "y"], "fields": [["3^9", "y"]],
            "rule": {"m": 1, "s": 2,
                     "psi": ["(-3)^31/(y_0 + 3)^24 + x_0^130", "y_0*x_0/x_0^21"],
                     "phi": ["x_1^476 - k1*x_1", "k1/k2/x_1^38"]},
        }))
        done = run_subprocess("verify", path, timeout=10)
        assert done.returncode == 1, done.stdout + done.stderr
        assert "phi is off its own leaves: psi component 0: psi(phi) - k1 = " in done.stdout
        assert "Traceback" not in done.stderr
        # the residual is quoted as its term count and a bounded prefix
        assert max(len(line) for line in done.stdout.splitlines()) <= 400
        assert re.search(r"psi\(phi\) - k1 = \d+ terms over \d+, ", done.stdout)

    def test_partial_rank1_passes_for_every_seed(self, tmp_path):
        # the seed only moves is_zero's sample points, which the exact
        # tangency verdicts of these rules do not use
        for name in ("partial_rank1.json", "partial_rank1_m2.json"):
            for seed in range(50):
                code, _ = run(tmp_path, "verify", str(PROBLEMS / name), "--seed", str(seed))
                assert code == 0, (name, seed)

    @pytest.mark.parametrize("edits", [{"rule.phi": None},
                                       {"rule.phi": None, "coefficients": None}])
    def test_partial_rule_without_phi_fails_cleanly(self, tmp_path, capsys, edits):
        path = edited_problem(tmp_path, "partial_rank1", edits)
        assert main(["verify", str(path)]) == 1
        assert "has no phi" in capsys.readouterr().out

    @pytest.mark.parametrize("name,fails,detail", [
        ("psi_not_transversal", "psi_transversal", "rank 1 of dpsi_j/dx_(0),i, need s = 2"),
        ("partial_not_invariant", "tangency_zero",
         "field 0 constraint 0: nonzero; field 1 constraint 0: nonzero"),
        ("partial_rank1_no_phi", "completed",
         "tangency of a partial rule is decided along phi, and the rule has no phi"),
    ])
    def test_superpose_refuses_a_rule_before_integrating(self, monkeypatch, tmp_path, name, fails,
                                                          detail):
        # superpose decides the rule as verify does, and integrates nothing
        # once a rule check fails: no tuple, no CSV
        calls, real = [], superposition.integrate_tuple

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(superposition, "integrate_tuple", counted)
        path = str(INPUTS / f"{name}.json")
        code, doc = run(tmp_path, "superpose", path, "--csv", str(tmp_path / "csv"))
        assert code == 1 and calls == []
        checks = {c["name"]: c for c in doc["checks"]}
        assert not checks[fails]["passed"] and checks[fails]["detail"] == detail
        _, verified = run(tmp_path, "verify", path, json_name="verify.json")
        assert doc["checks"] == verified["checks"][:len(doc["checks"])]
        assert doc["extra"] == {} and not (tmp_path / "csv").exists()

    @pytest.mark.parametrize("command", ["verify", "superpose"])
    def test_partial_rule_without_phi_fails_in_both_commands(self, capsys, command):
        # superpose decides a partial rule along phi before integrating, as
        # verify does, so neither passes a rule whose constraint set it
        # cannot show invariant
        assert main([command, str(INPUTS / "partial_rank1_no_phi.json")]) == 1
        out = capsys.readouterr().out
        assert ("FAIL completed  (tangency of a partial rule is decided along phi, "
                "and the rule has no phi)") in out and "overall: FAIL" in out, out

    def test_sampled_zero_tangency_passes(self, tmp_path):
        # sin(x)^2 + cos(x)^2 = 1 is not formally 1, so every residual is
        # only sampled: the verdict passes and says it is probabilistic.  The
        # 30th power P of sin^2 + cos^2 - 2 is 1 too, but expanded its terms
        # reach about 1e13 and cancel in floats far past the zero test's
        # tolerance, in a field or in psi (x_0*P - x_1 = x_0 - x_1).
        power = "(sin({})^2 + cos({})^2 - 2)^30"
        for field, psi, phi in (
            ("sin(x)^2 + cos(x)^2", "x_0 - x_1", ["x_1 + k1"]),
            (power.format("x", "x"), "x_0 - x_1", ["x_1 + k1"]),
            ("1", "x_0*" + power.format("x_0", "x_0") + " - x_1", None),
        ):
            path = tmp_path / "trig.json"
            path.write_text(json.dumps({
                "chart": ["x"], "fields": [[field]], "coefficients": ["1"],
                "rule": {"m": 1, "s": 1, "psi": [psi], "phi": phi},
            }))
            code, doc = run(tmp_path, "verify", str(path))
            assert code == 0, (field, psi)
            tangency = next(c for c in doc["checks"] if c["name"] == "tangency_zero")
            assert tangency["passed"] and tangency["probabilistic"]

    def test_drifts_far_below_tol_const(self, tmp_path):
        # slot 0 shares one integration with the particular solutions, so
        # drift is integration error only, far below the threshold
        for name in ("riccati.json", "euclidean.json", "linear2.json",
                     "separable_invsq.json", "translation.json", "translation_alt.json"):
            for command in ("verify", "superpose"):
                code, doc = run(tmp_path, command, str(PROBLEMS / name),
                                json_name=f"{command}_{name}")
                assert code == 0, (command, name)
                drift = next(c for c in doc["checks"] if "drift" in c["name"])
                assert drift["value"] <= doc["tolerances"]["tol_const"] / 100, (command, name)


class TestGroupAndPde:
    def test_group_mobius(self, tmp_path):
        code, doc = run(tmp_path, "group", str(PROBLEMS / "sl2_group.json"))
        assert code == 0
        assert [c["name"] for c in doc["checks"]] == ["integrated", "det_liouville"]

    @pytest.mark.parametrize("name", ["group_decay", "group_trace"])
    def test_group_with_a_trace_passes_det_liouville(self, tmp_path, name):
        # group_decay: det g(1) = e^-30, far below 1 but within 1e-13 of exp(tau)
        code, doc = run(tmp_path, "group", str(INPUTS / f"{name}.json"))
        assert code == 0
        check = next(c for c in doc["checks"] if c["name"] == "det_liouville")
        assert check["passed"] and check["value"] <= 1e-10

    def test_group_matrix_stopped_at_its_first_node(self, tmp_path):
        # tr a = sin(t) + t; the entry below the diagonal is about 1e124 at
        # t0, so every step is rejected and tau is an empty sum
        action = {"name": "sl2_linear", "matrix": [
            ["sin(t)", "(2)^23"], ["(((exp(t))^23)-((2)^23))^18", "t"]]}
        path = edited_problem(tmp_path, "sl2_group", {"action": action, "t_span": [-0.25, 0.125]})
        code, doc = run(tmp_path, "group", str(path))
        assert code == 1
        integrated, det = doc["checks"]
        assert not integrated["passed"] and integrated["detail"].startswith("step underflow at t=-0.25")
        assert det["name"] == "det_liouville" and det["passed"] and det["value"] == 0.0

    def test_group_report_on_the_mobius_pole_is_strict_json(self, tmp_path):
        # the orbit 1/(1 - t) of x' = x^2 lands on the pole at t = 1
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        out = tmp_path / "r.json"
        assert main(["group", str(INPUTS / "mobius_pole.json"), "--json", str(out)]) == 0
        orbit = json.loads(out.read_text(), parse_constant=refuse)["extra"]["orbit"]
        assert orbit["t"][-1] == 1.0 and orbit["states"][-1] == [None]
        assert all(math.isfinite(v) for row in orbit["states"][:-1] for v in row)

    def test_group_x0_on_the_pole_skips_equivariance(self, tmp_path):
        path = edited_problem(tmp_path, "sl2_group", {"action": {
            "name": "sl2_linear", "sl2_coefficients": ["1", "0", "1"], "x0": [1.0, 0.0]}})
        code, doc = run(tmp_path, "group", str(path))
        assert code == 0
        assert doc["extra"]["orbit"]["t"]
        assert "sl2_riccati_equivariance" not in [c["name"] for c in doc["checks"]]

    @pytest.mark.parametrize("x0", [[0.0], None])
    def test_group_fails_a_solve_stopped_at_its_first_node(self, tmp_path, x0):
        # the third coefficient is about 1e124 at t0: every step is rejected
        action = {"name": "mobius", "x0": x0,
                  "sl2_coefficients": ["sin(t)", "(2)^23", "(((exp(t))^23)-((2)^23))^18"]}
        path = edited_problem(tmp_path, "sl2_group", {"action": action, "t_span": [-0.25, 0.125]})
        code, doc = run(tmp_path, "group", str(path))
        assert code == 1
        check = next(c for c in doc["checks"] if c["name"] == "integrated")
        assert not check["passed"] and check["detail"].startswith("step underflow at t=-0.25")
        assert len(doc["extra"]["orbit"]["t"]) == 1 if x0 else "orbit" not in doc["extra"]

    def test_group_fails_on_the_step_budget_within_seconds(self, tmp_path):
        # without the budget this solve had not ended after 30 s
        path = edited_problem(tmp_path, "sl2_group", {"t_span": [0, 0.75], "action": {
            "name": "mobius", "x0": [0.0],
            "sl2_coefficients": ["(exp(t))^17", "(t)+(t)", "((exp(t))+(exp(t)))^12"]}})
        done = run_subprocess("group", path, timeout=20)
        assert done.returncode == 1
        assert "FAIL integrated  (step budget at t=" in done.stdout

    def test_equivariance_that_compares_no_node_fails(self, tmp_path):
        # |x2| stays under 0.05 |x1| over the span while the Riccati solution
        # from 100 runs to its blow-up: no node lies outside POLE_MARGIN
        path = edited_problem(tmp_path, "sl2_group", {"t_span": [0, 0.01], "action": {
            "name": "sl2_linear", "sl2_coefficients": ["1", "0", "1"], "x0": [10.0, 0.1]}})
        code, doc = run(tmp_path, "group", str(path))
        assert code == 1
        check = next(c for c in doc["checks"] if c["name"] == "sl2_riccati_equivariance")
        assert not check["passed"] and (check["value"], check["threshold"]) == (0.0, 1e-6)
        assert check["detail"] == (
            "0 of 3508 nodes compared: all lie within POLE_MARGIN of the pole x2 = 0")

    @pytest.mark.parametrize("argv,module,function,calls", [
        # flatness is exact, so one staircase and no audit
        (["pde", "solve", "pde_riccati"], "pde", "path_solve", 1),
        (["group", "sl2_group"], "group", "solve_group_equation", 1),
        # a planar x0 adds the equivariance check, which needs no second g
        (["group", ("sl2_group", {"action.name": "sl2_linear", "action.x0": [0.0, 1.0]})],
         "group", "solve_group_equation", 1),
        # one curvature report serves both the flatness gate and its exactness
        (["pde", "solve", "pde_riccati"], "pde", "curvature", 1),
    ])
    def test_each_solve_runs_once(self, monkeypatch, tmp_path, argv, module, function, calls):
        seen, real = [], getattr(sys.modules[f"liesys.{module}"], function)

        def counted(*args, **kwargs):
            seen.append(1)
            return real(*args, **kwargs)

        for loaded in list(sys.modules.values()):
            if loaded.__name__.startswith("liesys.") and hasattr(loaded, function):
                monkeypatch.setattr(loaded, function, counted)
        problem = argv[-1]
        path = (edited_problem(tmp_path, *problem) if isinstance(problem, tuple)
                else PROBLEMS / f"{problem}.json")
        assert main([*argv[:-1], str(path)]) == 0
        assert len(seen) == calls

    def test_pde_superpose_integrates_one_tuple_and_solves_no_leaf(self, monkeypatch):
        # slot 0 and the three particular solutions move as one tuple, one
        # run per line of the 11 x 11 grid, and phi rebuilds every node
        runs, solves = [], []

        def counted_run(real):
            def run(*args, **kwargs):
                runs.append(1)
                return real(*args, **kwargs)
            return run

        def counted_build(real):
            def build(rule):
                solve = real(rule)

                def counted(*args):
                    solves.append(1)
                    return solve(*args)
                return counted
            return build

        for loaded in list(sys.modules.values()):
            if loaded.__name__.startswith("liesys."):
                for name, wrap in (("_dopri5", counted_run), ("_leaf_solve", counted_build)):
                    if hasattr(loaded, name):
                        monkeypatch.setattr(loaded, name, wrap(getattr(loaded, name)))
        assert main(["pde", "superpose", str(PROBLEMS / "pde_riccati.json")]) == 0
        assert (len(runs), len(solves)) == (12, 0)

    def test_examples_run_pde_riccati_decides_curvature_once(self, monkeypatch):
        # check, solve and superpose all read the system's one report
        seen, real = [], pde.curvature

        def counted(system):
            seen.append(1)
            return real(system)

        monkeypatch.setattr(pde, "curvature", counted)
        assert main(["examples", "run", "pde_riccati"]) == 0
        assert len(seen) == 1

    def test_pde_superpose_non_tangent_rule_fails_cleanly(self, tmp_path, capsys):
        path = edited_problem(tmp_path, "pde_riccati", {
            "rule.m": 1, "rule.psi": ["u_0 - u_1"], "rule.phi": None,
            "initial_points": [[-1.0]]})
        code, doc = run(tmp_path, "pde", "superpose", str(path))
        assert code == 1 and doc["command"] == "pde superpose"
        assert "FAIL tangency_zero  (field 1 psi 0: nonzero; field 2 psi 0: nonzero)" in capsys.readouterr().out

    def test_pde_superpose_refuses_nonflat_before_integrating(self, monkeypatch, tmp_path):
        # curvature t1*u^2 - u^2: not flat, with a decomposition on 1, u, u^2
        path = edited_problem(tmp_path, "pde_riccati", {
            "pde.fields": [["u^2"], ["t1*u^2"]],
            "pde.decomposition.u": [["0", "0", "1"], ["0", "0", "t1"]]})
        calls, real = [], pde._dopri5

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pde, "_dopri5", counted)
        code, doc = run(tmp_path, "pde", "superpose", str(path))
        # pde superpose takes no --audit, so the message offers none
        assert code == 1
        assert doc["checks"][0]["detail"] == "curvature residual nonzero for parameter pair (0, 1)"
        assert calls == []

    @staticmethod
    def refused(monkeypatch, tmp_path, name) -> dict:
        """The checks of `pde superpose` on tools/inputs/`name`.json, which
        must end after verify's two checks of the rule, one of them failing,
        with no grid integrated."""
        calls, real = [], pde.solve_on_grid

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pde, "solve_on_grid", counted)
        code, doc = run(tmp_path, "pde", "superpose", str(INPUTS / f"{name}.json"))
        assert code == 1 and calls == [] and doc["extra"] == {}
        assert [c["name"] for c in doc["checks"]] == ["tangency_zero", "psi_transversal"]
        assert sum(c["passed"] for c in doc["checks"]) == 1
        return {c["name"]: c for c in doc["checks"]}

    def test_pde_superpose_refuses_a_non_tangent_rule_before_integrating(self, monkeypatch,
                                                                         tmp_path):
        tangency = self.refused(monkeypatch, tmp_path, "pde_not_tangent")["tangency_zero"]
        assert tangency["detail"] == "field 1 psi 0: nonzero; field 2 psi 0: nonzero"

    def test_pde_superpose_refuses_a_non_transversal_rule_before_integrating(self, monkeypatch,
                                                                             tmp_path):
        # the cross ratio of slots 1-4 is tangent, but does not see slot 0
        transversal = self.refused(monkeypatch, tmp_path, "pde_not_transversal")["psi_transversal"]
        assert transversal["detail"] == "rank 0 of dpsi_j/dx_(0),i, need s = 1"

    def test_pde_check_flat(self, tmp_path):
        code, doc = run(tmp_path, "pde", "check", str(PROBLEMS / "pde_riccati.json"))
        assert code == 0
        assert doc["extra"]["residuals"]["1,2"] == ["0"]

    def test_pde_check_nonflat(self, tmp_path):
        code, doc = run(tmp_path, "pde", "check", str(PROBLEMS / "pde_nonflat.json"))
        assert code == 1
        assert doc["extra"]["residuals"]["1,2"] == ["u"]

    @pytest.mark.parametrize("factor", [
        "(sin(t2)^2 + cos(t2)^2 - 1)*(sin(t2)^2 + cos(t2)^2 - 2)^30",  # zero, but only sampled
        "(t2 + 2)^30",
    ])
    def test_pde_check_quotes_a_long_residual_briefly(self, tmp_path, capsys, factor):
        # the residual is factor*(1 + t1)*u^2, expanded to thousands of characters
        path = tmp_path / "long_residual.json"
        path.write_text(json.dumps({"pde": {"s": 2, "chart": ["u"], "fields": [
            ["u"], [f"(exp(-t1) + {factor}*t1)*u^2"]]}}))
        code, doc = run(tmp_path, "pde", "check", str(path))
        assert max(len(line) for line in capsys.readouterr().out.splitlines()) <= 300
        full = doc["extra"]["residuals"]["1,2"][0]
        detail = doc["checks"][0]["detail"]
        if full != "0":
            assert code == 1 and len(full) > 1000
            terms = full.count(" + ") + full.count(" - ") + 1
            assert detail == f"pair (0, 1): component 0: {terms} terms, {full[:200]}..."

    def test_pde_solve_refuses_nonflat(self, tmp_path):
        code, doc = run(tmp_path, "pde", "solve", str(PROBLEMS / "pde_nonflat.json"))
        assert code == 1 and "pass --audit" in doc["checks"][0]["detail"]

    @pytest.mark.parametrize("field, detail", [
        # u goes to 0 at t1 = 0.5, and ln raises in every stage past it
        ("u*ln(1 - 2*t1)", "step underflow along axis 1 near t1=0.5"),
        ("u^2", "blow-up along axis 1 near t1=1"),
    ])
    def test_pde_solve_names_the_stop_of_a_line(self, tmp_path, field, detail):
        path = tmp_path / "stop.json"
        path.write_text(json.dumps({"pde": {"s": 2, "chart": ["u"], "fields": [[field], ["0"]]},
                                    "x0": [1.0], "target": [1.5, 0.1]}))
        code, doc = run(tmp_path, "pde", "solve", str(path))
        assert code == 1 and doc["checks"][0]["detail"] == detail

    def test_pde_solve_flat(self, tmp_path):
        code, doc = run(
            tmp_path, "pde", "solve", str(PROBLEMS / "pde_riccati.json"), "--t-span", "0,1"
        )
        assert code == 0

    @pytest.mark.parametrize("problem,flags,names", [
        (PROBLEMS / "pde_riccati.json", [], ["integrated"]),
        (PROBLEMS / "pde_riccati.json", ["--audit"], ["integrated", "path_independence_spread"]),
        # exp(t1)*exp(t2)*u - exp(t1 + t2)*u is zero only by sampling
        (INPUTS / "pde_atom_flat.json", [], ["integrated", "path_independence_spread"]),
    ], ids=["exact", "audit_flag", "sampled"])
    def test_pde_solve_audits_a_sampled_flatness_or_on_request(self, tmp_path, problem, flags,
                                                                names):
        code, doc = run(tmp_path, "pde", "solve", str(problem), *flags)
        assert code == 0 and [c["name"] for c in doc["checks"]] == names
        assert ("spread" in doc["extra"]) == ("path_independence_spread" in names)

    def test_pde_superpose(self, tmp_path):
        code, doc = run(tmp_path, "pde", "superpose", str(PROBLEMS / "pde_riccati.json"))
        assert code == 0


class TestParserReuse:
    """main builds its parser once per process; no call may see another's arguments."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_audit_flag_does_not_carry_over(self):
        nonflat = str(PROBLEMS / "pde_nonflat.json")
        main(["pde", "solve", nonflat, "--audit"])
        assert main(["pde", "solve", nonflat]) == 1

    def test_k_does_not_carry_over(self, tmp_path):
        riccati = str(PROBLEMS / "riccati.json")
        build_parser.cache_clear()
        assert main(["superpose", riccati, "--json", str(tmp_path / "first.json")]) == 0
        assert main(["superpose", riccati, "--k", "0.5"]) == 0
        assert main(["superpose", riccati, "--json", str(tmp_path / "again.json")]) == 0
        assert (tmp_path / "again.json").read_text() == (tmp_path / "first.json").read_text()

    def test_usage_error_then_a_valid_call(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["m", str(PROBLEMS / "riccati.json"), "--seed", "x"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err
        code, doc = run(tmp_path, "m", str(PROBLEMS / "riccati.json"))
        assert code == 0 and doc["extra"]["m"] == 3 and doc["seed"] == 0


class TestNegativeValues:
    """A negative number in any float form is an option's value, not an option."""

    @pytest.mark.parametrize("command,problem,option,value", [
        ("superpose", "riccati", "--k", "-1e-05"),
        ("solve", "linear2", "--t-span", "-0.5,0.5"),
    ])
    def test_separate_value_reads_as_the_equals_form(self, tmp_path, capsys, command, problem,
                                                      option, value):
        path = str(PROBLEMS / f"{problem}.json")
        apart = run(tmp_path, command, path, option, value, json_name="apart.json")
        apart_out = capsys.readouterr()
        joined = run(tmp_path, command, path, f"{option}={value}", json_name="joined.json")
        assert apart == joined and apart[0] == 0
        assert capsys.readouterr() == apart_out

    @pytest.mark.parametrize("value", ["-inf", "-INF", "-Infinity", "-nan", "-NaN"])
    def test_infinite_and_nan_k_read_as_the_equals_form(self, tmp_path, capsys, value):
        # float() reads them all; a k that is not finite is refused by name
        path = str(PROBLEMS / "riccati.json")
        apart = run(tmp_path, "superpose", path, "--k", value, json_name="apart.json")
        apart_out = capsys.readouterr()
        joined = run(tmp_path, "superpose", path, f"--k={value}", json_name="joined.json")
        assert apart == joined == (2, None)
        assert capsys.readouterr() == apart_out and apart_out.out == ""
        assert apart_out.err == f"error: 'k' must be a list of 1 finite numbers, got [{float(value)}]\n"

    def test_several_k_in_exponent_notation(self, tmp_path):
        code, doc = run(tmp_path, "superpose", str(PROBLEMS / "linear2.json"), "--k", "-1e-05", "2e-3")
        assert code == 0 and doc["extra"]["k"] == [-1e-05, 2e-3]

    @pytest.mark.parametrize("argv,message", [
        (["--k", "-x"], "expected at least one argument"),
        (["--t-span", "-1e-05"], "t-span must be 'a,b'"),
        (["--k", "1", "-5x"], "invalid float value: '-5x'"),
        (["--k", "-h"], "expected at least one argument"),
        (["--k", "-infx"], "expected at least one argument"),
        (["--k", "1", "--frobnicate"], "unrecognized arguments: --frobnicate"),
    ])
    def test_other_usage_errors_still_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            main(["superpose", str(PROBLEMS / "riccati.json"), *argv])
        assert err.value.code == 2 and message in capsys.readouterr().err


class TestSchemaErrors:
    def test_unknown_top_key(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"chart": ["x"], "fields": [["1"]], "frobnicate": 1}))
        assert main(["m", str(bad)]) == 2

    def test_unknown_rule_key(self, tmp_path):
        doc = json.loads((PROBLEMS / "riccati.json").read_text())
        doc["rule"]["extra"] = True
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["superpose", str(bad)]) == 2

    def test_missing_file(self):
        assert main(["m", "/nonexistent/nope.json"]) == 2

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["m", str(bad)]) == 2

    def test_bad_expression_in_field(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"chart": ["x"], "fields": [["q + 1"]]}))
        assert main(["m", str(bad)]) == 2

    def test_all_zero_field_under_m(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"chart": ["x", "y"], "fields": [["0", "0"]]}))
        assert main(["m", str(bad)]) == 2

    def test_number_as_field_component(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"chart": ["x"], "fields": [[3]]}))
        assert main(["closure", str(bad)]) == 2
        assert "must be strings" in capsys.readouterr().err

    def test_deeply_nested_parentheses(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"chart": ["x"], "fields": [["(" * 3000 + "x" + ")" * 3000]]}))
        assert main(["closure", str(bad)]) == 2
        assert "nested deeper" in capsys.readouterr().err

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_unknown_catalog_entry(self, capsys):
        assert main(["examples", "run", "nosuch"]) == 2
        assert "error: unknown catalog entry 'nosuch'" in capsys.readouterr().err

    def test_problem_path_that_is_a_directory(self, tmp_path, capsys):
        assert main(["closure", str(tmp_path)]) == 2
        assert "error: cannot read problem file" in capsys.readouterr().err

    def test_problem_file_that_is_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"chart": ["\xff"], "fields": [["1"]]}')
        assert main(["closure", str(bad)]) == 2
        assert "error: cannot read problem file" in capsys.readouterr().err

    # a passing report, and the report of a run that errors (pde_nonflat is not flat)
    @pytest.mark.parametrize("argv", [["m", "riccati"], ["pde", "solve", "pde_nonflat"]])
    def test_json_report_into_a_missing_directory(self, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "report.json"
        assert main([*argv[:-1], str(PROBLEMS / f"{argv[-1]}.json"), "--json", str(out)]) == 2
        assert f"error: cannot write {out}: No such file or directory" in capsys.readouterr().err

    def test_csv_dumps_under_a_regular_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        dumps = tmp_path / "file" / "dumps"
        assert main(["solve", str(PROBLEMS / "riccati.json"), "--csv", str(dumps)]) == 2
        assert f"error: cannot write {dumps}: Not a directory" in capsys.readouterr().err


def edited_problem(tmp_path, problem, edits):
    """problems/<problem>.json, or the file `problem` when it is a Path, with
    each dotted key of `edits` set to its value."""
    source = problem if isinstance(problem, Path) else PROBLEMS / f"{problem}.json"
    doc = json.loads(source.read_text())
    for dotted, value in edits.items():
        *parents, key = dotted.split(".")
        target = doc
        for name in parents:
            target = target[name]
        target[key] = value
    path = tmp_path / f"{source.stem}_edited.json"
    path.write_text(json.dumps(doc))
    return path


S1_PDE = {"s": 1, "chart": ["u"], "fields": [["u^2"]],
          "decomposition": {"u": [["0", "0", "1"]], "basis": [["1"], ["u"], ["u^2"]]}}

# (problem, command, edits, a fragment of the message on stderr)
MALFORMED_INPUTS = [
    ("riccati", ["solve"], {"x0": [0.1, 0.2]}, "'x0'"),
    ("riccati", ["solve"], {"x0": "ab"}, "'x0'"),
    ("riccati", ["solve"], {"coefficients": 5}, "'coefficients'"),
    ("riccati", ["solve"], {"t_span": "ab"}, "'t_span'"),
    ("riccati", ["solve"], {"tol": "x"}, "'tol'"),
    ("riccati", ["solve"], {"tol": -1}, "'tol'"),
    ("riccati", ["solve"], {"seed": "x"}, "'seed'"),
    ("riccati", ["m"], {"samples": 0}, "'samples'"),
    ("riccati", ["superpose"], {"k": [1.0, 2.0]}, "'k'"),
    ("riccati", ["superpose"], {"k": "ab"}, "'k'"),
    ("riccati", ["superpose"], {"initial_points": [[-2.0], [0.0, 1.0], [-1.0]]}, "'initial_points'"),
    ("riccati", ["m"], {"m": "x"}, "'m'"),
    ("pde_riccati", ["pde", "solve"], {"target": [0.5]}, "'target'"),
    ("pde_riccati", ["pde", "superpose"], {"target": [0.5]}, "'target'"),
    ("pde_riccati", ["pde", "superpose"], {"k": [0.6, 0.7]}, "'k'"),
    ("pde_riccati", ["pde", "solve"], {"x0": [0.5, 0.5]}, "'x0'"),
    ("pde_riccati", ["pde", "solve"], {"target": [-0.5, 0.5]}, "'target'"),
    ("pde_riccati", ["pde", "superpose"], {"target": [-0.5, 0.5]}, "'target'"),
    ("pde_riccati", ["pde", "superpose"], {"initial_points": [[-1.0], [-2.0, 0.0], [0.5]]},
     "'initial_points'"),
    ("pde_riccati", ["pde", "superpose"], {"pde": S1_PDE, "target": [0.5]}, "s = 2"),
    ("sl2_group", ["group"], {"action": {"name": "sl2_linear", "matrix": [["0", "1"], ["1"]]}},
     "matrix"),
    ("sl2_group", ["group"], {"action.sl2_coefficients": ["1", "0"]}, "'sl2_coefficients'"),
    ("sl2_group", ["group"], {"action.sl2_coefficients": [1, 0, 1]}, "'sl2_coefficients'"),
    ("sl2_group", ["group"], {"action.name": "sl2_linear"}, "'x0'"),
    ("sl2_group", ["group"], {"action": {"name": "sl2_linear", "x0": [1.0, 0.0],
                                         "matrix": [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]]}},
     "2x2"),
    ("sl2_group", ["group"], {"action": {"name": "mobius", "matrix": "abc"}}, "'matrix'"),
    # verify builds the system as solve and superpose do
    ("riccati", ["verify"], {"fields": [["1"], ["x"], ["2*x"]]}, "linearly independent"),
    # JSON's NaN and Infinity are numbers to Python's json, and not finite
    ("riccati", ["solve"], {"x0": [math.nan]}, "'x0' must be a list of 1 finite numbers, got [nan]"),
    ("riccati", ["superpose"], {"initial_points": [[-2.0], [math.inf], [-1.0]]},
     "'initial_points' must be 3 lists of 1 finite numbers, got [[-2.0], [inf], [-1.0]]"),
    ("pde_riccati", ["pde", "solve"], {"target": [0.5, math.inf]},
     "'target' must be a list of 2 finite nonnegative numbers, got [0.5, inf]"),
    # a coordinate name that is not a string
    ("riccati", ["closure"], {"chart": [1]}, "error: bad chart: bad coordinate name 1"),
    ("pde_riccati", ["pde", "check"], {"pde.chart": [1]},
     "error: bad pde section: bad coordinate name 1"),
    # a size that is not an integer is refused, not truncated; one out of
    # range is refused before the rule's chart is built
    ("riccati", ["verify"], {"rule.m": 3.9}, "'rule.m' must be an integer, got 3.9"),
    ("riccati", ["verify"], {"rule.s": True}, "'rule.s' must be an integer, got True"),
    ("riccati", ["verify"], {"rule.m": "3"}, "'rule.m' must be an integer, got '3'"),
    ("pde_riccati", ["pde", "check"], {"pde.s": 2.5}, "'pde.s' must be an integer, got 2.5"),
    ("riccati", ["verify"], {"rule.m": 0}, "bad rule: m must be in 1..1000 on a chart of dimension 1"),
    ("linear2", ["verify"], {"rule.m": 501}, "bad rule: m must be in 1..500 on a chart of dimension 2"),
    # an integer past the float range is named by its digit count
    ("riccati", ["verify"], {"rule.m": 10**400},
     "'rule.m' must be an integer, got an integer of 401 digits, beyond the float range ±1.8e+308"),
    ("riccati", ["verify"], {"seed": 10**400},
     "'seed' must be an integer, got an integer of 401 digits, beyond the float range ±1.8e+308"),
    ("riccati", ["solve"], {"x0": [1 - 10**400]},
     "'x0' must be a list of 1 finite numbers, got an integer of 400 digits"),
]


class TestMalformedInputsExit2:
    """Each malformed section or numeric key ends in a schema error on stderr."""

    @pytest.mark.parametrize("problem,command,edits,fragment", MALFORMED_INPUTS,
                             ids=[f"{p}-{'_'.join(c)}-{i}" for i, (p, c, _, _) in
                                  enumerate(MALFORMED_INPUTS)])
    def test_exit_2_with_message(self, tmp_path, capsys, problem, command, edits, fragment):
        path = edited_problem(tmp_path, problem, edits)
        assert main([*command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fragment in err, err
        assert len(err) < 200, err  # an input's huge number is not echoed whole

    def test_integer_literal_past_the_string_limit(self, tmp_path, capsys):
        # json reads one of more than 4,300 digits as a ValueError, not a JSONDecodeError
        path = tmp_path / "long_seed.json"
        text = (PROBLEMS / "riccati.json").read_text()
        path.write_text(text.replace("{", '{"seed": ' + "1" * 5000 + ",", 1))
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: problem file is not valid JSON: ") and len(err) < 300, err


class TestIntegerSizesExit2:
    """rule.m, rule.s and pde.s are checked before the rule's product chart
    or the PDE's parameter chart is built, so a size far beyond any problem
    exits 2 at once; each runs in its own process, which a hang would time
    out."""

    @pytest.mark.parametrize("problem,command,edits,fragment", [
        ("riccati", ["verify"], {"rule.m": 10**30}, "bad rule: m must be in 1..1000"),
        # legal before the bound, and seconds to build
        ("riccati", ["verify"], {"rule.m": 10**5, "coefficients": None}, "bad rule: m must be in 1..1000"),
        ("riccati", ["verify"], {"rule.s": 10**12}, "bad rule: rank must be in 1..1"),
        ("pde_riccati", ["pde", "check"], {"pde.s": 10**12},
         "bad pde section: 2 fields for 1000000000000 parameters"),
    ], ids=["m_1e30", "m_1e5", "s_1e12", "pde_s_1e12"])
    def test_exit_2_at_once(self, tmp_path, problem, command, edits, fragment):
        done = run_subprocess(*command, edited_problem(tmp_path, problem, edits), timeout=10)
        assert done.returncode == 2 and fragment in done.stderr, done.stderr


def _slot0_pushed(monkeypatch):
    """An integrator fault: slot 0 of every integrated tuple moved by 1e-3 t."""
    from liesys import superposition

    real = superposition.integrate_tuple

    def pushed(*args, **kwargs):
        tuple_ = real(*args, **kwargs)
        tuple_[0].states[:, 0] += 1e-3 * tuple_[0].t
        return tuple_
    monkeypatch.setattr(superposition, "integrate_tuple", pushed)


def _leaf_shifted(monkeypatch):
    """A rebuild fault: every slot-0 node that reconstruct returns moved by 1e-3."""
    from liesys import superposition

    real = superposition.reconstruct

    def shifted(*args, **kwargs):
        slot0 = real(*args, **kwargs)
        return dataclasses.replace(slot0, states=slot0.states + 1e-3)
    monkeypatch.setattr(superposition, "reconstruct", shifted)


def _grid_leaf_shifted(monkeypatch):
    """A rebuild fault: every slot-0 node that the grid's one rebuild
    (superposition._rebuild, which pde_superpose calls) returns moved by 1e-3."""
    from liesys import pde

    real = pde._rebuild

    def shifted(*args, **kwargs):
        return [[[v + 1e-3 for v in node] for node in row] for row in real(*args, **kwargs)]
    monkeypatch.setattr(pde, "_rebuild", shifted)


def _grid_node_moved(monkeypatch):
    """A rebuild fault at one interior node: row 5, column 5 of the slot-0
    grid that pde_superpose returns moved by 1e-3."""
    from liesys import pde

    real = pde.pde_superpose

    def moved(*args, **kwargs):
        rebuilt = real(*args, **kwargs)
        rebuilt[5, 5] += 1e-3
        return rebuilt
    monkeypatch.setattr(pde, "pde_superpose", moved)


def _group_det_drift(monkeypatch):
    """An integrator fault: column 0 of g scaled by 1 + 1e-3 after t0."""
    from liesys import group

    real = group.solve_group_equation

    def drifted(*args, **kwargs):
        g = real(*args, **kwargs)
        g.matrices[1:, :, 0] *= 1 + 1e-3
        return g
    monkeypatch.setattr(group, "solve_group_equation", drifted)


def _staircase_moved(monkeypatch):
    """An integrator fault: the endpoint of the audit's second staircase,
    the first that is not the default one, moved by 1e-7."""
    from liesys import pde

    real, solved = pde.path_solve, []

    def moved(*args, **kwargs):
        endpoint = real(*args, **kwargs)
        solved.append(endpoint)
        return endpoint + 1e-7 if len(solved) == 2 else endpoint
    monkeypatch.setattr(pde, "path_solve", moved)


def _rank_one_short(monkeypatch):
    """A kernel fault: every evaluation rank of minimal_m one short, as a
    wrong evaluation of the fields would leave it."""
    from liesys import algebra

    real = algebra.evaluation_rank

    def short(*args, **kwargs):
        rank, exact = real(*args, **kwargs)
        return rank - 1, exact
    monkeypatch.setattr(algebra, "evaluation_rank", short)


def _riccati_side_pushed(monkeypatch):
    """An integrator fault: the Riccati coordinate x of the joint system of
    check_equivariance moved by 1e-3 t; g, which integrate_tuple solves, is
    untouched."""
    from liesys import group

    real = group.integrate

    def pushed(*args, **kwargs):
        tr = real(*args, **kwargs)
        tr.states[:, 2] += 1e-3 * tr.t
        return tr
    monkeypatch.setattr(group, "integrate", pushed)


def _structure_constant_off(monkeypatch):
    """A kernel fault: the first structure constant of every closed report
    off by one, as a wrong exact bracket would leave it."""
    from liesys import algebra

    real = algebra.closure_test

    def off(*args, **kwargs):
        report = real(*args, **kwargs)
        if report.closed:
            pair = min(report.constants)
            first, *rest = report.constants[pair]
            report.constants[pair] = (first + 1, *rest)
        return report
    monkeypatch.setattr(algebra, "closure_test", off)


def _prolongation_base_negated(monkeypatch):
    """A kernel fault: the base field of every diagonal prolongation that
    the catalog decides negated."""
    real = catalog.is_diagonal_prolongation

    def negated(*args, **kwargs):
        decision = real(*args, **kwargs)
        return dataclasses.replace(decision, base=decision.base.scale(Const(-1)))
    monkeypatch.setattr(catalog, "is_diagonal_prolongation", negated)


def _span_always_found(monkeypatch):
    """A kernel fault: every span decision of the catalog finds constant
    coefficients."""
    real = catalog.span_coefficients

    def found(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), in_span=True)
    monkeypatch.setattr(catalog, "span_coefficients", found)


# (id, command words, problem file, edits, fault, the check that FAILs, a
# fragment of its detail, the checks that still PASS).  Short of `completed` itself, the
# stage before every check is the file's parsing and phi's leaf conditions,
# which pass when the report holds no `completed`.  For `examples run NAME`
# the problem is {file stem: source file}: the entry runs on a copy of the
# catalog's problems directory with each such file replaced by its source.
PLANTED_DEFECTS = [
    # the translations move slot 0 off the constraint set x2 = x1^2, while
    # psi = x1_0 - x1_1 stays tangent
    ("constraint_set_moves", "verify", INPUTS / "partial_not_invariant.json", {}, None,
     "tangency_zero", "field 0 constraint 0: nonzero; field 1 constraint 0: nonzero",
     {"psi_transversal", "psi_drift_along_solutions"}),
    ("constraint_set_moves_rule_only", "verify", INPUTS / "partial_not_invariant_rule.json", {}, None,
     "tangency_zero", "field 0 constraint 0: nonzero; field 1 constraint 0: nonzero",
     {"psi_transversal"}),
    # superpose decides the rule as verify does, and ends there
    ("constraint_set_moves_superpose", "superpose", INPUTS / "partial_not_invariant.json", {}, None,
     "tangency_zero", "field 0 constraint 0: nonzero; field 1 constraint 0: nonzero",
     {"psi_transversal"}),
    # the rule passes its checks and psi stays on its leaf; only the rebuilt
    # slot 0 misses the integrated one, by 1e-3 at every node
    ("leaf_shifted", "superpose", PROBLEMS / "riccati.json", {}, _leaf_shifted,
     "reconstruction_vs_direct", "", {"tangency_zero", "psi_transversal", "psi_drift_along_solutions"}),
    # C(phi) = -x1_1: the leaf conditions end the run before any residual
    ("phi_off_its_leaves", "verify", PROBLEMS / "partial_rank1.json",
     {"rule.phi": ["k1*x1_1", "k1*x2_1 + 1"]}, None,
     "completed", "constraint 0: C(phi) = -x1_1 is not zero", set()),
    ("psi_not_tangent", "verify", PROBLEMS / "riccati.json",
     {"rule.psi": ["x_0 - x_1"], "rule.phi": ["x_1 + k1"]}, None,
     "tangency_zero", "field 1 psi 0: nonzero; field 2 psi 0: nonzero", {"psi_transversal"}),
    # psi = (y_0, y_0 - y_1) is tangent to the x-translations, but neither
    # component sees x_0: no k fixes slot 0
    ("psi_not_transversal", "verify", INPUTS / "psi_not_transversal.json", {}, None,
     "psi_transversal", "rank 1 of dpsi_j/dx_(0),i, need s = 2",
     {"tangency_zero", "psi_drift_along_solutions"}),
    # the cross ratio of slots 1-4 is tangent to the decomposition basis 1,
    # u, u^2, but does not see slot 0
    ("grid_psi_not_transversal", "pde superpose", INPUTS / "pde_not_transversal.json", {}, None,
     "psi_transversal", "rank 0 of dpsi_j/dx_(0),i, need s = 1", {"tangency_zero"}),
    # exact tangency leaves only a liesys fault for the drift to catch
    ("partial_drift_fault", "verify", PROBLEMS / "partial_rank1.json", {}, _slot0_pushed,
     "psi_drift_along_solutions", "", {"tangency_zero", "psi_transversal"}),
    # [1, x^2] = 2x lies outside the span of 1 and x^2
    ("bracket_outside_the_span", "closure", PROBLEMS / "incomplete_pair.json", {}, None,
     "closed", "dimension 2", set()),
    # sl(2) with [X_0, X_1] = 2 X_0 instead of X_0: the brackets still close
    ("structure_constant_off", "closure", PROBLEMS / "riccati.json", {}, _structure_constant_off,
     "jacobi_residual_zero", "", {"closed"}),
    # x' = -1/x from x = 1 reaches the field's pole x = 0 at t = 1/2, where
    # the steps shrink until they underflow
    ("pole_reached", "solve", PROBLEMS / "separable_invsq.json",
     {"fields": [["-1/x"]], "coefficients": ["1"], "x0": [1.0], "t_span": [0, 1]}, None,
     "integrated", "step underflow at t=0.5000000000853925; 351 nodes", set()),
    # the rule's checks pass, and so does the grid's flatness, which ends
    # the run in `completed` when it fails; every rebuilt node misses the
    # integrated slot 0 by 1e-3
    ("grid_leaf_shifted", "pde superpose", PROBLEMS / "pde_riccati.json", {}, _grid_leaf_shifted,
     "superposition_vs_path_solve", "", {"tangency_zero", "psi_transversal"}),
    # one interior node off by 1e-3, which a check of the far corner alone
    # would pass
    ("grid_node_moved", "pde superpose", PROBLEMS / "pde_riccati.json", {}, _grid_node_moved,
     "superposition_vs_path_solve", "", {"tangency_zero", "psi_transversal"}),
    # det g drifts from exp(tau) by 1e-3 while the run reaches t1
    ("group_det_drift", "group", PROBLEMS / "sl2_group.json", {}, _group_det_drift,
     "det_liouville", "", {"integrated"}),
    # the Riccati fields need m = 3, which the file's "m" understates
    ("m_understated", "m", PROBLEMS / "riccati.json", {"m": 2}, None,
     "m_matches_expected", "got 3, expected 2", {"m_determined"}),
    # a spread of 1e-7 lies above the limit 10 tol = 1e-8 and below 1e-5
    # (flatness is exact, so only --audit compares staircases)
    ("staircase_moved", "pde solve --audit", PROBLEMS / "pde_riccati.json", {}, _staircase_moved,
     "path_independence_spread", "", {"integrated"}),
    # [d/dt1 + u d/du, d/dt2 + t1 u d/du] = u d/du
    ("curvature_nonzero", "pde check", PROBLEMS / "pde_nonflat.json", {}, None,
     "flat", "pair (0, 1): u", set()),
    # with every rank one short, no k <= r reaches r = 3
    ("rank_one_short", "m", PROBLEMS / "riccati.json", {}, _rank_one_short,
     "m_determined", "no k <= r reached full rank", set()),
    # g and its determinant are right; only the Riccati side moves
    ("riccati_side_pushed", "group", PROBLEMS / "sl2_group.json",
     {"action.name": "sl2_linear", "action.x0": [0.0, 1.0]}, _riccati_side_pushed,
     "sl2_riccati_equivariance", "", {"integrated", "det_liouville"}),
    # se(2) closes with dimension 3 < m n = 4: the paper's non-unique case,
    # which every other check of the riccati entry passes
    ("codimension_above_n", "examples run riccati", {"riccati": PROBLEMS / "euclidean.json"}, {}, None,
     "prolonged_span_codimension_is_n", "",
     {"closed", "jacobi_residual_zero", "m_determined", "m_matches_expected", "tangency_zero",
      "psi_transversal", "reconstruction_vs_direct", "psi_drift_along_solutions"}),
    ("rules_the_same", "examples run translation_nonunique",
     {"translation_alt": PROBLEMS / "translation.json"}, {}, None, "rules_genuinely_differ", "",
     {"m_determined", "standard_tangency_zero", "skewed_tangency_zero",
      "standard_reconstruction_vs_direct", "skewed_reconstruction_vs_direct"}),
    ("prolongation_base_negated", "examples run lemma_counterexample", {}, {},
     _prolongation_base_negated, "functional_combination_is_prolongation", "",
     {"not_in_constant_span"}),
    ("span_always_found", "examples run lemma_counterexample", {}, {}, _span_always_found,
     "not_in_constant_span", "", {"functional_combination_is_prolongation"}),
]


class TestPlantedDefects:
    """Each row plants one defect: its check FAILs, the stage before it
    PASSes, and so do the checks the defect does not touch."""

    @pytest.mark.parametrize("command,problem,edits,fault,fails,fragment,before",
                             [row[1:] for row in PLANTED_DEFECTS],
                             ids=[row[0] for row in PLANTED_DEFECTS])
    def test_check_fails_and_earlier_stages_pass(self, tmp_path, monkeypatch, command, problem,
                                                 edits, fault, fails, fragment, before):
        if command.startswith("examples run"):
            copy = tmp_path / "problems"
            shutil.copytree(catalog.PROBLEMS, copy)
            for stem, source in problem.items():
                shutil.copyfile(source, copy / f"{stem}.json")
            monkeypatch.setattr(catalog, "PROBLEMS", copy)
            argv = command.split()
        else:
            argv = [*command.split(), str(edited_problem(tmp_path, problem, edits))]
        if fault is not None:
            fault(monkeypatch)
        code, report = run(tmp_path, *argv)
        assert code == 1
        checks = {c["name"]: c for c in report["checks"]}
        assert not checks[fails]["passed"] and fragment in checks[fails]["detail"]
        assert all(checks[name]["passed"] for name in before)
        assert fails == "completed" or "completed" not in checks


def _emitted_check_names() -> set[str]:
    """Every name that src/liesys passes as a literal first argument to
    Check, Check.limit or Check.equals."""
    def is_check(func) -> bool:
        return (isinstance(func, ast.Name) and func.id == "Check") or (
            isinstance(func, ast.Attribute) and func.attr in ("limit", "equals")
            and isinstance(func.value, ast.Name) and func.value.id == "Check")

    names = set()
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "liesys").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and is_check(node.func) and node.args
                    and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)):
                names.add(node.args[0].value)
    return names


class TestEveryCheckCanFail:
    def test_each_emitted_check_is_planted_or_has_a_reason(self):
        emitted, planted = _emitted_check_names(), {row[5] for row in PLANTED_DEFECTS}
        assert {"closed", "completed", "integrated", "tangency_zero"} <= emitted
        # a new check needs a row
        assert emitted == planted


class TestLongChains:
    """Fields written as long sums: x^2 as `terms` copies of x^2/terms."""

    def problem(self, tmp_path, terms, chain=" + "):
        doc = json.loads((PROBLEMS / "separable_invsq.json").read_text())
        doc["fields"] = [[chain.join([f"x^2/{terms}"] * terms)]]
        path = tmp_path / f"chain{terms}.json"
        path.write_text(json.dumps(doc))
        return path

    @staticmethod
    def verdicts(tmp_path, command, path):
        code, doc = run(tmp_path, command, str(path), json_name=f"{path.stem}_{command}.json")
        return code, [(c["name"], c["passed"]) for c in doc["checks"]]

    @pytest.mark.parametrize("command", ["closure", "m", "solve", "superpose", "verify"])
    def test_300_terms_give_the_verdicts_of_the_short_field(self, tmp_path, command):
        long = self.verdicts(tmp_path, command, self.problem(tmp_path, 300))
        short = self.verdicts(tmp_path, command, PROBLEMS / "separable_invsq.json")
        assert long == short
        assert long[0] == 0

    @pytest.mark.parametrize("command", ["closure", "solve"])
    def test_3000_terms_exit_2(self, tmp_path, capsys, command):
        assert main([command, str(self.problem(tmp_path, 3000))]) == 2
        assert "binary operators" in capsys.readouterr().err

    def test_nested_runs_exit_2_before_compiling(self, tmp_path, capsys):
        # each run is the first operand of the next, so their depths add up
        text = "x"
        for _ in range(3):
            text = f"({text})" + "+x" * 999
        path = tmp_path / "nested.json"
        path.write_text(json.dumps({"chart": ["x"], "fields": [[text]], "coefficients": ["1"],
                                    "x0": [0.5]}))
        assert main(["solve", str(path)]) == 2
        assert "binary operators" in capsys.readouterr().err

    def test_quotient_chain_counts_as_nesting(self, tmp_path, capsys):
        for quotients, code in ((32, 0), (33, 2), (3000, 2)):
            path = tmp_path / f"quot{quotients}.json"
            field = "/".join(["x"] * (quotients + 1))
            path.write_text(json.dumps({"chart": ["x"], "fields": [[field]], "coefficients": ["1"],
                                        "x0": [0.5], "t_span": [0.0, 0.1]}))
            assert main(["solve", str(path)]) == code
        assert "nested deeper" in capsys.readouterr().err


class TestExamples:
    def test_list_names_all_entries(self, capsys):
        assert main(["examples", "list"]) == 0
        out = capsys.readouterr().out
        for name in (
            "riccati", "linear2", "linear_n", "euclidean_se2", "separable_invsq",
            "translation_nonunique", "sl2_group", "pde_riccati", "lemma_counterexample",
            "partial_linear_rank1", "partial_linear_rank1_m2",
        ):
            assert name in out

    def test_run_single_entry(self, tmp_path):
        code, doc = run(tmp_path, "examples", "run", "lemma_counterexample")
        assert code == 0
        assert doc["extra"]["witness_base"] == ["-x^2"]

    @pytest.mark.parametrize("argv", [
        ["run", "separable_invsq", "--t-span", "0,50"],
        ["run", "separable_invsq", "--csv", "dumps"],
        ["run-all", "--t-span", "0,50"],
        ["run-all", "--csv", "dumps"],
    ])
    def test_problem_file_options_are_usage_errors(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(["examples", *argv])
        assert err.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_run_all_deterministic(self, tmp_path):
        code1, doc1 = run(tmp_path, "examples", "run-all", "--seed", "3", json_name="a.json")
        code2, doc2 = run(tmp_path, "examples", "run-all", "--seed", "3", json_name="b.json")
        assert code1 == code2 == 0
        assert doc1["checks"] == doc2["checks"]
        assert doc1["extra"] == doc2["extra"]

    def test_run_all_drifts_far_below_tol_const(self, tmp_path):
        code, doc = run(tmp_path, "examples", "run-all", "--seed", "0")
        assert code == 0
        tol_const = doc["tolerances"]["tol_const"]
        drifts = [
            (name, c["name"], c["value"])
            for name, entry in doc["extra"].items()
            for c in entry["checks"]
            if "drift" in c["name"]
        ]
        assert len(drifts) >= 7
        assert all(value <= tol_const / 100 for _, _, value in drifts), drifts

    def test_text_rendering_numbers_come_from_json(self, tmp_path, capsys):
        code, doc = run(tmp_path, "examples", "run", "riccati")
        out = capsys.readouterr().out
        import re

        for token in re.findall(r"value=([0-9.e+-]+)", out):
            value = float(token)
            assert any(
                c["value"] is not None and f"{c['value']:.3g}" == f"{value:.3g}"
                for c in doc["checks"]
            )


class TestShippedFilesMatchTheirSources:
    """linear3.json is the output of its generators, and sl2_linear.json
    runs sl2_group.json's curve."""

    def test_linear3_is_linear_rule_on_the_gl3_fields(self):
        doc = json.loads((PROBLEMS / "linear3.json").read_text())
        chart = Chart(("x1", "x2", "x3"))
        got, want = SuperpositionRule.from_json_dict(chart, doc["rule"]), catalog.linear_rule(chart)
        assert doc["chart"] == list(chart.names)
        assert doc["fields"] == catalog._gl_components(chart.names)
        assert (got.m, got.rank, got.constraints) == (want.m, want.rank, ())
        for ours, theirs in ((got.psi, want.psi), (got.phi, want.phi)):
            assert len(ours) == len(theirs) == 3
            assert all(canonically_equal(a, b) for a, b in zip(ours, theirs))

    def test_sl2_linear_is_sl2_group_acting_on_the_plane(self):
        linear, group = (json.loads((PROBLEMS / f"{name}.json").read_text())
                         for name in ("sl2_linear", "sl2_group"))
        assert linear == {**group, "action": {**group["action"], "name": "sl2_linear", "x0": [0.0, 1.0]}}


class TestCatalogSharesTheCliChecks:
    """The catalog's rule entries check their rules with the builders of
    `verify` and `superpose`, so a catalog check and the CLI check of the same
    name on the matching problem file agree to the bit."""

    FULL = {"tangency_zero", "psi_transversal", "reconstruction_vs_direct",
            "psi_drift_along_solutions"}
    PARTIAL = {"tangency_zero", "psi_transversal", "psi_drift_along_solutions"}

    @pytest.mark.parametrize("entry,prefix,problem,names", [
        ("separable_invsq", "", "separable_invsq", FULL),
        ("linear2", "", "linear2", FULL),
        ("translation_nonunique", "standard_", "translation", FULL),
        ("translation_nonunique", "skewed_", "translation_alt", FULL),
        ("partial_linear_rank1", "", "partial_rank1", PARTIAL),
        ("partial_linear_rank1_m2", "", "partial_rank1_m2", PARTIAL),
        ("riccati", "", "riccati", FULL),
        # the entry redraws the file's coefficients from its seed
        ("euclidean_se2", "", ("euclidean", {"coefficients": [
            catalog._random_quadratic(rng) for rng in [random.Random(0)] for _ in range(3)]}), FULL),
    ])
    def test_catalog_checks_equal_the_cli_checks(self, tmp_path, entry, prefix, problem, names):
        checks, _ = get_entry(entry).run(RunConfig(seed=0))
        catalog = {c.name[len(prefix):]: c for c in checks if c.name.startswith(prefix)}
        path = (edited_problem(tmp_path, *problem) if isinstance(problem, tuple)
                else PROBLEMS / f"{problem}.json")
        cli = []
        for command in ("verify", "superpose"):
            _, doc = run(tmp_path, command, str(path), json_name=f"{command}.json")
            cli += [c for c in doc["checks"] if c["name"] in catalog]
        assert {c["name"] for c in cli} == names
        for c in cli:
            ours = catalog[c["name"]]
            assert (ours.passed, ours.value, ours.threshold) == (c["passed"], c["value"], c["threshold"])

    @pytest.mark.parametrize("entry", [
        "riccati", "linear2", "linear_n", "euclidean_se2", "separable_invsq",
        "translation_nonunique", "partial_linear_rank1", "partial_linear_rank1_m2",
    ])
    def test_one_integrated_tuple_per_rule(self, monkeypatch, entry):
        calls = []
        real = dynamics.integrate_tuple

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("liesys.") and hasattr(module, "integrate_tuple"):
                monkeypatch.setattr(module, "integrate_tuple", counted)
        get_entry(entry).run(RunConfig(seed=0))
        assert len(calls) == (2 if entry == "translation_nonunique" else 1)

    # entry -> (its doc: a shipped problem file or the catalog function that
    # builds it, the rows it runs)
    ROW_ENTRIES = {
        "riccati": ("riccati", ["closure", "m", "superpose"]),
        "linear2": ("linear2", ["closure", "m", "superpose"]),
        "linear_n": ("linear3", ["closure", "m", "superpose"]),
        "euclidean_se2": (catalog._euclidean_doc, ["m", "superpose"]),
        "separable_invsq": ("separable_invsq", ["m", "superpose"]),
        "sl2_group": ("sl2_linear", ["group"]),
        "pde_riccati": ("pde_riccati", ["pde check", "pde solve", "pde superpose"]),
        "partial_linear_rank1": ("partial_rank1", ["verify"]),
        "partial_linear_rank1_m2": ("partial_rank1_m2", ["verify"]),
    }

    def test_every_entry_but_two_is_built_from_rows(self):
        assert set(self.ROW_ENTRIES) == set(catalog.ENTRIES) - {"translation_nonunique",
                                                                 "lemma_counterexample"}

    @pytest.mark.parametrize("entry", sorted(ROW_ENTRIES))
    def test_entry_checks_are_its_rows_cli_checks(self, tmp_path, entry):
        doc_of, rows = self.ROW_ENTRIES[entry]
        config = RunConfig(seed=0)
        checks, _ = get_entry(entry).run(config)
        doc = (json.loads((PROBLEMS / f"{doc_of}.json").read_text()) if isinstance(doc_of, str)
               else doc_of(config))
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        want = []
        for row in rows:
            _, report = run(tmp_path, *row.split(), str(path))
            want += report["checks"]
        assert [c.to_json_dict() for c in checks if c.name != "prolonged_span_codimension_is_n"] == want

    def test_examples_run_riccati_parses_fields_once_and_decides_phi_once(self, monkeypatch):
        calls, real = [], VectorField.from_strings
        monkeypatch.setattr(VectorField, "from_strings",
                            staticmethod(lambda *args: calls.append(1) or real(*args)))
        decisions, decide = [], superposition._phi_on_leaves
        monkeypatch.setattr(superposition, "_phi_on_leaves",
                            lambda *args: decisions.append(1) or decide(*args))
        assert main(["examples", "run", "riccati"]) == 0
        assert len(calls) == 3 and len(decisions) == 1

    CLOSURE = {"closed", "jacobi_residual_zero"}
    M = {"m_determined", "m_matches_expected"}

    @pytest.mark.parametrize("entry,argv,names", [
        ("sl2_group", ["group", "sl2_group"], {"integrated", "det_liouville"}),
        ("pde_riccati", ["pde", "check", "pde_riccati"], {"flat"}),
        ("linear2", ["closure", "linear2"], CLOSURE),
        ("riccati", ["closure", "riccati"], CLOSURE),
        ("linear2", ["m", "linear2"], M),
        ("riccati", ["m", "riccati"], M),
        ("separable_invsq", ["m", "separable_invsq"], M),
        ("euclidean_se2", ["m", "euclidean"], M),
        ("translation_nonunique", ["m", "translation"], M),
        ("pde_riccati", ["pde", "solve", "pde_riccati"], {"integrated"}),
        ("pde_riccati", ["pde", "superpose", "pde_riccati"], {"superposition_vs_path_solve"}),
    ])
    def test_catalog_checks_equal_the_checks_of_other_commands(self, tmp_path, entry, argv, names):
        checks, _ = get_entry(entry).run(RunConfig(seed=0))
        catalog = {c.name: c.to_json_dict() for c in checks}
        _, doc = run(tmp_path, *argv[:-1], str(PROBLEMS / f"{argv[-1]}.json"))
        cli = {c["name"]: c for c in doc["checks"] if c["name"] in names}
        assert set(cli) == names
        assert all(catalog[name] == c for name, c in cli.items())

    def test_pde_flatness_is_exact(self):
        checks, _ = get_entry("pde_riccati").run(RunConfig(seed=0))
        flat = next(c for c in checks if c.name == "flat")
        assert flat.passed and not flat.probabilistic

    def test_translation_gaps_stay_within_1e_6(self):
        checks, _ = get_entry("translation_nonunique").run(RunConfig(seed=0))
        gaps = {c.name: c.value for c in checks if c.name.endswith("reconstruction_vs_direct")}
        assert set(gaps) == {"standard_reconstruction_vs_direct", "skewed_reconstruction_vs_direct"}
        assert max(gaps.values()) <= 1e-6
