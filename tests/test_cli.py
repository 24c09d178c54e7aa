import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from liesys.cli import main
from liesys.report import validate_report

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def run(tmp_path, *argv, json_name="report.json"):
    """Invoke the CLI in-process, returning (exit_code, report_dict)."""
    out = tmp_path / json_name
    code = main([*argv, "--json", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    if doc is not None:
        validate_report(doc)
    return code, doc


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

    @staticmethod
    def power_problem(tmp_path, squarings=0, field="x"):
        for _ in range(squarings):
            field = f"({field})^2"
        path = tmp_path / "power.json"
        path.write_text(json.dumps({"chart": ["x"], "fields": [[field]], "coefficients": ["1"]}))
        return path

    @pytest.mark.parametrize("squarings,field", [(0, "x^1100"), (12, "x")])
    def test_values_beyond_the_float_range_fail(self, tmp_path, capsys, squarings, field):
        assert main(["m", str(self.power_problem(tmp_path, squarings, field))]) == 1
        out = capsys.readouterr().out
        assert "FAIL completed" in out and "out of the float range" in out

    def test_31_squarings_fail_within_the_exact_power_budget(self, tmp_path):
        # the exact value would have 2^31 times the bits of a sample point
        path = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        done = subprocess.run(
            [sys.executable, "-m", "liesys", "m", str(self.power_problem(tmp_path, 31))],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 1
        assert "FAIL completed" in done.stdout and "bits" in done.stdout
        assert "Traceback" not in done.stderr


class TestClosureCommand:
    def test_riccati_closed(self, tmp_path):
        code, doc = run(tmp_path, "closure", str(PROBLEMS / "riccati.json"))
        assert code == 0
        assert doc["extra"]["closure"]["dimension"] == 3

    def test_incomplete_pair_fails_with_witness(self, tmp_path):
        code, doc = run(tmp_path, "closure", str(PROBLEMS / "incomplete_pair.json"))
        assert code == 1
        assert doc["passed"] is False
        assert doc["extra"]["witness"]["pair"] == [0, 1]

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

    def test_superpose_with_explicit_k(self, tmp_path):
        code, doc = run(tmp_path, "superpose", str(PROBLEMS / "riccati.json"), "--k", "0.5")
        assert code == 0
        names = [c["name"] for c in doc["checks"]]
        assert "reconstructed_psi_drift" in names
        assert doc["extra"]["k"] == [0.5]

    def test_superpose_derives_k_and_compares(self, tmp_path):
        code, doc = run(tmp_path, "superpose", str(PROBLEMS / "riccati.json"))
        assert code == 0
        names = [c["name"] for c in doc["checks"]]
        assert "reconstruction_vs_direct" in names

    def test_superpose_euclidean_newton_path(self, tmp_path):
        code, doc = run(tmp_path, "superpose", str(PROBLEMS / "euclidean.json"))
        assert code == 0

    def test_superpose_all_catalogued_problem_files(self, tmp_path):
        for name in ("linear2.json", "separable_invsq.json", "translation.json",
                     "translation_alt.json"):
            code, doc = run(tmp_path, "superpose", str(PROBLEMS / name), json_name=name)
            assert code == 0, name


class TestVerify:
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
            assert "ode_residual" in names and "constraint_residual" in names
            tangency = next(c for c in doc["checks"] if c["name"] == "tangency_zero")
            assert tangency["probabilistic"] is True

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
        names = [c["name"] for c in doc["checks"]]
        assert "det_equals_one" in names and "traceless" in names

    def test_pde_check_flat(self, tmp_path):
        code, doc = run(tmp_path, "pde", "check", str(PROBLEMS / "pde_riccati.json"))
        assert code == 0
        assert doc["extra"]["residuals"]["1,2"] == ["0"]

    def test_pde_check_nonflat(self, tmp_path):
        code, doc = run(tmp_path, "pde", "check", str(PROBLEMS / "pde_nonflat.json"))
        assert code == 1
        assert doc["extra"]["residuals"]["1,2"] == ["u"]

    def test_pde_solve_refuses_nonflat(self, tmp_path):
        code = main(["pde", "solve", str(PROBLEMS / "pde_nonflat.json")])
        assert code == 1

    def test_pde_solve_flat(self, tmp_path):
        code, doc = run(
            tmp_path, "pde", "solve", str(PROBLEMS / "pde_riccati.json"), "--t-span", "0,1"
        )
        assert code == 0

    def test_pde_superpose(self, tmp_path):
        code, doc = run(tmp_path, "pde", "superpose", str(PROBLEMS / "pde_riccati.json"))
        assert code == 0


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
