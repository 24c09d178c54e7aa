import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


class TestBenchPairsSummary:
    PARENT = [1.80, 1.82, 1.79, 1.85, 1.81, 1.83, 1.78, 1.84, 1.80, 1.86]

    def test_quartiles_and_a_claimed_gain(self):
        change = [v - 0.35 for v in self.PARENT]
        change[3] = 1.90  # one pair lost: 9 of 10 still claim
        s = bench_pairs.summarize(self.PARENT, change, "lower", 0.25)
        assert s["parent"] == pytest.approx((1.80, 1.815, 1.8375))
        assert s["change"][1] == pytest.approx(1.465)
        assert (s["won"], s["pairs"]) == (9, 10)
        assert s["gain_claimed"] and not s["worse_beyond_bound"]

    def test_two_lost_pairs_claim_nothing(self):
        change = [v - 0.35 for v in self.PARENT]
        change[3] = change[5] = 1.90
        s = bench_pairs.summarize(self.PARENT, change, "lower", 0.25)
        assert s["won"] == 8 and not s["gain_claimed"]

    def test_medians_within_the_parents_iqr_claim_nothing(self):
        change = [v - 0.01 for v in self.PARENT]  # wins every pair by less than the IQR
        s = bench_pairs.summarize(self.PARENT, change, "lower", 0.25)
        assert s["won"] == 10 and not s["gain_claimed"]

    def test_ties_count_for_neither_and_nine_pairs_claim_nothing(self):
        s = bench_pairs.summarize(self.PARENT, list(self.PARENT), "lower", 0.25)
        assert s["won"] == 0 and not s["gain_claimed"]
        nine = bench_pairs.summarize(self.PARENT[:9], [v - 0.35 for v in self.PARENT[:9]], "lower", 0.25)
        assert nine["won"] == 9 and not nine["gain_claimed"]

    def test_higher_is_better_and_the_bound(self):
        parent = [400.0, 410.0, 420.0, 430.0]
        assert bench_pairs.summarize(parent, [v * 1.2 for v in parent], "higher", 0.25)["won"] == 4
        worse = bench_pairs.summarize(parent, [v * 0.7 for v in parent], "higher", 0.25)
        assert worse["won"] == 0 and worse["worse_beyond_bound"]
        assert not bench_pairs.summarize(parent, [v * 0.8 for v in parent], "higher",
                                         0.25)["worse_beyond_bound"]


class TestBenchPairsRun:
    def test_each_run_compiles_from_source_and_writes_no_bytecode(self, monkeypatch, tmp_path):
        seen = []

        def fake_run(argv, cwd, env, **kwargs):
            prefix = Path(env["PYTHONPYCACHEPREFIX"])
            seen.append((argv[1:], cwd, env["PYTHONDONTWRITEBYTECODE"], prefix, list(prefix.iterdir())))
            result = {"correct": True, "metrics": {"op_tail_ms": {"value": 5.0}}}
            return subprocess.CompletedProcess(argv, 0, stdout="log\n" + json.dumps(result) + "\n")

        monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
        monkeypatch.setenv("PYTHONPYCACHEPREFIX", "/elsewhere")
        assert bench_pairs._run(tmp_path, "exact", 7, 35) == {"op_tail_ms": 5.0}
        assert bench_pairs._run(tmp_path, "exact", 8, 35) == {"op_tail_ms": 5.0}
        (argv, cwd, dont_write, prefix, inside), second = seen
        assert argv == ["bench/run.py", "--workload", "exact", "--seed", "7", "--seconds", "35",
                        "--trace", "0"]
        assert (cwd, dont_write, inside) == (tmp_path, "1", [])
        # a new empty directory for each run, gone after it
        assert prefix != second[3] and not prefix.exists() and not second[3].exists()


_REACH_SPEC = importlib.util.spec_from_file_location(
    "reach", Path(__file__).resolve().parent.parent / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_REACH_SPEC)
_REACH_SPEC.loader.exec_module(reach)


class TestReach:
    def test_each_function_is_keyed_as_its_code_object(self):
        from liesys import dynamics, expr, pde

        (nested,) = [c for c in pde._advance.__code__.co_consts
                     if getattr(c, "co_name", None) == "parameters"]
        cases = [
            (expr.parse.__code__, "expr.parse"),
            (dynamics.Trajectory.blew_up.fget.__code__, "dynamics.Trajectory.blew_up"),
            (dynamics.LieSystem._rhs.func.__code__, "dynamics.LieSystem._rhs"),
            (dynamics._velocity_source.__wrapped__.__code__, "dynamics._velocity_source"),
            (nested, "pde._advance.<locals>.parameters"),
        ]
        found = reach.functions()
        for code, name in cases:
            assert found[(str(Path(code.co_filename).resolve()), code.co_firstlineno)] == name

    def test_missing_and_stale_reasons_fail(self, capsys):
        names = {"m.kept", "m.reached", "m.bare"}
        assert reach._check({"m.kept": "why"}, ["m.kept"], names, "unreached")
        assert not reach._check({"m.kept": "why"}, ["m.kept", "m.bare"], names, "unreached")
        assert not reach._check({"m.kept": "why", "m.reached": "why", "m.gone": "why"},
                                ["m.kept"], names, "unreached")
        assert capsys.readouterr().out.splitlines() == [
            "unreached, with no reason: m.bare",
            "stale reason: m.gone no longer exists",
            "stale reason: m.reached is no longer unreached",
        ]
