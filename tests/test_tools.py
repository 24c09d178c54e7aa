import importlib.util
import json
import subprocess
import sys
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


_RECORD_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_RECORD_SPEC)
_RECORD_SPEC.loader.exec_module(bench_record)
BENCHMARK = json.loads((bench_record.ROOT / "BENCHMARK.json").read_text())


def _names(section: str) -> list[str]:
    return [m["name"] for m in BENCHMARK[section]]


class TestBenchRecord:
    @staticmethod
    def fake(monkeypatch, incorrect=None) -> list:
        """subprocess.run answering every bench/run.py run with each
        declared metric at 1.0, incorrect on the workload `incorrect`, and
        every other interpreter process with a tier-1 summary line; other
        programs (platform's `uname -p`) run."""
        calls, real = [], subprocess.run

        def fake_run(argv, **kwargs):
            if argv[0] != sys.executable:
                return real(argv, **kwargs)
            calls.append(argv[1:])
            if argv[1] != "bench/run.py":
                return subprocess.CompletedProcess(argv, 0, stdout="909 passed in 1.00s\n", stderr="")
            workload, trace = argv[argv.index("--workload") + 1], argv[argv.index("--trace") + 1]
            metrics = {name: {"value": 1.0} for name in _names("per_layer" if trace == "1" else "end_to_end")}
            result = {"correct": workload != incorrect, "failed": 1, "attempted": 2, "metrics": metrics}
            return subprocess.CompletedProcess(argv, 0, stdout="log\n" + json.dumps(result) + "\n")

        monkeypatch.setattr(subprocess, "run", fake_run)
        return calls

    def test_document_shape(self, monkeypatch, tmp_path, capsys):
        calls = self.fake(monkeypatch)
        assert bench_record.main([str(tmp_path / "BENCH.json")]) == 0
        doc = json.loads((tmp_path / "BENCH.json").read_text())
        assert set(doc) == {"machine", "seed", "run_seconds", "workloads", "process_s", "tier1", "sloc"}
        assert set(doc["machine"]) == {"python", "platform", "cpu_count", "numpy"}
        assert list(doc["workloads"]) == [w["name"] for w in BENCHMARK["workloads"]]
        for sections in doc["workloads"].values():
            assert list(sections["end_to_end"]) == _names("end_to_end")
            assert list(sections["per_layer"]) == _names("per_layer")
        bench_runs = [argv for argv in calls if argv[0] == "bench/run.py"]
        assert len(bench_runs) == 2 * len(BENCHMARK["workloads"])
        assert all(argv[3:7] == ["--seed", "7", "--seconds", str(BENCHMARK["run_seconds"])]
                   for argv in bench_runs)
        # every process timed in each of the 5 rounds, after one compileall
        timed = [argv for argv in calls if argv[0] != "bench/run.py"]
        assert timed[0][:2] == ["-m", "compileall"]
        assert timed[1:-1] == 5 * list(bench_record.PROCESSES.values())
        assert timed[-1] == bench_record.TIER1
        assert list(doc["process_s"]) == list(bench_record.PROCESSES)
        assert doc["tier1"]["returncode"] == 0 and doc["tier1"]["summary"] == "909 passed in 1.00s"
        assert doc["sloc"]["total"] == sum(doc["sloc"]["modules"].values()) > 0
        assert len(capsys.readouterr().out.splitlines()) == 4 + 2 * len(BENCHMARK["workloads"])

    def test_an_incorrect_run_stops_the_recorder(self, monkeypatch, tmp_path):
        calls = self.fake(monkeypatch, incorrect="exact")
        with pytest.raises(SystemExit, match="1 of 2 operations failed"):
            bench_record.main([str(tmp_path / "BENCH.json")])
        assert not (tmp_path / "BENCH.json").exists()
        assert all(argv[0] == "bench/run.py" for argv in calls)

    def test_committed_record_keys_are_the_declared_names(self):
        records = sorted(bench_record.ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
        assert records, "no BENCH_<pr>.json at the root of the repo"
        doc = json.loads(records[-1].read_text())
        for workload in BENCHMARK["workloads"]:
            sections = doc["workloads"][workload["name"]]
            assert list(sections["end_to_end"]) == _names("end_to_end")
            assert list(sections["per_layer"]) == _names("per_layer")


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
