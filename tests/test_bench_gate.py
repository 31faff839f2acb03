"""The bench gate: trajectory file in, pass/fail verdict out.

``TestBenchEmitter`` and ``TestBenchRegressionCheck`` unit-test
:func:`append_bench_run` and :func:`check_bench_regression`
(``benchmarks/trajectory.py``) in isolation; the other classes pin the
whole workflow those pieces compose into — bench runs appended to a
trajectory file, then the hardened gate holding each test of the newest
run to its newest earlier run on the same machine, including the
required-speedup checks.
"""

import json
import pathlib
import subprocess
import sys

import pytest

from benchmarks import conftest as bench_conftest
from benchmarks import trajectory
from benchmarks.trajectory import (
    append_bench_run,
    check_bench_regression,
    gate_bench_run,
)

SCRIPT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "scripts"
    / "check_bench_regression.py"
)

INCAST = "test_bench_fabric_incast16"


def record(test, rate, events=94886):
    return {
        "test": test,
        "wall_seconds": round(events / rate, 6),
        "events_fired": events,
        "events_per_sec": rate,
    }


def two_run_trajectory(path, previous_rate, newest_rate):
    """Record two consecutive bench runs of the 16-node incast."""
    append_bench_run(
        str(path),
        [record(INCAST, previous_rate)],
        meta={"exitstatus": 0, "tests": 1},
    )
    return append_bench_run(
        str(path),
        [record(INCAST, newest_rate)],
        meta={"exitstatus": 0, "tests": 1},
    )


class TestTwoLaneWorkflow:
    """The gate reading two runs: the previous one and the newest."""

    def test_batched_speedup_passes_the_gate(self, tmp_path):
        document = two_run_trajectory(tmp_path / "bench.json", 150_000.0, 220_000.0)
        assert (
            check_bench_regression(document, expect_improvement={INCAST: 1.25}) == []
        )

    def test_missing_speedup_fails_the_gate(self, tmp_path):
        document = two_run_trajectory(tmp_path / "bench.json", 150_000.0, 160_000.0)
        failures = check_bench_regression(document, expect_improvement={INCAST: 1.25})
        assert len(failures) == 1
        assert INCAST in failures[0] and "1.25x" in failures[0]

    def test_vanished_bench_fails_even_with_speedups_elsewhere(self, tmp_path):
        path = tmp_path / "bench.json"
        append_bench_run(str(path), [record(INCAST, 150_000.0),
                                     record("test_bench_dram", 90_000.0)])
        document = append_bench_run(str(path), [record(INCAST, 220_000.0)])
        failures = check_bench_regression(document)
        assert len(failures) == 1
        assert failures[0].startswith("test_bench_dram:")

    def test_new_bench_seeds_its_own_baseline(self, tmp_path):
        """A test new in the newest run passes a plain-ratio expectation:
        its first recorded rate becomes the baseline, so a bench can land
        in the same change as its gate."""
        path = tmp_path / "bench.json"
        append_bench_run(str(path), [record(INCAST, 150_000.0)])
        document = append_bench_run(
            str(path),
            [record(INCAST, 150_000.0), record("test_bench_hybrid", 900_000.0)],
        )
        assert (
            check_bench_regression(
                document, expect_improvement={"test_bench_hybrid": 2.0}
            )
            == []
        )

    def test_cross_test_speedup_passes_within_one_run(self, tmp_path):
        """(ratio, baseline_test) compares two tests of the *same* run."""
        path = tmp_path / "bench.json"
        append_bench_run(str(path), [record(INCAST, 150_000.0)])
        document = append_bench_run(
            str(path),
            [
                record(INCAST, 150_000.0),
                record("test_hybrid_allpacket", 300_000.0),
                record("test_hybrid", 900_000.0),
            ],
        )
        expectation = {"test_hybrid": (2.0, "test_hybrid_allpacket")}
        assert check_bench_regression(document, expect_improvement=expectation) == []

    def test_cross_test_speedup_fails_when_ratio_short(self, tmp_path):
        path = tmp_path / "bench.json"
        append_bench_run(str(path), [record(INCAST, 150_000.0)])
        document = append_bench_run(
            str(path),
            [
                record(INCAST, 150_000.0),
                record("test_hybrid_allpacket", 300_000.0),
                record("test_hybrid", 450_000.0),
            ],
        )
        failures = check_bench_regression(
            document, expect_improvement={"test_hybrid": (2.0, "test_hybrid_allpacket")}
        )
        assert len(failures) == 1
        assert "test_hybrid" in failures[0]
        assert "2x vs test_hybrid_allpacket" in failures[0]
        assert "1.50x" in failures[0]

    def test_cross_test_speedup_fails_on_missing_baseline(self, tmp_path):
        """A declared speedup cannot pass on absent baseline data."""
        path = tmp_path / "bench.json"
        append_bench_run(str(path), [record(INCAST, 150_000.0)])
        document = append_bench_run(
            str(path), [record(INCAST, 150_000.0), record("test_hybrid", 900_000.0)]
        )
        failures = check_bench_regression(
            document, expect_improvement={"test_hybrid": (2.0, "test_hybrid_allpacket")}
        )
        assert len(failures) == 1
        assert "test_hybrid_allpacket has no rate" in failures[0]

    def test_corrupt_trajectory_is_preserved_not_overwritten(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("]]garbage[[")
        with pytest.warns(RuntimeWarning):
            append_bench_run(str(path), [record(INCAST, 150_000.0)])
        assert (tmp_path / "bench.json.corrupt").read_text() == "]]garbage[["
        # The fresh trajectory is valid and usable from here on.
        document = json.loads(path.read_text())
        assert len(document["runs"]) == 1


class TestMachineMeta:
    MACHINE_KEYS = {"cpu_count", "usable_cpus", "python", "platform", "git_revision"}

    def test_session_run_records_its_machine(self, tmp_path, monkeypatch):
        path = tmp_path / "bench.json"
        monkeypatch.setattr(bench_conftest, "BENCH_ARTIFACT", path)
        monkeypatch.setattr(bench_conftest, "_RECORDS", [record(INCAST, 150_000.0)])
        bench_conftest.pytest_sessionfinish(None, 0)
        meta = json.loads(path.read_text())["runs"][-1]["meta"]
        assert self.MACHINE_KEYS <= set(meta)
        assert meta["cpu_count"] >= 1 and meta["usable_cpus"] >= 1
        assert meta["python"].count(".") == 2
        assert meta["platform"] and meta["git_revision"]

    def test_gate_skips_runs_from_other_machines(self, tmp_path):
        """A run from another machine is no baseline: the newest run's
        test goes ungated, and the report names it."""
        path = tmp_path / "bench.json"
        machine = bench_conftest.machine_meta()
        append_bench_run(
            str(path),
            [record(INCAST, 150_000.0)],
            meta={**machine, "cpu_count": 1, "usable_cpus": 1},
        )
        document = append_bench_run(
            str(path),
            [record(INCAST, 220_000.0)],
            meta={**machine, "cpu_count": 64, "git_revision": "unknown"},
        )
        assert check_bench_regression(document) == []
        assert (
            check_bench_regression(document, expect_improvement={INCAST: 1.25}) == []
        )
        report = gate_bench_run(document)
        assert report.compared == [] and report.unmatched == [INCAST]


class TestLikeForLikeBaseline:
    """A partial run must not reset the baseline (27 -> 4 -> 27 tests)."""

    FULL = [f"test_bench_{k:02d}" for k in range(27)]
    MACHINE = {"cpu_count": 2, "platform": "Linux-x86_64", "python": "3.11.7"}

    def _run(self, rates, **meta):
        return {
            "records": [
                {"test": test, "events_per_sec": rate} for test, rate in rates.items()
            ],
            "meta": {**self.MACHINE, **meta},
        }

    def _sequence(self, newest):
        full = {test: 1000.0 for test in self.FULL}
        partial = {test: 1000.0 for test in self.FULL[:4]}
        return {"runs": [self._run(full), self._run(partial), self._run(newest)]}

    def test_full_run_after_partial_compares_every_test(self):
        report = gate_bench_run(self._sequence({test: 900.0 for test in self.FULL}))
        assert report.failures == []
        assert report.compared == self.FULL and report.unmatched == []

    def test_drop_against_the_run_before_the_partial_fails(self):
        """The bench the partial run left out is held to the full run."""
        newest = {test: 1000.0 for test in self.FULL}
        newest["test_bench_20"] = 550.0
        [failure] = gate_bench_run(self._sequence(newest)).failures
        assert failure.startswith("test_bench_20: events/sec fell 45%")

    def test_partial_run_itself_fails_for_what_it_left_out(self):
        full = {test: 1000.0 for test in self.FULL}
        partial = {test: 1000.0 for test in self.FULL[:4]}
        report = gate_bench_run({"runs": [self._run(full), self._run(partial)]})
        assert len(report.failures) == 23
        assert all("missing from newest run" in line for line in report.failures)
        assert report.compared == self.FULL[:4]

    def test_other_machine_is_never_a_baseline(self):
        """A slower run elsewhere in between does not gate the newest;
        the newest like-for-like run does."""
        document = self._sequence({test: 1000.0 for test in self.FULL})
        document["runs"].insert(
            2, self._run({test: 5000.0 for test in self.FULL}, cpu_count=64)
        )
        report = gate_bench_run(document)
        assert report.failures == [] and report.compared == self.FULL

    def test_no_like_for_like_run_leaves_tests_unmatched(self):
        document = {
            "runs": [
                self._run({"t1": 5000.0}, python="3.10.0"),
                self._run({"t1": 1000.0, "new": 10.0}),
            ]
        }
        report = gate_bench_run(document)
        assert report.failures == []
        assert report.compared == [] and report.unmatched == ["new", "t1"]

    def test_cli_prints_the_compared_count_and_names_unmatched(self, tmp_path):
        path = tmp_path / "bench.json"
        newest = {test: 1000.0 for test in self.FULL}
        newest["test_bench_new"] = 10.0
        path.write_text(json.dumps(self._sequence(newest)))
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "--path", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "compared 27 of 28 rated test(s)" in proc.stdout
        assert "WARNING: 1 test(s) have no like-for-like baseline" in proc.stdout
        assert "  test_bench_new" in proc.stdout


class TestCallsPerSecGate:
    """Benches that fire no events are gated on ``calls_per_sec``."""

    TABLE1 = "test_bench_table1"

    @staticmethod
    def _document(*runs):
        return {"runs": [{"records": list(records)} for records in runs]}

    def _calls(self, rate, test=TABLE1):
        return {"test": test, "events_fired": 0, "calls": 2000, "calls_per_sec": rate}

    def test_calls_rate_drop_fails(self):
        document = self._document([self._calls(5000.0)], [self._calls(3000.0)])
        [failure] = check_bench_regression(document)
        assert failure.startswith(f"{self.TABLE1}: calls/sec fell 40%")

    def test_calls_rate_within_threshold_passes(self):
        document = self._document([self._calls(5000.0)], [self._calls(4000.0)])
        assert check_bench_regression(document) == []

    def test_vanished_calls_bench_fails(self):
        document = self._document(
            [self._calls(5000.0), record(INCAST, 150_000.0)],
            [record(INCAST, 150_000.0)],
        )
        [failure] = check_bench_regression(document)
        assert failure.startswith(f"{self.TABLE1}: present in previous run")
        assert "calls/sec" in failure

    def test_first_calls_rate_after_zero_placeholder_passes(self):
        placeholder = {"test": self.TABLE1, "events_fired": 0, "events_per_sec": 0.0}
        document = self._document([placeholder], [self._calls(5000.0)])
        assert check_bench_regression(document) == []

    def test_pedantic_calls_meters_the_calls_made(self):
        class Bench:
            def pedantic(self, target, rounds, iterations):
                for _ in range(rounds):
                    result = target()
                return result

        made = []
        assert bench_conftest.pedantic_calls(Bench(), lambda: made.append(1) or "r", 7) == "r"
        calls, wall = bench_conftest._RATE_OVERRIDE.pop("calls")
        assert calls == len(made) == 7 and wall > 0


class TestGateCLI:
    def _run(self, path, *extra):
        return subprocess.run(
            [sys.executable, str(SCRIPT), "--path", str(path), *extra],
            capture_output=True,
            text=True,
        )

    def test_cli_two_lane_gate_passes_and_fails(self, tmp_path):
        path = tmp_path / "bench.json"
        two_run_trajectory(path, 150_000.0, 220_000.0)
        ok = self._run(path, "--expect-improvement", f"{INCAST}=1.25")
        assert ok.returncode == 0, ok.stdout + ok.stderr
        strict = self._run(path, "--expect-improvement", f"{INCAST}=2.0")
        assert strict.returncode == 1
        assert "expected >= 2x" in strict.stdout

    def test_cli_rejects_malformed_expectation(self, tmp_path):
        path = tmp_path / "bench.json"
        two_run_trajectory(path, 150_000.0, 220_000.0)
        bad = self._run(path, "--expect-improvement", "no-ratio")
        assert bad.returncode == 2
        assert "TEST=RATIO" in bad.stderr

    def test_cli_cross_test_expectation(self, tmp_path):
        """TEST=RATIO:BASELINE_TEST gates two tests of the same run."""
        path = tmp_path / "bench.json"
        append_bench_run(str(path), [record(INCAST, 150_000.0)])
        append_bench_run(
            str(path),
            [
                record(INCAST, 150_000.0),
                record("test_hybrid_allpacket", 300_000.0),
                record("test_hybrid", 900_000.0),
            ],
        )
        ok = self._run(
            path, "--expect-improvement", "test_hybrid=2.0:test_hybrid_allpacket"
        )
        assert ok.returncode == 0, ok.stdout + ok.stderr
        strict = self._run(
            path, "--expect-improvement", "test_hybrid=5.0:test_hybrid_allpacket"
        )
        assert strict.returncode == 1
        assert "5x vs test_hybrid_allpacket" in strict.stdout

    def test_cli_rejects_malformed_cross_test_expectation(self, tmp_path):
        path = tmp_path / "bench.json"
        two_run_trajectory(path, 150_000.0, 220_000.0)
        bad = self._run(path, "--expect-improvement", "test=fast:other")
        assert bad.returncode == 2
        assert "TEST=RATIO[:BASELINE_TEST]" in bad.stderr

    def test_cli_reports_vanished_test(self, tmp_path):
        path = tmp_path / "bench.json"
        append_bench_run(str(path), [record("old_bench", 100_000.0)])
        append_bench_run(str(path), [record(INCAST, 100_000.0)])
        gone = self._run(path)
        assert gone.returncode == 1
        assert "old_bench" in gone.stdout
        assert "missing from newest run" in gone.stdout


class TestBenchEmitter:
    def test_append_creates_and_accumulates(self, tmp_path):
        path = tmp_path / "BENCH_runner.json"
        records = [
            {
                "test": "t1",
                "wall_seconds": 0.5,
                "events_fired": 100,
                "events_per_sec": 200.0,
            }
        ]
        first = trajectory.append_bench_run(str(path), records)
        assert first["schema_version"] == 1
        assert len(first["runs"]) == 1
        second = trajectory.append_bench_run(str(path), records, meta={"tests": 1})
        assert len(second["runs"]) == 2
        assert second["runs"][1]["meta"] == {"tests": 1}

    def test_corrupt_file_is_backed_up_not_silently_discarded(self, tmp_path):
        path = tmp_path / "BENCH_runner.json"
        path.write_text("{not json")
        with pytest.warns(RuntimeWarning, match="unreadable"):
            document = trajectory.append_bench_run(str(path), [])
        assert len(document["runs"]) == 1
        backup = tmp_path / "BENCH_runner.json.corrupt"
        assert backup.read_text() == "{not json"

    def test_wrong_shape_file_is_backed_up(self, tmp_path):
        path = tmp_path / "BENCH_runner.json"
        path.write_text('{"valid json": "but not a trajectory"}')
        with pytest.warns(RuntimeWarning, match="not a bench-trajectory"):
            document = trajectory.append_bench_run(str(path), [])
        assert len(document["runs"]) == 1
        assert (tmp_path / "BENCH_runner.json.corrupt").exists()

    def test_timestamps_are_utc_iso8601(self, tmp_path):
        from datetime import datetime, timezone

        path = tmp_path / "BENCH_runner.json"
        document = trajectory.append_bench_run(str(path), [])
        stamp = document["runs"][0]["timestamp"]
        parsed = datetime.fromisoformat(stamp)
        assert parsed.utcoffset() is not None
        assert parsed.utcoffset().total_seconds() == 0
        assert abs((datetime.now(timezone.utc) - parsed).total_seconds()) < 60

    def test_old_local_time_entries_remain_accepted(self, tmp_path):
        # Trajectories written before the UTC switch carry strftime
        # local-time stamps; appending must keep them untouched.
        path = tmp_path / "BENCH_runner.json"
        old = {
            "schema": "netdimm-repro/bench-trajectory",
            "schema_version": 1,
            "runs": [{"timestamp": "2026-01-05T10:00:00+0100", "records": []}],
        }
        path.write_text(json.dumps(old))
        document = trajectory.append_bench_run(str(path), [])
        assert len(document["runs"]) == 2
        assert document["runs"][0]["timestamp"] == "2026-01-05T10:00:00+0100"


class TestBenchRegressionCheck:
    @staticmethod
    def _trajectory(*rates_per_run):
        return {
            "runs": [
                {
                    "records": [
                        {"test": test, "events_per_sec": rate}
                        for test, rate in rates.items()
                    ]
                }
                for rates in rates_per_run
            ]
        }

    def test_single_run_has_nothing_to_compare(self):
        document = self._trajectory({"t1": 1000.0})
        assert trajectory.check_bench_regression(document) == []

    def test_within_threshold_passes(self):
        document = self._trajectory({"t1": 1000.0}, {"t1": 800.0})
        assert trajectory.check_bench_regression(document) == []

    def test_drop_past_threshold_fails(self):
        document = self._trajectory({"t1": 1000.0, "t2": 500.0}, {"t1": 700.0, "t2": 500.0})
        failures = trajectory.check_bench_regression(document)
        assert len(failures) == 1
        assert failures[0].startswith("t1:")
        assert "30%" in failures[0]

    def test_only_last_two_runs_are_compared(self):
        """The newest earlier run that has the test is its baseline."""
        document = self._trajectory({"t1": 9999.0}, {"t1": 1000.0}, {"t1": 900.0})
        assert trajectory.check_bench_regression(document) == []

    def test_new_tests_are_not_failures(self):
        document = self._trajectory({"t1": 1000.0}, {"t1": 1000.0, "new": 10.0})
        assert trajectory.check_bench_regression(document) == []

    def test_vanished_tests_are_failures(self):
        document = self._trajectory({"old": 1000.0, "t1": 500.0}, {"t1": 500.0})
        failures = trajectory.check_bench_regression(document)
        assert len(failures) == 1
        assert failures[0].startswith("old:")
        assert "missing from newest run" in failures[0]

    def test_expected_improvement_met_passes(self):
        document = self._trajectory({"t1": 1000.0}, {"t1": 1300.0})
        assert (
            trajectory.check_bench_regression(
                document, expect_improvement={"t1": 1.25}
            )
            == []
        )

    def test_expected_improvement_missed_fails(self):
        document = self._trajectory({"t1": 1000.0}, {"t1": 1100.0})
        failures = trajectory.check_bench_regression(
            document, expect_improvement={"t1": 1.25}
        )
        assert len(failures) == 1
        assert "expected >= 1.25x improvement, got 1.10x" in failures[0]

    def test_expected_improvement_on_absent_test_fails(self):
        document = self._trajectory({"t1": 1000.0}, {"t1": 1000.0})
        failures = trajectory.check_bench_regression(
            document, expect_improvement={"ghost": 1.5}
        )
        assert len(failures) == 1
        assert failures[0].startswith("ghost:")

    def test_threshold_is_configurable(self):
        document = self._trajectory({"t1": 1000.0}, {"t1": 940.0})
        assert trajectory.check_bench_regression(document, threshold=0.05) != []

    def test_cli_script_exit_codes(self, tmp_path):
        import subprocess
        import sys as _sys
        from pathlib import Path

        script = Path(__file__).resolve().parent.parent / "scripts" / "check_bench_regression.py"
        path = tmp_path / "BENCH_runner.json"
        path.write_text(json.dumps(self._trajectory({"t1": 1000.0}, {"t1": 990.0})))
        ok = subprocess.run(
            [_sys.executable, str(script), "--path", str(path)],
            capture_output=True,
            text=True,
        )
        assert ok.returncode == 0, ok.stdout + ok.stderr
        assert "no bench regression" in ok.stdout
        path.write_text(json.dumps(self._trajectory({"t1": 1000.0}, {"t1": 100.0})))
        bad = subprocess.run(
            [_sys.executable, str(script), "--path", str(path)],
            capture_output=True,
            text=True,
        )
        assert bad.returncode == 1
        assert "t1:" in bad.stdout

    def test_cli_expect_improvement_flag(self, tmp_path):
        import subprocess
        import sys as _sys
        from pathlib import Path

        script = Path(__file__).resolve().parent.parent / "scripts" / "check_bench_regression.py"
        path = tmp_path / "BENCH_runner.json"
        path.write_text(json.dumps(self._trajectory({"t1": 1000.0}, {"t1": 1100.0})))
        bad = subprocess.run(
            [_sys.executable, str(script), "--path", str(path),
             "--expect-improvement", "t1=1.25"],
            capture_output=True,
            text=True,
        )
        assert bad.returncode == 1
        assert "expected >= 1.25x" in bad.stdout
        ok = subprocess.run(
            [_sys.executable, str(script), "--path", str(path),
             "--expect-improvement", "t1=1.05"],
            capture_output=True,
            text=True,
        )
        assert ok.returncode == 0, ok.stdout + ok.stderr
