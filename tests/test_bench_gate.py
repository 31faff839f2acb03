"""End-to-end bench gate: trajectory file in, pass/fail verdict out.

``tests/test_harness.py`` unit-tests :func:`append_bench_run` and
:func:`check_bench_regression` (``benchmarks/trajectory.py``) in
isolation; this file pins the whole
workflow those pieces compose into — bench runs appended to a
trajectory file, then the hardened gate comparing the newest run with
its predecessor, including the required-speedup checks.
"""

import json
import pathlib
import subprocess
import sys

import pytest

from benchmarks import conftest as bench_conftest
from benchmarks.trajectory import append_bench_run, check_bench_regression

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

    def test_gate_ignores_machine_meta(self, tmp_path):
        """Runs from different machines gate on their rates alone."""
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
