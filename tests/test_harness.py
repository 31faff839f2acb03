"""The parallel experiment harness: artifacts, determinism, diffing."""

import json

import pytest

from repro import api
from repro.__main__ import main
from repro.analysis.targets import check_artifact, format_artifact_checks
from repro.experiments import fig12a, harness
from repro.experiments.oneway import measure_one_way
from repro.experiments.runner import EXPERIMENTS, normalize_names
from repro.params import DEFAULT
from repro.runtime import (
    RunState,
    ShardFailure,
    ShardResult,
    SweepConfig,
    Task,
)
from repro.runtime.tasks import execute
from repro.scenario.builder import dump_artifact

FAST_NAMES = ["table1", "fig7", "fig4", "transactions", "feasibility"]


class TestNormalizeNames:
    def test_default_is_every_experiment(self):
        assert normalize_names(None) == list(EXPERIMENTS)

    def test_unknown_name_raises_value_error(self):
        """Library code raises ValueError, never SystemExit (bugfix)."""
        with pytest.raises(ValueError, match="fig99"):
            normalize_names(["fig99"])

    def test_duplicates_collapse_preserving_order(self):
        assert normalize_names(["fig7", "table1", "fig7"]) == ["fig7", "table1"]


class TestHarnessRun:
    """The experiment job end to end: report, artifact, determinism."""

    @pytest.fixture(scope="class")
    def serial(self):
        return harness.submit_experiments(FAST_NAMES).run()

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            harness.submit_experiments(
                ["table1"], config=SweepConfig(backend="pool", jobs=0)
            ).run()

    def test_report_matches_serial_runner(self, serial):
        """The sharded, merged reports read exactly as the experiments'
        own serial ``run()`` + ``format_report`` would print them."""
        sections = []
        for name in FAST_NAMES:
            module = EXPERIMENTS[name]
            sections.append(f"{'=' * 72}\n{module.format_report(module.run())}\n")
        assert harness.format_job_report(serial) == "\n".join(sections)

    def test_metadata_present(self, serial):
        shards = serial.manifest()["shards"]
        for name in FAST_NAMES:
            mine = [shard for shard in shards if shard["task_id"] == name]
            assert len(mine) == 1
            assert mine[0]["wall_seconds"] >= 0
            assert mine[0]["events_fired"] >= 0

    def test_artifact_schema(self, serial):
        artifact = serial.result()
        assert artifact["schema"] == harness.SCHEMA
        assert artifact["schema_version"] == harness.SCHEMA_VERSION
        assert artifact["run"] == {"experiments": FAST_NAMES, "base_seed": 0}
        assert "timing" not in artifact
        for name in FAST_NAMES:
            entry = artifact["experiments"][name]
            assert isinstance(entry["result"], dict)
            assert isinstance(entry["metrics"], dict)
            assert len(entry["report_sha256"]) == 64

    def test_artifact_is_json_serializable(self, serial):
        text = json.dumps(serial.result())
        assert json.loads(text)["schema_version"] == 1

    def test_parallel_matches_serial_byte_for_byte(self, serial):
        """The determinism contract: --jobs 4 == --jobs 1, byte for byte."""
        parallel = harness.submit_experiments(
            FAST_NAMES, config=SweepConfig(backend="pool", jobs=4)
        )
        assert dump_artifact(serial.result()) == dump_artifact(parallel.result())

    def test_write_and_load_roundtrip(self, serial, tmp_path):
        path = tmp_path / "artifact.json"
        written = serial.artifact(str(path))
        loaded = harness.load_artifact(str(path))
        assert loaded == written

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(ValueError, match="artifact"):
            harness.load_artifact(str(path))

    def test_load_rejects_future_schema_version(self, serial, tmp_path):
        artifact = serial.result()
        artifact["schema_version"] = 999
        path = tmp_path / "future.json"
        path.write_text(json.dumps(artifact))
        with pytest.raises(ValueError, match="schema_version"):
            harness.load_artifact(str(path))


class TestShardedMergeEquality:
    SHARDS = {"fig5": 8}

    def test_shard_plan_is_pinned(self):
        """Task ids and args are run-directory keys: a plan that moves
        breaks resuming an older run directory."""
        tasks = harness.plan_tasks(list(EXPERIMENTS))
        assert len(tasks) == 22
        assert [task.index for task in tasks] == list(range(22))
        for name in EXPERIMENTS:
            mine = [task for task in tasks if task.args["name"] == name]
            if name in self.SHARDS:
                shards = range(self.SHARDS[name])
                assert [t.task_id for t in mine] == [f"{name}[{i}]" for i in shards]
                assert [t.args for t in mine] == [
                    {"name": name, "shard": i} for i in shards
                ]
            else:
                assert [t.task_id for t in mine] == [name]
                assert [t.args for t in mine] == [{"name": name, "shard": None}]

    def test_shard_work_is_a_function_of_the_shard(self):
        """A task's ``events_fired`` must not depend on what its process
        ran before: nothing is cached across tasks."""
        for task in harness.plan_tasks(["fig11", "fig12a", "loaded_latency"]):
            first, second = execute(task), execute(task)
            assert first.events_fired == second.events_fired, task.task_id

    def test_fig12a_measures_each_host_point_once_per_run(self, monkeypatch):
        calls = []
        measure = fig12a.measure_one_way

        def counting(nic_kind, size_bytes, params):
            calls.append((nic_kind, size_bytes))
            return measure(nic_kind, size_bytes, params)

        monkeypatch.setattr(fig12a, "measure_one_way", counting)
        for _ in range(2):
            calls.clear()
            fig12a.run()
            # 3 configs x 24 size buckets, each measured once per run.
            assert len(calls) == 72
            assert len(set(calls)) == 72


class TestForeignPlan:
    """A run directory planned by a build that sharded an experiment
    differently is refused with a clean error, never assembled."""

    OLD_TASK = Task(
        kind="experiment",
        task_id="fig11[3]",
        args={"name": "fig11", "shard": 3},
        index=0,
    )

    def old_plan_dir(self, tmp_path, done=False):
        run_dir = str(tmp_path / "run")
        state = RunState.create(
            run_dir,
            {"kind": "experiment", "names": ["fig11"], "base_seed": 0},
            [self.OLD_TASK],
        )
        if done:
            state.claim_next()
            state.record(self.old_result())
        return run_dir

    def old_result(self):
        return ShardResult(
            task_id=self.OLD_TASK.task_id,
            index=0,
            seed=self.OLD_TASK.seed,
            payload=measure_one_way("dnic", 60, DEFAULT),
            wall_seconds=0.0,
            events_fired=0,
            worker="old-build",
        )

    @pytest.mark.parametrize("done", [False, True], ids=["queued", "done"])
    def test_resume_refuses_an_old_plan_before_running(self, tmp_path, done):
        run_dir = self.old_plan_dir(tmp_path, done)
        before = RunState.load(run_dir).counts()
        with pytest.raises(ValueError, match=r"experiment 'fig11'.*fig11\[3\]"):
            api.resume(run_dir, retry_failed=True)
        assert RunState.load(run_dir).counts() == before

    def test_cli_resume_prints_one_error_line_and_no_artifact(
        self, tmp_path, capsys
    ):
        run_dir = self.old_plan_dir(tmp_path, done=True)
        artifact = tmp_path / "new.json"
        assert main(["resume", run_dir, "--json", str(artifact)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: experiment 'fig11'")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err + captured.out
        assert not artifact.exists()

    def test_results_that_do_not_fit_the_plan_are_never_assembled(self):
        with pytest.raises(ValueError, match="experiment 'fig11'"):
            harness.assemble(
                {"names": ["fig11"]}, [self.old_result()]
            )
        fig5 = harness.plan_tasks(["fig5"])
        partial = [
            ShardResult(
                task_id=task.task_id,
                index=task.index,
                seed=task.seed,
                payload=1.0,
                wall_seconds=0.0,
                events_fired=0,
                worker="w",
            )
            for task in fig5[:-1]
        ]
        with pytest.raises(ValueError, match="experiment 'fig5'.*7 task"):
            harness.assemble({"names": ["fig5"]}, partial)


class TestPartialExperiments:
    """``allow_partial``: an experiment with a failed shard is left out
    of the artifact, never partly merged, and its failure is named."""

    @pytest.fixture
    def broken_fig7(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("fig7 stubbed to fail")

        monkeypatch.setattr(EXPERIMENTS["fig7"], "run", boom)

    def test_api_partial_result_omits_the_failed_experiment(self, broken_fig7):
        job = harness.submit_experiments(["table1", "fig7"]).run()
        with pytest.raises(api.JobError, match="fig7"):
            job.result()
        partial = job.result(allow_partial=True)
        assert list(partial["experiments"]) == ["table1"]
        assert [f["task_id"] for f in partial["failures"]] == ["fig7"]
        whole = harness.submit_experiments(["table1"]).result()
        assert partial["experiments"] == whole["experiments"]

    def test_cli_allow_partial_writes_the_artifact(
        self, broken_fig7, tmp_path, capsys
    ):
        path = tmp_path / "partial.json"
        argv = ["sweep", "table1", "fig7", "--allow-partial"]
        assert main(argv + ["--json", str(path)]) == 1
        document = json.loads(path.read_text())
        assert list(document["experiments"]) == ["table1"]
        assert document["failures"][0]["task_id"] == "fig7"
        assert "1 failed" in capsys.readouterr().out

    def test_a_sharded_experiment_is_never_partly_merged(self):
        fig5 = harness.plan_tasks(["fig5"])
        outcomes = [
            ShardResult(
                task_id=task.task_id,
                index=task.index,
                seed=task.seed,
                payload=1.0,
                wall_seconds=0.0,
                events_fired=0,
                worker="w",
            )
            for task in fig5[:-1]
        ]
        outcomes.append(
            ShardFailure(
                task_id=fig5[-1].task_id,
                index=fig5[-1].index,
                seed=fig5[-1].seed,
                exception_type="RuntimeError",
                message="boom",
                traceback="",
                wall_seconds=0.0,
                worker="w",
            )
        )
        assert harness.assemble({"names": ["fig5"]}, outcomes)[
            "experiments"
        ] == {}


class TestDiff:
    @pytest.fixture(scope="class")
    def artifact(self):
        return harness.submit_experiments(["table1", "fig7"]).result()

    def test_self_diff_reports_no_regressions(self, artifact):
        diff = harness.diff_artifacts(artifact, artifact)
        assert not diff.has_regressions
        assert "no regressions" in diff.format()

    def test_missing_experiment_is_a_regression(self, artifact):
        current = json.loads(json.dumps(artifact))
        del current["experiments"]["fig7"]
        diff = harness.diff_artifacts(current, artifact)
        assert diff.has_regressions
        assert any("fig7" in line for line in diff.regressions)

    def test_band_exit_is_a_regression(self, artifact):
        current = json.loads(json.dumps(artifact))
        current["experiments"]["fig7"]["metrics"]["fig7.lines_per_burst"] = 7.0
        diff = harness.diff_artifacts(current, artifact)
        assert diff.has_regressions
        assert "fig7.lines_per_burst" in diff.format()

    def test_within_band_drift_is_a_note_not_regression(self, artifact):
        current = json.loads(json.dumps(artifact))
        current["experiments"]["fig7"]["metrics"]["fig7.third_burst_ns"] += 1.0
        diff = harness.diff_artifacts(current, artifact)
        assert not diff.has_regressions
        assert any("drifted" in note for note in diff.notes)


class TestArtifactTargetChecks:
    def test_checks_rerun_from_loaded_json(self, tmp_path):
        path = tmp_path / "fig7.json"
        harness.submit_experiments(["fig7"]).artifact(str(path))
        checks = check_artifact(harness.load_artifact(str(path)))
        names = {check.target.name for check in checks}
        assert "fig7.lines_per_burst" in names
        assert "fig7.third_burst_ns" in names
        assert all(check.ok for check in checks)
        table = format_artifact_checks(checks)
        assert "ok" in table and "FAIL" not in table


class TestCLI:
    def test_jobs_json_baseline_flow(self, tmp_path, capsys):
        artifact_path = tmp_path / "run.json"
        assert (
            main(
                [
                    "experiments",
                    "table1",
                    "fig7",
                    "--jobs",
                    "2",
                    "--json",
                    str(artifact_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Table 1" in out and "Fig. 7" in out
        assert artifact_path.exists()
        # Self-baseline: rerunning against the artifact we just wrote
        # must report no regressions and exit 0.
        assert (
            main(
                [
                    "experiments",
                    "table1",
                    "fig7",
                    "--baseline",
                    str(artifact_path),
                ]
            )
            == 0
        )
        assert "no regressions" in capsys.readouterr().out

    def test_unknown_experiment_clean_exit(self, capsys):
        assert main(["experiments", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_jobs_zero_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["experiments", "table1", "--jobs", "0"])
