"""The sweep runtime: seeds, the broker, backends, jobs, resume.

The contract under test is the distributed-determinism one: the same
job assembles the byte-identical artifact whether its shards ran
inline, across a process pool, across detached worker processes — or
across a worker that was SIGKILLed mid-sweep and a resume that picked
up the pieces.
"""

import json
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro import api
from repro.analysis.targets import check_artifact
from repro.experiments import harness
from repro.runtime import (
    KIND_OWNERS,
    Job,
    JobError,
    RunState,
    ShardFailure,
    ShardResult,
    SweepConfig,
    Task,
    derive,
    execute,
)
from repro.runtime.provenance import MANIFEST_SCHEMA, build_manifest
from repro.runtime.state import JOB_SCHEMA
from repro.runtime.tasks import decode_payload, encode_payload
from repro.runtime.worker import work
from repro.telemetry import runtime_trace
from tests.conftest import worker_env

FAST_NAMES = ["table1", "fig7", "fig4", "transactions", "feasibility"]


# A tiny task kind this module owns: echoes its shard number, or
# explodes.  In-process execution only; a worker process never sees it.
def run_task(args):
    if args.get("explode"):
        raise RuntimeError(f"shard {args['i']} exploded")
    return {"i": args["i"]}


def assemble(meta, outcomes):
    return {"values": [o.payload["i"] for o in outcomes if o.ok]}


KIND_OWNERS["test-flaky"] = __name__


def _flaky_tasks(count, explode=()):
    return [
        Task(
            kind="test-flaky",
            task_id=f"flaky[{i}]",
            args={"i": i, "explode": i in explode},
            index=i,
        )
        for i in range(count)
    ]


class TestSeedDerivation:
    def test_pinned_values(self):
        """The derivation is part of the artifact contract — exact pins."""
        assert derive("traffic[1]", 11) == 10403763645266271574
        assert derive("traffic[0]", 0) == 9252859110474360423
        assert derive("fig5[3]", 0) == 4017237585538929655

    def test_distinct_across_param_ids_and_base_seeds(self):
        seeds = {
            derive(f"traffic[{i}]", base)
            for i in range(16)
            for base in (0, 1, 2019)
        }
        assert len(seeds) == 48

    def test_rejects_non_string_param_id(self):
        with pytest.raises(TypeError, match="param_id"):
            derive(7, 0)

    def test_rejects_non_int_base_seed(self):
        with pytest.raises(TypeError, match="base_seed"):
            derive("x", "0")
        with pytest.raises(TypeError, match="base_seed"):
            derive("x", True)

    def test_task_seed_property_uses_derive(self):
        task = Task(kind="test-flaky", task_id="flaky[2]", base_seed=11)
        assert task.seed == derive("flaky[2]", 11)


class TestPayloadCodec:
    def test_json_values_pass_through(self):
        payload = {"a": 1, "b": [1.5, "x"], "c": None}
        assert encode_payload(payload) == payload
        assert decode_payload(payload) == payload

    def test_tuples_survive_via_pickle(self):
        payload = {"pair": (1, 2)}
        encoded = encode_payload(payload)
        assert "__pickle_b64__" in encoded
        assert decode_payload(encoded) == payload
        assert isinstance(decode_payload(encoded)["pair"], tuple)

    def test_tag_collision_is_unambiguous(self):
        payload = {"__pickle_b64__": "not actually a pickle"}
        assert decode_payload(encode_payload(payload)) == payload


class TestExecuteFence:
    def test_success_is_a_metered_shard_result(self):
        outcome = execute(_flaky_tasks(1)[0])
        assert isinstance(outcome, ShardResult)
        assert outcome.ok
        assert outcome.payload == {"i": 0}
        assert outcome.seed == derive("flaky[0]", 0)
        assert outcome.wall_seconds >= 0
        assert ":" in outcome.worker  # host:pid
        assert outcome.started_at > 0

    def test_failure_is_structured_diagnostics_never_a_placeholder(self):
        outcome = execute(_flaky_tasks(2, explode={1})[1])
        assert isinstance(outcome, ShardFailure)
        assert not outcome.ok
        assert outcome.exception_type == "RuntimeError"
        assert "shard 1 exploded" in outcome.message
        assert "RuntimeError" in outcome.traceback
        assert outcome.seed == derive("flaky[1]", 0)
        assert "flaky[1]" in outcome.summary()

    def test_outcomes_roundtrip_through_checkpoint_documents(self):
        from repro.runtime.tasks import outcome_from_dict

        done = execute(_flaky_tasks(1)[0])
        failed = execute(_flaky_tasks(2, explode={1})[1])
        for outcome in (done, failed):
            rebuilt = outcome_from_dict(
                json.loads(json.dumps(outcome.to_dict()))
            )
            assert type(rebuilt) is type(outcome)
            assert rebuilt.task_id == outcome.task_id
            assert rebuilt.seed == outcome.seed


class TestSweepConfig:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            SweepConfig(backend="cloud")

    def test_nonpositive_widths_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            SweepConfig(jobs=0)

    def test_one_width_and_two_backends(self):
        """``local`` folded into ``pool``; ``workers`` into ``jobs``."""
        assert sorted(api.BACKENDS) == ["pool", "workers"]
        assert SweepConfig() == SweepConfig(backend="pool", jobs=1)
        with pytest.raises(ValueError, match="backend"):
            SweepConfig(backend="local")
        with pytest.raises(TypeError):
            SweepConfig(workers=2)

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            SweepConfig("pool")


class TestRunStateBroker:
    def test_claim_is_exclusive_and_recorded(self, tmp_path):
        tasks = _flaky_tasks(3)
        state = RunState.create(str(tmp_path / "run"), {"kind": "test-flaky"}, tasks)
        claimed = state.claim_next()
        assert claimed.index == 0
        assert state.counts()["claimed"] == 1
        # The claim file names its owner — provenance for the manifest.
        claim_doc = json.loads(
            (tmp_path / "run" / "claims" / "00000.json").read_text()
        )
        assert ":" in claim_doc["claimed_by"]
        state.record(execute(claimed))
        counts = state.counts()
        assert counts == {
            "total": 3, "done": 1, "failed": 0,
            "claimed": 0, "queued": 2, "pending": 2,
        }
        assert not state.is_complete()

    def test_create_refuses_an_existing_job(self, tmp_path):
        run_dir = str(tmp_path / "run")
        RunState.create(run_dir, {"kind": "test-flaky"}, _flaky_tasks(1))
        with pytest.raises(ValueError, match="already holds"):
            RunState.create(run_dir, {"kind": "test-flaky"}, _flaky_tasks(1))

    def test_load_rejects_foreign_and_future_jobs(self, tmp_path):
        with pytest.raises(ValueError, match="no sweep job"):
            RunState.load(str(tmp_path))
        (tmp_path / "job.json").write_text('{"schema": "other"}')
        with pytest.raises(ValueError, match=JOB_SCHEMA):
            RunState.load(str(tmp_path))
        (tmp_path / "job.json").write_text(
            json.dumps({"schema": JOB_SCHEMA, "schema_version": 999})
        )
        with pytest.raises(ValueError, match="schema_version"):
            RunState.load(str(tmp_path))

    def test_stale_claims_are_recovered_on_resume(self, tmp_path):
        state = RunState.create(
            str(tmp_path / "run"), {"kind": "test-flaky"}, _flaky_tasks(2)
        )
        state.claim_next()  # ... and the claiming worker "dies" here
        assert state.counts()["claimed"] == 1
        assert state.recover_stale_claims() == [0]
        assert state.counts()["claimed"] == 0
        assert state.counts()["queued"] == 2

    def test_retry_failed_reenqueues(self, tmp_path):
        state = RunState.create(
            str(tmp_path / "run"), {"kind": "test-flaky"},
            _flaky_tasks(2, explode={1}),
        )
        for task in state.tasks():
            state.record(execute(task))
        assert state.counts()["failed"] == 1
        assert state.retry_failed() == [1]
        assert state.counts()["failed"] == 0
        assert [task.index for task in state.pending()] == [1]


class TestJobSurface:
    def test_status_words(self):
        job = Job(kind="test-flaky", meta={}, tasks=_flaky_tasks(2))
        assert job.status()["state"] == "pending"
        job.run()
        status = job.status()
        assert status["state"] == "done"
        assert status["done"] == 2 and status["failed"] == 0

    def test_result_refuses_failures_by_default(self):
        job = Job(
            kind="test-flaky", meta={}, tasks=_flaky_tasks(3, explode={1})
        ).run()
        assert job.status()["state"] == "failed"
        with pytest.raises(JobError, match=r"flaky\[1\]"):
            job.result()
        partial = job.result(allow_partial=True)
        assert partial["values"] == [0, 2]
        assert partial["failures"][0]["exception_type"] == "RuntimeError"

    def test_pending_shards_always_refuse(self):
        job = Job(kind="test-flaky", meta={}, tasks=_flaky_tasks(2))
        job._outcomes = []  # simulate "nothing recorded yet"
        with pytest.raises(JobError, match="pending"):
            job.result(allow_partial=True)

    def test_collect_runs_and_orders(self):
        jobs = [
            Job(kind="test-flaky", meta={}, tasks=_flaky_tasks(2)),
            Job(kind="test-flaky", meta={}, tasks=_flaky_tasks(3)),
        ]
        documents = api.collect(jobs)
        assert [d["values"] for d in documents] == [[0, 1], [0, 1, 2]]

    def test_workers_backend_requires_run_dir(self):
        job = Job(
            kind="test-flaky",
            meta={},
            tasks=_flaky_tasks(1),
            config=SweepConfig(backend="workers"),
        )
        with pytest.raises(ValueError, match="run_dir"):
            job.run()


class TestProvenanceManifest:
    def test_manifest_records_code_run_and_shards(self):
        job = Job(
            kind="test-flaky", meta={"names": ["flaky"]},
            tasks=_flaky_tasks(2, explode={1}),
        ).run()
        manifest = job.manifest()
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert len(manifest["job"]["spec_sha256"]) == 64
        assert manifest["code"]["repro_version"] == repro.__version__
        assert manifest["run"]["backend"] == "pool"
        assert manifest["run"]["status"] == "partial"
        assert manifest["run"]["shards_done"] == 1
        assert manifest["run"]["shards_failed"] == 1
        by_status = {shard["status"]: shard for shard in manifest["shards"]}
        assert by_status["done"]["events_fired"] >= 0
        assert by_status["failed"]["exception_type"] == "RuntimeError"
        assert by_status["done"]["worker"] == by_status["failed"]["worker"]

    def test_spec_hash_is_stable_and_task_sensitive(self):
        from repro.runtime.provenance import spec_sha256

        tasks = _flaky_tasks(2)
        assert spec_sha256(tasks) == spec_sha256(_flaky_tasks(2))
        assert spec_sha256(tasks) != spec_sha256(_flaky_tasks(3))

    def test_runtime_trace_lays_shards_on_worker_tracks(self):
        job = Job(
            kind="test-flaky", meta={}, tasks=_flaky_tasks(2, explode={1})
        ).run()
        document = runtime_trace(job.manifest())
        events = document["traceEvents"]
        names = [e["args"]["name"] for e in events if e["ph"] == "M"]
        assert names and all(":" in name for name in names)
        spans = [e for e in events if e["ph"] == "X"]
        assert {span["cat"] for span in spans} == {
            "shard.done", "shard.failed",
        }
        assert min(span["ts"] for span in spans) == 0.0


class TestPartialArtifactRefusal:
    @pytest.fixture(scope="class")
    def fig7_artifact(self):
        return api.submit(["fig7"]).result()

    @staticmethod
    def _partial(artifact):
        partial = json.loads(json.dumps(artifact))
        partial["failures"] = [
            execute(_flaky_tasks(2, explode={1})[1]).to_dict()
        ]
        return partial

    def test_check_artifact_refuses_partial(self, fig7_artifact):
        partial = self._partial(fig7_artifact)
        with pytest.raises(ValueError, match="RuntimeError"):
            check_artifact(partial)
        checks = check_artifact(partial, allow_partial=True)
        assert any(check.ok for check in checks)

    def test_diff_artifacts_refuses_partial_on_either_side(
        self, fig7_artifact
    ):
        partial = self._partial(fig7_artifact)
        with pytest.raises(ValueError, match="partial"):
            api.diff_artifacts(partial, fig7_artifact)
        with pytest.raises(ValueError, match="baseline"):
            api.diff_artifacts(fig7_artifact, partial)
        diff = api.diff_artifacts(
            partial, fig7_artifact, allow_partial=True
        )
        assert not diff.has_regressions

    def test_reject_partial_returns_failures_when_allowed(
        self, fig7_artifact
    ):
        partial = self._partial(fig7_artifact)
        failures = harness.reject_partial_artifact(
            partial, allow_partial=True
        )
        assert failures[0]["task_id"] == "flaky[1]"
        assert harness.reject_partial_artifact(fig7_artifact) == []


class TestBackendParity:
    """Serial == pool == distributed workers, byte for byte."""

    NAMES = ["table1", "fig7"]

    @pytest.mark.slow
    def test_artifacts_byte_identical_across_all_backends(self, tmp_path):
        rendered = {}
        for label, backend, kwargs in [
            ("inline", "pool", {}),
            ("pool", "pool", {"jobs": 2}),
            (
                "workers",
                "workers",
                {"jobs": 2, "run_dir": str(tmp_path / "broker")},
            ),
        ]:
            job = api.submit(self.NAMES, backend=backend, **kwargs)
            path = tmp_path / f"{label}.json"
            job.artifact(str(path))
            rendered[label] = path.read_bytes()
        assert rendered["inline"] == rendered["pool"] == rendered["workers"]
        # The broker run also left a provenance manifest behind.
        manifest = json.loads(
            (tmp_path / "broker" / "manifest.json").read_text()
        )
        assert manifest["run"]["status"] == "complete"
        assert manifest["run"]["backend"] == "workers"


class TestKillAndResume:
    @pytest.mark.slow
    def test_sigkilled_worker_then_resume_is_byte_identical(self, tmp_path):
        """SIGKILL a live worker mid-sweep; resume; compare artifacts.

        Whatever the worker managed before dying — nothing, a held
        claim, a few checkpoints — resume must complete the sweep and
        assemble exactly the artifact an uninterrupted run produces.
        """
        reference_path = tmp_path / "reference.json"
        api.submit(FAST_NAMES).artifact(str(reference_path))

        run_dir = str(tmp_path / "run")
        RunState.create(
            run_dir,
            {"kind": "experiment", "names": FAST_NAMES, "base_seed": 0},
            harness.plan_tasks(FAST_NAMES),
        )
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep-worker", run_dir],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=worker_env(),
        )
        time.sleep(1.0)  # let it claim/execute *some* of the queue
        worker.send_signal(signal.SIGKILL)
        worker.wait()

        resumed = api.resume(run_dir)
        resumed_path = tmp_path / "resumed.json"
        resumed.artifact(str(resumed_path))
        assert resumed_path.read_bytes() == reference_path.read_bytes()
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["run"]["status"] == "complete"

    def test_resume_recovers_a_held_claim_deterministically(self, tmp_path):
        """The worst-case kill point — claimed, not checkpointed."""
        names = ["table1", "fig7"]
        reference_path = tmp_path / "reference.json"
        api.submit(names).artifact(str(reference_path))

        run_dir = str(tmp_path / "run")
        state = RunState.create(
            run_dir,
            {"kind": "experiment", "names": names, "base_seed": 0},
            harness.plan_tasks(names),
        )
        assert state.claim_next() is not None  # the "killed" worker's claim
        resumed_path = tmp_path / "resumed.json"
        api.resume(run_dir).artifact(str(resumed_path))
        assert resumed_path.read_bytes() == reference_path.read_bytes()

    def test_partial_worker_progress_survives_restart(self, tmp_path):
        """max_tasks leaves work behind; a second worker finishes it."""
        run_dir = str(tmp_path / "run")
        RunState.create(
            run_dir, {"kind": "test-flaky"}, _flaky_tasks(3)
        )
        assert work(run_dir, max_tasks=1) == 1
        assert RunState.load(run_dir).counts()["done"] == 1
        assert work(run_dir) == 2
        state = RunState.load(run_dir)
        assert state.is_complete()
        assert [o.payload["i"] for o in state.outcomes()] == [0, 1, 2]

    def test_resume_retry_failed_reexecutes_failed_shards(self, tmp_path):
        run_dir = str(tmp_path / "run")
        state = RunState.create(
            run_dir, {"kind": "test-flaky"}, _flaky_tasks(2, explode={1})
        )
        for task in state.tasks():
            state.record(execute(task))
        # Plain resume keeps the failure as recorded diagnostics ...
        job = api.resume(run_dir)
        assert job.status()["state"] == "failed"
        # ... and --retry-failed re-runs it (still failing: same task).
        job = api.resume(run_dir, retry_failed=True)
        assert [f.task_id for f in job.failures()] == ["flaky[1]"]


class TestRunDirectoryLifecycle:
    """A shard lives in exactly one of queue/, claims/, done/, failed/."""

    def test_in_process_run_empties_the_queue(self, tmp_path):
        run_dir = tmp_path / "run"
        Job(
            kind="test-flaky",
            meta={},
            tasks=_flaky_tasks(3, explode={1}),
            config=SweepConfig(run_dir=str(run_dir)),
        ).run()
        assert list((run_dir / "queue").iterdir()) == []
        assert RunState.load(str(run_dir)).counts() == {
            "total": 3, "done": 2, "failed": 1,
            "claimed": 0, "queued": 0, "pending": 0,
        }

    def test_cli_status_after_in_process_sweep(self, tmp_path, capsys):
        from repro.__main__ import main

        run_dir = str(tmp_path / "run")
        assert main(["sweep", "table1", "fig4", "--run-dir", run_dir]) == 0
        capsys.readouterr()
        assert main(["status", run_dir]) == 0
        assert capsys.readouterr().out == (
            f"{run_dir}: 2/2 done, 0 failed, 0 claimed, 0 queued"
            "  [manifest: complete]\n"
        )

    def test_worker_never_reruns_a_shard_done_in_process(self, tmp_path):
        run_dir = str(tmp_path / "run")
        state = RunState.create(
            run_dir, {"kind": "test-flaky"}, _flaky_tasks(2)
        )
        state.record(execute(state.tasks()[0]))
        assert work(run_dir) == 1
        assert [o.payload["i"] for o in state.outcomes()] == [0, 1]

    def test_resume_drops_queued_copies_of_finished_shards(self, tmp_path):
        run_dir = tmp_path / "run"
        state = RunState.create(
            str(run_dir), {"kind": "test-flaky"}, _flaky_tasks(2)
        )
        queued = (run_dir / "queue" / "00000.json").read_text()
        state.record(execute(state.tasks()[0]))
        # A crash between the checkpoint and the queue cleanup.
        (run_dir / "queue" / "00000.json").write_text(queued)
        assert state.recover_stale_claims() == []
        assert work(str(run_dir)) == 1

    @pytest.mark.slow
    def test_workers_resume_executes_only_unfinished_shards(self, tmp_path):
        names = ["table1", "fig7"]
        run_dir = str(tmp_path / "run")
        state = RunState.create(
            run_dir,
            {"kind": "experiment", "names": names, "base_seed": 0},
            harness.plan_tasks(names),
        )
        state.record(execute(state.tasks()[0]))
        api.resume(run_dir, SweepConfig(backend="workers"))
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        ran = {s["task_id"]: s["worker"] for s in manifest["shards"]}
        here = execute(_flaky_tasks(1)[0]).worker
        assert ran["table1"] == here
        assert ran["fig7"] != here

    def test_resume_refuses_an_unknown_kind_before_moving_claims(
        self, tmp_path
    ):
        run_dir = str(tmp_path / "run")
        state = RunState.create(
            run_dir,
            {"kind": "no-such-kind"},
            [Task(kind="no-such-kind", task_id=f"ghost[{i}]", index=i)
             for i in range(2)],
        )
        state.claim_next()  # a worker that died holding shard 0
        before = state.counts()
        with pytest.raises(
            ValueError,
            match=r"unknown task kind 'no-such-kind'; known: .*'experiment'",
        ):
            api.resume(run_dir)
        assert state.counts() == before
        assert (tmp_path / "run" / "claims" / "00000.json").exists()


class TestWorkerCrashDiagnostics:
    @pytest.mark.slow
    def test_dead_workers_surface_structured_failure_not_garbage(
        self, tmp_path
    ):
        """A worker pool whose workers cannot finish raises toward
        resume — it never fabricates placeholder shard results."""
        run_dir = str(tmp_path / "run")
        # A kind no worker process knows: every worker exits nonzero
        # with the queue undrained.  (Job.from_state would refuse the
        # kind up front, so the job is built directly.)
        tasks = [Task(kind="no-such-kind", task_id="ghost[0]")]
        RunState.create(run_dir, {"kind": "no-such-kind"}, tasks)
        job = Job(
            kind="no-such-kind",
            meta={},
            tasks=tasks,
            config=SweepConfig(backend="workers", run_dir=run_dir),
        )
        with pytest.raises(RuntimeError, match="resume"):
            job.run()
        # Nothing was fabricated: the shard is still pending.
        assert RunState.load(run_dir).counts()["pending"] == 1

    def test_executor_exception_lands_in_failed_checkpoints(self, tmp_path):
        run_dir = str(tmp_path / "run")
        RunState.create(
            run_dir, {"kind": "test-flaky"}, _flaky_tasks(3, explode={2})
        )
        work(run_dir)
        failure_doc = json.loads(
            (tmp_path / "run" / "failed" / "00002.json").read_text()
        )
        assert failure_doc["status"] == "failed"
        assert failure_doc["exception_type"] == "RuntimeError"
        assert "Traceback" in failure_doc["traceback"]


class TestSweepCLI:
    def test_sweep_status_resume_roundtrip(self, tmp_path, capsys):
        from repro.__main__ import main

        run_dir = str(tmp_path / "run")
        first = tmp_path / "first.json"
        assert (
            main(
                [
                    "sweep", "table1", "fig7",
                    "--run-dir", run_dir,
                    "--json", str(first),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "sweep done: 2/2 shard(s) done" in out
        assert "wrote manifest" in out
        assert main(["status", run_dir]) == 0
        assert "2/2 done" in capsys.readouterr().out
        # Resuming a complete run re-assembles the identical artifact.
        second = tmp_path / "second.json"
        assert main(["resume", run_dir, "--json", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_sweep_rejects_unknown_target(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["sweep", "fig99"]) == 2
        assert "neither a known experiment" in capsys.readouterr().err

    def test_sweep_worker_reports_empty_queue(self, tmp_path, capsys):
        from repro.__main__ import main

        run_dir = str(tmp_path / "run")
        RunState.create(run_dir, {"kind": "test-flaky"}, [])
        assert main(["sweep-worker", run_dir]) == 0
        assert "executed 0 shard(s)" in capsys.readouterr().out

    def test_sweep_worker_errors_are_one_line(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["sweep-worker", str(tmp_path / "missing")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        with pytest.raises(SystemExit):
            main(["sweep-worker", str(tmp_path), "--max-tasks", "0"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "table1", "--backend", "local"],
            ["sweep", "table1", "--workers", "2"],
            ["resume", "RUNDIR", "--workers", "2"],
            ["calibrate", "SPEC", "--workers", "2"],
        ],
        ids=["backend-local", "sweep-workers", "resume-workers",
             "calibrate-workers"],
    )
    def test_folded_options_are_refused(self, argv, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
