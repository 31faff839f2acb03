"""Closed-loop calibration: spaces, losses, trials, artifacts, resume.

The contracts under test:

* trial identity → seed derivation is pinned to exact values (the
  cross-process stability the sweep runtime guarantees must extend to
  calibration trials);
* per-target normalized loss and its aggregation carry full
  diagnostics — a missing measurement is an error, never a silent 0;
* a candidate whose experiment raises becomes a *failed* trial with
  structured error diagnostics, not a fabricated ``inf`` loss;
* the calibrated-params artifact + sidecar manifest round-trip through
  :func:`repro.params.load_calibrated_overlay`, and nothing is ever
  overwritten;
* the same calibration produces byte-identical trial results serially
  and across a process pool, and survives a SIGKILLed worker
  mid-search.
"""

import json
import signal
import subprocess
import sys
import time

import pytest

from repro import api
from repro.analysis.targets import PAPER_TARGETS, aggregate_loss
from repro.calib import (
    CALIBRATABLE,
    Axis,
    CoordinateDescent,
    SearchSpace,
    calibrate,
    evaluate_candidate,
    experiments_for,
    nested_overrides,
    param_id,
    select_targets,
    write_calibration,
)
from repro.calib.search import _trial_from_outcome
from repro.params import (
    DEFAULT,
    calibrated_system_params,
    load_calibrated_overlay,
)
from repro.runtime.backends import SweepConfig
from repro.runtime.seeds import derive
from repro.runtime.tasks import ShardFailure, Task, execute
from tests.conftest import worker_env

SMOKE_SPACE = SearchSpace(
    axes=(
        Axis(param="software.copy_base", low_ns=140, high_ns=220, step_ns=20),
        Axis(param="software.flush_base", low_ns=25, high_ns=65, step_ns=10),
    )
)

ONE_TARGET = ["fig11.netdimm_total_us.64B"]


class TestSeedsAndIdentity:
    def test_param_id_is_canonical(self):
        assert param_id({}) == "calib[baseline]"
        forward = param_id(
            {"software.copy_base": 160000, "software.flush_base": 35000}
        )
        backward = param_id(
            {"software.flush_base": 35000, "software.copy_base": 160000}
        )
        assert forward == backward
        assert forward == (
            "calib[software.copy_base=160000,software.flush_base=35000]"
        )

    def test_derived_trial_seeds_are_pinned(self):
        """Exact seeds for known param ids — cross-interpreter stable.

        These values must never change: a calibration run's trials are
        seeded by them, and resuming a killed run in a new interpreter
        must re-derive the same seeds.
        """
        assert derive("calib[baseline]", 0) == 157477026911824909
        assert (
            derive(
                "calib[software.copy_base=160000,software.flush_base=35000]",
                7,
            )
            == 8040403814541654680
        )

    def test_task_seed_uses_param_id(self):
        task = Task(
            kind="calib",
            task_id="calib[baseline]",
            args={"param_id": "calib[baseline]", "overrides": {}, "targets": []},
            index=3,
            base_seed=0,
        )
        assert task.seed == 157477026911824909


class TestSearchSpace:
    def test_whitelist_is_enforced(self):
        with pytest.raises(ValueError, match="not a calibratable constant"):
            Axis(param="dram.t_cas", low_ns=1, high_ns=2, step_ns=1)

    def test_every_whitelisted_constant_resolves_on_defaults(self):
        for name, constant in CALIBRATABLE.items():
            section, field_name = name.split(".", 1)
            value = getattr(getattr(DEFAULT, section), field_name)
            assert isinstance(value, int), name
            assert constant.figures, name

    def test_space_round_trips_and_rejects_unknown_keys(self):
        document = SMOKE_SPACE.to_dict()
        assert SearchSpace.from_dict(document).to_dict() == document
        with pytest.raises(ValueError, match="unknown axis key"):
            SearchSpace.from_dict(
                {"axes": [{**document["axes"][0], "wat": 1}]}
            )

    def test_defaults_are_clamped_into_bounds(self):
        axis = Axis(
            param="software.copy_base", low_ns=500, high_ns=600, step_ns=10
        )
        space = SearchSpace(axes=(axis,))
        assert space.defaults() == {"software.copy_base": axis.low_ticks}

    def test_nested_overrides_shape(self):
        nested = nested_overrides(
            {"software.copy_base": 1, "pcie.propagation": 2}
        )
        assert nested == {
            "software": {"copy_base": 1},
            "pcie": {"propagation": 2},
        }


class TestLoss:
    def test_loss_is_zero_at_paper_value_and_one_at_band_edge(self):
        target = PAPER_TARGETS["fig11.netdimm_total_us.64B"]
        assert target.loss(target.paper_value) == 0.0
        assert target.loss(target.high) == pytest.approx(1.0)
        assert target.loss(target.paper_value + 2 * (target.high - target.paper_value)) == pytest.approx(2.0)

    def test_degenerate_band_falls_back_to_relative_error(self):
        target = PAPER_TARGETS["fig7.lines_per_burst"]  # band is a point
        assert target.loss(24) == 0.0
        assert target.loss(30) == pytest.approx(0.25)

    def test_aggregate_loss_reports_per_target_diagnostics(self):
        loss, per_target = aggregate_loss(
            {"fig11.netdimm_total_us.64B": 1.13, "fig7.lines_per_burst": 30},
            names=["fig11.netdimm_total_us.64B", "fig7.lines_per_burst"],
        )
        assert loss == pytest.approx((0.0 + 0.25) / 2)
        entry = per_target["fig7.lines_per_burst"]
        assert entry["measured"] == 30
        assert entry["ok"] is False
        assert per_target["fig11.netdimm_total_us.64B"]["ok"] is True

    def test_missing_measurement_is_an_error_not_a_zero(self):
        with pytest.raises(ValueError, match="no measured value"):
            aggregate_loss({}, names=["fig11.netdimm_total_us.64B"])

    def test_select_targets_validates(self):
        assert select_targets(["fig7"]) == [
            "fig7.lines_per_burst",
            "fig7.third_burst_ns",
        ]
        with pytest.raises(ValueError, match="unknown target selector"):
            select_targets(["fig99"])
        assert experiments_for(select_targets(None)) == ["fig4", "fig11"]


class TestEvaluation:
    def test_baseline_candidate_scores_fig11(self):
        payload = evaluate_candidate({}, ONE_TARGET)
        assert payload["targets_total"] == 1
        assert set(payload["targets"]) == set(ONE_TARGET)
        entry = payload["targets"][ONE_TARGET[0]]
        assert entry["ok"] is True  # shipped defaults are in band
        assert payload["loss"] == pytest.approx(entry["loss"])

    def test_unsharded_experiment_scores_through_the_registry(self):
        """fig7 exports no ``cells``: calibration runs its ``run``."""
        payload = evaluate_candidate({}, ["fig7.lines_per_burst"])
        assert payload["targets_total"] == 1
        assert payload["targets"]["fig7.lines_per_burst"]["ok"] is True

    def test_crashing_candidate_becomes_structured_failure(self):
        """A candidate that breaks the simulator is a failed trial.

        The trial carries the shard's exception type/message/traceback
        under diagnostics["error"] and no loss at all — per the
        no-placeholder-results rule, a fabricated inf would poison
        any later statistics over trial losses.
        """
        bad = {"software.copy_base": -2_000_000}
        task = Task(
            kind="calib",
            task_id=param_id(bad),
            args={
                "param_id": param_id(bad),
                "overrides": bad,
                "targets": ONE_TARGET,
            },
            index=0,
            base_seed=0,
        )
        outcome = execute(task)
        assert isinstance(outcome, ShardFailure)
        trial = _trial_from_outcome(outcome, bad, 0)
        assert trial.status == "failed"
        assert trial.loss is None and trial.targets_passed is None
        error = trial.diagnostics["error"]
        assert error["exception_type"] == "SimulationError"
        assert "traceback" in error and error["message"]
        document = trial.to_dict()
        assert "loss" not in document
        assert document["status"] == "failed"


class TestSearch:
    def test_search_improves_or_matches_defaults(self):
        report = calibrate(
            SMOKE_SPACE, targets=["fig11"], budget=8, base_seed=3
        )
        baseline, best = report.baseline, report.best
        assert baseline is not None and best is not None
        assert best.targets_passed >= baseline.targets_passed
        assert best.loss <= baseline.loss
        assert len(report.trials) <= 8
        # every trial carries per-target diagnostics or a structured error
        for trial in report.trials:
            if trial.ok:
                assert set(trial.diagnostics["targets"]) == set(report.targets)
            else:
                assert "error" in trial.diagnostics

    def test_search_survives_a_crashing_region(self):
        """Axes whose low end breaks the simulator still calibrate.

        copy_base below zero crashes the run; those candidates must
        land as failed trials while the search keeps scoring the rest.
        """
        space = SearchSpace(
            axes=(
                Axis(
                    param="software.copy_base",
                    low_ns=-4000,
                    high_ns=220,
                    step_ns=4000,
                ),
            )
        )
        report = calibrate(space, targets=ONE_TARGET, budget=4, base_seed=0)
        assert report.best is not None  # defaults still score
        failed = report.failures()
        assert failed, "the negative-cost candidates should have crashed"
        for trial in failed:
            assert trial.diagnostics["error"]["exception_type"] == (
                "SimulationError"
            )

    def test_budget_is_a_hard_cap(self):
        report = calibrate(SMOKE_SPACE, targets=ONE_TARGET, budget=3)
        assert len(report.trials) == 3

    def test_coordinate_descent_never_reproposes_seen_points(self):
        report = calibrate(SMOKE_SPACE, targets=ONE_TARGET, budget=10)
        ids = [trial.param_id for trial in report.trials]
        assert len(ids) == len(set(ids))

    def test_serial_and_pool_reports_are_identical(self):
        serial = calibrate(
            SMOKE_SPACE, targets=["fig11"], budget=6, base_seed=3
        )
        pooled = calibrate(
            SMOKE_SPACE,
            targets=["fig11"],
            budget=6,
            base_seed=3,
            config=SweepConfig(backend="pool", jobs=2),
        )
        assert serial.to_dict() == pooled.to_dict()
        a = json.dumps(serial.to_dict(), indent=2, sort_keys=True)
        b = json.dumps(pooled.to_dict(), indent=2, sort_keys=True)
        assert a == b


class TestArtifact:
    def _report(self):
        return calibrate(SMOKE_SPACE, targets=ONE_TARGET, budget=4)

    def test_artifact_round_trips_through_params(self, tmp_path):
        report = self._report()
        out_dir = tmp_path / "v1"
        paths = write_calibration(report, str(out_dir))
        overlay = load_calibrated_overlay(paths["calibrated-params.json"])
        params = calibrated_system_params(paths["calibrated-params.json"])
        for section, fields in overlay.items():
            for field_name, value in fields.items():
                assert getattr(getattr(params, section), field_name) == value
        # the sidecar manifest records the run, the search, the code
        with open(
            paths["calibrated-params.json.manifest.json"], encoding="utf-8"
        ) as handle:
            manifest = json.load(handle)
        assert manifest["schema"] == "netdimm-repro/calibration-manifest"
        assert manifest["base_seed"] == report.base_seed
        assert manifest["search_space"] == report.space.to_dict()
        assert manifest["trials"]["total"] == len(report.trials)
        assert manifest["best"] == report.best.param_id
        for axis in report.space.axes:
            assert manifest["constants"][axis.param]["figures"] == list(
                axis.constant.figures
            )
        assert "git_revision" in manifest["code"]

    def test_artifact_never_overwrites(self, tmp_path):
        report = self._report()
        out_dir = tmp_path / "v1"
        paths = write_calibration(report, str(out_dir))
        artifact_path = paths["calibrated-params.json"]
        with open(artifact_path, encoding="utf-8") as handle:
            original = handle.read()
        with pytest.raises(FileExistsError, match="refusing to overwrite"):
            write_calibration(report, str(out_dir))
        with open(artifact_path, encoding="utf-8") as handle:
            assert handle.read() == original

    def test_overlay_loader_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(ValueError, match="schema"):
            load_calibrated_overlay(str(path))

    def test_defaults_are_untouched_by_a_calibration(self):
        copy_base_before = DEFAULT.software.copy_base
        self._report()
        assert DEFAULT.software.copy_base == copy_base_before


class TestCLIAndResume:
    @pytest.mark.slow
    def test_cli_serial_vs_pool_artifacts_byte_identical(self, tmp_path):
        spec = tmp_path / "space.json"
        spec.write_text(json.dumps(SMOKE_SPACE.to_dict()))
        common = [
            sys.executable,
            "-m",
            "repro",
            "calibrate",
            str(spec),
            "--targets",
            "fig11.netdimm_total_us.64B",
            "--budget",
            "6",
        ]
        subprocess.run(
            common + ["--out", str(tmp_path / "serial")],
            check=True,
            env=worker_env(),
            stdout=subprocess.DEVNULL,
        )
        subprocess.run(
            common
            + ["--backend", "pool", "--jobs", "2", "--out", str(tmp_path / "pool")],
            check=True,
            env=worker_env(),
            stdout=subprocess.DEVNULL,
        )
        serial = (tmp_path / "serial" / "calibrated-params.json").read_bytes()
        pooled = (tmp_path / "pool" / "calibrated-params.json").read_bytes()
        assert serial == pooled
        serial_trials = (tmp_path / "serial" / "trials.json").read_bytes()
        pooled_trials = (tmp_path / "pool" / "trials.json").read_bytes()
        assert serial_trials == pooled_trials

    @pytest.mark.slow
    def test_sigkilled_calibration_resumes_byte_identical(self, tmp_path):
        """SIGKILL a calibration mid-search; rerun; compare artifacts.

        The run-dir form checkpoints every round as a sweep; rerunning
        the same command afterwards must replay the finished rounds
        from their checkpoints and complete the rest, landing on the
        byte-identical artifact of an uninterrupted run.
        """
        spec = tmp_path / "space.json"
        spec.write_text(json.dumps(SMOKE_SPACE.to_dict()))
        reference = calibrate(
            SMOKE_SPACE, targets=["fig11"], budget=8, base_seed=0
        )
        out_ref = tmp_path / "ref"
        write_calibration(reference, str(out_ref))

        command = [
            sys.executable,
            "-m",
            "repro",
            "calibrate",
            str(spec),
            "--targets",
            "fig11",
            "--budget",
            "8",
            "--run-dir",
            str(tmp_path / "run"),
        ]
        victim = subprocess.Popen(
            command,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=worker_env(),
        )
        time.sleep(1.0)  # let it finish some rounds, then die mid-search
        victim.send_signal(signal.SIGKILL)
        victim.wait()

        subprocess.run(
            command + ["--out", str(tmp_path / "resumed")],
            check=True,
            env=worker_env(),
            stdout=subprocess.DEVNULL,
        )
        assert (tmp_path / "resumed" / "calibrated-params.json").read_bytes() == (
            out_ref / "calibrated-params.json"
        ).read_bytes()
        assert (tmp_path / "resumed" / "trials.json").read_bytes() == (
            out_ref / "trials.json"
        ).read_bytes()

    def test_run_dir_refuses_a_foreign_round_directory(self, tmp_path):
        run_dir = tmp_path / "run"
        calibrate(
            SMOKE_SPACE,
            targets=ONE_TARGET,
            budget=2,
            config=SweepConfig(run_dir=str(run_dir)),
        )
        other = SearchSpace(
            axes=(
                Axis(
                    param="nic.dma_setup", low_ns=100, high_ns=300, step_ns=50
                ),
            )
        )
        with pytest.raises(ValueError, match="different calibration"):
            calibrate(
                other,
                targets=ONE_TARGET,
                budget=2,
                config=SweepConfig(run_dir=str(run_dir)),
            )

    def test_api_calibrate_writes_artifacts(self, tmp_path):
        report = api.calibrate(
            SMOKE_SPACE.to_dict(),
            targets=ONE_TARGET,
            budget=2,
            out_dir=str(tmp_path / "out"),
        )
        assert report.best is not None
        assert (tmp_path / "out" / "calibrated-params.json").exists()
        assert (
            tmp_path / "out" / "calibrated-params.json.manifest.json"
        ).exists()

    def test_calibration_trace_document(self):
        report = calibrate(SMOKE_SPACE, targets=ONE_TARGET, budget=4)
        document = api.calibration_trace(report.to_dict())
        events = document["traceEvents"]
        trials = [e for e in events if e["ph"] == "X"]
        assert len(trials) == len(report.trials)
        best_events = [e for e in trials if e["cat"].endswith(".best")]
        assert len(best_events) == 1
        assert best_events[0]["name"] == report.best.param_id
