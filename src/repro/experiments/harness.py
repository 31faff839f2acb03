"""Experiment harness: the paper's experiments as sweep jobs and artifacts.

This layer turns an experiment run into a *measured, parallelizable,
diffable* object:

* experiments execute as :mod:`repro.runtime` task shards:
  :func:`submit_experiments` plans them into a :class:`~repro.runtime.Job`
  that runs on any backend — inline (``SweepConfig()``), a process
  pool (``SweepConfig(backend="pool", jobs=N)``), or a detached worker
  pool over a shared run directory (``backend="workers"``, which is
  also the resumable/distributed path);
* the sweep-heavy experiments (:data:`SWEEPS`: ``fig5``, ``fig11``,
  ``fig12a``, ``loaded_latency``) additionally shard *inside* the
  experiment, one task per sweep point.  Each such module declares its
  sweep once — ``cells()`` (the ordered points), ``run_cell(cell,
  params)`` (one point in a fresh simulator), ``merge(cells,
  payloads)`` (the result object) — and its serial ``run()`` is that
  same loop, so the merged shards are the object ``run()`` builds by
  construction;
* :func:`run_experiments` is the fail-loud wrapper over that job: it
  raises on any shard failure and returns a :class:`HarnessRun` whose
  artifact adds run metadata — wall-clock seconds, simulator events
  fired (via :func:`repro.sim.engine.process_events_total`),
  events/sec — in a ``timing`` section kept *separate* from results,
  so artifacts stay byte-for-byte comparable across machines (the
  job-assembled sweep artifact keeps timing out entirely — it lives in
  the provenance manifest);
* the whole run serializes to a versioned JSON artifact
  (:data:`SCHEMA_VERSION`), and two artifacts diff with
  :func:`diff_artifacts`, flagging paper-target regressions.

Determinism is the contract: each task builds its own
:class:`~repro.sim.Simulator` (the seq-ordered event heap makes a
single simulation deterministic), tasks share no state, and merge
order is the task-index order — so any backend's per-experiment
results are byte-for-byte identical to the serial run's.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.targets import PAPER_TARGETS
from repro.experiments import fig5, fig11, fig12a, loaded_latency
from repro.experiments.runner import EXPERIMENTS, normalize_names
from repro.params import DEFAULT
from repro.runtime.backends import SweepConfig
from repro.runtime.job import Job, JobError, register_assembler
from repro.runtime.tasks import ShardResult, Task, register_kind
from repro.scenario.builder import SCENARIO_SCHEMA, SCENARIO_SCHEMA_VERSION

SCHEMA = "netdimm-repro/experiment-artifact"
SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Sweep experiments: one task per cell, merged by the module itself.
# ---------------------------------------------------------------------------

SWEEPS = {
    "fig5": fig5,
    "fig11": fig11,
    "fig12a": fig12a,
    "loaded_latency": loaded_latency,
}
"""Experiments sharded one task per sweep point (``cells()`` order)."""


# ---------------------------------------------------------------------------
# Task execution: the "experiment" runtime kind.
# ---------------------------------------------------------------------------


def _experiment_executor(args: Dict[str, Any]) -> Any:
    """Run one experiment task (whole experiment or one sweep shard).

    The executor for the ``"experiment"`` runtime kind: metering,
    failure capture, and checkpointing are the runtime's job
    (:func:`repro.runtime.tasks.execute`); this only maps JSON args
    onto experiment code.
    """
    name = args["name"]
    shard = args.get("shard")
    if shard is None:
        run, _format = EXPERIMENTS[name]
        return run()
    module = SWEEPS[name]
    return module.run_cell(module.cells()[int(shard)], DEFAULT)


def _task_experiment_name(task_id: str) -> str:
    """``"fig5[3]"`` → ``"fig5"``; unsharded ids pass through."""
    return task_id.partition("[")[0]


# ---------------------------------------------------------------------------
# The harness run.
# ---------------------------------------------------------------------------


@dataclass
class ExperimentRun:
    """One experiment's merged result plus aggregated run metadata."""

    name: str
    result: Any
    report: str
    wall_seconds: float
    events_fired: int
    shards: int

    @property
    def events_per_sec(self) -> float:
        """Simulator event throughput (0 when nothing fired)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_fired / self.wall_seconds

    def timing_dict(self) -> Dict[str, float]:
        """The timing section entry (kept out of the result section)."""
        return {
            "wall_seconds": round(self.wall_seconds, 6),
            "events_fired": self.events_fired,
            "events_per_sec": round(self.events_per_sec, 3),
            "shards": self.shards,
        }

    def artifact_entry(self) -> Dict[str, Any]:
        """The deterministic ``experiments[name]`` artifact entry."""
        result = self.result
        return {
            "result": result.to_dict() if hasattr(result, "to_dict") else None,
            "metrics": result.metrics() if hasattr(result, "metrics") else {},
            "report_sha256": hashlib.sha256(
                self.report.encode("utf-8")
            ).hexdigest(),
        }


@dataclass
class HarnessRun:
    """A completed harness invocation over one or more experiments."""

    jobs: int
    names: List[str]
    records: Dict[str, ExperimentRun]
    wall_seconds: float = 0.0

    def report_text(self) -> str:
        """The concatenated text reports (the runner's classic output)."""
        sections = [
            f"{'=' * 72}\n{self.records[name].report}\n" for name in self.names
        ]
        return "\n".join(sections)

    def to_artifact(self) -> Dict[str, Any]:
        """The versioned, JSON-safe artifact (schema v1).

        ``experiments`` holds only deterministic content; wall-clock and
        event-rate metadata live under ``timing`` so that two runs of
        the same code diff clean regardless of machine speed.
        """
        return {
            "schema": SCHEMA,
            "schema_version": SCHEMA_VERSION,
            "run": {"jobs": self.jobs, "experiments": list(self.names)},
            "experiments": {
                name: self.records[name].artifact_entry() for name in self.names
            },
            "timing": {
                "total_wall_seconds": round(self.wall_seconds, 6),
                "per_experiment": {
                    name: self.records[name].timing_dict() for name in self.names
                },
            },
        }

    def write_artifact(self, path: str) -> Dict[str, Any]:
        """Serialize :meth:`to_artifact` to ``path``; returns the dict."""
        artifact = self.to_artifact()
        try:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(artifact, handle, indent=2, sort_keys=False)
                handle.write("\n")
        except OSError as error:
            raise ValueError(
                f"{path}: cannot write artifact ({error.strerror})"
            ) from error
        return artifact


def plan_tasks(
    names: Sequence[str], base_seed: int = 0
) -> List[Task]:
    """Expand experiment names into runtime tasks, sharding sweeps.

    Task ids name the sweep point (``"fig5[3]"``) — they are the seed
    param ids and the merge keys — and task index order is merge order.
    """
    tasks: List[Task] = []
    for name in names:
        if name in SWEEPS:
            for shard in range(len(SWEEPS[name].cells())):
                tasks.append(
                    Task(
                        kind="experiment",
                        task_id=f"{name}[{shard}]",
                        args={"name": name, "shard": shard},
                        index=len(tasks),
                        base_seed=base_seed,
                    )
                )
        else:
            tasks.append(
                Task(
                    kind="experiment",
                    task_id=name,
                    args={"name": name, "shard": None},
                    index=len(tasks),
                    base_seed=base_seed,
                )
            )
    return tasks


def submit_experiments(
    names: Optional[Sequence[str]] = None,
    config: Optional[SweepConfig] = None,
    base_seed: int = 0,
) -> Job:
    """The named experiments as a runtime :class:`Job` (not yet run).

    ``submit_experiments(...).run()`` executes on the configured
    backend, ``.result()`` assembles the deterministic sweep artifact,
    ``.manifest()`` the provenance sidecar.  :func:`run_experiments` is
    the fail-loud wrapper over this job returning a :class:`HarnessRun`.
    """
    names = normalize_names(names)
    return Job(
        kind="experiment",
        meta={"names": list(names), "base_seed": base_seed},
        tasks=plan_tasks(names, base_seed),
        config=config,
    )


def _records_from(
    names: Sequence[str], results: Sequence[ShardResult]
) -> Dict[str, ExperimentRun]:
    """Merge per-shard results (in task-index order) into run records."""
    grouped: Dict[str, List[ShardResult]] = {}
    for result in results:
        grouped.setdefault(_task_experiment_name(result.task_id), []).append(
            result
        )
    records: Dict[str, ExperimentRun] = {}
    for name in names:
        mine = grouped.get(name, [])
        if not mine:
            raise ValueError(f"no shard results for experiment {name!r}")
        payloads = [shard.payload for shard in mine]
        if name in SWEEPS:
            merged = SWEEPS[name].merge(SWEEPS[name].cells(), payloads)
        else:
            merged = payloads[0]
        _run, format_report = EXPERIMENTS[name]
        records[name] = ExperimentRun(
            name=name,
            result=merged,
            report=format_report(merged),
            wall_seconds=sum(shard.wall_seconds for shard in mine),
            events_fired=sum(shard.events_fired for shard in mine),
            shards=len(mine),
        )
    return records


def _experiment_assembler(
    meta: Dict[str, Any], results: List[ShardResult]
) -> Dict[str, Any]:
    """Assemble the deterministic sweep artifact from shard results.

    Same schema as :meth:`HarnessRun.to_artifact`, minus the ``timing``
    section: wall-clock and event-rate metadata are provenance, and
    live in the run's manifest sidecar instead — which is what makes
    serial, pooled, and distributed sweep artifacts byte-identical.
    """
    names = meta["names"]
    records = _records_from(names, results)
    return {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "run": {
            "experiments": list(names),
            "base_seed": meta.get("base_seed", 0),
        },
        "experiments": {name: records[name].artifact_entry() for name in names},
    }


register_kind("experiment", _experiment_executor)
register_assembler("experiment", _experiment_assembler)


def run_experiments(
    names: Optional[Sequence[str]] = None,
    *,
    config: Optional[SweepConfig] = None,
) -> HarnessRun:
    """Run the named experiments (all by default); returns a HarnessRun.

    The fail-loud wrapper over :func:`submit_experiments`: ``config``
    (:class:`~repro.runtime.backends.SweepConfig`, inline by default)
    picks the backend, and any backend produces identical
    per-experiment results — tasks are deterministic and merged in
    task-index order.

    Raises :class:`ValueError` for unknown experiment names and
    :class:`~repro.runtime.job.JobError` (a :class:`RuntimeError`) for
    a shard failure (the job itself records failures as structured
    diagnostics instead).
    """
    job = submit_experiments(names, config=config)
    start = time.perf_counter()
    job.run()
    total_wall = time.perf_counter() - start
    failures = job.failures()
    if failures:
        lines = "\n  ".join(failure.summary() for failure in failures)
        raise JobError(f"{len(failures)} experiment shard(s) failed:\n  {lines}")
    names = job.meta["names"]
    return HarnessRun(
        jobs=job.config.jobs if job.config.backend == "pool" else 1,
        names=list(names),
        records=_records_from(names, job.outcomes()),
        wall_seconds=total_wall,
    )


# ---------------------------------------------------------------------------
# Artifact loading and diffing.
# ---------------------------------------------------------------------------


def load_artifact(path: str) -> Dict[str, Any]:
    """Load and validate an artifact file.

    Accepts both artifact kinds the toolkit writes: the experiment
    artifact (:class:`HarnessRun`, schema v1) and the scenario artifact
    (``run-scenario``/``run-chaos`` ``--json``, schema v2–v3).  Either
    can be handed to :func:`diff_artifacts` — scenario artifacts are
    viewed through :func:`_experiment_view` so per-flow and (v3)
    per-segment metrics diff the same way experiment metrics do.  See
    ``docs/artifacts.md`` for the schema histories.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            artifact = json.load(handle)
    except OSError as error:
        raise ValueError(f"{path}: cannot read artifact ({error.strerror})") from error
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: not valid JSON ({error})") from error
    schema = artifact.get("schema") if isinstance(artifact, dict) else None
    if schema == SCENARIO_SCHEMA:
        version = artifact.get("schema_version")
        if not isinstance(version, int) or not 2 <= version <= SCENARIO_SCHEMA_VERSION:
            raise ValueError(
                f"{path}: artifact schema_version {version!r} unsupported "
                f"(this build reads {SCENARIO_SCHEMA} versions "
                f"2..{SCENARIO_SCHEMA_VERSION})"
            )
        return artifact
    if schema != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} artifact")
    version = artifact.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: artifact schema_version {version!r} unsupported "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    return artifact


@dataclass
class ArtifactDiff:
    """The comparison of a current artifact against a baseline."""

    notes: List[str] = field(default_factory=list)
    regressions: List[str] = field(default_factory=list)

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions)

    def format(self) -> str:
        lines = ["artifact diff vs. baseline:"]
        lines.extend(f"  {note}" for note in self.notes)
        if self.regressions:
            lines.append(f"REGRESSIONS ({len(self.regressions)}):")
            lines.extend(f"  - {regression}" for regression in self.regressions)
        else:
            lines.append("no regressions")
        return "\n".join(lines)


def _target_ok(name: str, value: float) -> Optional[bool]:
    """Band check when the metric name is a paper target, else None."""
    target = PAPER_TARGETS.get(name)
    if target is None:
        return None
    return target.check(value)


def _experiment_view(artifact: Dict[str, Any]) -> Dict[str, Any]:
    """A scenario artifact viewed through the experiment-diff lens.

    Each scenario becomes one "experiment" whose metrics are the
    per-flow latency summaries plus (schema v3) the per-segment means
    — so when a scenario's latency regresses, the diff names the path
    segment (``scenario.<name>.segment.<seg>.mean_us``) that moved.
    Experiment artifacts pass through unchanged.
    """
    if artifact.get("schema") != SCENARIO_SCHEMA:
        return artifact
    experiments: Dict[str, Any] = {}
    for name, entry in artifact.get("scenarios", {}).items():
        result = entry.get("result", {})
        metrics: Dict[str, float] = {}
        for label, stats in sorted(result.get("flows", {}).items()):
            for key in ("mean", "p50", "p99", "p999"):
                if key in stats:
                    metrics[f"scenario.{name}.{label}.{key}_us"] = stats[key]
        for segment, stats in sorted(result.get("segment_latency", {}).items()):
            if "mean" in stats:
                metrics[f"scenario.{name}.segment.{segment}.mean_us"] = stats[
                    "mean"
                ]
        experiments[name] = {"result": result, "metrics": metrics}
    return {"experiments": experiments, "timing": {}}


def reject_partial_artifact(
    artifact: Dict[str, Any], allow_partial: bool = False, context: str = ""
) -> List[Dict[str, Any]]:
    """Refuse an artifact carrying shard failures unless explicitly allowed.

    Sweep artifacts assembled with ``allow_partial`` carry a
    ``failures`` section of structured :class:`ShardFailure`
    diagnostics.  Consumers that would otherwise treat such an artifact
    as a complete run (:func:`diff_artifacts`, ``check_artifact``)
    call this first: it raises :class:`ValueError` naming the failed
    shards, unless the caller opted in with ``allow_partial`` — in
    which case it returns the failure records for reporting.
    """
    failures = artifact.get("failures") or []
    if failures and not allow_partial:
        shards = ", ".join(
            f"{entry.get('task_id', '?')} ({entry.get('exception_type', '?')})"
            for entry in failures
        )
        where = f"{context}: " if context else ""
        raise ValueError(
            f"{where}artifact is partial — {len(failures)} shard(s) "
            f"failed: {shards}; pass allow_partial/--allow-partial to "
            "proceed on the surviving shards"
        )
    return failures


def diff_artifacts(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = 0.0,
    allow_partial: bool = False,
) -> ArtifactDiff:
    """Compare two artifacts; flag regressions.

    A *regression* is: an experiment present in the baseline but absent
    now; a paper-target metric that passed its acceptance band in the
    baseline but fails it now; or a metric drifting more than
    ``tolerance`` (relative) while its band check worsens.  Pure drift
    within bands and result-dict changes are reported as notes.

    Scenario artifacts are accepted on either side (converted via
    :func:`_experiment_view`), so ``diff_artifacts(load_artifact(a),
    load_artifact(b))`` localizes a scenario regression down to the
    breakdown segment whose mean moved.

    An artifact carrying a ``failures`` section (a partial sweep) is
    refused with :class:`ValueError` unless ``allow_partial`` — a diff
    against missing data would report bogus regressions.
    """
    reject_partial_artifact(current, allow_partial, context="current")
    reject_partial_artifact(baseline, allow_partial, context="baseline")
    current = _experiment_view(current)
    baseline = _experiment_view(baseline)
    diff = ArtifactDiff()
    current_experiments = current.get("experiments", {})
    baseline_experiments = baseline.get("experiments", {})

    for name, baseline_entry in baseline_experiments.items():
        current_entry = current_experiments.get(name)
        if current_entry is None:
            diff.regressions.append(f"{name}: missing from current run")
            continue
        if current_entry.get("result") == baseline_entry.get("result"):
            diff.notes.append(f"{name}: identical")
        else:
            diff.notes.append(f"{name}: result changed")
        baseline_metrics = baseline_entry.get("metrics", {})
        current_metrics = current_entry.get("metrics", {})
        for metric, baseline_value in baseline_metrics.items():
            if metric not in current_metrics:
                diff.regressions.append(f"{name}: metric {metric} disappeared")
                continue
            current_value = current_metrics[metric]
            scale = max(1.0, abs(baseline_value))
            drifted = abs(current_value - baseline_value) > tolerance * scale
            was_ok = _target_ok(metric, baseline_value)
            now_ok = _target_ok(metric, current_value)
            if was_ok and now_ok is False:
                target = PAPER_TARGETS[metric]
                diff.regressions.append(
                    f"{name}: {metric} left its paper band "
                    f"[{target.low:g}, {target.high:g}]: "
                    f"{baseline_value:.6g} -> {current_value:.6g}"
                )
            elif drifted and current_value != baseline_value:
                diff.notes.append(
                    f"{name}: {metric} drifted "
                    f"{baseline_value:.6g} -> {current_value:.6g}"
                )
    for name in current_experiments:
        if name not in baseline_experiments:
            diff.notes.append(f"{name}: new experiment (not in baseline)")

    current_timing = current.get("timing", {}).get("per_experiment", {})
    baseline_timing = baseline.get("timing", {}).get("per_experiment", {})
    for name, baseline_entry in baseline_timing.items():
        current_entry = current_timing.get(name)
        if not current_entry:
            continue
        base_rate = baseline_entry.get("events_per_sec") or 0
        now_rate = current_entry.get("events_per_sec") or 0
        if base_rate > 0 and now_rate > 0 and now_rate < base_rate / 2:
            diff.notes.append(
                f"{name}: events/sec dropped {base_rate:.0f} -> {now_rate:.0f} "
                "(perf, informational)"
            )
    return diff
