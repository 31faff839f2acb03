"""Experiment harness: the paper's experiments as sweep jobs and artifacts.

This layer turns an experiment run into a *measured, parallelizable,
diffable* object:

* experiments execute as :mod:`repro.runtime` task shards:
  :func:`submit_experiments` plans them into a :class:`~repro.runtime.Job`
  that runs on either backend — inline (``SweepConfig()``), a process
  pool (``SweepConfig(jobs=N)``), or ``jobs`` detached workers over a
  shared run directory (``backend="workers"``, which is also the
  resumable/distributed path).  This module owns the ``"experiment"``
  task kind: ``run_task``, ``assemble``, ``check_plan`` and
  ``format_job_report`` are what the runtime calls;
* an experiment module that exports ``cells`` (today only ``fig5``,
  whose eight points would otherwise set a pool's makespan on their
  own) additionally shards *inside* the experiment, one task per sweep
  point.  Such a module declares its sweep once — ``cells()`` (the
  ordered points), ``run_cell(cell, params)`` (one point in a fresh
  simulator), ``merge(cells, payloads)`` (the result object) — and its
  serial ``run()`` is that same loop, so the merged shards are the
  object ``run()`` builds by construction.  Every other experiment is
  one task whose ``run()`` measures its whole sweep; the full suite is
  22 tasks;
* a completed job assembles (``Job.result()``) into a versioned JSON
  artifact (:data:`SCHEMA_VERSION`) holding only deterministic
  content — wall-clock seconds and simulator events per shard live in
  the job's provenance manifest — so artifacts stay byte-for-byte
  comparable across machines and backends, and
  :func:`format_job_report` renders the same job as text;
* two artifacts diff with :func:`diff_artifacts`, flagging
  paper-target regressions.

Determinism is the contract: each task builds its own
:class:`~repro.sim.Simulator` (the seq-ordered event heap makes a
single simulation deterministic), tasks share no state, and merge
order is the task-index order — so any backend's per-experiment
results are byte-for-byte identical to the serial run's.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.targets import PAPER_TARGETS
from repro.experiments.runner import EXPERIMENTS, normalize_names
from repro.params import DEFAULT
from repro.runtime.backends import SweepConfig
from repro.runtime.job import Job
from repro.runtime.tasks import Outcome, ShardResult, Task
from repro.scenario.builder import SCENARIO_SCHEMA, SCENARIO_SCHEMA_VERSION

SCHEMA = "netdimm-repro/experiment-artifact"
SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# The "experiment" runtime kind: this module is its owner.
# ---------------------------------------------------------------------------


def run_task(args: Dict[str, Any]) -> Any:
    """Run one experiment task (whole experiment or one sweep shard).

    Metering, failure capture, and checkpointing are the runtime's job
    (:func:`repro.runtime.tasks.execute`); this only maps JSON args
    onto experiment code.
    """
    module = EXPERIMENTS[args["name"]]
    shard = args.get("shard")
    if shard is None:
        return module.run()
    return module.run_cell(module.cells()[int(shard)], DEFAULT)


def _task_experiment_name(task_id: str) -> str:
    """``"fig5[3]"`` → ``"fig5"``; unsharded ids pass through."""
    return task_id.partition("[")[0]


def plan_tasks(
    names: Sequence[str], base_seed: int = 0
) -> List[Task]:
    """Expand experiment names into runtime tasks, sharding sweeps.

    Task ids name the sweep point (``"fig5[3]"``) — they are the seed
    param ids and the merge keys — and task index order is merge order.
    """
    tasks: List[Task] = []
    for name in names:
        module = EXPERIMENTS[name]
        if hasattr(module, "cells"):
            for shard in range(len(module.cells())):
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
    ``.manifest()`` the provenance sidecar, and
    :func:`format_job_report` the text reports.
    """
    names = normalize_names(names)
    return Job(
        kind="experiment",
        meta={"names": list(names), "base_seed": base_seed},
        tasks=plan_tasks(names, base_seed),
        config=config,
    )


def _ids_by_name(task_ids: Iterable[str]) -> Dict[str, List[str]]:
    """Task ids grouped by experiment name, in the order given."""
    grouped: Dict[str, List[str]] = {}
    for task_id in task_ids:
        grouped.setdefault(_task_experiment_name(task_id), []).append(task_id)
    return grouped


def _describe_tasks(task_ids: Sequence[str]) -> str:
    """``"33 task(s) (fig11[0], ...)"`` for an error message."""
    if not task_ids:
        return "no task"
    more = ", ..." if len(task_ids) > 1 else ""
    return f"{len(task_ids)} task(s) ({task_ids[0]}{more})"


def check_plan(meta: Dict[str, Any], tasks: Sequence[Task]) -> None:
    """Refuse a stored experiment job that this build would plan
    differently.

    Task ids and args are a run directory's keys into experiment code,
    so a directory written by a build that sharded an experiment
    another way (``fig11[3]`` where this build plans ``fig11``) can be
    neither resumed nor assembled here.
    """
    names = normalize_names(meta.get("names"))
    planned = _ids_by_name(
        task.task_id for task in plan_tasks(names, meta.get("base_seed", 0))
    )
    stored = _ids_by_name(task.task_id for task in tasks)
    for name in dict.fromkeys([*stored, *planned]):
        if stored.get(name) != planned.get(name):
            raise ValueError(
                f"experiment {name!r}: the run directory was planned as "
                f"{_describe_tasks(stored.get(name, []))}, but this build "
                f"plans {_describe_tasks(planned.get(name, []))}; rerun it "
                "in a fresh run directory"
            )


def _merged_results(
    names: Sequence[str], outcomes: Sequence[Outcome]
) -> Dict[str, Tuple[Any, str]]:
    """Merge shard payloads (task-index order) into each experiment's
    ``(result, report)``.

    An experiment with a failed task is left out: it is never partly
    merged.  Every other experiment is assembled only from exactly the
    tasks the current plan gives it; any other set of results raises
    :class:`ValueError`.
    """
    planned = _ids_by_name(task.task_id for task in plan_tasks(names))
    grouped: Dict[str, List[ShardResult]] = {}
    failed = set()
    for outcome in outcomes:
        name = _task_experiment_name(outcome.task_id)
        if isinstance(outcome, ShardResult):
            grouped.setdefault(name, []).append(outcome)
        else:
            failed.add(name)
    merged: Dict[str, Tuple[Any, str]] = {}
    for name in names:
        if name in failed:
            continue
        shards = grouped.get(name, [])
        recorded = [shard.task_id for shard in shards]
        if recorded != planned[name]:
            raise ValueError(
                f"experiment {name!r}: results for "
                f"{_describe_tasks(recorded)} recorded, but this build "
                f"plans {_describe_tasks(planned[name])}"
            )
        payloads = [shard.payload for shard in shards]
        module = EXPERIMENTS[name]
        if hasattr(module, "cells"):
            result = module.merge(module.cells(), payloads)
        else:
            result = payloads[0]
        merged[name] = (result, module.format_report(result))
    return merged


def format_job_report(job: Job) -> str:
    """A completed experiment job's text reports, in name order."""
    merged = _merged_results(job.meta["names"], job.outcomes())
    return "\n".join(
        f"{'=' * 72}\n{report}\n" for _result, report in merged.values()
    )


def assemble(
    meta: Dict[str, Any], outcomes: Sequence[Outcome]
) -> Dict[str, Any]:
    """Assemble the deterministic sweep artifact from shard outcomes.

    Wall-clock and event-rate metadata are provenance and live in the
    run's manifest sidecar, never here — which is what makes serial,
    pooled, and distributed sweep artifacts byte-identical.  An
    experiment with a failed shard (``allow_partial``) is absent from
    ``experiments``; the job's ``failures`` section names the shard.
    """
    names = meta["names"]
    merged = _merged_results(names, outcomes)
    return {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "run": {
            "experiments": list(names),
            "base_seed": meta.get("base_seed", 0),
        },
        "experiments": {
            name: {
                "result": result.to_dict() if hasattr(result, "to_dict") else None,
                "metrics": result.metrics() if hasattr(result, "metrics") else {},
                "report_sha256": hashlib.sha256(
                    report.encode("utf-8")
                ).hexdigest(),
            }
            for name, (result, report) in merged.items()
        },
    }



# ---------------------------------------------------------------------------
# Artifact loading and diffing.
# ---------------------------------------------------------------------------


def load_artifact(path: str) -> Dict[str, Any]:
    """Load and validate an artifact file.

    Accepts both artifact kinds the toolkit writes: the experiment
    artifact (schema v1) and the scenario artifact
    (``run-scenario``/``run-chaos`` ``--json``, schema v2–v4).  Either
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
    return {"experiments": experiments}


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

    return diff
