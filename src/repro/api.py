"""The unified public facade — the one import the toolkit asks you for.

Everything a user (or the CLI) does goes through a handful of verbs::

    from repro import api

    spec = api.load_spec("examples/incast_mixed.json")
    result = api.simulate(spec)
    print(api.format_report(result))

    job = api.submit(["fig4", "table1"], backend="pool", jobs=2).run()
    print(api.format_report(job))
    artifact = job.result()

    diff = api.diff_artifacts(api.load_artifact("old.json"), artifact)

* :func:`load_spec` — a scenario spec from a JSON file or mapping.
* :func:`simulate` — one spec → one :class:`ScenarioResult`, optionally
  under a :class:`FaultSpec` (chaos mode).
* :func:`submit` — experiments *or* scenario specs as a
  :class:`~repro.runtime.Job` on a named backend (``"pool"``, inline
  at ``jobs=1``, or ``"workers"``); ``Job.status()`` /
  ``Job.result()`` / ``Job.artifact()`` drive it, :func:`collect`
  gathers many, and :func:`resume` picks a killed sweep back up from
  its run directory.
  Every sweep runs through a job, and ``Job.artifact()`` is the one
  writer of experiment and scenario artifacts.
* :func:`diff_artifacts` — compare two experiment artifacts
  metric-by-metric against the paper-target bands.
* :func:`format_report` — the human-readable report of a
  :class:`ScenarioResult` or of a completed experiment or scenario job.

Another verb, :func:`trace_scenario`, is :func:`simulate` with the
per-packet span tracer attached: it returns the result *and* a
Chrome-trace/Perfetto JSON document of every packet's timeline (see
``docs/observability.md``)::

    result, trace = api.trace_scenario(spec)
    open("trace.json", "w").write(api.dump_trace(trace))

A miniature you can run right here (two NetDIMM nodes on a direct
wire, one measured packet):

>>> from repro import api
>>> spec = api.ScenarioSpec.two_node("netdimm", 256)
>>> api.simulate(spec).packets_delivered
1

And the job surface in one line (an inline experiment sweep):

>>> api.submit("table1").result()["run"]["experiments"]
['table1']

The deeper modules remain importable (this facade is a thin veneer, not
a wall).
"""

from __future__ import annotations

import importlib
import json
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.params import DEFAULT, SystemParams, apply_overrides
from repro.runtime import (
    BACKENDS,
    KIND_OWNERS,
    Job,
    JobError,
    ProcessPoolBackend,
    RunState,
    SweepConfig,
    WorkerPoolBackend,
    kind_owner,
)
from repro.runtime import collect as _collect
from repro.runtime import derive as derive_seed
from repro.runtime import resume as _resume

if TYPE_CHECKING:
    from repro.calib import CalibrationReport, SearchSpace
    from repro.experiments.harness import ArtifactDiff
    from repro.faults import FaultSpec
    from repro.scenario.builder import ScenarioResult
    from repro.scenario.spec import ScenarioSpec

# Everything else loads on first use: a 1024-host scenario run needs
# neither calibration, the experiment modules, telemetry nor the
# analysis layer.  ``repro.params`` and ``repro.runtime`` stay eager,
# so ``api.Job`` is ready the moment the facade is imported.
_LAZY_MODULES: Dict[str, Tuple[str, ...]] = {
    "repro.analysis.targets": ("PAPER_TARGETS", "aggregate_loss", "registry_markdown"),
    "repro.calib": (
        "ARTIFACT_NAME",
        "CALIBRATABLE",
        "Axis",
        "CalibrationReport",
        "SearchSpace",
        "write_calibration",
    ),
    "repro.driver.registry": ("NIC_KINDS", "make_node"),
    "repro.experiments.harness": (
        "load_artifact",
        "reject_partial_artifact",
        "submit_experiments",
    ),
    "repro.experiments.oneway": ("OneWayResult", "measure_one_way"),
    "repro.experiments.runner": ("EXPERIMENTS",),
    "repro.faults": (
        "FAULT_SWITCH_MODES",
        "FaultInjector",
        "FaultSpec",
        "LinkFaultSpec",
        "LinkKillSpec",
        "RecoverySpec",
        "StallSpec",
    ),
    "repro.scenario.builder": (
        "Scenario",
        "ScenarioResult",
        "build_scenario",
        "dump_artifact",
    ),
    "repro.scenario.runner": (
        "build_fault_overlay",
        "job_trace",
        "parse_kill",
        "submit_scenarios",
    ),
    "repro.scenario.spec": ("FabricSpec", "NodeSpec", "ScenarioSpec", "TrafficSpec"),
    "repro.telemetry": (
        "SpanTracer",
        "calibration_trace",
        "chrome_trace",
        "dump_trace",
        "runtime_trace",
        "segment_totals",
    ),
    "repro.workloads.trace_io": ("save_trace",),
    "repro.workloads.traces": ("ClusterKind", "TraceGenerator"),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}

__all__ = [
    # the facade verbs
    "load_spec",
    "simulate",
    "trace_scenario",
    "submit",
    "collect",
    "resume",
    "diff_artifacts",
    "format_report",
    "calibrate",
    # calibration toolkit
    "ARTIFACT_NAME",
    "CALIBRATABLE",
    "Axis",
    "CalibrationReport",
    "SearchSpace",
    "aggregate_loss",
    "registry_markdown",
    "write_calibration",
    # the sweep runtime
    "BACKENDS",
    "Job",
    "JobError",
    "ProcessPoolBackend",
    "WorkerPoolBackend",
    "RunState",
    "SweepConfig",
    "derive_seed",
    "reject_partial_artifact",
    "submit_experiments",
    "submit_scenarios",
    # telemetry
    "SpanTracer",
    "calibration_trace",
    "chrome_trace",
    "dump_trace",
    "job_trace",
    "runtime_trace",
    "segment_totals",
    # scenario toolkit
    "FabricSpec",
    "NodeSpec",
    "Scenario",
    "ScenarioResult",
    "ScenarioSpec",
    "TrafficSpec",
    "build_scenario",
    "dump_artifact",
    # faults / chaos
    "FAULT_SWITCH_MODES",
    "FaultInjector",
    "FaultSpec",
    "LinkFaultSpec",
    "LinkKillSpec",
    "RecoverySpec",
    "StallSpec",
    "build_fault_overlay",
    "parse_kill",
    # experiments
    "EXPERIMENTS",
    "OneWayResult",
    "load_artifact",
    "measure_one_way",
    # params / registry / workloads
    "DEFAULT",
    "NIC_KINDS",
    "PAPER_TARGETS",
    "ClusterKind",
    "SystemParams",
    "TraceGenerator",
    "apply_overrides",
    "make_node",
    "save_trace",
]


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_LAZY))


def load_spec(source: Union[str, Mapping[str, Any]]) -> ScenarioSpec:
    """A :class:`ScenarioSpec` from a JSON file path or a mapping."""
    from repro.scenario.spec import ScenarioSpec

    if isinstance(source, Mapping):
        return ScenarioSpec.from_dict(source)
    with open(source, "r", encoding="utf-8") as handle:
        return ScenarioSpec.from_dict(json.load(handle))


def simulate(
    spec: ScenarioSpec,
    base_params: Optional[SystemParams] = None,
    faults: Optional[FaultSpec] = None,
) -> ScenarioResult:
    """Build and run one scenario; returns its result.

    ``faults`` (when given) replaces the spec's own ``faults`` section —
    the quick way to re-run an existing scenario under chaos.
    """
    from repro.scenario.builder import build_scenario

    if faults is not None:
        from dataclasses import replace

        spec = replace(spec, faults=faults)
    return build_scenario(spec, base_params=base_params).run()


def trace_scenario(
    spec: ScenarioSpec,
    base_params: Optional[SystemParams] = None,
    faults: Optional[FaultSpec] = None,
):
    """:func:`simulate` with the span tracer on.

    Returns ``(result, trace_document)`` where ``trace_document`` is a
    Chrome-trace/Perfetto JSON document of every measured packet's
    per-hop timeline (serialize it with :func:`dump_trace`).  The
    simulation's event stream — and therefore the result — is identical
    to an untraced :func:`simulate` of the same spec.
    """
    from repro.scenario.builder import build_scenario
    from repro.telemetry import SpanTracer, chrome_trace

    if faults is not None:
        from dataclasses import replace

        spec = replace(spec, faults=faults)
    tracer = SpanTracer()
    result = build_scenario(spec, base_params=base_params, tracer=tracer).run()
    return result, chrome_trace([(spec.name, tracer.to_payload())])


def submit(
    spec_or_experiment: Any,
    backend: str = "pool",
    *,
    jobs: int = 1,
    run_dir: Optional[str] = None,
    base_seed: int = 0,
    chaos: bool = False,
    faults: Optional[FaultSpec] = None,
    trace: bool = False,
) -> Job:
    """Submit experiments or scenarios as a :class:`Job` on a backend.

    ``spec_or_experiment`` is an experiment name (or list of names, or
    ``None``/``"all"`` for every experiment), a scenario spec file path
    (or list of paths), or a :class:`ScenarioSpec` (or list of specs).
    ``backend`` selects by name: ``"pool"`` (inline at ``jobs=1``,
    else ``jobs`` forked processes) or ``"workers"`` (``jobs`` detached
    worker processes over ``run_dir`` — the resumable, distributable
    path).
    ``chaos``, ``faults`` and ``trace`` apply to scenarios only:
    ``trace`` span-traces every scenario for :func:`job_trace`.

    The returned job has not run yet: ``job.run()`` executes it,
    ``job.status()`` reports shard counts, ``job.result()`` assembles
    the artifact (refusing partial runs unless asked),
    ``job.manifest()`` is the provenance sidecar, and
    :func:`format_report` renders the completed job as text.
    """
    from repro.scenario.spec import ScenarioSpec

    config = SweepConfig(backend=backend, jobs=jobs, run_dir=run_dir)
    items = (
        list(spec_or_experiment)
        if isinstance(spec_or_experiment, (list, tuple))
        else [spec_or_experiment]
    )
    if (
        spec_or_experiment is not None
        and items
        and all(
            isinstance(item, ScenarioSpec)
            or (isinstance(item, str) and item.endswith(".json"))
            for item in items
        )
    ):
        from repro.scenario.runner import submit_scenarios

        return submit_scenarios(
            items, config=config, chaos=chaos, faults=faults, trace=trace
        )
    # Loads every experiment module here, in the parent, so forked pool
    # workers inherit them instead of each importing its own.
    from repro.experiments.runner import EXPERIMENTS

    if spec_or_experiment is None or all(
        isinstance(item, str) and (item in EXPERIMENTS or item == "all")
        for item in items
    ):
        from repro.experiments.harness import submit_experiments

        names = None if spec_or_experiment is None else items
        if chaos or faults is not None or trace:
            raise ValueError(
                "chaos/faults/trace only apply to scenario submissions"
            )
        return submit_experiments(names, config=config, base_seed=base_seed)
    if all(isinstance(item, (str, ScenarioSpec)) for item in items):
        unknown = next(
            item
            for item in items
            if isinstance(item, str) and not item.endswith(".json")
        )
        raise ValueError(
            f"{unknown!r} is neither a known experiment "
            f"({', '.join(sorted(EXPERIMENTS))}) nor a scenario "
            "spec file (*.json)"
        )
    raise ValueError(
        "submit() takes experiment names, scenario spec paths, or "
        "ScenarioSpec objects (not a mixture)"
    )


def collect(
    jobs: Sequence[Job], allow_partial: bool = False
) -> List[Mapping[str, Any]]:
    """Run every job and return their artifact documents, in order."""
    return _collect(jobs, allow_partial=allow_partial)


def resume(
    run_dir: str,
    config: Optional[SweepConfig] = None,
    retry_failed: bool = False,
) -> Job:
    """Resume an interrupted sweep from its run directory.

    Stale claims (shards a killed worker held) are re-enqueued and
    everything pending re-executes; the completed job's artifact is
    byte-identical to an uninterrupted run's.
    """
    return _resume(run_dir, config=config, retry_failed=retry_failed)


def calibrate(
    space: Union[str, Mapping[str, Any], SearchSpace],
    *,
    targets: Optional[Sequence[str]] = None,
    budget: int = 16,
    backend: str = "pool",
    jobs: int = 1,
    run_dir: Optional[str] = None,
    base_seed: int = 0,
    out_dir: Optional[str] = None,
) -> CalibrationReport:
    """Fit the *Calibrated* constants to paper targets; see
    ``docs/calibration.md``.

    ``space`` is a :class:`SearchSpace`, its mapping form, or the path
    of a search-space JSON file; ``targets`` selects ``PAPER_TARGETS``
    entries by name or figure prefix (default ``fig4`` + ``fig11``);
    ``budget`` caps the number of evaluated trials.  ``backend`` /
    ``jobs`` / ``run_dir`` mean exactly what they mean
    for :func:`submit` — trials are ordinary sweep shards, and with a
    ``run_dir`` a killed calibration re-run with the same arguments
    resumes from its per-round checkpoints.  With ``out_dir`` the
    winning candidate is persisted as a versioned calibrated-params
    artifact (plus sidecar manifest and full trial log) via
    :func:`write_calibration` — into a fresh directory, never over an
    existing file.

    >>> from repro import api
    >>> report = api.calibrate(
    ...     {"axes": [{"param": "software.flush_base",
    ...                "low_ns": 35, "high_ns": 55, "step_ns": 10}]},
    ...     targets=["fig11.netdimm_total_us.64B"], budget=2)
    >>> report.best.targets_total
    1
    """
    from repro.calib import calibrate as _calibrate
    from repro.calib import write_calibration

    if isinstance(space, str):
        with open(space, "r", encoding="utf-8") as handle:
            space = json.load(handle)
    config = SweepConfig(backend=backend, jobs=jobs, run_dir=run_dir)
    report = _calibrate(
        space,
        targets=targets,
        budget=budget,
        base_seed=base_seed,
        config=config,
    )
    if out_dir is not None:
        write_calibration(report, out_dir)
    return report


def diff_artifacts(
    current: Mapping[str, Any],
    baseline: Mapping[str, Any],
    tolerance: float = 0.0,
    allow_partial: bool = False,
) -> ArtifactDiff:
    """Metric-by-metric comparison of two experiment artifacts
    (:func:`repro.experiments.harness.diff_artifacts` argument order:
    current first, baseline second).  Artifacts carrying shard
    failures are refused unless ``allow_partial``."""
    from repro.experiments.harness import diff_artifacts as _diff_artifacts

    return _diff_artifacts(current, baseline, tolerance, allow_partial)


def format_report(result: Union[ScenarioResult, Job]) -> str:
    """The human-readable report of a :class:`ScenarioResult` or of a
    completed job whose kind owner defines ``format_job_report`` (an
    experiment or scenario job).

    A job with failed or pending shards raises :class:`JobError` naming
    them; any other job kind raises :class:`TypeError`.
    """
    from repro.scenario.builder import ScenarioResult
    from repro.scenario.builder import format_report as _format_scenario_report

    if isinstance(result, ScenarioResult):
        return _format_scenario_report(result)
    render = None
    if isinstance(result, Job) and result.kind in KIND_OWNERS:
        render = getattr(kind_owner(result.kind), "format_job_report", None)
    if render is None:
        raise TypeError(
            f"cannot format a {type(result).__name__}; expected "
            "ScenarioResult or a completed experiment or scenario Job"
        )
    failures = result.failures()
    if failures:
        lines = "\n  ".join(failure.summary() for failure in failures)
        raise JobError(
            f"{len(failures)} {result.kind} shard(s) failed:\n  {lines}"
        )
    pending = len(result.tasks) - len(result.outcomes())
    if pending:
        raise JobError(f"{pending} shard(s) still pending; run the job first")
    return render(result)
