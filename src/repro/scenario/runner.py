"""Run scenario spec files as a sweep job, serially or fanned out.

Each spec is an independent simulation, so a scenario run is a natural
:mod:`repro.runtime` sweep: :func:`scenario_tasks` plans one task per
spec, :func:`submit_scenarios` wraps them in a :class:`~repro.runtime.Job`
that runs on any backend — inline, a process pool (``--jobs N``), or a
detached worker pool over a resumable run directory.  Per-scenario
results are deterministic and the artifact is assembled in input
order, so the artifacts from every backend are byte-identical — pinned
by the scenario determinism tests.

``Job.result()`` assembles the scenario artifact; :func:`format_job_report`
and :func:`job_trace` read the same shard payloads for the text reports
and — for a ``trace`` job — the merged Chrome-trace document.  A chaos
run gives every spec a :class:`~repro.faults.FaultSpec` (built from CLI
flags, or the spec file's own ``faults`` section, or an all-zero
default that still arms the recovery path).  Fault verdicts are keyed
on the spec seed and packet identity — never on process layout — so
chaos artifacts are backend-independent too.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.faults import FaultSpec, LinkFaultSpec, LinkKillSpec, RecoverySpec
from repro.runtime.backends import SweepConfig
from repro.runtime.job import Job
from repro.runtime.tasks import (
    Outcome,
    ShardResult,
    Task,
    encode_payload,
    decode_payload,
)
from repro.scenario.builder import (
    SCENARIO_SCHEMA,
    SCENARIO_SCHEMA_VERSION,
    build_scenario,
    format_report,
)
from repro.scenario.spec import ScenarioSpec
from repro.telemetry import SpanTracer, chrome_trace


def _run_one(
    spec: ScenarioSpec,
    faults: Optional[FaultSpec] = None,
    chaos: bool = False,
    trace: bool = False,
) -> Tuple[Dict[str, Any], Dict[str, Any], str, Optional[Dict[str, Any]]]:
    """One spec → (spec, result, report, trace), all JSON-safe.

    Chaos mode: ``faults`` (when given) replaces the spec's own
    ``faults`` section; when neither exists, a default
    :class:`FaultSpec` — zero fault probability, recovery armed — is
    attached so the run exercises the reliable-delivery path end to
    end.
    """
    if chaos:
        if faults is not None:
            spec = replace(spec, faults=faults)
        elif spec.faults is None:
            spec = replace(spec, faults=FaultSpec())
    tracer = SpanTracer() if trace else None
    scenario = build_scenario(spec, tracer=tracer)
    result = scenario.run()
    payload = tracer.to_payload() if tracer is not None else None
    return spec.to_dict(), result.to_dict(), format_report(result), payload


# ---------------------------------------------------------------------------
# The "scenario" runtime kind (this module is its owner): one task per
# spec, any backend.
# ---------------------------------------------------------------------------


def run_task(args: Dict[str, Any]) -> Any:
    """Run one scenario task from its JSON args.

    A task names its spec by file (``"path"``) or carries it inline
    (``"spec"``, a :meth:`ScenarioSpec.to_dict` document); the optional
    fault overlay rides as an encoded payload (FaultSpec is not
    JSON-native).
    """
    if args.get("spec") is not None:
        spec = ScenarioSpec.from_dict(args["spec"])
    else:
        spec = ScenarioSpec.load(args["path"])
    faults = args.get("faults")
    return _run_one(
        spec,
        faults=decode_payload(faults) if faults is not None else None,
        chaos=bool(args.get("chaos")),
        trace=bool(args.get("trace")),
    )


def scenario_tasks(
    sources: Sequence[Union[str, ScenarioSpec]],
    chaos: bool = False,
    faults: Optional[FaultSpec] = None,
    trace: bool = False,
) -> List[Task]:
    """One runtime task per spec (file path or in-memory spec).

    Scenario names key the artifact, so a name appearing twice raises
    :class:`ValueError` here — before any shard runs.
    """
    names = set()
    tasks: List[Task] = []
    for index, source in enumerate(sources):
        if isinstance(source, ScenarioSpec):
            args: Dict[str, Any] = {"spec": source.to_dict()}
            label = name = source.name
        else:
            args = {"path": source}
            label = os.path.basename(source)
            name = ScenarioSpec.load(source).name
        if name in names:
            raise ValueError(f"duplicate scenario name {name!r} in inputs")
        names.add(name)
        args["chaos"] = chaos
        args["trace"] = trace
        args["faults"] = encode_payload(faults) if faults is not None else None
        tasks.append(
            Task(
                kind="scenario",
                task_id=f"scenario[{index}:{label}]",
                args=args,
                index=index,
            )
        )
    return tasks


def submit_scenarios(
    sources: Sequence[Union[str, ScenarioSpec]],
    config: Optional[SweepConfig] = None,
    chaos: bool = False,
    faults: Optional[FaultSpec] = None,
    trace: bool = False,
) -> Job:
    """A scenario sweep as a runtime :class:`Job` (not yet run).

    A fault overlay implies a chaos run.  ``Job.result()`` assembles
    the versioned scenario artifact — byte-identical across backends;
    ``Job.manifest()`` the provenance sidecar.
    """
    tasks = scenario_tasks(
        sources, chaos=chaos or faults is not None, faults=faults, trace=trace
    )
    return Job(
        kind="scenario",
        meta={"names": [task.task_id for task in tasks], "base_seed": 0},
        tasks=tasks,
        config=config,
    )


def assemble(
    meta: Dict[str, Any], outcomes: Sequence[Outcome]
) -> Dict[str, Any]:
    """Assemble the scenario artifact from shard payloads (input order)."""
    return {
        "schema": SCENARIO_SCHEMA,
        "schema_version": SCENARIO_SCHEMA_VERSION,
        "scenarios": {
            spec["name"]: {"spec": spec, "result": result}
            for spec, result, _report, _trace in _payloads(outcomes)
        },
    }


def _payloads(outcomes: Sequence[Outcome]) -> List[Any]:
    """The ``(spec, result, report, trace)`` payloads, in input order."""
    return [o.payload for o in outcomes if isinstance(o, ShardResult)]


def format_job_report(job: Job) -> str:
    """A completed scenario job's text reports, in input order."""
    return "\n\n".join(
        report for _spec, _result, report, _trace in _payloads(job.outcomes())
    )


def job_trace(job: Job) -> Optional[Dict[str, Any]]:
    """The merged Chrome-trace document of a ``trace`` scenario job.

    One process per scenario, pids in input order — so the document is
    byte-identical across backends.  ``None`` when the job ran untraced.
    """
    entries = [
        (spec["name"], trace)
        for spec, _result, _report, trace in _payloads(job.outcomes())
        if trace is not None
    ]
    return chrome_trace(entries) if entries else None


def parse_kill(text: str) -> LinkKillSpec:
    """Parse a ``--kill`` argument: ``LINK@AT_NS`` or ``LINK@AT_NS..RESTORE_NS``."""
    link, sep, when = text.rpartition("@")
    if not sep or not link:
        raise ValueError(
            f"bad --kill {text!r} (expected LINK@AT_NS or LINK@AT_NS..RESTORE_NS)"
        )
    restore: Optional[float] = None
    if ".." in when:
        at_text, _, restore_text = when.partition("..")
        restore = float(restore_text)
    else:
        at_text = when
    return LinkKillSpec(link=link, at_ns=float(at_text), restore_ns=restore)


def build_fault_overlay(
    drop: Optional[float] = None,
    corrupt: Optional[float] = None,
    switch_mode: Optional[str] = None,
    kills: Sequence[LinkKillSpec] = (),
    timeout_ns: Optional[float] = None,
    backoff: Optional[float] = None,
    budget: Optional[int] = None,
) -> FaultSpec:
    """Assemble the ``run-chaos`` CLI flags into one :class:`FaultSpec`.

    A field left ``None`` takes the :class:`FaultSpec` /
    :class:`RecoverySpec` / :class:`LinkFaultSpec` default.
    """
    link = _given(drop_probability=drop, corrupt_probability=corrupt)
    return FaultSpec(
        links=(LinkFaultSpec(link="*", **link),) if any(link.values()) else (),
        kills=tuple(kills),
        recovery=RecoverySpec(
            **_given(timeout_ns=timeout_ns, backoff=backoff, max_retransmits=budget)
        ),
        **_given(switch_drop_mode=switch_mode),
    )


def _given(**fields: Any) -> Dict[str, Any]:
    """The keyword arguments that were actually set (not ``None``)."""
    return {name: value for name, value in fields.items() if value is not None}
