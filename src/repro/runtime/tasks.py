"""The unit of sweep work: a named, seeded, JSON-describable task.

A job decomposes into :class:`Task` shards.  Each task is *data* — a
kind name plus JSON-safe arguments — never a closure, so the same task
file can be executed in this process, by a forked pool worker, or by a
worker process on another machine reading a shared run directory.

:data:`KIND_OWNERS` is the one table of kinds: it names the module
that owns each kind, and :func:`kind_owner` imports that module the
first time a process meets the kind.  :func:`execute` meters the
owner's ``run_task(args)`` call — wall seconds, simulator events
fired, worker identity — and returns a :class:`ShardResult`, or a
structured :class:`ShardFailure` when ``run_task`` raises.  Failures
are *recorded, never fabricated into placeholder results*: a failed
shard carries its exception type, message, traceback, shard index,
seed, and duration, and the artifact layer refuses to treat a partial
run as complete unless explicitly allowed.

Payloads cross process and checkpoint boundaries through
:func:`encode_payload` / :func:`decode_payload`: JSON-native values
pass through untouched (so checkpoint files stay greppable); anything
else — e.g. fig11's ``OneWayResult`` dataclasses — rides as a tagged,
base64-wrapped pickle.  Either way ``decode(encode(x))`` returns an
object equal to ``x``, which is what keeps resumed and uninterrupted
runs byte-identical.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Dict, Union

from repro.runtime.seeds import derive

__all__ = [
    "Task",
    "ShardResult",
    "ShardFailure",
    "KIND_OWNERS",
    "kind_owner",
    "execute",
    "encode_payload",
    "decode_payload",
    "worker_identity",
]

_PICKLE_TAG = "__pickle_b64__"

KIND_OWNERS: Dict[str, str] = {
    "calib": "repro.calib.evaluate",
    "experiment": "repro.experiments.harness",
    "scenario": "repro.scenario.runner",
}
"""Task kind -> the module that owns it.

An owner defines ``run_task(args)`` (one shard's payload) and
``assemble(meta, outcomes)`` (the job's artifact document from every
outcome, in task order).  It may also define ``check_plan(meta,
tasks)``, which :meth:`~repro.runtime.job.Job.from_state` calls to
refuse a stored task list this build would not plan, and
``format_job_report(job)``, which :func:`repro.api.format_report`
calls."""


def kind_owner(kind: str) -> ModuleType:
    """The owner module of a task kind, imported on first use."""
    module = KIND_OWNERS.get(kind)
    if module is None:
        raise ValueError(
            f"unknown task kind {kind!r}; known: {sorted(KIND_OWNERS)}"
        )
    return importlib.import_module(module)


@dataclass(frozen=True)
class Task:
    """One shard of a job: kind, stable id, JSON-safe args."""

    kind: str
    task_id: str
    """Names the sweep point (``"fig5[3]"``) — also the seed param id."""

    args: Dict[str, Any] = field(default_factory=dict)
    index: int = 0
    """Position in the job's task list — merge order."""

    base_seed: int = 0

    @property
    def seed(self) -> int:
        """The shard's derived trial seed (never interpreter ``hash``)."""
        return derive(self.task_id, self.base_seed)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "task_id": self.task_id,
            "args": self.args,
            "index": self.index,
            "base_seed": self.base_seed,
        }

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "Task":
        return cls(
            kind=document["kind"],
            task_id=document["task_id"],
            args=dict(document.get("args") or {}),
            index=int(document.get("index", 0)),
            base_seed=int(document.get("base_seed", 0)),
        )


@dataclass(frozen=True)
class ShardResult:
    """One completed shard: its payload plus run metadata.

    Only ``payload`` enters the deterministic artifact; the metadata
    feeds the provenance manifest.
    """

    task_id: str
    index: int
    seed: int
    payload: Any
    wall_seconds: float
    events_fired: int
    worker: str
    started_at: float = 0.0
    """Unix start time — provenance/timeline only, never results."""

    @property
    def ok(self) -> bool:
        return True

    def to_dict(self) -> Dict[str, Any]:
        return {
            "status": "done",
            "task_id": self.task_id,
            "index": self.index,
            "seed": self.seed,
            "payload": encode_payload(self.payload),
            "wall_seconds": round(self.wall_seconds, 6),
            "events_fired": self.events_fired,
            "worker": self.worker,
            "started_at": round(self.started_at, 6),
        }

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "ShardResult":
        return cls(
            task_id=document["task_id"],
            index=int(document["index"]),
            seed=int(document["seed"]),
            payload=decode_payload(document["payload"]),
            wall_seconds=float(document["wall_seconds"]),
            events_fired=int(document["events_fired"]),
            worker=document.get("worker", ""),
            started_at=float(document.get("started_at", 0.0)),
        )


@dataclass(frozen=True)
class ShardFailure:
    """One failed shard, as structured diagnostics — never a fabricated
    placeholder result (SNIPPETS.md Snippet 2's TrialResult rule)."""

    task_id: str
    index: int
    seed: int
    exception_type: str
    message: str
    traceback: str
    wall_seconds: float
    worker: str
    started_at: float = 0.0

    @property
    def ok(self) -> bool:
        return False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "status": "failed",
            "task_id": self.task_id,
            "index": self.index,
            "seed": self.seed,
            "exception_type": self.exception_type,
            "message": self.message,
            "traceback": self.traceback,
            "wall_seconds": round(self.wall_seconds, 6),
            "worker": self.worker,
            "started_at": round(self.started_at, 6),
        }

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "ShardFailure":
        return cls(
            task_id=document["task_id"],
            index=int(document["index"]),
            seed=int(document["seed"]),
            exception_type=document["exception_type"],
            message=document.get("message", ""),
            traceback=document.get("traceback", ""),
            wall_seconds=float(document.get("wall_seconds", 0.0)),
            worker=document.get("worker", ""),
            started_at=float(document.get("started_at", 0.0)),
        )

    def summary(self) -> str:
        return (
            f"shard {self.index} ({self.task_id}, seed {self.seed}): "
            f"{self.exception_type}: {self.message} "
            f"after {self.wall_seconds:.3f}s"
        )


Outcome = Union[ShardResult, ShardFailure]


def outcome_from_dict(document: Dict[str, Any]) -> Outcome:
    """Rebuild either outcome kind from its checkpoint document."""
    if document.get("status") == "failed":
        return ShardFailure.from_dict(document)
    return ShardResult.from_dict(document)


def worker_identity() -> str:
    """``host:pid`` — who executed a shard (provenance, not results)."""
    import socket

    return f"{socket.gethostname()}:{os.getpid()}"


def execute(task: Task) -> Outcome:
    """Run one task in this process; meter it; catch its failure.

    The ``run_task`` call is fenced: an exception becomes a
    :class:`ShardFailure` carrying the exception type, shard index,
    derived seed, duration, and traceback — one bad sweep point never
    aborts (or silently poisons) the whole job.
    """
    from repro.sim import engine

    run_task = kind_owner(task.kind).run_task
    events_before = engine.process_events_total()
    started_at = time.time()
    start = time.perf_counter()
    try:
        payload = run_task(task.args)
    except Exception as error:  # noqa: BLE001 — the fence is the point
        import traceback

        wall = time.perf_counter() - start
        return ShardFailure(
            task_id=task.task_id,
            index=task.index,
            seed=task.seed,
            exception_type=type(error).__name__,
            message=str(error),
            traceback=traceback.format_exc(),
            wall_seconds=wall,
            worker=worker_identity(),
            started_at=started_at,
        )
    wall = time.perf_counter() - start
    return ShardResult(
        task_id=task.task_id,
        index=task.index,
        seed=task.seed,
        payload=payload,
        wall_seconds=wall,
        events_fired=engine.process_events_total() - events_before,
        worker=worker_identity(),
        started_at=started_at,
    )


def encode_payload(payload: Any) -> Any:
    """A JSON-safe encoding of an arbitrary shard payload.

    JSON-native values (after a round-trip check) pass through as-is;
    everything else is pickled and base64-tagged.  A dict that happens
    to contain the tag key is pickled too, so decoding is unambiguous.
    """
    import json

    if isinstance(payload, dict) and _PICKLE_TAG in payload:
        pass  # ambiguous as plain JSON — fall through to pickle
    else:
        try:
            if json.loads(json.dumps(payload)) == payload:
                return payload
        except (TypeError, ValueError):
            pass
    import base64
    import pickle

    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return {_PICKLE_TAG: base64.b64encode(blob).decode("ascii")}


def decode_payload(encoded: Any) -> Any:
    """Invert :func:`encode_payload`."""
    if isinstance(encoded, dict) and _PICKLE_TAG in encoded:
        import base64
        import pickle

        return pickle.loads(base64.b64decode(encoded[_PICKLE_TAG]))
    return encoded
