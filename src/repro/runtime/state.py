"""The run directory: durable, resumable per-shard sweep state.

Every sweep that names a ``run_dir`` (and every broker run, which
requires one) checkpoints through this layout::

    run_dir/
      job.json           # the job: kind, task list, base seed, spec hash
      queue/0007.json    # tasks not yet claimed by any worker
      claims/0007.json   # claimed: worker identity + claim timestamp
      done/0007.json     # completed: metadata + encoded payload
      failed/0007.json   # structured ShardFailure diagnostics
      manifest.json      # provenance manifest, written at completion

The life of a shard is a file moving between those directories, and
every move is an atomic ``os.rename`` on the same filesystem — which
is the whole concurrency story.  Claiming renames ``queue/N`` to
``claims/N``: exactly one of any number of racing workers (processes
here, machines on a shared filesystem) wins the rename; the losers get
``FileNotFoundError`` and try the next file.  Completion writes a temp
file and renames it into ``done/``; a reader never sees a half-written
checkpoint.

Resume is therefore a directory scan: ``done/`` and ``failed/`` shards
are final; anything still in ``queue/`` — plus *stale* claims, i.e.
claims whose worker died before writing ``done/`` — is re-enqueued and
re-executed.  Re-execution is safe because tasks are deterministic
(fresh simulator, derived seed): a killed-and-resumed run assembles
the byte-identical artifact an uninterrupted run would have.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.runtime.tasks import (
    Outcome,
    Task,
    outcome_from_dict,
    worker_identity,
)

__all__ = ["RunState", "JOB_SCHEMA", "JOB_SCHEMA_VERSION"]

JOB_SCHEMA = "netdimm-repro/sweep-job"
JOB_SCHEMA_VERSION = 1

_QUEUE = "queue"
_CLAIMS = "claims"
_DONE = "done"
_FAILED = "failed"


def _shard_name(index: int) -> str:
    return f"{index:05d}.json"


def _write_atomic(path: str, document: Dict[str, Any]) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


@dataclass
class RunState:
    """One sweep job's on-disk state machine."""

    run_dir: str
    job: Dict[str, Any] = field(default_factory=dict)

    # -- creation / loading ---------------------------------------------------

    @classmethod
    def create(
        cls, run_dir: str, job: Dict[str, Any], tasks: List[Task]
    ) -> "RunState":
        """Initialize a fresh run directory and enqueue every task.

        Refuses a directory that already holds a job — a run directory
        is one job's history; resuming it is :meth:`load` +
        :meth:`recover_stale_claims`, never re-creation.
        """
        job_path = os.path.join(run_dir, "job.json")
        if os.path.exists(job_path):
            raise ValueError(
                f"{run_dir}: already holds a sweep job "
                "(use resume, or choose a fresh --run-dir)"
            )
        os.makedirs(run_dir, exist_ok=True)
        for sub in (_QUEUE, _CLAIMS, _DONE, _FAILED):
            os.makedirs(os.path.join(run_dir, sub), exist_ok=True)
        document = {
            "schema": JOB_SCHEMA,
            "schema_version": JOB_SCHEMA_VERSION,
            **job,
            "tasks": [task.to_dict() for task in tasks],
        }
        state = cls(run_dir=run_dir, job=document)
        for task in tasks:
            _write_atomic(state._path(_QUEUE, task.index), task.to_dict())
        # The job file lands last: its presence means the queue is
        # fully populated, so a worker can start the moment it exists.
        _write_atomic(job_path, document)
        return state

    @classmethod
    def load(cls, run_dir: str) -> "RunState":
        job_path = os.path.join(run_dir, "job.json")
        try:
            with open(job_path, "r", encoding="utf-8") as handle:
                job = json.load(handle)
        except FileNotFoundError:
            raise ValueError(f"{run_dir}: no sweep job here (missing job.json)")
        except (OSError, ValueError) as error:
            raise ValueError(f"{run_dir}: unreadable job.json ({error})")
        if job.get("schema") != JOB_SCHEMA:
            raise ValueError(f"{run_dir}: job.json is not a {JOB_SCHEMA}")
        version = job.get("schema_version")
        if version != JOB_SCHEMA_VERSION:
            raise ValueError(
                f"{run_dir}: job schema_version {version!r} unsupported "
                f"(this build reads version {JOB_SCHEMA_VERSION})"
            )
        return cls(run_dir=run_dir, job=job)

    # -- paths ----------------------------------------------------------------

    def _dir(self, sub: str) -> str:
        return os.path.join(self.run_dir, sub)

    def _path(self, sub: str, index: int) -> str:
        return os.path.join(self.run_dir, sub, _shard_name(index))

    def _indices(self, sub: str) -> List[int]:
        try:
            names = os.listdir(self._dir(sub))
        except FileNotFoundError:
            return []
        return sorted(
            int(name[:-5]) for name in names if name.endswith(".json")
        )

    # -- the task list --------------------------------------------------------

    def tasks(self) -> List[Task]:
        return [Task.from_dict(entry) for entry in self.job.get("tasks", [])]

    # -- worker side ----------------------------------------------------------

    def claim_next(self) -> Optional[Task]:
        """Atomically claim one queued task; None when the queue is empty.

        The claim is the ``queue → claims`` rename: one winner per
        shard, no locks, and the claim file records who took it (the
        provenance manifest's worker identity) and when.
        """
        for index in self._indices(_QUEUE):
            source = self._path(_QUEUE, index)
            target = self._path(_CLAIMS, index)
            try:
                os.rename(source, target)
            except FileNotFoundError:
                continue  # another worker won this shard
            with open(target, "r", encoding="utf-8") as handle:
                task = Task.from_dict(json.load(handle))
            _write_atomic(
                target,
                {
                    **task.to_dict(),
                    "claimed_by": worker_identity(),
                    "claimed_at": time.time(),
                },
            )
            return task
        return None

    def record(self, outcome: Outcome) -> None:
        """Checkpoint one outcome and clear its claim or queue entry.

        A worker's shard sits in ``claims/``; a shard executed in
        process (the ``pool`` backend) never left ``queue/``.  Either
        entry goes, so no worker can claim a finished shard again.
        """
        sub = _DONE if outcome.ok else _FAILED
        _write_atomic(self._path(sub, outcome.index), outcome.to_dict())
        for entry in (_CLAIMS, _QUEUE):
            try:
                os.remove(self._path(entry, outcome.index))
            except FileNotFoundError:
                pass

    # -- resume / status ------------------------------------------------------

    def recover_stale_claims(self) -> List[int]:
        """Re-enqueue claims whose worker never finished.

        Called on resume, when no worker is live: every claim without
        a matching ``done``/``failed`` checkpoint is a shard some
        killed worker took to its grave.  The ``claims → queue``
        rename puts it back up for grabs.  A queue entry of a finished
        shard (a crash inside :meth:`record`) is dropped.
        """
        recovered = []
        finished = set(self._indices(_DONE)) | set(self._indices(_FAILED))
        for index in finished.intersection(self._indices(_QUEUE)):
            os.remove(self._path(_QUEUE, index))
        for index in self._indices(_CLAIMS):
            if index in finished:
                os.remove(self._path(_CLAIMS, index))
                continue
            os.rename(self._path(_CLAIMS, index), self._path(_QUEUE, index))
            recovered.append(index)
        return recovered

    def retry_failed(self) -> List[int]:
        """Re-enqueue failed shards (``resume --retry-failed``)."""
        tasks = {task.index: task for task in self.tasks()}
        retried = self._indices(_FAILED)
        for index in retried:
            os.remove(self._path(_FAILED, index))
            _write_atomic(self._path(_QUEUE, index), tasks[index].to_dict())
        return retried

    def pending(self) -> List[Task]:
        """Tasks with no final checkpoint yet (queued or claimed)."""
        finished = set(self._indices(_DONE)) | set(self._indices(_FAILED))
        return [task for task in self.tasks() if task.index not in finished]

    def outcomes(self) -> List[Outcome]:
        """Every final outcome, in task (= merge) order."""
        collected: List[Outcome] = []
        for sub in (_DONE, _FAILED):
            for index in self._indices(sub):
                with open(self._path(sub, index), "r", encoding="utf-8") as handle:
                    collected.append(outcome_from_dict(json.load(handle)))
        return sorted(collected, key=lambda outcome: outcome.index)

    def counts(self) -> Dict[str, int]:
        total = len(self.job.get("tasks", []))
        done = len(self._indices(_DONE))
        failed = len(self._indices(_FAILED))
        claimed = len(self._indices(_CLAIMS))
        return {
            "total": total,
            "done": done,
            "failed": failed,
            "claimed": claimed,
            "queued": len(self._indices(_QUEUE)),
            "pending": total - done - failed,
        }

    def is_complete(self) -> bool:
        counts = self.counts()
        return counts["pending"] == 0

    def write_manifest(self, manifest: Dict[str, Any]) -> str:
        path = os.path.join(self.run_dir, "manifest.json")
        _write_atomic(path, manifest)
        return path

    def read_manifest(self) -> Optional[Dict[str, Any]]:
        path = os.path.join(self.run_dir, "manifest.json")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None
