"""repro.runtime — the distributed sweep execution service.

Everything a sweep needs to run somewhere other than "inline, here,
now": stable seed derivation (:mod:`~repro.runtime.seeds`), data-only
task shards with metered execution, structured failure capture and
the one table of task kinds (:mod:`~repro.runtime.tasks`), a
resumable on-disk run-directory state machine doubling as a
cross-process/cross-machine job broker
(:mod:`~repro.runtime.state`), execution backends
(:mod:`~repro.runtime.backends`), the worker loop
(:mod:`~repro.runtime.worker`), provenance manifests
(:mod:`~repro.runtime.provenance`), and the :class:`Job` handle tying
them together (:mod:`~repro.runtime.job`).

The contract that makes all of it composable: shards are deterministic
functions of their task description, so *any* backend — and any
interleaving of crashes and resumes — assembles the byte-identical
artifact.  See ``docs/runtime.md``.
"""

from repro.runtime.backends import (
    BACKENDS,
    Backend,
    ProcessPoolBackend,
    SweepConfig,
    WorkerPoolBackend,
    make_backend,
)
from repro.runtime.job import Job, JobError, collect, resume
from repro.runtime.provenance import (
    MANIFEST_SCHEMA,
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
)
from repro.runtime.seeds import derive
from repro.runtime.state import JOB_SCHEMA, JOB_SCHEMA_VERSION, RunState
from repro.runtime.tasks import (
    KIND_OWNERS,
    ShardFailure,
    ShardResult,
    Task,
    execute,
    kind_owner,
    worker_identity,
)

__all__ = [
    "BACKENDS",
    "Backend",
    "ProcessPoolBackend",
    "WorkerPoolBackend",
    "SweepConfig",
    "make_backend",
    "Job",
    "JobError",
    "collect",
    "resume",
    "KIND_OWNERS",
    "kind_owner",
    "derive",
    "Task",
    "ShardResult",
    "ShardFailure",
    "execute",
    "worker_identity",
    "RunState",
    "JOB_SCHEMA",
    "JOB_SCHEMA_VERSION",
    "MANIFEST_SCHEMA",
    "MANIFEST_SCHEMA_VERSION",
    "build_manifest",
]
