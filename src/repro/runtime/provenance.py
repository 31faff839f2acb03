"""Versioned provenance manifests for completed (or interrupted) sweeps.

The manifest answers "where did this artifact come from?" without
contaminating the artifact itself: worker identities, wall-clock
timings, git revision, and per-shard status are all machine- and
run-dependent, so they live in this *sidecar* document (the Snippet 3
rule: never fold nondeterministic provenance into the deterministic
result).  Serial, pooled, and distributed runs of the same job emit
byte-identical artifacts and *different* manifests — that is the
design, not a bug.

Schema (``netdimm-repro/provenance-manifest`` v1)::

    {
      "schema": ..., "schema_version": 1,
      "job": {"kind": ..., "names": [...], "base_seed": ...,
              "spec_sha256": ...},        # hash of the task list
      "code": {"git_rev": ..., "repro_version": ..., "python": ...},
      "run": {"created_utc": ..., "backend": ..., "status":
              "complete" | "partial", "shards_done": N,
              "shards_failed": N},
      "shards": [{"task_id", "index", "seed", "status",
                  "wall_seconds", "events_fired", "worker"}, ...]
    }
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Sequence

from repro.runtime.tasks import Outcome, ShardResult, Task

__all__ = [
    "MANIFEST_SCHEMA",
    "MANIFEST_SCHEMA_VERSION",
    "build_manifest",
    "spec_sha256",
    "git_revision",
]

MANIFEST_SCHEMA = "netdimm-repro/provenance-manifest"
MANIFEST_SCHEMA_VERSION = 1


def spec_sha256(tasks: Sequence[Task]) -> str:
    """A stable hash of the job's full task list (the sweep's identity)."""
    blob = json.dumps(
        [task.to_dict() for task in tasks], sort_keys=True
    ).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def git_revision() -> str:
    """The working tree's commit hash, or ``"unknown"`` outside git."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    revision = out.stdout.strip()
    return revision if out.returncode == 0 and revision else "unknown"


def build_manifest(
    job: Dict[str, Any],
    tasks: Sequence[Task],
    outcomes: Sequence[Outcome],
    backend: str,
) -> Dict[str, Any]:
    """Assemble the provenance manifest for one job's outcomes."""
    import platform
    from datetime import datetime, timezone

    from repro import __version__

    shards: List[Dict[str, Any]] = []
    done = failed = 0
    for outcome in sorted(outcomes, key=lambda o: o.index):
        entry: Dict[str, Any] = {
            "task_id": outcome.task_id,
            "index": outcome.index,
            "seed": outcome.seed,
            "wall_seconds": round(outcome.wall_seconds, 6),
            "started_at": round(outcome.started_at, 6),
            "worker": outcome.worker,
        }
        if isinstance(outcome, ShardResult):
            done += 1
            entry["status"] = "done"
            entry["events_fired"] = outcome.events_fired
        else:
            failed += 1
            entry["status"] = "failed"
            entry["exception_type"] = outcome.exception_type
        shards.append(entry)
    pending = len(tasks) - done - failed
    status = "complete" if failed == 0 and pending == 0 else "partial"
    return {
        "schema": MANIFEST_SCHEMA,
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "job": {
            "kind": job.get("kind", ""),
            "names": job.get("names", []),
            "base_seed": job.get("base_seed", 0),
            "spec_sha256": spec_sha256(tasks),
        },
        "code": {
            "git_rev": git_revision(),
            "repro_version": __version__,
            "python": platform.python_version(),
        },
        "run": {
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "backend": backend,
            "status": status,
            "shards_done": done,
            "shards_failed": failed,
            "shards_pending": pending,
        },
        "shards": shards,
    }
