"""The sweep worker: claim → execute → checkpoint, until the queue dries.

A worker is any process (this machine or another sharing the
filesystem) running :func:`work` on a run directory::

    python -m repro sweep-worker RUNDIR

It claims tasks one at a time through the atomic-rename broker
(:class:`~repro.runtime.state.RunState`), executes each with the
per-shard failure fence (:func:`repro.runtime.tasks.execute`), and
checkpoints every outcome before claiming the next.  A worker holds at
most one claim, so a SIGKILL costs the job at most one shard of
progress — exactly the shard ``resume`` recovers.

Workers are deliberately dumb: no coordination, no heartbeats, no
result aggregation.  The parent (or a later ``resume``) assembles the
artifact from the checkpoint files; a worker that finds an empty queue
simply exits 0.
"""

from __future__ import annotations

from typing import Optional

from repro.runtime.state import RunState
from repro.runtime.tasks import execute

__all__ = ["work"]


def work(run_dir: str, max_tasks: Optional[int] = None) -> int:
    """Drain the run directory's queue; returns the shard count executed.

    ``max_tasks`` bounds the number of claims (tests use it to leave
    work behind deliberately); None means run until the queue is empty.
    """
    state = RunState.load(run_dir)
    executed = 0
    while max_tasks is None or executed < max_tasks:
        task = state.claim_next()
        if task is None:
            break
        state.record(execute(task))
        executed += 1
    return executed
