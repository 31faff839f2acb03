"""Execution backends: where a job's shards actually run.

Two backends, one contract — given the job's task list they produce
the *same* outcomes in the *same* (task-index) order, so the artifact
assembled from them is byte-identical regardless of which one ran:

``pool``
    At ``jobs=1`` executes shards inline, one at a time, in this
    process — the determinism reference.  Above that it fans shards
    across a ``ProcessPoolExecutor`` of ``jobs`` forked processes;
    ``executor.map`` preserves submission order, so merge order never
    depends on completion order.

``workers``
    Spawns ``jobs`` independent ``python -m repro sweep-worker``
    processes over a shared run directory.  Nothing but the filesystem
    coordinates them — which is exactly why the same command pointed at
    a network filesystem shards a sweep across *machines*.  Requires a
    ``run_dir``.

Either backend checkpoints through :class:`~repro.runtime.state.RunState`
when the sweep names a run directory (``workers`` always does); the
backends only ever execute the tasks they are handed, so a resume can
pass just the pending shards.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Type

from repro.runtime.state import RunState
from repro.runtime.tasks import Outcome, Task, execute

if TYPE_CHECKING:
    import subprocess

__all__ = [
    "SweepConfig",
    "Backend",
    "ProcessPoolBackend",
    "WorkerPoolBackend",
    "BACKENDS",
    "make_backend",
]


@dataclass(frozen=True, kw_only=True)
class SweepConfig:
    """How to run a sweep: which backend, how wide, where to checkpoint.

    Keyword-only on purpose: call sites read as
    ``SweepConfig(backend="pool", jobs=4)``, and new knobs never
    reshuffle positional arguments.
    """

    backend: str = "pool"
    jobs: int = 1
    """Width: pool processes (1 = inline) or detached worker processes."""

    run_dir: Optional[str] = None
    """Checkpoint/resume directory; required by the ``workers`` backend."""

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"choose from {sorted(BACKENDS)}"
            )
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")


class Backend:
    """Base: run tasks, checkpoint each outcome if a RunState is given."""

    def __init__(self, config: SweepConfig):
        self.config = config

    def run(
        self, tasks: Sequence[Task], state: Optional[RunState] = None
    ) -> List[Outcome]:
        """Execute ``tasks``; return their outcomes in task order."""
        raise NotImplementedError

    @staticmethod
    def _checkpoint(
        outcome: Outcome, state: Optional[RunState]
    ) -> Outcome:
        if state is not None:
            state.record(outcome)
        return outcome


class ProcessPoolBackend(Backend):
    """Inline at ``jobs=1``; else ``jobs`` forked processes on this
    machine via ProcessPoolExecutor."""

    def run(
        self, tasks: Sequence[Task], state: Optional[RunState] = None
    ) -> List[Outcome]:
        tasks = list(tasks)
        if self.config.jobs == 1 or len(tasks) <= 1:
            # A one-wide pool is pure fork overhead; run inline.
            return [self._checkpoint(execute(task), state) for task in tasks]
        from concurrent.futures import ProcessPoolExecutor

        width = min(self.config.jobs, len(tasks))
        with ProcessPoolExecutor(max_workers=width) as executor:
            # map preserves submission order: the merge sees shard i
            # at position i no matter which worker finished first.
            return [
                self._checkpoint(outcome, state)
                for outcome in executor.map(execute, tasks)
            ]


class WorkerPoolBackend(Backend):
    """``jobs`` independent sweep-worker processes over a run dir.

    The parent does no execution: it launches the workers, waits, and
    reads the checkpoints back.  Workers coordinate purely through the
    run directory's atomic renames, so extra workers — on this machine
    or any machine sharing the filesystem — can join the same run
    directory at any time.
    """

    def run(
        self, tasks: Sequence[Task], state: Optional[RunState] = None
    ) -> List[Outcome]:
        if state is None:
            raise ValueError("the workers backend requires a run_dir")
        tasks = list(tasks)
        if not tasks:
            return []
        wanted = {task.index for task in tasks}
        procs = [self._spawn(state.run_dir) for _ in range(self.config.jobs)]
        failures = []
        for proc in procs:
            stdout, stderr = proc.communicate()
            if proc.returncode != 0:
                failures.append(
                    f"worker pid {proc.pid} exited {proc.returncode}: "
                    f"{(stderr or stdout).strip()}"
                )
        # Dead workers are survivable as long as the queue drained —
        # surviving siblings (or a later resume) pick up their claims.
        remaining = [t for t in state.pending() if t.index in wanted]
        if remaining:
            detail = "; ".join(failures) if failures else "queue not drained"
            raise RuntimeError(
                f"worker pool left {len(remaining)} shard(s) unfinished "
                f"({detail}); resume with: python -m repro resume "
                f"{state.run_dir}"
            )
        return [
            outcome
            for outcome in state.outcomes()
            if outcome.index in wanted
        ]

    @staticmethod
    def _spawn(run_dir: str) -> "subprocess.Popen[str]":
        import subprocess

        env = dict(os.environ)
        src_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        # Workers must import repro the same way we did, even when the
        # parent was launched via PYTHONPATH=src rather than an install.
        parts = [src_root] + [
            p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p
        ]
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep-worker", run_dir],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )


BACKENDS: Dict[str, Type[Backend]] = {
    "pool": ProcessPoolBackend,
    "workers": WorkerPoolBackend,
}


def make_backend(config: SweepConfig) -> Backend:
    """The configured backend instance (config validates the name)."""
    return BACKENDS[config.backend](config)
