"""Benchmark-suite configuration.

Each benchmark regenerates one table or figure of the paper and prints
its report, so ``pytest benchmarks/ --benchmark-only`` doubles as the
full evaluation run.  The printed reports are the reproduction
deliverable; the timings tell you what each experiment costs.

Every bench session also appends a machine-readable record per test —
wall-clock seconds, simulator events fired, events/sec — to
``BENCH_runner.json`` at the repository root (via
:func:`repro.experiments.harness.append_bench_run`), accumulating the
perf trajectory that future optimization PRs are measured against.
Each run's meta also records the machine that produced it (cores,
interpreter, platform, git revision), so two runs that disagree can be
told apart by where they ran.
"""

import gc
import os
import pathlib
import platform
import time

import pytest

from repro.experiments.harness import append_bench_run
from repro.runtime.provenance import git_revision
from repro.sim import engine

BENCH_ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_runner.json"

_RECORDS = []

_RATE_OVERRIDE = {}


def report(title: str, text: str) -> None:
    """Print an experiment report under a visible banner."""
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}\n{text}")


def report_rate(events: int, wall_seconds: float) -> None:
    """Override the current test's metered (events, wall) pair.

    For cross-fidelity benches the raw events/sec of the fast lane is
    the wrong figure of merit — a hybrid run *avoids* firing events, so
    its throughput must be priced as "reference workload's events per
    second of hybrid wall-clock".  A bench test calls this with the
    effective pair; the ``_bench_record`` fixture substitutes it into
    the trajectory record for that test only.
    """
    _RATE_OVERRIDE["pending"] = (int(events), float(wall_seconds))


@pytest.fixture(autouse=True)
def _bench_record(request):
    """Meter every bench test: wall seconds, events fired, events/sec."""
    _RATE_OVERRIDE.pop("pending", None)
    # Collect leftovers from earlier tests before the timer starts, so
    # a short bench never pays GC debt run up by a big predecessor.
    gc.collect()
    events_before = engine.process_events_total()
    start = time.perf_counter()
    yield
    wall = time.perf_counter() - start
    events = engine.process_events_total() - events_before
    override = _RATE_OVERRIDE.pop("pending", None)
    if override is not None:
        events, wall = override
    _RECORDS.append(
        {
            "test": request.node.name,
            "wall_seconds": round(wall, 6),
            "events_fired": events,
            "events_per_sec": round(events / wall, 3) if wall > 0 else 0.0,
        }
    )


def machine_meta() -> dict:
    """The machine context a trajectory run records beside its numbers."""
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count()
        ),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": git_revision(),
    }


def pytest_sessionfinish(session, exitstatus):
    """Append this session's records to the perf-trajectory artifact."""
    if _RECORDS:
        append_bench_run(
            str(BENCH_ARTIFACT),
            list(_RECORDS),
            meta={
                "exitstatus": int(exitstatus),
                "tests": len(_RECORDS),
                # Which kernel lane produced these numbers — lets the
                # regression gate compare batched vs fallback runs.
                "kernel_batch": engine.batching_enabled(),
                **machine_meta(),
            },
        )
        _RECORDS.clear()
