"""Benchmark-suite configuration.

Each benchmark regenerates one table or figure of the paper and prints
its report, so ``pytest benchmarks/ --benchmark-only`` doubles as the
full evaluation run.  The printed reports are the reproduction
deliverable; the timings tell you what each experiment costs.

Every bench session also appends a machine-readable record per test —
wall-clock seconds, simulator events fired, events/sec (or calls/sec,
for a bench whose experiment fires no events; see
:func:`pedantic_calls`) — to
``BENCH_runner.json`` at the repository root (via
:func:`benchmarks.trajectory.append_bench_run`), accumulating the
perf trajectory that future optimization PRs are measured against.
Each run's meta also records the machine that produced it (cores,
interpreter, platform, git revision) and its condition over the session
(load average before and after, and the CPU steal ticks the hypervisor
took meanwhile), so two runs that disagree can be told apart by where,
and on how busy a box, they ran.
"""

import gc
import os
import pathlib
import platform
import time
from typing import Dict, Optional

import pytest

from benchmarks.trajectory import append_bench_run
from repro.runtime.provenance import git_revision
from repro.sim import engine

BENCH_ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_runner.json"

_RECORDS = []

_RATE_OVERRIDE = {}

_BOX_BEFORE: Dict[str, object] = {}


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


def pedantic_calls(benchmark, target, rounds: int):
    """``benchmark.pedantic(target, rounds=rounds)``, metered in calls/sec.

    For experiments that fire no simulator events, where events/sec
    would read 0 and the gate could never see it fall.  The test's
    trajectory record carries ``calls`` and ``calls_per_sec`` (the calls
    made over the wall time of the pedantic loop) in place of
    ``events_per_sec``; ``rounds`` should keep that loop at 0.2 s or
    more.  With ``--benchmark-disable`` pedantic calls ``target`` once,
    and the rate is that one call's.
    """
    calls = 0

    def counted():
        nonlocal calls
        calls += 1
        return target()

    start = time.perf_counter()
    result = benchmark.pedantic(counted, rounds=rounds, iterations=1)
    _RATE_OVERRIDE["calls"] = (calls, time.perf_counter() - start)
    return result


@pytest.fixture(autouse=True)
def _bench_record(request):
    """Meter every bench test: wall seconds, events fired, events/sec or calls/sec."""
    _RATE_OVERRIDE.pop("pending", None)
    _RATE_OVERRIDE.pop("calls", None)
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
    record = {
        "test": request.node.name,
        "wall_seconds": round(wall, 6),
        "events_fired": events,
    }
    metered = _RATE_OVERRIDE.pop("calls", None)
    if metered is None:
        record["events_per_sec"] = round(events / wall, 3) if wall > 0 else 0.0
    else:
        calls, calls_wall = metered
        record["calls"] = calls
        record["calls_per_sec"] = round(calls / calls_wall, 3)
    _RECORDS.append(record)


def steal_ticks(proc_stat: str) -> Optional[int]:
    """The all-CPU ``steal`` count of a ``/proc/stat`` text, or None.

    The aggregate ``cpu`` line lists user, nice, system, idle, iowait,
    irq, softirq and steal ticks, in that order; a kernel too old to
    report steal leaves the column out, and so does this.
    """
    for line in proc_stat.splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu":
            return int(fields[8]) if len(fields) > 8 else None
    return None


def _box_condition() -> Dict[str, object]:
    """Load average and steal ticks now; a key the box cannot read is left out."""
    condition: Dict[str, object] = {}
    try:
        condition["loadavg"] = [round(load, 2) for load in os.getloadavg()]
    except (AttributeError, OSError):
        pass
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            steal = steal_ticks(handle.read())
    except OSError:
        steal = None
    if steal is not None:
        condition["steal"] = steal
    return condition


def box_meta(before: Dict[str, object], after: Dict[str, object]) -> dict:
    """The run-meta keys for the box's condition over a session.

    ``loadavg_before``/``loadavg_after`` are ``os.getloadavg()``'s 1, 5
    and 15 minute averages; ``steal_ticks`` is the ``/proc/stat`` steal
    delta.  A reading missing at either end is omitted, never written
    as 0: a 0 would claim an idle, unstolen box.
    """
    meta = {}
    if "loadavg" in before:
        meta["loadavg_before"] = before["loadavg"]
    if "loadavg" in after:
        meta["loadavg_after"] = after["loadavg"]
    if "steal" in before and "steal" in after:
        meta["steal_ticks"] = after["steal"] - before["steal"]
    return meta


@pytest.fixture(autouse=True, scope="session")
def _box_before():
    """Read the box's condition once, before the first bench test."""
    _BOX_BEFORE.update(_box_condition())
    yield


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
                **machine_meta(),
                **box_meta(_BOX_BEFORE, _box_condition()),
            },
        )
        _RECORDS.clear()
