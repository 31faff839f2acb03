"""One repetition of one workload, in a fresh interpreter.

    python -m benchmarks.e2e.rep WORKLOAD SEED plain|trace

Run from the repository root with ``src`` on ``PYTHONPATH``.  Times the
``repro`` import, the workload's setup and run spans, and prints one JSON
record on stdout.  ``trace`` additionally profiles setup and run with
cProfile (this process only: pool workers are not profiled) and
reports host time per layer; the runner never mixes traced timings into
end-to-end metrics.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import resource
import sys
import time
from typing import Any, Dict, List

from . import layers
from .metrics import EXPERIMENTS
from .workloads import POOL_JOBS, POOL_WORKLOADS, WORKLOADS, Clock, digest


def _watch_jobs(job_class: Any, clock: Clock) -> List[Any]:
    """Time every ``Job.run``/``Job.result`` call; return the jobs seen."""
    jobs: List[Any] = []
    run, result = job_class.run, job_class.result

    def timed_run(self):
        if not any(job is self for job in jobs):
            jobs.append(self)
        with clock.span(None, "runtime.run_s"):
            return run(self)

    def timed_result(self, allow_partial=False):
        with clock.span(None, "runtime.result_s"):
            return result(self, allow_partial=allow_partial)

    job_class.run, job_class.result = timed_run, timed_result
    return jobs


def _runtime_probes(jobs: List[Any]) -> Dict[str, float]:
    outcomes = [outcome for job in jobs for outcome in job.outcomes()]
    probes: Dict[str, float] = {
        "runtime.shards": len(outcomes),
        "runtime.shards_failed": sum(1 for o in outcomes if not o.ok),
        "runtime.shard_exec_s": sum(o.wall_seconds for o in outcomes),
        "sim.events": sum(getattr(o, "events_fired", 0) for o in outcomes),
    }
    for outcome in outcomes:
        experiment = outcome.task_id.partition("[")[0]
        if experiment in EXPERIMENTS:
            key = f"runtime.shard_s.{experiment}"
            probes[key] = probes.get(key, 0.0) + outcome.wall_seconds
    return probes


class _GcTimer:
    """Host time spent in the cyclic garbage collector, via gc.callbacks."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._start = 0.0

    def __call__(self, phase: str, _info: Dict[str, int]) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            self.collections += 1


def measure(name: str, seed: int, traced: bool) -> Dict[str, Any]:
    """Run ``name`` once at ``seed``; the record the runner aggregates."""
    workload = WORKLOADS[name]
    start = time.perf_counter()
    from repro import api

    import_s = time.perf_counter() - start
    clock = Clock()
    jobs = _watch_jobs(api.Job, clock)
    profiler = cProfile.Profile() if traced else None
    gc_timer = _GcTimer()
    if traced:
        # Forked pool workers would inherit the profiler and run several
        # times slower; only this process is traced.
        os.register_at_fork(after_in_child=lambda: sys.setprofile(None))
        gc.callbacks.append(gc_timer)
        traced_start = time.perf_counter()
        profiler.enable()
    try:
        outcome = workload(api, seed, clock)
    finally:
        if traced:
            profiler.disable()
            traced_wall = time.perf_counter() - traced_start
            gc.callbacks.remove(gc_timer)
    # Linux reports ru_maxrss in KiB.  Pool workers are children: their
    # peak depends on which shards each drew, so it is a probe, not the
    # end-to-end memory metric.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    worker_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    setup_s = import_s + clock.phases["setup"]
    run_s = clock.phases["run"]
    probes: Dict[str, float] = {
        "host.import_s": import_s,
        "runtime.worker_rss_mb": worker_rss_mb,
    }
    probes.update(clock.probes)
    probes.update(outcome.probes)
    if jobs:
        probes.update(_runtime_probes(jobs))
        width = POOL_JOBS if name in POOL_WORKLOADS else 1
        busy = probes.get("runtime.run_s", 0.0)
        probes["runtime.overhead_s"] = busy - probes["runtime.shard_exec_s"] / width
        if busy > 0:
            probes["runtime.parallel_eff"] = probes["runtime.shard_exec_s"] / (
                width * busy
            )
    record: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "setup_s": setup_s,
        "run_s": run_s,
        "wall_s": setup_s + run_s,
        "peak_rss_mb": rss_mb,
        "digest": digest(outcome.document),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "outputs": outcome.outputs,
        "problems": outcome.problems,
        "probes": probes,
    }
    if traced:
        package_dir = os.path.dirname(os.path.abspath(api.__file__))
        profiler.create_stats()
        stats = profiler.stats
        record["traced_wall_s"] = traced_wall
        record["layers"] = layers.bucket(stats, package_dir)
        accesses, _ = layers.find(stats, package_dir, "dram/controller.py", "access")
        routes, route_s = layers.find(stats, package_dir, "net/fabric.py", "route_paths")
        probes.update(
            {
                "dram.access_calls": accesses,
                "net.route_paths_calls": routes,
                "net.route_paths_s": route_s,
                "host.gc_s": gc_timer.seconds,
                "host.gc_collections": gc_timer.collections,
            }
        )
    return record


def main(argv: List[str]) -> int:
    if len(argv) != 3 or argv[0] not in WORKLOADS or argv[2] not in ("plain", "trace"):
        print(
            f"usage: python -m benchmarks.e2e.rep {{{','.join(WORKLOADS)}}} "
            "SEED plain|trace",
            file=sys.stderr,
        )
        return 2
    record = measure(argv[0], int(argv[1]), argv[2] == "trace")
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
