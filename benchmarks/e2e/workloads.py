"""The two benchmark workloads.

Each workload is a function ``(api, seed, clock) -> Outcome`` that
builds its inputs from ``seed`` and drives the program only through
public entry points (``api.submit``, ``Job.run``/``Job.result``,
``api.load_spec``, ``api.build_scenario``, ``Scenario.run``).  It wraps
input building in ``clock.span("setup")`` and the measured work in
``clock.span("run")``.  The repro ``api`` module is passed in, never
imported here, so the caller can time the import itself.

Why these two: ``suite_pool`` regenerates the whole paper through the
sweep runtime (fig5's kernel + DRAM shards dominate, dozens of tiny
fig11/fig12a shards expose per-shard cost); ``clos1000_hybrid`` builds a
1024-host fabric and runs the flow plane in one process, where routing
dominates and the kernel idles.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from .metrics import ROOT

POOL_JOBS = 2
"""Pool width of the pool workloads; the benchmark needs this many cores."""

CLOS_SEEDS = 3


class Clock:
    """Accumulates setup and run time, plus named probe timers."""

    def __init__(self) -> None:
        self.phases = {"setup": 0.0, "run": 0.0}
        self.probes: Dict[str, float] = {}

    @contextlib.contextmanager
    def span(self, phase: Optional[str], probe: Optional[str] = None) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            if phase is not None:
                self.phases[phase] += elapsed
            if probe is not None:
                self.probes[probe] = self.probes.get(probe, 0.0) + elapsed


@dataclass
class Outcome:
    """What one workload execution produced."""

    document: Any
    """The canonical output whose digest is pinned."""

    attempted: int
    failed: int
    outputs: Dict[str, float] = field(default_factory=dict)
    probes: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    """Broken invariants; each must hold at every seed."""


def digest(document: Any) -> str:
    """sha256 of the sorted-key JSON rendering of ``document``."""
    text = json.dumps(document, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _scenario_probes(results: List[Any]) -> Dict[str, float]:
    flows = [
        stats for result in results for stats in result.flow_traffic.values()
    ]
    return {
        "sim.events": sum(result.events_fired for result in results),
        "net.switch_forwards": sum(r.fabric["switch_forwards"] for r in results),
        "net.egress_stalls": sum(r.fabric["egress_stalls"] for r in results),
        "net.overflow_drops": sum(r.fabric["overflow_drops"] for r in results),
        "flow.demands": sum(stats["demands"] for stats in flows),
        "flow.peak_utilization": max(
            (stats["peak_utilization"] for stats in flows), default=0.0
        ),
    }


def _delivery(results: List[Any], planned: int) -> Outcome:
    delivered = sum(result.packets_delivered for result in results)
    lost = sum(result.packets_lost for result in results)
    problems = []
    if delivered != planned or lost:
        problems.append(
            f"{delivered} of {planned} planned packets delivered, {lost} lost"
        )
    return Outcome(
        document=[result.to_dict() for result in results],
        attempted=planned,
        failed=planned - delivered,
        probes=_scenario_probes(results),
        problems=problems,
    )


def suite_pool(api: Any, seed: int, clock: Clock) -> Outcome:
    """Every experiment as one pool job, then its artifact."""
    from repro.analysis.targets import check_artifact

    with clock.span("setup", "runtime.submit_s"):
        job = api.submit(None, backend="pool", jobs=POOL_JOBS, base_seed=seed)
    with clock.span("run"):
        job.run()
        document = job.result(allow_partial=True)
    checks = check_artifact(document, allow_partial=True)
    in_band = sum(1 for check in checks if check.ok)
    error = sum(
        abs(check.measured - check.target.paper_value)
        / abs(check.target.paper_value)
        for check in checks
    )
    failed = len(job.failures())
    problems = [f"{failed} shard(s) failed"] if failed else []
    if not checks or in_band != len(checks):
        problems.append(f"{in_band} of {len(checks)} paper targets in band")
    return Outcome(
        document=document,
        attempted=len(job.tasks),
        failed=failed,
        outputs={
            "paper_err_pct": 100.0 * error / len(checks) if checks else 0.0,
            "targets_in_band": in_band,
        },
        problems=problems,
    )


def clos1000_hybrid(api: Any, seed: int, clock: Clock) -> Outcome:
    """The 1024-host hybrid example at seeds S, S+1, S+2, each fresh."""
    with clock.span("setup"):
        with open(ROOT / "examples" / "clos1000_hybrid.json", encoding="utf-8") as handle:
            base = json.load(handle)
    results, planned = [], 0
    for offset in range(CLOS_SEEDS):
        with clock.span("setup"):
            spec = api.load_spec({**base, "seed": seed + offset})
        with clock.span("setup", "scenario.build_s"):
            scenario = api.build_scenario(spec)
        with clock.span("run"):
            results.append(scenario.run())
        planned += len(scenario.plan)
    outcome = _delivery(results, planned)
    outcome.outputs = {"sim_p50_us": results[0].flows["fg"]["p50"]}
    return outcome


WORKLOADS: Dict[str, Callable[[Any, int, Clock], Outcome]] = {
    "suite_pool": suite_pool,
    "clos1000_hybrid": clos1000_hybrid,
}

POOL_WORKLOADS = ("suite_pool",)
