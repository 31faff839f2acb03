"""Metric names, the declaration file, and the statistics every report uses.

Units, directions and bounds live in ``BENCHMARK.json`` at the repository
root; this module only knows which names the runner can emit, so a test
can check the two agree.  Nothing here imports ``repro``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
from typing import Dict, List, Mapping, Sequence

ROOT = pathlib.Path(__file__).resolve().parents[2]

END_TO_END = ("wall_s", "setup_s", "run_s", "peak_rss_mb")
"""Host-side costs a user waits on, measured with tracing off."""

OUTPUTS = {
    "failed_frac": "fraction",
    "sim_p50_us": "us",
    "paper_err_pct": "%",
    "targets_in_band": "count",
}
"""Simulated results that must match the pins exactly (unit per name).

They are checked, never bounded: a speed-up that moves one is wrong.
"""

LAYERS = (
    "sim", "net", "dram", "pcie", "nic", "core", "driver", "cache", "mem",
    "flow", "scenario", "workloads", "experiments", "runtime", "calib",
    "telemetry", "faults", "analysis", "repro", "ext",
)
"""The packages under ``src/repro``; ``repro`` holds its top-level
modules (``api``, ``params``, ``units``) and ``ext`` whatever host time
no repro code called."""

EXPERIMENTS = (
    "table1", "fig4", "fig5", "fig7", "fig11", "fig12a", "fig12b",
    "bandwidth", "ablation", "transactions", "notification",
    "kernel_stack", "loaded_latency", "feasibility", "faults",
)

PROBES = (
    "sim.events", "sim.events_per_s",
    "dram.access_calls",
    "net.switch_forwards", "net.egress_stalls", "net.overflow_drops",
    "net.route_paths_calls", "net.route_paths_s",
    "flow.demands", "flow.peak_utilization",
    "scenario.build_s",
    "runtime.submit_s", "runtime.run_s", "runtime.result_s",
    "runtime.shard_exec_s", "runtime.overhead_s", "runtime.parallel_eff",
    "runtime.shards", "runtime.shards_failed", "runtime.worker_rss_mb",
    "host.import_s", "host.gc_s", "host.gc_collections",
    "trace.wall_s", "trace.overhead_x",
)


def per_layer_names() -> List[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = [
        f"{layer}.{kind}"
        for layer in LAYERS
        for kind in ("self_s", "share", "calls")
    ]
    names += PROBES
    names += [f"runtime.shard_s.{name}" for name in EXPERIMENTS]
    return names


def load_declaration() -> Dict[str, object]:
    """``BENCHMARK.json``, with its metric lists keyed by name."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        document = json.load(handle)
    for section in ("end_to_end", "per_layer"):
        document[section] = {
            entry["name"]: entry for entry in document[section]
        }
    return document


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, quartiles, mean and count, as ``statistics.quantiles``
    cuts them."""
    values = [float(value) for value in values]
    if not values:
        raise ValueError("no values to summarize")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "mean": statistics.fmean(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": values,
    }


def spread(summary: Mapping[str, object]) -> float:
    """Quartile distance as a share of the median."""
    median = float(summary["median"])
    if median == 0:
        return 0.0
    return abs(float(summary["q3"]) - float(summary["q1"])) / abs(median)


def verdict(
    before: Sequence[float],
    after: Sequence[float],
    bound: float,
    better: str = "lower",
) -> str:
    """``better``, ``worse``, ``unchanged`` or ``unresolved`` for one metric.

    The medians decide, against ``bound`` (a share of the ``before``
    median).  When either side's quartile spread is wider than the bound
    the medians cannot be trusted, so the verdict is ``unresolved``
    unless every run of one side beats every run of the other.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    old, new = summarize(before), summarize(after)
    if max(spread(old), spread(new)) > bound:
        new_wins = all(sign * a < sign * b for a in after for b in before)
        old_wins = all(sign * b < sign * a for a in after for b in before)
        if not (new_wins or old_wins):
            return "unresolved"
    base = float(old["median"])
    change = float(new["median"]) - base
    worse_by = sign * change / abs(base) if base else sign * change
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unchanged"
