"""Polling vs. interrupts (Sec. 2.1's deployment argument).

"Because interrupt handling and interrupt moderation can delay the
packet processing for several microseconds, ultra-low latency networks
are usually deployed in (adaptive) polling mode."  This experiment
quantifies that: one-way latency for each NIC architecture under the
polling driver vs. an interrupt-driven one, and shows that interrupts
also *flatten the architecture gap* — when every configuration eats a
multi-microsecond notification delay, where the NIC lives matters less.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.experiments.oneway import measure_one_way
from repro.params import DEFAULT, SystemParams

SUMMARY = "polling vs. interrupts (Sec. 2.1)"

MODES = ("polling", "interrupt")
CONFIGS = ("dnic", "inic", "netdimm")
SIZES = (64, 1024)


@dataclass(frozen=True)
class NotificationResult:
    """One-way latency per (mode, config, size)."""

    latency: Dict[Tuple[str, str, int], int]

    def interrupt_penalty(self, config: str, size: int) -> int:
        """Extra ticks the interrupt path costs for one configuration."""
        return (
            self.latency[("interrupt", config, size)]
            - self.latency[("polling", config, size)]
        )

    def netdimm_improvement(self, mode: str, size: int) -> float:
        """NetDIMM's reduction vs. the PCIe NIC under one mode."""
        dnic = self.latency[(mode, "dnic", size)]
        netdimm = self.latency[(mode, "netdimm", size)]
        return 1 - netdimm / dnic

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe rendering (artifact schema v1)."""
        return {
            "latency": [
                {"mode": mode, "config": config, "size_bytes": size, "ticks": ticks}
                for (mode, config, size), ticks in sorted(self.latency.items())
            ]
        }

    def metrics(self) -> Dict[str, float]:
        """Scalar metrics for artifact/target checking."""
        metrics: Dict[str, float] = {}
        for mode in MODES:
            for size in SIZES:
                if (mode, "dnic", size) in self.latency:
                    metrics[f"notification.netdimm_improvement.{mode}.{size}B"] = (
                        self.netdimm_improvement(mode, size)
                    )
        return metrics


def run(params: Optional[SystemParams] = None) -> NotificationResult:
    """Measure every (mode, config, size) combination."""
    params = params or DEFAULT
    latency: Dict[Tuple[str, str, int], int] = {}
    for mode in MODES:
        tuned = replace(
            params, software=replace(params.software, rx_notification=mode)
        )
        for config in CONFIGS:
            for size in SIZES:
                latency[(mode, config, size)] = measure_one_way(
                    config, size, tuned
                ).total_ticks
    return NotificationResult(latency=latency)


def format_report(result: NotificationResult) -> str:
    """Side-by-side latency table plus the dilution observation."""
    lines = ["Polling vs. interrupts — one-way latency (us)"]
    header = f"{'config':<10}" + "".join(
        f"{mode}@{size}B".rjust(16) for mode in MODES for size in SIZES
    )
    lines.append(header)
    for config in CONFIGS:
        row = f"{config:<10}"
        for mode in MODES:
            for size in SIZES:
                row += f"{result.latency[(mode, config, size)] / 1e6:>16.2f}"
        lines.append(row)
    lines.append("")
    for size in SIZES:
        polling = result.netdimm_improvement("polling", size)
        interrupt = result.netdimm_improvement("interrupt", size)
        lines.append(
            f"NetDIMM vs dNIC at {size}B: -{polling:.1%} polled, "
            f"-{interrupt:.1%} interrupt-driven (the IRQ tax dilutes the gap)"
        )
    return "\n".join(lines)
