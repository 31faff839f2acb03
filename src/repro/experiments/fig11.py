"""Fig. 11 — one-way latency breakdown: PCIe NIC / iNIC / NetDIMM.

The headline evaluation: packets of 10–8000 B between two directly
connected nodes, broken into txCopy / txFlush / I/O reg acc / txDMA /
wire / rxDMA / rxInvalidate / rxCopy.

Paper numbers targeted (shape):

* NetDIMM vs. PCIe NIC: −46.1% (64 B), −52.3% (256 B), −49.6% (1024 B);
* averages: −49.9% vs. dNIC, −26.0% vs. iNIC;
* txFlush + rxInvalidate contribute 9.7–15.8% of NetDIMM's total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.charts import stacked_bar_chart
from repro.experiments.oneway import OneWayResult, measure_one_way
from repro.net.packet import FIG11_SEGMENTS
from repro.params import DEFAULT, SystemParams

SUMMARY = "latency breakdown: dNIC/iNIC/NetDIMM (Fig. 11)"

PACKET_SIZES = (10, 60, 200, 500, 1000, 2000, 4000, 8000)
QUOTED_SIZES = (64, 256, 1024)
CONFIGS = ("dnic", "inic", "netdimm")


@dataclass(frozen=True)
class Fig11Result:
    """Breakdowns for all three panels."""

    results: Dict[Tuple[str, int], OneWayResult]
    sizes: Tuple[int, ...]

    def improvement(self, baseline: str, size: int) -> float:
        """NetDIMM's latency reduction vs. a baseline at one size."""
        base = self.results[(baseline, size)].total_ticks
        netdimm = self.results[("netdimm", size)].total_ticks
        return 1 - netdimm / base

    def average_improvement(self, baseline: str) -> float:
        """Mean reduction across all measured sizes."""
        values = [self.improvement(baseline, size) for size in self.sizes]
        return sum(values) / len(values)

    def flush_invalidate_share(self, size: int) -> float:
        """txFlush + rxInvalidate share of NetDIMM's total."""
        result = self.results[("netdimm", size)]
        overhead = result.segments.get("txFlush", 0) + result.segments.get(
            "rxInvalidate", 0
        )
        return overhead / result.total_ticks

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe rendering (artifact schema v1)."""
        return {
            "sizes": list(self.sizes),
            "results": [self.results[key].to_dict() for key in sorted(self.results)],
        }

    def metrics(self) -> Dict[str, float]:
        """Scalar metrics named after the paper-target registry."""
        metrics = {
            "fig11.improvement_vs_dnic.avg": self.average_improvement("dnic"),
            "fig11.improvement_vs_inic.avg": self.average_improvement("inic"),
        }
        for size in QUOTED_SIZES:
            if ("netdimm", size) in self.results:
                metrics[f"fig11.improvement_vs_dnic.{size}B"] = self.improvement(
                    "dnic", size
                )
        if ("netdimm", 64) in self.results:
            metrics["fig11.flush_invalidate_share.64B"] = self.flush_invalidate_share(64)
            metrics["fig11.dnic_total_us.64B"] = self.results[("dnic", 64)].total_us
            metrics["fig11.netdimm_total_us.64B"] = self.results[
                ("netdimm", 64)
            ].total_us
        return metrics


def run(
    params: Optional[SystemParams] = None,
    sizes: Tuple[int, ...] = PACKET_SIZES,
    extra_sizes: Tuple[int, ...] = QUOTED_SIZES,
) -> Fig11Result:
    """Measure the three configurations across all sizes.

    ``extra_sizes`` adds the sizes the paper quotes percentages for
    (64/256/1024 B) on top of the figure's x-axis points.
    """
    params = params or DEFAULT
    all_sizes = tuple(sorted(set(sizes) | set(extra_sizes)))
    return Fig11Result(
        results={
            (config, size): measure_one_way(config, size, params)
            for config in CONFIGS
            for size in all_sizes
        },
        sizes=all_sizes,
    )


def format_report(result: Fig11Result) -> str:
    """The three stacked-bar panels as text tables plus the summary."""
    lines: List[str] = []
    for config, title in (
        ("dnic", "PCIe NIC"),
        ("inic", "integrated NIC"),
        ("netdimm", "NetDIMM"),
    ):
        lines.append(f"Fig. 11 ({title}) — per-segment latency (us)")
        header = f"{'segment':<14}" + "".join(f"{s:>8}B" for s in result.sizes)
        lines.append(header)
        for segment in FIG11_SEGMENTS:
            if not any(
                result.results[(config, s)].segments.get(segment) for s in result.sizes
            ):
                continue
            row = f"{segment:<14}"
            for size in result.sizes:
                row += f"{result.results[(config, size)].segment_us(segment):>9.2f}"
            lines.append(row)
        row = f"{'TOTAL':<14}"
        for size in result.sizes:
            row += f"{result.results[(config, size)].total_us:>9.2f}"
        lines.append(row)
        lines.append("")
    lines.append(
        "NetDIMM vs PCIe NIC: "
        + ", ".join(
            f"{s}B=-{result.improvement('dnic', s):.1%}" for s in QUOTED_SIZES
        )
        + f" | avg=-{result.average_improvement('dnic'):.1%} (paper: -49.9%)"
    )
    lines.append(
        f"NetDIMM vs iNIC avg=-{result.average_improvement('inic'):.1%} (paper: -26.0%)"
    )
    lines.append(
        "txFlush+rxInvalidate share: "
        + ", ".join(
            f"{s}B={result.flush_invalidate_share(s):.1%}" for s in QUOTED_SIZES
        )
        + " (paper: 9.7-15.8%)"
    )
    reference = 256 if 256 in result.sizes else result.sizes[0]
    lines.append(f"\nstacked comparison at {reference} B (us):")
    segments = {
        segment: [
            result.results[(config, reference)].segment_us(segment)
            for config in CONFIGS
        ]
        for segment in FIG11_SEGMENTS
        if any(
            result.results[(config, reference)].segments.get(segment)
            for config in CONFIGS
        )
    }
    lines.append(
        stacked_bar_chart(
            columns=["PCIe NIC", "iNIC", "NetDIMM"], segments=segments, unit="us"
        )
    )
    return "\n".join(lines)
