"""Fig. 4 — one-way latency of dNIC, dNIC.zcpy, iNIC, iNIC.zcpy.

The motivation figure: packets of 10–2000 B over a 40GbE link between
two directly connected nodes, comparing the discrete PCIe NIC with an
integrated NIC, each with and without zero-copy, plus the PCIe
contribution to the discrete configurations (``pcie.overh``).

Paper observations this reproduction targets:

* iNIC improves latency by 21.3–38.6% over dNIC, more for small packets;
* zero copy improves iNIC by 28.8% (10 B) to 52.3% (2000 B);
* PCIe is 40.9% / 34.3% of dNIC.zcpy latency at 10 B / 2000 B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.driver.host_nic import DiscreteNICNode
from repro.experiments.oneway import OneWayResult, measure_one_way
from repro.params import DEFAULT, SystemParams
from repro.sim import Simulator

SUMMARY = "baseline NIC comparison + pcie.overh (Fig. 4)"

PACKET_SIZES = (10, 60, 200, 500, 1000, 2000)
CONFIGS = ("dnic", "dnic.zcpy", "inic", "inic.zcpy")


@dataclass(frozen=True)
class Fig4Result:
    """All series of the figure."""

    latency: Dict[Tuple[str, int], OneWayResult]
    pcie_overhead_fraction: Dict[Tuple[str, int], float]

    def measured_sizes(self, config: str = "dnic") -> List[int]:
        """The sizes actually measured for a configuration."""
        return sorted(size for key, size in self.latency if key == config)

    def series(self, config: str) -> List[float]:
        """One configuration's latency curve in microseconds."""
        return [
            self.latency[(config, size)].total_us
            for size in self.measured_sizes(config)
        ]

    def inic_improvement(self, size: int) -> float:
        """iNIC's latency reduction vs. dNIC at one size."""
        dnic = self.latency[("dnic", size)].total_ticks
        inic = self.latency[("inic", size)].total_ticks
        return 1 - inic / dnic

    def zcpy_improvement(self, config: str, size: int) -> float:
        """Zero copy's latency reduction for a base configuration."""
        base = self.latency[(config, size)].total_ticks
        zcpy = self.latency[(f"{config}.zcpy", size)].total_ticks
        return 1 - zcpy / base

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe rendering (artifact schema v1)."""
        return {
            "latency": [
                self.latency[key].to_dict() for key in sorted(self.latency)
            ],
            "pcie_overhead_fraction": [
                {"config": config, "size_bytes": size, "fraction": fraction}
                for (config, size), fraction in sorted(
                    self.pcie_overhead_fraction.items()
                )
            ],
        }

    def metrics(self) -> Dict[str, float]:
        """Scalar metrics named after the paper-target registry."""
        sizes = self.measured_sizes("dnic")
        improvements = [self.inic_improvement(size) for size in sizes]
        metrics = {
            "fig4.inic_improvement.min": min(improvements),
            "fig4.inic_improvement.max": max(improvements),
        }
        for size in (10, 2000):
            if ("inic.zcpy", size) in self.latency:
                metrics[f"fig4.zcpy_improvement.{size}B"] = self.zcpy_improvement(
                    "inic", size
                )
            if ("dnic.zcpy", size) in self.pcie_overhead_fraction:
                metrics[f"fig4.pcie_fraction.{size}B"] = self.pcie_overhead_fraction[
                    ("dnic.zcpy", size)
                ]
        return metrics


def run(params: Optional[SystemParams] = None, sizes: Tuple[int, ...] = PACKET_SIZES) -> Fig4Result:
    """Measure every configuration at every size."""
    params = params or DEFAULT
    latency: Dict[Tuple[str, int], OneWayResult] = {}
    pcie_fraction: Dict[Tuple[str, int], float] = {}
    for config in CONFIGS:
        for size in sizes:
            result = measure_one_way(config, size, params)
            latency[(config, size)] = result
            if config.startswith("dnic"):
                probe = DiscreteNICNode(Simulator(), "probe", params=params)
                overhead = probe.pcie_overhead_estimate(size)
                pcie_fraction[(config, size)] = min(1.0, overhead / result.total_ticks)
    return Fig4Result(latency=latency, pcie_overhead_fraction=pcie_fraction)


def format_report(result: Fig4Result, sizes: Tuple[int, ...] = PACKET_SIZES) -> str:
    """Render the figure's series as an aligned text table."""
    lines = ["Fig. 4 — one-way latency (us) vs. packet size"]
    header = f"{'config':<12}" + "".join(f"{size:>9}B" for size in sizes)
    lines.append(header)
    for config in CONFIGS:
        row = f"{config:<12}"
        for size in sizes:
            row += f"{result.latency[(config, size)].total_us:>10.2f}"
        lines.append(row)
    row = f"{'pcie.overh':<12}"
    for size in sizes:
        fraction = result.pcie_overhead_fraction.get(("dnic.zcpy", size), 0.0)
        row += f"{fraction:>9.0%} "
    lines.append(row)
    lines.append("")
    lines.append(
        "iNIC vs dNIC improvement: "
        + ", ".join(f"{size}B={result.inic_improvement(size):.1%}" for size in sizes)
    )
    lines.append(
        "iNIC.zcpy vs iNIC: "
        + ", ".join(
            f"{size}B={result.zcpy_improvement('inic', size):.1%}" for size in sizes
        )
    )
    return "\n".join(lines)
