"""Fig. 7 — spatial and temporal locality of NIC DMA accesses.

Receiving six 1514 B packets on a 40GbE NIC produces, at the host
memory controller, six bursts of 24 cacheline writes each (24 x 64 B =
1536 B) to consecutive DMA-buffer addresses; the paper measures the
third packet's burst spanning 143 ns.  This regularity is the design
argument for nCache + the next-line nPrefetcher.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.nic.dma import DMABurstTrace, dma_burst_trace
from repro.params import DEFAULT, SystemParams
from repro.units import ns

SUMMARY = "NIC DMA burst locality (Fig. 7)"

PACKET_COUNT = 6
PACKET_BYTES = 1514
BURST_GAP_THRESHOLD = ns(60)


@dataclass(frozen=True)
class Fig7Result:
    """The access trace and its burst structure."""

    trace: DMABurstTrace
    bursts: List[List[Tuple[int, int]]]

    @property
    def burst_count(self) -> int:
        """Number of distinct bursts (should equal the packet count)."""
        return len(self.bursts)

    @property
    def lines_per_burst(self) -> List[int]:
        """Cacheline writes per burst (should be 24 for 1514 B)."""
        return [len(burst) for burst in self.bursts]

    def burst_duration_ns(self, index: int) -> float:
        """Span of one burst in nanoseconds (paper: 143 ns for #3)."""
        burst = self.bursts[index]
        return (burst[-1][0] - burst[0][0]) / 1000

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe rendering (artifact schema v1)."""
        return {
            "burst_count": self.burst_count,
            "lines_per_burst": list(self.lines_per_burst),
            "burst_durations_ns": [
                self.burst_duration_ns(index) for index in range(self.burst_count)
            ],
            "accesses": [list(access) for access in self.trace.accesses],
        }

    def metrics(self) -> Dict[str, float]:
        """Scalar metrics named after the paper-target registry."""
        metrics: Dict[str, float] = {"fig7.burst_count": float(self.burst_count)}
        if self.burst_count >= 3:
            # The paper quotes the *third* packet's burst.
            metrics["fig7.lines_per_burst"] = float(self.lines_per_burst[2])
            metrics["fig7.third_burst_ns"] = self.burst_duration_ns(2)
        return metrics


def run(params: Optional[SystemParams] = None) -> Fig7Result:
    """Generate the six-packet RX DMA trace."""
    params = params or DEFAULT
    trace = dma_burst_trace(
        packet_sizes=[PACKET_BYTES] * PACKET_COUNT, network=params.network
    )
    return Fig7Result(trace=trace, bursts=trace.bursts(BURST_GAP_THRESHOLD))


def format_report(result: Fig7Result) -> str:
    """Burst structure summary plus the first burst's points."""
    lines = [
        "Fig. 7 — NIC DMA access locality (six 1514 B packets)",
        f"bursts: {result.burst_count} (paper: 6)",
        f"lines per burst: {result.lines_per_burst} (paper: 24 each)",
        f"third burst duration: {result.burst_duration_ns(2):.0f} ns (paper: 143 ns)",
        "",
        "first burst (relative time ns, relative address B):",
    ]
    base_time, base_address = result.bursts[0][0]
    for time, address in result.bursts[0][:8]:
        lines.append(f"  t={ (time - base_time) / 1000:7.1f}  addr={address - base_address:6d}")
    lines.append("  ...")
    return "\n".join(lines)
