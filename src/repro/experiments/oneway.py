"""Shared machinery: one-way packet latency between two servers.

Reproduces the paper's primary measurement setup (Sec. 5.2): two nodes
"directly connected together" by 40GbE, a packet travelling sender
application → driver → NIC → wire → NIC → driver → receiver
application, with per-segment accounting.

``measure_one_way`` is the trivial two-node scenario: it builds a fresh
simulator per measurement through :mod:`repro.scenario`, so results are
exactly reproducible and independent, and the same packet-flow engine
that drives many-node scenarios drives this measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.params import DEFAULT, SystemParams
from repro.scenario.builder import build_scenario
from repro.scenario.spec import ScenarioSpec


@dataclass(frozen=True)
class OneWayResult:
    """One measured packet transfer."""

    nic_kind: str
    size_bytes: int
    total_ticks: int
    segments: Dict[str, int]

    @property
    def total_us(self) -> float:
        """Total one-way latency in microseconds."""
        return self.total_ticks / 1e6

    def segment_us(self, name: str) -> float:
        """One segment's latency in microseconds (0 if absent)."""
        return self.segments.get(name, 0) / 1e6

    def host_ticks(self) -> int:
        """Everything except the wire segment (used by trace replay,
        which substitutes the clos fabric for the point-to-point wire)."""
        return self.total_ticks - self.segments.get("wire", 0)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe rendering (artifact schema v1)."""
        return {
            "nic_kind": self.nic_kind,
            "size_bytes": self.size_bytes,
            "total_ticks": self.total_ticks,
            "segments": dict(self.segments),
        }


def measure_one_way(
    nic_kind: str,
    size_bytes: int,
    params: Optional[SystemParams] = None,
    warm_packets: int = 1,
) -> OneWayResult:
    """Measure one packet's one-way latency between two fresh nodes.

    ``warm_packets`` packets are sent first (uncounted) so connections
    are established (NetDIMM's COPY_NEEDED fast path engages), rings are
    initialized, and caches hold steady-state contents.
    """
    scenario = build_scenario(
        ScenarioSpec.two_node(nic_kind, size_bytes, warm_packets=warm_packets),
        base_params=params or DEFAULT,
    )
    scenario.run()
    packet = scenario.delivered[-1].packet
    return OneWayResult(
        nic_kind=nic_kind,
        size_bytes=size_bytes,
        total_ticks=packet.breakdown.total,
        segments=dict(packet.breakdown.segments),
    )
