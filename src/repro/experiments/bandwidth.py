"""Sec. 5.2 — NetDIMM sustains 40 Gb/s line rate.

The paper's bandwidth caveat: NetDIMM sits on one memory channel, but a
single channel (DDR4: 12.8 GB/s = 102.4 Gb/s; DDR5: double) comfortably
exceeds 40GbE line rate, so "NetDIMM delivers 40Gbps bandwidth just
like our PCIe and integrated NIC models."

The experiment streams back-to-back MTU packets through each
configuration's TX pipeline with the stages overlapped (a pipelined
producer, unlike the latency experiments' sequential packet walk), and
reports the sustained rate — which should be wire-limited (~40 Gb/s)
for all three.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Optional

from repro.driver.registry import make_node
from repro.net.link import EthernetWire
from repro.net.packet import Packet
from repro.params import DEFAULT, SystemParams
from repro.sim import Simulator
from repro.units import transfer_time

SUMMARY = "line-rate check, TX and RX (Sec. 5.2)"

CONFIGS = ("dnic", "inic", "netdimm")
STREAM_PACKETS = 300
PIPELINE_DEPTH = 16


@dataclass(frozen=True)
class BandwidthResult:
    """Sustained TX and RX bandwidth per configuration."""

    achieved_gbps: Dict[str, float]
    """TX direction."""

    achieved_rx_gbps: Dict[str, float]
    """RX direction (frames arriving at line rate, host keeping up)."""

    def line_rate_fraction(self, config: str, line_gbps: float = 40.0) -> float:
        """Achieved TX rate / nominal line rate."""
        return self.achieved_gbps[config] / line_gbps

    def rx_line_rate_fraction(self, config: str, line_gbps: float = 40.0) -> float:
        """Achieved RX rate / nominal line rate."""
        return self.achieved_rx_gbps[config] / line_gbps

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe rendering (artifact schema v1)."""
        return {
            "tx_gbps": dict(self.achieved_gbps),
            "rx_gbps": dict(self.achieved_rx_gbps),
        }

    def metrics(self) -> Dict[str, float]:
        """Scalar metrics named after the paper-target registry."""
        metrics = {"bandwidth.netdimm_gbps": self.achieved_gbps["netdimm"]}
        for config, gbps in self.achieved_gbps.items():
            metrics[f"bandwidth.tx.{config}_gbps"] = gbps
        for config, gbps in self.achieved_rx_gbps.items():
            metrics[f"bandwidth.rx.{config}_gbps"] = gbps
        return metrics


def _stream(config: str, params: SystemParams, packets: int) -> float:
    sim = Simulator()
    node = make_node(sim, "tx", config, params)
    if hasattr(node, "warm_up"):
        node.warm_up()
    wire = EthernetWire(sim, "wire", params=params.network)
    mtu = params.network.mtu_bytes
    delivered = {"bytes": 0, "last_arrival": 0}

    def pump():
        # Window-limited pipelining: keep several packets in flight so
        # driver, device, and wire stages overlap.
        inflight = deque()
        sent = 0
        while sent < packets or inflight:
            while sent < packets and len(inflight) < PIPELINE_DEPTH:
                packet = Packet(size_bytes=mtu)

                def one(packet=packet):
                    yield node.transmit(packet)
                    yield wire.transmit(packet.size_bytes)
                    delivered["bytes"] += packet.size_bytes
                    delivered["last_arrival"] = sim.now

                inflight.append(sim.spawn(one()).done)
                sent += 1
            yield inflight.popleft()

    process = sim.spawn(pump(), name="pump")
    start = sim.now
    sim.run_until(process.done, max_events=50_000_000)
    elapsed = delivered["last_arrival"] - start
    if elapsed <= 0:
        return 0.0
    return delivered["bytes"] * 8 / (elapsed / 1e12) / 1e9


def _stream_rx(config: str, params: SystemParams, packets: int) -> float:
    """Frames arrive back-to-back at line rate; measure the host's
    sustained consumption rate."""
    sim = Simulator()
    node = make_node(sim, "rx", config, params)
    if hasattr(node, "warm_up"):
        node.warm_up()
    network = params.network
    mtu = network.mtu_bytes
    interarrival = transfer_time(network.framed_bytes(mtu), network.link_bytes_per_ps)
    delivered = {"bytes": 0, "last": 0}

    def pump():
        inflight = deque()
        for index in range(packets):
            packet = Packet(size_bytes=mtu)

            def one(packet=packet):
                yield node.receive(packet)
                delivered["bytes"] += packet.size_bytes
                delivered["last"] = sim.now

            inflight.append(sim.spawn(one()).done)
            if len(inflight) > PIPELINE_DEPTH:
                yield inflight.popleft()
            yield interarrival
        for pending in inflight:
            yield pending

    process = sim.spawn(pump(), name="rxpump")
    start = sim.now
    sim.run_until(process.done, max_events=50_000_000)
    elapsed = delivered["last"] - start
    if elapsed <= 0:
        return 0.0
    return delivered["bytes"] * 8 / (elapsed / 1e12) / 1e9


def run(
    params: Optional[SystemParams] = None, packets: int = STREAM_PACKETS
) -> BandwidthResult:
    """Stream MTU packets through every configuration, both directions."""
    params = params or DEFAULT
    return BandwidthResult(
        achieved_gbps={
            config: _stream(config, params, packets) for config in CONFIGS
        },
        achieved_rx_gbps={
            config: _stream_rx(config, params, packets) for config in CONFIGS
        },
    )


def format_report(result: BandwidthResult) -> str:
    """Achieved bandwidth table, both directions."""
    lines = ["Sec. 5.2 — sustained bandwidth (MTU stream)"]
    lines.append(f"{'config':<10}{'TX':>12}{'RX':>12}")
    for config in result.achieved_gbps:
        lines.append(
            f"{config:<10}{result.achieved_gbps[config]:>7.1f} Gb/s"
            f"{result.achieved_rx_gbps[config]:>7.1f} Gb/s"
        )
    lines.append("(paper: all three deliver 40 Gb/s)")
    return "\n".join(lines)
