"""PCIe transaction census (Sec. 3's motivation count).

"In a client-server application, 16 one-way PCIe transactions are
needed for completing one request-response transfer."  This experiment
runs an actual request-response exchange — client transmits, server
receives, server transmits, client receives — on PCIe-NIC nodes and
counts the one-way link traversals from the link models' own
statistics (a non-posted read is two traversals: request + completion;
a posted write is one).  NetDIMM's count is zero by construction: its
doorbells, descriptors, and payloads all ride the memory channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.driver.host_nic import DiscreteNICNode
from repro.net.link import EthernetWire
from repro.net.packet import Packet
from repro.params import DEFAULT, SystemParams
from repro.sim import Simulator

SUMMARY = "PCIe transaction census (Sec. 3)"

PAPER_COUNT = 16
REQUEST_BYTES = 128
RESPONSE_BYTES = 512


@dataclass(frozen=True)
class TransactionsResult:
    """One-way PCIe traversal counts for one request-response."""

    client_traversals: int
    server_traversals: int
    breakdown: Dict[str, int]

    @property
    def per_host(self) -> int:
        """Traversals on one host's link (the paper counts one host)."""
        return self.client_traversals

    @property
    def netdimm_traversals(self) -> int:
        """NetDIMM uses no PCIe at all."""
        return 0

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe rendering (artifact schema v1)."""
        return {
            "client_traversals": self.client_traversals,
            "server_traversals": self.server_traversals,
            "breakdown": dict(self.breakdown),
        }

    def metrics(self) -> Dict[str, float]:
        """Scalar metrics for artifact/target checking."""
        return {
            "transactions.per_host": float(self.per_host),
            "transactions.netdimm": float(self.netdimm_traversals),
        }


def _count(link) -> int:
    """One-way traversals from a link's counters."""
    posted = link.stats.get_counter("posted_writes")
    reads = link.stats.get_counter("reads")
    return posted + 2 * reads


def run(params: Optional[SystemParams] = None) -> TransactionsResult:
    """Run one request-response on dNIC nodes and count traversals."""
    params = params or DEFAULT
    sim = Simulator()
    client = DiscreteNICNode(sim, "client", params=params)
    server = DiscreteNICNode(sim, "server", params=params)
    wire = EthernetWire(sim, "wire", params=params.network)

    def request_response():
        request = Packet(size_bytes=REQUEST_BYTES)
        yield client.transmit(request)
        yield wire.transmit(REQUEST_BYTES)
        yield server.receive(request)
        response = Packet(size_bytes=RESPONSE_BYTES)
        yield server.transmit(response)
        yield wire.transmit(RESPONSE_BYTES, reverse=True)
        yield client.receive(response)

    sim.run_until(sim.spawn(request_response()).done, max_events=2_000_000)

    breakdown = {
        "client posted writes": client.pcie.stats.get_counter("posted_writes"),
        "client non-posted reads": client.pcie.stats.get_counter("reads"),
        "server posted writes": server.pcie.stats.get_counter("posted_writes"),
        "server non-posted reads": server.pcie.stats.get_counter("reads"),
    }
    return TransactionsResult(
        client_traversals=_count(client.pcie),
        server_traversals=_count(server.pcie),
        breakdown=breakdown,
    )


def format_report(result: TransactionsResult) -> str:
    """Census table vs. the paper's count."""
    lines = [
        "PCIe transactions per request-response (Sec. 3)",
        f"client link one-way traversals: {result.client_traversals}",
        f"server link one-way traversals: {result.server_traversals}",
    ]
    for label, count in result.breakdown.items():
        lines.append(f"  {label}: {count}")
    lines.append(
        f"paper's count: {PAPER_COUNT} (ours runs a polling driver, which "
        "saves the MSI interrupt writes and EOI accesses an interrupt-driven "
        "count includes)"
    )
    lines.append(f"NetDIMM: {result.netdimm_traversals} — the entire point.")
    return "\n".join(lines)
