"""A closed-loop iperf-style TCP bandwidth model (Fig. 5).

iperf pushes MTU-sized TCP segments as fast as the receiver can absorb
them.  On the receive side, each packet's journey through a
conventional NIC costs memory bandwidth three times: the NIC's DMA
write of the payload, the driver-copy's read of the DMA buffer, and its
write into application space (Sec. 1: data copying can constitute
18–92% of per-byte overhead).  When another workload pressures the same
memory channels, those per-packet memory operations queue, the receiver
slows, and TCP's closed loop throttles the sender — which is exactly
what Fig. 5 measures on real hardware.

:class:`IperfModel` keeps ``window`` packets in flight; each packet
performs its three memory passes against the shared controller, then
completes, releasing the next.  Achieved bandwidth = delivered payload
bits over elapsed time.
"""

from __future__ import annotations

from collections import deque

from repro.dram.controller import MemoryController
from repro.params import DEFAULT, NetworkParams
from repro.sim import Component, Future, Simulator
from repro.units import transfer_time


class IperfModel(Component):
    """Closed-loop MTU stream whose RX memory traffic shares a channel."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        controller: MemoryController,
        network: NetworkParams = DEFAULT.network,
        window: int = 8,
        per_packet_sw_cost: int = 150_000,
        buffer_base: int = 0,
        buffer_span: int = 8 * 1024 * 1024,
    ):
        super().__init__(sim, name)
        self.controller = controller
        self.network = network
        self.mtu_bytes = network.mtu_bytes
        self.window = window
        self.per_packet_sw_cost = per_packet_sw_cost
        self.buffer_base = buffer_base
        self.buffer_span = buffer_span
        self.delivered_bytes = 0
        self._cursor = 0

    def _next_buffer(self) -> int:
        self._cursor = (self._cursor + 4096) % self.buffer_span
        return self.buffer_base + self._cursor

    def run(self, packet_count: int) -> Future:
        """Deliver ``packet_count`` packets; future completes at the end
        with the achieved bandwidth in bits/second."""
        done = self.sim.future()
        self.sim.spawn(self._run_body(packet_count, done), name=f"{self.name}.run")
        return done

    def _run_body(self, packet_count: int, done: Future):
        start = self.sim.now
        remaining = packet_count
        inflight = 0
        wire_free = start
        completions = deque()
        serialization = transfer_time(
            self.network.framed_bytes(self.mtu_bytes),
            self.network.link_bytes_per_ps,
        )

        def packet_pipeline(buffer: int):
            # NIC DMA write of the payload into the DMA buffer.
            yield self.controller.write(buffer, self.mtu_bytes)
            # Driver copy: read the DMA buffer, write the app buffer.
            yield self.per_packet_sw_cost
            yield self.controller.read(buffer, self.mtu_bytes)
            yield self.controller.write(buffer + 2048 * 1024, self.mtu_bytes)
            self.delivered_bytes += self.mtu_bytes

        # Window-limited dispatch: the wire serializes arrivals, the
        # memory system bounds drain rate, the window couples them.
        while remaining > 0 or inflight > 0:
            while remaining > 0 and inflight < self.window:
                wire_free = max(wire_free, self.sim.now) + serialization
                arrival_delay = max(0, wire_free - self.sim.now)
                remaining -= 1
                inflight += 1
                process = self.sim.spawn_at(
                    self.sim.now + arrival_delay,
                    packet_pipeline(self._next_buffer()),
                    name=f"{self.name}.pkt",
                )
                completions.append(process.done)
            # Wait for the oldest in-flight packet to finish.
            yield completions.popleft()
            inflight -= 1

        elapsed = self.sim.now - start
        bandwidth_bps = self.delivered_bytes * 8 / (elapsed / 1e12)
        self.stats.set_scalar("achieved_gbps", bandwidth_bps / 1e9)
        done.set_result(bandwidth_bps)
