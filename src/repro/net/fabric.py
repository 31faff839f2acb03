"""Event-driven fabric: packets live-traverse instantiated switches.

The analytical path model (:meth:`repro.net.topology.ClosTopology.path_latency`)
adds per-hop constants — fine at zero load, blind to queueing.  This
module instantiates the fabric for real inside one simulator:

* :class:`DirectFabric` — the degenerate two-host fabric: one
  point-to-point :class:`~repro.net.link.EthernetWire`.  Reproduces the
  exact event sequence ``measure_one_way`` has always used, so the
  one-way experiment is the trivial two-node scenario.
* :class:`ClosFabric` — one :class:`~repro.net.switch.Switch` per
  switch/router of a :class:`~repro.net.topology.ClosTopology`, each
  with a finite-depth output queue, connected by links with real
  serialization and propagation.  Packets traverse hop by hop, so
  egress contention (incast!) and switch-queue backpressure emerge from
  the event order instead of being assumed away.

Both expose ``transit(packet, src_host, dst_host)`` as a generator to be
driven with ``yield from`` inside a flow process; the elapsed transit
time is charged to the packet's ``wire`` breakdown segment, matching the
segment taxonomy of Fig. 11.

At zero load a clos transit reduces exactly to the analytical sum:
sender MAC/PHY + first-link serialization + propagation, then per
switch hop the switch pipeline + egress serialization + propagation
(+ the WAN propagation once on the inter-DC edge link), then receiver
MAC/PHY — i.e. ``endhost wire pieces + path_latency``.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Optional, Tuple

from repro.faults.engine import OK, FaultInjector
from repro.net.link import EthernetWire
from repro.net.packet import Packet
from repro.net.switch import Switch
from repro.net.topology import INTER_DC_WAN_PROPAGATION, ClosTopology
from repro.params import NetworkParams
from repro.sim import Component, Future, Resource, Simulator
from repro.units import transfer_time


class DirectFabric(Component):
    """Two hosts on one point-to-point wire — the degenerate fabric."""

    kind = "direct"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        hosts: Tuple[str, str],
        *,
        params: Optional[NetworkParams] = None,
        injector: Optional[FaultInjector] = None,
    ):
        super().__init__(sim, name)
        if len(hosts) != 2 or hosts[0] == hosts[1]:
            raise ValueError(f"direct fabric needs two distinct hosts, got {hosts!r}")
        self.params = params or NetworkParams()
        self.hosts = tuple(hosts)
        self.injector = injector
        self.wire = EthernetWire(sim, f"{name}.wire", params=self.params)

    def host_names(self) -> List[str]:
        """The two attachable host names."""
        return list(self.hosts)

    def hop_count(self, src: str, dst: str) -> int:
        """Switch hops between two hosts (always zero here)."""
        self._check(src, dst)
        return 0

    def _check(self, src: str, dst: str) -> None:
        if {src, dst} != set(self.hosts):
            raise ValueError(
                f"direct fabric connects {self.hosts!r}, not {src!r}->{dst!r}"
            )

    def transit(self, packet: Packet, src: str, dst: str):
        """Carry ``packet`` from ``src`` to ``dst`` (``yield from`` this).

        Returns True when the packet arrived; False when the fault
        injector ate it on the wire (the attempt still consumed the
        full wire traversal — the sender only learns via timeout).
        """
        self._check(src, dst)
        start = self.now
        # The wire is full duplex: each direction has its own bus.
        yield self.wire.transmit(packet.size_bytes, reverse=src == self.hosts[1])
        packet.breakdown.add("wire", self.now - start)
        tracer = self.sim.tracer
        if tracer is not None and packet.uid is not None:
            tracer.add(packet.uid, "wire", "net", start, self.now)
        if self.injector is not None:
            if self.injector.link_verdict(f"{src}->{dst}", self.now, packet) != OK:
                return False
        return True


class ClosFabric(Component):
    """A live clos fabric: one queued switch per topology switch node."""

    kind = "clos"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        topology: Optional[ClosTopology] = None,
        *,
        queue_depth: Optional[int] = 16,
        drop_mode: str = "backpressure",
        injector: Optional[FaultInjector] = None,
    ):
        super().__init__(sim, name)
        self.topology = topology or ClosTopology()
        self.params = self.topology.params
        self.queue_depth = queue_depth
        self.drop_mode = drop_mode
        self.injector = injector
        graph = self.topology.graph
        self.switches: Dict[str, Switch] = {
            node: Switch(
                sim,
                f"{name}.{node}",
                params=self.params,
                queue_depth=queue_depth,
                drop_mode=drop_mode,
            )
            for node, data in sorted(graph.nodes(data=True))
            if data["tier"] != "host"
        }
        # Each host's uplink to its ToR serializes that host's departures.
        self._uplinks: Dict[str, Resource] = {}
        # (src, dst, path index) -> precomputed per-hop transit plan:
        # the first-link label plus (switch, next_hop, wan?, label) per
        # switch hop, so transit never re-reads graph node attributes
        # or rebuilds link labels per packet.
        self._hop_plans: Dict[Tuple[str, str, int], tuple] = {}
        self._serialization_cache: Dict[int, int] = {}
        # Batched drain mode (see repro.sim.engine): the uplink claim is
        # inlined into transit instead of delegating through
        # Resource.use — identical event sequence, one fewer generator
        # frame per packet.
        self._batch = bool(sim.batch)
        # Hybrid-fidelity coupling (repro.flow): set by
        # enable_flow_coupling when a scenario carries flow-level
        # traffic; None keeps the pure packet path byte-identical.
        self.flow_load = None

    def enable_flow_coupling(self):
        """Attach a shared :class:`repro.flow.FlowLoadMap` (idempotent).

        Every switch gets the map plus its own topology node name, so
        packet-level forwards pay the analytical queueing delay of the
        flow-level background load on their egress link; the host
        uplink pays it in :meth:`transit`.  At zero recorded load the
        coupling adds zero delay *and zero events* — the foreground
        event sequence stays byte-identical to an all-packet run.
        """
        load = self.flow_load
        if load is None:
            from repro.flow.model import FlowLoadMap

            load = FlowLoadMap(self.params.link_bytes_per_ps)
            self.flow_load = load
            for node, switch in self.switches.items():
                switch.flow_load = load
                switch.topo_node = node
        return load

    def host_names(self) -> List[str]:
        """All attachable host names, sorted."""
        return self.topology.hosts()

    def _uplink(self, host: str) -> Resource:
        uplink = self._uplinks.get(host)
        if uplink is None:
            uplink = Resource(self.sim, name=f"{self.name}.{host}.uplink")
            self._uplinks[host] = uplink
        return uplink

    def route_paths(self, src: str, dst: str) -> List[List[str]]:
        """All equal-cost shortest paths between two hosts, sorted.

        Read from the topology's ECMP route table
        (:meth:`repro.net.topology.ClosTopology.ecmp_paths`), which
        enumerates each host pair once and caches it; both per-packet
        ECMP hashing (:meth:`route`) and flow-level demand spreading
        (:class:`repro.flow.FlowSource`) read the same list, so the two
        fidelities agree on what the fabric looks like.
        """
        return self.topology.ecmp_paths(src, dst)

    def route(self, src: str, dst: str, flow_id: int = 0) -> List[str]:
        """The (deterministic) path for one flow: ECMP by flow id.

        All equal-cost shortest paths are enumerated once per host pair
        and a flow hashes onto one of them, so concurrent flows spread
        over the fabric tier the way ECMP routing would.
        """
        paths = self.route_paths(src, dst)
        return paths[flow_id % len(paths)]

    def hop_count(self, src: str, dst: str) -> int:
        """Switch hops on the flow-0 path."""
        return len(self.route(src, dst)) - 2

    def _serialization(self, size_bytes: int) -> int:
        ticks = self._serialization_cache.get(size_bytes)
        if ticks is None:
            ticks = transfer_time(
                self.params.framed_bytes(size_bytes), self.params.link_bytes_per_ps
            )
            self._serialization_cache[size_bytes] = ticks
        return ticks

    def _transit_plan(self, src: str, dst: str, flow_id: int) -> tuple:
        """``(first_link_label, first_hop, hops)`` for one flow's ECMP path.

        ``first_hop`` is the ToR the host uplink lands on (the flow-load
        key of the uplink); ``hops`` is ``(switch, next_hop, wan_extra,
        link_label)`` per switch on the path, with the inter-DC WAN test
        (both endpoints edge-tier) resolved once instead of per packet.
        """
        paths = self.route_paths(src, dst)
        index = flow_id % len(paths)
        key = (src, dst, index)
        plan = self._hop_plans.get(key)
        if plan is None:
            path = paths[index]
            tiers = self.topology.graph.nodes
            hops = []
            for node, next_hop in zip(path[1:-1], path[2:]):
                wan_extra = (
                    tiers[node]["tier"] == "edge"
                    and next_hop in self.switches
                    and tiers[next_hop]["tier"] == "edge"
                )
                hops.append(
                    (self.switches[node], next_hop, wan_extra, f"{node}->{next_hop}")
                )
            plan = (f"{src}->{path[1]}", path[1], tuple(hops))
            self._hop_plans[key] = plan
        return plan

    def transit(self, packet: Packet, src: str, dst: str):
        """Carry ``packet`` hop by hop from ``src`` to ``dst``.

        Drive with ``yield from`` inside a flow process.  The elapsed
        time — including any egress queueing and backpressure stalls —
        is charged to the ``wire`` breakdown segment.

        Returns True on delivery; False when a link fault or a lossy
        switch overflow ate the packet mid-path.  A faulted attempt
        still pays the traversal up to the failing hop — the sender
        only learns about the loss via its retransmission timer.
        """
        start = self.now
        first_link, first_hop, hops = self._transit_plan(src, dst, packet.flow_id)
        injector = self.injector
        tracer = self.sim.tracer if packet.uid is not None else None
        delivered = True
        # Sender NIC: MAC/PHY, then the host uplink serializes departures.
        yield self.params.mac_phy_latency
        serialization = self._serialization(packet.size_bytes)
        flow_load = self.flow_load
        if flow_load is not None:
            # Flow-level background load on the host uplink shows up as
            # an analytical queue wait before the departure serializes.
            # Zero load → zero wait → no event: the unloaded hybrid
            # path is byte-identical to the pure packet path.
            wait = flow_load.queue_wait((src, first_hop), serialization)
            if wait:
                yield wait
        if self._batch:
            # Inlined Resource.use(serialization) on the host uplink —
            # the exact acquire/yield/recycle/hold/release sequence of
            # repro.sim.resource.Resource.use without the delegated
            # generator frame.
            uplink = self._uplink(src)
            sim = self.sim
            pool = sim._future_pool
            future = pool.pop() if pool else Future(sim)
            request_time = sim._now
            if not uplink._busy and not uplink._waiters:
                uplink._busy = True
                uplink.total_acquisitions += 1
                future.set_result(request_time)
            else:
                uplink._ticket += 1
                insort(uplink._waiters, (0, uplink._ticket, future))
            granted_at = yield future
            sim.recycle(future)
            uplink.total_wait_ticks += granted_at - request_time
            if serialization:
                yield serialization
            uplink.release()
        else:
            yield from self._uplink(src).use(serialization)
        yield self.params.propagation
        if injector is not None and (
            injector.link_verdict(first_link, self.now, packet) != OK
        ):
            delivered = False
        if delivered:
            # Each switch: pipeline + contended finite-depth egress + cable.
            for switch, next_hop, wan_extra, link_label in hops:
                forwarded = yield from switch.forward_transit(
                    packet.size_bytes,
                    egress_port=next_hop,
                    tracer=tracer,
                    uid=packet.uid,
                )
                if forwarded is False:
                    # Lossy-mode output-queue overflow at this switch.
                    delivered = False
                    break
                if wan_extra:
                    # The inter-DC edge-to-edge link is metro fiber, not a
                    # rack cable: add the WAN propagation on top.
                    yield INTER_DC_WAN_PROPAGATION
                if injector is not None and (
                    injector.link_verdict(link_label, self.now, packet) != OK
                ):
                    delivered = False
                    break
        if delivered:
            # Receiver NIC MAC/PHY.
            yield self.params.mac_phy_latency
        elapsed = self.now - start
        packet.breakdown.add("wire", elapsed)
        if tracer is not None:
            # The end-to-end wire span; per-switch queue/transmit spans
            # nest inside it (emitted by forward_transit above).
            tracer.add(packet.uid, "wire", "net", start, self.now)
        if delivered:
            self.stats.count("packets")
            self.stats.count("bytes", packet.size_bytes)
            self.stats.sample("transit_ns", elapsed / 1000)
        else:
            self.stats.count("dropped")
        return delivered

    def stall_count(self) -> int:
        """Total ingress stalls on full output queues, fabric-wide."""
        return sum(
            switch.stats.get_counter("egress_stalls")
            for switch in self.switches.values()
        )

    def forwarded_count(self) -> int:
        """Total per-switch forward operations, fabric-wide."""
        return sum(
            switch.stats.get_counter("forwarded")
            for switch in self.switches.values()
        )

    def overflow_count(self) -> int:
        """Total lossy-mode output-queue overflow drops, fabric-wide."""
        return sum(
            switch.stats.get_counter("overflow_drops")
            for switch in self.switches.values()
        )
