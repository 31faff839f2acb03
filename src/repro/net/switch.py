"""Switch model.

The paper's dist-gem5 switch model [58] reduces to a per-hop forwarding
latency (Table 1: 100 ns default; Fig. 12(a) sweeps 25–200 ns) plus the
egress link's serialization.  We model a cut-through switch: forwarding
starts after the header is in, so per-hop cost is the switch latency
plus one egress serialization (shared egress ports queue).

A switch may additionally be given a finite-depth output queue
(``queue_depth``).  A packet then occupies one slot on its egress port
from ingress until its serialization onto the egress link completes;
when a port's queue is full, further packets stall at ingress until a
slot frees (lossless PFC-style backpressure, the behavior EDM-style
fabric studies depend on).  ``queue_depth=None`` keeps the legacy
unbounded behavior and its exact event sequence.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.faults.spec import FAULT_SWITCH_MODES
from repro.params import DEFAULT, NetworkParams
from repro.sim import Component, Future, Resource, Simulator
from repro.units import transfer_time


class Switch(Component):
    """A named switch with contended (optionally finite-depth) egress ports."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        params: Optional[NetworkParams] = None,
        queue_depth: Optional[int] = None,
        drop_mode: str = "backpressure",
    ):
        super().__init__(sim, name)
        self.params = params if params is not None else DEFAULT.network
        if queue_depth is not None and queue_depth <= 0:
            raise ValueError(f"queue_depth must be positive, got {queue_depth}")
        if drop_mode not in FAULT_SWITCH_MODES:
            raise ValueError(
                f"unknown drop_mode {drop_mode!r} "
                f"(expected one of {FAULT_SWITCH_MODES})"
            )
        self.queue_depth = queue_depth
        self.drop_mode = drop_mode
        self._egress_ports: Dict[str, Resource] = {}
        self._occupancy: Dict[str, int] = {}
        self._slot_waiters: Dict[str, Deque[Future]] = {}
        # transfer_time of a given frame size never changes, so
        # forward_transit memoizes it per size.
        self._serialization_cache: Dict[int, int] = {}
        # Hybrid-fidelity coupling (repro.flow): the owning ClosFabric
        # points every switch at the scenario's shared FlowLoadMap and
        # its own topology node name when flow-level traffic exists.
        # None (the default) keeps the pure packet path untouched.
        self.flow_load = None
        self.topo_node: Optional[str] = None

    def _egress(self, port: str) -> Resource:
        resource = self._egress_ports.get(port)
        if resource is None:
            resource = Resource(self.sim, name=f"{self.name}.{port}")
            self._egress_ports[port] = resource
        return resource

    def hop_latency(self, size_bytes: int) -> int:
        """Closed-form unloaded per-hop latency (cut-through).

        Switch pipeline + egress serialization of the framed packet +
        egress cable propagation.
        """
        return (
            self.params.switch_latency
            + transfer_time(
                self.params.framed_bytes(size_bytes), self.params.link_bytes_per_ps
            )
            + self.params.propagation
        )

    def forward_transit(
        self, size_bytes: int, egress_port: str, tracer=None, uid=None
    ):
        """Forward one frame through a (possibly contended) egress port.

        A generator run inline (``yield from``) by the fabric transit
        path, one per switch per packet, so no process is spawned per
        hop.  Returns True when the frame was forwarded; False when a full
        output queue in ``lossy`` drop mode ate it (cut-through: the
        overflow is decided at ingress, before any time is charged).

        ``tracer``/``uid`` (a :class:`repro.telemetry.SpanTracer` and
        the packet's flow uid) split the hop into two spans: the queue
        wait on a full output queue (omitted when zero) and the
        transmit (pipeline + egress serialization + propagation).
        Tracing only records timestamps — the event order is identical
        with it on or off.
        """
        start = self.now
        flow_load = self.flow_load
        if flow_load is not None:
            serialization = self._serialization_cache.get(size_bytes)
            if serialization is None:
                serialization = transfer_time(
                    self.params.framed_bytes(size_bytes),
                    self.params.link_bytes_per_ps,
                )
                self._serialization_cache[size_bytes] = serialization
            # Flow-level background utilization of this egress link,
            # priced as the M/D/1 mean wait an extra frame would see.
            # Charged at ingress (before the slot claim) like any other
            # occupancy; zero load yields nothing, so the unloaded
            # event sequence is byte-identical to the pure packet path.
            wait = flow_load.queue_wait((self.topo_node, egress_port), serialization)
            if wait:
                yield wait
        if self.queue_depth is not None:
            if self.drop_mode == "lossy":
                if self._occupancy.get(egress_port, 0) >= self.queue_depth:
                    self.stats.count("overflow_drops")
                    # The drop happens at ingress, before any span is
                    # opened — record it explicitly or the timeline
                    # undercounts traffic under overflow.
                    sim_tracer = self.sim.tracer
                    if sim_tracer is not None:
                        sim_tracer.counter(
                            f"{self.name}.{egress_port}.overflow_drops",
                            self.now,
                            self.stats.get_counter("overflow_drops"),
                        )
                        if uid is not None:
                            sim_tracer.instant(
                                uid,
                                f"{self.name} drop",
                                "switch",
                                self.now,
                                {"port": egress_port},
                            )
                    return False
                self._take_slot(egress_port)
            else:
                yield from self._claim_slot(egress_port)
        if tracer is not None and self.now > start:
            tracer.add(uid, f"{self.name} queue", "switch", start, self.now)
        xmit_start = self.now
        yield self.params.switch_latency
        serialization = self._serialization_cache.get(size_bytes)
        if serialization is None:
            serialization = transfer_time(
                self.params.framed_bytes(size_bytes), self.params.link_bytes_per_ps
            )
            self._serialization_cache[size_bytes] = serialization
        # Resource.use(serialization) on the egress port, spelled out
        # so the hop runs without a delegated generator frame.
        egress = self._egress(egress_port)
        sim = self.sim
        request_time = sim._now
        future = egress.acquire()
        granted_at = yield future
        sim.recycle(future)
        egress.total_wait_ticks += granted_at - request_time
        if serialization:
            yield serialization
        egress.release()
        if self.queue_depth is not None:
            self._release_slot(egress_port)
        yield self.params.propagation
        self.stats.count("forwarded")
        self.stats.sample("hop_ns", (self.now - start) / 1000)
        if tracer is not None:
            tracer.add(uid, self.name, "switch", xmit_start, self.now)
        return True

    # -- finite output queue --------------------------------------------------

    def _take_slot(self, port: str) -> None:
        """Occupy one output-queue slot on ``port`` (space must exist)."""
        held = self._occupancy.get(port, 0) + 1
        self._occupancy[port] = held
        self.stats.sample("queue_depth", held)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.counter(f"{self.name}.{port}.queue_depth", self.sim.now, held)

    def _claim_slot(self, port: str):
        """Take one output-queue slot on ``port``, stalling while full."""
        occupancy = self._occupancy
        while occupancy.get(port, 0) >= self.queue_depth:
            self.stats.count("egress_stalls")
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.counter(
                    f"{self.name}.{port}.egress_stalls",
                    self.sim.now,
                    self.stats.get_counter("egress_stalls"),
                )
            waiter = self.sim.future()
            self._slot_waiters.setdefault(port, deque()).append(waiter)
            yield waiter
        self._take_slot(port)

    def _release_slot(self, port: str) -> None:
        """Free one slot and wake the oldest stalled ingress, if any."""
        held = self._occupancy[port] - 1
        self._occupancy[port] = held
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.counter(f"{self.name}.{port}.queue_depth", self.sim.now, held)
        waiters = self._slot_waiters.get(port)
        if waiters:
            waiters.popleft().set_result(None)
