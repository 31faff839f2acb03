"""The abstract server-node interface shared by all NIC configurations.

A node owns one server's hardware models (memory controllers, the NIC
and its interconnect, descriptor rings) and exposes two process-style
operations:

* :meth:`ServerNode.transmit` — everything from the driver's transmit
  function being called to the packet being handed to the MAC for
  serialization (segments ``txCopy``/``txFlush``/``ioreg``/``txDMA``).
* :meth:`ServerNode.receive` — everything from the frame having fully
  arrived at the MAC to the packet being delivered to the upper network
  layers (segments ``rxDMA``/``ioreg``/``rxInvalidate``/``rxCopy``).

Both charge their time into ``packet.breakdown`` so experiments can
reproduce the stacked bars of Fig. 11.  The ``wire`` segment between
the two is owned by the link/fabric models.

A small :class:`Stopwatch` helper keeps segment charging honest: the
elapsed simulated time between laps is charged, so queueing delays
inside the hardware models land in the right segment automatically.

The node also owns the driver's loss-recovery loop
(:meth:`ServerNode.send_reliably`): a retransmission timer armed per
attempt, exponential backoff between timeouts, and a retransmit budget
whose exhaustion surfaces the packet as lost instead of hanging the
simulation.  When the scenario injects no faults none of it is
entered, so the zero-fault event sequence is untouched.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.driver.polling import detection_cost
from repro.faults.engine import stall_delay
from repro.faults.spec import RecoverySpec
from repro.net.packet import Packet
from repro.params import SystemParams
from repro.sim import Component, Future, Simulator
from repro.units import cachelines, ns


def _complete_timeout(verdict: Future) -> None:
    """Retransmission timer callback: report a timeout, unless the
    delivery already won the race at this exact tick."""
    if not verdict.done:
        verdict.set_result("timeout")


class FlowRecovery:
    """Recovery counters for one flow group (mutated by
    :meth:`ServerNode.send_reliably`, reported in the scenario artifact).
    """

    __slots__ = ("delivered", "lost", "drops", "retransmits", "timeouts")

    def __init__(self):
        self.delivered = 0
        self.lost = 0
        self.drops = 0
        self.retransmits = 0
        self.timeouts = 0

    def as_dict(self) -> dict:
        """JSON-safe rendering, fixed key order."""
        return {
            "delivered": self.delivered,
            "lost": self.lost,
            "drops": self.drops,
            "retransmits": self.retransmits,
            "timeouts": self.timeouts,
        }


class Stopwatch:
    """Charges wall-clock (simulated) time between laps to segments.

    When the simulator carries a span tracer and the packet has a flow
    ``uid``, every lap also closes a ``segment`` span over the same
    interval — one instrumentation point covering the breakdown
    segments of all five NIC kinds.  Recording only reads timestamps,
    so the event stream is identical with tracing on or off.
    """

    __slots__ = ("sim", "packet", "_mark", "_tracer")

    def __init__(self, sim: Simulator, packet: Packet):
        self.sim = sim
        self.packet = packet
        self._mark = sim.now
        tracer = sim.tracer
        self._tracer = tracer if packet.uid is not None else None

    def lap(self, segment: str) -> int:
        """Charge time since the last lap to ``segment``; returns it."""
        now = self.sim.now
        elapsed = now - self._mark
        self.packet.breakdown.add(segment, elapsed)
        if self._tracer is not None:
            self._tracer.add(self.packet.uid, segment, "segment", self._mark, now)
        self._mark = now
        return elapsed


class ServerNode(Component):
    """Base class for dNIC / iNIC / NetDIMM end hosts."""

    nic_kind = "abstract"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        params: Optional[SystemParams] = None,
    ):
        super().__init__(sim, name)
        self.params = params if params is not None else SystemParams()
        self.fault_stalls: Tuple[Tuple[int, int], ...] = ()
        """Stall windows as (start, end) ticks — set by the scenario
        builder from the fault spec; empty means no gating at all."""

    # -- the two path processes (subclasses implement the bodies) -------------
    #
    # Each returns the path process's own ``done`` future: it completes
    # with the packet the body returns, or fails with the exception the
    # body raised, so a model error reaches whoever waits on the path.

    def transmit(self, packet: Packet) -> Future:
        """Run the TX path; future completes when the MAC takes the frame."""
        body = self._transmit_body(packet)
        if self.fault_stalls:
            body = self._stall_gate(body)
        sim = self.sim
        return sim.spawn(body, name=f"{self.name}.tx" if sim.named else "").done

    def receive(self, packet: Packet) -> Future:
        """Run the RX path; future completes at delivery to upper layers."""
        body = self._receive_body(packet)
        if self.fault_stalls:
            body = self._stall_gate(body)
        sim = self.sim
        return sim.spawn(body, name=f"{self.name}.rx" if sim.named else "").done

    def _stall_gate(self, body):
        """Delay ``body`` until the current stall window (if any) ends."""
        delay = stall_delay(self.fault_stalls, self.now)
        if delay:
            self.stats.count("stall_waits")
            yield delay
        return (yield from body)

    # -- driver-level loss recovery -------------------------------------------

    def send_reliably(
        self,
        packet: Packet,
        transit: Callable[[Packet], "object"],
        receiver: "ServerNode",
        recovery: RecoverySpec,
        counters: FlowRecovery,
    ):
        """One packet's reliable delivery loop (``yield from`` this).

        Each attempt runs TX → fabric transit → RX with a cancellable
        retransmission timer racing it; a dropped attempt simply never
        completes and the timer fires.  Timeouts retransmit with
        exponential backoff until the budget is exhausted, at which
        point the packet is abandoned as lost.  Returns True when the
        packet was delivered, False when it was lost.

        ``transit`` is called per attempt and must return a fresh
        transit generator that itself returns True/False (the fabric
        ``transit`` protocol).  A model exception inside an attempt is
        raised here, unless that attempt's timer had already fired.
        """
        timeout = int(ns(recovery.timeout_ns))
        tracer = self.sim.tracer if packet.uid is not None else None
        while True:
            attempt_start = self.now
            verdict = self.sim.future()
            timer = self.sim.call_later(timeout, _complete_timeout, verdict)
            self.sim.spawn(
                self._attempt_body(packet, transit, receiver, verdict, timer, counters),
                name=f"{self.name}.attempt",
            )
            outcome = yield verdict
            if tracer is not None:
                # Child span per attempt: nested inside the flow span,
                # containing that attempt's segment/wire/switch spans.
                tracer.add(
                    packet.uid,
                    f"attempt {packet.attempt}",
                    "recovery",
                    attempt_start,
                    self.now,
                    {"outcome": outcome},
                )
            if outcome == "delivered":
                counters.delivered += 1
                return True
            counters.timeouts += 1
            if packet.attempt >= recovery.max_retransmits:
                counters.lost += 1
                return False
            packet.attempt += 1
            counters.retransmits += 1
            if tracer is not None:
                tracer.counter(
                    f"{self.name}.retransmits", self.now, counters.retransmits
                )
            timeout = int(timeout * recovery.backoff)

    def _attempt_body(
        self,
        packet: Packet,
        transit: Callable[[Packet], "object"],
        receiver: "ServerNode",
        verdict: Future,
        timer,
        counters: FlowRecovery,
    ):
        try:
            yield self.transmit(packet)
            arrived = yield from transit(packet)
            if not arrived:
                # The frame vanished mid-fabric: nobody tells the sender —
                # the retransmission timer is the only way it finds out.
                counters.drops += 1
                return
            yield receiver.receive(packet)
        except Exception as exc:
            # A model error, not a loss: hand it to send_reliably unless
            # the timer already settled this attempt.
            if verdict.done:
                raise
            verdict.set_exception(exc)
            return
        if not verdict.done:
            timer.cancel()
            verdict.set_result("delivered")

    def _transmit_body(self, packet: Packet):
        raise NotImplementedError

    def _receive_body(self, packet: Packet):
        raise NotImplementedError

    # -- shared software-cost helpers -------------------------------------------

    def rx_notification_delay(self, probe_cost: int) -> int:
        """Ticks between an RX completion landing and the driver acting.

        Polling mode: the expected poll-detection latency for this
        node's probe cost.  Interrupt mode: half the moderation window
        plus delivery/handler/context-switch overhead (Sec. 2.1's
        several-microsecond penalty).

        The mode string is validated once in ``SoftwareParams`` — this
        runs per received packet and only dispatches.
        """
        software = self.params.software
        if software.rx_notification == "interrupt":
            return software.interrupt_moderation // 2 + software.interrupt_overhead
        return detection_cost(probe_cost, software.poll_iteration)

    def rx_notification_gate(self, packet: Packet, probe_cost: int):
        """Wait out :meth:`rx_notification_delay` (``yield from`` this).

        Span-traced form of ``yield self.rx_notification_delay(...)``:
        the same single sleep event, plus — when a tracer is attached
        and the packet is a measured one — an ``rxNotify`` child span
        inside the enclosing ``ioreg`` segment.
        """
        start = self.now
        yield self.rx_notification_delay(probe_cost)
        tracer = self.sim.tracer
        if tracer is not None and packet.uid is not None:
            tracer.add(packet.uid, "rxNotify", "notify", start, self.now)

    def copy_cost(self, size_bytes: int) -> int:
        """CPU memcpy cost for ``size_bytes``.

        Latency-bound per line for the first lines of a buffer, then
        prefetcher-streaming rate: small copies pay ~25 ns per line,
        large copies approach 4.5 GB/s.
        """
        software = self.params.software
        lines = cachelines(max(size_bytes, 1))
        initial = min(lines, software.copy_line_breakpoint)
        steady = lines - initial
        return (
            software.copy_base
            + initial * software.copy_line_initial
            + steady * software.copy_line_steady
        )

    def copy_cost_llc(self, size_bytes: int) -> int:
        """RX-copy cost when the source sits in the LLC: the NIC just
        DMA'd the payload there, so every line copies at LLC latency."""
        software = self.params.software
        return (
            software.copy_base
            + cachelines(max(size_bytes, 1)) * software.copy_line_llc
        )

    def flush_cost(self, size_bytes: int) -> int:
        """CPU cost of flushing ``size_bytes`` of dirty cachelines."""
        software = self.params.software
        return software.flush_base + cachelines(size_bytes) * software.flush_per_line

    def invalidate_cost(self, size_bytes: int) -> int:
        """CPU cost of invalidating ``size_bytes`` of cachelines."""
        software = self.params.software
        return software.invalidate_base + cachelines(size_bytes) * software.invalidate_per_line
