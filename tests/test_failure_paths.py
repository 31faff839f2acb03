"""Failure injection: exhaustion fallbacks, ring backpressure, error
propagation through the simulation kernel."""

import pytest

from repro.driver.netdimm_node import NetDIMMNode
from repro.mem.allocator import OutOfMemoryError
from repro.net.packet import Packet
from repro.nic.descriptor import RingFullError
from repro.sim import SimulationError, Simulator


class TestZoneExhaustionFallback:
    """Sec. 4.2.2: COPY_NEEDED doubles as the NET-zone-exhaustion
    fallback."""

    def test_exhausted_zone_forces_slow_path(self, sim, monkeypatch):
        node = NetDIMMNode(sim, "nd")
        node.warm_up()  # fast path would normally engage

        def exhausted(hint=None):
            raise OutOfMemoryError("NET0 exhausted")

        monkeypatch.setattr(node.allocator, "alloc_page", exhausted)
        packet = Packet(size_bytes=256)
        sim.run_until(node.transmit(packet), max_events=2_000_000)
        assert packet.copy_needed
        assert node.stats.get_counter("tx_zone_exhausted_fallback") == 1
        assert node.stats.get_counter("tx_slow_path") == 1

    def test_fallback_packet_still_transmits(self, sim, monkeypatch):
        node = NetDIMMNode(sim, "nd")
        node.warm_up()
        monkeypatch.setattr(
            node.allocator,
            "alloc_page",
            lambda hint=None: (_ for _ in ()).throw(OutOfMemoryError("full")),
        )
        packet = Packet(size_bytes=256)
        sim.run_until(node.transmit(packet), max_events=2_000_000)
        assert node.stats.get_counter("tx_packets") == 1
        assert packet.dma_address is not None

    def test_fallback_is_rare_normally(self, sim):
        node = NetDIMMNode(sim, "nd")
        node.warm_up()
        for _ in range(10):
            sim.run_until(node.transmit(Packet(size_bytes=256)), max_events=2_000_000)
        assert node.stats.get_counter("tx_zone_exhausted_fallback") == 0


class TestRingBackpressure:
    def test_full_tx_ring_raises_through_process(self, sim):
        node = NetDIMMNode(sim, "nd")
        node.warm_up()
        # Fill the ring without letting the device drain it.
        for _ in range(node.tx_ring.size - 1):
            node.tx_ring.produce(0x1000, 64)
        done = node.transmit(Packet(size_bytes=64))
        sim.run(max_events=2_000_000)
        # The transmit process died on RingFullError; the node's future
        # fails with it rather than completing as if the frame went out.
        assert done.done
        with pytest.raises(RingFullError):
            done.value

    def test_ring_full_error_type(self):
        from repro.nic.descriptor import DescriptorRing

        ring = DescriptorRing(size=2)
        ring.produce(0, 64)
        with pytest.raises(RingFullError):
            ring.produce(0, 64)


class TestKernelErrorPropagation:
    def test_model_exception_reaches_waiter(self, sim):
        def broken():
            yield 10
            raise ZeroDivisionError("model bug")

        def waiter():
            try:
                yield sim.spawn(broken())
            except ZeroDivisionError:
                return "saw it"

        process = sim.spawn(waiter())
        assert sim.run_until(process.done) == "saw it"

    def test_unobserved_exception_does_not_crash_run(self, sim):
        def broken():
            yield 10
            raise RuntimeError("unobserved")

        process = sim.spawn(broken())
        sim.run()  # must not raise
        with pytest.raises(RuntimeError):
            process.done.value

    def test_run_until_surfaces_drained_queue(self, sim):
        forever_pending = sim.future()
        with pytest.raises(SimulationError):
            sim.run_until(forever_pending)
