"""NIC building blocks: descriptor rings, register files, DMA traces."""

import pytest
from hypothesis import given, strategies as st

from repro.nic import (
    Descriptor,
    DescriptorRing,
    MemoryChannelRegisterFile,
    OnDieRegisterFile,
    PCIeRegisterFile,
    RingFullError,
    dma_burst_trace,
)
from repro.params import NVDIMMPParams, NetDIMMParams, PCIeParams, ddr5_4800
from repro.pcie import PCIeLink
from repro.units import Gbps, ns, to_ns, transfer_time
from tests.conftest import run_process


class TestDescriptorRing:
    def test_starts_empty(self):
        ring = DescriptorRing(size=8)
        assert ring.is_empty
        assert not ring.is_full
        assert ring.occupancy == 0

    def test_produce_consume_cycle(self):
        ring = DescriptorRing(size=8)
        index = ring.produce(0x1000, 256, cookie="pkt")
        assert index == 0
        assert ring.occupancy == 1
        descriptor = ring.consume()
        assert descriptor.buffer_address == 0x1000
        assert descriptor.size_bytes == 256
        assert descriptor.cookie == "pkt"
        assert ring.is_empty

    def test_full_ring_rejects_produce(self):
        ring = DescriptorRing(size=4)
        for _ in range(3):  # one slot sacrificed, e1000-style
            ring.produce(0, 64)
        assert ring.is_full
        with pytest.raises(RingFullError):
            ring.produce(0, 64)

    def test_consume_empty_raises(self):
        with pytest.raises(IndexError):
            DescriptorRing(size=4).consume()

    def test_wraparound(self):
        ring = DescriptorRing(size=4)
        for round_ in range(10):
            ring.produce(round_, 64)
            assert ring.consume().buffer_address == round_

    def test_peek_does_not_consume(self):
        ring = DescriptorRing(size=4)
        ring.produce(0x42, 64)
        assert ring.peek().buffer_address == 0x42
        assert ring.occupancy == 1

    def test_peek_empty_returns_none(self):
        assert DescriptorRing(size=4).peek() is None

    def test_descriptor_addresses_packed(self):
        ring = DescriptorRing(size=8, base_address=0x10000)
        assert ring.descriptor_address(0) == 0x10000
        assert ring.descriptor_address(1) == 0x10000 + 16
        assert ring.descriptor_address(8) == 0x10000  # wraps

    def test_ring_memory_footprint(self):
        ring = DescriptorRing(size=256)
        assert ring.ring_bytes == 256 * Descriptor.DESCRIPTOR_BYTES
        assert ring.ring_cachelines == 64

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            DescriptorRing(size=1)

    @given(st.lists(st.booleans(), max_size=100))
    def test_occupancy_invariant(self, operations):
        ring = DescriptorRing(size=8)
        produced = consumed = 0
        for is_produce in operations:
            if is_produce and not ring.is_full:
                ring.produce(produced, 64)
                produced += 1
            elif not is_produce and not ring.is_empty:
                ring.consume()
                consumed += 1
        assert ring.occupancy == produced - consumed


class TestRegisterFiles:
    def test_peek_poke_shared_state(self, sim):
        regs = OnDieRegisterFile(sim, "r")
        regs.poke("tail", 7)
        assert regs.peek("tail") == 7
        assert regs.peek("unset") == 0

    def test_ondie_read_cost(self, sim):
        regs = OnDieRegisterFile(sim, "r", access_latency=ns(20))
        regs.poke("status", 1)

        def body():
            value = yield from regs.read("status")
            return value, sim.now

        value, finish = run_process(sim, body())
        assert value == 1
        assert finish == ns(20)

    def test_pcie_read_is_blocking_round_trip(self, sim):
        link = PCIeLink(sim, "pcie")
        regs = PCIeRegisterFile(sim, "r", link)

        def body():
            yield from regs.read("status")
            return sim.now

        finish = run_process(sim, body())
        assert finish == link.mmio_read_latency()

    def test_pcie_write_cpu_cost_only(self, sim):
        link = PCIeLink(sim, "pcie")
        regs = PCIeRegisterFile(sim, "r", link)

        def body():
            yield from regs.write("tail", 3)
            return sim.now

        finish = run_process(sim, body())
        assert finish == link.params.doorbell_write_cost
        assert regs.peek("tail") == 3

    def test_memory_channel_read_between_ondie_and_pcie(self, sim):
        """Sec. 4.2.2: polling NetDIMM beats polling a PCIe NIC."""
        netdimm_params = NetDIMMParams()
        channel_regs = MemoryChannelRegisterFile(
            sim, "nd", ddr5_4800(), NVDIMMPParams(), netdimm_params.ncontroller_latency
        )
        ondie_cost = ns(20)
        pcie_link = PCIeLink(sim, "pcie", PCIeParams())
        nd_cost = channel_regs.register_read_latency()
        assert ondie_cost < nd_cost < pcie_link.mmio_read_latency()

    def test_memory_channel_write_posted(self, sim):
        regs = MemoryChannelRegisterFile(
            sim, "nd", ddr5_4800(), NVDIMMPParams(), ns(6)
        )
        assert regs.register_write_latency() < regs.register_read_latency()

    def test_counters(self, sim):
        regs = OnDieRegisterFile(sim, "r")

        def body():
            yield from regs.read("a")
            yield from regs.write("a", 1)

        run_process(sim, body())
        assert regs.stats.get_counter("reads") == 1
        assert regs.stats.get_counter("writes") == 1


class TestDMABurstTrace:
    def test_six_mtu_packets_six_bursts(self):
        trace = dma_burst_trace([1514] * 6)
        bursts = trace.bursts(gap_threshold=ns(60))
        assert len(bursts) == 6

    def test_24_lines_per_mtu_burst(self):
        trace = dma_burst_trace([1514] * 6)
        for burst in trace.bursts(gap_threshold=ns(60)):
            assert len(burst) == 24

    def test_burst_duration_near_143ns(self):
        """The paper measures 143 ns for the third packet's burst."""
        trace = dma_burst_trace([1514] * 6)
        duration = trace.burst_duration(2, gap_threshold=ns(60))
        assert 100 <= to_ns(duration) <= 190

    def test_addresses_consecutive_within_burst(self):
        trace = dma_burst_trace([1514] * 2)
        first_burst = trace.bursts(gap_threshold=ns(60))[0]
        addresses = [address for _time, address in first_burst]
        assert addresses == [i * 64 for i in range(24)]

    def test_times_monotone(self):
        trace = dma_burst_trace([1514, 64, 1514])
        times = [time for time, _address in trace.accesses]
        assert times == sorted(times)

    def test_small_packet_single_line(self):
        trace = dma_burst_trace([64])
        assert trace.count == 1

    def test_mixed_sizes(self):
        # A 64 B packet serializes in ~17.6 ns, so a tighter gap
        # threshold is needed to separate its burst from the next.
        trace = dma_burst_trace([64, 1514, 256])
        bursts = trace.bursts(gap_threshold=ns(10))
        assert [len(burst) for burst in bursts] == [1, 24, 4]

    def test_small_frames_pad_to_minimum(self):
        # A 10 B packet occupies the wire as a 64 B minimum frame plus
        # 24 B of framing.
        trace = dma_burst_trace([10, 10])
        gap = trace.accesses[1][0] - trace.accesses[0][0]
        assert gap == transfer_time(64 + 24, Gbps(40))

    def test_interarrival_matches_wire_rate(self):
        trace = dma_burst_trace([1514, 1514])
        bursts = trace.bursts(gap_threshold=ns(60))
        gap = bursts[1][0][0] - bursts[0][0][0]
        # 1538 B at 40 Gb/s ~= 307.6 ns between packet starts.
        assert to_ns(gap) == pytest.approx(307.6, rel=0.01)
