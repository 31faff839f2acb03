"""End-host node models: dNIC / iNIC / NetDIMM TX and RX paths."""

import pytest

from repro.driver.host_nic import DiscreteNICNode, IntegratedNICNode
from repro.driver.netdimm_node import NetDIMMNode
from repro.net.packet import FIG11_SEGMENTS, Packet
from repro.sim import Simulator


def transmit(node, size):
    packet = Packet(size_bytes=size)
    node.sim.run_until(node.transmit(packet), max_events=2_000_000)
    return packet


def receive(node, size):
    packet = Packet(size_bytes=size)
    node.sim.run_until(node.receive(packet), max_events=2_000_000)
    return packet


class HostNICCases:
    """The driver steps both host-NIC kinds share (``HostNICNode``),
    written once and run by each subclass for its ``node_class``."""

    node_class = None
    label = ""

    def test_tx_segments_charged(self, sim):
        packet = transmit(self.node_class(sim, "n"), 256)
        for segment in ("txCopy", "ioreg", "txDMA"):
            assert packet.breakdown.get(segment) > 0

    def test_rx_segments_charged(self, sim):
        packet = receive(self.node_class(sim, "n"), 256)
        for segment in ("rxDMA", "ioreg", "rxCopy"):
            assert packet.breakdown.get(segment) > 0

    def test_zero_copy_shares_buffer(self, sim):
        packet = receive(self.node_class(sim, "n", zero_copy=True), 256)
        assert packet.app_address == packet.dma_address

    def test_allocator_steady_state(self, sim):
        node = self.node_class(sim, "n")
        baseline = node.allocator.allocated_pages
        for size in (700, 1514):
            for _ in range(20):
                transmit(node, size)
                receive(node, size)
        assert node.allocator.allocated_pages == baseline

    @pytest.mark.parametrize("size", [64, 700, 1514])
    def test_rx_copy_is_llc_priced(self, sim, size):
        """The RX copy reads LLC-resident lines: SKB allocation, then
        ``copy_base`` plus ``copy_line_llc`` per line, whatever the size."""
        node = self.node_class(sim, "n")
        software = node.params.software
        packet = receive(node, size)
        lines = -(-size // 64)
        assert packet.breakdown.get("rxCopy") == (
            software.rx_skb_alloc
            + software.copy_base
            + lines * software.copy_line_llc
        )

    def test_nic_label(self, sim):
        assert self.node_class(sim, "a").nic_label == self.label
        zero_copy = self.node_class(sim, "b", zero_copy=True)
        assert zero_copy.nic_label == f"{self.label}.zcpy"


class TestDiscreteNICNode(HostNICCases):
    node_class = DiscreteNICNode
    label = "dNIC"

    def test_no_flush_segments(self, sim):
        """Flush/invalidate are NetDIMM-specific costs."""
        node = DiscreteNICNode(sim, "n")
        packet = transmit(node, 256)
        assert packet.breakdown.get("txFlush") == 0
        assert packet.breakdown.get("rxInvalidate") == 0

    def test_zero_copy_skips_copies(self, sim):
        plain = DiscreteNICNode(sim, "a")
        zcpy = DiscreteNICNode(sim, "b", zero_copy=True)
        assert transmit(zcpy, 2000).breakdown.get("txCopy") < (
            transmit(plain, 2000).breakdown.get("txCopy")
        )

    def test_pcie_overhead_estimate_positive_and_bounded(self, sim):
        node = DiscreteNICNode(sim, "n")
        packet = transmit(node, 64)
        overhead = node.pcie_overhead_estimate(64)
        assert 0 < overhead
        assert overhead < 2 * packet.breakdown.total

    def test_larger_packets_slower(self, sim):
        node = DiscreteNICNode(sim, "n")
        small = transmit(node, 64).breakdown.total
        large = transmit(node, 1514).breakdown.total
        assert large > small


class TestIntegratedNICNode(HostNICCases):
    node_class = IntegratedNICNode
    label = "iNIC"

    def test_ioreg_cheaper_than_dnic(self, sim):
        dnic = DiscreteNICNode(sim, "d")
        inic = IntegratedNICNode(sim, "i")
        dnic_packet = transmit(dnic, 256)
        inic_packet = transmit(inic, 256)
        assert inic_packet.breakdown.get("ioreg") < dnic_packet.breakdown.get("ioreg")

    def test_zero_copy_tx_reads_dram(self, sim):
        node = IntegratedNICNode(sim, "i", zero_copy=True)
        transmit(node, 1514)
        assert node.host_mc.stats.get_counter("reads") >= 1


class TestNetDIMMNode:
    def test_first_tx_takes_slow_path(self, sim):
        node = NetDIMMNode(sim, "nd")
        packet = transmit(node, 256)
        assert packet.copy_needed
        assert node.stats.get_counter("tx_slow_path") == 1

    def test_later_tx_takes_fast_path(self, sim):
        node = NetDIMMNode(sim, "nd")
        transmit(node, 256)  # teaches the socket its zone
        packet = transmit(node, 256)
        assert not packet.copy_needed
        assert node.stats.get_counter("tx_fast_path") == 1

    def test_warm_up_skips_slow_path(self, sim):
        node = NetDIMMNode(sim, "nd")
        node.warm_up()
        packet = transmit(node, 256)
        assert not packet.copy_needed

    def test_fast_path_cheaper_than_slow(self, sim):
        slow_node = NetDIMMNode(sim, "a")
        fast_node = NetDIMMNode(sim, "b")
        fast_node.warm_up()
        slow = transmit(slow_node, 1514).breakdown.total
        fast = transmit(fast_node, 1514).breakdown.total
        assert fast < slow

    def test_tx_flush_charged(self, sim):
        node = NetDIMMNode(sim, "nd")
        node.warm_up()
        packet = transmit(node, 1514)
        assert packet.breakdown.get("txFlush") > 0

    def test_rx_invalidate_charged(self, sim):
        node = NetDIMMNode(sim, "nd")
        packet = receive(node, 1514)
        assert packet.breakdown.get("rxInvalidate") > 0

    def test_rx_clone_runs_fpm(self, sim):
        """Hinted allocation makes the RX clone a same-sub-array FPM."""
        node = NetDIMMNode(sim, "nd")
        receive(node, 1514)
        assert node.stats.get_counter("rx_clone_fpm") == 1

    def test_no_hint_degrades_clone_mode(self, sim):
        node = NetDIMMNode(sim, "nd", use_subarray_hint=False)
        for _ in range(10):
            receive(node, 1514)
        assert node.stats.get_counter("rx_clone_fpm") < 10

    def test_no_alloc_cache_slow_allocations(self, sim):
        with_cache = NetDIMMNode(sim, "a")
        without = NetDIMMNode(sim, "b", use_alloc_cache=False)
        cached = receive(with_cache, 256).breakdown.total
        uncached = receive(without, 256).breakdown.total
        assert uncached > cached

    def test_rx_header_served_from_ncache(self, sim):
        node = NetDIMMNode(sim, "nd")
        receive(node, 1514)
        assert node.device.stats.get_counter("ncache_hits") >= 1

    def test_all_segments_are_fig11_labels(self, sim):
        node = NetDIMMNode(sim, "nd")
        node.warm_up()
        packet = transmit(node, 256)
        receive_packet = receive(node, 256)
        for segment in packet.breakdown.segments:
            assert segment in FIG11_SEGMENTS
        for segment in receive_packet.breakdown.segments:
            assert segment in FIG11_SEGMENTS

    def test_socket_counters_advance(self, sim):
        node = NetDIMMNode(sim, "nd")
        transmit(node, 64)
        transmit(node, 64)
        socket = node._socket_for(Packet(size_bytes=1))
        assert socket.packets_sent == 2


class TestCrossConfigurationOrdering:
    """The paper's headline ordering must hold at every size."""

    @pytest.mark.parametrize("size", [64, 256, 1024, 1514])
    def test_netdimm_fastest_dnic_slowest(self, size):
        def one_way(kind):
            from repro.experiments.oneway import measure_one_way

            return measure_one_way(kind, size).total_ticks

        dnic = one_way("dnic")
        inic = one_way("inic")
        netdimm = one_way("netdimm")
        assert netdimm < inic < dnic
