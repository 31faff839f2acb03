"""End-to-end integration: request-response flows and cross-config
structural relations the paper's argument depends on."""

import pytest

from repro.driver.registry import make_node
from repro.experiments.oneway import measure_one_way
from repro.net.link import EthernetWire
from repro.net.packet import Packet
from repro.sim import Simulator


def request_response(kind, request_bytes=128, response_bytes=1024):
    """One full client-server exchange; returns (rtt_ticks, packets)."""
    sim = Simulator()
    client = make_node(sim, "client", kind)
    server = make_node(sim, "server", kind)
    for node in (client, server):
        if hasattr(node, "warm_up"):
            node.warm_up()
    wire = EthernetWire(sim, "wire")

    packets = []

    def exchange():
        request = Packet(size_bytes=request_bytes)
        packets.append(request)
        yield client.transmit(request)
        yield wire.transmit(request_bytes)
        yield server.receive(request)
        response = Packet(size_bytes=response_bytes)
        packets.append(response)
        yield server.transmit(response)
        yield wire.transmit(response_bytes, reverse=True)
        yield client.receive(response)

    start = sim.now
    sim.run_until(sim.spawn(exchange()).done, max_events=4_000_000)
    return sim.now - start, packets


class TestRequestResponse:
    @pytest.mark.parametrize("kind", ["dnic", "inic", "netdimm"])
    def test_exchange_completes(self, kind):
        rtt, packets = request_response(kind)
        assert rtt > 0
        assert len(packets) == 2

    def test_rtt_ordering_matches_paper(self):
        rtts = {kind: request_response(kind)[0] for kind in ("dnic", "inic", "netdimm")}
        assert rtts["netdimm"] < rtts["inic"] < rtts["dnic"]

    def test_rtt_roughly_twice_oneway(self):
        rtt, _packets = request_response("netdimm", 256, 256)
        one_way = measure_one_way("netdimm", 256).total_ticks
        assert 1.6 * one_way < rtt < 2.4 * one_way

    def test_netdimm_rtt_sub_3us(self):
        """RoCE achieves ~1.3 us node-to-node one-way (Sec. 1); a
        NetDIMM request-response should land in the same class."""
        rtt, _ = request_response("netdimm", 64, 64)
        assert rtt / 1e6 < 3.0


class TestStructuralRelations:
    """Segment-level relations that hold regardless of calibration."""

    @pytest.mark.parametrize("size", [64, 1024])
    def test_ioreg_ordering(self, size):
        """PCIe register access >> memory-channel >> nothing-free."""
        dnic = measure_one_way("dnic", size).segments["ioreg"]
        inic = measure_one_way("inic", size).segments["ioreg"]
        netdimm = measure_one_way("netdimm", size).segments["ioreg"]
        assert dnic > netdimm
        assert dnic > inic

    @pytest.mark.parametrize("size", [64, 1024])
    def test_dma_segments_smallest_on_netdimm(self, size):
        """Descriptors and payload are nanoseconds from the nNIC."""
        for segment in ("txDMA", "rxDMA"):
            dnic = measure_one_way("dnic", size).segments[segment]
            netdimm = measure_one_way("netdimm", size).segments[segment]
            assert netdimm < dnic

    def test_flush_costs_only_exist_on_netdimm(self):
        for kind in ("dnic", "inic"):
            segments = measure_one_way(kind, 256).segments
            assert "txFlush" not in segments
            assert "rxInvalidate" not in segments
        netdimm = measure_one_way("netdimm", 256).segments
        assert netdimm["txFlush"] > 0
        assert netdimm["rxInvalidate"] > 0

    def test_wire_identical_across_configs(self):
        """The physical layer is common; only the host sides differ."""
        wires = {
            kind: measure_one_way(kind, 512).segments["wire"]
            for kind in ("dnic", "inic", "netdimm")
        }
        assert len(set(wires.values())) == 1

    def test_netdimm_flush_overhead_paid_back(self):
        """Sec. 5.2: in-memory cloning more than makes up for the cache
        maintenance it requires."""
        for size in (64, 1024):
            netdimm = measure_one_way("netdimm", size)
            inic = measure_one_way("inic", size)
            flush_cost = netdimm.segments["txFlush"] + netdimm.segments["rxInvalidate"]
            copy_saving = (
                inic.segments["txCopy"] + inic.segments["rxCopy"]
                - netdimm.segments["txCopy"] - netdimm.segments["rxCopy"]
            )
            assert copy_saving > flush_cost
