"""Cross-cutting property-based tests on system invariants."""

from hypothesis import given, settings, strategies as st

from repro.dram.controller import MemoryController
from repro.driver.netdimm_node import NetDIMMNode
from repro.net.packet import Packet
from repro.params import ddr4_2400
from repro.sim import Simulator
from repro.units import CACHELINE


request_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=(1 << 30) - 4096),  # address
        st.booleans(),  # is_write
        st.sampled_from([64, 128, 256, 1514, 4096]),  # size
        st.integers(min_value=0, max_value=2),  # priority
    ),
    min_size=1,
    max_size=60,
)


class TestControllerConservation:
    """Every submitted request completes exactly once, in finite time,
    never before it arrived."""

    @settings(max_examples=40, deadline=None)
    @given(request_strategy)
    def test_all_requests_complete_once(self, requests):
        sim = Simulator()
        mc = MemoryController(sim, "mc", ddr4_2400())
        completions = []
        for index, (address, is_write, size, priority) in enumerate(requests):
            arrival = sim.now
            future = mc.access(address, is_write, size, priority)
            future.add_callback(
                lambda f, index=index, arrival=arrival: completions.append(
                    (index, arrival, sim.now)
                )
            )
        sim.run(max_events=2_000_000)
        assert len(completions) == len(requests)
        assert sorted(index for index, _a, _c in completions) == list(
            range(len(requests))
        )
        for _index, arrival, completion in completions:
            assert completion >= arrival

    @settings(max_examples=20, deadline=None)
    @given(request_strategy)
    def test_lines_transferred_match_requests(self, requests):
        sim = Simulator()
        mc = MemoryController(sim, "mc", ddr4_2400())
        expected_lines = 0
        for address, is_write, size, priority in requests:
            mc.access(address, is_write, size, priority)
            expected_lines += max(1, -(-size // CACHELINE))
        sim.run(max_events=2_000_000)
        assert mc.stats.get_counter("lines_transferred") == expected_lines

    @settings(max_examples=20, deadline=None)
    @given(request_strategy, st.integers(min_value=1, max_value=64))
    def test_bus_accounting_consistent(self, requests, _salt):
        sim = Simulator()
        mc = MemoryController(sim, "mc", ddr4_2400())
        for address, is_write, size, priority in requests:
            mc.access(address, is_write, size, priority)
        sim.run(max_events=2_000_000)
        busy = mc.stats.get_counter("bus_busy_ticks")
        lines = mc.stats.get_counter("lines_transferred")
        assert busy == lines * mc.timing.tBURST
        assert busy <= sim.now or sim.now == 0


class TestNodeSoak:
    """A long mixed TX/RX stream leaves every pool balanced."""

    def test_netdimm_node_soak(self):
        sim = Simulator()
        node = NetDIMMNode(sim, "nd")
        node.warm_up()
        sizes = [64, 200, 700, 1514] * 25
        for size in sizes:
            sim.run_until(node.transmit(Packet(size_bytes=size)), max_events=2_000_000)
            sim.run_until(node.receive(Packet(size_bytes=size)), max_events=2_000_000)
        sim.run()  # drain refills/prefetches
        assert node.stats.get_counter("tx_packets") == len(sizes)
        assert node.stats.get_counter("rx_packets") == len(sizes)
        # Rings drained.
        assert node.tx_ring.is_empty
        assert node.rx_ring.is_empty
        # nCache never exceeds capacity.
        assert node.device.ncache.occupancy() <= node.params.netdimm.ncache_lines
        # Every RX clone ran FPM thanks to hinted allocation.
        assert node.stats.get_counter("rx_clone_fpm") == len(sizes)

    def test_latency_stable_across_soak(self):
        """No hidden state drift: packet #1 and packet #100 cost the same."""
        sim = Simulator()
        node = NetDIMMNode(sim, "nd")
        node.warm_up()
        totals = []
        for _ in range(100):
            packet = Packet(size_bytes=256)
            sim.run_until(node.transmit(packet), max_events=2_000_000)
            totals.append(packet.breakdown.total)
        assert max(totals[1:]) - min(totals[1:]) <= totals[1] * 0.05


class TestDeterminismEndToEnd:
    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(["dnic", "inic", "netdimm"]),
           st.sampled_from([64, 300, 1514]))
    def test_one_way_reproducible(self, kind, size):
        from repro.experiments.oneway import measure_one_way

        first = measure_one_way(kind, size)
        second = measure_one_way(kind, size)
        assert first.segments == second.segments
