"""Workloads: traces, MLC injector, iperf model, network functions."""

import pytest

from repro.dram.controller import MemoryController
from repro.net.topology import Locality
from repro.params import ddr4_2400
from repro.sim import Resource, Simulator
from repro.units import ns, us
from repro.workloads import (
    ClusterKind,
    CoRunnerProbe,
    IperfModel,
    MLCInjector,
    NetworkFunction,
    TraceGenerator,
)


class TestTraceGenerator:
    def test_deterministic_with_seed(self):
        a = TraceGenerator(ClusterKind.DATABASE, seed=1).generate(100)
        b = TraceGenerator(ClusterKind.DATABASE, seed=1).generate(100)
        assert a == b

    def test_different_seeds_differ(self):
        a = TraceGenerator(ClusterKind.DATABASE, seed=1).generate(100)
        b = TraceGenerator(ClusterKind.DATABASE, seed=2).generate(100)
        assert a != b

    def test_clusters_have_distinct_streams(self):
        a = TraceGenerator(ClusterKind.DATABASE, seed=1).generate(50)
        b = TraceGenerator(ClusterKind.HADOOP, seed=1).generate(50)
        assert a != b

    def test_sizes_within_ethernet_bounds(self):
        for cluster in ClusterKind:
            trace = TraceGenerator(cluster).generate(500)
            assert all(64 <= packet.size_bytes <= 1514 for packet in trace)

    def test_database_uniform_spread(self):
        """Sec. 5.1: database sizes uniform between 64 B and 1514 B."""
        histogram = TraceGenerator(ClusterKind.DATABASE).size_histogram(5000)
        assert histogram["mean"] == pytest.approx((64 + 1514) / 2, rel=0.05)

    def test_webserver_90pct_small(self):
        """Sec. 5.1: ~90% of webserver packets below 300 B."""
        histogram = TraceGenerator(ClusterKind.WEBSERVER).size_histogram(5000)
        assert histogram["under_300"] == pytest.approx(0.90, abs=0.03)

    def test_hadoop_bimodal(self):
        """Sec. 5.1: hadoop ~41% under 100 B, ~52% at the MTU."""
        histogram = TraceGenerator(ClusterKind.HADOOP).size_histogram(5000)
        assert histogram["under_100"] == pytest.approx(0.41, abs=0.03)
        assert histogram["at_mtu"] == pytest.approx(0.52, abs=0.03)

    def test_arrivals_strictly_increase(self):
        trace = TraceGenerator(ClusterKind.HADOOP).generate(200)
        arrivals = [packet.arrival for packet in trace]
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))

    def test_locality_mix_matches_cluster_profile(self):
        """Database skews inter-DC, hadoop intra-cluster (Sec. 5.1)."""
        database = TraceGenerator(ClusterKind.DATABASE).generate(2000)
        hadoop = TraceGenerator(ClusterKind.HADOOP).generate(2000)

        def share(trace, locality):
            return sum(1 for p in trace if p.locality is locality) / len(trace)

        assert share(database, Locality.INTER_DATACENTER) > 0.3
        assert share(hadoop, Locality.INTER_DATACENTER) < 0.05
        assert share(hadoop, Locality.INTRA_CLUSTER) > 0.5


class TestMLCInjector:
    def test_injects_requests(self, sim):
        controller = MemoryController(sim, "mc", ddr4_2400())
        injector = MLCInjector(sim, "mlc", controller, delay=ns(50), threads=2)
        injector.start()
        sim.run(until=us(5))
        injector.stop()
        sim.run(until=us(6))
        assert injector.issued() > 10

    def test_smaller_delay_more_pressure(self, sim):
        def issued_at(delay):
            local_sim = Simulator()
            controller = MemoryController(local_sim, "mc", ddr4_2400())
            injector = MLCInjector(local_sim, "mlc", controller, delay=delay, threads=4)
            injector.start()
            local_sim.run(until=us(5))
            injector.stop()
            return injector.issued()

        assert issued_at(ns(20)) > issued_at(ns(500))

    def test_bandwidth_accounting(self, sim):
        controller = MemoryController(sim, "mc", ddr4_2400())
        injector = MLCInjector(sim, "mlc", controller, delay=0, threads=4)
        injector.start()
        sim.run(until=us(2))
        injector.stop()
        bandwidth = injector.achieved_bytes_per_second(sim.now)
        assert bandwidth is not None and bandwidth > 0

    def test_mixes_reads_and_writes(self, sim):
        controller = MemoryController(sim, "mc", ddr4_2400())
        injector = MLCInjector(sim, "mlc", controller, delay=0, threads=4)
        injector.start()
        sim.run(until=us(2))
        injector.stop()
        sim.run(until=us(3))
        assert controller.stats.get_counter("reads") > 0
        assert controller.stats.get_counter("writes") > 0


class _RecordingController:
    """Stands in for a memory controller: records each access."""

    def __init__(self):
        self.accesses = []

    def access(self, address, is_write):
        self.accesses.append((address, is_write))


class TestMLCDraw:
    """The injector inlines ``randrange`` as CPython's
    ``_randbelow_with_getrandbits`` loop; it must stay the stdlib draw."""

    DRAWS = 10_000

    @pytest.mark.parametrize(
        "footprint_bytes",
        [64 * 1024 * 1024, 3 * 1024 * 1024 + 1000],
        ids=["64MiB", "unaligned"],
    )
    def test_draw_matches_stdlib_randrange(self, footprint_bytes):
        import random

        from repro.units import CACHELINE, PAGE

        seed, ratio = 2019, 0.5
        sim = Simulator()
        controller = _RecordingController()
        injector = MLCInjector(
            sim,
            "mlc",
            controller,
            delay=1,
            threads=1,
            outstanding=self.DRAWS + 1,
            footprint_bytes=footprint_bytes,
            read_write_ratio=ratio,
            seed=seed,
        )
        injector.start()
        sim.run(until=self.DRAWS)
        injector.stop()
        assert len(controller.accesses) >= self.DRAWS

        rng = random.Random(random.Random(seed).random())
        lines = footprint_bytes // CACHELINE
        expected = []
        for _ in range(self.DRAWS):
            line = rng.randrange(lines)
            is_write = rng.random() >= ratio
            address = (
                (line * PAGE) % footprint_bytes + (line % 64) * CACHELINE
            ) % footprint_bytes
            expected.append((address, is_write))
        assert controller.accesses[: self.DRAWS] == expected
        assert all(
            0 <= address < footprint_bytes for address, _ in controller.accesses
        )

    def test_footprint_below_one_line_rejected(self, sim):
        # randrange(0) raises; the inlined draw would spin instead.
        with pytest.raises(ValueError, match="footprint_bytes"):
            MLCInjector(sim, "mlc", _RecordingController(), delay=1, footprint_bytes=63)


class TestIperfModel:
    def test_unloaded_near_line_rate(self, sim):
        controller = MemoryController(sim, "mc", ddr4_2400())
        iperf = IperfModel(sim, "iperf", controller)
        bandwidth = sim.run_until(iperf.run(100), max_events=5_000_000)
        assert 35e9 <= bandwidth <= 40e9

    def test_contention_reduces_bandwidth(self, sim):
        controller = MemoryController(sim, "mc", ddr4_2400())
        injector = MLCInjector(
            sim, "mlc", controller, delay=0, threads=16, outstanding=40
        )
        injector.start()
        iperf = IperfModel(sim, "iperf", controller)
        bandwidth = sim.run_until(iperf.run(100), max_events=20_000_000)
        injector.stop()
        assert bandwidth < 25e9

    def test_delivered_bytes_counted(self, sim):
        controller = MemoryController(sim, "mc", ddr4_2400())
        iperf = IperfModel(sim, "iperf", controller)
        sim.run_until(iperf.run(50), max_events=5_000_000)
        assert iperf.delivered_bytes == 50 * 1514


class TestNetworkFunctions:
    def test_l3f_touches_one_line(self):
        assert NetworkFunction.L3F.lines_touched(1514) == 1
        assert NetworkFunction.L3F.lines_touched(64) == 1

    def test_dpi_touches_all_lines(self):
        assert NetworkFunction.DPI.lines_touched(1514) == 24
        assert NetworkFunction.DPI.lines_touched(64) == 1


class TestCoRunnerProbe:
    def test_measures_baseline_latency(self, sim):
        bus = Resource(sim, "bus")
        probe = CoRunnerProbe(sim, "probe", bus)
        probe.start()
        sim.run(until=us(10))
        probe.stop()
        sim.run(until=us(11))
        latency = probe.mean_dram_latency()
        assert latency is not None
        assert latency == pytest.approx(45 + 8, abs=2)  # media + 2 bus uses

    def test_contention_raises_latency(self, sim):
        bus = Resource(sim, "bus")
        probe = CoRunnerProbe(sim, "probe", bus)

        def hog():
            while True:
                yield from bus.use(ns(40))
                yield ns(40)

        sim.spawn(hog())
        probe.start()
        sim.run(until=us(10))
        probe.stop()
        loaded = probe.mean_dram_latency()
        assert loaded > 55

    def test_no_samples_returns_none(self, sim):
        probe = CoRunnerProbe(sim, "probe", Resource(sim, "bus"))
        assert probe.mean_dram_latency() is None
