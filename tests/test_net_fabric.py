"""Ethernet wire, switch, and clos topology models."""

import itertools
import random

import networkx as nx
import pytest

from repro.net import ClosFabric, ClosTopology, EthernetWire, Locality, Switch
from repro.net.topology import ClosConfig, SWITCH_HOPS
from repro.params import NetworkParams
from repro.sim import Simulator
from repro.units import ns, to_ns


class TestEthernetWire:
    def test_min_frame_padding(self, sim):
        wire = EthernetWire(sim, "w")
        assert wire.frame_bytes(10) == 64 + 24
        assert wire.frame_bytes(64) == 64 + 24

    def test_framing_overhead(self, sim):
        wire = EthernetWire(sim, "w")
        assert wire.frame_bytes(1514) == 1538

    def test_mtu_serialization_near_300ns(self, sim):
        wire = EthernetWire(sim, "w")
        # 1538 B at 40 Gb/s = 307.6 ns.
        assert to_ns(wire.serialization_ticks(1514)) == pytest.approx(307.6, rel=0.01)

    def test_closed_form_matches_event_model(self, sim):
        wire = EthernetWire(sim, "w")
        sim.run_until(wire.transmit(256))
        assert sim.now == wire.latency(256)

    def test_same_direction_packets_serialize(self, sim):
        wire = EthernetWire(sim, "w")
        both = sim.all_of([wire.transmit(1514), wire.transmit(1514)])
        sim.run_until(both)
        assert sim.now == wire.latency(1514) + wire.serialization_ticks(1514)

    def test_opposite_directions_independent(self, sim):
        wire = EthernetWire(sim, "w")
        both = sim.all_of(
            [wire.transmit(1514), wire.transmit(1514, reverse=True)]
        )
        sim.run_until(both)
        assert sim.now == wire.latency(1514)

    def test_stats(self, sim):
        wire = EthernetWire(sim, "w")
        sim.run_until(wire.transmit(100))
        assert wire.stats.get_counter("packets") == 1
        assert wire.stats.get_counter("bytes") == 100


class TestSwitch:
    def test_hop_latency_composition(self, sim):
        switch = Switch(sim, "s")
        params = switch.params
        expected = (
            params.switch_latency
            + switch.hop_latency(64)
            - params.switch_latency
        )
        assert switch.hop_latency(64) == expected  # self-consistency

    def test_hop_latency_includes_switch_pipeline(self, sim):
        fast = Switch(sim, "fast", params=NetworkParams(switch_latency=ns(25)))
        slow = Switch(sim, "slow", params=NetworkParams(switch_latency=ns(200)))
        assert slow.hop_latency(64) - fast.hop_latency(64) == ns(175)

    def test_event_forward_matches_closed_form(self, sim):
        switch = Switch(sim, "s")
        sim.run_until(switch.forward(256, egress_port="p0"))
        assert sim.now == switch.hop_latency(256)

    def test_egress_contention(self, sim):
        switch = Switch(sim, "s")
        both = sim.all_of(
            [switch.forward(1514, "p0"), switch.forward(1514, "p0")]
        )
        sim.run_until(both)
        assert sim.now > switch.hop_latency(1514)

    def test_different_ports_no_contention(self, sim):
        switch = Switch(sim, "s")
        both = sim.all_of(
            [switch.forward(1514, "p0"), switch.forward(1514, "p1")]
        )
        sim.run_until(both)
        assert sim.now == switch.hop_latency(1514)


class TestClosTopology:
    topology = ClosTopology()

    def test_host_count(self):
        config = self.topology.config
        expected = (
            config.datacenters * config.clusters * config.racks_per_cluster
            * config.hosts_per_rack
        )
        assert len(self.topology.hosts()) == expected

    def test_fabric_connected(self):
        assert nx.is_connected(self.topology.graph)

    def test_intra_rack_one_switch(self):
        assert self.topology.switch_count("dc0/c0/r0/h0", "dc0/c0/r0/h1") == 1

    def test_intra_cluster_three_switches(self):
        assert self.topology.switch_count("dc0/c0/r0/h0", "dc0/c0/r1/h0") == 3

    def test_intra_dc_five_switches(self):
        assert self.topology.switch_count("dc0/c0/r0/h0", "dc0/c1/r0/h0") == 5

    def test_classification(self):
        classify = self.topology.classify
        assert classify("dc0/c0/r0/h0", "dc0/c0/r0/h1") is Locality.INTRA_RACK
        assert classify("dc0/c0/r0/h0", "dc0/c0/r1/h0") is Locality.INTRA_CLUSTER
        assert classify("dc0/c0/r0/h0", "dc0/c1/r0/h0") is Locality.INTRA_DATACENTER
        assert classify("dc0/c0/r0/h0", "dc1/c0/r0/h0") is Locality.INTER_DATACENTER

    def test_classify_rejects_non_host(self):
        with pytest.raises(ValueError):
            self.topology.classify("dc0/c0/r0/h0", "dc0/spine0")

    def test_hop_counts_match_structure(self):
        # The locality hop table must agree with shortest paths in the
        # constructed graph for rack/cluster/DC localities.
        assert self.topology.switch_count("dc0/c0/r0/h0", "dc0/c0/r0/h1") == (
            SWITCH_HOPS[Locality.INTRA_RACK]
        )
        assert self.topology.switch_count("dc0/c0/r0/h0", "dc0/c0/r1/h0") == (
            SWITCH_HOPS[Locality.INTRA_CLUSTER]
        )
        assert self.topology.switch_count("dc0/c0/r0/h0", "dc0/c1/r0/h0") == (
            SWITCH_HOPS[Locality.INTRA_DATACENTER]
        )

    def test_path_latency_grows_with_hops(self):
        latencies = [
            self.topology.path_latency(256, locality)
            for locality in (
                Locality.INTRA_RACK,
                Locality.INTRA_CLUSTER,
                Locality.INTRA_DATACENTER,
                Locality.INTER_DATACENTER,
            )
        ]
        assert latencies == sorted(latencies)

    def test_switch_latency_sweep_scales_path(self):
        base = ClosTopology(params=NetworkParams(switch_latency=ns(25)))
        slow = ClosTopology(params=NetworkParams(switch_latency=ns(200)))
        delta = slow.path_latency(64, Locality.INTRA_CLUSTER) - base.path_latency(
            64, Locality.INTRA_CLUSTER
        )
        assert delta == 3 * ns(175)

    def test_custom_config(self):
        small = ClosTopology(ClosConfig(racks_per_cluster=2, hosts_per_rack=2,
                                        clusters=1, datacenters=1))
        assert len(small.hosts()) == 4
        assert nx.is_connected(small.graph)


def networkx_paths(topology, src, dst):
    """The reference: every shortest path in the full host graph, sorted."""
    return sorted(nx.all_shortest_paths(topology.graph, src, dst))


class TestEcmpRouteTable:
    def assert_all_pairs_match(self, topology):
        for src, dst in itertools.permutations(topology.hosts(), 2):
            assert topology.ecmp_paths(src, dst) == networkx_paths(
                topology, src, dst
            ), (src, dst)

    def test_default_config_all_pairs_match_networkx(self):
        self.assert_all_pairs_match(ClosTopology())

    def test_edge_router_chain_all_pairs_match_networkx(self):
        # Three DCs chain dc0-dc1-dc2 through the edge routers, so dc0 to
        # dc2 crosses a transit edge; three spines and fabrics widen ECMP.
        self.assert_all_pairs_match(
            ClosTopology(
                ClosConfig(
                    racks_per_cluster=2,
                    hosts_per_rack=2,
                    clusters=2,
                    fabric_per_cluster=3,
                    spines=3,
                    datacenters=3,
                )
            )
        )

    def test_1024_host_sample_matches_networkx(self):
        topology = ClosTopology(
            ClosConfig(
                racks_per_cluster=16, hosts_per_rack=16, clusters=4, datacenters=1
            )
        )
        hosts = topology.hosts()
        assert len(hosts) == 1024
        rng = random.Random(2019)
        for _ in range(200):
            src, dst = rng.sample(hosts, 2)
            assert topology.ecmp_paths(src, dst) == networkx_paths(
                topology, src, dst
            ), (src, dst)

    def test_intra_rack_single_path(self):
        topology = ClosTopology()
        assert topology.ecmp_paths("dc0/c1/r2/h0", "dc0/c1/r2/h3") == [
            ["dc0/c1/r2/h0", "dc0/c1/r2/tor", "dc0/c1/r2/h3"]
        ]

    def test_paths_cached_on_the_topology(self):
        topology = ClosTopology()
        fabric = ClosFabric(Simulator(), "f", topology)
        paths = topology.ecmp_paths("dc0/c0/r0/h0", "dc1/c0/r0/h0")
        assert fabric.route_paths("dc0/c0/r0/h0", "dc1/c0/r0/h0") is paths

    def test_fabric_route_picks_pinned_paths(self):
        fabric = ClosFabric(Simulator(), "f")
        src, dst = "dc0/c0/r0/h0", "dc1/c1/r3/h2"
        head = [src, "dc0/c0/r0/tor"]
        tail = ["dc1/c1/r3/tor", dst]
        assert len(fabric.route_paths(src, dst)) == 16
        assert fabric.route(src, dst, 0) == head + [
            "dc0/c0/fab0", "dc0/spine0", "dc0/edge",
            "dc1/edge", "dc1/spine0", "dc1/c1/fab0",
        ] + tail
        assert fabric.route(src, dst, 1) == head + [
            "dc0/c0/fab0", "dc0/spine0", "dc0/edge",
            "dc1/edge", "dc1/spine0", "dc1/c1/fab1",
        ] + tail
        assert fabric.route(src, dst, 5) == head + [
            "dc0/c0/fab0", "dc0/spine1", "dc0/edge",
            "dc1/edge", "dc1/spine0", "dc1/c1/fab1",
        ] + tail
        assert fabric.route(src, dst, 13) == head + [
            "dc0/c0/fab1", "dc0/spine1", "dc0/edge",
            "dc1/edge", "dc1/spine0", "dc1/c1/fab1",
        ] + tail
        src, dst = "dc0/c0/r1/h3", "dc0/c1/r2/h0"
        middles = [
            fabric.route(src, dst, flow_id)[2:5] for flow_id in range(4)
        ]
        assert middles == [
            ["dc0/c0/fab0", "dc0/spine0", "dc0/c1/fab0"],
            ["dc0/c0/fab0", "dc0/spine0", "dc0/c1/fab1"],
            ["dc0/c0/fab0", "dc0/spine1", "dc0/c1/fab0"],
            ["dc0/c0/fab0", "dc0/spine1", "dc0/c1/fab1"],
        ]

    @pytest.mark.parametrize(
        "src, dst, unknown",
        [
            ("dc9/c0/r0/h0", "dc0/c0/r0/h0", "dc9/c0/r0/h0"),
            ("dc0/c0/r0/h0", "dc0/spine0", "dc0/spine0"),
        ],
    )
    def test_unknown_host_raises_value_error(self, src, dst, unknown):
        topology = ClosTopology()
        with pytest.raises(ValueError, match=repr(unknown)):
            topology.ecmp_paths(src, dst)
        with pytest.raises(ValueError, match=repr(unknown)):
            topology.switch_count(src, dst)
