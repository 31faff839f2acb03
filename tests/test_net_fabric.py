"""Ethernet wire, switch, and clos topology models."""

import itertools
import random
import subprocess
import sys
import textwrap
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.flow.model import FlowLoadMap, FlowModel
from repro.net.fabric import ClosFabric
from repro.net.link import EthernetWire
from repro.net.packet import Packet
from repro.net.switch import Switch
from repro.net.topology import (
    INTER_DC_WAN_PROPAGATION,
    SWITCH_HOPS,
    ClosConfig,
    ClosTopology,
    Locality,
)
from repro.params import NetworkParams
from repro.sim import Simulator
from repro.units import ns, to_ns, transfer_time
from tests.conftest import worker_env


def reference_graph(config):
    """The fabric as a networkx graph built from ``config`` alone.

    An oracle independent of :class:`ClosTopology`'s own structures:
    every node carries its tier, hosts included.
    """
    graph = nx.Graph()
    for dc in range(config.datacenters):
        edge = f"dc{dc}/edge"
        graph.add_node(edge, tier="edge")
        for spine in range(config.spines):
            spine_name = f"dc{dc}/spine{spine}"
            graph.add_node(spine_name, tier="spine")
            graph.add_edge(spine_name, edge)
        for cluster in range(config.clusters):
            for fabric in range(config.fabric_per_cluster):
                fabric_name = f"dc{dc}/c{cluster}/fab{fabric}"
                graph.add_node(fabric_name, tier="fabric")
                for spine in range(config.spines):
                    graph.add_edge(fabric_name, f"dc{dc}/spine{spine}")
            for rack in range(config.racks_per_cluster):
                tor = f"dc{dc}/c{cluster}/r{rack}/tor"
                graph.add_node(tor, tier="tor")
                for fabric in range(config.fabric_per_cluster):
                    graph.add_edge(tor, f"dc{dc}/c{cluster}/fab{fabric}")
                for host in range(config.hosts_per_rack):
                    host_name = f"dc{dc}/c{cluster}/r{rack}/h{host}"
                    graph.add_node(host_name, tier="host")
                    graph.add_edge(host_name, tor)
    edges = [f"dc{dc}/edge" for dc in range(config.datacenters)]
    for a, b in zip(edges, edges[1:]):
        graph.add_edge(a, b)
    return graph


def assert_matches_reference(topology):
    """Hosts, switches and WAN links agree with the reference graph,
    which must itself be connected."""
    graph = reference_graph(topology.config)
    assert nx.is_connected(graph)
    tiers = graph.nodes(data="tier")
    assert topology.hosts() == sorted(n for n, t in tiers if t == "host")
    assert topology.switches() == sorted(n for n, t in tiers if t != "host")
    assert topology.wan_links == {
        link
        for a, b in graph.edges
        if tiers[a] == tiers[b] == "edge"
        for link in ((a, b), (b, a))
    }


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
    def test_hop_latency_includes_switch_pipeline(self, sim):
        fast = Switch(sim, "fast", params=NetworkParams(switch_latency=ns(25)))
        slow = Switch(sim, "slow", params=NetworkParams(switch_latency=ns(200)))
        assert slow.hop_latency(64) - fast.hop_latency(64) == ns(175)

    @pytest.mark.parametrize("size", [64, 256, 1514])
    def test_event_forward_matches_closed_form(self, sim, size):
        switch = Switch(sim, "s")
        assert sim.run_until(sim.spawn(switch.forward_transit(size, "p0")).done)
        assert sim.now == switch.hop_latency(size)

    def test_egress_contention(self, sim):
        switch = Switch(sim, "s")
        both = sim.all_of(
            [
                sim.spawn(switch.forward_transit(1514, "p0")).done,
                sim.spawn(switch.forward_transit(1514, "p0")).done,
            ]
        )
        sim.run_until(both)
        assert sim.now > switch.hop_latency(1514)

    def test_different_ports_no_contention(self, sim):
        switch = Switch(sim, "s")
        both = sim.all_of(
            [
                sim.spawn(switch.forward_transit(1514, "p0")).done,
                sim.spawn(switch.forward_transit(1514, "p1")).done,
            ]
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
        assert_matches_reference(self.topology)

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
        assert_matches_reference(small)


def networkx_paths(graph, src, dst):
    """The reference: every shortest path in the full host graph, sorted."""
    return sorted(nx.all_shortest_paths(graph, src, dst))


class TestEcmpRouteTable:
    def assert_all_pairs_match(self, topology):
        graph = reference_graph(topology.config)
        for src, dst in itertools.permutations(topology.hosts(), 2):
            assert topology.ecmp_paths(src, dst) == networkx_paths(
                graph, src, dst
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
        graph = reference_graph(topology.config)
        rng = random.Random(2019)
        for _ in range(200):
            src, dst = rng.sample(hosts, 2)
            assert topology.ecmp_paths(src, dst) == networkx_paths(
                graph, src, dst
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


class TestWanPricing:
    """At zero load the flow plane prices a path exactly as a
    packet-level transit of that path takes, tick for tick."""

    @pytest.mark.parametrize(
        "config, src, dst, wan_hops",
        [
            (ClosConfig(), "dc0/c0/r0/h0", "dc1/c1/r3/h2", 1),
            # dc0 to dc2 crosses the transit edge dc1: two WAN links.
            (
                ClosConfig(racks_per_cluster=2, hosts_per_rack=2, clusters=1,
                           datacenters=3),
                "dc0/c0/r1/h0",
                "dc2/c0/r0/h1",
                2,
            ),
        ],
    )
    def test_flow_model_equals_packet_transit(self, config, src, dst, wan_hops):
        topology = ClosTopology(config)
        params = topology.params
        sim = Simulator()
        fabric = ClosFabric(sim, "f", topology)
        idle = FlowLoadMap(params.link_bytes_per_ps)
        model = FlowModel(params, topology.wan_links, idle)
        no_wan = FlowModel(params, frozenset(), idle)
        paths = topology.ecmp_paths(src, dst)
        for size in (64, 512, 1514):
            for flow_id, path in enumerate(paths):
                packet = Packet(size_bytes=size, flow_id=flow_id)
                sim.run_until(sim.spawn(fabric.transit(packet, src, dst)).done)
                priced = price_one_path(model, path, size)
                assert packet.breakdown.get("wire") == priced, (size, path)
                # The WAN propagation is added once per edge-to-edge hop.
                assert priced - price_one_path(no_wan, path, size) == (
                    wan_hops * INTER_DC_WAN_PROPAGATION
                )
        assert fabric.stall_count() == 0


def price_one_path(model, path, size):
    """One path priced as a window of one path: every count is 1."""
    links = list(zip(path, path[1:]))
    return model.window_latency(1, len(links), links, [1] * len(links), size)


def reference_path_price(params, wan_links, load, path, size):
    """The per-hop sum along one explicit path, written out hop by hop:
    both MAC/PHY ends, the host uplink, then per switch the pipeline,
    egress serialization, propagation, queue wait and any WAN term."""
    serialization = transfer_time(params.framed_bytes(size), params.link_bytes_per_ps)
    total = 2 * params.mac_phy_latency
    total += serialization + params.propagation + load.queue_wait(
        (path[0], path[1]), serialization
    )
    for link in zip(path[1:-1], path[2:]):
        total += params.switch_latency + serialization + params.propagation
        total += load.queue_wait(link, serialization)
        if link in wan_links:
            total += INTER_DC_WAN_PROPAGATION
    return total


clos_configs = st.builds(
    ClosConfig,
    racks_per_cluster=st.integers(1, 3),
    hosts_per_rack=st.integers(1, 3),
    clusters=st.integers(1, 3),
    fabric_per_cluster=st.integers(1, 3),
    spines=st.integers(1, 3),
    datacenters=st.integers(1, 3),
)


class TestEcmpLinkCounts:
    """The flow plane's counted view of ECMP agrees with the packet
    plane's explicit path list, and prices a window exactly as the sum
    of its paths' prices."""

    @settings(max_examples=60, deadline=None)
    @given(config=clos_configs, data=st.data())
    def test_counts_and_window_price_match_the_path_list(self, config, data):
        topology = ClosTopology(config)
        hosts = topology.hosts()
        src = data.draw(st.sampled_from(hosts), label="src")
        dst = data.draw(st.sampled_from(hosts), label="dst")
        paths = topology.ecmp_paths(src, dst)
        npaths, hops, counts = topology.ecmp_link_counts(src, dst)
        assert npaths == len(paths)
        assert {len(path) - 1 for path in paths} == {hops}
        assert counts == Counter(
            link for path in paths for link in zip(path, path[1:])
        )
        if src == dst:
            return
        params = topology.params
        load = FlowLoadMap(params.link_bytes_per_ps)
        # Random background load, past the utilization cap on some links.
        for link in sorted(counts):
            rho = data.draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.5]))
            if rho:
                load.add(link, rho * params.link_bytes_per_ps)
        model = FlowModel(params, topology.wan_links, load)
        size = data.draw(st.sampled_from([64, 512, 1514]), label="size")
        links = sorted(counts)
        priced = model.window_latency(
            npaths, hops, links, [counts[link] for link in links], size
        )
        per_path = [
            reference_path_price(params, topology.wan_links, load, path, size)
            for path in paths
        ]
        assert type(priced) is int
        assert priced == sum(per_path)
        assert [price_one_path(model, path, size) for path in paths] == per_path


NO_NETWORKX_SCRIPT = textwrap.dedent(
    """
    import sys

    import repro.api

    assert "networkx" not in sys.modules, "import repro.api loaded networkx"
    sys.modules["networkx"] = None  # any later `import networkx` fails

    from repro import api
    from repro.scenario.spec import FabricSpec, NodeSpec, ScenarioSpec, TrafficSpec

    spec = ScenarioSpec(
        name="two-dc",
        seed=3,
        nodes=(
            NodeSpec(name="tx", nic_kind="netdimm", host="dc0/c0/r0/h0"),
            NodeSpec(name="rx", nic_kind="dnic", host="dc1/c0/r1/h1"),
            NodeSpec(name="bg", nic_kind="dnic", host="dc0/c0/r1/h0"),
        ),
        fabric=FabricSpec(kind="clos", datacenters=2, racks_per_cluster=2,
                          hosts_per_rack=2),
        traffic=(
            TrafficSpec(kind="oneway", packets=4, src=("tx",), dst="rx",
                        label="fg"),
            TrafficSpec(kind="oneway", packets=20, src=("bg",), dst="rx",
                        label="bg", role="background", fidelity="flow"),
        ),
    )
    result = api.simulate(spec)
    assert result.packets_delivered == 4, result.packets_delivered
    """
)


def test_runtime_runs_without_networkx():
    """networkx is a test-only oracle: the package imports and runs a
    two-datacenter clos scenario, flow plane included, without it."""
    proc = subprocess.run(
        [sys.executable, "-c", NO_NETWORKX_SCRIPT],
        env=worker_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
