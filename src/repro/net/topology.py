"""The Facebook-style clos fabric (Sec. 5.1).

The paper replays Facebook production traces over a simulated clos
topology [58, 60].  Facebook's published datacenter fabric [60] is a
multi-tier clos: hosts connect to a rack switch (ToR), racks aggregate
through cluster/fabric switches, clusters through spine switches, and
datacenters through edge/WAN routers.  Packet locality therefore fixes
the hop count:

=============  ==========================================  =====
locality       path                                        hops
=============  ==========================================  =====
intra-rack     ToR                                         1
intra-cluster  ToR → fabric → ToR                          3
intra-DC       ToR → fabric → spine → fabric → ToR         5
inter-DC       ... → edge → WAN → edge → ...               7+WAN
=============  ==========================================  =====

The traffic-pattern mix per cluster type follows the paper: database
traffic is mostly inter-cluster and inter-datacenter, webserver mostly
intra-datacenter, hadoop intra-cluster.

ECMP routing never searches the host graph.  Every host is a leaf on
exactly one ToR, so every shortest host-to-host path is the host pair
spliced onto a shortest ToR-to-ToR path through the switch layer (75
switches for a 1024-host fabric).  :meth:`ClosTopology.ecmp_paths` runs
one breadth-first search per source ToR over that layer, lazily,
enumerates the equal-cost switch paths level by level back from the
destination ToR, splices the host endpoints on and caches the sorted
list per host pair on the topology instance.  networkx only holds the
graph, for structural checks (connectivity, tiers); the latency math
uses the per-hop switch model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.params import NetworkParams
from repro.units import ns, transfer_time


class Locality(enum.Enum):
    """Where a packet's destination sits relative to its source."""

    INTRA_RACK = "intra-rack"
    INTRA_CLUSTER = "intra-cluster"
    INTRA_DATACENTER = "intra-datacenter"
    INTER_DATACENTER = "inter-datacenter"


SWITCH_HOPS: Dict[Locality, int] = {
    Locality.INTRA_RACK: 1,
    Locality.INTRA_CLUSTER: 3,
    Locality.INTRA_DATACENTER: 5,
    Locality.INTER_DATACENTER: 7,
}

INTER_DC_WAN_PROPAGATION = ns(5000)
"""Extra one-way propagation for inter-datacenter traffic (a few km of
metro fiber between availability zones; 5 us one way)."""


@dataclass(frozen=True)
class ClosConfig:
    """Shape of the fabric."""

    racks_per_cluster: int = 4
    hosts_per_rack: int = 4
    clusters: int = 2
    fabric_per_cluster: int = 2
    spines: int = 2
    datacenters: int = 2


class ClosTopology:
    """A multi-tier clos fabric with locality-based path resolution."""

    def __init__(
        self,
        config: Optional[ClosConfig] = None,
        params: Optional[NetworkParams] = None,
    ):
        self.config = config or ClosConfig()
        self.params = params or NetworkParams()
        self.graph = nx.Graph()
        # host -> its ToR; the graph is fixed once built.
        self._tor_of: Dict[str, str] = {}
        self._build()
        # The switch layer's adjacency (host leaves left out), which is
        # all the ECMP route table searches.
        self._switch_adjacency: Dict[str, List[str]] = {
            node: [
                peer
                for peer in self.graph.adj[node]
                if self.graph.nodes[peer]["tier"] != "host"
            ]
            for node, tier in self.graph.nodes(data="tier")
            if tier != "host"
        }
        # source ToR -> {switch: its BFS depth from that ToR}.
        self._depths: Dict[str, Dict[str, int]] = {}
        # (src, dst) host pair -> all equal-cost shortest paths, sorted.
        self._routes: Dict[Tuple[str, str], List[List[str]]] = {}

    # -- construction --------------------------------------------------------

    def _build(self) -> None:
        config = self.config
        for dc in range(config.datacenters):
            edge = f"dc{dc}/edge"
            self.graph.add_node(edge, tier="edge")
            for spine in range(config.spines):
                spine_name = f"dc{dc}/spine{spine}"
                self.graph.add_node(spine_name, tier="spine")
                self.graph.add_edge(spine_name, edge)
            for cluster in range(config.clusters):
                for fabric in range(config.fabric_per_cluster):
                    fabric_name = f"dc{dc}/c{cluster}/fab{fabric}"
                    self.graph.add_node(fabric_name, tier="fabric")
                    for spine in range(config.spines):
                        self.graph.add_edge(fabric_name, f"dc{dc}/spine{spine}")
                for rack in range(config.racks_per_cluster):
                    tor = f"dc{dc}/c{cluster}/r{rack}/tor"
                    self.graph.add_node(tor, tier="tor")
                    for fabric in range(config.fabric_per_cluster):
                        self.graph.add_edge(tor, f"dc{dc}/c{cluster}/fab{fabric}")
                    for host in range(config.hosts_per_rack):
                        host_name = f"dc{dc}/c{cluster}/r{rack}/h{host}"
                        self.graph.add_node(host_name, tier="host")
                        self.graph.add_edge(host_name, tor)
                        self._tor_of[host_name] = tor
        # Inter-DC connectivity through the edge routers.
        edges = [f"dc{dc}/edge" for dc in range(config.datacenters)]
        for a, b in zip(edges, edges[1:]):
            self.graph.add_edge(a, b)

    # -- structural queries ---------------------------------------------------

    def hosts(self) -> List[str]:
        """All host node names."""
        return sorted(self._tor_of)

    def switch_count(self, src: str, dst: str) -> int:
        """Number of switch/router hops on the shortest path."""
        # A host to itself crosses no switch: its one path is [src].
        return max(len(self.ecmp_paths(src, dst)[0]) - 2, 0)

    # -- ECMP route table -----------------------------------------------------

    def ecmp_paths(self, src: str, dst: str) -> List[List[str]]:
        """All equal-cost shortest paths between two hosts, sorted.

        Equal, element for element, to the sorted list of every shortest
        path between them in :attr:`graph`, but computed on the switch
        layer and cached per host pair.  The returned lists are shared: read, never mutate.
        """
        paths = self._routes.get((src, dst))
        if paths is None:
            src_tor = self._tor(src)
            dst_tor = self._tor(dst)
            if src == dst:
                paths = [[src]]
            else:
                adjacency = self._switch_adjacency
                depths = self._bfs_depths(src_tor)
                # Grow every shortest path back from the destination one
                # BFS level per step until all reach the source ToR.
                tails = [[dst_tor, dst]]
                for depth in range(depths[dst_tor] - 1, -1, -1):
                    tails = [
                        [peer] + tail
                        for tail in tails
                        for peer in adjacency[tail[0]]
                        if depths[peer] == depth
                    ]
                paths = sorted([src] + tail for tail in tails)
            self._routes[(src, dst)] = paths
        return paths

    def _tor(self, host: str) -> str:
        tor = self._tor_of.get(host)
        if tor is None:
            raise ValueError(f"not a host of this topology: {host!r}")
        return tor

    def _bfs_depths(self, source: str) -> Dict[str, int]:
        """Hop depth of every switch from one ToR, over the switch layer."""
        depths = self._depths.get(source)
        if depths is None:
            adjacency = self._switch_adjacency
            depths = {source: 0}
            frontier = [source]
            while frontier:
                following = []
                for node in frontier:
                    for peer in adjacency[node]:
                        if peer not in depths:
                            depths[peer] = depths[node] + 1
                            following.append(peer)
                frontier = following
            self._depths[source] = depths
        return depths

    def classify(self, src: str, dst: str) -> Locality:
        """Locality class of a host pair from their names."""
        src_dc, src_cluster, src_rack = self._coordinates(src)
        dst_dc, dst_cluster, dst_rack = self._coordinates(dst)
        if src_dc != dst_dc:
            return Locality.INTER_DATACENTER
        if src_cluster != dst_cluster:
            return Locality.INTRA_DATACENTER
        if src_rack != dst_rack:
            return Locality.INTRA_CLUSTER
        return Locality.INTRA_RACK

    @staticmethod
    def _coordinates(host: str) -> Tuple[str, str, str]:
        parts = host.split("/")
        if len(parts) != 4:
            raise ValueError(f"not a host name: {host}")
        return parts[0], parts[1], parts[2]

    # -- latency model ---------------------------------------------------------

    def hop_count(self, locality: Locality) -> int:
        """Switch hops for a locality class."""
        return SWITCH_HOPS[locality]

    def path_latency(self, size_bytes: int, locality: Locality) -> int:
        """One-way fabric latency beyond the end-host NICs.

        Per hop: switch pipeline + egress serialization + cable
        propagation (cut-through).  The sender NIC's own serialization
        and MAC/PHY are part of the end-host "wire" segment, so the
        first serialization is *not* double counted here: hop costs
        cover the store-and-forward points inside the fabric.
        """
        hops = self.hop_count(locality)
        framed = max(size_bytes, self.params.min_frame_bytes) + (
            self.params.ethernet_overhead_bytes
        )
        serialization = transfer_time(framed, self.params.link_bytes_per_ps)
        per_hop = self.params.switch_latency + serialization + self.params.propagation
        total = hops * per_hop
        if locality is Locality.INTER_DATACENTER:
            total += INTER_DC_WAN_PROPAGATION
        return total
