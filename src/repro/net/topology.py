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
switches for a 1024-host fabric).  One breadth-first search per source
ToR over that layer, run lazily and cached, records each switch's depth
and its count of shortest paths from that ToR.  From these tables
:meth:`ClosTopology._tor_dag` walks back from the destination ToR one
level per step and yields the shortest-path DAG of a ToR pair: each
switch's predecessors on it.  The DAG has two views.
:meth:`ClosTopology.ecmp_paths` enumerates its explicit paths, splices
the host endpoints on and caches the sorted list per host pair: the
packet plane hashes flows onto them.
:meth:`ClosTopology.ecmp_link_counts` multiplies path counts instead:
the paths through a link ``(u, v)`` are the source ToR's paths to ``u``
times ``v``'s paths to the destination ToR.  It is computed per call
and never cached, so the flow plane, which touches each of thousands of
host pairs once, spreads and prices its windows without building a path
list.  The fabric's structure lives in three plain structures built
once: the host → ToR map, the switch layer's adjacency, and the set of
inter-DC WAN links; the latency math uses the per-hop switch model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

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
        # host -> its ToR.
        self._tor_of: Dict[str, str] = {}
        # switch -> its switch peers in construction order (host leaves
        # left out), which is all the ECMP route table searches.
        self._switch_adjacency: Dict[str, List[str]] = {}
        self.wan_links: Set[Tuple[str, str]] = set()
        """Both directions of every inter-DC edge-to-edge link: the
        metro-fiber hops that add :data:`INTER_DC_WAN_PROPAGATION`."""

        self._build()
        # source ToR -> ({switch: BFS depth}, {switch: shortest paths
        # from that ToR}).
        self._bfs: Dict[str, Tuple[Dict[str, int], Dict[str, int]]] = {}
        # (src, dst) host pair -> all equal-cost shortest paths, sorted;
        # filled by the packet plane only.
        self._routes: Dict[Tuple[str, str], List[List[str]]] = {}

    # -- construction --------------------------------------------------------

    def _build(self) -> None:
        config = self.config
        adjacency = self._switch_adjacency

        def link(a: str, b: str) -> None:
            adjacency[a].append(b)
            adjacency[b].append(a)

        for dc in range(config.datacenters):
            edge = f"dc{dc}/edge"
            adjacency[edge] = []
            for spine in range(config.spines):
                spine_name = f"dc{dc}/spine{spine}"
                adjacency[spine_name] = []
                link(spine_name, edge)
            for cluster in range(config.clusters):
                for fabric in range(config.fabric_per_cluster):
                    fabric_name = f"dc{dc}/c{cluster}/fab{fabric}"
                    adjacency[fabric_name] = []
                    for spine in range(config.spines):
                        link(fabric_name, f"dc{dc}/spine{spine}")
                for rack in range(config.racks_per_cluster):
                    tor = f"dc{dc}/c{cluster}/r{rack}/tor"
                    adjacency[tor] = []
                    for fabric in range(config.fabric_per_cluster):
                        link(tor, f"dc{dc}/c{cluster}/fab{fabric}")
                    for host in range(config.hosts_per_rack):
                        self._tor_of[f"dc{dc}/c{cluster}/r{rack}/h{host}"] = tor
        # Inter-DC connectivity: the edge routers chain over the WAN.
        edges = [f"dc{dc}/edge" for dc in range(config.datacenters)]
        for a, b in zip(edges, edges[1:]):
            link(a, b)
            self.wan_links.update(((a, b), (b, a)))

    # -- structural queries ---------------------------------------------------

    def hosts(self) -> List[str]:
        """All host node names, sorted."""
        return sorted(self._tor_of)

    def switches(self) -> List[str]:
        """All switch and router node names, sorted."""
        return sorted(self._switch_adjacency)

    def switch_count(self, src: str, dst: str) -> int:
        """Number of switch/router hops on the shortest path."""
        # A host to itself crosses no switch: its one path is [src].
        return max(len(self.ecmp_paths(src, dst)[0]) - 2, 0)

    # -- ECMP route table -----------------------------------------------------

    def ecmp_paths(self, src: str, dst: str) -> List[List[str]]:
        """All equal-cost shortest paths between two hosts, sorted.

        Equal, element for element, to the sorted list of every shortest
        path between them in the full host graph, but enumerated from
        the ToR pair's shortest-path DAG and cached per host pair.  The
        returned lists are shared: read, never mutate.
        """
        paths = self._routes.get((src, dst))
        if paths is None:
            src_tor = self._tor(src)
            dst_tor = self._tor(dst)
            if src == dst:
                paths = [[src]]
            else:
                tails = [[dst_tor, dst]]
                for level in self._tor_dag(src_tor, dst_tor):
                    tails = [
                        [peer] + tail for tail in tails for peer in level[tail[0]]
                    ]
                paths = sorted([src] + tail for tail in tails)
            self._routes[(src, dst)] = paths
        return paths

    def ecmp_link_counts(
        self, src: str, dst: str
    ) -> Tuple[int, int, Dict[Tuple[str, str], int]]:
        """``(path count, links per path, {link: paths through it})``.

        The same ECMP path set :meth:`ecmp_paths` lists, counted instead
        of enumerated: the dict equals the ``Counter`` of directed links
        over those paths.  Computed per call and never cached.
        """
        src_tor = self._tor(src)
        dst_tor = self._tor(dst)
        if src == dst:
            return 1, 0, {}
        depths, from_src = self._bfs_tables(src_tor)
        paths = from_src[dst_tor]
        counts = {(src, src_tor): paths, (dst_tor, dst): paths}
        # Shortest paths from each DAG switch on to the destination ToR,
        # complete for a level before the walk reaches the level below.
        to_dst = {dst_tor: 1}
        for level in self._tor_dag(src_tor, dst_tor):
            for node, peers in level.items():
                onward = to_dst[node]
                for peer in peers:
                    counts[(peer, node)] = from_src[peer] * onward
                    to_dst[peer] = to_dst.get(peer, 0) + onward
        return paths, depths[dst_tor] + 2, counts

    def _tor(self, host: str) -> str:
        tor = self._tor_of.get(host)
        if tor is None:
            raise ValueError(f"not a host of this topology: {host!r}")
        return tor

    def _tor_dag(self, src_tor: str, dst_tor: str) -> List[Dict[str, List[str]]]:
        """The shortest-path DAG from ``src_tor`` to ``dst_tor``.

        One level per BFS depth, walking back from ``dst_tor``: each
        level maps a switch on some shortest path to its predecessors
        one hop nearer ``src_tor``, in adjacency order.  Empty when the
        two ToRs are the same switch.
        """
        adjacency = self._switch_adjacency
        depths = self._bfs_tables(src_tor)[0]
        levels = []
        frontier = [dst_tor]
        for depth in range(depths[dst_tor] - 1, -1, -1):
            level = {
                node: [peer for peer in adjacency[node] if depths[peer] == depth]
                for node in frontier
            }
            levels.append(level)
            frontier = list(dict.fromkeys(
                peer for peers in level.values() for peer in peers
            ))
        return levels

    def _bfs_tables(self, source: str) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Hop depth of every switch from one ToR, over the switch
        layer, and its number of shortest paths from that ToR."""
        tables = self._bfs.get(source)
        if tables is None:
            adjacency = self._switch_adjacency
            depths = {source: 0}
            counts = {source: 1}
            frontier = [source]
            while frontier:
                following = []
                for node in frontier:
                    depth = depths[node] + 1
                    count = counts[node]
                    for peer in adjacency[node]:
                        seen = depths.get(peer)
                        if seen is None:
                            depths[peer] = depth
                            counts[peer] = count
                            following.append(peer)
                        elif seen == depth:
                            counts[peer] += count
                frontier = following
            tables = self._bfs[source] = (depths, counts)
        return tables

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
