"""Fig. 12(a) — normalized per-packet latency on Facebook cluster traces.

Replays synthetic traces for the database / webserver / hadoop clusters
over the simulated clos fabric, with per-hop switch latency swept over
{25, 50, 100, 200} ns, and reports NetDIMM's average per-packet latency
normalized to the PCIe-NIC and iNIC configurations.

Paper numbers targeted (shape): average improvements over the PCIe NIC
of 40.6 / 36.0 / 33.1 / 25.3% at 25 / 50 / 100 / 200 ns switch latency,
8.1–15.3% over iNIC, with webserver benefiting most and hadoop least.

Three replay modes share the result type and the sweep; each runs as
one unsharded task:

* ``mode="analytical"`` (default, the artifact/paper-target path) —
  per-packet latency is assembled as host-side latency (measured with
  the event-driven node models, bucketed by packet size) plus the
  fabric path latency for the packet's locality class — the same
  decomposition the paper's dist-gem5 setup uses, with end hosts
  simulated in detail and switches as fixed-latency hops.  So one
  ``run()`` measures each (config, size bucket) once — 72 host-side
  measurements — and draws each cluster's trace once, then reuses them
  across all 36 (cluster, switch, config) points; the memo is local to
  the call.
* ``mode="fabric"`` — the trace is replayed *live* through the scenario
  layer: one host pair per locality class is instantiated on the clos
  topology and every packet traverses sender TX → queued switch hops →
  receiver RX inside one simulator.  At zero load the two modes agree
  (pinned by the parity test); under load the fabric mode additionally
  shows the queueing the analytical mode assumes away.
* ``mode="hybrid"`` — the fabric replay plus flow-level background
  load: extra nodes inject ``fidelity="flow"`` uniform cross traffic
  (:mod:`repro.flow`) whose link utilization couples into the measured
  packets' switch-queue delay without costing a single packet event —
  the loaded variant of the figure at unloaded-run cost.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from repro.experiments.oneway import measure_one_way
from repro.net.topology import ClosTopology, Locality
from repro.params import DEFAULT, SystemParams
from repro.scenario.builder import build_scenario
from repro.scenario.spec import FabricSpec, NodeSpec, ScenarioSpec, TrafficSpec
from repro.units import CACHELINE, ns, transfer_time
from repro.workloads.traces import ClusterKind, TraceGenerator

SUMMARY = "Facebook-trace replay, normalized latency (Fig. 12a)"

SWITCH_LATENCIES_NS = (25, 50, 100, 200)
CONFIGS = ("dnic", "inic", "netdimm")
PACKETS_PER_CLUSTER = 3000

LOCALITY_NODE_HOSTS: Dict[str, Tuple[Tuple[str, str], Tuple[str, str]]] = {
    # locality -> ((src node, src host), (dst node, dst host)); one
    # dedicated host pair per locality class, all hosts distinct, on
    # the default clos shape (2 DCs x 2 clusters x 4 racks x 4 hosts).
    Locality.INTRA_RACK.value: (
        ("rack_tx", "dc0/c0/r0/h0"),
        ("rack_rx", "dc0/c0/r0/h1"),
    ),
    Locality.INTRA_CLUSTER.value: (
        ("cluster_tx", "dc0/c0/r1/h0"),
        ("cluster_rx", "dc0/c0/r2/h0"),
    ),
    Locality.INTRA_DATACENTER.value: (
        ("dc_tx", "dc0/c1/r0/h0"),
        ("dc_rx", "dc0/c0/r3/h0"),
    ),
    Locality.INTER_DATACENTER.value: (
        ("wan_tx", "dc1/c0/r0/h0"),
        ("wan_rx", "dc0/c1/r3/h3"),
    ),
}


def _size_bucket(size_bytes: int) -> int:
    """Round a packet size up to the measurement bucket (64 B steps)."""
    bucket = -(-size_bytes // CACHELINE) * CACHELINE
    return max(CACHELINE, min(bucket, 1536))


@dataclass(frozen=True)
class Fig12aResult:
    """Mean per-packet latency per (cluster, config, switch latency)."""

    mean_latency: Dict[Tuple[ClusterKind, str, int], float]
    """(cluster, config, switch_ns) -> mean one-way latency (ticks)."""

    def normalized(
        self, cluster: ClusterKind, baseline: str, switch_ns: int
    ) -> float:
        """NetDIMM latency / baseline latency."""
        netdimm = self.mean_latency[(cluster, "netdimm", switch_ns)]
        base = self.mean_latency[(cluster, baseline, switch_ns)]
        return netdimm / base

    def average_improvement(self, baseline: str, switch_ns: int) -> float:
        """Mean reduction across clusters at one switch latency."""
        values = [
            1 - self.normalized(cluster, baseline, switch_ns)
            for cluster in ClusterKind
        ]
        return sum(values) / len(values)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe rendering (artifact schema v1)."""
        return {
            "mean_latency": [
                {
                    "cluster": cluster.value,
                    "config": config,
                    "switch_ns": switch_ns,
                    "ticks": ticks,
                }
                for (cluster, config, switch_ns), ticks in sorted(
                    self.mean_latency.items(),
                    key=lambda kv: (kv[0][0].value, kv[0][1], kv[0][2]),
                )
            ]
        }

    def metrics(self) -> Dict[str, float]:
        """Scalar metrics named after the paper-target registry."""
        switch_points = sorted(
            {switch_ns for (_c, _cfg, switch_ns) in self.mean_latency}
        )
        metrics: Dict[str, float] = {}
        for switch_ns in (25, 200):
            if switch_ns in switch_points:
                metrics[f"fig12a.improvement_vs_dnic.{switch_ns}ns"] = (
                    self.average_improvement("dnic", switch_ns)
                )
        metrics["fig12a.improvement_vs_inic.max"] = max(
            self.average_improvement("inic", switch_ns) for switch_ns in switch_points
        )
        return metrics


def run(
    params: Optional[SystemParams] = None,
    packets_per_cluster: int = PACKETS_PER_CLUSTER,
    switch_latencies_ns: Tuple[int, ...] = SWITCH_LATENCIES_NS,
    seed: int = 2019,
    mode: str = "analytical",
    mean_interarrival_ns: float = 1000.0,
    **spec_options: Any,
) -> Fig12aResult:
    """Replay every cluster trace under every configuration and sweep.

    ``mode="fabric"`` replays each trace live over the instantiated
    fabric (a large ``mean_interarrival_ns`` gives a zero-load
    cross-check of the analytical mode), and ``mode="hybrid"`` adds
    flow-level background cross traffic to that replay; ``spec_options``
    go to :func:`fabric_replay_spec` / :func:`hybrid_replay_spec`
    (``queue_depth``; ``background_nodes`` and ``background_load`` for
    hybrid).
    """
    params = params or DEFAULT
    if mode == "analytical":
        return _analytical(params, packets_per_cluster, switch_latencies_ns, seed)
    builders = {"fabric": fabric_replay_spec, "hybrid": hybrid_replay_spec}
    if mode not in builders:
        raise ValueError(f"unknown fig12a mode: {mode!r}")
    mean_latency = {}
    for cluster in ClusterKind:
        for switch_ns in switch_latencies_ns:
            for config in CONFIGS:
                spec = builders[mode](
                    cluster,
                    config,
                    switch_ns,
                    packets_per_cluster,
                    seed=seed,
                    mean_interarrival_ns=mean_interarrival_ns,
                    **spec_options,
                )
                scenario = build_scenario(spec, base_params=params)
                scenario.run()
                total = sum(d.latency_ticks for d in scenario.delivered)
                mean_latency[(cluster, config, switch_ns)] = total / len(
                    scenario.delivered
                )
    return Fig12aResult(mean_latency=mean_latency)


def _analytical(
    params: SystemParams,
    packets: int,
    switch_latencies_ns: Tuple[int, ...],
    seed: int,
) -> Fig12aResult:
    """Host-side latency plus the fabric path, summed per packet.

    Each pure input is computed once per call and reused across the
    (cluster, switch latency, config) points: one trace mix per cluster
    and one host-side measurement per (config, size bucket) — 3 traces
    and 72 measurements at the defaults.  Nothing outlives the call.
    """
    mixes = {cluster: _trace_mix(cluster, seed, packets) for cluster in ClusterKind}
    buckets = sorted(
        {_size_bucket(size) for mix in mixes.values() for size, _loc in mix}
    )
    # Host-side latency per size bucket, measured from the detailed node
    # models; the fabric substitutes for the wire.
    host = {
        (config, bucket): measure_one_way(config, bucket, params).host_ticks()
        for config in CONFIGS
        for bucket in buckets
    }
    network = params.network
    mean_latency = {}
    for cluster, mix in mixes.items():
        for switch_ns in switch_latencies_ns:
            fabric = ClosTopology(
                params=params.with_switch_latency(ns(switch_ns)).network
            )
            # End-host MAC/PHY + first-link propagation (with the
            # serialization below, the "wire" pieces the fabric path
            # model does not include).
            endhost_wire = 2 * network.mac_phy_latency + fabric.params.propagation
            for config in CONFIGS:
                # Every term is an integer tick count, so summing per
                # distinct (size, locality) pair gives the per-packet
                # total exactly.
                total = sum(
                    count
                    * (
                        host[(config, _size_bucket(size))]
                        + endhost_wire
                        + transfer_time(
                            network.framed_bytes(size), network.link_bytes_per_ps
                        )
                        + fabric.path_latency(size, locality)
                    )
                    for (size, locality), count in mix.items()
                )
                mean_latency[(cluster, config, switch_ns)] = total / packets
    return Fig12aResult(mean_latency=mean_latency)


def _trace_mix(
    cluster: ClusterKind, seed: int, packets: int
) -> Dict[Tuple[int, Locality], int]:
    """(size, locality) -> packet count of one seeded trace."""
    trace = TraceGenerator(cluster, seed=seed).generate(packets)
    return Counter((p.size_bytes, p.locality) for p in trace)


def hybrid_replay_spec(
    cluster: ClusterKind,
    config: str,
    switch_ns: int,
    packets: int,
    seed: int = 2019,
    mean_interarrival_ns: float = 1000.0,
    queue_depth: Optional[int] = 16,
    background_nodes: int = 8,
    background_load: float = 0.2,
) -> ScenarioSpec:
    """One live-replay point plus flow-fidelity background load.

    The background entry is uniform traffic from auto-placed extra
    nodes, offered at ``background_load`` × link capacity in aggregate
    and windowed to cover the whole measured trace.
    """
    if not 0.0 < background_load < 1.0:
        raise ValueError(
            f"background_load must be in (0, 1), got {background_load}"
        )
    base = fabric_replay_spec(
        cluster,
        config,
        switch_ns,
        packets,
        seed=seed,
        mean_interarrival_ns=mean_interarrival_ns,
        queue_depth=queue_depth,
    )
    network = DEFAULT.network
    framed = network.framed_bytes(network.mtu_bytes)
    # Aggregate offered rate = background_load x link capacity, i.e. a
    # mean interarrival of framed / (load x capacity) ticks.
    bg_interarrival_ns = framed / (
        background_load * network.link_bytes_per_ps
    ) / 1000.0
    trace_duration_ns = packets * mean_interarrival_ns
    bg_packets = max(1, -(-int(trace_duration_ns) // int(bg_interarrival_ns)))
    bg_names = tuple(f"bg{i}" for i in range(background_nodes))
    return replace(
        base,
        name=f"{base.name}-hybrid",
        nodes=base.nodes
        + tuple(NodeSpec(name=name, nic_kind=config) for name in bg_names),
        traffic=base.traffic
        + (
            TrafficSpec(
                kind="uniform",
                packets=bg_packets,
                size_bytes=network.mtu_bytes,
                mean_interarrival_ns=bg_interarrival_ns,
                src=bg_names,
                role="background",
                label="background",
                fidelity="flow",
            ),
        ),
    )


def fabric_replay_spec(
    cluster: ClusterKind,
    config: str,
    switch_ns: int,
    packets: int,
    seed: int = 2019,
    mean_interarrival_ns: float = 1000.0,
    queue_depth: Optional[int] = 16,
) -> ScenarioSpec:
    """The scenario spec for one live-replay point."""
    nodes = []
    locality_hosts: Dict[str, Tuple[str, str]] = {}
    for locality, ((src, src_host), (dst, dst_host)) in sorted(
        LOCALITY_NODE_HOSTS.items()
    ):
        nodes.append(NodeSpec(name=src, nic_kind=config, host=src_host))
        nodes.append(NodeSpec(name=dst, nic_kind=config, host=dst_host))
        locality_hosts[locality] = (src, dst)
    return ScenarioSpec(
        name=f"fig12a-{cluster.value}-{config}-{switch_ns}ns",
        seed=seed,
        warmup_packets=1,
        nodes=tuple(nodes),
        fabric=FabricSpec(
            kind="clos",
            switch_latency_ns=switch_ns,
            queue_depth=queue_depth,
            datacenters=2,
            clusters=2,
            racks_per_cluster=4,
            hosts_per_rack=4,
            fabric_per_cluster=2,
            spines=2,
        ),
        traffic=(
            TrafficSpec(
                kind="trace",
                cluster=cluster.value,
                packets=packets,
                mean_interarrival_ns=mean_interarrival_ns,
                locality_hosts=locality_hosts,
                label=cluster.value,
            ),
        ),
    )


def format_report(result: Fig12aResult) -> str:
    """Normalized latency tables per baseline, as in the figure."""
    lines = ["Fig. 12(a) — NetDIMM per-packet latency normalized to baselines"]
    for baseline, label in (("dnic", "PCIe NIC"), ("inic", "iNIC")):
        lines.append(f"\nnormalized to {label}:")
        header = f"{'cluster':<12}" + "".join(
            f"{s:>8}ns" for s in SWITCH_LATENCIES_NS
        )
        lines.append(header)
        for cluster in ClusterKind:
            row = f"{cluster.value:<12}"
            for switch_ns in SWITCH_LATENCIES_NS:
                row += f"{result.normalized(cluster, baseline, switch_ns):>10.2f}"
            lines.append(row)
        improvements = ", ".join(
            f"{s}ns=-{result.average_improvement(baseline, s):.1%}"
            for s in SWITCH_LATENCIES_NS
        )
        lines.append(f"average improvement: {improvements}")
    lines.append(
        "(paper: vs PCIe NIC -40.6/-36.0/-33.1/-25.3% at 25/50/100/200 ns; "
        "vs iNIC -8.1..-15.3%)"
    )
    return "\n".join(lines)
