"""Build and run a scenario: one spec → one live cluster → one artifact.

``build_scenario`` instantiates every node (through the NIC registry,
with per-node parameter overrides) and the fabric into **one**
:class:`~repro.sim.Simulator`.  ``Scenario.run`` then replays the
planned traffic: each packet is a flow process that runs sender TX →
fabric transit (live switch hops) → receiver RX, with end-to-end
latency recorded into per-flow histograms via the existing stats layer.

Traffic entries declared with ``fidelity="flow"`` take the hybrid fast
path instead: no packets, no per-hop events — a
:class:`~repro.flow.FlowSource` injects their aggregate byte rate onto
the clos links, which the packet-level switches price back into
foreground latency as an analytical queueing delay.  Nodes referenced
*only* by flow-fidelity traffic skip model construction entirely,
which is what lets one ``Simulator`` hold a thousand-node scenario.

The result is a versioned, JSON-safe artifact.  Nothing wall-clock-
dependent enters it, so the same spec + seed always produces a
byte-identical document — the determinism contract the scenario tests
pin.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from dataclasses import field as dataclass_field
from typing import Any, Dict, List, Optional

from repro.driver.node import FlowRecovery
from repro.driver.registry import make_node
from repro.faults import FaultInjector
from repro.flow import FlowSource, plan_flow_demands
from repro.net.fabric import ClosFabric, DirectFabric
from repro.net.packet import Packet
from repro.net.topology import ClosConfig, ClosTopology
from repro.params import DEFAULT, SystemParams, apply_overrides
from repro.scenario.spec import ScenarioSpec
from repro.scenario.traffic import FlowPacket, plan_traffic
from repro.sim import Histogram, Simulator
from repro.units import ns

__all__ = [
    "DeliveredPacket",
    "Scenario",
    "ScenarioResult",
    "build_scenario",
    "dump_artifact",
    "format_report",
]

SCENARIO_SCHEMA = "netdimm-repro/scenario-artifact"
SCENARIO_SCHEMA_VERSION = 4
"""v2 added loss accounting: per-flow-group ``recovery`` counters, a
top-level ``packets_lost``, fault counters in ``fabric``, and ``p999``
in every latency summary.  v3 adds ``segment_latency``: a per-segment
latency summary (same key set as the flow summaries) over foreground
packets, so ``diff_artifacts`` can localize a latency regression to
the path segment that moved.  v4 adds ``flow_traffic``: per-group
summaries of traffic run at ``fidelity="flow"`` (offered load,
analytical fabric latency, peak link utilization) — empty for pure
packet-level scenarios, whose documents are otherwise unchanged.  See
``docs/artifacts.md`` for the full schema history and compatibility
rules."""


@dataclass(frozen=True)
class DeliveredPacket:
    """One measured packet, fully delivered."""

    plan: FlowPacket
    latency_ticks: int
    packet: Packet


@dataclass(frozen=True)
class ScenarioResult:
    """Everything a finished scenario reports (JSON-safe, deterministic)."""

    name: str
    packets_delivered: int
    sim_ticks: int
    events_fired: int
    flows: Dict[str, Dict[str, float]]
    """Flow-group label → latency summary in microseconds."""

    pairs: Dict[str, Dict[str, float]]
    """``group/src->dst`` → latency summary in microseconds."""

    segments_us: Dict[str, float]
    """Mean per-packet breakdown segment (foreground packets), in us."""

    segment_latency: Dict[str, Dict[str, float]]
    """Segment → latency summary (count/mean/min/p50/p99/p999/max, us)
    over foreground packets — the distribution behind ``segments_us``,
    added in schema v3 so regressions localize to a segment."""

    fabric: Dict[str, int]
    """Fabric-wide counters: switch forwards, backpressure stalls, and
    (v2) injected link drops/corruptions and lossy overflow drops."""

    packets_lost: int = 0
    """Packets abandoned after the retransmit budget ran out."""

    recovery: Dict[str, Dict[str, int]] = dataclass_field(default_factory=dict)
    """Flow-group label → recovery counters (delivered/lost/drops/
    retransmits/timeouts).  Empty when the scenario injected no faults."""

    flow_traffic: Dict[str, Dict[str, float]] = dataclass_field(
        default_factory=dict
    )
    """Traffic-group label → flow-fidelity summary (schema v4): demand
    count, offered packets/bytes, mean offered rate, analytical fabric
    latency, and peak link utilization.  Empty for pure packet-level
    scenarios."""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe rendering (scenario-artifact schema v4)."""
        return {
            "name": self.name,
            "packets_delivered": self.packets_delivered,
            "packets_lost": self.packets_lost,
            "sim_ticks": self.sim_ticks,
            "events_fired": self.events_fired,
            "flows": {label: dict(stats) for label, stats in self.flows.items()},
            "pairs": {label: dict(stats) for label, stats in self.pairs.items()},
            "segments_us": dict(self.segments_us),
            "segment_latency": {
                segment: dict(stats)
                for segment, stats in self.segment_latency.items()
            },
            "fabric": dict(self.fabric),
            "recovery": {
                label: dict(stats) for label, stats in self.recovery.items()
            },
            "flow_traffic": {
                label: dict(stats)
                for label, stats in self.flow_traffic.items()
            },
        }

    def metrics(self) -> Dict[str, float]:
        """Scalar metrics: one namespace per flow group, plus the mean
        of every breakdown segment (``...segment.<name>.mean_us``) so
        artifact diffs name the segment a regression lives in."""
        metrics: Dict[str, float] = {}
        for label, stats in sorted(self.flows.items()):
            for key in ("mean", "p50", "p99", "p999"):
                metrics[f"scenario.{self.name}.{label}.{key}_us"] = stats[key]
        for segment, stats in sorted(self.segment_latency.items()):
            metrics[f"scenario.{self.name}.segment.{segment}.mean_us"] = stats[
                "mean"
            ]
        for label, stats in sorted(self.flow_traffic.items()):
            prefix = f"scenario.{self.name}.flowload.{label}"
            metrics[f"{prefix}.fabric_latency_us"] = stats["fabric_latency_us"]
            metrics[f"{prefix}.peak_utilization"] = stats["peak_utilization"]
        return metrics


def format_report(result: ScenarioResult) -> str:
    """Human-readable per-flow latency table."""
    lines = [
        f"scenario {result.name}: {result.packets_delivered} packets, "
        f"{result.sim_ticks / 1e6:.1f} us simulated, "
        f"{result.events_fired} events",
        f"fabric: {result.fabric.get('switch_forwards', 0)} switch forwards, "
        f"{result.fabric.get('egress_stalls', 0)} backpressure stalls",
    ]
    if result.recovery:
        drops = result.fabric.get("link_drops", 0) + result.fabric.get(
            "overflow_drops", 0
        )
        retransmits = sum(c["retransmits"] for c in result.recovery.values())
        lines.append(
            f"faults: {drops} drops, {retransmits} retransmits, "
            f"{result.packets_lost} packets lost"
        )
    for label, stats in sorted(result.flow_traffic.items()):
        lines.append(
            f"flow-level {label}: {stats['demands']:.0f} demands, "
            f"{stats['offered_packets']:.0f} packets offered at "
            f"{stats['mean_rate_gbps']:.2f} Gbps, peak link util "
            f"{stats['peak_utilization']:.2f}, fabric latency "
            f"{stats['fabric_latency_us']:.2f} us"
        )
    lines.append(
        f"{'flow':<32}{'count':>7}{'mean':>9}{'p50':>9}{'p99':>9}{'max':>9}  (us)"
    )
    for label, stats in sorted(result.pairs.items()):
        lines.append(
            f"{label:<32}{stats['count']:>7.0f}{stats['mean']:>9.2f}"
            f"{stats['p50']:>9.2f}{stats['p99']:>9.2f}{stats['max']:>9.2f}"
        )
    for label, stats in sorted(result.flows.items()):
        lines.append(
            f"{('Σ ' + label):<32}{stats['count']:>7.0f}{stats['mean']:>9.2f}"
            f"{stats['p50']:>9.2f}{stats['p99']:>9.2f}{stats['max']:>9.2f}"
        )
    return "\n".join(lines)


class _Countdown:
    """Completes ``done`` on the ``remaining``-th call of :meth:`tick`.

    The flow sources report each finished demand window here rather
    than to a bound method of the :class:`Scenario` that holds them, so
    a scenario is no reference cycle and frees by reference count.
    """

    __slots__ = ("remaining", "done")

    def __init__(self) -> None:
        self.remaining = 0
        self.done = None

    def tick(self) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self.done.set_result(None)


class Scenario:
    """A built (but not yet run) cluster: nodes + fabric + traffic plan."""

    def __init__(
        self,
        spec: ScenarioSpec,
        base_params: Optional[SystemParams] = None,
        tracer=None,
    ):
        self.spec = spec
        params = base_params or DEFAULT
        if spec.fabric.switch_latency_ns is not None:
            params = params.with_switch_latency(
                ns(spec.fabric.switch_latency_ns)
            )
        self.params = params
        self.sim = Simulator()
        self.tracer = tracer
        """Optional :class:`repro.telemetry.SpanTracer`.  Attached to the
        simulator so every instrumented component sees it; ``None`` (the
        default) keeps tracing entirely out of the hot path."""
        self.sim.tracer = tracer
        self.injector = (
            FaultInjector(spec.faults, spec.seed)
            if spec.faults is not None
            else None
        )
        self.plan = plan_traffic(spec)
        flow_entries = [
            (index, traffic)
            for index, traffic in enumerate(spec.traffic)
            if traffic.fidelity == "flow"
        ]
        # Hybrid fast path: a node referenced only by flow-fidelity
        # traffic never transmits or receives a packet, so its NIC /
        # DRAM / driver models are dead weight — skip building them.
        # (Placement below still covers every node; the flow demands
        # need the hosts.)  Pure packet scenarios keep building every
        # node exactly as before.
        if flow_entries:
            packet_nodes = {flow.src for flow in self.plan}
            packet_nodes.update(flow.dst for flow in self.plan)
            if spec.faults is not None:
                packet_nodes.update(stall.node for stall in spec.faults.stalls)
        else:
            packet_nodes = None
        self.nodes = {}
        for node_spec in spec.nodes:
            if packet_nodes is not None and node_spec.name not in packet_nodes:
                continue
            node_params = apply_overrides(params, node_spec.overrides)
            node = make_node(
                self.sim, node_spec.name, node_spec.nic_kind, node_params
            )
            if self.injector is not None:
                stalls = self.injector.stall_windows(node_spec.name)
                if stalls:
                    node.fault_stalls = stalls
            self.nodes[node_spec.name] = node
        self.fabric, self.placement = self._build_fabric()
        self.flow_sources: List[FlowSource] = []
        self._flow_windows = _Countdown()
        if flow_entries:
            node_names = [node.name for node in spec.nodes]
            grid = max(1, int(ns(spec.flow_update_interval_ns)))
            for index, traffic in flow_entries:
                label = traffic.label or f"t{index}.{traffic.kind}"
                demands = plan_flow_demands(
                    traffic, index, node_names, spec.seed, self.params.network
                )
                self.flow_sources.append(
                    FlowSource(
                        self.sim,
                        f"flow.{label}",
                        fabric=self.fabric,
                        placement=self.placement,
                        demands=demands,
                        group=label,
                        update_interval=grid,
                        # Mirrors traffic._flow_base, negated: flow
                        # spans can never collide with packet uids.
                        uid_base=-(index + 1) * 1_000_000,
                        on_window_done=self._flow_windows.tick,
                    )
                )
        self.delivered: List[DeliveredPacket] = []
        self.lost: List[FlowPacket] = []
        self.recovery: Dict[str, FlowRecovery] = {}
        self._remaining = 0
        self._all_done = None
        self._ran = False

    # -- construction ---------------------------------------------------------

    def _build_fabric(self):
        spec = self.spec
        names = [node.name for node in spec.nodes]
        if spec.fabric.kind == "direct":
            if len(names) != 2:
                raise ValueError(
                    f"direct fabric needs exactly 2 nodes, got {len(names)}"
                )
            fabric = DirectFabric(
                self.sim,
                "fabric",
                tuple(names),
                params=self.params.network,
                injector=self.injector,
            )
            return fabric, {name: name for name in names}
        topology = ClosTopology(
            ClosConfig(
                racks_per_cluster=spec.fabric.racks_per_cluster,
                hosts_per_rack=spec.fabric.hosts_per_rack,
                clusters=spec.fabric.clusters,
                fabric_per_cluster=spec.fabric.fabric_per_cluster,
                spines=spec.fabric.spines,
                datacenters=spec.fabric.datacenters,
            ),
            params=self.params.network,
        )
        fabric = ClosFabric(
            self.sim,
            "fabric",
            topology,
            queue_depth=spec.fabric.queue_depth,
            drop_mode=(
                spec.faults.switch_drop_mode
                if spec.faults is not None
                else "backpressure"
            ),
            injector=self.injector,
        )
        placement: Dict[str, str] = {}
        hosts = fabric.host_names()
        known = set(hosts)
        bound = {n.host for n in spec.nodes if n.host}
        available = (host for host in hosts if host not in bound)
        for node_spec in spec.nodes:
            if node_spec.host is not None:
                if node_spec.host not in known:
                    raise ValueError(
                        f"node {node_spec.name!r} binds to unknown host "
                        f"{node_spec.host!r}"
                    )
                placement[node_spec.name] = node_spec.host
            else:
                host = next(available, None)
                if host is None:
                    raise ValueError(
                        "more nodes than topology hosts; grow the fabric spec"
                    )
                placement[node_spec.name] = host
        if len(set(placement.values())) != len(placement):
            raise ValueError(f"two nodes bound to one host: {placement}")
        return fabric, placement

    # -- execution ------------------------------------------------------------

    def _flow_steps(self, flow: FlowPacket, packet: Packet):
        """One trip from sender to receiver; returns ``True`` (arrived),
        as :meth:`ServerNode.send_reliably` does for a delivery."""
        yield self.nodes[flow.src].transmit(packet)
        yield from self.fabric.transit(
            packet, self.placement[flow.src], self.placement[flow.dst]
        )
        yield self.nodes[flow.dst].receive(packet)
        return True

    def _warmup(self, max_events: int) -> None:
        """Send warmup packets per pair, sequentially, uncounted."""
        if self.spec.warmup_packets == 0:
            return
        seen = {}
        for flow in self.plan:
            seen.setdefault((flow.src, flow.dst), flow.size_bytes)
        for (src, dst), size_bytes in seen.items():
            for _ in range(self.spec.warmup_packets):
                packet = Packet(size_bytes=size_bytes, src=src, dst=dst)
                warm = FlowPacket(
                    arrival=0, src=src, dst=dst, size_bytes=size_bytes,
                    flow_id=0, group="warmup", role="background",
                )
                process = self.sim.spawn(
                    self._flow_steps(warm, packet), name="warmup"
                )
                self.sim.run_until(process.done, max_events=max_events)

    def _measured_flow(self, flow: FlowPacket, uid: int):
        """One measured packet of the plan, from launch to delivery.

        ``uid`` is the packet's index in the traffic plan — the
        process-independent identity the fault injector keys verdicts
        on.  Without faults the packet makes one trip; under fault
        injection the sender delivers it reliably, and the end-to-end
        latency includes every retransmission attempt.
        """
        packet = Packet(
            size_bytes=flow.size_bytes,
            src=flow.src,
            dst=flow.dst,
            flow_id=flow.flow_id,
            uid=uid,
        )
        if self.injector is None:
            steps = self._flow_steps(flow, packet)
        else:
            src_host = self.placement[flow.src]
            dst_host = self.placement[flow.dst]
            fabric = self.fabric

            def transit(pkt: Packet):
                return fabric.transit(pkt, src_host, dst_host)

            steps = self.nodes[flow.src].send_reliably(
                packet,
                transit,
                self.nodes[flow.dst],
                self.spec.faults.recovery,
                self.recovery.setdefault(flow.group, FlowRecovery()),
            )
        tracer = self.tracer
        label = f"{flow.group}/{flow.src}->{flow.dst}"
        if tracer is not None:
            tracer.track(uid, f"{label} #{uid}")
        start = self.sim.now
        try:
            arrived = yield from steps
        except Exception as exc:
            self._fail(exc)
            return
        if tracer is not None:
            # The flow root span, over every retransmission attempt:
            # every segment/wire/notify span of this packet nests inside
            # it by time containment, and a lost packet carries the
            # verdict so the timeline shows the abandonment.
            tracer.add(
                uid, label, "flow", start, self.sim.now,
                None if arrived else {"lost": True},
            )
        if arrived:
            self.delivered.append(
                DeliveredPacket(
                    plan=flow, latency_ticks=self.sim.now - start, packet=packet
                )
            )
        else:
            self.lost.append(flow)
        self._remaining -= 1
        if self._remaining == 0:
            self._all_done.set_result(None)

    def _fail(self, exc: Exception) -> None:
        """A measured flow raised: end the run with the first such error.

        Nobody waits on a flow's process, so without this the error
        would die with it and the run would stop on the kernel's
        "drained" error instead.
        """
        if not self._all_done.done:
            self._all_done.set_exception(exc)

    def _launch(self, flow: FlowPacket, uid: int) -> None:
        self.sim.spawn(self._measured_flow(flow, uid), name=f"flow.{flow.group}")

    def run(self, max_events: Optional[int] = None) -> ScenarioResult:
        """Warm up, replay the plan (and flow windows), and summarize."""
        if self._ran:
            raise RuntimeError("scenario already ran")
        self._ran = True
        flow_windows = sum(len(source.demands) for source in self.flow_sources)
        if max_events is None:
            max_events = (
                5_000_000 + 20_000 * len(self.plan) + 100 * flow_windows
            )
        self._warmup(max_events)
        start_tick = self.sim.now
        self._remaining = len(self.plan)
        self._all_done = self.sim.future()
        windows = self._flow_windows
        if self.flow_sources:
            windows.remaining = flow_windows
            windows.done = self.sim.future()
            for source in self.flow_sources:
                source.install(start_tick)
        for uid, flow in enumerate(self.plan):
            self.sim.schedule_at(
                start_tick + flow.arrival, self._launch, flow, uid
            )
        if self.plan:
            self.sim.run_until(self._all_done, max_events=max_events)
        if self.flow_sources and windows.remaining > 0:
            # Flow windows can outlive the packet plan (long background
            # load under a short foreground burst); drain the remaining
            # window boundaries so summaries and load accounting close.
            self.sim.run_until(windows.done, max_events=max_events)
        return self._summarize()

    # -- results --------------------------------------------------------------

    def _summarize(self) -> ScenarioResult:
        flow_hist: Dict[str, Histogram] = {}
        pair_hist: Dict[str, Histogram] = {}
        segment_hist: Dict[str, Histogram] = {}
        segment_totals: Dict[str, int] = {}
        foreground = 0
        for delivery in self.delivered:
            flow = delivery.plan
            latency_us = delivery.latency_ticks / 1e6
            flow_hist.setdefault(flow.group, Histogram(flow.group)).record(
                latency_us
            )
            pair_label = f"{flow.group}/{flow.src}->{flow.dst}"
            pair_hist.setdefault(pair_label, Histogram(pair_label)).record(
                latency_us
            )
            if flow.role == "foreground":
                foreground += 1
                for segment, ticks in delivery.packet.breakdown.segments.items():
                    segment_totals[segment] = (
                        segment_totals.get(segment, 0) + ticks
                    )
                    segment_hist.setdefault(
                        segment, Histogram(segment)
                    ).record(ticks / 1e6)
        segments_us = {
            segment: total / foreground / 1e6
            for segment, total in sorted(segment_totals.items())
        } if foreground else {}
        if isinstance(self.fabric, ClosFabric):
            fabric_stats = {
                "switch_forwards": self.fabric.forwarded_count(),
                "egress_stalls": self.fabric.stall_count(),
                "overflow_drops": self.fabric.overflow_count(),
            }
        else:
            fabric_stats = {
                "switch_forwards": 0,
                "egress_stalls": 0,
                "overflow_drops": 0,
            }
        if self.injector is not None:
            fabric_stats["link_drops"] = self.injector.counters["link_drops"]
            fabric_stats["link_corruptions"] = self.injector.counters[
                "link_corruptions"
            ]
        else:
            fabric_stats["link_drops"] = 0
            fabric_stats["link_corruptions"] = 0
        return ScenarioResult(
            name=self.spec.name,
            packets_delivered=len(self.delivered),
            sim_ticks=self.sim.now,
            events_fired=self.sim.events_fired,
            flows={
                label: _latency_summary(histogram)
                for label, histogram in sorted(flow_hist.items())
            },
            pairs={
                label: _latency_summary(histogram)
                for label, histogram in sorted(pair_hist.items())
            },
            segments_us=segments_us,
            segment_latency={
                segment: _latency_summary(histogram)
                for segment, histogram in sorted(segment_hist.items())
            },
            fabric=fabric_stats,
            packets_lost=len(self.lost),
            recovery={
                label: counters.as_dict()
                for label, counters in sorted(self.recovery.items())
            },
            flow_traffic={
                source.group: source.summary()
                for source in sorted(
                    self.flow_sources, key=lambda source: source.group
                )
            },
        )


def _latency_summary(histogram: Histogram) -> Dict[str, float]:
    """A histogram summary with the tail percentile the chaos sweeps
    plot (``p999``).  Kept local so :meth:`Histogram.summary` — whose
    key set older experiment artifacts pin — stays untouched."""
    summary = histogram.summary()
    summary["p999"] = histogram.percentile(99.9) if histogram.count else 0.0
    return summary


def build_scenario(
    spec: ScenarioSpec,
    base_params: Optional[SystemParams] = None,
    tracer=None,
) -> Scenario:
    """Instantiate the whole cluster described by ``spec``.

    Pass a :class:`repro.telemetry.SpanTracer` as ``tracer`` to collect
    per-packet spans and counters while the scenario runs; the default
    ``None`` leaves the simulation entirely un-instrumented (the event
    stream is byte-identical either way).
    """
    return Scenario(spec, base_params=base_params, tracer=tracer)


def dump_artifact(document: Dict[str, Any]) -> str:
    """Canonical (byte-stable) JSON rendering of an artifact."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
