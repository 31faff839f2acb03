"""Declarative scenario descriptions.

A :class:`ScenarioSpec` says *what* to simulate — N nodes (each with its
own NIC kind and parameter overrides), a fabric topology, and seeded
traffic — without saying *how*.  The builder
(:mod:`repro.scenario.builder`) turns one into a live cluster inside a
single simulator.

Specs round-trip through JSON (``to_dict``/``from_dict``/``load``), so
a scenario is a file in ``examples/`` that the ``run-scenario`` CLI
command replays; everything that affects the result — including the
seed — lives in the spec, which is why the same spec file always yields
a byte-identical artifact.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.driver.registry import NIC_KINDS
from repro.faults.spec import FaultSpec
from repro.params import validate_overrides
from repro.workloads.traces import ClusterKind

SPEC_SCHEMA = "netdimm-repro/scenario-spec"
SPEC_VERSION = 1

TRAFFIC_KINDS = ("oneway", "incast", "uniform", "trace")
TRAFFIC_ROLES = ("foreground", "background")
TRAFFIC_FIDELITIES = ("packet", "flow")
FABRIC_KINDS = ("direct", "clos")


@dataclass(frozen=True)
class NodeSpec:
    """One server in the cluster."""

    name: str
    nic_kind: str = "netdimm"
    host: Optional[str] = None
    """Topology host to bind to (e.g. ``dc0/c0/r0/h0`` for a clos
    fabric).  ``None`` auto-assigns hosts in declaration order."""

    overrides: Mapping[str, Any] = field(default_factory=dict)
    """Per-node ``SystemParams`` overrides: section name → field → value
    (e.g. ``{"software": {"rx_notification": "interrupt"}}``); a
    non-mapping value overrides a top-level ``SystemParams`` field."""

    def __post_init__(self):
        if not self.name:
            raise ValueError("node needs a name")
        if self.nic_kind not in NIC_KINDS:
            raise ValueError(
                f"unknown NIC kind {self.nic_kind!r} "
                f"(expected one of {NIC_KINDS})"
            )
        # Strictness extends into the nested override block: a typo'd
        # section or parameter name fails when the spec is parsed, not
        # (late, or never) when the node is built.
        validate_overrides(self.overrides)


@dataclass(frozen=True)
class FabricSpec:
    """The interconnect between the nodes."""

    kind: str = "direct"
    """``direct`` (two nodes, one wire) or ``clos`` (live multi-tier
    fabric with queued switches)."""

    switch_latency_ns: Optional[float] = None
    """Per-hop switch latency override (Table 1 default when None)."""

    queue_depth: Optional[int] = 16
    """Per-egress-port output-queue depth of every switch; ``None``
    means unbounded (no backpressure)."""

    datacenters: int = 1
    clusters: int = 1
    racks_per_cluster: int = 1
    hosts_per_rack: int = 8
    fabric_per_cluster: int = 2
    spines: int = 2

    def __post_init__(self):
        if self.kind not in FABRIC_KINDS:
            raise ValueError(
                f"unknown fabric kind {self.kind!r} (expected one of {FABRIC_KINDS})"
            )
        if self.queue_depth is not None and self.queue_depth <= 0:
            raise ValueError(f"queue_depth must be positive, got {self.queue_depth}")


@dataclass(frozen=True)
class TrafficSpec:
    """One seeded traffic generator."""

    kind: str = "oneway"
    """``oneway`` (fixed src → dst, deterministic interarrivals),
    ``incast`` (every source fan-ins to ``dst``, exponential
    interarrivals), ``uniform`` (random src → random other dst), or
    ``trace`` (a synthesized Facebook cluster trace mapped onto host
    pairs by locality)."""

    packets: int = 100
    """Packet count: per source for ``incast``, total otherwise."""

    size_bytes: int = 256
    mean_interarrival_ns: float = 1000.0
    src: Tuple[str, ...] = ()
    """Source node names; empty means every node except ``dst``."""

    dst: Optional[str] = None
    """Receiver node name (``oneway``/``incast``)."""

    cluster: Optional[str] = None
    """Facebook cluster kind for ``trace`` (database/webserver/hadoop)."""

    locality_hosts: Mapping[str, Tuple[str, str]] = field(default_factory=dict)
    """For ``trace``: locality value → (src node, dst node) pair that
    carries that locality class's packets."""

    role: str = "foreground"
    """``foreground`` flows are the measurement; ``background`` flows
    exist to load the fabric/hosts (loaded-latency style scenarios)."""

    label: Optional[str] = None
    """Flow-group label in the results (defaults to ``t<i>.<kind>``)."""

    fidelity: str = "packet"
    """``packet`` (the default: full event-driven modeling, every hop
    of every packet) or ``flow`` (analytical fast path: the entry
    becomes aggregate load on the clos links via :mod:`repro.flow` —
    O(flows × hops) instead of O(packets × hops).  Sound for background
    load whose *effect* on the measured traffic matters, not its own
    per-packet latency distribution; requires a clos fabric, and
    ``trace`` entries cannot use it (their packet mix is the point)."""

    def __post_init__(self):
        if self.kind not in TRAFFIC_KINDS:
            raise ValueError(
                f"unknown traffic kind {self.kind!r} "
                f"(expected one of {TRAFFIC_KINDS})"
            )
        if self.role not in TRAFFIC_ROLES:
            raise ValueError(
                f"unknown traffic role {self.role!r} "
                f"(expected one of {TRAFFIC_ROLES})"
            )
        if self.fidelity not in TRAFFIC_FIDELITIES:
            raise ValueError(
                f"unknown traffic fidelity {self.fidelity!r} "
                f"(expected one of {TRAFFIC_FIDELITIES})"
            )
        if self.fidelity == "flow" and self.kind == "trace":
            raise ValueError(
                "trace traffic cannot run at flow fidelity: the "
                "synthesized per-packet size/locality mix is what a "
                "trace entry exists to reproduce"
            )
        if self.packets <= 0:
            raise ValueError(f"packets must be positive, got {self.packets}")
        if self.size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive, got {self.size_bytes}")
        if self.mean_interarrival_ns < 0:
            raise ValueError("mean_interarrival_ns must be >= 0")
        if self.kind == "trace" and self.cluster is not None:
            ClusterKind(self.cluster)  # raises on unknown cluster


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, seeded, declarative many-node simulation."""

    name: str
    seed: int = 2019
    warmup_packets: int = 1
    """Uncounted packets sent per (src, dst) pair before measurement so
    connections are established and caches hold steady-state contents."""

    nodes: Tuple[NodeSpec, ...] = ()
    fabric: FabricSpec = field(default_factory=FabricSpec)
    traffic: Tuple[TrafficSpec, ...] = ()
    faults: Optional[FaultSpec] = None
    """The fault model (:mod:`repro.faults`).  ``None`` — the default,
    and what every pre-existing spec file parses to — means no fault
    machinery is even constructed: the zero-fault event sequence is
    byte-identical to a faultless build."""

    flow_update_interval_ns: float = 1000.0
    """Grid of the coarse-tick flow-level load updates: every
    ``fidelity="flow"`` window boundary is quantized onto this
    interval so boundaries batch into single scheduling operations.
    Irrelevant (and harmless) when every traffic entry is packet-level."""

    def __post_init__(self):
        if not self.name:
            raise ValueError("scenario needs a name")
        if len(self.nodes) < 2:
            raise ValueError("scenario needs at least two nodes")
        if not self.traffic:
            raise ValueError("scenario needs at least one traffic spec")
        if self.warmup_packets < 0:
            raise ValueError("warmup_packets must be >= 0")
        if self.flow_update_interval_ns <= 0:
            raise ValueError(
                f"flow_update_interval_ns must be positive, "
                f"got {self.flow_update_interval_ns}"
            )
        if self.fabric.kind != "clos" and any(
            traffic.fidelity == "flow" for traffic in self.traffic
        ):
            raise ValueError(
                "flow-fidelity traffic needs a clos fabric: the flow "
                "fast path injects load onto fabric links"
            )
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate node names: {names}")
        known = set(names)
        for index, traffic in enumerate(self.traffic):
            for endpoint in (*traffic.src, traffic.dst):
                if endpoint is not None and endpoint not in known:
                    raise ValueError(
                        f"traffic references unknown node {endpoint!r}"
                    )
            if traffic.kind in ("oneway", "incast") and traffic.dst in traffic.src:
                # A host-to-itself path crosses no link: a packet has no
                # first hop to transit and a flow window no link to load.
                raise ValueError(
                    f"traffic[{index}] ({traffic.kind}) sends from "
                    f"{traffic.dst!r} to itself"
                )
            for pair in traffic.locality_hosts.values():
                for endpoint in pair:
                    if endpoint not in known:
                        raise ValueError(
                            f"locality_hosts references unknown node {endpoint!r}"
                        )
        if self.faults is not None:
            for stall in self.faults.stalls:
                if stall.node not in known:
                    raise ValueError(
                        f"fault stall references unknown node {stall.node!r}"
                    )

    def node(self, name: str) -> NodeSpec:
        """The node spec called ``name``."""
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(name)

    # -- JSON round trip ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe rendering, versioned."""
        document = asdict(self)
        document["schema"] = SPEC_SCHEMA
        document["schema_version"] = SPEC_VERSION
        return _normalize(document)

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "ScenarioSpec":
        """Parse a spec document (inverse of :meth:`to_dict`)."""
        schema = document.get("schema", SPEC_SCHEMA)
        if schema != SPEC_SCHEMA:
            raise ValueError(f"not a scenario spec: schema={schema!r}")
        version = document.get("schema_version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ValueError(f"unsupported scenario-spec version: {version}")
        known = {f.name for f in fields(cls)}
        payload = {}
        for key, value in document.items():
            if key in ("schema", "schema_version"):
                continue
            if key not in known:
                raise ValueError(f"unknown ScenarioSpec field: {key!r}")
            payload[key] = value
        payload["nodes"] = tuple(
            _from_mapping(NodeSpec, node) for node in payload.get("nodes", ())
        )
        if "fabric" in payload:
            payload["fabric"] = _from_mapping(FabricSpec, payload["fabric"])
        payload["traffic"] = tuple(
            _from_mapping(TrafficSpec, traffic)
            for traffic in payload.get("traffic", ())
        )
        if payload.get("faults") is not None:
            payload["faults"] = FaultSpec.from_dict(payload["faults"])
        return cls(**payload)

    @classmethod
    def load(cls, path: str) -> "ScenarioSpec":
        """Read a spec from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def save(self, path: str) -> None:
        """Write the spec as pretty-printed JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    # -- canonical scenarios --------------------------------------------------

    @classmethod
    def two_node(
        cls,
        nic_kind: str,
        size_bytes: int,
        warm_packets: int = 1,
        packets: int = 1,
    ) -> "ScenarioSpec":
        """The trivial two-node scenario ``measure_one_way`` runs."""
        return cls(
            name=f"oneway-{nic_kind}-{size_bytes}",
            seed=0,
            warmup_packets=warm_packets,
            nodes=(
                NodeSpec(name="tx", nic_kind=nic_kind),
                NodeSpec(name="rx", nic_kind=nic_kind),
            ),
            fabric=FabricSpec(kind="direct"),
            traffic=(
                TrafficSpec(
                    kind="oneway",
                    packets=packets,
                    size_bytes=size_bytes,
                    src=("tx",),
                    dst="rx",
                    label="oneway",
                ),
            ),
        )


def _from_mapping(cls, document: Mapping[str, Any]):
    """Build a spec dataclass from a mapping, tupling list fields."""
    known = {f.name for f in fields(cls)}
    payload = {}
    for key, value in document.items():
        if key not in known:
            raise ValueError(f"unknown {cls.__name__} field: {key!r}")
        if isinstance(value, list):
            value = tuple(value)
        if key == "locality_hosts":
            value = {
                locality: tuple(pair) for locality, pair in dict(value).items()
            }
        payload[key] = value
    return cls(**payload)


def _normalize(value: Any) -> Any:
    """Tuples → lists so the document is plain JSON."""
    if isinstance(value, dict):
        return {key: _normalize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalize(item) for item in value]
    return value
