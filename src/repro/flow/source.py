"""Flow-fidelity traffic: demand planning and the FlowSource component.

A ``fidelity="flow"`` traffic entry never becomes packets.
:func:`plan_flow_demands` expands it — with the *same* seeded RNG
stream its packet-level twin would use — into a handful of
:class:`FlowDemand` windows: (src, dst, byte rate, [start, end)).
:class:`FlowSource` then injects each window into the shared
:class:`~repro.flow.model.FlowLoadMap` with two coarse-tick batched
events (window start and end, quantized to the scenario's
``flow_update_interval_ns`` grid via
:meth:`repro.sim.Simulator.schedule_batch_at`), spreading the rate
evenly over the demand's ECMP paths the way per-packet ECMP hashing
would on average.  It never lists those paths: the topology's per-link
path counts (:meth:`repro.net.topology.ClosTopology.ecmp_link_counts`)
give each link its share of the rate, and at the window's end
:meth:`repro.flow.model.FlowModel.window_latency` prices all the paths
in one pass over the window's distinct links.

The whole lifetime of a thousand background flows is therefore a few
thousand events total — independent of packet count — while their load
still shapes packet-level foreground latency through the switch-queue
coupling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.flow.model import FlowLoadMap, FlowModel, LinkKey
from repro.runtime.seeds import derive
from repro.sim import Component, Simulator
from repro.units import ns

Shares = Tuple[int, int, Tuple[LinkKey, ...], Tuple[float, ...], Tuple[int, ...]]
"""A window's load: its ECMP path count, the links per path, the links
it crosses, sorted, the rate on each and how many paths cross each."""


@dataclass(frozen=True)
class FlowDemand:
    """One aggregate flow: a constant byte rate over a time window."""

    src: str
    dst: str
    """Node names (the builder maps them to topology hosts)."""

    packets: int
    """Offered packet count the rate represents (bookkeeping only)."""

    size_bytes: int
    rate: float
    """Offered load in framed (on-wire) bytes per tick."""

    start: int
    end: int
    """Window ticks relative to the measured phase start;
    ``end`` is exclusive and always > ``start``."""


def plan_flow_demands(
    traffic,
    index: int,
    node_names: Sequence[str],
    seed: int,
    params,
) -> List[FlowDemand]:
    """Expand one flow-fidelity :class:`~repro.scenario.spec.TrafficSpec`
    into aggregate demands.

    Deterministic, and seeded exactly like packet planning
    (``random.Random(derive(f"traffic[{index}]", seed))``), so
    re-fidelitying one traffic entry never perturbs any other entry's
    arrivals.  Rates are
    framed on-wire bytes (what the link actually carries); a kind's
    demand set mirrors its packet expansion: ``oneway`` is one demand,
    ``incast`` one per source at the per-source mean rate, ``uniform``
    splits the total rate over the sources with each source's
    destination drawn from the entry's RNG stream (the flow-level
    stand-in for per-packet destination draws).
    """
    rng = random.Random(derive(f"traffic[{index}]", seed))
    mean = max(1.0, ns(traffic.mean_interarrival_ns))
    framed = params.framed_bytes(traffic.size_bytes)
    rate = framed / mean
    demands: List[FlowDemand] = []
    if traffic.kind == "oneway":
        if not traffic.src or traffic.dst is None:
            raise ValueError("oneway traffic needs src and dst")
        duration = max(1, round(traffic.packets * mean))
        demands.append(
            FlowDemand(
                src=traffic.src[0],
                dst=traffic.dst,
                packets=traffic.packets,
                size_bytes=traffic.size_bytes,
                rate=rate,
                start=0,
                end=duration,
            )
        )
    elif traffic.kind == "incast":
        if traffic.dst is None:
            raise ValueError("incast traffic needs dst")
        sources = list(traffic.src) or [
            name for name in node_names if name != traffic.dst
        ]
        if not sources:
            raise ValueError("incast traffic has no sources")
        duration = max(1, round(traffic.packets * mean))
        for src in sources:
            demands.append(
                FlowDemand(
                    src=src,
                    dst=traffic.dst,
                    packets=traffic.packets,
                    size_bytes=traffic.size_bytes,
                    rate=rate,
                    start=0,
                    end=duration,
                )
            )
    elif traffic.kind == "uniform":
        sources = list(traffic.src) or list(node_names)
        if len(node_names) < 2:
            raise ValueError("uniform traffic needs at least two nodes")
        duration = max(1, round(traffic.packets * mean))
        base, extra = divmod(traffic.packets, len(sources))
        position = {name: k for k, name in enumerate(node_names)}
        for src_index, src in enumerate(sources):
            skip = position.get(src)
            if skip is None:
                dst = rng.choice(node_names)
            else:
                # The draw a choice over the names other than src would
                # make: it depends only on the candidate count, so pick
                # an index among n-1 and step over src's position.
                pick = rng.choice(range(len(node_names) - 1))
                dst = node_names[pick + (pick >= skip)]
            packets = base + (1 if src_index < extra else 0)
            if packets == 0:
                continue
            demands.append(
                FlowDemand(
                    src=src,
                    dst=dst,
                    packets=packets,
                    size_bytes=traffic.size_bytes,
                    rate=rate / len(sources),
                    start=0,
                    end=duration,
                )
            )
    else:  # trace — rejected at spec validation, guarded here too
        raise ValueError(
            f"traffic kind {traffic.kind!r} cannot run at flow fidelity"
        )
    return demands


class FlowSource(Component):
    """Injects one traffic entry's aggregate demands onto the fabric."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        fabric,
        placement: Dict[str, str],
        demands: Sequence[FlowDemand],
        group: str,
        update_interval: int,
        uid_base: int,
        on_window_done: Optional[Callable[[], None]] = None,
    ):
        super().__init__(sim, name)
        self.fabric = fabric
        self.placement = placement
        self.demands = tuple(demands)
        self.group = group
        if update_interval <= 0:
            raise ValueError(
                f"update_interval must be positive, got {update_interval}"
            )
        self.update_interval = update_interval
        self.uid_base = uid_base
        """Synthetic (negative) tracer uid of demand 0; packet uids are
        plan indices >= 0, so flow spans can never collide with them."""

        self.on_window_done = on_window_done
        self.load: FlowLoadMap = fabric.enable_flow_coupling()
        self.model = FlowModel(
            fabric.params, fabric.topology.wan_links, self.load
        )
        # Per-group accumulators, filled at window deactivation.
        self._offered_packets = 0
        self._offered_bytes = 0
        self._latency_weight = 0.0
        self._latency_sum = 0.0
        self._peak = 0.0
        self._span_start: Optional[int] = None
        self._span_end = 0

    # -- scheduling -----------------------------------------------------------

    def _quantize(self, demand: FlowDemand) -> Tuple[int, int]:
        """Window ticks on the update grid: start rounds down, end
        rounds up, so the activation never underlaps the demand."""
        grid = self.update_interval
        start = (demand.start // grid) * grid
        end = -(-demand.end // grid) * grid
        if end <= start:
            end = start + grid
        return start, end

    def _link_shares(self, demand: FlowDemand, interned: Dict[tuple, tuple]) -> Shares:
        """The demand's rate spread evenly over its ECMP paths, from the
        topology's per-link path counts.

        A link crossed by ``count`` paths carries ``per_path`` added
        ``count`` times from 0.0 — the float a per-path accumulation
        makes, bit for bit.  Link keys, count tuples and rate tuples are
        taken from ``interned`` (one dict for the whole source), so the
        thousands of windows that cross one uplink share its key, and
        the windows with one count pattern and one per-path rate share
        their two tuples.
        """
        paths, hops, counts = self.fabric.topology.ecmp_link_counts(
            self.placement[demand.src], self.placement[demand.dst]
        )
        links = sorted(counts)
        by_link = tuple([counts[link] for link in links])
        by_link = interned.setdefault(by_link, by_link)
        per_path = demand.rate / paths
        rates = interned.get((per_path, by_link))
        if rates is None:
            spread = []
            for count in by_link:
                rate = 0.0
                for _ in range(count):
                    rate += per_path
                spread.append(rate)
            rates = interned[(per_path, by_link)] = tuple(spread)
        return (
            paths,
            hops,
            tuple([interned.setdefault(link, link) for link in links]),
            rates,
            by_link,
        )

    def install(self, start_tick: int) -> int:
        """Schedule every window boundary; returns the window count.

        All boundaries landing on one grid tick go in as one
        ``schedule_batch_at`` call — the coarse-tick flow update the
        hybrid fast path is built on.
        """
        boundaries: Dict[int, List[Tuple[Callable, tuple]]] = {}
        interned: Dict[tuple, tuple] = {}
        tracer = self.sim.tracer
        for k, demand in enumerate(self.demands):
            start, end = self._quantize(demand)
            shares = self._link_shares(demand, interned)
            uid = self.uid_base - k
            if tracer is not None:
                tracer.track(
                    uid, f"{self.group}/{demand.src}->{demand.dst} ~flow"
                )
            boundaries.setdefault(start_tick + start, []).append(
                (self._activate, (demand, shares))
            )
            boundaries.setdefault(start_tick + end, []).append(
                (self._deactivate, (demand, shares, uid, start_tick + start))
            )
        for tick in sorted(boundaries):
            self.sim.schedule_batch_at(tick, boundaries[tick])
        return len(self.demands)

    # -- window boundaries ----------------------------------------------------

    def _sample_links(self, shares: Shares) -> None:
        tracer = self.sim.tracer
        if tracer is None:
            return
        now = self.sim.now
        load = self.load
        for link in shares[2]:
            tracer.counter(
                f"{self.name}.{link[0]}->{link[1]}.utilization",
                now,
                round(load.utilization(link), 6),
            )

    def _activate(self, demand: FlowDemand, shares: Shares) -> None:
        load = self.load
        _, _, links, rates, _ = shares
        for link, rate in zip(links, rates):
            load.add(link, rate)
        peak = max(load.utilization(link) for link in links)
        if peak > self._peak:
            self._peak = peak
        self.stats.count("windows_active")
        self._sample_links(shares)

    def _deactivate(self, demand: FlowDemand, shares: Shares, uid, started) -> None:
        # Price the demand while its own load is still on the links —
        # flow traffic sees the congestion it participates in.
        paths, hops, links, rates, counts = shares
        latency = (
            self.model.window_latency(paths, hops, links, counts, demand.size_bytes)
            / paths
        )
        self._offered_packets += demand.packets
        self._offered_bytes += demand.packets * demand.size_bytes
        self._latency_sum += latency * demand.packets
        self._latency_weight += demand.packets
        if self._span_start is None or started < self._span_start:
            self._span_start = started
        if self.sim.now > self._span_end:
            self._span_end = self.sim.now
        load = self.load
        for link, rate in zip(links, rates):
            load.remove(link, rate)
        self._sample_links(shares)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.add(
                uid,
                f"{self.group}/{demand.src}->{demand.dst}",
                "flowload",
                started,
                self.sim.now,
                {
                    "packets": demand.packets,
                    "rate_gbps": round(demand.rate * 8000.0, 3),
                },
            )
        if self.on_window_done is not None:
            self.on_window_done()

    # -- results --------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Per-group flow summary for the scenario artifact (schema v4)."""
        mean_latency_us = (
            self._latency_sum / self._latency_weight / 1e6
            if self._latency_weight
            else 0.0
        )
        return {
            "demands": len(self.demands),
            "offered_packets": self._offered_packets,
            "offered_bytes": self._offered_bytes,
            "duration_us": round(
                (self._span_end - self._span_start) / 1e6, 6
            )
            if self._span_start is not None
            else 0.0,
            "mean_rate_gbps": round(
                sum(demand.rate for demand in self.demands) * 8000.0, 6
            ),
            "fabric_latency_us": round(mean_latency_us, 6),
            "peak_utilization": round(self._peak, 6),
        }
