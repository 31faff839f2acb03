"""Analytical link-load and latency model for flow-fidelity traffic.

:class:`FlowLoadMap` holds the aggregate background utilization of
every directed fabric link, updated at coarse window boundaries by
:class:`~repro.flow.source.FlowSource`.  The packet-level models
(:class:`~repro.net.switch.Switch`, the
:class:`~repro.net.fabric.ClosFabric` host uplink) read it back as an
M/D/1 mean queueing delay per forwarded frame — the occupancy term that
couples flow-level load into packet-level latency.

:class:`FlowModel` prices the flow-level traffic itself: the same
per-hop constants as :meth:`repro.net.topology.ClosTopology.path_latency`
(the ``fig12a`` ``mode="analytical"`` math — switch pipeline + egress
serialization + propagation per hop, WAN propagation on the inter-DC
edge), plus the queueing delay each loaded link adds.  It prices a
whole window in one pass over the window's distinct links:
:meth:`FlowModel.window_latency` takes the ECMP path count, the links
per path and how many paths cross each link
(:meth:`repro.net.topology.ClosTopology.ecmp_link_counts`), never a
list of paths.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, List, Tuple

from repro.net.topology import INTER_DC_WAN_PROPAGATION
from repro.params import NetworkParams
from repro.units import transfer_time

LinkKey = Tuple[str, str]
"""A directed topology link: ``(node, next_hop)`` names."""

RHO_CAP = 0.97
"""Utilization ceiling for the queueing-delay term.  The M/D/1 mean
wait diverges as ρ → 1; offered load beyond the cap (the fabric is
saturated — flow arithmetic cannot say by how much, only that it is)
is clamped so coupling stays finite, and counted in ``overloads``."""


class FlowLoadMap:
    """Aggregate flow-level utilization per directed fabric link.

    ``queue_wait`` is the hot read — one dict probe per switch hop of a
    packet-level flow — so the map stores the precomputed utilization
    fraction ρ (offered bytes/tick over link capacity), not raw rates.
    """

    __slots__ = ("capacity", "peak", "overloads", "_rho")

    def __init__(self, link_bytes_per_ps: float):
        if link_bytes_per_ps <= 0:
            raise ValueError(
                f"link capacity must be positive, got {link_bytes_per_ps}"
            )
        self.capacity = float(link_bytes_per_ps)
        self.peak = 0.0
        """Highest (unclamped) per-link utilization ever offered."""

        self.overloads = 0
        """Number of ``add`` calls that pushed a link past ``RHO_CAP``."""

        self._rho: Dict[LinkKey, float] = {}

    def add(self, link: LinkKey, rate_bytes_per_tick: float) -> None:
        """Offer ``rate_bytes_per_tick`` more load onto ``link``."""
        rho = self._rho.get(link, 0.0) + rate_bytes_per_tick / self.capacity
        self._rho[link] = rho
        if rho > self.peak:
            self.peak = rho
        if rho > RHO_CAP:
            self.overloads += 1

    def remove(self, link: LinkKey, rate_bytes_per_tick: float) -> None:
        """Withdraw load offered by :meth:`add` (same rate, same link)."""
        rho = self._rho.get(link, 0.0) - rate_bytes_per_tick / self.capacity
        if rho > 1e-12:
            self._rho[link] = rho
        else:
            # Float residue from add/remove round trips must not leave
            # phantom load behind; an empty link reads exactly 0.
            self._rho.pop(link, None)

    def utilization(self, link: LinkKey) -> float:
        """Current offered utilization fraction of ``link`` (may exceed 1)."""
        return self._rho.get(link, 0.0)

    def loaded_links(self) -> List[LinkKey]:
        """Links carrying nonzero flow-level load, sorted."""
        return sorted(self._rho)

    def queue_wait(self, link: LinkKey, serialization: int) -> int:
        """Mean queueing delay (ticks) a frame sees on ``link``.

        M/D/1 mean wait for deterministic service time ``serialization``
        under Poisson background load ρ: ``W = S·ρ / 2(1−ρ)``.  Zero
        when the link carries no flow-level load, so an unloaded hybrid
        scenario adds zero delay — and zero events — to the packet path.
        """
        rho = self._rho.get(link)
        if not rho:
            return 0
        if rho > RHO_CAP:
            rho = RHO_CAP
        return int(serialization * rho / (2.0 * (1.0 - rho)))


class FlowModel:
    """Analytical end-to-end latency for flow-fidelity traffic.

    Reuses the ``fig12a`` ``mode="analytical"`` per-hop math: each
    switch hop costs the switch pipeline + egress serialization of the
    framed packet + cable propagation, the inter-DC edge-to-edge link
    adds the WAN propagation, and — beyond the zero-load closed form —
    every link adds the M/D/1 queueing delay of the current load map,
    so flow-level traffic prices the congestion it (and everything
    else) creates.  Host-side (NIC/driver) latency is out of scope:
    flow fidelity models the fabric, not the endpoints under study.
    """

    def __init__(
        self,
        params: NetworkParams,
        wan_links: AbstractSet[LinkKey],
        load: FlowLoadMap,
    ):
        self.params = params
        self.wan_links = wan_links
        """The inter-DC links that add the WAN propagation
        (:attr:`repro.net.topology.ClosTopology.wan_links`)."""

        self.load = load
        self._serialization_cache: Dict[int, int] = {}

    def serialization(self, size_bytes: int) -> int:
        """Egress serialization of the framed packet (ticks)."""
        ticks = self._serialization_cache.get(size_bytes)
        if ticks is None:
            ticks = transfer_time(
                self.params.framed_bytes(size_bytes),
                self.params.link_bytes_per_ps,
            )
            self._serialization_cache[size_bytes] = ticks
        return ticks

    def window_latency(
        self,
        paths: int,
        hops: int,
        links: Iterable[LinkKey],
        counts: Iterable[int],
        size_bytes: int,
    ) -> int:
        """One-way fabric latency under the current load, summed over
        ``paths`` equal-cost host-to-host paths of ``hops`` links each.

        ``links`` are the directed links the paths cross and ``counts``
        how many of the paths cross each one.  Every path pays both NIC
        MAC/PHY endpoints, serialization + propagation on each link and
        the switch pipeline at each of its ``hops - 1`` switches, so its
        price matches what a packet-level transit of it measures at
        matching load; each link adds its queue wait, and the inter-DC
        edge-to-edge link the WAN propagation, once per path crossing
        it.  One path is ``paths=1`` with unit counts.  The integer sum
        equals the sum of the per-path prices exactly.
        """
        params = self.params
        serialization = self.serialization(size_bytes)
        total = paths * (
            2 * params.mac_phy_latency
            + hops * (serialization + params.propagation)
            + (hops - 1) * params.switch_latency
        )
        queue_wait = self.load.queue_wait
        wan_links = self.wan_links
        for link, count in zip(links, counts):
            extra = queue_wait(link, serialization)
            if link in wan_links:
                extra += INTER_DC_WAN_PROPAGATION
            total += count * extra
        return total
