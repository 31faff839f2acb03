"""Network substrate: packets, Ethernet wire model, switches, clos fabric.

* :mod:`repro.net.packet` — the packet object (sizes, headers, latency
  breakdown accounting).
* :mod:`repro.net.link` — 40GbE wire model: serialization, MAC/PHY
  pipeline, propagation.
* :mod:`repro.net.switch` — per-hop switch latency model with optional
  finite-depth output queues (backpressure).
* :mod:`repro.net.topology` — the Facebook-style multi-tier clos fabric
  with traffic-locality path resolution used by the Fig. 12(a) trace
  replay.  Its ECMP route table comes from one breadth-first search per
  source ToR over the switch layer, spliced with the host endpoints and
  cached per topology; the fabric's structure is plain dicts and sets.
* :mod:`repro.net.fabric` — event-driven fabric instantiation: packets
  live-traverse one switch instance per topology node (the scenario
  layer's transport).

The package re-exports nothing, so the topology's vocabulary
(``Locality``, which the trace generators use) loads without the live
fabric.
"""

__all__ = []
