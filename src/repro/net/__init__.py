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
  cached per topology; networkx only holds the graph for structural
  checks.
* :mod:`repro.net.fabric` — event-driven fabric instantiation: packets
  live-traverse one switch instance per topology node (the scenario
  layer's transport).
"""

from repro.net.fabric import ClosFabric, DirectFabric
from repro.net.link import EthernetWire
from repro.net.packet import Breakdown, Packet, TCP_IP_HEADER_BYTES
from repro.net.switch import Switch
from repro.net.topology import ClosTopology, Locality

__all__ = [
    "Breakdown",
    "ClosFabric",
    "ClosTopology",
    "DirectFabric",
    "EthernetWire",
    "Locality",
    "Packet",
    "Switch",
    "TCP_IP_HEADER_BYTES",
]
