"""The single NIC-kind registry.

One name → constructor mapping for the five evaluated configurations
(Sec. 5.1): discrete PCIe NIC and integrated NIC, each with and without
zero-copy, plus NetDIMM.  The experiment layer, the CLI, and the
scenario builder all resolve NIC kinds here, so adding a configuration
is a one-line change.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.driver.host_nic import DiscreteNICNode, IntegratedNICNode
from repro.driver.netdimm_node import NetDIMMNode
from repro.driver.node import ServerNode
from repro.params import DEFAULT, SystemParams
from repro.sim import Simulator

NodeFactory = Callable[[Simulator, str, SystemParams], ServerNode]

NIC_REGISTRY: Dict[str, NodeFactory] = {
    "dnic": lambda sim, name, params: DiscreteNICNode(
        sim, name, params=params, zero_copy=False
    ),
    "dnic.zcpy": lambda sim, name, params: DiscreteNICNode(
        sim, name, params=params, zero_copy=True
    ),
    "inic": lambda sim, name, params: IntegratedNICNode(
        sim, name, params=params, zero_copy=False
    ),
    "inic.zcpy": lambda sim, name, params: IntegratedNICNode(
        sim, name, params=params, zero_copy=True
    ),
    "netdimm": lambda sim, name, params: NetDIMMNode(sim, name, params=params),
}

NIC_KINDS = tuple(NIC_REGISTRY)
"""Registered configuration names, in registration order."""


def make_node(
    sim: Simulator,
    name: str,
    nic_kind: str,
    params: Optional[SystemParams] = None,
) -> ServerNode:
    """Instantiate a server node for one of the registered configurations."""
    factory = NIC_REGISTRY.get(nic_kind)
    if factory is None:
        raise ValueError(
            f"unknown NIC kind: {nic_kind!r} (expected one of {NIC_KINDS})"
        )
    return factory(sim, name, params or DEFAULT)
