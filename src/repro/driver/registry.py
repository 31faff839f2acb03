"""The single NIC-kind registry.

The five evaluated configurations (Sec. 5.1): discrete PCIe NIC and
integrated NIC, each with and without zero-copy, plus NetDIMM.  The
experiment layer, the CLI, and the scenario layer all resolve NIC kinds
here.  Naming the kinds loads no node model — a scenario spec checks
its NIC kinds when it is parsed — so :func:`make_node` imports the
node classes on first use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.params import DEFAULT, SystemParams

if TYPE_CHECKING:
    from repro.driver.node import ServerNode
    from repro.sim import Simulator

NIC_KINDS = ("dnic", "dnic.zcpy", "inic", "inic.zcpy", "netdimm")
"""Registered configuration names, in registration order."""


def make_node(
    sim: Simulator,
    name: str,
    nic_kind: str,
    params: Optional[SystemParams] = None,
) -> ServerNode:
    """Instantiate a server node for one of the registered configurations."""
    if nic_kind not in NIC_KINDS:
        raise ValueError(
            f"unknown NIC kind: {nic_kind!r} (expected one of {NIC_KINDS})"
        )
    from repro.driver.host_nic import DiscreteNICNode, IntegratedNICNode
    from repro.driver.netdimm_node import NetDIMMNode

    params = params or DEFAULT
    if nic_kind == "netdimm":
        return NetDIMMNode(sim, name, params=params)
    interconnect, _, variant = nic_kind.partition(".")
    node_class = DiscreteNICNode if interconnect == "dnic" else IntegratedNICNode
    return node_class(sim, name, params=params, zero_copy=variant == "zcpy")
