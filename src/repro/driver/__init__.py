"""Driver / software-stack models.

The paper evaluates latency with bare-metal drivers that "resemble
low-latency userspace drivers" (Sec. 5.1).  This package models those
drivers as simulation processes that issue the same sequence of
operations a real driver would — copies, flushes, register accesses,
descriptor production, DMA kicks, poll reads — against the hardware
models, charging each operation to its Fig. 11 breakdown segment.

* :mod:`repro.driver.skb` — socket buffers, sockets, and the
  COPY_NEEDED / skb_zone mechanics of Sec. 4.2.2.
* :mod:`repro.driver.polling` — the poll-detection cost.
* :mod:`repro.driver.node` — the abstract server-node interface.
* :mod:`repro.driver.host_nic` — the host-memory driver both baselines
  run (``HostNICNode``: SKB copy or zero-copy pinning, status read and
  tail doorbells, RX DMA into the LLC and an LLC-priced copy-out), with
  the discrete PCIe NIC (dNIC) and the CPU-integrated NIC (iNIC) as its
  three interconnect hooks.
* :mod:`repro.driver.netdimm_node` — the NetDIMM driver (Alg. 1).
* :mod:`repro.driver.registry` — the NIC-kind names and
  :func:`~repro.driver.registry.make_node`.

The package re-exports nothing, so importing the registry (a scenario
spec checks NIC kinds against it) loads no node model.
"""

__all__ = []
