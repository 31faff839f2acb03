"""The host-memory NIC driver shared by the dNIC and the iNIC.

Both baselines of Fig. 1 (left and middle; Sec. 2.1, 3 and 5.1) run the
same driver: the TX path copies the SKB into a DMA buffer (or, with
``zero_copy=True``, pins the application buffer and pays per-packet
pinning bookkeeping instead — the dNIC.zcpy / iNIC.zcpy configurations
of Fig. 4 and their Sec. 3 caveats), reads the NIC's status register and
rings the tail doorbell; the RX path DMAs the payload into the LLC,
waits for the poll (or IRQ), returns the descriptor and copies the
payload out at LLC rate (:meth:`ServerNode.copy_cost_llc`).
:class:`HostNICNode` writes that driver once.  The two configurations
differ only in how the NIC reaches the host, and each supplies that as
hooks:

* :class:`DiscreteNICNode` — a NIC behind a PCIe Gen4 x8 link.  Status
  reads, doorbells, descriptor fetches, payload DMA and the descriptor
  writeback are PCIe transactions.
* :class:`IntegratedNICNode` — a NIC on the processor die.  Register
  accesses cost tens of cycles, and DMA moves data between the NIC and
  the LLC over the on-die fabric.

The driver keeps no cache state: every RX copy reads LLC-resident
lines.  DMA leakage — RX lines evicted from the LLC's I/O slice before
the CPU reads them, the iNIC's L3 limitation — is modelled once, by the
Fig. 12(b) replay in :mod:`repro.experiments.fig12b`.
"""

from __future__ import annotations

from typing import Optional

from repro.dram.controller import MemoryController
from repro.driver.node import ServerNode, Stopwatch
from repro.mem.allocator import PageAllocator
from repro.mem.zones import MemoryZone, ZoneKind
from repro.net.packet import Packet
from repro.nic.descriptor import Descriptor, DescriptorRing
from repro.nic.registers import OnDieRegisterFile, PCIeRegisterFile
from repro.params import SystemParams
from repro.pcie.link import PCIeLink
from repro.sim import Simulator
from repro.units import mib


class HostNICNode(ServerNode):
    """One server whose NIC DMAs into host memory through the LLC.

    Subclasses provide the interconnect hooks :meth:`_build_interconnect`,
    :meth:`_tx_dma` and :meth:`_rx_dma`.
    """

    label = "abstract"
    """The Fig. 4 configuration label; zero-copy nodes append ``.zcpy``."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        params: Optional[SystemParams] = None,
        zero_copy: bool = False,
    ):
        super().__init__(sim, name, params=params)
        self.zero_copy = zero_copy
        self.host_mc = MemoryController(sim, f"{name}.mc0", self.params.host_dram)
        self._build_interconnect()
        zone = MemoryZone(name="ZONE_NORMAL", kind=ZoneKind.NORMAL, base=0, size=mib(64))
        self.allocator = PageAllocator(zone)
        self.tx_ring = DescriptorRing(size=256, base_address=self.allocator.alloc_page())
        self.rx_ring = DescriptorRing(size=256, base_address=self.allocator.alloc_page())

    @property
    def nic_label(self) -> str:
        """The Fig. 4 configuration label."""
        return f"{self.label}.zcpy" if self.zero_copy else self.label

    # -- interconnect hooks ------------------------------------------------------

    def _build_interconnect(self) -> None:
        """Build ``self.regs`` and whatever carries the NIC's DMA."""
        raise NotImplementedError

    def _tx_dma(self, packet: Packet):
        """The NIC fetches the TX descriptor and DMA-reads the payload
        (``yield from`` this)."""
        raise NotImplementedError

    def _rx_dma(self, packet: Packet, dma_buffer: int):
        """The NIC fetches an RX descriptor, writes the payload into the
        LLC and writes the status back (``yield from`` this); returns the
        ring index."""
        raise NotImplementedError

    # -- TX path (T1–T3; T4 is the wire) ----------------------------------------

    def _transmit_body(self, packet: Packet):
        software = self.params.software
        watch = Stopwatch(self.sim, packet)

        # T1 @driver: transmit function entry + buffer preparation.
        yield software.tx_setup
        packet.app_address = self.allocator.alloc_page()
        dma_buffer = None
        if self.zero_copy:
            # The NIC DMA-reads the pinned application buffer directly.
            yield software.zero_copy_pin_cost
            packet.dma_address = packet.app_address
        else:
            dma_buffer = self.allocator.alloc_page()
            yield self.copy_cost(packet.size_bytes)
            packet.dma_address = dma_buffer
        watch.lap("txCopy")

        # T1/T2 @driver: check NIC state, produce descriptor, ring doorbell.
        yield from self.regs.read("tx_status")
        index = self.tx_ring.produce(packet.dma_address, packet.size_bytes, cookie=packet)
        yield from self.regs.write("tx_tail", index)
        watch.lap("ioreg")

        # T3 @NIC: descriptor fetch + payload DMA read.
        yield self.params.nic.dma_setup
        yield from self._tx_dma(packet)
        self.tx_ring.consume()
        watch.lap("txDMA")

        self.allocator.free_page(packet.app_address)
        if dma_buffer is not None:
            self.allocator.free_page(dma_buffer)
        self.stats.count("tx_packets")
        return packet

    # -- RX path (R1–R5; R0 is the wire) ------------------------------------------

    def _receive_body(self, packet: Packet):
        software = self.params.software
        nic = self.params.nic
        watch = Stopwatch(self.sim, packet)

        # MAC pipeline, then R1–R3 @NIC: descriptor fetch, payload DMA
        # into the LLC, descriptor status writeback.
        yield nic.mac_rx_pipeline
        yield nic.dma_setup
        dma_buffer = self.allocator.alloc_page()
        index = yield from self._rx_dma(packet, dma_buffer)
        packet.dma_address = dma_buffer
        watch.lap("rxDMA")

        # R4 @driver: the polling agent (or IRQ) notices the status
        # writeback; the descriptor returns to the NIC (tail update).
        yield from self.rx_notification_gate(packet, nic.host_poll_read)
        self.rx_ring.consume()
        yield from self.regs.write("rx_tail", index)
        watch.lap("ioreg")

        # R5 @driver: SKB creation + payload copy to application space.
        # The copy reads LLC-resident lines at LLC latency.
        yield software.rx_skb_alloc
        app_page = None
        if self.zero_copy:
            yield software.zero_copy_pin_cost
            packet.app_address = packet.dma_address
        else:
            app_page = self.allocator.alloc_page()
            packet.app_address = app_page
            yield self.copy_cost_llc(packet.size_bytes)
        watch.lap("rxCopy")

        self.allocator.free_page(dma_buffer)
        if app_page is not None:
            self.allocator.free_page(app_page)
        self.stats.count("rx_packets")
        return packet


class DiscreteNICNode(HostNICNode):
    """One server with a PCIe-attached 40GbE NIC."""

    nic_kind = "dnic"
    label = "dNIC"

    def _build_interconnect(self) -> None:
        self.pcie = PCIeLink(self.sim, f"{self.name}.pcie", self.params.pcie)
        self.regs = PCIeRegisterFile(self.sim, f"{self.name}.regs", self.pcie)

    def _tx_dma(self, packet: Packet):
        # The payload is pulled line by line: one full round trip for
        # the first cacheline, then the pipelined per-line costs.
        yield self.pcie.read(Descriptor.DESCRIPTOR_BYTES)
        yield self.pcie.read(min(packet.size_bytes, 64))
        yield self.pcie.dma_pipeline_extra(packet.size_bytes)

    def _rx_dma(self, packet: Packet, dma_buffer: int):
        yield self.pcie.read(Descriptor.DESCRIPTOR_BYTES)
        index = self.rx_ring.produce(dma_buffer, packet.size_bytes, cookie=packet)
        yield self.pcie.posted_write(min(packet.size_bytes, 64), toward_device=False)
        yield self.pcie.dma_pipeline_extra(packet.size_bytes)
        yield self.pcie.posted_write(Descriptor.DESCRIPTOR_BYTES, toward_device=False)
        return index

    def pcie_overhead_estimate(self, size_bytes: int) -> int:
        """The PCIe-protocol share of one packet's TX+RX host latency.

        Counts latency that exists *only because* the NIC sits behind
        PCIe: the register-read round trip, doorbell issue, descriptor
        fetch round trips, per-transaction propagation/completion, and
        TLP header serialization — i.e. what an on-die NIC would not pay.
        Used for the ``pcie.overh`` series of Fig. 4.
        """
        link = self.pcie
        per_read_protocol = (
            link.tlp.header_serialization_ticks()
            + 2 * link.params.propagation
            + link.params.completion_overhead
        )
        overhead = link.mmio_read_latency()  # TX status register read
        overhead += 2 * link.params.doorbell_write_cost  # TX + RX tail writes
        overhead += 2 * per_read_protocol  # TX desc fetch + RX desc fetch
        overhead += per_read_protocol  # TX payload DMA read round trip
        overhead += link.params.propagation  # RX payload delivery traversal
        # TLP segmentation overhead on the payload in both directions.
        payload_overhead_bytes = 2 * (
            link.tlp.wire_bytes(size_bytes) - size_bytes
        )
        overhead += round(payload_overhead_bytes / link.tlp.raw_bytes_per_ps)
        return overhead


class IntegratedNICNode(HostNICNode):
    """One server with an on-die 40GbE NIC that DMAs into the LLC."""

    nic_kind = "inic"
    label = "iNIC"

    def _build_interconnect(self) -> None:
        self.regs = OnDieRegisterFile(
            self.sim,
            f"{self.name}.regs",
            access_latency=self.params.nic.inic_register_latency,
        )

    def _fabric_dma(self, size_bytes: int) -> int:
        """Coherent-fabric DMA time: snoop + slice hop per line, pipelined.

        The first lines pay full fabric latency; once the stream is
        primed, lines flow at the on-die steady rate.
        """
        nic = self.params.nic
        lines = max(1, -(-size_bytes // 64))
        initial = min(lines, nic.inic_line_breakpoint)
        steady = lines - initial
        return initial * nic.inic_line_cost + steady * nic.inic_line_cost_steady

    def _tx_dma(self, packet: Packet):
        # The descriptor ring and the freshly written packet buffer are
        # LLC-resident (the CPU just wrote them), so the NIC pulls both
        # over the on-die fabric.  A zero-copy application buffer is not
        # guaranteed LLC-resident, so it is read from DRAM.
        yield self.params.nic.inic_desc_fetch
        if self.zero_copy:
            yield self.host_mc.read(packet.dma_address, packet.size_bytes)
        else:
            yield self._fabric_dma(packet.size_bytes)

    def _rx_dma(self, packet: Packet, dma_buffer: int):
        nic = self.params.nic
        yield nic.inic_desc_fetch
        index = self.rx_ring.produce(dma_buffer, packet.size_bytes, cookie=packet)
        yield self._fabric_dma(packet.size_bytes)
        yield nic.inic_desc_fetch  # status writeback
        return index
