"""The NetDIMM node: driver + device, implementing Alg. 1 (Sec. 4.2.2).

The packet path differs from a PCIe/integrated NIC in four ways:

1. **No PCIe.**  Register accesses and notifications travel the memory
   channel with the NVDIMM-P asynchronous protocol.
2. **Flush/invalidate instead of implicit coherence.**  The host's
   caches and NetDIMM-local DRAM are kept coherent explicitly: TX data
   is flushed to the DIMM (``txFlush``), RX descriptors/buffers are
   invalidated before reading fresh data (``rxInvalidate``).
3. **allocCache + zone affinity.**  DMA buffers come from the
   pre-allocated per-sub-array pool, hinted by the peer buffer's
   address so clones run in RowClone FPM mode.
4. **In-memory cloning instead of CPU copies.**  RX data moves from the
   DMA buffer to the application buffer by ``netdimmClone`` inside the
   DRAM; only the header cacheline ever crosses to the CPU during
   protocol processing, served from nCache.

The first packets of a connection (or zone-exhaustion fallbacks) carry
``COPY_NEEDED`` and take the slow path: a CPU copy into a NetDIMM DMA
buffer, after which the socket learns its zone (``skb_zone``) and later
packets go fast-path.
"""

from __future__ import annotations

from typing import Optional

from repro.core.netdimm import NetDIMMDevice
from repro.dram.controller import MemoryController
from repro.dram.geometry import DRAMGeometry
from repro.dram.nvdimmp import AsyncMemoryPort
from repro.driver.node import ServerNode, Stopwatch
from repro.driver.skb import Socket, allocate_tx_skb
from repro.mem.alloc_cache import AllocCache
from repro.mem.allocator import OutOfMemoryError, PageAllocator
from repro.mem.zones import MemoryZone, ZoneKind
from repro.net.packet import Packet
from repro.nic.descriptor import DescriptorRing
from repro.nic.registers import MemoryChannelRegisterFile
from repro.params import SystemParams
from repro.sim import Simulator
from repro.units import CACHELINE, mib


class NetDIMMNode(ServerNode):
    """One server whose 40GbE NIC lives in a NetDIMM's buffer device."""

    nic_kind = "netdimm"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        params: Optional[SystemParams] = None,
        use_subarray_hint: bool = True,
        use_alloc_cache: bool = True,
    ):
        super().__init__(sim, name, params=params)
        self.use_subarray_hint = use_subarray_hint
        """Ablation switch: pass the DMA-buffer hint to allocations (off
        means clones degrade from FPM to PSM/GCM)."""
        self.use_alloc_cache = use_alloc_cache
        """Ablation switch: use the allocCache pool (off means every DMA
        buffer allocation walks the slow page-allocator path)."""
        geometry = DRAMGeometry()
        self.host_mc = MemoryController(sim, f"{name}.mc0", self.params.host_dram)
        # The NET zone sits above the host's 64 MiB ZONE_NORMAL.
        net_zone = MemoryZone(
            name="NET0",
            kind=ZoneKind.NET,
            base=mib(64),
            size=geometry.capacity_bytes,
            netdimm_index=0,
        )
        self.net_zone = net_zone
        self.device = NetDIMMDevice(
            sim, f"{name}.netdimm", self.params, geometry, zone_base=net_zone.base
        )
        self.port = AsyncMemoryPort(
            sim,
            f"{name}.port",
            self.device,
            timing=self.params.netdimm_dram,
            protocol=self.params.nvdimmp,
        )
        self.regs = MemoryChannelRegisterFile(
            sim,
            f"{name}.regs",
            timing=self.params.netdimm_dram,
            protocol=self.params.nvdimmp,
            ncontroller_latency=self.params.netdimm.ncontroller_latency,
        )
        self.allocator = PageAllocator(net_zone, geometry)
        self.alloc_cache = AllocCache(
            sim,
            f"{name}.alloccache",
            self.allocator,
            refill_latency=self.params.software.alloc_pages_slow,
        )
        # Descriptor rings live on the NetDIMM zone (Sec. 4.2.2:
        # "__alloc_netdimm_pages(zone_i, -1) to allocate descriptor ring
        # data structures").
        self.tx_ring = DescriptorRing(size=256, base_address=self.allocator.alloc_page())
        self.rx_ring = DescriptorRing(size=256, base_address=self.allocator.alloc_page())

    @property
    def nic_label(self) -> str:
        """The Fig. 11 configuration label."""
        return "NetDIMM"

    # -- allocation helpers (honoring the ablation switches) ----------------------

    def _alloc_dma_page(self, hint: Optional[int]):
        """Allocate a DMA page; returns ``(address, fast)``."""
        if not self.use_subarray_hint:
            hint = None
        if self.use_alloc_cache:
            return self.alloc_cache.get(hint=hint)
        return self.allocator.alloc_page(hint=hint), False

    def _release_dma_page(self, address: int) -> None:
        if self.use_alloc_cache:
            self.alloc_cache.put(address)
        else:
            self.allocator.free_page(address)

    # -- TX path (Alg. 1 lines 1–10) -----------------------------------------------

    def _transmit_body(self, packet: Packet):
        software = self.params.software
        watch = Stopwatch(self.sim, packet)
        socket = self._socket_for(packet)

        yield software.tx_setup
        skb = allocate_tx_skb(socket, packet.size_bytes)
        dma_page = None
        take_slow_path = skb.copy_needed
        if not take_slow_path:
            # Fast path: the SKB data lives on the NetDIMM zone and is
            # transmitted in place (line 8) — unless the zone is
            # exhausted, in which case COPY_NEEDED doubles as the
            # fallback (Sec. 4.2.2: "COPY_NEEDED flag is also used as a
            # fallback mechanism in case the memory space on a NETi zone
            # is exhausted").
            try:
                skb.data_address = self.allocator.alloc_page()
            except OutOfMemoryError:
                take_slow_path = True
                skb.copy_needed = True
                skb.zone_name = "ZONE_NORMAL"
                self.stats.count("tx_zone_exhausted_fallback")
        if take_slow_path:
            # Slow path: SKB data is off-zone; allocate a NetDIMM DMA
            # buffer (Alg. 1 line 2) and copy into it (line 4), then
            # teach the socket its zone (line 5).
            dma_page, fast = self._alloc_dma_page(hint=None)
            yield software.alloc_cache_hit if fast else software.alloc_pages_slow
            yield self.copy_cost(packet.size_bytes)
            socket.skb_zone = self.net_zone.name
            packet.dma_address = dma_page
            self.stats.count("tx_slow_path")
        else:
            packet.dma_address = skb.data_address
            self.stats.count("tx_fast_path")
        packet.copy_needed = skb.copy_needed
        packet.app_address = skb.data_address or packet.dma_address
        watch.lap("txCopy")

        # Flush the packet data out of the CPU caches to the DIMM
        # (lines 6/8): CPU flush cost + the dirty lines crossing the
        # host memory channel into NetDIMM-local DRAM.
        yield self.flush_cost(packet.size_bytes)
        yield self.port.write(packet.dma_address, packet.size_bytes)
        watch.lap("txFlush")

        # Lines 9–10: fill size+flags in the descriptor and flush that
        # one line — the flush doubles as the doorbell.
        index = self.tx_ring.produce(packet.dma_address, packet.size_bytes, cookie=packet)
        desc_address = self.tx_ring.descriptor_address(index)
        yield self.flush_cost(CACHELINE)
        yield self.port.write(desc_address, CACHELINE)
        watch.lap("ioreg")

        # nController DMA: descriptor fetch + payload read, all on-DIMM.
        yield self.device.nic_transmit_dma(packet.dma_address, packet.size_bytes, desc_address)
        self.tx_ring.consume()
        watch.lap("txDMA")

        if dma_page is not None:
            self._release_dma_page(dma_page)
        else:
            self.allocator.free_page(skb.data_address)
        socket.packets_sent += 1
        self.stats.count("tx_packets")
        return packet

    # -- RX path (Alg. 1 lines 11–15) --------------------------------------------------

    def _receive_body(self, packet: Packet):
        software = self.params.software
        netdimm = self.params.netdimm
        watch = Stopwatch(self.sim, packet)

        # The RX DMA buffer was pre-posted in the ring from the
        # allocCache (refilled off the critical path).
        dma_buffer, _fast = self._alloc_dma_page(hint=None)
        index = self.rx_ring.produce(dma_buffer, packet.size_bytes, cookie=packet)
        desc_address = self.rx_ring.descriptor_address(index)

        # nNIC MAC + nController deposit into local DRAM (R1–R3),
        # header cacheline mirrored into nCache.
        yield self.params.nic.mac_rx_pipeline
        yield self.device.nic_receive_dma(dma_buffer, packet.size_bytes, desc_address)
        packet.dma_address = dma_buffer
        watch.lap("rxDMA")

        # Polling agent: an asynchronous read of the descriptor status —
        # much cheaper than a PCIe register read — plus loop overhead.
        # (In interrupt mode the moderation/delivery delay replaces the
        # poll; the descriptor read still happens inside the handler.)
        notify_start = self.now
        if software.rx_notification == "interrupt":
            yield software.interrupt_moderation // 2 + software.interrupt_overhead
        else:
            yield software.poll_iteration // 2
        tracer = self.sim.tracer if packet.uid is not None else None
        if tracer is not None:
            tracer.add(packet.uid, "rxNotify", "notify", notify_start, self.now)
        yield self.port.read(desc_address, CACHELINE)
        watch.lap("ioreg")

        # Alg. 1 line 12: invalidate the descriptor line so the CPU
        # fetches fresh data from NetDIMM.  (SKB payload lines are
        # invalidated lazily, on the application's demand.)
        yield self.invalidate_cost(CACHELINE)
        watch.lap("rxInvalidate")

        # Lines 13–15: allocate the SKB data page *on the same
        # sub-array* as the DMA buffer, clone in memory, then the stack
        # reads the header (an nCache hit).
        yield software.rx_skb_alloc
        app_page, fast = self._alloc_dma_page(hint=dma_buffer)
        yield software.alloc_cache_hit if fast else software.alloc_pages_slow
        packet.app_address = app_page
        mode = self.device.clone_mode(app_page, dma_buffer)
        self.stats.count(f"rx_clone_{mode.value}")
        clone_start = self.now
        yield netdimm.clone_register_write
        yield self.device.clone(app_page, dma_buffer, packet.size_bytes)
        if tracer is not None:
            # The in-memory buffer clone (RowClone FPM/PSM/GCM) as a
            # child span inside the rxCopy segment.
            tracer.add(
                packet.uid, "clone", "device", clone_start, self.now,
                {"mode": mode.value},
            )
        yield self.port.read(app_page, CACHELINE)
        watch.lap("rxCopy")

        self.rx_ring.consume()
        self._release_dma_page(dma_buffer)
        self._release_dma_page(app_page)
        self.stats.count("rx_packets")
        return packet

    # -- helpers --------------------------------------------------------------------

    _default_socket: Optional[Socket] = None

    def _socket_for(self, packet: Packet) -> Socket:
        """The socket serving a packet's flow.

        Latency experiments reuse one long-lived connection per node (the
        paper measures steady-state flows); callers needing per-flow
        sockets can attach their own via ``packet.flow_id`` bookkeeping.
        """
        if self._default_socket is None:
            self._default_socket = Socket()
        return self._default_socket

    def warm_up(self) -> None:
        """Mark the default connection established (skip COPY_NEEDED).

        Equivalent to having already sent the connection-establishment
        packets, after which ``skb_zone`` is set and transmissions take
        the fast path.
        """
        socket = self._socket_for(Packet(size_bytes=1))
        socket.skb_zone = self.net_zone.name
