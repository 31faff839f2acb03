"""The NetDIMM buffer device (Sec. 4.1, Fig. 6).

Composes the nMC, nCache, nPrefetcher, RowClone engine, and the
nController logic that routes between them:

* Host (PHY-side) accesses arrive through the asynchronous NVDIMM-P
  protocol (:class:`~repro.dram.nvdimmp.AsyncMemoryPort` calls
  :meth:`device_read` / :meth:`device_write`).  Reads check nCache
  first; hits are consumed and answered at SRAM latency, misses go to
  the nMC at *PHY priority*.
* nNIC-side DMA (:meth:`nic_receive_dma` / :meth:`nic_transmit_dma`)
  goes to the nMC at *nNIC priority* — the arbitration rule of
  Sec. 4.1 ("giving priority to the nNIC accesses").
* While depositing a received packet, the nController writes the
  packet's **first cacheline** into nCache with the ``first_line`` flag
  set: headers are what the network stack reads immediately, and
  header-only functions never touch the payload at all.
* :meth:`clone` is the ``netdimmClone(dst, src, size)`` register
  interface backing Alg. 1's in-memory buffer cloning.

These two request classes meeting at one nMC is exactly why host access
time to NetDIMM memory is non-deterministic (R1/R2 in Sec. 4.1) — and
why the DDR5 asynchronous protocol is the enabling mechanism.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.core.ncache import NCache
from repro.core.nprefetcher import NextLinePrefetcher
from repro.core.rowclone import CloneEngine, CloneMode
from repro.dram.controller import MemoryController
from repro.dram.geometry import DRAMGeometry
from repro.nic.descriptor import Descriptor
from repro.params import SystemParams
from repro.sim import Component, Future, Simulator
from repro.units import CACHELINE, cachelines

NNIC_PRIORITY = 0
"""nMC priority for nNIC-originated requests (served first)."""

PHY_PRIORITY = 1
"""nMC priority for host-originated (PHY) requests."""


def _zone_offset(address: int, zone_base: int) -> int:
    """``address`` as an offset into the NetDIMM zone starting at ``zone_base``."""
    local = address - zone_base
    if local < 0:
        raise ValueError(
            f"address {address:#x} below NetDIMM zone base {zone_base:#x}"
        )
    return local


def _phy_line_read(nmc: MemoryController, zone_base: int, address: int) -> Future:
    """The nPrefetcher's line fetch: one PHY-priority nMC read."""
    return nmc.read(_zone_offset(address, zone_base), CACHELINE, priority=PHY_PRIORITY)


class NetDIMMDevice(Component):
    """One NetDIMM: local DRAM + the integrated buffer-device logic."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        params: Optional[SystemParams] = None,
        geometry: Optional[DRAMGeometry] = None,
        zone_base: int = 0,
    ):
        super().__init__(sim, name)
        self.params = params or SystemParams()
        self.geometry = geometry or DRAMGeometry()
        self.zone_base = zone_base
        netdimm = self.params.netdimm
        self.nmc = MemoryController(
            sim, f"{name}.nmc", self.params.netdimm_dram, self.geometry
        )
        self.ncache = NCache(
            num_lines=netdimm.ncache_lines,
            ways=netdimm.ncache_ways,
        )
        self.nprefetcher = NextLinePrefetcher(
            sim,
            f"{name}.npf",
            self.ncache,
            # Not a bound method of this device: the prefetcher is held
            # by the device, and a back-reference to the device would
            # make every NetDIMM a reference cycle.
            fetch_line=partial(_phy_line_read, self.nmc, zone_base),
            degree=netdimm.nprefetch_degree,
        )
        self.clone_engine = CloneEngine(
            sim, f"{name}.clone", self.geometry, self.nmc, netdimm, zone_base=zone_base
        )

    # -- address handling -------------------------------------------------------

    def _local(self, address: int) -> int:
        return _zone_offset(address, self.zone_base)

    # -- host-side (PHY) interface: the AsyncDevice protocol ---------------------

    def device_read(self, address: int, size_bytes: int) -> Future:
        """A host read arriving over the memory channel.

        Checks nCache line by line (consuming hits), fetches misses from
        local DRAM at PHY priority, and pokes the prefetcher.  The
        future completes when every requested line is in the buffer
        device, i.e. when RDY can be raised.
        """
        self._local(address)  # validate eagerly, before the process runs
        sim = self.sim
        done = sim.future()
        sim.spawn(self._device_read_body(address, size_bytes, done),
                  name=f"{self.name}.rd" if sim.named else "")
        return done

    def _device_read_body(self, address: int, size_bytes: int, done: Future):
        start = self.now
        yield self.params.netdimm.ncontroller_latency
        lines = cachelines(max(size_bytes, 1))
        base = address - (address % CACHELINE)
        misses = []
        hit_count = 0
        for i in range(lines):
            line_address = base + i * CACHELINE
            if self.params.netdimm.ncache_enabled:
                hit, was_first = self.ncache.host_read(line_address)
            else:
                hit, was_first = False, False
            if hit:
                hit_count += 1
                self.nprefetcher.on_host_read(line_address, was_first)
            else:
                misses.append(line_address)
                self.nprefetcher.on_host_read(line_address, was_first_line=False)
        if hit_count:
            self.stats.count("ncache_hits", hit_count)
            yield self.params.netdimm.ncache_hit_latency
        if misses:
            self.stats.count("ncache_misses", len(misses))
            pending = [
                self.nmc.read(self._local(line), CACHELINE, priority=PHY_PRIORITY)
                for line in misses
            ]
            yield self.sim.all_of(pending)
        self.stats.sample("host_read_ns", (self.now - start) / 1000)
        done.set_result(None)

    def device_write(self, address: int, size_bytes: int) -> Future:
        """A host write arriving over the memory channel.

        Writes bypass nCache (Sec. 4.1: queued straight into the nMC
        write queue) but their addresses are snooped to keep nCache
        coherent.  The returned future completes when the write is
        accepted; the media write drains in the background.
        """
        self._local(address)  # validate eagerly
        invalidated = self.ncache.snoop_write(address, size_bytes)
        if invalidated:
            self.stats.count("snoop_invalidations", invalidated)
        self.nmc.write(self._local(address), size_bytes, priority=PHY_PRIORITY)
        done = self.sim.future()
        self.sim.schedule(
            self.params.netdimm.ncontroller_latency, done.set_result, None
        )
        self.stats.count("host_writes")
        return done

    # -- nNIC-side DMA ------------------------------------------------------------

    def nic_receive_dma(
        self, buffer_address: int, size_bytes: int, descriptor_address: int
    ) -> Future:
        """Deposit a received packet (paper steps R1–R3).

        Fetch the RX descriptor, stream the packet from the nNIC RX
        buffer into local DRAM, mirror the first cacheline into nCache
        (header caching), and write back the descriptor status.  All at
        nNIC priority.
        """
        sim = self.sim
        done = sim.future()
        sim.spawn(
            self._nic_rx_body(buffer_address, size_bytes, descriptor_address, done),
            name=f"{self.name}.nicrx" if sim.named else "",
        )
        return done

    def _nic_rx_body(
        self, buffer_address: int, size_bytes: int, descriptor_address: int, done: Future
    ):
        start = self.now
        yield self.params.nic.nnic_dma_setup
        yield self.params.netdimm.ncontroller_latency
        # R1: fetch the next available RX descriptor.
        yield self.nmc.read(
            self._local(descriptor_address),
            Descriptor.DESCRIPTOR_BYTES,
            priority=NNIC_PRIORITY,
        )
        # R2: deplete the nNIC RX buffer into the descriptor's DMA buffer.
        self.ncache.snoop_write(buffer_address, size_bytes)
        write_done = self.nmc.write(
            self._local(buffer_address), size_bytes, priority=NNIC_PRIORITY
        )
        # Header split: the first cacheline is mirrored into nCache as it
        # streams past, flagged as a packet head.
        if self.params.netdimm.ncache_enabled:
            self.ncache.fill_header(buffer_address)
        yield write_done
        # R3: update the RX descriptor ring (status writeback).
        yield self.nmc.write(
            self._local(descriptor_address),
            Descriptor.DESCRIPTOR_BYTES,
            priority=NNIC_PRIORITY,
        )
        self.stats.count("rx_packets")
        self.stats.count("rx_bytes", size_bytes)
        self.stats.sample("nic_rx_dma_ns", (self.now - start) / 1000)
        done.set_result(None)

    def nic_transmit_dma(
        self, buffer_address: int, size_bytes: int, descriptor_address: int
    ) -> Future:
        """Pull a packet for transmission (paper step T3, on-DIMM).

        Fetch the TX descriptor, read the packet out of local DRAM into
        the nNIC TX buffer, and write back completion status.
        """
        sim = self.sim
        done = sim.future()
        sim.spawn(
            self._nic_tx_body(buffer_address, size_bytes, descriptor_address, done),
            name=f"{self.name}.nictx" if sim.named else "",
        )
        return done

    def _nic_tx_body(
        self, buffer_address: int, size_bytes: int, descriptor_address: int, done: Future
    ):
        start = self.now
        yield self.params.nic.nnic_dma_setup
        yield self.params.netdimm.ncontroller_latency
        yield self.nmc.read(
            self._local(descriptor_address),
            Descriptor.DESCRIPTOR_BYTES,
            priority=NNIC_PRIORITY,
        )
        yield self.nmc.read(
            self._local(buffer_address), size_bytes, priority=NNIC_PRIORITY
        )
        yield self.nmc.write(
            self._local(descriptor_address),
            Descriptor.DESCRIPTOR_BYTES,
            priority=NNIC_PRIORITY,
        )
        self.stats.count("tx_packets")
        self.stats.count("tx_bytes", size_bytes)
        self.stats.sample("nic_tx_dma_ns", (self.now - start) / 1000)
        done.set_result(None)

    # -- the netdimmClone register interface ---------------------------------------

    def clone(self, dst: int, src: int, size_bytes: int) -> Future:
        """Execute ``netdimmClone(dst, src, size)`` (Alg. 1 line 14).

        The host has already paid the register-write cost; this runs the
        in-memory copy.  nCache lines covering the destination are
        snooped out (the clone writes new data under them), and on
        completion the destination's first cacheline is re-mirrored into
        nCache with the ``first_line`` flag: the network stack is about
        to read the header *through the cloned SKB address*, and the
        header-caching property must survive the clone.
        """
        self.ncache.snoop_write(dst, size_bytes)
        done = self.sim.future()
        clone_done = self.clone_engine.clone(src, dst, size_bytes)

        def _mirror(_future):
            if self.params.netdimm.ncache_enabled:
                self.ncache.fill_header(dst)
            done.set_result(None)

        clone_done.add_callback(_mirror)
        return done

    def clone_mode(self, dst: int, src: int) -> CloneMode:
        """Which clone mode a (dst, src) pair would use."""
        return self.clone_engine.classify(src, dst)
