"""Data Direct I/O: NIC DMA into a bounded slice of the LLC (Sec. 2.1).

With DDIO, a received packet is written into the LLC rather than DRAM,
but only into a partition of roughly 10% of LLC capacity [9].  When the
NIC's RX rate outruns the CPU's consumption, fresh lines evict older
packet lines *before the CPU has read them* — those victims are written
back to DRAM, and the subsequent CPU read misses.  That spill is the
"DMA leakage" phenomenon [68] and the reason an iNIC at high rate both
pollutes the cache and, when the partition thrashes, re-creates DRAM
traffic.  :class:`DDIOPartition` tracks exactly this.

Its one user is the Fig. 12(b) replay (:mod:`repro.experiments.fig12b`),
the reproduction's only model of DDIO thrash.  The host-NIC driver
(:mod:`repro.driver.host_nic`) keeps no partition and prices every RX
copy as LLC-resident (docs/architecture.md says why).
"""

from __future__ import annotations

from repro.cache.cache import ReplacementPolicy, SetAssociativeCache
from repro.units import CACHELINE


class DDIOPartition:
    """The DDIO slice of the LLC, spill-accounted.

    Parameters
    ----------
    llc_bytes:
        Full LLC capacity.
    way_fraction:
        Fraction of LLC capacity DDIO may use (paper/Intel: ~10%).
    ways:
        Associativity to model within the partition.
    """

    def __init__(self, llc_bytes: int, way_fraction: float = 0.10, ways: int = 2, seed: int = 0):
        if not 0 < way_fraction <= 1:
            raise ValueError(f"way_fraction out of range: {way_fraction}")
        partition_lines = max(ways, int(llc_bytes * way_fraction) // CACHELINE)
        partition_lines -= partition_lines % ways
        self.partition = SetAssociativeCache(
            num_lines=partition_lines,
            ways=ways,
            policy=ReplacementPolicy.LRU,
            seed=seed,
        )

    @property
    def capacity_bytes(self) -> int:
        """DDIO partition capacity."""
        return self.partition.capacity_bytes

    def inject(self, address: int, size_bytes: int) -> int:
        """NIC writes a packet of ``size_bytes`` at ``address`` into the LLC.

        Returns the number of *unconsumed packet lines spilled* to DRAM to
        make room (DMA leakage).  Spills mean the CPU will later take a
        DRAM round trip for those lines.
        """
        spills = 0
        lines = max(1, -(-size_bytes // CACHELINE))
        for i in range(lines):
            victim = self.partition.fill(address + i * CACHELINE, consumed=False)
            if victim is not None:
                spills += 1
        return spills

    def consume(self, address: int, size_bytes: int) -> int:
        """CPU reads a packet; returns how many of its lines *missed*.

        Lines still resident in the partition hit at LLC latency; lines
        that were spilled (or never injected) miss to DRAM.
        """
        misses = 0
        lines = max(1, -(-size_bytes // CACHELINE))
        for i in range(lines):
            line_address = address + i * CACHELINE
            if self.partition.contains(line_address):
                self.partition.invalidate(line_address)
            else:
                misses += 1
        return misses

    def resident_misses(self, address: int, size_bytes: int) -> int:
        """How many of a packet's lines are *not* LLC-resident, without
        consuming anything.

        This is the read path of a CPU or TX engine: reading an
        LLC-resident line leaves it in place (unlike :meth:`consume`,
        which models explicit invalidation); lines already evicted by
        partition thrash must come from DRAM.
        """
        misses = 0
        lines = max(1, -(-size_bytes // CACHELINE))
        for i in range(lines):
            if not self.partition.contains(address + i * CACHELINE):
                misses += 1
        return misses
