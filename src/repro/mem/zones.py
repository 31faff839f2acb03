"""Memory zones over the unified physical address space.

Linux groups physical memory with common properties into zones
(Sec. 2.3).  NetDIMM adds one zone per NetDIMM — ``NET0``, ``NET1``, ...
— covering that DIMM's local DRAM, exposed single-channel through flex
interleaving (Fig. 10).  Descriptor rings, DMA buffers, and (after the
first packet of a connection) application SKBs are all allocated from
the NET zone of the NetDIMM serving the flow.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.units import PAGE


class ZoneKind(enum.Enum):
    """The primary Linux zones plus NetDIMM's NET zones."""

    DMA = "ZONE_DMA"
    DMA32 = "ZONE_DMA32"
    NORMAL = "ZONE_NORMAL"
    HIGHMEM = "ZONE_HIGHMEM"
    NET = "ZONE_NET"


@dataclass(frozen=True)
class MemoryZone:
    """A contiguous physical range with uniform properties."""

    name: str
    kind: ZoneKind
    base: int
    size: int
    netdimm_index: Optional[int] = None
    """For NET zones: which NetDIMM backs this zone."""

    def __post_init__(self):
        if self.base % PAGE or self.size % PAGE:
            raise ValueError(f"zone {self.name} must be page-aligned")
        if self.size <= 0:
            raise ValueError(f"zone {self.name} must be non-empty")
        if self.kind is ZoneKind.NET and self.netdimm_index is None:
            raise ValueError(f"NET zone {self.name} needs a netdimm_index")

    @property
    def end(self) -> int:
        """One past the last byte."""
        return self.base + self.size

    @property
    def num_pages(self) -> int:
        """4 KB pages in the zone."""
        return self.size // PAGE

    def contains(self, address: int) -> bool:
        """Whether ``address`` falls in this zone."""
        return self.base <= address < self.end
