"""Linux kernel memory-management model (Sec. 2.3, 4.2.1, 4.2.2).

* :mod:`repro.mem.zones` — memory zones (ZONE_DMA / ZONE_NORMAL / the
  new NET*i* zones NetDIMM introduces); the NetDIMM driver allocates
  from its NET zone.
* :mod:`repro.mem.allocator` — a page allocator with the
  ``__alloc_netdimm_pages(zone, hint)`` API: best-effort allocation on
  the same (bank, sub-array) as a hint address, which is what makes
  RowClone FPM cloning possible.
* :mod:`repro.mem.alloc_cache` — the allocCache: two pre-allocated
  pages per distinct sub-array class, refilled in the background, so
  on-demand DMA-buffer allocation stays off the packet critical path.
"""

from repro.mem.alloc_cache import AllocCache
from repro.mem.allocator import OutOfMemoryError, PageAllocator
from repro.mem.zones import MemoryZone, ZoneKind

__all__ = [
    "AllocCache",
    "MemoryZone",
    "OutOfMemoryError",
    "PageAllocator",
    "ZoneKind",
]
