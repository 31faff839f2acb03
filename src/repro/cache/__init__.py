"""Host cache hierarchy models.

* :mod:`repro.cache.cache` — a generic set-associative cache with
  pluggable replacement, used for the host LLC and as the base for the
  NetDIMM nCache.
* :mod:`repro.cache.ddio` — the Data Direct I/O partition of the LLC
  (Sec. 2.1): NIC DMA lands in a ~10%-of-LLC slice, with spill
  ("DMA leakage") accounting when RX outpaces consumption; Fig. 12(b)'s
  replay is its one user.
* :mod:`repro.cache.hierarchy` — a latency model of the L1/L2(LLC)
  hierarchy for co-running applications (Fig. 12(b)).
"""

from repro.cache.cache import CacheStats, ReplacementPolicy, SetAssociativeCache
from repro.cache.ddio import DDIOPartition
from repro.cache.hierarchy import CacheHierarchyModel

__all__ = [
    "CacheHierarchyModel",
    "CacheStats",
    "DDIOPartition",
    "ReplacementPolicy",
    "SetAssociativeCache",
]
