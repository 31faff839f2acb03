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

Each name loads its submodule on first use (module ``__getattr__``), the
way :mod:`repro.api` does: the drivers need only ``cache``, so they
never load the DDIO partition or the hierarchy model.
"""

import importlib
from typing import Any, Dict, List, Tuple

_LAZY_MODULES: Dict[str, Tuple[str, ...]] = {
    "repro.cache.cache": ("CacheStats", "ReplacementPolicy", "SetAssociativeCache"),
    "repro.cache.ddio": ("DDIOPartition",),
    "repro.cache.hierarchy": ("CacheHierarchyModel",),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}

__all__ = [
    "CacheHierarchyModel",
    "CacheStats",
    "DDIOPartition",
    "ReplacementPolicy",
    "SetAssociativeCache",
]


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_LAZY))
