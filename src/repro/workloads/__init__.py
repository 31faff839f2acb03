"""Workloads: traces, memory-pressure injection, bandwidth drivers, NFs.

* :mod:`repro.workloads.traces` — synthetic Facebook-cluster packet
  traces matching the published size/locality distributions (Sec. 5.1,
  [60]).
* :mod:`repro.workloads.mlc` — an Intel-MLC-style memory request
  injector for the Fig. 5 interference study.
* :mod:`repro.workloads.iperf` — a closed-loop TCP-bandwidth driver
  whose per-packet memory footprint contends with MLC.
* :mod:`repro.workloads.netfuncs` — the L3 Forwarding and Deep Packet
  Inspection network functions of Sec. 5.3, plus the co-running
  application memory probe.

Each name loads its submodule on first use (module ``__getattr__``), the
way :mod:`repro.api` does: a scenario needs only ``traces``, so it
never loads the MLC, iperf or netfunc models, nor ``trace_io``'s
``csv``.
"""

import importlib
from typing import Any, Dict, List, Tuple

_LAZY_MODULES: Dict[str, Tuple[str, ...]] = {
    "repro.workloads.iperf": ("IperfModel",),
    "repro.workloads.mlc": ("MLCInjector",),
    "repro.workloads.netfuncs": ("CoRunnerProbe", "NetworkFunction"),
    "repro.workloads.trace_io": ("load_trace", "save_trace"),
    "repro.workloads.traces": ("ClusterKind", "TraceGenerator", "TracePacket"),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}

__all__ = [
    "ClusterKind",
    "CoRunnerProbe",
    "IperfModel",
    "MLCInjector",
    "NetworkFunction",
    "TraceGenerator",
    "TracePacket",
    "load_trace",
    "save_trace",
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
