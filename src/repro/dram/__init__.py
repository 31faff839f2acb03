"""DRAM subsystem: geometry, banks, memory controllers, NVDIMM-P.

This package is the memory substrate of the reproduction:

* :mod:`repro.dram.geometry` — the rank/device/bank/sub-array/row
  organization of Fig. 9 and physical-address decoding.
* :mod:`repro.dram.bank` — per-bank state machines with DDR timing.
* :mod:`repro.dram.controller` — an FR-FCFS memory controller with
  read/write queues and a shared data bus, in the style of the gem5
  DRAM controller model the paper cites [37].
* :mod:`repro.dram.nvdimmp` — the DDR5/NVDIMM-P asynchronous
  transaction protocol (XRD / RDY / SEND) from Sec. 2.2.
"""

from repro.dram.bank import Bank
from repro.dram.controller import MemoryController, MemRequest
from repro.dram.geometry import DecodedAddress, DRAMGeometry
from repro.dram.nvdimmp import AsyncMemoryPort

__all__ = [
    "AsyncMemoryPort",
    "Bank",
    "DecodedAddress",
    "DRAMGeometry",
    "MemoryController",
    "MemRequest",
]
