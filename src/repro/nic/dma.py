"""DMA-engine memory-access behaviour, including the Fig. 7 burst trace.

Fig. 7 of the paper plots the relative address and arrival time of the
memory requests a 40GbE NIC's DMA engine generates while receiving six
1514 B packets: each packet arrival produces a burst of 24 cacheline
writes (24 x 64 B = 1536 B, the 1514 B packet rounded up) to
consecutive DMA-buffer addresses, with the bursts separated by the
packet inter-arrival time.  This spatial/temporal regularity is the
observation that justifies nCache + a simple next-line nPrefetcher.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.params import DEFAULT, NetworkParams
from repro.units import CACHELINE, cachelines, ns, transfer_time


@dataclass(frozen=True)
class DMABurstTrace:
    """The (time, address) points of a DMA access trace."""

    accesses: Tuple[Tuple[int, int], ...]
    """Sequence of (arrival_tick, address) pairs."""

    @property
    def count(self) -> int:
        """Total accesses."""
        return len(self.accesses)

    def bursts(self, gap_threshold: int) -> List[List[Tuple[int, int]]]:
        """Split the trace into bursts at inter-access gaps > threshold."""
        groups: List[List[Tuple[int, int]]] = []
        current: List[Tuple[int, int]] = []
        previous_time = None
        for time, address in self.accesses:
            if previous_time is not None and time - previous_time > gap_threshold:
                groups.append(current)
                current = []
            current.append((time, address))
            previous_time = time
        if current:
            groups.append(current)
        return groups

    def burst_duration(self, burst_index: int, gap_threshold: int) -> int:
        """Span of one burst (first to last access), in ticks.

        The paper measures 143 ns for the third packet's 24-line burst.
        """
        burst = self.bursts(gap_threshold)[burst_index]
        return burst[-1][0] - burst[0][0]


def dma_burst_trace(
    packet_sizes: List[int],
    network: NetworkParams = DEFAULT.network,
    base_address: int = 0,
    start_time: int = 0,
    per_line_interval: int = ns(6),
) -> DMABurstTrace:
    """Generate the DMA write trace for a sequence of received packets.

    Packets arrive back-to-back at ``network``'s line rate, each frame
    priced with its Ethernet framing (the paper receives six 1514 B
    packets at 40 Gb/s).  Each packet triggers a burst of
    cacheline writes to consecutive addresses in its freshly-allocated
    DMA buffer; within a burst, lines issue every ``per_line_interval``
    (the DMA engine's internal pipelining — 24 lines over ~143 ns is
    ~6 ns per line).
    """
    accesses: List[Tuple[int, int]] = []
    arrival = start_time
    address = base_address
    for size in packet_sizes:
        lines = cachelines(size)
        for line in range(lines):
            accesses.append((arrival + line * per_line_interval, address))
            address += CACHELINE
        # Buffers are line-granular; the next packet's buffer starts on
        # the next cacheline boundary.
        arrival += transfer_time(
            network.framed_bytes(size), network.link_bytes_per_ps
        )
    return DMABurstTrace(accesses=tuple(accesses))
