"""Poll-detection cost (Sec. 2.1 / Alg. 1 lines 16–19).

Ultra-low-latency deployments poll instead of taking interrupts:
interrupt handling and moderation can delay packet processing by
microseconds.  The driver spins on the RX descriptor ring's status
word; the cost of each probe depends on where that word lives — host
memory for a dNIC/iNIC (the NIC DMA-writes status into the ring), or a
NetDIMM asynchronous read ("polling NetDIMM is more efficient than
polling a PCIe NIC as accessing I/O registers on a NetDIMM is much
faster").

:func:`detection_cost` is the closed-form expected latency between a
packet's status landing and the driver noticing it; the latency
experiments charge it to the ``ioreg`` segment.
"""

from __future__ import annotations


def detection_cost(probe_cost: int, loop_cost: int) -> int:
    """Expected poll-detection latency.

    A packet's completion lands uniformly within the poll period
    ``probe_cost + loop_cost``; on average the driver burns half a
    period before the probe that sees it, plus that probe itself.
    """
    period = probe_cost + loop_cost
    return period // 2 + probe_cost
