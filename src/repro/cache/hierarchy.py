"""A latency model of the host cache hierarchy for co-running applications.

Used by the Fig. 12(b) experiment: the co-runner's *memory access
latency* is the average over its L1-missing loads of (LLC hit | DRAM
round trip), where the DRAM round trip is measured live from the shared
:class:`~repro.dram.controller.MemoryController` and the LLC hit rate is
degraded by capacity competition with network-packet processing (and,
with an iNIC, by the DDIO partition's capacity loss).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.params import CacheParams
from repro.units import CACHELINE


@dataclass
class CacheHierarchyModel:
    """Closed-form beyond-L1 access-latency model for a co-runner.

    Parameters
    ----------
    params:
        Host cache latencies/sizes (Table 1).
    llc_hit_rate_clean:
        The co-runner's LLC hit rate with no interference.
    working_set_bytes:
        The co-runner's LLC-resident working set.
    """

    params: CacheParams
    llc_hit_rate_clean: float = 0.60
    working_set_bytes: int = 1_600_000

    def competition_hit_rate(
        self,
        pollution_lines_per_second: float,
        reuse_seconds: float = 1e-3,
        capacity_fraction: float = 1.0,
    ) -> float:
        """Steady-state LLC hit rate under capacity competition.

        The co-runner's working set of W lines competes for
        ``capacity_fraction`` of the LLC's C lines (an iNIC's DDIO
        partition removes ~10%), against a packet-processing stream of
        ``pollution_lines_per_second`` whose lines live one co-runner
        reuse interval.  Under random-replacement competition a
        co-runner line survives to its next reuse (after
        ``reuse_seconds``) with probability

            C' / (C' + max(0, W - C') + r * tau)

        which is 1.0 for a fitting working set with no pollution and
        degrades with both capacity loss and pollution pressure.
        """
        llc_lines = (self.params.l2_size // CACHELINE) * capacity_fraction
        working_lines = self.working_set_bytes / CACHELINE
        overflow = max(0.0, working_lines - llc_lines)
        pressure = pollution_lines_per_second * reuse_seconds
        survival = llc_lines / (llc_lines + overflow + pressure)
        return self.llc_hit_rate_clean * survival

    def beyond_l1_latency(
        self,
        dram_latency: float,
        pollution_lines_per_second: float = 0.0,
        reuse_seconds: float = 1e-3,
        capacity_fraction: float = 1.0,
    ) -> float:
        """Average latency of the co-runner's L1-missing accesses.

        This is the "memory access latency observed by a co-running
        application" of Fig. 12(b): LLC hits at LLC latency, misses at
        the live (queueing-inclusive) DRAM round trip, with the LLC hit
        rate degraded by packet-data pollution and DDIO capacity loss.
        """
        llc_rate = self.competition_hit_rate(
            pollution_lines_per_second, reuse_seconds, capacity_fraction
        )
        return llc_rate * self.params.l2_latency + (1 - llc_rate) * dram_latency
