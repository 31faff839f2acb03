"""Fig. 5 — iperf TCP bandwidth under memory-subsystem pressure.

The paper's hardware motivation experiment: an MLC-style injector
pressures the memory channels while iperf streams MTU packets; as the
injector's inter-request delay shrinks (pressure grows), the receive
path's per-packet memory operations queue behind injector traffic, the
receiver slows, and TCP throttles.  At maximum pressure the paper
measures iperf at ~27.9% of its uncontended bandwidth.

Our reproduction runs the same closed loop against the simulated
memory controller: x-axis = injector delay (ns between requests per
thread), y-axis = achieved iperf bandwidth (Gb/s).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dram.controller import MemoryController
from repro.params import DEFAULT, SystemParams
from repro.sim import Simulator
from repro.units import ns
from repro.workloads.iperf import IperfModel
from repro.workloads.mlc import MLCInjector

SUMMARY = "iperf bandwidth vs. memory pressure (Fig. 5)"

INJECT_DELAYS_NS: Tuple[Optional[int], ...] = (0, 20, 50, 100, 200, 500, 1000, None)
"""Per-thread delay between injected requests; None = injector off."""

PACKETS_PER_POINT = 400


@dataclass(frozen=True)
class Fig5Result:
    """Achieved bandwidth per pressure level."""

    bandwidth_gbps: Dict[Optional[int], float]
    """delay (ns, None = no injector) -> achieved Gb/s."""

    @property
    def unloaded_gbps(self) -> float:
        """Bandwidth with the injector off."""
        return self.bandwidth_gbps[None]

    @property
    def max_pressure_fraction(self) -> float:
        """Bandwidth at maximum pressure / unloaded (paper: ~27.9%)."""
        return self.bandwidth_gbps[0] / self.unloaded_gbps

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe rendering (artifact schema v1)."""
        return {
            "bandwidth_gbps": [
                {"inject_delay_ns": delay, "gbps": gbps}
                for delay, gbps in self.bandwidth_gbps.items()
            ]
        }

    def metrics(self) -> Dict[str, float]:
        """Scalar metrics named after the paper-target registry."""
        metrics: Dict[str, float] = {}
        if None in self.bandwidth_gbps:
            metrics["fig5.unloaded_gbps"] = self.unloaded_gbps
            if 0 in self.bandwidth_gbps:
                metrics["fig5.max_pressure_fraction"] = self.max_pressure_fraction
        return metrics


def cells(
    delays_ns: Tuple[Optional[int], ...] = INJECT_DELAYS_NS,
    packets: int = PACKETS_PER_POINT,
    threads: int = 16,
) -> List[Tuple[Optional[int], int, int]]:
    """The sweep points, in merge order: ``(delay_ns, packets, threads)``."""
    return [(delay_ns, packets, threads) for delay_ns in delays_ns]


def run_cell(cell: Tuple[Optional[int], int, int], params: SystemParams) -> float:
    """Achieved iperf bandwidth (Gb/s) at one injector delay."""
    delay_ns, packets, threads = cell
    sim = Simulator()
    controller = MemoryController(sim, "mc", params.host_dram)
    injector = None
    if delay_ns is not None:
        # MLC's bandwidth mode keeps deep memory-level parallelism per
        # thread (prefetchers + many outstanding loads).
        injector = MLCInjector(
            sim, "mlc", controller, delay=ns(delay_ns), threads=threads, outstanding=40
        )
        injector.start()
    iperf = IperfModel(sim, "iperf", controller, network=params.network)
    done = iperf.run(packets)
    bandwidth_bps = sim.run_until(done, max_events=20_000_000)
    if injector is not None:
        injector.stop()
    return bandwidth_bps / 1e9


def merge(
    cells: Sequence[Tuple[Optional[int], int, int]], payloads: Sequence[float]
) -> Fig5Result:
    """The result object from per-point bandwidths."""
    return Fig5Result(
        bandwidth_gbps={cell[0]: gbps for cell, gbps in zip(cells, payloads)}
    )


def run(
    params: Optional[SystemParams] = None,
    delays_ns: Tuple[Optional[int], ...] = INJECT_DELAYS_NS,
    packets: int = PACKETS_PER_POINT,
    threads: int = 16,
) -> Fig5Result:
    """Sweep injector pressure and measure achieved iperf bandwidth."""
    params = params or DEFAULT
    points = cells(delays_ns, packets, threads)
    return merge(points, [run_cell(cell, params) for cell in points])


def format_report(result: Fig5Result) -> str:
    """The bandwidth-vs-pressure curve as a table."""
    lines = [
        "Fig. 5 — iperf bandwidth vs. memory pressure",
        f"{'inject delay':<16}{'bandwidth':>12}",
    ]
    for delay, gbps in sorted(
        result.bandwidth_gbps.items(), key=lambda kv: (kv[0] is None, kv[0] or 0)
    ):
        label = "off" if delay is None else f"{delay} ns"
        lines.append(f"{label:<16}{gbps:>9.1f} Gb/s")
    lines.append(
        f"max-pressure fraction: {result.max_pressure_fraction:.1%} of unloaded "
        "(paper: ~27.9%)"
    )
    return "\n".join(lines)
