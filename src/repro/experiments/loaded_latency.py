"""Packet latency under host-memory pressure (the converse of Fig. 12(b)).

Fig. 12(b) asks what the *network* does to a co-runner's memory
latency.  This extension asks the reverse: what does a memory-hungry
co-runner do to *packet* latency?  The mechanism favoring NetDIMM is
contribution 4 of the paper: packet buffers live in NetDIMM-local DRAM
behind the nMC, so host-channel congestion barely touches the packet
path, while a dNIC/iNIC packet's copy into the application buffer
write-allocates through the loaded host channel.

Method: simulate the host channel under an MLC-style injector and
measure the per-line DRAM round trip with a dependent-load probe (the
same machinery as Fig. 12(b)); then charge each configuration's
DRAM-touched lines per packet with the measured queueing delta on top
of its calibrated unloaded latency.

Lines touched on the *host* channel per packet:

* dNIC / iNIC — the RX copy's destination lines write-allocate in the
  host DRAM (one line per cacheline of payload), plus ~4 lines of
  SKB/descriptor metadata;
* NetDIMM — only ~3 metadata lines (SKB struct, socket state); payload
  and descriptors never leave the DIMM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.dram.controller import MemoryController
from repro.experiments.oneway import measure_one_way
from repro.params import DEFAULT, SystemParams
from repro.sim import Resource, Simulator
from repro.units import cachelines, ns, us
from repro.workloads.mlc import MLCInjector
from repro.workloads.netfuncs import CoRunnerProbe

SUMMARY = "packet latency under host-memory pressure"

CONFIGS = ("dnic", "inic", "netdimm")
SIZES = (256, 1514)
PRESSURES = ("idle", "moderate", "max")
_DELAYS = {"idle": None, "moderate": ns(1500), "max": 0}

METADATA_LINES = {"dnic": 4, "inic": 4, "netdimm": 3}


def host_dram_lines(config: str, size_bytes: int) -> int:
    """Host-channel DRAM lines one packet touches for a configuration."""
    if config == "netdimm":
        return METADATA_LINES[config]
    return METADATA_LINES[config] + cachelines(size_bytes)


@dataclass(frozen=True)
class LoadedLatencyResult:
    """One-way latency per (pressure, config, size), plus probe data."""

    latency: Dict[Tuple[str, str, int], float]
    dram_latency_ns: Dict[str, float]

    def degradation(self, config: str, size: int, pressure: str = "max") -> float:
        """Latency growth factor under pressure vs. idle."""
        return (
            self.latency[(pressure, config, size)]
            / self.latency[("idle", config, size)]
        )

    def netdimm_advantage(self, size: int, pressure: str) -> float:
        """NetDIMM's reduction vs. dNIC at one pressure level."""
        dnic = self.latency[(pressure, "dnic", size)]
        netdimm = self.latency[(pressure, "netdimm", size)]
        return 1 - netdimm / dnic

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe rendering (artifact schema v1)."""
        return {
            "latency": [
                {
                    "pressure": pressure,
                    "config": config,
                    "size_bytes": size,
                    "ticks": ticks,
                }
                for (pressure, config, size), ticks in sorted(self.latency.items())
            ],
            "dram_latency_ns": dict(self.dram_latency_ns),
        }

    def metrics(self) -> Dict[str, float]:
        """Scalar metrics for artifact/target checking."""
        metrics: Dict[str, float] = {}
        for size in SIZES:
            for pressure in PRESSURES:
                metrics[f"loaded_latency.netdimm_advantage.{pressure}.{size}B"] = (
                    self.netdimm_advantage(size, pressure)
                )
            metrics[f"loaded_latency.netdimm_growth.{size}B"] = self.degradation(
                "netdimm", size
            )
        return metrics


def _probe_dram_latency(params: SystemParams, delay: Optional[int]) -> float:
    """Mean DRAM round trip (ns) on a channel under MLC pressure."""
    sim = Simulator()
    controller = MemoryController(sim, "mc", params.host_dram)
    bus = Resource(sim, "bus")

    # Couple the probe's bus to the controller's load: MLC requests hold
    # the probe's bus for their data beats, approximating shared-channel
    # queueing the same way the Fig. 12(b) experiment does.
    if delay is not None:
        injector = MLCInjector(
            sim, "mlc", controller, delay=delay, threads=16, outstanding=40
        )
        injector.start()

        def mirror():
            # Mirror the channel's data-bus busy time onto the probe's
            # bus: while the controller is saturated, the probe queues.
            last_busy = 0
            while True:
                yield ns(100)
                busy = controller.stats.get_counter("bus_busy_ticks")
                delta = busy - last_busy
                last_busy = busy
                if delta > 0:
                    yield from bus.use(min(delta, ns(95)))

        sim.spawn(mirror())
    probe = CoRunnerProbe(sim, "probe", bus)
    probe.start()
    sim.run(until=us(60))
    probe.stop()
    sim.run(until=us(61))
    latency = probe.mean_dram_latency()
    assert latency is not None
    return latency


def run(params: Optional[SystemParams] = None) -> LoadedLatencyResult:
    """Measure unloaded baselines and apply measured queueing deltas.

    One DRAM probe per pressure level, then one unloaded one-way
    baseline per configuration and size; each baseline is charged the
    probe's per-line queueing delta on its host-channel lines.
    """
    params = params or DEFAULT
    dram_latency = {
        pressure: _probe_dram_latency(params, _DELAYS[pressure])
        for pressure in PRESSURES
    }
    idle_dram = dram_latency["idle"]
    latency: Dict[Tuple[str, str, int], float] = {}
    for config in CONFIGS:
        for size in SIZES:
            base = measure_one_way(config, size, params).total_ticks
            for pressure in PRESSURES:
                extra_per_line = max(0.0, dram_latency[pressure] - idle_dram) * 1000
                latency[(pressure, config, size)] = base + (
                    extra_per_line * host_dram_lines(config, size)
                )
    return LoadedLatencyResult(latency=latency, dram_latency_ns=dram_latency)


def format_report(result: LoadedLatencyResult) -> str:
    """Latency-under-pressure table."""
    lines = ["Packet latency under host-memory pressure (extension)"]
    lines.append(
        "probe DRAM latency: "
        + ", ".join(
            f"{pressure}={result.dram_latency_ns[pressure]:.0f}ns"
            for pressure in PRESSURES
        )
    )
    for size in SIZES:
        lines.append(f"\n{size} B packets (us):")
        header = f"{'config':<10}" + "".join(f"{p:>10}" for p in PRESSURES)
        lines.append(header + f"{'growth':>9}")
        for config in CONFIGS:
            row = f"{config:<10}"
            for pressure in PRESSURES:
                row += f"{result.latency[(pressure, config, size)] / 1e6:>10.2f}"
            row += f"{result.degradation(config, size):>8.2f}x"
            lines.append(row)
        lines.append(
            f"NetDIMM vs dNIC: -{result.netdimm_advantage(size, 'idle'):.1%} idle "
            f"-> -{result.netdimm_advantage(size, 'max'):.1%} at max pressure"
        )
    lines.append(
        "\n(The packet path behind the nMC is isolated from host-channel "
        "congestion — contribution 4 of the paper, seen from the packet side.)"
    )
    return "\n".join(lines)
