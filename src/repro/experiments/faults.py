"""Tail latency under loss: the chaos sweep the paper never ran.

The paper's evaluation assumes a lossless fabric.  This experiment asks
what each NIC architecture's *tail* looks like when the fabric isn't:
a two-node scenario per (NIC kind, drop rate), with driver-level
timeout + retransmission recovering every lost frame, reporting
p50/p99/p999 one-way latency plus the recovery counters.

The mechanism matters more than the absolute numbers: a retransmission
costs a full timeout (tens of microseconds), so even a fraction of a
percent of drops moves the p999 by an order of magnitude while the p50
barely notices — and the architectural gap between dNIC and NetDIMM,
which lives in the sub-microsecond host path, all but disappears on the
retransmitted percentile.  Everything is seeded: the same sweep always
yields a byte-identical artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

from repro.driver.registry import NIC_KINDS
from repro.faults.spec import FaultSpec, LinkFaultSpec, RecoverySpec
from repro.scenario.builder import build_scenario
from repro.scenario.spec import ScenarioSpec

SUMMARY = "tail latency vs. drop rate under retransmission"

DROP_RATES = (0.0, 0.02, 0.05)
"""Per-link drop probabilities swept (0 pins the no-loss baseline)."""

PACKETS = 60
"""Measured packets per sweep point — enough for a stable p99 while
keeping the full sweep (5 NIC kinds x 3 rates) CI-sized."""

SIZE_BYTES = 1024
SEED = 2019
TIMEOUT_NS = 50_000.0
"""Retransmission timeout: ~10x an unloaded one-way, so the zero-drop
column never times out."""


@dataclass(frozen=True)
class FaultsResult:
    """Latency summary + recovery counters per (nic_kind, drop_rate)."""

    sweeps: Dict[Tuple[str, float], Dict[str, float]]
    """(nic kind, drop rate) → {p50_us, p99_us, p999_us, delivered,
    lost, retransmits, timeouts, drops}."""

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe rendering (artifact schema v1)."""
        return {
            "sweeps": [
                {"nic_kind": kind, "drop_rate": rate, **dict(stats)}
                for (kind, rate), stats in sorted(self.sweeps.items())
            ]
        }

    def metrics(self) -> Dict[str, float]:
        """Scalar metrics for artifact/target checking."""
        metrics: Dict[str, float] = {}
        for (kind, rate), stats in sorted(self.sweeps.items()):
            prefix = f"faults.{kind}.drop{rate:g}"
            metrics[f"{prefix}.p50_us"] = stats["p50_us"]
            metrics[f"{prefix}.p99_us"] = stats["p99_us"]
            metrics[f"{prefix}.p999_us"] = stats["p999_us"]
            metrics[f"{prefix}.retransmits"] = stats["retransmits"]
            metrics[f"{prefix}.lost"] = stats["lost"]
        return metrics


def _sweep_spec(nic_kind: str, drop_rate: float) -> ScenarioSpec:
    """The two-node chaos scenario for one sweep point."""
    base = ScenarioSpec.two_node(nic_kind, SIZE_BYTES, packets=PACKETS)
    return replace(
        base,
        name=f"faults-{nic_kind}-{drop_rate:g}",
        seed=SEED,
        faults=FaultSpec(
            links=(LinkFaultSpec(link="*", drop_probability=drop_rate),),
            recovery=RecoverySpec(timeout_ns=TIMEOUT_NS),
        ),
    )


def run() -> FaultsResult:
    """Sweep every NIC kind across the drop rates."""
    sweeps: Dict[Tuple[str, float], Dict[str, float]] = {}
    for nic_kind in NIC_KINDS:
        for rate in DROP_RATES:
            result = build_scenario(_sweep_spec(nic_kind, rate)).run()
            flow = result.flows["oneway"]
            recovery = result.recovery["oneway"]
            sweeps[(nic_kind, rate)] = {
                "p50_us": flow["p50"],
                "p99_us": flow["p99"],
                "p999_us": flow["p999"],
                "delivered": recovery["delivered"],
                "lost": recovery["lost"],
                "drops": recovery["drops"],
                "retransmits": recovery["retransmits"],
                "timeouts": recovery["timeouts"],
            }
    return FaultsResult(sweeps=sweeps)


def format_report(result: FaultsResult) -> str:
    """One-way latency percentiles vs. drop rate, per NIC kind."""
    lines = [
        "Tail latency under packet loss "
        f"({PACKETS} x {SIZE_BYTES} B packets, timeout {TIMEOUT_NS / 1000:g} us)",
        f"{'nic':<12}{'drop':>7}{'p50':>9}{'p99':>9}{'p999':>10}"
        f"{'rexmit':>8}{'lost':>6}  (us)",
    ]
    for (kind, rate), stats in sorted(result.sweeps.items()):
        lines.append(
            f"{kind:<12}{rate:>7.0%}{stats['p50_us']:>9.2f}"
            f"{stats['p99_us']:>9.2f}{stats['p999_us']:>10.2f}"
            f"{stats['retransmits']:>8.0f}{stats['lost']:>6.0f}"
        )
    return "\n".join(lines)
