"""Sec. 4.3 — physical feasibility of NetDIMM, made quantitative.

The paper's argument: a Centaur-class DIMM buffer device dissipates
20 W [54]; a dual-40GbE NIC controller needs 6.5 W [39]; therefore a
buffer device integrating a NIC fits an existing thermal envelope.
This experiment reports the full TDP budget and, as a bonus the paper
gestures at but does not compute, the per-packet data-movement energy
of the three architectures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.power import PowerModel, PowerParams

SUMMARY = "TDP budget + per-packet energy (Sec. 4.3)"

SIZES = (64, 256, 1514)
CONFIGS = ("dnic", "inic", "netdimm")


@dataclass(frozen=True)
class FeasibilityResult:
    """TDP budget and per-packet energy table."""

    tdp_breakdown: Dict[str, float]
    buffer_tdp_w: float
    envelope_w: float
    fits: bool
    packet_energy_nj: Dict[Tuple[str, int], float]

    def energy_saving(self, size: int, baseline: str = "dnic") -> float:
        """NetDIMM energy reduction vs. a baseline at one size."""
        return 1 - (
            self.packet_energy_nj[("netdimm", size)]
            / self.packet_energy_nj[(baseline, size)]
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe rendering (artifact schema v1)."""
        return {
            "tdp_breakdown": dict(self.tdp_breakdown),
            "buffer_tdp_w": self.buffer_tdp_w,
            "envelope_w": self.envelope_w,
            "fits": self.fits,
            "packet_energy_nj": [
                {"config": config, "size_bytes": size, "nj": nj}
                for (config, size), nj in sorted(self.packet_energy_nj.items())
            ],
        }

    def metrics(self) -> Dict[str, float]:
        """Scalar metrics for artifact/target checking."""
        metrics = {
            "feasibility.buffer_tdp_w": self.buffer_tdp_w,
            "feasibility.fits": 1.0 if self.fits else 0.0,
        }
        for size in SIZES:
            metrics[f"feasibility.energy_saving.{size}B"] = self.energy_saving(size)
        return metrics


def run(params: Optional[PowerParams] = None) -> FeasibilityResult:
    """Evaluate the power model."""
    model = PowerModel(params or PowerParams())
    return FeasibilityResult(
        tdp_breakdown=model.tdp_breakdown(),
        buffer_tdp_w=model.buffer_device_tdp_w(),
        envelope_w=model.params.centaur_buffer_tdp_w,
        fits=model.fits_centaur_envelope(),
        packet_energy_nj={
            (config, size): model.packet_energy_nj(config, size)
            for config in CONFIGS
            for size in SIZES
        },
    )


def format_report(result: FeasibilityResult) -> str:
    """TDP budget plus the energy comparison."""
    lines = ["Sec. 4.3 — physical feasibility"]
    lines.append("NetDIMM buffer-device TDP budget:")
    for block, watts in result.tdp_breakdown.items():
        lines.append(f"  {block:<22}{watts:>6.1f} W")
    verdict = "fits" if result.fits else "EXCEEDS"
    lines.append(
        f"  {'total':<22}{result.buffer_tdp_w:>6.1f} W  ({verdict} the "
        f"{result.envelope_w:.0f} W Centaur envelope [54])"
    )
    lines.append("\nper-packet data-movement energy (nJ):")
    header = f"{'config':<10}" + "".join(f"{size:>8}B" for size in SIZES)
    lines.append(header)
    for config in CONFIGS:
        row = f"{config:<10}"
        for size in SIZES:
            row += f"{result.packet_energy_nj[(config, size)]:>9.1f}"
        lines.append(row)
    lines.append(
        "NetDIMM vs dNIC energy: "
        + ", ".join(
            f"{size}B=-{result.energy_saving(size):.0%}" for size in SIZES
        )
        + "  (in-array cloning replaces channel-crossing copies)"
    )
    return "\n".join(lines)
