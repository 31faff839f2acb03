"""The kernel-stack dilution experiment (Sec. 5.1's methodology note).

The paper measures latency with bare-metal drivers "because the
overhead of Linux kernel software stack fades the latency improvements
of NetDIMM".  Here we *add the kernel back*: stack the per-layer
TCP/IP cost model on top of each configuration's driver path and watch
the relative improvement shrink while the absolute saving stays — the
quantitative version of the paper's sentence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.driver.stack import KernelStackModel, KernelStackParams
from repro.experiments.oneway import measure_one_way
from repro.params import DEFAULT, SystemParams

SUMMARY = "kernel-stack dilution (Sec. 5.1)"

CONFIGS = ("dnic", "inic", "netdimm")
SIZES = (64, 256, 1024)


@dataclass(frozen=True)
class KernelStackResult:
    """Bare-metal and kernel-stacked latency per (config, size)."""

    bare: Dict[Tuple[str, int], int]
    kernel: Dict[Tuple[str, int], int]
    stack_overhead: Dict[int, int]

    def improvement(self, mode: str, size: int) -> float:
        """NetDIMM vs. dNIC reduction under one mode."""
        table = self.bare if mode == "bare" else self.kernel
        return 1 - table[("netdimm", size)] / table[("dnic", size)]

    def absolute_saving(self, mode: str, size: int) -> int:
        """Ticks saved by NetDIMM vs. dNIC under one mode."""
        table = self.bare if mode == "bare" else self.kernel
        return table[("dnic", size)] - table[("netdimm", size)]

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe rendering (artifact schema v1)."""
        return {
            "bare": [
                {"config": config, "size_bytes": size, "ticks": ticks}
                for (config, size), ticks in sorted(self.bare.items())
            ],
            "kernel": [
                {"config": config, "size_bytes": size, "ticks": ticks}
                for (config, size), ticks in sorted(self.kernel.items())
            ],
            "stack_overhead": {
                str(size): ticks for size, ticks in sorted(self.stack_overhead.items())
            },
        }

    def metrics(self) -> Dict[str, float]:
        """Scalar metrics for artifact/target checking."""
        metrics: Dict[str, float] = {}
        for size in sorted(self.stack_overhead):
            metrics[f"kernel_stack.improvement.bare.{size}B"] = self.improvement(
                "bare", size
            )
            metrics[f"kernel_stack.improvement.kernel.{size}B"] = self.improvement(
                "kernel", size
            )
        return metrics


def run(
    params: Optional[SystemParams] = None,
    stack_params: Optional[KernelStackParams] = None,
) -> KernelStackResult:
    """Measure all configurations bare-metal and kernel-stacked."""
    params = params or DEFAULT
    stack = KernelStackModel(stack_params or KernelStackParams())
    bare: Dict[Tuple[str, int], int] = {}
    kernel: Dict[Tuple[str, int], int] = {}
    overhead: Dict[int, int] = {}
    for size in SIZES:
        overhead[size] = stack.round_trip_overhead(size)
        for config in CONFIGS:
            ticks = measure_one_way(config, size, params).total_ticks
            bare[(config, size)] = ticks
            kernel[(config, size)] = ticks + overhead[size]
    return KernelStackResult(bare=bare, kernel=kernel, stack_overhead=overhead)


def format_report(result: KernelStackResult) -> str:
    """Bare vs. kernel improvement comparison."""
    lines = ["Kernel-stack dilution — NetDIMM improvement vs. PCIe NIC"]
    lines.append(
        f"{'size':<8}{'stack cost':>12}{'bare imp.':>12}{'kernel imp.':>13}"
        f"{'abs. saving':>13}"
    )
    for size in SIZES:
        lines.append(
            f"{size:>6}B {result.stack_overhead[size] / 1e6:>10.2f}us"
            f"{result.improvement('bare', size):>12.1%}"
            f"{result.improvement('kernel', size):>13.1%}"
            f"{result.absolute_saving('kernel', size) / 1e6:>11.2f}us"
        )
    lines.append(
        "\nThe absolute saving survives the kernel; the relative improvement "
        "fades — which is why the paper evaluates with bare-metal drivers."
    )
    return "\n".join(lines)
