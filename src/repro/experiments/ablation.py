"""Design-choice ablations for the NetDIMM architecture.

The paper argues for four mechanisms; each ablation removes one and
measures what it was buying:

* **nCache** — without it, the header read after a clone goes to local
  DRAM through the (nNIC-contended) nMC instead of SRAM.
* **nPrefetcher** — without it, a consumer reading a full MTU payload
  takes an nCache miss per line instead of "at most one miss".
* **sub-array-hinted allocation** — without the hint, RX clones degrade
  from FPM to PSM/GCM.  (A finding this surfaces: FPM copies whole
  8 KB rank-rows, so for *single-line* packets the per-line PSM is
  actually cheaper — the hint pays off from a few cachelines up, i.e.
  for exactly the payload sizes the clone exists to accelerate.)
* **allocCache** — without it, every DMA-buffer allocation walks the
  slow page-allocator path on the packet critical path.

Plus a RowClone mode microbenchmark (FPM vs. PSM vs. GCM latency for
packet- and page-sized clones, the Fig. 8 cost hierarchy).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.core.netdimm import NetDIMMDevice
from repro.core.rowclone import CloneMode
from repro.dram.geometry import DRAMGeometry
from repro.driver.netdimm_node import NetDIMMNode
from repro.net.link import EthernetWire
from repro.net.packet import Packet
from repro.params import DEFAULT, SystemParams
from repro.sim import Simulator
from repro.units import CACHELINE, cachelines

SUMMARY = "design-choice ablations"

SIZES = (64, 1514)
VARIANTS = ("baseline", "no_ncache", "no_prefetch", "no_hint", "no_alloccache")


@dataclass(frozen=True)
class AblationResult:
    """One-way latencies per variant plus microbenchmarks."""

    one_way: Dict[Tuple[str, int], int]
    """(variant, size) -> one-way latency (ticks)."""

    payload_read: Dict[Tuple[str, int], int]
    """(variant, prefetch degree) -> full-MTU payload read time (ticks)."""

    clone_latency: Dict[Tuple[CloneMode, int], int]
    """(mode, size) -> in-memory clone latency (ticks)."""

    def slowdown(self, variant: str, size: int) -> float:
        """Variant latency / baseline latency at one size."""
        return self.one_way[(variant, size)] / self.one_way[("baseline", size)]

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe rendering (artifact schema v1)."""
        return {
            "one_way": [
                {"variant": variant, "size_bytes": size, "ticks": ticks}
                for (variant, size), ticks in sorted(self.one_way.items())
            ],
            "payload_read": [
                {"label": label, "degree": degree, "ticks": ticks}
                for (label, degree), ticks in sorted(self.payload_read.items())
            ],
            "clone_latency": [
                {"mode": mode.value, "size_bytes": size, "ticks": ticks}
                for (mode, size), ticks in sorted(
                    self.clone_latency.items(), key=lambda kv: (kv[0][0].value, kv[0][1])
                )
            ],
        }

    def metrics(self) -> Dict[str, float]:
        """Scalar metrics for artifact/target checking."""
        return {
            f"ablation.slowdown.{variant}.{size}B": self.slowdown(variant, size)
            for (variant, size) in self.one_way
            if variant != "baseline"
        }


def _variant_setup(variant: str, params: SystemParams):
    node_kwargs = {}
    if variant == "no_ncache":
        params = replace(params, netdimm=replace(params.netdimm, ncache_enabled=False))
    elif variant == "no_prefetch":
        params = replace(params, netdimm=replace(params.netdimm, nprefetch_degree=0))
    elif variant == "no_hint":
        node_kwargs["use_subarray_hint"] = False
    elif variant == "no_alloccache":
        node_kwargs["use_alloc_cache"] = False
    elif variant != "baseline":
        raise ValueError(f"unknown variant: {variant}")
    return params, node_kwargs


def _one_way_netdimm(params: SystemParams, size: int, **node_kwargs) -> int:
    sim = Simulator()
    sender = NetDIMMNode(sim, "tx", params=params, **node_kwargs)
    receiver = NetDIMMNode(sim, "rx", params=params, **node_kwargs)
    sender.warm_up()
    wire = EthernetWire(sim, "wire", params=params.network)

    def flow(packet: Packet):
        yield sender.transmit(packet)
        start = sim.now
        yield wire.transmit(packet.size_bytes)
        packet.breakdown.add("wire", sim.now - start)
        yield receiver.receive(packet)

    warm = Packet(size_bytes=size)
    sim.run_until(sim.spawn(flow(warm)).done, max_events=2_000_000)
    packet = Packet(size_bytes=size)
    sim.run_until(sim.spawn(flow(packet)).done, max_events=2_000_000)
    return packet.breakdown.total


def _payload_read_time(params: SystemParams, size: int) -> int:
    """Host reads a received packet line by line (DPI-style consumer)."""
    sim = Simulator()
    node = NetDIMMNode(sim, "node", params=params)
    node.warm_up()
    device: NetDIMMDevice = node.device
    buffer, _fast = node.alloc_cache.get(hint=None)
    descriptor = node.rx_ring.descriptor_address(0)
    sim.run_until(device.nic_receive_dma(buffer, size, descriptor), max_events=100_000)

    elapsed = {"ticks": 0}

    def reader():
        start = sim.now
        for line in range(cachelines(size)):
            yield node.port.read(buffer + line * CACHELINE, CACHELINE)
        elapsed["ticks"] = sim.now - start

    sim.run_until(sim.spawn(reader()).done, max_events=1_000_000)
    return elapsed["ticks"]


def _clone_latencies(params: SystemParams) -> Dict[Tuple[CloneMode, int], int]:
    geometry = DRAMGeometry()
    results: Dict[Tuple[CloneMode, int], int] = {}
    for size in (1514, 4096):
        for mode in CloneMode:
            sim = Simulator()
            device = NetDIMMDevice(sim, "nd", params, geometry)
            src = geometry.encode(rank=0, bank=0, subarray=0, row=0)
            if mode is CloneMode.FPM:
                dst = geometry.encode(rank=0, bank=0, subarray=0, row=4)
            elif mode is CloneMode.PSM:
                dst = geometry.encode(rank=0, bank=3, subarray=7, row=4)
            else:
                dst = geometry.encode(rank=1, bank=3, subarray=7, row=4)
            assert device.clone_mode(dst, src) is mode
            start = sim.now
            sim.run_until(device.clone(dst, src, size), max_events=100_000)
            results[(mode, size)] = sim.now - start
    return results


def run(params: Optional[SystemParams] = None) -> AblationResult:
    """Run every ablation variant and microbenchmark."""
    params = params or DEFAULT
    one_way: Dict[Tuple[str, int], int] = {}
    for variant in VARIANTS:
        variant_params, node_kwargs = _variant_setup(variant, params)
        for size in SIZES:
            one_way[(variant, size)] = _one_way_netdimm(
                variant_params, size, **node_kwargs
            )

    payload_read: Dict[Tuple[str, int], int] = {}
    for label, degree in (("prefetch_on", params.netdimm.nprefetch_degree), ("prefetch_off", 0)):
        tuned = replace(params, netdimm=replace(params.netdimm, nprefetch_degree=degree))
        payload_read[(label, degree)] = _payload_read_time(tuned, 1514)

    return AblationResult(
        one_way=one_way,
        payload_read=payload_read,
        clone_latency=_clone_latencies(params),
    )


def format_report(result: AblationResult) -> str:
    """All ablation tables."""
    lines = ["Ablations — one-way latency vs. NetDIMM baseline"]
    header = f"{'variant':<16}" + "".join(f"{size:>8}B" for size in SIZES)
    lines.append(header)
    for variant in VARIANTS:
        row = f"{variant:<16}"
        for size in SIZES:
            row += f"{result.one_way[(variant, size)] / 1e6:>9.2f}"
        if variant != "baseline":
            row += "   (" + ", ".join(
                f"x{result.slowdown(variant, size):.2f}" for size in SIZES
            ) + ")"
        lines.append(row)

    lines.append("")
    lines.append("full-MTU payload read by the host (DPI-style):")
    for (label, _degree), ticks in result.payload_read.items():
        lines.append(f"  {label:<14}{ticks / 1e3:>8.0f} ns")

    lines.append("")
    lines.append("in-memory clone latency (Fig. 8 cost hierarchy):")
    for (mode, size), ticks in sorted(
        result.clone_latency.items(), key=lambda kv: (kv[0][1], kv[0][0].value)
    ):
        lines.append(f"  {mode.value.upper():<5}{size:>6}B {ticks / 1e3:>8.0f} ns")
    return "\n".join(lines)
