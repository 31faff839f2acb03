"""Calibrated model parameters with provenance.

Every timing constant used by the reproduction lives here, grouped per
subsystem, each with a note on where it comes from: the NetDIMM paper
itself, the papers it cites ([20] PCIe model, [37] DRAM controller model,
[59] PCIe characterization, [61] RowClone), public datasheets, or — where
the paper gives only an aggregate — calibration against the aggregate
(marked *calibrated*).

The experiments never embed raw numbers; they read them from these
dataclasses so ablations can tweak a single field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping

from repro.units import Gbps, GBps, ns, us

CALIBRATED_PARAMS_SCHEMA = "netdimm-repro/calibrated-params"
"""Schema string of a calibrated-params overlay artifact — the output
of ``python -m repro calibrate`` (see ``docs/calibration.md``)."""

CALIBRATED_PARAMS_SCHEMA_VERSION = 1
"""Current calibrated-params revision.  v1: ``overrides`` is the
nested ``{section: {field: ticks}}`` mapping :func:`apply_overrides`
takes, ``constants``/``fitness`` are provenance and diagnostics."""

# ---------------------------------------------------------------------------
# Software / driver operation costs (Table 1 CPU: 8-core 3.4 GHz OoO).
# These are the per-operation costs of the bare-metal driver models the
# paper uses for latency evaluation (Sec. 5.1: "we implement a set of
# bare-metal drivers ... that resemble low-latency userspace drivers").
# ---------------------------------------------------------------------------


RX_NOTIFICATION_MODES = ("polling", "interrupt")
"""Valid ``SoftwareParams.rx_notification`` values.  Validated once at
construction so the per-packet RX path never re-checks the string."""


@dataclass(frozen=True)
class SoftwareParams:
    """Per-operation driver-software costs."""

    tx_setup: int = ns(100)
    """Driver transmit-function entry: argument checks, ring-state reads
    (~340 cycles at 3.4 GHz).  *Calibrated* within the txCopy segment of
    Fig. 11."""

    rx_skb_alloc: int = ns(100)
    """SKB allocation + initialization on the receive path (Sec. 2.1 R5).
    *Calibrated* within the rxCopy segment of Fig. 11."""

    copy_line_initial: int = ns(25)
    """CPU memcpy cost per cacheline while latency-bound (the first few
    lines miss serially: ~85 cycles per line).  Applies to the first
    ``copy_line_breakpoint`` lines."""

    copy_line_steady: int = ns(14)
    """Per-line memcpy cost once the hardware prefetcher streams
    (0.22 ns/B = ~4.5 GB/s single-thread).  Consistent with the paper's
    "copying a 4KB page over a DDR3 memory channel takes ~1us" [61]:
    64 lines x 14 ns + startup ~= 1 us."""

    copy_line_breakpoint: int = 16
    """Line count at which memcpy transitions from latency-bound to
    streaming."""

    copy_line_llc: int = ns(10)
    """Per-line memcpy cost when the source is LLC-resident — every dNIC
    and iNIC RX copy: the packet data was just DMA'd into the LLC, so the
    driver's copy to application space reads it at LLC latency instead
    of DRAM."""

    copy_base: int = ns(180)
    """Fixed buffer-management cost around each packet copy: bounce-buffer
    lookup, DMA mapping, cache-state transitions.  *Calibrated* so that
    zero copy helps even 10 B packets by ~29%, as Fig. 4 reports — the
    gain at tiny sizes is all fixed cost, not bytes."""

    zero_copy_pin_cost: int = ns(20)
    """Per-packet page-pinning/unpinning bookkeeping for zero-copy drivers
    (Sec. 3 L1: virtual-memory operation overhead; pinning is amortized
    over a flow, leaving ref-count updates per packet).  *Calibrated*
    (same Fig. 4 constraint as ``copy_base``)."""

    flush_base: int = ns(45)
    """Cache-flush instruction issue + fence cost (txFlush, Alg. 1 line 6).
    *Calibrated* so txFlush+rxInvalidate land in the 9.7-15.8% share the
    paper reports (Sec. 5.2)."""

    flush_per_line: int = ns(4)
    """Incremental cost per flushed cacheline (writeback issue)."""

    invalidate_base: int = ns(40)
    """Cache-invalidate cost on the RX path (rxInvalidate, Alg. 1 line 12).
    *Calibrated* (same constraint as flush_base)."""

    invalidate_per_line: int = ns(4)
    """Incremental cost per invalidated cacheline."""

    alloc_cache_hit: int = ns(25)
    """allocCache hash-table lookup returning a pre-allocated page
    (Sec. 4.2.2: "allocCache immediately returns a page").  *Calibrated*."""

    alloc_pages_slow: int = ns(600)
    """Full __alloc_netdimm_pages() call when allocCache misses (buddy
    allocator walk).  Order of a kernel page allocation (~2k cycles)."""

    poll_iteration: int = ns(30)
    """One iteration of the polling agent's loop body (load + compare +
    branch), excluding the memory access it polls on."""

    rx_notification: str = "polling"
    """How the driver learns about RX completions: "polling" (the
    paper's low-latency deployment, Sec. 2.1) or "interrupt"."""

    interrupt_overhead: int = ns(1800)
    """Interrupt delivery + handler entry + context switch + softirq
    scheduling (~2 us total, Sec. 2.1: "interrupt handling ... can delay
    the packet processing for several microseconds")."""

    interrupt_moderation: int = ns(8000)
    """Interrupt-moderation (coalescing) window; a packet waits on
    average half of it before the IRQ fires.  Typical NIC defaults sit
    at tens of microseconds; 8 us is a latency-leaning setting."""

    def __post_init__(self):
        if self.rx_notification not in RX_NOTIFICATION_MODES:
            raise ValueError(
                f"unknown rx_notification: {self.rx_notification!r} "
                f"(expected one of {RX_NOTIFICATION_MODES})"
            )


# ---------------------------------------------------------------------------
# PCIe analytical model, after Neugebauer et al. [59] and Alian et al. [20].
# Table 1: "PCIe performance: x8 PCIe 4 [59]".
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PCIeParams:
    """PCIe Gen4 x8 link model parameters."""

    generation: int = 4
    lanes: int = 8

    gts_per_lane: float = 16.0
    """GT/s per lane for Gen4 (PCIe 4.0 spec)."""

    encoding_efficiency: float = 128 / 130
    """128b/130b encoding (Gen3+)."""

    tlp_header_bytes: int = 18
    """TLP framing per packet with 64-bit addressing: 2 B framing + 4 B
    sequence/DLLP + 12 B header (3DW w/o data = 16 B hdr w/ 4DW) + LCRC.
    Matches the per-TLP overhead used in [59] Sec. 3 (we use 18 B: STP/END
    2 + seq 2 + hdr 12 + LCRC 4 with 32-bit addr; 64-bit adds 4)."""

    max_payload_size: int = 256
    """MPS in bytes — common server configuration [59]."""

    max_read_request_size: int = 512
    """MRRS in bytes [59]."""

    propagation: int = ns(65)
    """One-way TLP traversal latency: PHY serialization/deserialization,
    link + root-complex pipeline.  [59] measures ~900 ns median round
    trip for a register read on an x8 Gen3 NIC with FPGA endpoints;
    a Gen4 server NIC's ASIC path is substantially shorter.
    *Calibrated* (jointly with ``completion_overhead`` and the per-line
    DMA costs below) against the dNIC bars of Fig. 11."""

    completion_overhead: int = ns(25)
    """Device-side latency to turn a read request into a completion TLP
    (root complex or endpoint internal pipeline) [59].  *Calibrated*."""

    mmio_read_extra: int = ns(60)
    """Extra CPU-side cost of a blocking uncached MMIO read (fill buffer
    occupancy until completion returns)."""

    dma_line_cost_initial: int = ns(30)
    """Per-cacheline pipeline cost for the 2nd..breakpoint-th line of a
    DMA transfer.  The NIC's DMA engine issues line-granular requests
    with limited non-posted credits, so short transfers scale almost
    linearly in line count — this is what gives the paper's dNIC its
    steep latency-vs-size slope between 64 B and 256 B (Fig. 11 left).
    *Calibrated* to that slope."""

    dma_line_cost_steady: int = ns(8)
    """Per-cacheline cost once the request pipeline is primed (lines past
    the breakpoint).  *Calibrated* to the 256 B..8 KB slope of Fig. 11."""

    dma_pipeline_breakpoint: int = 4
    """Line count at which the DMA request pipeline reaches steady state."""

    doorbell_write_cost: int = ns(60)
    """CPU-observed cost of a posted MMIO write (write-combining buffer
    drain); the write itself completes asynchronously."""


# ---------------------------------------------------------------------------
# DRAM timing.  DDR4-2400 per Table 1 and the Micron MT40A512M16 datasheet
# [56]; DDR5 projections for NetDIMM's host channel (Sec. 5.2: "DDR5 memory
# channel's projected bandwidth is twice more than that of a DDR4 channel").
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DRAMTimingParams:
    """Timing for one DRAM channel/device generation (all in ticks)."""

    name: str = "DDR4-2400"
    data_rate_mtps: int = 2400
    """MT/s on the data bus."""

    channel_bytes_per_ps: float = GBps(19.2)
    """Peak channel bandwidth: 64-bit bus x 2400 MT/s = 19.2 GB/s.
    (The paper quotes 12.8 GB/s for DDR4-1600-class channels in Sec. 3;
    Table 1 configures DDR4-2400.)"""

    tCL: int = ns(13.75)  # CAS latency, 2400 CL=17 -> 14.2ns; JEDEC bin 13.75
    tRCD: int = ns(13.75)
    tRP: int = ns(13.75)
    tRAS: int = ns(32)
    tBURST: int = ns(3.33)
    """8-beat burst at 2400 MT/s = 3.33 ns per 64 B cacheline."""

    tCMD: int = ns(1.25)
    """Command bus occupancy (Sec. 5.1: host MC forwards a NetDIMM request
    after a tCMD delay)."""

    tWR: int = ns(15)
    tCCD: int = ns(2.5)
    """Column-to-column delay (back-to-back CAS to different banks)."""


def ddr4_2400() -> DRAMTimingParams:
    """Host-channel DDR4-2400 timing (Table 1)."""
    return DRAMTimingParams()


def ddr5_4800() -> DRAMTimingParams:
    """DDR5-4800 timing for the NetDIMM-facing channel model.

    Absolute latencies stay near-constant across generations; bandwidth
    doubles (Sec. 5.2).
    """
    return DRAMTimingParams(
        name="DDR5-4800",
        data_rate_mtps=4800,
        channel_bytes_per_ps=GBps(38.4),
        tCL=ns(13.3),
        tRCD=ns(13.3),
        tRP=ns(13.3),
        tRAS=ns(32),
        tBURST=ns(1.67),  # two 32-bit subchannels in parallel: 64 B per
        # BL16 burst pair at 4800 MT/s = 38.4 GB/s
        tCMD=ns(0.83),
        tWR=ns(15),
        tCCD=ns(1.66),
    )


# ---------------------------------------------------------------------------
# NVDIMM-P asynchronous protocol (Sec. 2.2, Fig. 3(b)).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NVDIMMPParams:
    """Timing of the XRD / RDY / SEND asynchronous transaction."""

    xrd_cost: int = ns(5)
    """XRD command issue on the CA pins (command + full address + ID)."""

    rdy_to_send: int = ns(4)
    """Host MC turnaround from observing RDY on RSP pins to issuing SEND."""

    send_to_data: int = ns(10)
    """Fixed delay between SEND and data on DQ (spec'd "specific amount of
    time", Fig. 3(b))."""

    write_post_cost: int = ns(5)
    """XWR posting cost; writes complete asynchronously at the DIMM."""


# ---------------------------------------------------------------------------
# NetDIMM buffer device (Sec. 4.1).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetDIMMParams:
    """nCache / nPrefetcher / nController / RowClone parameters."""

    ncache_enabled: bool = True
    """Ablation switch: disable nCache (header reads then go to the
    local DRAM through the nMC like any other line)."""

    ncache_lines: int = 2048
    """nCache capacity in 64 B lines (128 KB dual-port SRAM buffer)."""

    ncache_ways: int = 8
    """Set associativity of nCache."""

    ncache_hit_latency: int = ns(2)
    """SRAM read latency of nCache."""

    ncontroller_latency: int = ns(6)
    """nController routing/decision pipeline per request."""

    nprefetch_degree: int = 4
    """Next-line prefetch depth *n* (Sec. 4.1: "prefetches the next n
    cachelines")."""

    # RowClone latencies from Seshadri et al. [61], scaled to a 1 KB row
    # (Fig. 9: row = 1 KB per device; a rank-level copy moves 8 KB across
    # the 8 x8 devices in lockstep).
    rowclone_fpm_per_row: int = ns(90)
    """FPM: two back-to-back ACTIVATEs + PRECHARGE within a sub-array
    (~tRAS + tRP + tRCD; [61] reports 90 ns per row copy)."""

    rowclone_psm_per_line: int = ns(5)
    """PSM: pipelined cacheline copy over the internal device bus
    ([61]: one READ+WRITE internally pipelined per cacheline)."""

    rowclone_gcm_per_line: int = ns(11)
    """GCM: read to buffer device + write back through nMC — a full
    column read plus a column write per line, pipelined."""

    rowclone_issue_cost: int = ns(10)
    """nController cost to decode a netdimmClone register write and issue
    the copy command sequence."""

    clone_register_write: int = ns(15)
    """Host-side cost to write dst/src/size into the NetDIMM clone
    registers over the memory channel (pipelined posted writes)."""


# ---------------------------------------------------------------------------
# Ethernet / fabric (Table 1: 40GbE, switch latency 100 ns default).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkParams:
    """Link and switch parameters."""

    link_bytes_per_ps: float = Gbps(40)
    ethernet_overhead_bytes: int = 24
    """Preamble (8) + FCS (4) + inter-frame gap (12)."""

    min_frame_bytes: int = 64
    """Minimum Ethernet frame (packets pad up to this on the wire)."""

    mac_phy_latency: int = ns(120)
    """Per-NIC MAC+PHY pipeline latency (one side).  40GbE PHYs measure
    ~120-450 ns through PCS/FEC depending on FEC mode; *calibrated*
    within the wire segment of Fig. 11."""

    propagation: int = ns(25)
    """Cable propagation (~5 m at 5 ns/m)."""

    switch_latency: int = ns(100)
    """Per-hop switch latency (Table 1 default; swept 25-200 ns in
    Fig. 12(a))."""

    mtu_bytes: int = 1514
    """Sec. 5.1: MTU is set to 1514 B for the Facebook traces."""

    def framed_bytes(self, size_bytes: int) -> int:
        """On-wire bytes for a packet: minimum-frame padding + framing.

        The single source of truth for Ethernet framing — the wire
        model, the switch's closed-form and event-driven paths, and the
        fabric's uplink serialization all call this, so an MTU or
        overhead change cannot make them disagree.
        """
        return max(size_bytes, self.min_frame_bytes) + self.ethernet_overhead_bytes


# ---------------------------------------------------------------------------
# NIC device internals (common to dNIC / iNIC / nNIC).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NICDeviceParams:
    """DMA-engine and device-pipeline costs shared by the NIC models."""

    dma_setup: int = ns(100)
    """Per-transfer DMA-engine startup (descriptor decode, address
    translation, scatter-gather walk).  Order of the per-descriptor
    processing time of a 40GbE controller.  *Calibrated* within the
    txDMA/rxDMA segments of Fig. 11."""

    nnic_dma_setup: int = ns(30)
    """Per-transfer setup for the NetDIMM nController's DMA function —
    much smaller than a discrete engine's: no bus mastering, no IOMMU
    walk, descriptor and buffer both a few nanoseconds away on the
    DIMM."""

    inic_register_latency: int = ns(20)
    """Uncached on-die register access for the integrated NIC
    (~70 cycles at 3.4 GHz)."""

    inic_line_cost: int = ns(15)
    """Per-cacheline cost of iNIC DMA through the coherent on-die fabric
    (snoop + LLC slice hop per line) for the first
    ``inic_line_breakpoint`` lines.  *Calibrated* to the iNIC size slope
    of Fig. 11 (middle)."""

    inic_line_cost_steady: int = ns(4)
    """Per-line cost once the on-die DMA stream is primed."""

    inic_line_breakpoint: int = 8
    """Line count at which iNIC DMA reaches streaming rate."""

    inic_desc_fetch: int = ns(40)
    """iNIC descriptor fetch through the coherent fabric (LLC hit)."""

    host_poll_read: int = ns(45)
    """Polling read of a descriptor status word in host memory (an LLC
    hit: the line was just written by DDIO / stays resident)."""

    mac_rx_pipeline: int = ns(50)
    """nNIC/dNIC MAC RX processing before DMA starts (checksum offload,
    filtering)."""


# ---------------------------------------------------------------------------
# Cache hierarchy / DDIO (Table 1 + Sec. 2.1).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CacheParams:
    """Host cache hierarchy parameters (Table 1)."""

    l1d_size: int = 64 * 1024
    l1_assoc: int = 2
    l2_size: int = 2 * 1024 * 1024
    """Table 1 stops at a 2 MB L2, which therefore acts as the LLC."""

    l2_assoc: int = 16
    l2_latency: int = ns(3.5)  # 12 cycles

    ddio_way_fraction: float = 0.10
    """DDIO is limited to ~10% of LLC capacity (Sec. 2.1, [9])."""


# ---------------------------------------------------------------------------
# The complete system configuration.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemParams:
    """Everything an experiment needs, bundled."""

    software: SoftwareParams = field(default_factory=SoftwareParams)
    pcie: PCIeParams = field(default_factory=PCIeParams)
    host_dram: DRAMTimingParams = field(default_factory=ddr4_2400)
    netdimm_dram: DRAMTimingParams = field(default_factory=ddr5_4800)
    nvdimmp: NVDIMMPParams = field(default_factory=NVDIMMPParams)
    netdimm: NetDIMMParams = field(default_factory=NetDIMMParams)
    network: NetworkParams = field(default_factory=NetworkParams)
    cache: CacheParams = field(default_factory=CacheParams)
    nic: NICDeviceParams = field(default_factory=NICDeviceParams)

    num_cores: int = 8
    core_ghz: float = 3.4
    num_host_channels: int = 2
    """Table 1: DDR4 2400 MHz / 16 GB / 2 channels."""

    def with_switch_latency(self, latency: int) -> "SystemParams":
        """A copy with a different per-hop switch latency (Fig. 12(a) sweep)."""
        return replace(self, network=replace(self.network, switch_latency=latency))


DEFAULT = SystemParams()
"""The Table 1 configuration used by all experiments unless overridden."""


def validate_overrides(
    overrides: Mapping[str, object], params: SystemParams = DEFAULT
) -> None:
    """Check override *names* without applying them.

    Raises ``ValueError`` on an unknown section or nested field name —
    the same checks :func:`apply_overrides` performs, split out so the
    scenario spec layer can reject a typo'd override at parse time
    (when the file is loaded) instead of at build time.
    """
    for section, value in overrides.items():
        if not hasattr(params, section):
            raise ValueError(f"unknown SystemParams field: {section!r}")
        if isinstance(value, Mapping):
            current = getattr(params, section)
            for name in value:
                if not hasattr(current, name):
                    raise ValueError(
                        f"unknown {section} parameter: {name!r}"
                    )


def apply_overrides(
    params: SystemParams, overrides: Mapping[str, object]
) -> SystemParams:
    """Apply nested ``{section: {field: value}}`` overrides to params.

    A mapping value patches fields inside that parameter section; a
    plain value replaces a top-level :class:`SystemParams` field.
    Unknown names raise (via :func:`validate_overrides`), so spec typos
    fail loudly.  This is the one parameter-overriding mechanism:
    component constructors and the scenario builder both route
    per-instance customization through it.
    """
    validate_overrides(overrides, params)
    for section, value in overrides.items():
        if isinstance(value, Mapping):
            current = getattr(params, section)
            params = replace(params, **{section: replace(current, **value)})
        else:
            params = replace(params, **{section: value})
    return params


def load_calibrated_overlay(path: str) -> Dict[str, Dict[str, Any]]:
    """The override mapping of a calibrated-params artifact on disk.

    Validates the document's ``schema``/``schema_version`` and the
    override *names* (via :func:`validate_overrides`) before returning
    the nested ``{section: {field: value}}`` mapping — ready for
    :func:`apply_overrides`, a scenario spec's ``overrides`` section,
    or :func:`calibrated_system_params` below.  Foreign schemas and
    future versions are rejected loudly, never half-read.
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    schema = document.get("schema")
    if schema != CALIBRATED_PARAMS_SCHEMA:
        raise ValueError(
            f"{path}: not a calibrated-params artifact "
            f"(schema {schema!r}, expected {CALIBRATED_PARAMS_SCHEMA!r})"
        )
    version = document.get("schema_version")
    if version != CALIBRATED_PARAMS_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: calibrated-params schema_version {version!r} is "
            f"not supported (this build reads "
            f"v{CALIBRATED_PARAMS_SCHEMA_VERSION})"
        )
    overrides = document.get("overrides")
    if not isinstance(overrides, Mapping):
        raise ValueError(f"{path}: calibrated-params has no overrides mapping")
    validate_overrides(overrides)
    return {section: dict(fields) for section, fields in overrides.items()}


def calibrated_system_params(
    path: str, base: SystemParams = DEFAULT
) -> SystemParams:
    """``base`` patched by a calibrated-params artifact from disk."""
    return apply_overrides(base, load_calibrated_overlay(path))


def table1_report(params: SystemParams = DEFAULT) -> Dict[str, str]:
    """Render the Table 1 system configuration as label -> value rows."""
    return {
        "Cores (# cores, freq)": f"({params.num_cores}, {params.core_ghz}GHz)",
        "Caches (size, assoc): L1D/L2": (
            f"{params.cache.l1d_size // 1024}KB,{params.cache.l1_assoc}/"
            f"{params.cache.l2_size // (1024 * 1024)}MB,{params.cache.l2_assoc}ways"
        ),
        "DRAM": (
            f"{params.host_dram.name}/16GB/{params.num_host_channels} channels"
        ),
        "Network/Switch latency/#NetDIMM": (
            f"40GbE/{params.network.switch_latency // 1000}ns/1"
        ),
        "PCIe performance": (
            f"x{params.pcie.lanes} PCIe {params.pcie.generation} [59]"
        ),
    }
