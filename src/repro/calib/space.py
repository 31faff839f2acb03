"""The calibration search space: which constants may move, and how far.

Only constants marked ``*Calibrated*`` in :mod:`repro.params` are
tunable — everything else is paper-stated, cited, or datasheet-sourced
and moving it would un-reproduce the paper rather than re-fit the
model.  :data:`CALIBRATABLE` is that whitelist: one entry per
calibratable constant, carrying the provenance note and the paper
figure(s) whose targets constrain it (``docs/calibration.md`` renders
the same table for humans).

A :class:`SearchSpace` is a list of :class:`Axis` entries — a
whitelisted constant plus bounds and a step, authored in nanoseconds
(the unit the provenance notes speak) and stored in simulator ticks.
Spaces round-trip through JSON strictly: unknown keys and
non-whitelisted constants are errors, not warnings.

Candidate identity is the canonical :func:`param_id` string of the
candidate's tick values, which is also what seeds the trial via
``runtime.seeds.derive(param_id, base_seed)`` — stable across
processes and interpreter restarts, never ``hash()``.

>>> axis = Axis(param="software.copy_base", low_ns=140, high_ns=220,
...             step_ns=20)
>>> axis.default_ticks
180000
>>> param_id({"software.copy_base": 160000})
'calib[software.copy_base=160000]'
>>> param_id({})
'calib[baseline]'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.params import DEFAULT, SystemParams
from repro.units import ns

__all__ = [
    "CALIBRATABLE",
    "CalibratedConstant",
    "Axis",
    "SearchSpace",
    "param_id",
    "nested_overrides",
]


@dataclass(frozen=True)
class CalibratedConstant:
    """One whitelisted constant: its provenance and its constraints."""

    name: str
    """Dotted ``section.field`` path inside :class:`SystemParams`."""

    figures: Tuple[str, ...]
    """Paper-figure prefixes (= target-name prefixes in
    ``PAPER_TARGETS``) whose acceptance bands constrain this constant."""

    note: str
    """The ``*Calibrated*`` provenance note, condensed from params.py /
    docs/calibration.md."""


CALIBRATABLE: Dict[str, CalibratedConstant] = {
    constant.name: constant
    for constant in [
        CalibratedConstant(
            "software.tx_setup",
            ("fig11",),
            "driver TX entry cost; calibrated within Fig. 11's txCopy "
            "segment",
        ),
        CalibratedConstant(
            "software.rx_skb_alloc",
            ("fig11",),
            "SKB allocation on RX; calibrated within Fig. 11's rxCopy "
            "segment",
        ),
        CalibratedConstant(
            "software.copy_base",
            ("fig4", "fig11"),
            "fixed per-copy buffer-management cost; calibrated so zero "
            "copy helps even 10 B packets by ~29% (Fig. 4)",
        ),
        CalibratedConstant(
            "software.zero_copy_pin_cost",
            ("fig4",),
            "per-packet pin/unpin bookkeeping; same Fig. 4 constraint "
            "as copy_base",
        ),
        CalibratedConstant(
            "software.copy_line_initial",
            ("fig11",),
            "latency-bound memcpy cost per line; Fig. 11's "
            "latency-vs-size slopes",
        ),
        CalibratedConstant(
            "software.copy_line_steady",
            ("fig11",),
            "streaming memcpy cost per line; Fig. 11 slopes and the "
            "paper's ~1 us 4 KB page copy",
        ),
        CalibratedConstant(
            "software.copy_line_llc",
            ("fig11",),
            "per-line cost of every dNIC/iNIC RX copy, which reads the "
            "payload the NIC just DMA'd into the LLC; the host NICs' "
            "large-packet totals in Fig. 11",
        ),
        CalibratedConstant(
            "software.flush_base",
            ("fig11",),
            "txFlush issue cost; flush+invalidate must land in the "
            "9.7-15.8% share of Sec. 5.2",
        ),
        CalibratedConstant(
            "software.invalidate_base",
            ("fig11",),
            "rxInvalidate cost; same Sec. 5.2 share constraint as "
            "flush_base",
        ),
        CalibratedConstant(
            "software.alloc_cache_hit",
            ("fig11",),
            "allocCache hit path; inside NetDIMM's absolute totals "
            "(Fig. 11 right)",
        ),
        CalibratedConstant(
            "pcie.propagation",
            ("fig4", "fig11"),
            "one-way TLP traversal; dNIC's ~0.42 us I/O-register "
            "segment and 64 B total",
        ),
        CalibratedConstant(
            "pcie.completion_overhead",
            ("fig4", "fig11"),
            "read-to-completion device latency; jointly calibrated "
            "with pcie.propagation",
        ),
        CalibratedConstant(
            "pcie.dma_line_cost_initial",
            ("fig11",),
            "line-granular DMA pipeline cost; the dNIC's steep "
            "64-256 B slope in Fig. 11",
        ),
        CalibratedConstant(
            "pcie.dma_line_cost_steady",
            ("fig11",),
            "primed DMA pipeline cost; the dNIC's 256 B-8 KB slope",
        ),
        CalibratedConstant(
            "nic.dma_setup",
            ("fig11",),
            "per-transfer DMA-engine startup; Fig. 11's txDMA/rxDMA "
            "segments",
        ),
        CalibratedConstant(
            "nic.inic_line_cost",
            ("fig4", "fig11"),
            "coherent-fabric DMA cost per line; iNIC's improvement "
            "must shrink ~35%→~20% with size (Fig. 4)",
        ),
        CalibratedConstant(
            "nic.inic_line_cost_steady",
            ("fig4", "fig11"),
            "primed on-die DMA cost per line; same Fig. 4 shape "
            "constraint",
        ),
        CalibratedConstant(
            "network.mac_phy_latency",
            ("fig11", "fig12a"),
            "per-side MAC+PHY pipeline; the wire segment of Fig. 11 "
            "at small sizes",
        ),
    ]
}
"""Every constant the calibrator may move, keyed by dotted path."""


def _lookup_default(name: str, params: SystemParams = DEFAULT) -> int:
    section, field_name = name.split(".", 1)
    return getattr(getattr(params, section), field_name)


@dataclass(frozen=True)
class Axis:
    """One search dimension: a whitelisted constant, bounds, and step.

    Bounds and step are authored in nanoseconds; :attr:`low_ticks` /
    :attr:`high_ticks` / :attr:`step_ticks` are the simulator-tick
    equivalents the search actually moves in.
    """

    param: str
    low_ns: float
    high_ns: float
    step_ns: float

    def __post_init__(self) -> None:
        if self.param not in CALIBRATABLE:
            raise ValueError(
                f"{self.param!r} is not a calibratable constant; the "
                f"whitelist (constants marked *Calibrated* in "
                f"params.py) is: {sorted(CALIBRATABLE)}"
            )
        # Canonicalize the bounds (140 == 140.0 must serialize the same
        # whether the axis came from code or from a JSON file — the
        # byte-identity tests compare report documents across both).
        for name in ("low_ns", "high_ns", "step_ns"):
            value = float(getattr(self, name))
            object.__setattr__(
                self, name, int(value) if value.is_integer() else value
            )
        if not self.low_ns < self.high_ns:
            raise ValueError(
                f"{self.param}: low_ns ({self.low_ns}) must be below "
                f"high_ns ({self.high_ns})"
            )
        if self.step_ns <= 0:
            raise ValueError(f"{self.param}: step_ns must be positive")

    @property
    def low_ticks(self) -> int:
        return ns(self.low_ns)

    @property
    def high_ticks(self) -> int:
        return ns(self.high_ns)

    @property
    def step_ticks(self) -> int:
        return max(1, ns(self.step_ns))

    @property
    def default_ticks(self) -> int:
        """The shipped default of this constant, in ticks."""
        return _lookup_default(self.param)

    @property
    def constant(self) -> CalibratedConstant:
        return CALIBRATABLE[self.param]

    def clamp(self, ticks: int) -> int:
        """``ticks`` limited to this axis's bounds."""
        return max(self.low_ticks, min(self.high_ticks, int(ticks)))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "param": self.param,
            "low_ns": self.low_ns,
            "high_ns": self.high_ns,
            "step_ns": self.step_ns,
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "Axis":
        unknown = set(document) - {"param", "low_ns", "high_ns", "step_ns"}
        if unknown:
            raise ValueError(
                f"unknown axis key(s): {sorted(unknown)} "
                "(expected param/low_ns/high_ns/step_ns)"
            )
        try:
            return cls(
                param=document["param"],
                low_ns=float(document["low_ns"]),
                high_ns=float(document["high_ns"]),
                step_ns=float(document["step_ns"]),
            )
        except KeyError as missing:
            raise ValueError(f"axis is missing required key {missing}") from None


@dataclass(frozen=True)
class SearchSpace:
    """The axes a calibration run may move, in declaration order."""

    axes: Tuple[Axis, ...]

    def __post_init__(self) -> None:
        if not self.axes:
            raise ValueError("a search space needs at least one axis")
        names = [axis.param for axis in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis param in search space: {names}")

    def defaults(self) -> Dict[str, int]:
        """The shipped defaults, clamped into bounds — the start point."""
        return {axis.param: axis.clamp(axis.default_ticks) for axis in self.axes}

    def to_dict(self) -> Dict[str, Any]:
        return {"axes": [axis.to_dict() for axis in self.axes]}

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "SearchSpace":
        unknown = set(document) - {"axes"}
        if unknown:
            raise ValueError(
                f"unknown search-space key(s): {sorted(unknown)} "
                "(expected only 'axes')"
            )
        axes = document.get("axes")
        if not isinstance(axes, (list, tuple)):
            raise ValueError("search space needs an 'axes' list")
        return cls(axes=tuple(Axis.from_dict(entry) for entry in axes))


def param_id(overrides: Mapping[str, int]) -> str:
    """The canonical trial identity for a candidate's tick overrides.

    Sorted ``name=ticks`` pairs inside ``calib[...]`` — the same
    candidate always gets the same id (and therefore, via
    ``derive(param_id, base_seed)``, the same trial seed) regardless
    of axis order, backend, or process.  The empty candidate — the
    shipped defaults, always evaluated as the reference trial — is
    ``calib[baseline]``.
    """
    if not overrides:
        return "calib[baseline]"
    inner = ",".join(
        f"{name}={int(overrides[name])}" for name in sorted(overrides)
    )
    return f"calib[{inner}]"


def nested_overrides(flat: Mapping[str, int]) -> Dict[str, Dict[str, int]]:
    """Flat ``{"software.copy_base": t}`` → ``apply_overrides`` shape."""
    nested: Dict[str, Dict[str, int]] = {}
    for name, ticks in flat.items():
        section, field_name = name.split(".", 1)
        nested.setdefault(section, {})[field_name] = int(ticks)
    return nested
