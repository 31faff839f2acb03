"""Per-packet span tracing & timeline telemetry.

Where the kernel trace hook (``Simulator(trace=fn)``) streams the
``(time, seq, owner)`` order — counted per owner by ``experiments
--profile``, it answers *which code* fired events — this layer answers
the question the paper's latency decompositions ask: *where did one
packet spend its nanoseconds?*  Every hop of the packet path — driver send
segments, the NVDIMM-P/MMIO channel accesses inside them, the
in-memory buffer clone, NIC DMA, the wire, each switch's queue wait
and transmit, the receive notification, and (under faults) every
retransmission attempt — opens and closes a span keyed by the
packet's flow ``uid``.

The tracer is attached to a simulator as its ``tracer`` attribute
(``None`` by default).  Instrumentation points only *read timestamps*
— they never schedule events — so with tracing off the event stream
is byte-identical to an untraced run (pinned by the golden
determinism test), and with tracing on the spans ride along without
perturbing the simulation.

Spans are recorded in execution order, which the kernel's
``(time, seq)`` contract makes deterministic: the same spec + seed
produces the same span list in-process or across worker processes,
so serial and ``--jobs N`` trace exports are byte-identical.

Exports:

* :class:`~repro.telemetry.spans.SpanTracer` — the recorder.
* :func:`~repro.telemetry.chrome.chrome_trace` — Chrome-trace /
  Perfetto JSON document from one or more tracer payloads.
* :func:`~repro.telemetry.chrome.dump_trace` — canonical (byte-stable)
  rendering of that document.
* :func:`~repro.telemetry.chrome.segment_totals` — fold a payload's
  spans back into per-segment tick totals (the Fig. 5/Fig. 11
  decomposition, reconstructed from the timeline).
* :func:`~repro.telemetry.chrome.runtime_trace` — a *sweep's*
  provenance manifest as a Chrome-trace timeline: per-shard wall
  spans laid out on one track per worker (see ``docs/runtime.md``).
* :func:`~repro.telemetry.chrome.calibration_trace` — a *calibration
  report* as a Chrome-trace timeline: one track per search round, one
  event per trial with its loss and verdicts (see
  ``docs/calibration.md``).

See ``docs/observability.md`` for the full tour, including how to
open a trace in Perfetto.
"""

from repro.telemetry.chrome import (
    calibration_trace,
    chrome_trace,
    dump_trace,
    runtime_trace,
    segment_totals,
)
from repro.telemetry.spans import SPAN_CATEGORIES, SpanTracer

__all__ = [
    "SPAN_CATEGORIES",
    "SpanTracer",
    "calibration_trace",
    "chrome_trace",
    "dump_trace",
    "runtime_trace",
    "segment_totals",
]
