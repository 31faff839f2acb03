"""Hybrid-fidelity benchmark: flow-level background vs all-packet.

The same 16-node workload — a packet-level foreground stream crossing
a clos fabric that thirteen background senders are incasting over —
run twice: once with the background at packet fidelity (every hop of
every frame event-driven) and once at flow fidelity (the background
collapses to aggregate link load via :mod:`repro.flow`).

The figure of merit for the hybrid run is its **effective** rate: the
all-packet twin's event count divided by the hybrid wall-clock.  The
hybrid simulator deliberately avoids firing events, so its raw
events/sec would undersell the speedup; ``report_rate`` substitutes
the effective pair into the ``BENCH_runner.json`` record, and the CI
gate pins ``test_bench_hybrid_incast16`` at >= 2x
``test_bench_hybrid_incast16_allpacket`` within the same run.

``test_bench_hybrid_clos1000`` scales the same shape to a 1024-host
clos (the ``examples/clos1000_hybrid.json`` spec): 8 packet-level
hosts in the hot region, 992 flow-only hosts of background — the
regime the hybrid split exists for.
"""

import pathlib
import time

from repro import api
from repro.scenario.spec import FabricSpec, NodeSpec, ScenarioSpec, TrafficSpec
from repro.sim import engine

from benchmarks.conftest import report, report_rate

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

BG_SENDERS = 13
BG_PACKETS_PER_SENDER = 400
FG_PACKETS = 200


def hybrid16_spec(fidelity: str) -> ScenarioSpec:
    """16 hosts: a ptx->prx foreground stream beside a 13-way incast.

    The background is an *incast* (fixed endpoints) rather than uniform
    traffic so both fidelities offer byte-for-byte the same load to the
    same links — the only variable between the twin runs is how that
    load is modeled.
    """
    nodes = [
        NodeSpec(name="ptx", nic_kind="netdimm"),
        NodeSpec(name="prx", nic_kind="netdimm"),
        NodeSpec(name="sink", nic_kind="dnic"),
    ]
    nodes += [NodeSpec(name=f"b{index}", nic_kind="dnic") for index in range(BG_SENDERS)]
    return ScenarioSpec(
        name=f"bench-hybrid16-{fidelity}",
        seed=2019,
        nodes=tuple(nodes),
        fabric=FabricSpec(
            kind="clos", racks_per_cluster=2, hosts_per_rack=8, queue_depth=16
        ),
        traffic=(
            TrafficSpec(
                kind="oneway",
                packets=FG_PACKETS,
                size_bytes=512,
                mean_interarrival_ns=1500.0,
                src=("ptx",),
                dst="prx",
                label="fg",
            ),
            TrafficSpec(
                kind="incast",
                packets=BG_PACKETS_PER_SENDER,
                size_bytes=1514,
                mean_interarrival_ns=5000.0,
                src=tuple(f"b{index}" for index in range(BG_SENDERS)),
                dst="sink",
                label="bg",
                role="background",
                fidelity=fidelity,
            ),
        ),
    )


_ALLPACKET = {}


def _allpacket_run():
    """Run (once) and meter the all-packet twin; cached across tests."""
    if not _ALLPACKET:
        events_before = engine.process_events_total()
        start = time.perf_counter()
        result = api.simulate(hybrid16_spec("packet"))
        _ALLPACKET["wall"] = time.perf_counter() - start
        _ALLPACKET["events"] = engine.process_events_total() - events_before
        _ALLPACKET["result"] = result
    return _ALLPACKET


def test_bench_hybrid_incast16_allpacket():
    """The reference run: background incast at full packet fidelity."""
    metered = _allpacket_run()
    result = metered["result"]
    expected = FG_PACKETS + BG_SENDERS * BG_PACKETS_PER_SENDER
    assert result.packets_delivered == expected
    summary = result.flows["fg"]
    report(
        "hybrid benchmark reference: 16-node all-packet run",
        f"{result.packets_delivered} packets, {metered['events']} events in "
        f"{metered['wall']:.3f} s\n"
        f"foreground latency: mean {summary['mean']:.3f} us, "
        f"p99 {summary['p99']:.3f} us",
    )


def test_bench_hybrid_incast16():
    """The hybrid run: same workload, background at flow fidelity.

    Asserts the headline acceptance number in-test — effective
    events/sec (all-packet events over hybrid wall) at least 2x the
    all-packet rate — and reports the effective pair so the CI gate
    re-checks the same ratio from ``BENCH_runner.json``.
    """
    reference = _allpacket_run()
    start = time.perf_counter()
    result = api.simulate(hybrid16_spec("flow"))
    wall = time.perf_counter() - start

    assert result.packets_delivered == FG_PACKETS
    background = result.flow_traffic["bg"]
    assert background["offered_packets"] == BG_SENDERS * BG_PACKETS_PER_SENDER
    assert background["peak_utilization"] > 0.0

    allpacket_rate = reference["events"] / reference["wall"]
    effective_rate = reference["events"] / wall
    assert effective_rate >= 2.0 * allpacket_rate, (
        f"hybrid fast path must be >=2x: effective {effective_rate:,.0f} ev/s "
        f"vs all-packet {allpacket_rate:,.0f} ev/s "
        f"(walls: {wall:.3f} s vs {reference['wall']:.3f} s)"
    )
    report_rate(reference["events"], wall)

    summary = result.flows["fg"]
    report(
        "hybrid benchmark: 16-node flow-level background",
        f"{result.packets_delivered} foreground packets in {wall:.3f} s "
        f"({reference['wall'] / wall:.1f}x faster than all-packet)\n"
        f"effective rate {effective_rate:,.0f} ev/s "
        f"vs all-packet {allpacket_rate:,.0f} ev/s\n"
        f"background: {background['offered_packets']:.0f} packets offered, "
        f"peak link utilization {background['peak_utilization']:.3f}\n"
        f"foreground latency: mean {summary['mean']:.3f} us, "
        f"p99 {summary['p99']:.3f} us",
    )


def test_bench_hybrid_clos1000():
    """The 1024-host example spec: 8 packet hosts + 992 flow-only hosts."""
    spec = ScenarioSpec.load(str(EXAMPLES / "clos1000_hybrid.json"))
    assert len(spec.nodes) == 1000
    start = time.perf_counter()
    result = api.simulate(spec)
    wall = time.perf_counter() - start
    assert result.packets_delivered > 0
    background = result.flow_traffic["background"]
    assert background["offered_packets"] > 0
    summary = result.flows["fg"]
    report(
        "hybrid benchmark: 1000-node clos, flow-level background",
        f"{len(spec.nodes)} hosts, {result.packets_delivered} foreground "
        f"packets in {wall:.3f} s\n"
        f"background: {background['offered_packets']:.0f} packets offered, "
        f"peak link utilization {background['peak_utilization']:.3f}\n"
        f"foreground latency: mean {summary['mean']:.3f} us, "
        f"p99 {summary['p99']:.3f} us",
    )
