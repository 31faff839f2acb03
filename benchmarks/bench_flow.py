"""Flow-plane benchmark: the clos1000 demand set, with no packets.

``examples/clos1000_hybrid.json`` keeps only its flow-fidelity traffic:
the 1024-host clos fabric and 1,032 demand windows (a 1000-source
uniform background and a 32-way incast).  No packet-level node is
built.  One call is one pass of the flow plane over every window:
``FlowSource.install`` (each window's ECMP link counts and shares, and
its two boundary events), then the simulator fires every window's
activation and deactivation, and each deactivation prices its demand
with ``FlowModel.window_latency``.

A warm-up pass runs before the timed loop, so the topology's per-ToR
breadth-first search tables are built and that search
(``bench_fabric.py``'s territory) stays out of the rate.  The link
counts are not cached, so every pass recounts every window's: that is
flow-plane work and is in the rate.  A pass fires two kernel events per
window, but its time goes to the flow plane, not the kernel, so the
record carries ``calls_per_sec``: passes per second.
"""

import pathlib
from dataclasses import replace

from repro import api

from benchmarks.conftest import pedantic_calls, report

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

PASSES = 8
"""Timed passes; 0.7-0.9 s on a 2-vCPU box."""


def flow_only_scenario():
    """The clos1000 example minus its packet-level traffic, built."""
    spec = api.load_spec(str(EXAMPLES / "clos1000_hybrid.json"))
    flows = tuple(entry for entry in spec.traffic if entry.fidelity == "flow")
    scenario = api.build_scenario(replace(spec, traffic=flows))
    for source in scenario.flow_sources:
        # Passes run outside Scenario.run, which owns the window countdown.
        source.on_window_done = None
    return scenario


def test_bench_flow_clos1000(benchmark):
    scenario = flow_only_scenario()
    sim, sources = scenario.sim, scenario.flow_sources
    load = scenario.fabric.flow_load
    assert not scenario.nodes
    assert sum(len(source.demands) for source in sources) == 1032

    def flow_pass():
        for source in sources:
            source.install(sim.now)
        sim.run()

    flow_pass()
    warm = [source.summary() for source in sources]
    pedantic_calls(benchmark, flow_pass, rounds=PASSES)
    summaries = [source.summary() for source in sources]
    # Every window closed, and each pass priced the same load the same way.
    assert load.loaded_links() == []
    for first, now in zip(warm, summaries):
        assert now["offered_packets"] == (PASSES + 1) * first["offered_packets"]
        assert now["fabric_latency_us"] == first["fabric_latency_us"]
        assert now["peak_utilization"] == first["peak_utilization"] > 0.0
    report(
        "flow-plane benchmark: clos1000 demand set, no packets",
        "\n".join(
            f"{source.group}: {summary['demands']} windows, fabric latency "
            f"{summary['fabric_latency_us']:.3f} us, peak utilization "
            f"{summary['peak_utilization']:.3f}"
            for source, summary in zip(sources, summaries)
        ),
    )
