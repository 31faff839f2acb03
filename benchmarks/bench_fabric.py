"""Fabric benchmark: a 16-node incast through queued clos switches.

Fifteen senders (a dnic / inic / netdimm mix) converge on one NetDIMM
receiver across a two-tier clos fabric with finite output queues, so
every event class the scenario layer adds — switch hop processes,
egress-queue arbitration, backpressure stalls, per-flow bookkeeping —
is on the hot path.  The events/sec record this appends to
``BENCH_runner.json`` (via the session fixture in ``conftest.py``) is
the acceptance metric for fabric-performance PRs.
"""

from repro import api
from repro.scenario.spec import FabricSpec, NodeSpec, ScenarioSpec, TrafficSpec

from benchmarks.conftest import report

SENDERS = 15
PACKETS_PER_SENDER = 60


def incast16_spec() -> ScenarioSpec:
    """16 hosts on one rack pair, everyone incasting on ``recv``."""
    kinds = ("dnic", "inic", "netdimm")
    nodes = [NodeSpec(name="recv", nic_kind="netdimm")]
    nodes += [
        NodeSpec(name=f"s{index}", nic_kind=kinds[index % len(kinds)])
        for index in range(SENDERS)
    ]
    return ScenarioSpec(
        name="bench-incast16",
        seed=2019,
        nodes=tuple(nodes),
        fabric=FabricSpec(
            kind="clos", racks_per_cluster=2, hosts_per_rack=8, queue_depth=8
        ),
        traffic=(
            TrafficSpec(
                kind="incast",
                dst="recv",
                packets=PACKETS_PER_SENDER,
                size_bytes=1024,
                mean_interarrival_ns=2000.0,
                label="incast",
            ),
        ),
    )


def test_bench_fabric_incast16():
    """16-node mixed-NIC incast over the live queued fabric."""
    result = api.simulate(incast16_spec())
    assert result.packets_delivered == SENDERS * PACKETS_PER_SENDER
    summary = result.flows["incast"]
    report(
        "fabric benchmark: 16-node incast through queued clos switches",
        f"{result.packets_delivered} packets, "
        f"{result.fabric['switch_forwards']} switch forwards, "
        f"{result.fabric['egress_stalls']} backpressure stalls\n"
        f"incast latency: mean {summary['mean']:.2f} us, "
        f"p99 {summary['p99']:.2f} us",
    )
