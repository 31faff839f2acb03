"""Sweep-runtime benchmark: the pool backend vs serial, same job.

Six seed variants of the 16-node incast (the :mod:`bench_fabric`
workload) submitted as one scenario sweep, twice, on the ``pool``
backend: once at ``jobs=1`` (every shard inline, the determinism
reference) and once at ``jobs=4`` (forked workers).  Both runs
must assemble the *identical* artifact — the runtime's core contract —
and the pool run must actually buy wall-clock: CI pins
``test_bench_sweep_pool`` at >= 1.5x ``test_bench_sweep_serial``
(events/sec, compared within the same run).

Events/sec is priced the same way for both lanes: the sweep's summed
per-shard ``ShardResult.events_fired`` (metered inside whichever
process ran the shard) over the submitting process's wall-clock.  The
parent's own event counter would read ~0 for the pool run — the whole
point is that the events fired elsewhere — so both tests substitute
the effective pair via ``report_rate``.
"""

import time

from repro import api
from repro.runtime import ShardResult
from repro.scenario.spec import FabricSpec, NodeSpec, ScenarioSpec, TrafficSpec

from benchmarks.conftest import machine_meta, report, report_rate

SENDERS = 15
PACKETS_PER_SENDER = 100
SWEEP_SEEDS = (2019, 2020, 2021, 2022, 2023, 2024)
POOL_JOBS = 4


def incast16_spec(seed: int) -> ScenarioSpec:
    """One sweep point: the 16-host mixed-NIC incast at ``seed``."""
    kinds = ("dnic", "inic", "netdimm")
    nodes = [NodeSpec(name="recv", nic_kind="netdimm")]
    nodes += [
        NodeSpec(name=f"s{index}", nic_kind=kinds[index % len(kinds)])
        for index in range(SENDERS)
    ]
    return ScenarioSpec(
        name=f"bench-sweep-incast16-{seed}",
        seed=seed,
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


def sweep_specs():
    return [incast16_spec(seed) for seed in SWEEP_SEEDS]


def _run_sweep(backend: str, **kwargs):
    """Submit, run, and meter one sweep; returns (document, events, wall)."""
    job = api.submit(sweep_specs(), backend=backend, **kwargs)
    start = time.perf_counter()
    job.run()
    wall = time.perf_counter() - start
    events = sum(
        outcome.events_fired
        for outcome in job.outcomes()
        if isinstance(outcome, ShardResult)
    )
    return job.result(), events, wall


_SERIAL = {}


def _serial_run():
    """Run (once) and meter the serial sweep; cached across tests."""
    if not _SERIAL:
        document, events, wall = _run_sweep("pool")
        _SERIAL.update(document=document, events=events, wall=wall)
    return _SERIAL


def test_bench_sweep_serial():
    """The reference lane: six incast sweep points, every shard inline."""
    metered = _serial_run()
    scenarios = metered["document"]["scenarios"]
    assert len(scenarios) == len(SWEEP_SEEDS)
    for entry in scenarios.values():
        assert (
            entry["result"]["packets_delivered"]
            == SENDERS * PACKETS_PER_SENDER
        )
    report_rate(metered["events"], metered["wall"])
    report(
        "sweep benchmark reference: 6-point incast sweep, inline pool",
        f"{len(scenarios)} shards, {metered['events']} events in "
        f"{metered['wall']:.3f} s "
        f"({metered['events'] / metered['wall']:,.0f} ev/s)",
    )


def test_bench_sweep_pool():
    """The pool lane: same job, jobs=4 — identical artifact, less wall.

    The speedup assertion needs real parallel hardware, so it only
    arms when this process may run on two or more cores (CI's runners;
    ``cpu_count`` alone overstates an affinity-limited container); the
    artifact-identity assertion — the contract that makes the
    parallelism *safe* — holds everywhere.
    """
    reference = _serial_run()
    document, events, wall = _run_sweep("pool", jobs=POOL_JOBS)

    assert document == reference["document"]
    assert events == reference["events"]

    serial_rate = reference["events"] / reference["wall"]
    pool_rate = events / wall
    if machine_meta()["usable_cpus"] >= 2:
        assert pool_rate >= 1.5 * serial_rate, (
            f"pool backend must be >=1.5x: {pool_rate:,.0f} ev/s "
            f"vs serial {serial_rate:,.0f} ev/s "
            f"(walls: {wall:.3f} s vs {reference['wall']:.3f} s)"
        )
    report_rate(events, wall)
    report(
        "sweep benchmark: 6-point incast sweep, pool backend (jobs=4)",
        f"{len(document['scenarios'])} shards, {events} events in "
        f"{wall:.3f} s ({pool_rate:,.0f} ev/s, "
        f"{reference['wall'] / wall:.1f}x vs serial)",
    )
