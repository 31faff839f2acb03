"""Determinism contract of the DES kernel: byte-for-byte event order.

The kernel promises that events at the same tick fire in scheduling
order (the ``(time, seq)`` total order), and that kernel-internal
optimizations (the same-tick ring, single-hop resume, the future pool)
never change which event fires when.  These tests pin that promise:

* ``test_event_order_matches_golden`` replays a mixed workload —
  processes, sleeps, zero-delay yields, futures, timeouts, ``all_of``,
  prioritized resources, pipes, queues — under a trace hook and compares
  the executed ``(time, seq, owner)`` stream against a golden recorded
  on the pre-optimization kernel (``tests/data/golden_event_order.json``).
* ``test_event_streams_byte_identical_across_seeds`` runs a seeded
  four-node incast cluster under trace and compares its stream digest
  against ``tests/data/golden_cluster_streams.json``.
* ``test_incast_stream_matches_golden`` and
  ``test_burst_stream_matches_golden`` trace the dNIC and iNIC driver
  paths, with and without zero-copy: the four-node incast on each kind,
  and a burst on one node with a 16 KiB LLC that overflows the DDIO
  slice.  Digests and summaries live in
  ``tests/data/golden_host_nic_streams.json``.
* ``test_sweep_result_matches_golden`` runs the other sharded sweeps
  (``fig11``, ``fig12a``, ``loaded_latency``) through the harness and
  compares the sha256 of each ``experiments[name]`` artifact entry
  against ``tests/data/golden_sweep_results.json``.
* ``test_dram_stream_matches_golden`` traces the memory controller
  from simulator birth (so the MLC and iperf processes are named)
  through a short fig5 cell and through a refreshing idle/busy/idle run, and
  compares each stream's digest, and the digest of the components'
  stats reports, against ``tests/data/golden_dram_stream.json``.
* ``test_fig5_artifact_matches_baseline`` runs the fig5 experiment
  through the harness and diffs its artifact against a baseline written
  by the pre-optimization kernel — metric-for-metric equality, not just
  "no regressions".

Regenerate the goldens (only after an *intentional* event-order change)
with ``python scripts/record_golden_events.py``.
"""

import hashlib
import json
import pathlib

import pytest

from repro.sim import Pipe, Queue, Resource, Simulator

DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"
GOLDEN_PATH = DATA_DIR / "golden_event_order.json"
CLUSTER_GOLDEN_PATH = DATA_DIR / "golden_cluster_streams.json"
CLUSTER_SEEDS = (1, 11, 2019)
FIG5_BASELINE_PATH = DATA_DIR / "fig5_baseline.json"
SWEEP_GOLDEN_PATH = DATA_DIR / "golden_sweep_results.json"
SWEEP_NAMES = ("fig11", "fig12a", "loaded_latency")
DRAM_GOLDEN_PATH = DATA_DIR / "golden_dram_stream.json"
HOST_NIC_GOLDEN_PATH = DATA_DIR / "golden_host_nic_streams.json"
HOST_NIC_KINDS = ("dnic", "dnic.zcpy", "inic", "inic.zcpy")
HOST_NIC_SEEDS = (1, 2019)


def mixed_workload(sim: Simulator):
    """Schedule a deterministic workload touching every kernel feature.

    Returns the root process whose completion gates :func:`drive`'s
    ``run_until`` leg.
    """
    port = Resource(sim, "mc_port")
    wire = Pipe(sim, "wire", latency=100, bytes_per_ps=0.01)
    mailbox = Queue(sim, "mailbox")
    log = []

    def producer():
        for i in range(40):
            yield 3 + (i % 5)
            mailbox.put(i)
            if i % 7 == 0:
                yield None
        return "produced"

    def consumer(k):
        total = 0
        for _ in range(20):
            item = yield mailbox.get()
            total += item
            yield from port.use(2 + (item % 3), priority=item % 2)
        return total

    def pipe_user(k):
        for i in range(10):
            payload = yield wire.send(64 + 32 * k + i, payload=(k, i))
            log.append((sim.now, payload))
            yield 5 * k + 1

    def child():
        yield 7
        yield 0
        return "ok"

    def waiter():
        ticks = [sim.timeout(50 * i, i) for i in range(1, 6)]
        values = yield sim.all_of(ticks)
        result = yield sim.spawn(child(), name="child")
        return (sum(values), result)

    sim.spawn(producer(), name="producer")
    for k in range(2):
        sim.spawn(consumer(k), name=f"consumer{k}")
    for k in range(2):
        sim.spawn_at(10 * k, pipe_user(k), name=f"pipe{k}")
    root = sim.spawn(waiter(), name="waiter")
    sim.schedule(500, log.append, (500, "timer"))
    sim.schedule_at(750, log.append, (750, "timer2"))
    return root


def drive(sim: Simulator, root) -> int:
    """Drive the workload through every run-loop entry point."""
    sim.run(until=200)
    sim.run(max_events=25)
    sim.run_until(root.done)
    sim.run(max_events=100)
    sim.run()
    return sim.now


def _traced_sim():
    """A simulator whose trace hook appends to the returned event list."""
    events = []
    sim = Simulator(trace=lambda when, seq, owner: events.append([when, seq, owner]))
    return sim, events


def record_stream():
    """Execute the workload under trace; return (events, final_now, count)."""
    sim, events = _traced_sim()
    root = mixed_workload(sim)
    final_now = drive(sim, root)
    return events, final_now, sim.events_fired


class TestGoldenEventOrder:
    def test_event_order_matches_golden(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        events, final_now, fired = record_stream()
        assert final_now == golden["final_now"]
        assert fired == golden["events_fired"]
        assert len(events) == len(golden["events"])
        for index, (seen, expected) in enumerate(zip(events, golden["events"])):
            assert seen == expected, (
                f"event #{index} diverged: got {seen}, golden {expected}"
            )

    def test_stream_is_repeatable(self):
        assert record_stream() == record_stream()


def scenario_stream(
    seed: int,
    nic_kind: str = "netdimm",
    packets: int = 8,
    mean_interarrival_ns: float = 2000.0,
):
    """Run a small seeded incast; return its traced event stream as bytes
    plus a ``packets_delivered``/``events_fired``/``flows`` summary dict.

    Four ``nic_kind`` nodes under one ToR; three of them send ``packets``
    frames of 1024 B each to ``h0``.  With the default ``netdimm`` nodes
    the cluster exercises the switch, the fabric uplink, the DRAM
    controllers, the NVDIMM-P port and the NetDIMM device; the host-NIC
    kinds trade the last two for the PCIe link or the on-die fabric.
    """
    from repro.scenario import (
        FabricSpec,
        NodeSpec,
        ScenarioSpec,
        TrafficSpec,
        build_scenario,
    )

    spec = ScenarioSpec(
        name=f"cluster-stream-{seed}",
        seed=seed,
        nodes=tuple(
            NodeSpec(name=f"h{index}", nic_kind=nic_kind) for index in range(4)
        ),
        fabric=FabricSpec(kind="clos", hosts_per_rack=4, queue_depth=8),
        traffic=(
            TrafficSpec(
                kind="incast",
                dst="h0",
                packets=packets,
                size_bytes=1024,
                mean_interarrival_ns=mean_interarrival_ns,
                label="incast",
            ),
        ),
    )
    events = []
    scenario = build_scenario(spec)
    scenario.sim._trace = lambda when, seq, owner: events.append([when, seq, owner])
    result = scenario.run()
    summary = {
        "packets_delivered": result.packets_delivered,
        "events_fired": result.events_fired,
        "flows": result.flows,
    }
    return json.dumps(events).encode(), summary


class TestBatchFallbackParity:
    """Full cluster simulations still execute the per-packet reference
    lane's event streams, byte for byte.

    ``tests/data/golden_cluster_streams.json`` holds the sha256 of each
    seed's traced stream, recorded when the kernel still carried a
    per-event fallback loop beside the tick drain and both produced
    these exact bytes.
    """

    @pytest.mark.parametrize("seed", CLUSTER_SEEDS)
    def test_event_streams_byte_identical_across_seeds(self, seed):
        golden = json.loads(CLUSTER_GOLDEN_PATH.read_text())["seeds"][str(seed)]
        stream, summary = scenario_stream(seed)
        assert hashlib.sha256(stream).hexdigest() == golden["sha256"]
        assert summary == golden["summary"]


def host_nic_burst_stream(nic_kind: str):
    """A same-tick burst on one host-NIC node whose LLC is 16 KiB.

    40 RX frames of 1514 B arrive before the driver copies any of them
    out, so the DDIO slice overflows: spilled lines are written to host
    DRAM and, on the iNIC, read back before the RX copy.  10 TX frames
    of 700 B run beside them.  The simulator traces from birth.
    Returns the stream as bytes plus a summary dict.
    """
    from dataclasses import replace

    from repro.driver import make_node
    from repro.net import Packet
    from repro.params import DEFAULT
    from repro.units import kib

    params = replace(DEFAULT, cache=replace(DEFAULT.cache, l2_size=kib(16)))
    sim, events = _traced_sim()
    node = make_node(sim, "n", nic_kind, params)
    packets = [Packet(size_bytes=1514) for _ in range(40)]
    done = [node.receive(packet) for packet in packets]
    outbound = [Packet(size_bytes=700) for _ in range(10)]
    done += [node.transmit(packet) for packet in outbound]
    sim.run_until(sim.all_of(done), max_events=1_000_000)
    segments = {}
    for packet in packets + outbound:
        for segment, ticks in packet.breakdown.segments.items():
            segments[segment] = segments.get(segment, 0) + ticks
    summary = {
        "events_fired": sim.events_fired,
        "final_now": sim.now,
        "ddio_spilled_lines": node.stats.get_counter("ddio_spilled_lines"),
        "segments": segments,
        "stats_sha256": stats_digest(node, node.host_mc),
    }
    return json.dumps(events).encode(), summary


def host_nic_incast_stream(nic_kind: str, seed: int):
    """The four-node incast on host-NIC nodes: 30 frames per sender,
    300 ns mean gap, so the receiver's rings and DDIO slice stay busy."""
    return scenario_stream(seed, nic_kind, packets=30, mean_interarrival_ns=300.0)


class TestHostNICStreamGolden:
    """The dNIC and iNIC driver paths (plain and zero-copy), pinned by
    stream digest and summary in ``tests/data/golden_host_nic_streams.json``."""

    @pytest.mark.parametrize("seed", HOST_NIC_SEEDS)
    @pytest.mark.parametrize("nic_kind", HOST_NIC_KINDS)
    def test_incast_stream_matches_golden(self, nic_kind, seed):
        golden = json.loads(HOST_NIC_GOLDEN_PATH.read_text())["runs"]
        expected = golden[f"{nic_kind}/incast-{seed}"]
        stream, summary = host_nic_incast_stream(nic_kind, seed)
        assert hashlib.sha256(stream).hexdigest() == expected["sha256"]
        assert summary == expected["summary"]

    @pytest.mark.parametrize("nic_kind", HOST_NIC_KINDS)
    def test_burst_stream_matches_golden(self, nic_kind):
        golden = json.loads(HOST_NIC_GOLDEN_PATH.read_text())["runs"]
        expected = golden[f"{nic_kind}/burst"]
        stream, summary = host_nic_burst_stream(nic_kind)
        assert summary["ddio_spilled_lines"] > 0
        assert hashlib.sha256(stream).hexdigest() == expected["sha256"]
        assert summary == expected["summary"]


class TestFig5ArtifactEquality:
    @pytest.mark.slow
    def test_fig5_artifact_matches_baseline(self):
        from repro.experiments import harness

        baseline = harness.load_artifact(str(FIG5_BASELINE_PATH))
        current = harness.submit_experiments(["fig5"]).result()
        diff = harness.diff_artifacts(current, baseline)
        assert not diff.has_regressions, diff.format()
        assert (
            current["experiments"]["fig5"]["result"]
            == baseline["experiments"]["fig5"]["result"]
        )
        assert (
            current["experiments"]["fig5"]["metrics"]
            == baseline["experiments"]["fig5"]["metrics"]
        )


def stats_digest(*components):
    """sha256 of the components' ``stats.report()`` as sorted-key JSON.

    The event stream cannot see what a model counts or samples between
    events; this digest pins the counters and histogram summaries.
    """
    reports = {component.name: component.stats.report() for component in components}
    return hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()


def dram_fig5_cell_stream():
    """A short fig5 cell under trace: MLC pressure plus a 40-packet iperf.

    Unlike :func:`scenario_stream`, the simulator traces from birth, so
    ``sim.named`` is set and the workload processes show up under their
    own names.  The controller's scheduler steps are its own callbacks
    (owner label ``MemoryController:mc``).
    """
    from repro.dram.controller import MemoryController
    from repro.params import DEFAULT
    from repro.units import ns
    from repro.workloads.iperf import IperfModel
    from repro.workloads.mlc import MLCInjector

    sim, events = _traced_sim()
    controller = MemoryController(sim, "mc", DEFAULT.host_dram)
    injector = MLCInjector(
        sim, "mlc", controller, delay=ns(50), threads=16, outstanding=40
    )
    injector.start()
    iperf = IperfModel(sim, "iperf", controller, network=DEFAULT.network)
    sim.run_until(iperf.run(40), max_events=5_000_000)
    injector.stop()
    return (
        json.dumps(events).encode(),
        sim.events_fired,
        stats_digest(controller, injector, iperf),
    )


def dram_refresh_stream():
    """A refreshing controller driven idle -> busy -> idle -> busy -> idle.

    The busy phases mix same-tick bursts of reads and writes (single-
    and multi-line, spread over banks) with a trickle that lands while
    the scheduler is already running, so the stream covers the
    scheduler starting, draining, sitting idle across refreshes and
    starting again.
    """
    from repro.dram.controller import MemoryController
    from repro.params import ddr4_2400
    from repro.units import CACHELINE, us

    sim, events = _traced_sim()
    controller = MemoryController(sim, "mc", ddr4_2400(), refresh_enabled=True)
    sim.run(until=us(20))
    burst = [
        controller.access(
            index * 4099 * CACHELINE,
            is_write=index % 3 == 0,
            size_bytes=1514 if index % 7 == 0 else CACHELINE,
        )
        for index in range(48)
    ]
    sim.run_until(sim.all_of(burst))
    sim.run(until=us(40))

    def trickle():
        for index in range(24):
            controller.access(0x200000 + index * 577 * CACHELINE, index % 2 == 1)
            yield 7_000 + 1_000 * (index % 5)

    sim.spawn(trickle(), name="trickle")
    sim.run(until=us(60))
    return json.dumps(events).encode(), sim.events_fired, stats_digest(controller)


DRAM_STREAMS = {
    "fig5_cell_50ns": dram_fig5_cell_stream,
    "refresh_idle_busy": dram_refresh_stream,
}


class TestDramStreamGolden:
    """The DRAM controller's own event stream, scheduler included, and
    its components' stats reports, pinned by digest in
    ``tests/data/golden_dram_stream.json``."""

    @pytest.mark.parametrize("name", sorted(DRAM_STREAMS))
    def test_dram_stream_matches_golden(self, name):
        golden = json.loads(DRAM_GOLDEN_PATH.read_text())["streams"][name]
        stream, fired, stats_sha256 = DRAM_STREAMS[name]()
        assert fired == golden["events_fired"]
        assert hashlib.sha256(stream).hexdigest() == golden["sha256"]
        assert stats_sha256 == golden["stats_sha256"]


def sweep_digests(names=SWEEP_NAMES):
    """sha256 of each experiment's ``experiments[name]`` artifact entry
    (canonical JSON: sorted keys, no whitespace), run inline through
    the harness."""
    from repro.experiments import harness

    entries = harness.submit_experiments(list(names)).result()["experiments"]
    return {
        name: hashlib.sha256(
            json.dumps(entries[name], sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        for name in names
    }


class TestSweepResultDigests:
    """The sharded sweeps' artifact entries, pinned by digest."""

    @pytest.fixture(scope="class")
    def digests(self):
        return sweep_digests()

    @pytest.mark.slow
    @pytest.mark.parametrize("name", SWEEP_NAMES)
    def test_sweep_result_matches_golden(self, digests, name):
        golden = json.loads(SWEEP_GOLDEN_PATH.read_text())["experiments"]
        assert digests[name] == golden[name]
