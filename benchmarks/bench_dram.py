"""DRAM layer benchmark: the memory controller alone under fig5's MLC mix.

``test_bench_fig5`` meters the whole pressure sweep, where iperf's
packet pipelines share the host's time with the controller.  This bench
isolates the DRAM layer: sixteen MLC threads, each keeping 40 one-line
requests outstanding with 50 ns between issues and reads:writes = 1,
drive one DDR4 channel for a fixed injection window, then drain.  The
request path — request build, FR-FCFS pick, bank timing, data-bus
arithmetic, completion, scheduler wake — is all that runs.  The run is
deterministic, so the window always issues exactly ``EXPECTED_REQUESTS``
requests, and the events/sec record this appends to ``BENCH_runner.json``
(via the session fixture in ``conftest.py``) is the acceptance metric
for DRAM-path PRs.
"""

from repro.dram.controller import MemoryController
from repro.params import DEFAULT
from repro.sim import Simulator
from repro.units import ns, us
from repro.workloads.mlc import MLCInjector

from benchmarks.conftest import report

INJECT_WINDOW = us(400)
EXPECTED_REQUESTS = 118_964


def test_bench_dram_mlc():
    """MLC at 50 ns, 16 threads x 40 outstanding, against one channel."""
    sim = Simulator()
    controller = MemoryController(sim, "mc", DEFAULT.host_dram)
    injector = MLCInjector(
        sim, "mlc", controller, delay=ns(50), threads=16, outstanding=40
    )
    injector.start()
    sim.run(until=INJECT_WINDOW)
    injector.stop()
    sim.run()
    reads = controller.stats.get_counter("reads")
    writes = controller.stats.get_counter("writes")
    assert reads + writes == EXPECTED_REQUESTS
    assert controller.queued_requests == 0
    assert sim.pending_events == 0
    gbps = (reads + writes) * 64 * 8 / (sim.now / 1e12) / 1e9
    report(
        "DRAM microbenchmark: MLC pressure on one channel",
        f"{reads} reads + {writes} writes in {sim.now / 1e6:.1f} us "
        f"({gbps:.1f} Gb/s), {sim.events_fired} events",
    )
