"""Kernel microbenchmarks: pure event dispatch, no hardware models.

The experiment benches (``test_bench_fig*``) measure whole-model
throughput, where per-event cost is dominated by model code.  These
four benches isolate the DES kernel itself — the heap/ring loop,
process stepping, future resume, and resource arbitration — so kernel
optimizations show up undiluted.  Like every bench in this directory,
each test appends a ``(wall_seconds, events_fired, events_per_sec)``
record to ``BENCH_runner.json`` via the session fixture in
``conftest.py``; the events/sec trajectory of these four tests is the
acceptance metric for kernel-performance PRs.

Workload shapes (all deterministic):

* **scheduling** — a self-rescheduling callback chain cycling delays
  ``(0, 0, 0, 1)``: 75% same-tick events, matching the zero-delay-heavy
  profile of real process stepping, with enough nonzero delays to keep
  the heap path honest.
* **ping-pong** — two processes exchanging a counter through a pair of
  queues: every event is a future completion + process resume, the
  hottest path in the driver/NIC models.
* **contention** — many processes hammering one prioritized
  :class:`~repro.sim.resource.Resource` so the waiter queue stays deep
  (~200 entries), exercising waiter insertion and grant hand-off.
* **spawn churn** — 20,000 short processes, each one sleep and one
  future wait, run with the cyclic GC on: what a process costs from
  spawn to being freed, the way the model layers spawn one per packet
  hop or memory request.
"""

import gc

from repro.sim.engine import Simulator
from repro.sim.resource import Queue, Resource

from benchmarks.conftest import report

SCHEDULING_EVENTS = 300_000
PINGPONG_ROUNDS = 60_000
CONTENTION_WORKERS = 200
CONTENTION_ITERATIONS = 120
CHURN_PROCESSES = 20_000
CHURN_BATCH = 100


def test_bench_kernel_scheduling():
    """Pure scheduling: one callback chain, 75% same-tick events."""
    sim = Simulator()
    delays = (0, 0, 0, 1)
    fired = 0

    def tick():
        nonlocal fired
        fired += 1
        if fired < SCHEDULING_EVENTS:
            sim.schedule(delays[fired & 3], tick)

    sim.schedule(0, tick)
    sim.run()
    assert fired == SCHEDULING_EVENTS
    report(
        "kernel microbenchmark: pure scheduling",
        f"{fired} callback events, final tick {sim.now}",
    )


def test_bench_kernel_pingpong():
    """Process ping-pong: every event is a future completion + resume."""
    sim = Simulator()
    ping = Queue(sim, "ping")
    pong = Queue(sim, "pong")

    def player(inbox, outbox, rounds):
        ball = 0
        for _ in range(rounds):
            ball = yield inbox.get()
            outbox.put(ball + 1)
        return ball

    first = sim.spawn(player(ping, pong, PINGPONG_ROUNDS), name="ping")
    sim.spawn(player(pong, ping, PINGPONG_ROUNDS), name="pong")
    ping.put(0)
    sim.run()
    assert first.done.done
    assert first.done.value == 2 * PINGPONG_ROUNDS - 2
    report(
        "kernel microbenchmark: process ping-pong",
        f"{PINGPONG_ROUNDS} round trips, {sim.events_fired} events",
    )


def test_bench_kernel_contention():
    """Resource contention: a deep prioritized waiter queue."""
    sim = Simulator()
    bus = Resource(sim, "bus")

    def worker(priority):
        for _ in range(CONTENTION_ITERATIONS):
            yield from bus.use(1, priority=priority)

    for index in range(CONTENTION_WORKERS):
        sim.spawn(worker(index & 3), name=f"worker{index}")
    sim.run()
    expected = CONTENTION_WORKERS * CONTENTION_ITERATIONS
    assert bus.total_acquisitions == expected
    report(
        "kernel microbenchmark: resource contention",
        f"{expected} acquisitions, {sim.events_fired} events, "
        f"total wait {bus.total_wait_ticks} ticks",
    )


def test_bench_kernel_spawn_churn():
    """Spawn churn: short-lived processes, spawned in batches, GC on."""
    assert gc.isenabled()
    sim = Simulator()
    finished = 0

    def short(index):
        nonlocal finished
        yield 1 + (index & 7)
        yield sim.timeout(index & 3)
        finished += 1

    def spawner():
        for index in range(CHURN_PROCESSES):
            sim.spawn(short(index))
            if index % CHURN_BATCH == CHURN_BATCH - 1:
                yield 4

    sim.spawn(spawner(), name="spawner")
    sim.run()
    assert finished == CHURN_PROCESSES
    report(
        "kernel microbenchmark: spawn churn",
        f"{CHURN_PROCESSES} processes, {sim.events_fired} events, "
        f"final tick {sim.now}",
    )
