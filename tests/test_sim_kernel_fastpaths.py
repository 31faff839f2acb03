"""Regression tests for the kernel fast paths added by the perf rework.

Covers the behaviors the microbenchmark-driven kernel cannot be allowed
to bend: the clock-rewind fix, past-tick scheduling errors, the future
free-list pool (explicit and refcount-checked recycling), deep
prioritized waiter queues, the opt-in trace hook, and exact event
accounting across the ring/heap split.
"""

import pytest

from repro.sim import Component, Queue, Resource, Simulator
from repro.sim import engine
from repro.sim.engine import SimulationError


class TestClockNeverRewinds:
    def test_until_in_past_with_pending_events_is_noop(self, sim):
        fired = []
        sim.schedule(100, fired.append, "a")
        sim.schedule(300, fired.append, "b")
        assert sim.run(until=150) == 150
        assert fired == ["a"]
        # The regression: an `until` below the current clock used to
        # rewind `now` backwards while events were still queued.
        assert sim.run(until=50) == 150
        assert sim.now == 150
        assert fired == ["a"]
        assert sim.run() == 300
        assert fired == ["a", "b"]

    def test_until_in_past_fires_nothing(self, sim):
        fired = []
        sim.schedule(10, fired.append, 1)
        sim.run()
        sim.schedule(5, fired.append, 2)
        assert sim.run(until=3) == 10
        assert fired == [1]
        assert sim.pending_events == 1


class TestScheduleAtPast:
    def test_past_tick_raises(self, sim):
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="past tick 40.*already at 100"):
            sim.schedule_at(40, lambda: None)

    def test_current_tick_allowed(self, sim):
        fired = []
        sim.schedule(100, lambda: sim.schedule_at(100, fired.append, "same-tick"))
        sim.run()
        assert fired == ["same-tick"]


class TestFuturePool:
    def test_recycled_future_is_reused(self, sim):
        future = sim.future()
        future.set_result(1)
        sim.recycle(future)
        again = sim.future()
        assert again is future
        assert not again.done

    def test_recycle_pending_raises(self, sim):
        with pytest.raises(SimulationError, match="pending"):
            sim.recycle(sim.future())

    def test_double_recycle_raises(self, sim):
        future = sim.future()
        future.set_result(1)
        sim.recycle(future)
        # The reset made it pending again, so a second recycle (while
        # it sits in the pool) is caught by the pending guard.
        with pytest.raises(SimulationError, match="pending"):
            sim.recycle(future)

    def test_recycle_foreign_future_raises(self, sim):
        other = Simulator()
        foreign = other.future()
        foreign.set_result(1)
        with pytest.raises(SimulationError, match="another simulator"):
            sim.recycle(foreign)

    def test_pool_is_capped(self, sim, monkeypatch):
        monkeypatch.setattr(engine, "_FUTURE_POOL_CAP", 2)
        futures = [sim.future() for _ in range(4)]
        for future in futures:
            future.set_result(0)
            sim.recycle(future)
        assert len(sim._future_pool) == 2

    def test_resource_use_recycles_grant_future(self, sim):
        bus = Resource(sim, "bus")

        def worker():
            yield from bus.use(1)

        sim.spawn(worker())
        sim.run()
        assert len(sim._future_pool) >= 1


class TestRefcountRecycle:
    def test_unreferenced_wait_future_returns_to_pool(self, sim):
        def proc():
            yield sim.timeout(5)
            yield 1

        sim.spawn(proc())
        sim.run()
        # The timeout future had no alias outside the kernel, so the
        # refcount check recycled it into the pool.
        assert len(sim._future_pool) == 1

    def test_aliased_wait_future_is_left_alone(self, sim):
        kept = []

        def proc():
            future = sim.timeout(5)
            kept.append(future)
            value = yield future
            # The alias must still be a completed, readable future.
            assert future.done
            assert future.value is value
            yield 1

        sim.spawn(proc())
        sim.run()
        assert kept[0].done
        assert kept[0] not in sim._future_pool

    def test_queue_ping_pong_reaches_pool_steady_state(self, sim):
        ping = Queue(sim, "ping")
        pong = Queue(sim, "pong")

        def player(inbox, outbox, rounds):
            ball = 0
            for _ in range(rounds):
                ball = yield inbox.get()
                outbox.put(ball + 1)
            return ball

        sim.spawn(player(ping, pong, 50), name="a")
        sim.spawn(player(pong, ping, 50), name="b")
        ping.put(0)
        sim.run()
        # Queue futures churn through the pool, not the allocator: the
        # steady state is a tiny pool, not one future per round.
        assert 1 <= len(sim._future_pool) <= 4


class TestDeepWaiterQueue:
    def test_priority_then_fifo_at_depth(self, sim):
        bus = Resource(sim, "bus")
        grants = []

        def worker(tag, priority):
            yield from bus.use(1, priority=priority)
            grants.append(tag)

        # Seed a holder so every worker below queues up.
        def holder():
            yield from bus.use(5)

        sim.spawn(holder())
        expected = []
        for priority in (3, 1, 2, 0):
            for index in range(25):
                sim.spawn(worker((priority, index), priority))
        sim.run()
        for priority in (0, 1, 2, 3):
            expected.extend((priority, index) for index in range(25))
        assert grants == expected


class OwnerCounts(dict):
    """A trace hook that counts executed events per owner label — what
    ``experiments --profile`` does."""

    def __call__(self, _when, _seq, owner):
        self[owner] = self.get(owner, 0) + 1


class TestProfiling:
    def test_profile_counts_by_owner(self):
        counts = OwnerCounts()
        sim = Simulator(trace=counts)
        mailbox = Queue(sim, "mailbox")

        def producer():
            yield 5
            mailbox.put("x")

        def consumer():
            yield mailbox.get()

        sim.spawn(producer(), name="prod")
        sim.spawn(consumer(), name="cons")
        sim.run()
        assert counts["Process:prod"] == 2
        assert counts["Process:cons"] == 2
        assert sum(counts.values()) == sim.events_fired

    def test_plain_function_owner_label(self):
        counts = OwnerCounts()
        sim = Simulator(trace=counts)

        def tick():
            pass

        sim.schedule(1, tick)
        sim.run()
        (label,) = counts
        assert "tick" in label

    def test_bound_method_owner_label(self):
        counts = OwnerCounts()
        sim = Simulator(trace=counts)
        fired = []
        sim.schedule(1, fired.append, "x")
        sim.run()
        assert counts == {"list": 1}

    def test_default_hook_aggregates_across_simulators(self):
        counts = OwnerCounts()
        engine.set_trace_default(counts)
        try:
            for _ in range(2):
                sim = Simulator()
                sim.schedule(1, lambda: None)
                sim.run()
        finally:
            engine.set_trace_default(None)
        assert sum(counts.values()) == 2
        # Built after the reset, a simulator reports to no hook.
        sim = Simulator()
        sim.schedule(1, lambda: None)
        sim.run()
        assert sum(counts.values()) == 2

    def test_set_trace_default(self):
        counts = OwnerCounts()
        engine.set_trace_default(counts)
        try:
            assert Simulator().named
            # An explicit hook wins over the default.
            mine = OwnerCounts()
            sim = Simulator(trace=mine)
            sim.schedule(1, lambda: None)
            sim.run()
            assert sum(mine.values()) == 1
            assert counts == {}
        finally:
            engine.set_trace_default(None)
        assert not Simulator().named

    def test_profile_off_by_default_and_counts_empty(self, sim):
        sim.schedule(1, lambda: None)
        sim.run()
        assert not sim.named


class TestTraceHook:
    def test_trace_stream_shape(self):
        events = []
        sim = Simulator(trace=lambda when, seq, owner: events.append((when, seq, owner)))

        def proc():
            yield 3
            yield 0

        sim.spawn(proc(), name="p")
        sim.schedule(1, lambda: None)
        sim.run()
        assert len(events) == sim.events_fired
        times = [event[0] for event in events]
        seqs = [event[1] for event in events]
        assert times == sorted(times)
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        assert any(owner == "Process:p" for _, _, owner in events)

    def test_trace_sees_same_tick_order(self):
        events = []
        sim = Simulator(trace=lambda when, seq, owner: events.append(seq))
        order = []
        sim.schedule(5, order.append, "heap")
        sim.schedule(5, order.append, "heap2")
        sim.run()
        assert order == ["heap", "heap2"]
        assert events == sorted(events)


class TestComponentSpawn:
    def test_spawn_prefixes_component_name(self, sim):
        component = Component(sim, "nic0")

        def rx():
            yield 1

        process = component.spawn(rx(), name="rx")
        sim.run()
        assert process.name == "nic0.rx"

    def test_spawn_defaults_to_body_name(self, sim):
        component = Component(sim, "nic0")

        def poller():
            yield 1

        process = component.spawn(poller())
        sim.run()
        assert process.name == "nic0.poller"


class TestBatchedDrain:
    def test_schedule_batch_same_tick_preserves_order(self, sim):
        fired = []
        count = sim.schedule_batch(0, ((fired.append, (i,)) for i in range(5)))
        assert count == 5
        sim.schedule(0, fired.append, 99)
        sim.run()
        assert fired == [0, 1, 2, 3, 4, 99]

    def test_schedule_batch_delayed_interleaves_with_schedule(self, sim):
        fired = []
        sim.schedule(5, fired.append, "before")
        sim.schedule_batch(5, [(fired.append, (i,)) for i in range(3)])
        sim.schedule(5, fired.append, "after")
        sim.schedule(3, fired.append, "earlier")
        sim.run()
        assert fired == ["earlier", "before", 0, 1, 2, "after"]
        assert sim.now == 5

    def test_schedule_batch_negative_delay_raises(self, sim):
        with pytest.raises(SimulationError, match="past"):
            sim.schedule_batch(-1, [(print, ())])

    def test_schedule_batch_counts_events(self, sim):
        assert sim.schedule_batch(0, []) == 0
        sim.schedule_batch(2, [(lambda: None, ()) for _ in range(4)])
        sim.run()
        assert sim.events_fired == 4

    def test_schedule_batch_at_absolute_tick(self, sim):
        fired = []
        sim.schedule(10, lambda: None)
        sim.run()
        assert sim.now == 10
        count = sim.schedule_batch_at(
            25, [(fired.append, (i,)) for i in range(3)]
        )
        assert count == 3
        sim.run()
        assert fired == [0, 1, 2]
        assert sim.now == 25

    def test_schedule_batch_at_current_tick_allowed(self, sim):
        fired = []
        sim.schedule_batch_at(0, [(fired.append, ("now",))])
        sim.run()
        assert fired == ["now"]

    def test_schedule_batch_at_past_tick_raises(self, sim):
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="past"):
            sim.schedule_batch_at(5, [(print, ())])

    @pytest.mark.parametrize("instrumented", [True, False])
    def test_accounting_identical_across_modes(self, instrumented):
        counts = OwnerCounts()
        sim = Simulator(trace=counts if instrumented else None)
        bus = Resource(sim, "bus")
        mailbox = Queue(sim, "mailbox")

        def producer():
            for i in range(10):
                yield i % 3
                mailbox.put(i)

        def consumer():
            for _ in range(10):
                item = yield mailbox.get()
                yield from bus.use(1 + item % 2)

        sim.spawn(producer(), name="prod")
        sim.spawn(consumer(), name="cons")
        final = sim.run()
        # The same workload fires the same events and lands on the same
        # tick whether or not the drain loop reports each event to the
        # trace hook (the order is pinned in full by
        # tests/test_sim_determinism.py).
        assert (final, sim.events_fired) == (15, 42)
        assert sum(counts.values()) == (42 if instrumented else 0)

    def test_max_events_budget_respected_in_batch_mode(self):
        sim = Simulator()
        fired = []
        for index in range(4):
            sim.schedule(0, fired.append, index)
            sim.schedule(index + 1, fired.append, 10 + index)
        assert sim.run(max_events=3) == 0
        assert len(fired) == 3
        sim.run(max_events=2)
        assert len(fired) == 5
        sim.run()
        assert len(fired) == 8


class TestNamedFlag:
    def test_plain_simulator_skips_process_names(self):
        assert not Simulator().named

    def test_profiling_and_tracing_enable_names(self):
        engine.set_trace_default(OwnerCounts())
        try:
            assert Simulator().named
        finally:
            engine.set_trace_default(None)
        assert Simulator(trace=lambda *args: None).named


class TestQueuePutGuards:
    def test_put_to_externally_completed_getter_raises(self, sim):
        mailbox = Queue(sim, "mailbox")
        future = mailbox.get()
        future.set_result("stolen")
        with pytest.raises(SimulationError, match="already completed"):
            mailbox.put("item")


class TestEventAccounting:
    def test_events_fired_counts_ring_and_heap(self, sim):
        def proc():
            yield 0
            yield 2
            yield None

        sim.spawn(proc(), name="p")
        sim.schedule(1, lambda: None)
        sim.run()
        # spawn step + three resumes + one callback.
        assert sim.events_fired == 5

    def test_max_events_exact_with_mixed_sources(self, sim):
        fired = []
        for index in range(4):
            sim.schedule(0, fired.append, index)
            sim.schedule(index + 1, fired.append, 10 + index)
        assert sim.run(max_events=3) == 0
        assert len(fired) == 3
        assert sim.events_fired == 3
        sim.run(max_events=2)
        assert len(fired) == 5
        sim.run()
        assert len(fired) == 8

    def test_run_until_budget_counts_all_events(self, sim):
        done = sim.future()

        def proc():
            yield 0
            yield 1
            done.set_result("ok")

        sim.spawn(proc())
        assert sim.run_until(done, max_events=10) == "ok"
        assert sim.events_fired == 3
