"""The discrete-event kernel: events, futures, processes."""

import gc
import traceback

import pytest
from hypothesis import given, strategies as st

from repro.sim import Future, SimulationError, Simulator
from tests.conftest import run_process


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0

    def test_event_fires_at_scheduled_time(self, sim):
        fired = []
        sim.schedule(100, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [100]

    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(300, order.append, "c")
        sim.schedule(100, order.append, "a")
        sim.schedule(200, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_tick_events_fire_in_scheduling_order(self, sim):
        order = []
        for label in "abcdef":
            sim.schedule(50, order.append, label)
        sim.run()
        assert order == list("abcdef")

    def test_schedule_at_absolute_time(self, sim):
        fired = []
        sim.schedule_at(500, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [500]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_run_until_time_stops_clock_there(self, sim):
        sim.schedule(1000, lambda: None)
        sim.run(until=400)
        assert sim.now == 400
        assert sim.pending_events == 1

    def test_run_until_time_advances_idle_clock(self, sim):
        sim.run(until=250)
        assert sim.now == 250

    def test_run_max_events_bounds_execution(self, sim):
        count = []
        for _ in range(10):
            sim.schedule(1, count.append, 1)
        sim.run(max_events=3)
        assert len(count) == 3

    def test_events_fired_counter(self, sim):
        for i in range(5):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_fired == 5

    def test_nested_scheduling(self, sim):
        trace = []

        def outer():
            trace.append(("outer", sim.now))
            sim.schedule(50, inner)

        def inner():
            trace.append(("inner", sim.now))

        sim.schedule(10, outer)
        sim.run()
        assert trace == [("outer", 10), ("inner", 60)]

    @given(st.lists(st.integers(min_value=0, max_value=10**6), max_size=50))
    def test_arbitrary_delays_fire_sorted(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, fired.append, delay)
        sim.run()
        assert fired == sorted(delays)


class TestFuture:
    def test_pending_until_set(self, sim):
        future = sim.future()
        assert not future.done

    def test_value_after_set(self, sim):
        future = sim.future()
        future.set_result(42)
        assert future.done
        assert future.value == 42

    def test_value_before_done_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.future().value

    def test_double_set_raises(self, sim):
        future = sim.future()
        future.set_result(1)
        with pytest.raises(SimulationError):
            future.set_result(2)

    def test_exception_propagates_to_value(self, sim):
        future = sim.future()
        future.set_exception(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            future.value

    def test_callback_fires_on_completion(self, sim):
        future = sim.future()
        seen = []
        future.add_callback(lambda f: seen.append(f.value))
        future.set_result("x")
        assert seen == ["x"]

    def test_callback_on_done_future_fires_immediately(self, sim):
        future = sim.completed("y")
        seen = []
        future.add_callback(lambda f: seen.append(f.value))
        assert seen == ["y"]

    def test_timeout_completes_after_delay(self, sim):
        future = sim.timeout(500, "done")
        assert sim.run_until(future) == "done"
        assert sim.now == 500

    def test_all_of_empty(self, sim):
        combined = sim.all_of([])
        assert combined.done
        assert combined.value == []

    def test_all_of_waits_for_all(self, sim):
        futures = [sim.timeout(delay, delay) for delay in (300, 100, 200)]
        combined = sim.all_of(futures)
        assert sim.run_until(combined) == [300, 100, 200]
        assert sim.now == 300


class TestProcess:
    def test_yield_int_sleeps(self, sim):
        marks = []

        def body():
            marks.append(sim.now)
            yield 100
            marks.append(sim.now)
            yield 50
            marks.append(sim.now)

        run_process(sim, body())
        assert marks == [0, 100, 150]

    def test_return_value_becomes_done_value(self, sim):
        def body():
            yield 10
            return "result"

        assert run_process(sim, body()) == "result"

    def test_yield_future_receives_value(self, sim):
        def body():
            value = yield sim.timeout(100, "payload")
            return value

        assert run_process(sim, body()) == "payload"

    def test_yield_none_resumes_same_tick(self, sim):
        def body():
            before = sim.now
            yield None
            return sim.now - before

        assert run_process(sim, body()) == 0

    def test_yield_process_waits_for_child(self, sim):
        def child():
            yield 200
            return 7

        def parent():
            value = yield sim.spawn(child())
            return (value, sim.now)

        assert run_process(sim, parent()) == (7, 200)

    def test_negative_yield_raises_inside_process(self, sim):
        def body():
            yield -5

        process = sim.spawn(body())
        sim.run()
        with pytest.raises(SimulationError):
            process.done.value

    def test_unsupported_yield_raises(self, sim):
        def body():
            yield "not a valid thing"

        process = sim.spawn(body())
        sim.run()
        with pytest.raises(SimulationError):
            process.done.value

    def test_exception_in_body_captured(self, sim):
        def body():
            yield 1
            raise ValueError("model bug")

        process = sim.spawn(body())
        sim.run()
        with pytest.raises(ValueError, match="model bug"):
            process.done.value

    def test_exception_propagates_through_waiting_parent(self, sim):
        def child():
            yield 1
            raise KeyError("inner")

        def parent():
            try:
                yield sim.spawn(child())
            except KeyError:
                return "caught"
            return "missed"

        assert run_process(sim, parent()) == "caught"

    def test_spawn_at_starts_later(self, sim):
        def body():
            return sim.now
            yield  # pragma: no cover

        process = sim.spawn_at(400, body())
        assert sim.run_until(process.done) == 400

    def test_many_concurrent_processes(self, sim):
        results = []

        def body(index):
            yield index * 10
            results.append(index)

        for index in range(20):
            sim.spawn(body(index))
        sim.run()
        assert results == list(range(20))

    def test_run_until_drained_queue_raises(self, sim):
        future = sim.future()
        with pytest.raises(SimulationError, match="drained"):
            sim.run_until(future)

    def test_run_until_max_events_guard(self, sim):
        def forever():
            while True:
                yield 1

        process = sim.spawn(forever())
        with pytest.raises(SimulationError, match="max_events"):
            sim.run_until(process.done, max_events=100)


def _failing(sim, delay):
    future = sim.future()
    sim.schedule(delay, future.set_exception, ValueError("failed future"))
    return future


def _returns(sim):
    yield 5
    value = yield sim.timeout(3, "payload")
    child = yield sim.spawn(_child_returns(sim))
    return (value, child)


def _child_returns(sim):
    yield None
    return 7


def _raises(sim):
    yield 5
    raise ValueError("model bug")


def _throw_caught(sim):
    try:
        yield _failing(sim, 3)
    except ValueError:
        yield 2
        return "caught"


def _throw_raised(sim):
    yield _failing(sim, 3)


def _child_raised(sim):
    try:
        yield sim.spawn(_raises(sim))
    except ValueError:
        return "caught"


class TestFinishedProcessFreesByRefcount:
    """A finished process is no reference cycle, whatever way it ended.

    The simulator stays referenced: its future pool (futures point back
    at their simulator) is the kernel's one standing cycle, and this
    checks what the processes leave behind.
    """

    @pytest.mark.parametrize(
        "body, outcome",
        [
            (_returns, ("payload", 7)),
            (_raises, ValueError),
            (_throw_caught, "caught"),
            (_throw_raised, ValueError),
            (_child_raised, "caught"),
        ],
        ids=["return", "raise", "throw-caught", "throw-raised", "child-raised"],
    )
    def test_no_cyclic_garbage(self, no_gc, body, outcome):
        sim = Simulator()
        dones = [sim.spawn(body(sim)).done for _ in range(4)]
        sim.run()
        assert gc.collect() == 0
        for done in dones:
            assert done.done
            if isinstance(outcome, type):
                assert isinstance(done._exception, outcome)
            else:
                assert done.value == outcome

    def test_failure_traceback_starts_in_the_model(self, sim):
        process = sim.spawn(_raises(sim))
        sim.run()
        frames = traceback.extract_tb(process.done._exception.__traceback__)
        assert [frame.name for frame in frames] == ["_raises"]


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build_and_run():
            sim = Simulator()
            trace = []

            def worker(name, period):
                for _ in range(10):
                    yield period
                    trace.append((name, sim.now))

            sim.spawn(worker("a", 7))
            sim.spawn(worker("b", 11))
            sim.spawn(worker("c", 13))
            sim.run()
            return trace

        assert build_and_run() == build_and_run()
