"""FR-FCFS memory controller: latency, bandwidth, scheduling."""

import gc

import pytest

from repro.core.netdimm import NetDIMMDevice
from repro.dram.controller import MemoryController, MemRequest
from repro.params import ddr4_2400, ddr5_4800
from repro.sim import Simulator, SimulationError
from repro.units import CACHELINE, to_ns


@pytest.fixture
def mc(sim):
    return MemoryController(sim, "mc", ddr4_2400())


class TestMemRequest:
    def test_single_line(self):
        request = MemRequest(address=0, is_write=False)
        assert request.num_lines == 1

    def test_mtu_spans_24_lines(self):
        request = MemRequest(address=0, is_write=False, size_bytes=1514)
        assert request.num_lines == 24

    @pytest.mark.parametrize(
        "size_bytes, lines", [(0, 1), (1, 1), (64, 1), (65, 2), (1514, 24)]
    )
    def test_num_lines(self, size_bytes, lines):
        request = MemRequest(address=0, is_write=False, size_bytes=size_bytes)
        assert request.num_lines == lines


class TestLatency:
    def test_idle_read_latency_reasonable(self, sim, mc):
        done = mc.read(0x1000)
        finish = sim.run_until(done)
        # tCMD + tRCD + tCL + tBURST ~ 32 ns for DDR4-2400.
        assert 20 <= to_ns(finish) <= 45

    def test_row_hit_faster_than_first_access(self, sim, mc):
        sim.run_until(mc.read(0x1000))
        first = sim.now
        sim.run_until(mc.read(0x1040))
        assert sim.now - first < first

    def test_multi_line_read_single_completion(self, sim, mc):
        done = mc.read(0x0, size_bytes=1514)
        sim.run_until(done)
        assert mc.stats.get_counter("lines_transferred") == 24

    def test_write_completes(self, sim, mc):
        done = mc.write(0x2000, size_bytes=256)
        sim.run_until(done)
        assert mc.stats.get_counter("writes") == 1

    def test_latency_histogram_recorded(self, sim, mc):
        sim.run_until(mc.read(0x0))
        histogram = mc.stats.histogram("request_latency_ns")
        assert histogram.count == 1

    def test_queueing_increases_latency(self, sim):
        mc = MemoryController(sim, "mc", ddr4_2400())
        # Saturate with many same-tick requests to random banks.
        futures = [mc.read(i * 257 * CACHELINE) for i in range(100)]
        sim.run_until(sim.all_of(futures))
        histogram = mc.stats.histogram("request_latency_ns")
        assert histogram.maximum > histogram.minimum


class TestBandwidth:
    def test_sequential_stream_near_peak(self, sim, mc):
        count = 2000
        futures = [mc.read(0x100000 + i * CACHELINE) for i in range(count)]
        sim.run_until(sim.all_of(futures))
        gbps = count * CACHELINE / (sim.now / 1e12) / 1e9
        # DDR4-2400 peak is 19.2 GB/s; a row-hit stream should be close.
        assert gbps > 17.0

    def test_ddr5_doubles_bandwidth(self, sim):
        mc = MemoryController(sim, "mc5", ddr5_4800())
        count = 2000
        futures = [mc.read(0x100000 + i * CACHELINE) for i in range(count)]
        sim.run_until(sim.all_of(futures))
        gbps = count * CACHELINE / (sim.now / 1e12) / 1e9
        assert gbps > 34.0

    def test_bus_busy_ticks_accumulate(self, sim, mc):
        sim.run_until(mc.read(0x0, size_bytes=1514))
        assert mc.stats.get_counter("bus_busy_ticks") == 24 * mc.timing.tBURST


class TestScheduling:
    def test_reads_prioritized_over_writes(self, sim, mc):
        # Enqueue a write burst, then a read: the read should complete
        # before the full write burst drains.
        writes = [mc.write(i * 8192 * CACHELINE) for i in range(10)]
        read_done = mc.read(0x500000)
        read_finish = sim.run_until(read_done)
        sim.run_until(sim.all_of(writes))
        assert read_finish <= sim.now

    def test_priority_requests_served_first(self, sim, mc):
        completions = []
        # Fill the queue so ordering matters, all to conflicting rows.
        for i in range(20):
            future = mc.read(i * 1024 * 1024, priority=1)
            future.add_callback(lambda f, i=i: completions.append(("low", i)))
        urgent = mc.read(0x40 << 20, priority=0)
        urgent.add_callback(lambda f: completions.append(("high", 0)))
        sim.run()
        high_position = completions.index(("high", 0))
        # Not necessarily first (one low request may already be issued),
        # but well ahead of the tail.
        assert high_position < 5

    def _stream_with_victim(self, sim, hit_streak_limit):
        """A row-hit stream with a conflicting-row victim in the middle;
        returns (victim_finish, stream_finish)."""
        mc = MemoryController(
            sim, "mc", ddr4_2400(), hit_streak_limit=hit_streak_limit
        )
        finish_times = {}
        stream = [mc.read(0x100000 + i * CACHELINE) for i in range(32)]
        victim = mc.read(0x40 << 21)
        stream += [mc.read(0x100000 + (32 + i) * CACHELINE) for i in range(32)]
        victim.add_callback(lambda f: finish_times.setdefault("victim", sim.now))
        stream[-1].add_callback(lambda f: finish_times.setdefault("stream", sim.now))
        sim.run()
        return finish_times["victim"], finish_times["stream"]

    def test_hit_streak_cap_prevents_starvation(self, sim):
        victim_finish, stream_finish = self._stream_with_victim(sim, hit_streak_limit=4)
        assert victim_finish < stream_finish

    def test_without_cap_row_hits_starve_victim(self, sim):
        victim_finish, stream_finish = self._stream_with_victim(
            sim, hit_streak_limit=10**9
        )
        assert victim_finish >= stream_finish

    def test_queue_depth_stat_sampled(self, sim, mc):
        for i in range(5):
            mc.read(i * CACHELINE)
        sim.run()
        assert mc.stats.histogram("read_queue_depth").count == 5

    def test_scheduler_restarts_after_idle(self, sim, mc):
        sim.run_until(mc.read(0x0))
        first = sim.now
        sim.run(until=first + 1_000_000)
        sim.run_until(mc.read(0x1000))
        assert sim.now > first

    def test_queued_requests_property(self, sim, mc):
        mc.read(0)
        mc.write(64)
        assert mc.queued_requests == 2
        sim.run()
        assert mc.queued_requests == 0


class TestPickOneEntryQueue:
    """A one-entry queue is popped without the FR-FCFS key tuples; the
    row-hit streak must move exactly as the general loop moves it."""

    OPEN = 0x100000
    """The warm-up read opens this address's row."""
    DECOY = 0x3000
    """A low-priority request on an idle bank that the general loop
    never picks over the request under test."""

    def _streak_after_pick(self, address, size_bytes, streak, decoy):
        sim = Simulator()
        mc = MemoryController(sim, "mc", ddr4_2400())
        sim.run_until(mc.read(self.OPEN))
        sim.run()
        mc._hit_streak = streak
        mc.read(address, size_bytes=size_bytes)
        request = mc._read_queue[-1]
        if decoy:
            mc.read(self.DECOY, priority=1)
            other = mc._read_queue[-1]
            assert other.bank.open_row != other.row
        assert mc._pick() is request
        return mc._hit_streak, request.bank.open_row == request.row

    @pytest.mark.parametrize(
        "address, size_bytes, streak, expected, row_hit",
        [
            (OPEN + CACHELINE, CACHELINE, 2, 3, True),
            (OPEN + CACHELINE, 4 * CACHELINE, 2, 6, True),
            (0x40 << 21, CACHELINE, 2, 0, False),
            # At the cap, row hits no longer win the pick, but a picked
            # hit still extends the streak.
            (OPEN + CACHELINE, CACHELINE, 4, 5, True),
        ],
        ids=["hit", "multi_line_hit", "miss", "at_cap"],
    )
    def test_streak_matches_general_loop(
        self, address, size_bytes, streak, expected, row_hit
    ):
        alone = self._streak_after_pick(address, size_bytes, streak, decoy=False)
        general = self._streak_after_pick(address, size_bytes, streak, decoy=True)
        assert alone == general == (expected, row_hit)


class TestSchedulerLifecycle:
    """The scheduler is two callbacks: no process, nothing left when idle."""

    def test_spawns_no_process_across_busy_periods(self, sim, mc, monkeypatch):
        spawned = []
        spawn = sim.spawn
        monkeypatch.setattr(
            sim, "spawn", lambda body, name="": spawned.append(body) or spawn(body, name)
        )
        sim.run_until(sim.all_of([mc.read(i * 257 * CACHELINE) for i in range(8)]))
        sim.run(until=sim.now + 1_000_000)
        writes = [mc.write(0x100000 + i * CACHELINE, size_bytes=256) for i in range(8)]
        sim.run_until(sim.all_of(writes))
        sim.run()
        assert spawned == []
        assert mc.stats.get_counter("lines_transferred") == 8 + 8 * 4

    def test_no_events_pending_after_queues_drain(self, sim, mc):
        mc.read(0)
        mc.write(64)
        mc.read(0x1000, size_bytes=1514)
        sim.run()
        assert mc.queued_requests == 0
        assert sim.pending_events == 0

    def test_parked_scheduler_does_not_keep_run_until_alive(self, sim, mc):
        mc.read(0)
        with pytest.raises(SimulationError, match="event queue drained"):
            sim.run_until(sim.future())
        assert sim.pending_events == 0


class TestNoCyclicGarbage:
    """A dropped controller is freed by reference count, not by the GC."""

    def test_dropped_controller_leaves_no_cyclic_garbage(self, no_gc):
        sim = Simulator()
        mc = MemoryController(sim, "mc", ddr4_2400())
        sim.run_until(sim.all_of([mc.read(i * 257 * CACHELINE) for i in range(8)]))
        sim.run_until(mc.write(0x100000, size_bytes=1514))
        sim.run(until=sim.now + 1_000_000)
        del sim, mc
        assert gc.collect() == 0

    def test_dropped_netdimm_device_leaves_no_cyclic_garbage(self, no_gc):
        sim = Simulator()
        device = NetDIMMDevice(sim, "nd")
        sim.run_until(device.device_read(0, CACHELINE))
        sim.run()
        del sim, device
        assert gc.collect() == 0
