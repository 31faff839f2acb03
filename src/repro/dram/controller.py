"""An FR-FCFS DRAM memory controller model.

Modelled after the gem5 event-driven DRAM controller the paper cites
([37] Hansson et al., ISPASS 2014): per-bank state machines, a
first-ready first-come-first-served scheduler, separate read and write
queues with a write-drain watermark, and a shared data bus that caps
channel bandwidth at one cacheline per ``tBURST``.

The controller issues commands in a pipelined fashion — picking the next
request only costs command-bus time (``tCMD``) — so independent banks
overlap their ACT/PRE latencies and the channel can sustain its full
data-bus bandwidth under row-hit streams.  This matters for the Fig. 5
reproduction, where an MLC-style injector drives the channel to
saturation.

The scheduler is a pair of plain callbacks, like gem5's
``nextReqEvent``/``respondEvent``, not a process.  An access that finds
the channel idle queues :meth:`MemoryController._wake_step` on the
same-tick ring; it makes the FR-FCFS pick and schedules
:meth:`MemoryController._issue_step` one ``tCMD`` later.  That step
issues the request, then either picks the next one and schedules
itself again or, with both queues empty, marks the channel idle.  Each
step takes the ``seq`` the equivalent generator step would take
(completion first, then the next step), so every executed
``(time, seq)`` matches a scheduler process parked on a wake future;
only the events' owner label is ``MemoryController:<name>``
(``tests/data/golden_dram_stream.json`` pins the stream).  An idle
controller holds no event, no future and no generator, so it is freed
by reference count like any other component.

The per-request host work is kept small for the saturated fig5 cells,
where an MLC injector issues one-cacheline requests back to back:

* every request carries its head ``(bank, row)`` — the first same-row
  run's coordinates — in two slots.  A one-line request takes them
  straight from the page-coordinate cache and builds no run list;
  only multi-line requests carry ``runs``.  The cache decodes each
  page once, through ``DRAMGeometry.bank_row_of``;
* ``_pick`` reads the head coordinates for its row-hit test, and when
  the chosen queue holds one request it pops it without building the
  FR-FCFS key tuples (the hit streak moves exactly as the general loop
  would move it);
* the queue-depth and latency histograms take their first sample
  through ``stats.sample`` (so they are created lazily, in first-use
  order) and every later one through the histogram's bound
  ``append``.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, List, Optional

from repro.dram.bank import Bank
from repro.dram.geometry import PAGE_OFFSET_BITS, DRAMGeometry
from repro.params import DRAMTimingParams
from repro.sim import Component, Future, Simulator
from repro.units import CACHELINE, PAGE


class MemRequest:
    """One memory request, possibly spanning multiple cachelines."""

    __slots__ = (
        "address",
        "is_write",
        "size_bytes",
        "priority",
        "arrival",
        "completion",
        "num_lines",
        "bank",
        "row",
        "runs",
    )

    def __init__(
        self,
        address: int,
        is_write: bool,
        size_bytes: int = CACHELINE,
        priority: int = 0,
        arrival: int = 0,
        completion: Optional[Future] = None,
    ):
        self.address = address
        self.is_write = is_write
        self.size_bytes = size_bytes
        self.priority = priority
        self.arrival = arrival
        self.completion = completion
        num_lines = -(-size_bytes // CACHELINE)
        self.num_lines = num_lines if num_lines > 1 else 1
        """Cachelines touched, at least one (requests are line-aligned in
        this model)."""
        self.bank: Optional[Bank] = None
        self.row: Optional[int] = None
        """The head ``(bank, global_row)``: where the first line lands,
        set once at :meth:`MemoryController.access`."""
        self.runs: Optional[list] = None
        """``(bank, global_row, line_count)`` per same-row run, for
        multi-line requests only (set at :meth:`MemoryController.access`)."""


class MemoryController(Component):
    """One channel's memory controller plus its DRAM banks.

    Parameters
    ----------
    sim, name:
        Simulation bindings.
    timing:
        The channel's DDR timing table.
    geometry:
        DRAM organization for address decoding.  Addresses given to
        :meth:`access` are *channel-local* physical addresses.
    write_watermark:
        Write-queue depth beyond which writes are drained even while
        reads are pending.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        timing: DRAMTimingParams,
        geometry: Optional[DRAMGeometry] = None,
        write_watermark: int = 16,
        hit_streak_limit: int = 4,
    ):
        super().__init__(sim, name)
        self.timing = timing
        self.geometry = geometry or DRAMGeometry()
        self.write_watermark = write_watermark
        self.hit_streak_limit = hit_streak_limit
        """Starvation guard: after this many consecutive row-hit-first
        picks, the scheduler serves the oldest request regardless of its
        row state (standard FR-FCFS fairness cap)."""
        self._banks: dict[int, Bank] = {}
        self._read_queue: List[MemRequest] = []
        self._write_queue: List[MemRequest] = []
        self._bus_free = 0
        self._scheduler_running = False
        """Whether a scheduler step is queued (the channel is not idle)."""
        self._counters = self.stats.counters
        # Bound ``append`` of each per-request histogram, cached after
        # its first sample (see ``_first_sample``).
        self._read_depth_append: Optional[Callable[[float], None]] = None
        self._write_depth_append: Optional[Callable[[float], None]] = None
        self._latency_append: Optional[Callable[[float], None]] = None
        self._hit_streak = 0
        # Requests carry their precomputed head (bank, row), and
        # multi-line ones their (bank, row, count) runs, so the
        # scheduler never decodes an address per line.  The page-level
        # coords cache is valid because every DRAM coordinate above the
        # cacheline sits above the 4 KB page offset, so one page maps to
        # exactly one (bank, global_row).
        self._coords_cache: dict[int, tuple[Bank, int]] = {}

    # -- public API ----------------------------------------------------------

    def access(
        self,
        address: int,
        is_write: bool,
        size_bytes: int = CACHELINE,
        priority: int = 0,
    ) -> Future:
        """Submit a request; the future completes when data is transferred.

        For reads the completion tick is when the last cacheline has
        crossed the data bus; for writes it is when the last line has been
        written to the array (callers modelling posted writes simply do
        not wait on the future).
        """
        sim = self.sim
        pool = sim._future_pool
        completion = pool.pop() if pool else Future(sim)
        request = MemRequest(address, is_write, size_bytes, priority, sim._now, completion)
        if size_bytes <= CACHELINE:
            coords = self._coords_cache.get(address >> PAGE_OFFSET_BITS)
            if coords is None:
                coords = self._coords(address)
            request.bank, request.row = coords
        else:
            runs = request.runs = self._request_runs(request)
            request.bank, request.row, _count = runs[0]
        counters = self._counters
        if is_write:
            queue = self._write_queue
            queue.append(request)
            counters["writes"] = counters.get("writes", 0) + 1
            append = self._write_depth_append
            if append is None:
                self._write_depth_append = self._first_sample(
                    "write_queue_depth", len(queue)
                )
            else:
                append(len(queue))
        else:
            queue = self._read_queue
            queue.append(request)
            counters["reads"] = counters.get("reads", 0) + 1
            append = self._read_depth_append
            if append is None:
                self._read_depth_append = self._first_sample(
                    "read_queue_depth", len(queue)
                )
            else:
                append(len(queue))
        if not self._scheduler_running:
            # Wake the idle channel: one ring entry, with the next seq.
            self._scheduler_running = True
            seq = sim._seq + 1
            sim._seq = seq
            sim._ring_append((seq, self._wake_step, ()))
        return completion

    def read(self, address: int, size_bytes: int = CACHELINE, priority: int = 0) -> Future:
        """Convenience wrapper for a read access."""
        return self.access(address, is_write=False, size_bytes=size_bytes, priority=priority)

    def write(self, address: int, size_bytes: int = CACHELINE, priority: int = 0) -> Future:
        """Convenience wrapper for a write access."""
        return self.access(address, is_write=True, size_bytes=size_bytes, priority=priority)

    @property
    def queued_requests(self) -> int:
        """Requests waiting to be issued."""
        return len(self._read_queue) + len(self._write_queue)

    def _coords(self, address: int) -> tuple[Bank, int]:
        """(bank, global_row) for ``address``, cached per 4 KB page.

        Banks are created lazily, on the first access that decodes to them.
        """
        page = address >> PAGE_OFFSET_BITS
        entry = self._coords_cache.get(page)
        if entry is None:
            key, row = self.geometry.bank_row_of(address)
            bank = self._banks.get(key)
            if bank is None:
                bank = Bank(self.timing)
                self._banks[key] = bank
            entry = (bank, row)
            self._coords_cache[page] = entry
        return entry

    def _request_runs(self, request: MemRequest) -> list:
        """Split a request into same-row ``(bank, row, count)`` runs.

        Lines within one page share (bank, row); a run breaks only at a
        page boundary.
        """
        base = request.address - (request.address % CACHELINE)
        remaining = request.num_lines
        runs = []
        while remaining:
            bank, row = self._coords(base)
            in_page = (PAGE - (base & (PAGE - 1))) // CACHELINE
            take = in_page if in_page < remaining else remaining
            runs.append((bank, row, take))
            base += take * CACHELINE
            remaining -= take
        return runs

    def _first_sample(self, name: str, value: float) -> Callable[[float], None]:
        """Record histogram ``name``'s first sample; return its bound append.

        The first sample goes through ``stats.sample``, which creates the
        histogram, so histograms appear in the recorder in first-use
        order.  Later samples go straight to the returned append.
        """
        self.stats.sample(name, value)
        return self.stats.histograms[name]._samples.append

    # -- scheduling ------------------------------------------------------------

    def _wake_step(self) -> None:
        """Pick the first request of a busy period; issue it after ``tCMD``."""
        self._after_command(self._pick())

    def _issue_step(self, request: MemRequest) -> None:
        """Issue ``request``; then pick the next one, or go idle."""
        self._issue(request)
        if self._read_queue or self._write_queue:
            self._after_command(self._pick())
        else:
            self._scheduler_running = False

    def _after_command(self, request: MemRequest) -> None:
        """Schedule ``_issue_step(request)`` once the command bus frees.

        The step is bound per call, not cached on ``self``: a stored
        bound method would make the controller a reference cycle.  A
        zero ``tCMD`` (a timing override may set one) goes on the
        same-tick ring, since the heap takes only future ticks.
        """
        sim = self.sim
        seq = sim._seq + 1
        sim._seq = seq
        tCMD = self.timing.tCMD
        if tCMD:
            heappush(sim._queue, (sim._now + tCMD, seq, self._issue_step, (request,)))
        else:
            sim._ring_append((seq, self._issue_step, (request,)))

    def _pick(self) -> MemRequest:
        """FR-FCFS: prefer row hits, then lowest priority value, then oldest.

        Reads go before writes unless the write queue is past its
        watermark (or there are no reads).
        """
        drain_writes = (
            len(self._write_queue) > self.write_watermark or not self._read_queue
        )
        queue = self._write_queue if drain_writes else self._read_queue
        if len(queue) == 1:
            # The only candidate wins; the streak moves exactly as in
            # the general loop below.
            request = queue.pop()
            if request.bank.open_row == request.row:
                self._hit_streak += request.num_lines
            else:
                self._hit_streak = 0
            return request

        # Starvation guard: past the streak limit, fall back to pure
        # (priority, age) order so open-row streams cannot monopolize.
        honor_row_hits = self._hit_streak < self.hit_streak_limit

        best_index = 0
        best_key = None
        best_was_hit = False
        # The row-hit test reads the precomputed head coordinates — no
        # decode, no bank lookup.
        for index, request in enumerate(queue):
            row_hit = request.bank.open_row == request.row
            hit_rank = 0 if (row_hit and honor_row_hits) else 1
            key = (hit_rank, request.priority, request.arrival, index)
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
                best_was_hit = row_hit
        request = queue.pop(best_index)
        if best_was_hit:
            # Streak is counted in cachelines, not requests, so a single
            # multi-line streaming request consumes its fair share of the
            # row-hit budget.
            self._hit_streak += request.num_lines
        else:
            self._hit_streak = 0
        return request

    def _issue(self, request: MemRequest) -> None:
        """Walk the request's lines through bank timing and the data bus."""
        sim = self.sim
        now = sim._now
        tBURST = self.timing.tBURST
        # Each line lands on the data bus at max(data ready, previous
        # line's transfer end + tBURST), with bus occupancy folded in as
        # plain arithmetic.  A one-line request takes a single bank
        # timing call; longer ones take one access_ready_batch call per
        # same-row run.
        bus_free = self._bus_free
        is_write = request.is_write
        num_lines = request.num_lines
        if num_lines == 1:
            transfer_end = bus_free + tBURST
            data_time = request.bank.access_ready_time(now, request.row, is_write)
            if data_time > transfer_end:
                transfer_end = data_time
        else:
            for bank, row, count in request.runs:
                for data_time in bank.access_ready_batch(now, row, is_write, count):
                    transfer_end = bus_free + tBURST
                    if data_time > transfer_end:
                        transfer_end = data_time
                    bus_free = transfer_end
        self._bus_free = transfer_end
        finish = transfer_end if transfer_end > now else now
        counters = self._counters
        counters["bus_busy_ticks"] = counters.get("bus_busy_ticks", 0) + tBURST * num_lines
        latency_ns = (finish - request.arrival) / 1000
        append = self._latency_append
        if append is None:
            self._latency_append = self._first_sample("request_latency_ns", latency_ns)
        else:
            append(latency_ns)
        counters["lines_transferred"] = counters.get("lines_transferred", 0) + num_lines
        # Inlined sim.schedule_at(finish, completion.set_result, finish).
        seq = sim._seq + 1
        sim._seq = seq
        set_result = request.completion.set_result
        if finish == now:
            sim._ring_append((seq, set_result, (finish,)))
        else:
            heappush(sim._queue, (finish, seq, set_result, (finish,)))
