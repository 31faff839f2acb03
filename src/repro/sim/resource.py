"""Contention primitives: FIFO resources and latency/bandwidth pipes.

These model the shared hardware that creates queueing in the paper's
system: memory-controller ports, the DDR command/data bus, PCIe links,
and the NetDIMM-internal arbitration between the PHY and the nNIC
(Sec. 4.1, "nController does this arbitration").
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import Any, Deque, Optional

from repro.sim.engine import Future, SimulationError, Simulator
from repro.units import transfer_time


class Resource:
    """A mutual-exclusion resource with a FIFO (optionally prioritized) queue.

    ``acquire`` returns a future that completes when the caller holds the
    resource; the caller must later call ``release`` exactly once.  Lower
    ``priority`` values are served first; ties are FIFO.  This two-level
    policy is exactly what the NetDIMM nController needs: nNIC accesses
    are given priority over host PHY accesses (Sec. 4.1).
    """

    # Slot the hot attributes for faster access in acquire/release
    # (the contention benchmark's inner loop); ``__dict__`` stays so
    # subclasses and ad-hoc annotations keep working.
    __slots__ = (
        "sim",
        "name",
        "_busy",
        "_waiters",
        "_ticket",
        "total_acquisitions",
        "total_wait_ticks",
        "__dict__",
    )

    def __init__(self, sim: Simulator, name: str = "resource"):
        self.sim = sim
        self.name = name
        self._busy = False
        self._waiters: list[tuple[int, int, Future]] = []
        self._ticket = 0
        self.total_acquisitions = 0
        self.total_wait_ticks = 0

    @property
    def busy(self) -> bool:
        """Whether the resource is currently held."""
        return self._busy

    @property
    def queue_length(self) -> int:
        """Number of pending acquirers."""
        return len(self._waiters)

    def acquire(self, priority: int = 0) -> Future:
        """Request the resource; the future completes when it is granted."""
        # Inlined Simulator.future(): acquire churns one future per
        # grant, so the pool hit (use() recycles) plus the saved call
        # matter under contention.
        sim = self.sim
        pool = sim._future_pool
        future = pool.pop() if pool else Future(sim)
        if not self._busy and not self._waiters:
            self._busy = True
            self.total_acquisitions += 1
            future.set_result(sim._now)
        else:
            self._ticket += 1
            # Binary insertion keeping (priority, ticket) order; tickets
            # are unique, so the tuple comparison never reaches the
            # (incomparable) future.  Contended queues get hundreds of
            # waiters deep (see bench_kernel's contention benchmark), so
            # this beats a linear scan.
            insort(self._waiters, (priority, self._ticket, future))
        return future

    def release(self) -> None:
        """Release the resource, granting it to the next waiter (if any)."""
        if not self._busy:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            _priority, _ticket, future = self._waiters.pop(0)
            self.total_acquisitions += 1
            future.set_result(self.sim.now)
        else:
            self._busy = False

    def use(self, hold_ticks: int, priority: int = 0):
        """Process helper: acquire, hold for ``hold_ticks``, release.

        Usage inside a process: ``yield from resource.use(duration)``.
        Returns the tick at which the resource was granted.
        """
        request_time = self.sim.now
        future = self.acquire(priority)
        granted_at = yield future
        # The grant future never escapes this frame, so it can go back
        # to the simulator's free-list pool (a recycle point: resources
        # churn one future per acquisition).
        self.sim.recycle(future)
        self.total_wait_ticks += granted_at - request_time
        if hold_ticks:
            yield hold_ticks
        self.release()
        return granted_at


class Pipe:
    """A point-to-point channel with propagation latency and bandwidth.

    Transfers serialize on the pipe: a message occupies the pipe for
    ``size / bandwidth`` ticks, and arrives ``latency`` ticks after its
    serialization finishes.  This is the standard store-and-forward wire
    model used for Ethernet links and for modeling raw channel occupancy.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        latency: int,
        bytes_per_ps: float,
    ):
        if latency < 0:
            raise ValueError(f"negative latency: {latency}")
        self.sim = sim
        self.name = name
        self.latency = latency
        self.bytes_per_ps = bytes_per_ps
        self._bus = Resource(sim, name=f"{name}.bus")
        self.bytes_sent = 0
        self.messages_sent = 0

    def occupancy_ticks(self, size_bytes: int) -> int:
        """Serialization time for a message of ``size_bytes``."""
        return transfer_time(size_bytes, self.bytes_per_ps)

    def send(self, size_bytes: int, payload: Any = None) -> Future:
        """Send a message; the future completes on arrival with ``payload``."""
        arrival = self.sim.future()
        sim = self.sim
        sim.spawn(self._send_body(size_bytes, payload, arrival),
                  name=f"{self.name}.send" if sim.named else "")
        return arrival

    def _send_body(self, size_bytes: int, payload: Any, arrival: Future):
        yield from self._bus.use(self.occupancy_ticks(size_bytes))
        self.bytes_sent += size_bytes
        self.messages_sent += 1
        self.sim.schedule(self.latency, arrival.set_result, payload)


class Queue:
    """An unbounded FIFO message queue between processes.

    ``get`` returns a future completing when an item is available;
    ``put`` delivers immediately.  Used for device mailboxes (e.g. the
    nNIC RX buffer handing packets to the nController).
    """

    # Slotted like Resource: put/get are the message-passing hot path.
    __slots__ = ("sim", "name", "_items", "_getters", "max_depth", "total_puts", "__dict__")

    def __init__(self, sim: Simulator, name: str = "queue"):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Future] = deque()
        self.max_depth = 0
        self.total_puts = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Enqueue ``item``, waking the oldest waiting getter if any."""
        self.total_puts += 1
        getters = self._getters
        if getters:
            # Inlined Future.set_result: put-with-waiter is the hottest
            # message-passing path (one completion per delivered item),
            # and the saved call frame is measurable at ping-pong rates.
            future = getters.popleft()
            if future._done:
                raise SimulationError("future already completed")
            future._done = True
            future._value = item
            callbacks = future._callbacks
            if callbacks is not None:
                future._callbacks = None
                if type(callbacks) is list:
                    for fn in callbacks:
                        fn(future)
                else:
                    callbacks(future)
        else:
            self._items.append(item)
            self.max_depth = max(self.max_depth, len(self._items))

    def get(self) -> Future:
        """Dequeue the next item (future completes when one exists)."""
        # Inlined Simulator.future() — get() sits on the message-passing
        # hot path (one future per received item).
        sim = self.sim
        pool = sim._future_pool
        future = pool.pop() if pool else Future(sim)
        if self._items:
            future.set_result(self._items.popleft())
        else:
            self._getters.append(future)
        return future

    def peek(self) -> Optional[Any]:
        """The head item without removing it, or None if empty."""
        return self._items[0] if self._items else None
