"""An Intel-MLC-style memory request injector (Sec. 3, Fig. 5).

The paper's Fig. 5 motivation experiment uses Intel Memory Latency
Checker to inject dummy memory requests at a configurable rate (the
"delay" knob between requests, with read:write = 1) and shows iperf TCP
bandwidth collapsing to ~27.9% of its uncontended value at maximum
pressure.  :class:`MLCInjector` reproduces the injector half: a set of
threads each issuing an alternating read/write stream into a
:class:`~repro.dram.controller.MemoryController`, with ``delay`` idle
ticks between requests.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Optional

from repro.dram.controller import MemoryController
from repro.sim import Component, Simulator
from repro.units import CACHELINE, PAGE


class MLCInjector(Component):
    """Configurable-rate memory pressure against one controller."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        controller: MemoryController,
        delay: int,
        threads: int = 8,
        outstanding: int = 8,
        footprint_bytes: int = 64 * 1024 * 1024,
        read_write_ratio: float = 0.5,
        seed: int = 7,
    ):
        """``delay`` is the idle time between one thread's requests
        (ticks); ``outstanding`` is the per-thread memory-level
        parallelism (MLC's bandwidth mode keeps many loads in flight);
        ``read_write_ratio`` is the fraction of reads (the paper sets
        reads:writes to 1, i.e. 0.5)."""
        if footprint_bytes < CACHELINE:
            raise ValueError(
                f"footprint_bytes must cover one cacheline, got {footprint_bytes}"
            )
        super().__init__(sim, name)
        self.controller = controller
        self.delay = delay
        self.threads = threads
        self.outstanding = outstanding
        self.footprint_bytes = footprint_bytes
        self.read_write_ratio = read_write_ratio
        self._rng = random.Random(seed)
        self._stop = False

    def start(self) -> None:
        """Launch the injector threads.

        Each thread reads ``delay``, ``outstanding``, ``footprint_bytes``
        and ``read_write_ratio`` once, when it starts.
        """
        self._stop = False
        for thread in range(self.threads):
            self.sim.spawn(self._thread_body(thread), name=f"{self.name}.t{thread}")

    def stop(self) -> None:
        """Stop all threads after their in-flight request."""
        self._stop = True

    def _thread_body(self, thread: int):
        rng = random.Random(self._rng.random())
        getrandbits = rng.getrandbits
        uniform = rng.random
        access = self.controller.access
        counters = self.stats.counters
        footprint = self.footprint_bytes
        read_write_ratio = self.read_write_ratio
        outstanding = self.outstanding
        delay = self.delay
        lines = footprint // CACHELINE
        line_bits = lines.bit_length()
        inflight = deque()
        while not self._stop:
            # Random line within the footprint: page-strided so requests
            # spread over banks like MLC's buffer walk.  The draw is
            # rng.randrange(lines) spelled out as CPython's
            # _randbelow_with_getrandbits rejection loop, so it consumes
            # the generator exactly as randrange does (tests pin this).
            line = getrandbits(line_bits)
            while line >= lines:
                line = getrandbits(line_bits)
            address = ((line * PAGE) % footprint + (line % 64) * CACHELINE) % footprint
            is_write = uniform() >= read_write_ratio
            inflight.append(access(address, is_write))
            counters["requests"] = counters.get("requests", 0) + 1
            if len(inflight) >= outstanding:
                yield inflight.popleft()
            if delay:
                yield delay

    def issued(self) -> int:
        """Requests issued so far."""
        return self.stats.get_counter("requests")

    def achieved_bytes_per_second(self, elapsed_ticks: int) -> Optional[float]:
        """Injection bandwidth over a window (bytes/s), or None if idle."""
        if elapsed_ticks <= 0:
            return None
        return self.issued() * CACHELINE / (elapsed_ticks / 1e12)
