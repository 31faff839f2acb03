"""Event-driven PCIe link: transactions over a contended full-duplex link.

Latency anatomy, after [59] Fig. 4:

* **posted write** (``MWr``): serialize → propagate.  The producer sees
  only the serialization (and a small issue cost for CPU doorbells);
  delivery completes one propagation later.
* **non-posted read** (``MRd``): request TLP serialize → propagate →
  completer internal latency → completion TLP(s) serialize → propagate
  back.  An x8 Gen3 NIC register read measures ~900 ns round trip [59];
  our Gen4 parameters land slightly below that.
* **bulk DMA**: reads pipeline MRRS-sized requests so steady-state
  throughput is bandwidth-limited; one request RTT is paid up front.

Each direction of the link is a FIFO resource, so concurrent DMA and
doorbell traffic queue behind each other exactly as they would on the
wire.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.params import PCIeParams
from repro.pcie.tlp import TLPModel
from repro.sim import Component, Future, Resource, Simulator
from repro.units import cachelines


class PCIeLink(Component):
    """One PCIe link between the root complex (host) and an endpoint."""

    def __init__(self, sim: Simulator, name: str, params: Optional[PCIeParams] = None):
        super().__init__(sim, name)
        self.params = params or PCIeParams()
        self.tlp = TLPModel(self.params)
        self._downstream = Resource(sim, name=f"{name}.down")  # host -> device
        self._upstream = Resource(sim, name=f"{name}.up")  # device -> host
        # TLP serialization is pure arithmetic on the link config; DMA
        # traffic reuses a handful of sizes, so memoize per size (and
        # the header-only TLP outright).
        self._ser_cache: Dict[int, int] = {}
        self._header_ticks = self.tlp.header_serialization_ticks()

    def _ser(self, size_bytes: int) -> int:
        ticks = self._ser_cache.get(size_bytes)
        if ticks is None:
            ticks = self.tlp.serialization_ticks(size_bytes)
            self._ser_cache[size_bytes] = ticks
        return ticks

    def _direction(self, toward_device: bool) -> Resource:
        return self._downstream if toward_device else self._upstream

    # -- basic transactions ---------------------------------------------------

    def posted_write(self, size_bytes: int, toward_device: bool = True) -> Future:
        """A posted memory write; future completes on delivery."""
        sim = self.sim
        done = sim.future()
        sim.spawn(
            self._posted_body(size_bytes, toward_device, done),
            name=f"{self.name}.mwr" if sim.named else "",
        )
        return done

    def _posted_body(self, size_bytes: int, toward_device: bool, done: Future):
        sim = self.sim
        start = sim._now
        ticks = self._ser(size_bytes) if size_bytes else self._header_ticks
        direction = self._downstream if toward_device else self._upstream
        # Resource.use on the link direction, spelled out so the
        # transaction runs without a delegated generator frame.
        request_time = sim._now
        future = direction.acquire()
        granted_at = yield future
        sim.recycle(future)
        direction.total_wait_ticks += granted_at - request_time
        if ticks:
            yield ticks
        direction.release()
        yield self.params.propagation
        self.stats.count("posted_writes")
        self.stats.sample("posted_write_ns", (self.now - start) / 1000)
        done.set_result(None)

    def read(self, size_bytes: int, from_device: bool = False) -> Future:
        """A non-posted read; future completes when all data has returned.

        ``from_device=False`` is a device reading host memory (the common
        DMA direction); ``True`` is the host reading device memory.
        """
        sim = self.sim
        done = sim.future()
        sim.spawn(self._read_body(size_bytes, from_device, done),
                  name=f"{self.name}.mrd" if sim.named else "")
        return done

    def _read_body(self, size_bytes: int, from_device: bool, done: Future):
        sim = self.sim
        start = sim._now
        request_direction = self._direction(toward_device=from_device)
        completion_direction = self._direction(toward_device=not from_device)
        first_chunk = min(size_bytes, self.params.max_read_request_size)
        remaining = size_bytes - first_chunk
        # Resource.use on each link direction, spelled out (see
        # _posted_body): the request TLP, then the MRRS completion
        # chunks.  Only the first request waits its full round trip;
        # later chunks are pipelined, so they only add serialization.
        holds = (
            (request_direction, self._header_ticks),
            (completion_direction, self._ser(first_chunk)),
        )
        if remaining > 0:
            # Remaining chunks stream back-to-back at link bandwidth.
            holds += ((completion_direction, self._ser(remaining)),)
        for index, (direction, ticks) in enumerate(holds):
            request_time = sim._now
            future = direction.acquire()
            granted_at = yield future
            sim.recycle(future)
            direction.total_wait_ticks += granted_at - request_time
            if ticks:
                yield ticks
            direction.release()
            if index == 0:
                # First request's full round trip: propagation out,
                # completer internal latency, completion back.
                yield self.params.propagation
                yield self.params.completion_overhead
        yield self.params.propagation
        self.stats.count("reads")
        self.stats.sample("read_ns", (self.now - start) / 1000)
        done.set_result(None)

    # -- CPU-visible register access ------------------------------------------

    def mmio_read(self) -> Future:
        """CPU load from a device register: a blocking full round trip."""
        sim = self.sim
        done = sim.future()
        sim.spawn(self._mmio_read_body(done),
                  name=f"{self.name}.mmio_rd" if sim.named else "")
        return done

    def _mmio_read_body(self, done: Future):
        start = self.now
        yield self.params.mmio_read_extra
        yield self.read(4, from_device=True)
        self.stats.count("mmio_reads")
        self.stats.sample("mmio_read_ns", (self.now - start) / 1000)
        done.set_result(None)

    def mmio_write_cpu_cost(self) -> int:
        """Ticks the CPU is occupied issuing a posted register write.

        The write itself continues asynchronously (:meth:`posted_write`);
        the CPU only pays the write-buffer drain cost.
        """
        return self.params.doorbell_write_cost

    def mmio_write(self) -> Future:
        """Post a register write; future completes when it reaches the device."""
        return self.posted_write(0, toward_device=True)

    # -- DMA pipelining -----------------------------------------------------------

    def dma_pipeline_extra(self, size_bytes: int) -> int:
        """Extra latency for the 2nd..Nth cachelines of a DMA transfer.

        The engine issues line-granular requests with limited non-posted
        credits: the first few extra lines cost
        ``dma_line_cost_initial`` each, lines past the pipeline
        breakpoint stream at ``dma_line_cost_steady``.  This reproduces
        the steep-then-flattening latency-vs-size slope of the paper's
        dNIC (Fig. 11 left)."""
        lines = cachelines(max(size_bytes, 1))
        extra = lines - 1
        if extra <= 0:
            return 0
        initial = min(extra, self.params.dma_pipeline_breakpoint - 1)
        steady = extra - initial
        return (
            initial * self.params.dma_line_cost_initial
            + steady * self.params.dma_line_cost_steady
        )

    # -- analytical helpers -----------------------------------------------------

    def dma_read_latency(self, size_bytes: int) -> int:
        """Closed-form unloaded latency of a device DMA read of host memory."""
        first_chunk = min(size_bytes, self.params.max_read_request_size)
        total = (
            self.tlp.header_serialization_ticks()
            + 2 * self.params.propagation
            + self.params.completion_overhead
            + self.tlp.serialization_ticks(first_chunk)
        )
        remaining = size_bytes - first_chunk
        if remaining > 0:
            total += self.tlp.serialization_ticks(remaining)
        return total

    def dma_write_latency(self, size_bytes: int) -> int:
        """Closed-form unloaded latency of a device DMA write to host memory."""
        return self.tlp.serialization_ticks(size_bytes) + self.params.propagation

    def mmio_read_latency(self) -> int:
        """Closed-form unloaded latency of a CPU register read."""
        return (
            self.params.mmio_read_extra
            + self.tlp.header_serialization_ticks()
            + 2 * self.params.propagation
            + self.params.completion_overhead
            + self.tlp.serialization_ticks(4)
        )
