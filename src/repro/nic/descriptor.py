"""Descriptor rings (Sec. 2.1).

An Ethernet NIC and its driver communicate through circular rings of
descriptors in memory: the driver produces TX descriptors and consumes
RX descriptors; the NIC does the reverse.  Each descriptor points at a
DMA buffer and carries size/status flags.  The ring decouples producer
and consumer rates; its occupancy discipline (head/tail pointers, full
when head+size == tail) is the standard e1000-style scheme the NetDIMM
driver inherits (Sec. 4.2.2: "We use Intel e1000 GbE driver as a base").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.units import CACHELINE


class RingFullError(RuntimeError):
    """Producing into a full ring."""


@dataclass(slots=True)
class Descriptor:
    """One descriptor: a buffer pointer plus size/status.

    Slotted: every ring builds all of its slots up front (two 256-slot
    rings per node), so a per-instance ``__dict__`` would dominate the
    descriptor's footprint.
    """

    buffer_address: int = 0
    size_bytes: int = 0
    ready: bool = False
    """TX: set by the driver when the packet may be sent.
    RX: set by the NIC when a packet has landed in the buffer."""

    cookie: object = None
    """Opaque driver payload (the SKB/packet object in this model)."""

    DESCRIPTOR_BYTES = 16
    """e1000-style 16 B descriptors: 8 B address + 8 B length/status."""


@dataclass
class DescriptorRing:
    """A circular descriptor ring with head/tail indices.

    ``head`` is the producer cursor, ``tail`` the consumer cursor.  The
    ring is empty when ``head == tail`` and full when advancing ``head``
    would collide with ``tail`` (one slot is sacrificed, as in e1000).
    """

    size: int = 256
    base_address: int = 0
    head: int = 0
    tail: int = 0
    slots: List[Descriptor] = field(default_factory=list)

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("ring needs at least 2 slots")
        if not self.slots:
            self.slots = [Descriptor() for _ in range(self.size)]
        elif len(self.slots) != self.size:
            raise ValueError("slots length must match ring size")

    @property
    def occupancy(self) -> int:
        """Produced-but-not-consumed descriptors."""
        return (self.head - self.tail) % self.size

    @property
    def is_empty(self) -> bool:
        """No pending descriptors."""
        return self.head == self.tail

    @property
    def is_full(self) -> bool:
        """No free slot for the producer."""
        return (self.head + 1) % self.size == self.tail

    def descriptor_address(self, index: int) -> int:
        """Physical address of slot ``index`` (descriptors are packed)."""
        return self.base_address + (index % self.size) * Descriptor.DESCRIPTOR_BYTES

    @property
    def ring_bytes(self) -> int:
        """Memory footprint of the ring itself."""
        return self.size * Descriptor.DESCRIPTOR_BYTES

    @property
    def ring_cachelines(self) -> int:
        """Cachelines the descriptor array spans."""
        return -(-self.ring_bytes // CACHELINE)

    def produce(
        self, buffer_address: int, size_bytes: int, cookie: object = None
    ) -> int:
        """Fill the next descriptor; returns its index.

        Raises :class:`RingFullError` when the ring is full (the caller
        models backpressure).
        """
        if self.is_full:
            raise RingFullError("descriptor ring full")
        index = self.head
        slot = self.slots[index]
        slot.buffer_address = buffer_address
        slot.size_bytes = size_bytes
        slot.ready = True
        slot.cookie = cookie
        self.head = (self.head + 1) % self.size
        return index

    def peek(self) -> Optional[Descriptor]:
        """The next descriptor to consume, or None when empty."""
        if self.is_empty:
            return None
        return self.slots[self.tail]

    def consume(self) -> Descriptor:
        """Take the next descriptor (raises when empty)."""
        if self.is_empty:
            raise IndexError("consuming from empty ring")
        slot = self.slots[self.tail]
        slot.ready = False
        self.tail = (self.tail + 1) % self.size
        return slot
