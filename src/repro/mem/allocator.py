"""Page allocation with sub-array affinity (Sec. 4.2.1).

``__alloc_netdimm_pages(zone, hint)`` allocates a page in a NET zone on
the *same bank and sub-array* as the hint address whenever possible, so
the in-memory buffer clone between the DMA buffer and the application
buffer can run in RowClone FPM mode.  The API is best-effort: if the
hinted sub-array class has no free pages, any page in the zone is
returned (the clone then degrades to PSM or GCM).

The allocator keeps per-(rank, bank, sub-array)-class state, lazily
materialized: each class holds at most 256 pages (128 rows x 2 pages per
8 KB rank-row), tracked as a bump pointer plus a free list of returned
pages.  Unhinted allocation rotates over the classes with a cursor into
``range(total_classes)``: it takes a page from the first class at or
after the cursor that has one, then moves the cursor past it.  An empty
class is tried and passed over, never dropped, so a page freed into it
later is found again.  The allocator's state, rotation included, is
therefore O(classes touched), not O(16 K classes) or O(4M pages).
Hinted allocation is O(1); unhinted allocation is O(1) plus one probe
per empty class the cursor steps over.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.dram.geometry import DRAMGeometry, RANK_ROW_BYTES, ROWS_PER_SUBARRAY
from repro.mem.zones import MemoryZone
from repro.units import PAGE

PAGES_PER_CLASS = ROWS_PER_SUBARRAY * (RANK_ROW_BYTES // PAGE)  # 256


class OutOfMemoryError(RuntimeError):
    """The zone has no free pages at all."""


class _ClassState:
    """Lazy free-page state for one sub-array class."""

    __slots__ = ("next_index", "returned")

    def __init__(self):
        self.next_index = 0
        self.returned: List[int] = []


class PageAllocator:
    """Free-page bookkeeping for one memory zone.

    For NET zones, pass the NetDIMM's :class:`DRAMGeometry` so pages are
    bucketed by (rank, bank, sub-array); addresses handed out are global
    physical addresses (zone base + DIMM-local offset).  For ordinary
    zones pass ``geometry=None`` and the allocator degenerates to a bump
    pointer + free list over the whole zone.
    """

    def __init__(self, zone: MemoryZone, geometry: Optional[DRAMGeometry] = None):
        self.zone = zone
        self.geometry = geometry
        if geometry is not None and zone.size > geometry.capacity_bytes:
            raise ValueError(
                f"zone {zone.name} ({zone.size:#x}) larger than DIMM "
                f"({geometry.capacity_bytes:#x})"
            )
        self._classes: Dict[int, _ClassState] = {}
        self._allocated: set[int] = set()
        self.free_pages = zone.num_pages
        self._total_classes = 1 if geometry is None else geometry.subarray_classes
        # Unhinted rotation: the next class to try.
        self._cursor = 0

    # -- address <-> class arithmetic -----------------------------------------

    def class_of(self, address: int) -> int:
        """Sub-array class of an address in this zone."""
        if self.geometry is None:
            return 0
        return self.geometry.subarray_class_of(address - self.zone.base)

    def _page_of_class(self, subarray_class: int, index: int) -> Optional[int]:
        """Global address of the ``index``-th page in a class, or None if
        the page falls outside the zone."""
        if self.geometry is None:
            address = self.zone.base + index * PAGE
            return address if address < self.zone.end else None
        from repro.dram.geometry import BANKS_PER_RANK, SUBARRAYS_PER_BANK

        rank_bank, subarray = divmod(subarray_class, SUBARRAYS_PER_BANK)
        rank, bank = divmod(rank_bank, BANKS_PER_RANK)
        row, row_half = divmod(index, 2)
        local = self.geometry.encode(rank, bank, subarray, row, row_half)
        address = self.zone.base + local
        return address if address < self.zone.end else None

    def _pages_in_class(self, subarray_class: int) -> int:
        if self.geometry is None:
            return self.zone.num_pages
        return PAGES_PER_CLASS

    # -- allocation --------------------------------------------------------------

    @property
    def allocated_pages(self) -> int:
        """Pages currently handed out."""
        return len(self._allocated)

    def subarray_classes(self) -> int:
        """Distinct sub-array classes this zone can draw from."""
        return self._total_classes

    def alloc_page(self, hint: Optional[int] = None) -> int:
        """Allocate one page; with ``hint`` prefer the hint's sub-array.

        This is ``__alloc_netdimm_pages(zone, hint)``: pass ``hint=None``
        (the paper's hint = -1) to only honor the zone constraint.
        Returns the page's global physical address.

        Raises :class:`OutOfMemoryError` when the zone is exhausted.
        """
        if self.free_pages == 0:
            raise OutOfMemoryError(f"zone {self.zone.name} exhausted")
        address = None
        if hint is not None and self.zone.contains(hint):
            address = self.alloc_page_in_class(self.class_of(hint))
        if address is None:
            address = self._pop_any()
        return address

    def alloc_page_in_class(self, subarray_class: int) -> Optional[int]:
        """Allocate a page from a specific sub-array class, or None if empty.

        Used both by hinted allocation and by the allocCache refill loop,
        which wants exactly one page per class.
        """
        state = self._classes.get(subarray_class)
        if state is None:
            state = _ClassState()
            self._classes[subarray_class] = state
        if state.returned:
            address = state.returned.pop()
        else:
            limit = self._pages_in_class(subarray_class)
            if state.next_index >= limit:
                return None
            address = self._page_of_class(subarray_class, state.next_index)
            if address is None:
                # A class's addresses ascend with the page index, so the
                # rest of the class lies past the zone's end as well.
                state.next_index = limit
                return None
            state.next_index += 1
        self._allocated.add(address)
        self.free_pages -= 1
        return address

    def _pop_any(self) -> int:
        total = self._total_classes
        subarray_class = self._cursor
        for _ in range(total):
            address = self.alloc_page_in_class(subarray_class)
            if address is not None:
                # Advance so consecutive unhinted allocations spread over
                # classes (keeps banks balanced, like page interleaving).
                self._cursor = (subarray_class + 1) % total
                return address
            subarray_class = (subarray_class + 1) % total
        raise OutOfMemoryError(f"zone {self.zone.name} exhausted")

    def free_page(self, address: int) -> None:
        """Return a page to the free lists."""
        if address not in self._allocated:
            raise ValueError(f"double free or foreign page: {address:#x}")
        self._allocated.remove(address)
        subarray_class = self.class_of(address)
        state = self._classes.get(subarray_class)
        if state is None:
            state = _ClassState()
            self._classes[subarray_class] = state
        state.returned.append(address)
        self.free_pages += 1

    def same_subarray(self, address_a: int, address_b: int) -> bool:
        """FPM-eligibility test between two addresses in this zone."""
        return self.class_of(address_a) == self.class_of(address_b)
