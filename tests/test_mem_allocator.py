"""The sub-array-affine page allocator (__alloc_netdimm_pages)."""

import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.geometry import DRAMGeometry
from repro.mem.allocator import OutOfMemoryError, PageAllocator, PAGES_PER_CLASS
from repro.mem.zones import MemoryZone, ZoneKind
from repro.units import GB, MB, PAGE


def net_zone(size=16 * GB, base=16 * MB):
    return MemoryZone(name="NET0", kind=ZoneKind.NET, base=base, size=size,
                      netdimm_index=0)


def normal_zone(size=4 * MB):
    return MemoryZone(name="ZONE_NORMAL", kind=ZoneKind.NORMAL, base=0, size=size)


@pytest.fixture
def allocator():
    return PageAllocator(net_zone(), DRAMGeometry(ranks=2))


class TestBasicAllocation:
    def test_pages_are_page_aligned(self, allocator):
        for _ in range(50):
            assert allocator.alloc_page() % PAGE == 0

    def test_pages_within_zone(self, allocator):
        for _ in range(50):
            address = allocator.alloc_page()
            assert allocator.zone.contains(address)

    def test_no_duplicate_allocations(self, allocator):
        pages = {allocator.alloc_page() for _ in range(200)}
        assert len(pages) == 200

    def test_allocated_counter(self, allocator):
        allocator.alloc_page()
        allocator.alloc_page()
        assert allocator.allocated_pages == 2

    def test_free_page_returns_to_pool(self, allocator):
        page = allocator.alloc_page()
        before = allocator.free_pages
        allocator.free_page(page)
        assert allocator.free_pages == before + 1

    def test_double_free_rejected(self, allocator):
        page = allocator.alloc_page()
        allocator.free_page(page)
        with pytest.raises(ValueError):
            allocator.free_page(page)

    def test_foreign_page_free_rejected(self, allocator):
        with pytest.raises(ValueError):
            allocator.free_page(0xDEAD000)

    def test_freed_page_reusable(self, allocator):
        page = allocator.alloc_page()
        allocator.free_page(page)
        klass = allocator.class_of(page)
        assert allocator.alloc_page_in_class(klass) == page

    def test_exhaustion_raises(self):
        allocator = PageAllocator(normal_zone(size=8 * PAGE))
        for _ in range(8):
            allocator.alloc_page()
        with pytest.raises(OutOfMemoryError):
            allocator.alloc_page()

    def test_subarray_class_count(self, allocator):
        # 2 ranks x 8 K classes (Sec. 4.2.2).
        assert allocator.subarray_classes() == 16384


class TestHintedAllocation:
    """The best-effort same-sub-array semantics of Sec. 4.2.1."""

    def test_hint_lands_on_same_subarray(self, allocator):
        first = allocator.alloc_page()
        second = allocator.alloc_page(hint=first)
        assert allocator.same_subarray(first, second)
        assert first != second

    def test_none_hint_only_zone_constraint(self, allocator):
        page = allocator.alloc_page(hint=None)
        assert allocator.zone.contains(page)

    def test_hint_outside_zone_ignored(self, allocator):
        page = allocator.alloc_page(hint=0x100)  # below zone base
        assert allocator.zone.contains(page)

    def test_best_effort_fallback_when_class_drained(self, allocator):
        hint = allocator.alloc_page()
        klass = allocator.class_of(hint)
        # Drain the hint's class completely.
        while allocator.alloc_page_in_class(klass) is not None:
            pass
        fallback = allocator.alloc_page(hint=hint)
        assert fallback is not None
        assert not allocator.same_subarray(hint, fallback)

    def test_class_holds_256_pages(self, allocator):
        hint = allocator.alloc_page()
        klass = allocator.class_of(hint)
        drained = 0
        while allocator.alloc_page_in_class(klass) is not None:
            drained += 1
        assert drained == PAGES_PER_CLASS - 1  # the hint page itself is out

    def test_unhinted_allocations_spread_over_classes(self, allocator):
        classes = {allocator.class_of(allocator.alloc_page()) for _ in range(64)}
        assert len(classes) > 32  # rotation spreads allocations

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_hint_affinity_property(self, page_index):
        allocator = PageAllocator(net_zone(), DRAMGeometry(ranks=2))
        hint = allocator.zone.base + page_index * PAGE
        allocated = allocator.alloc_page(hint=hint)
        assert allocator.same_subarray(hint, allocated)


class TestZoneSmallerThanDimm:
    def test_partial_zone_respects_bounds(self):
        geometry = DRAMGeometry(ranks=2)
        zone = MemoryZone(name="NET0", kind=ZoneKind.NET, base=0, size=64 * MB,
                          netdimm_index=0)
        allocator = PageAllocator(zone, geometry)
        for _ in range(100):
            assert allocator.alloc_page() < 64 * MB

    def test_zone_larger_than_dimm_rejected(self):
        geometry = DRAMGeometry(ranks=1)
        zone = net_zone(size=16 * GB, base=0)
        with pytest.raises(ValueError):
            PageAllocator(zone, geometry)

    def test_free_page_accounting_exact(self):
        zone = MemoryZone(name="NET0", kind=ZoneKind.NET, base=0, size=1 * MB,
                          netdimm_index=0)
        allocator = PageAllocator(zone, DRAMGeometry(ranks=2))
        pages = [allocator.alloc_page() for _ in range(zone.num_pages)]
        assert allocator.free_pages == 0
        assert len(set(pages)) == zone.num_pages
        with pytest.raises(OutOfMemoryError):
            allocator.alloc_page()


class TestNormalZoneAllocator:
    def test_geometry_free_allocator(self):
        allocator = PageAllocator(normal_zone())
        pages = [allocator.alloc_page() for _ in range(10)]
        assert len(set(pages)) == 10
        assert allocator.subarray_classes() == 1

    def test_same_subarray_trivially_true(self):
        allocator = PageAllocator(normal_zone())
        a = allocator.alloc_page()
        b = allocator.alloc_page()
        assert allocator.same_subarray(a, b)


class TestInClassScanStopsAtZoneEnd:
    """``alloc_page_in_class`` stops at a class's first page past the
    zone's end.  It must drain the same pages, in the same order, as a
    scan that skips every out-of-zone page and goes on to the class's
    last one."""

    @settings(max_examples=60, deadline=None)
    @given(ranks=st.sampled_from([1, 2]), data=st.data())
    def test_same_pages_as_skip_and_continue(self, ranks, data):
        geometry = DRAMGeometry(ranks=ranks)
        whole = PageAllocator(
            net_zone(size=geometry.capacity_bytes, base=0), geometry)
        klass = data.draw(st.integers(0, whole.subarray_classes() - 1))
        # End the zone inside the class's address span, so it cuts the class.
        span = [whole._page_of_class(klass, index)
                for index in range(PAGES_PER_CLASS)]
        end = data.draw(st.integers(min(span) + PAGE, max(span) + PAGE))
        zone = net_zone(size=end // PAGE * PAGE, base=0)
        allocator = PageAllocator(zone, geometry)
        expected = [allocator._page_of_class(klass, index)
                    for index in range(PAGES_PER_CLASS)]
        expected = [address for address in expected if address is not None]
        drained = []
        while (address := allocator.alloc_page_in_class(klass)) is not None:
            drained.append(address)
        assert drained == expected


class TestRotationRevisitsFreedClasses:
    def test_free_into_empty_class_is_reachable_again(self):
        zone = MemoryZone(name="NET0", kind=ZoneKind.NET, base=0, size=1 * MB,
                          netdimm_index=0)
        allocator = PageAllocator(zone, DRAMGeometry(ranks=2))
        ps = [allocator.alloc_page() for _ in range(256)]
        allocator.free_page(ps[5])
        assert allocator.alloc_page() == ps[5]
        # ps[0]'s class was found empty by an earlier allocation; the
        # freed page must still be handed out.
        allocator.free_page(ps[0])
        assert allocator.free_pages == 1
        assert allocator.alloc_page() == ps[0]
        assert allocator.free_pages == 0


class _DequeRotationAllocator(PageAllocator):
    """Reference: the unhinted rotation as a materialized deque of every
    class id, rotated after a success and popped when a class is empty."""

    def __init__(self, zone, geometry=None):
        super().__init__(zone, geometry)
        self.rotation = deque(range(self.subarray_classes()))

    def _pop_any(self):
        attempts = len(self.rotation)
        while attempts and self.rotation:
            address = self.alloc_page_in_class(self.rotation[0])
            if address is not None:
                self.rotation.rotate(-1)
                return address
            self.rotation.popleft()
            attempts -= 1
        raise OutOfMemoryError(f"zone {self.zone.name} exhausted")

    def dropped(self, subarray_class):
        return subarray_class not in self.rotation


def _small_zone(kind, pages):
    if kind == "net":
        return (MemoryZone(name="NET0", kind=ZoneKind.NET, base=16 * MB,
                           size=pages * PAGE, netdimm_index=0),
                DRAMGeometry(ranks=1))
    return normal_zone(size=pages * PAGE), None


_OPS = st.lists(
    st.tuples(st.sampled_from(["alloc", "hinted", "in_class", "free"]),
              st.integers(min_value=0, max_value=1 << 16)),
    max_size=80,
)


class TestRotationMatchesDequeReference:
    """The cursor rotation hands out the same pages, in the same order, as
    a deque holding every class id, as long as no page is freed into a
    class the deque has dropped (the one case where the deque wrongly
    never revisits the class)."""

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["net", "normal"]),
           pages=st.sampled_from([1, 3, 16, 40, 100, 256]),
           ops=_OPS)
    def test_same_addresses_and_exhaustion(self, kind, pages, ops):
        assert "_pop_any" in vars(PageAllocator)  # the method the reference replaces
        zone, geometry = _small_zone(kind, pages)
        allocator = PageAllocator(zone, geometry)
        reference = _DequeRotationAllocator(zone, geometry)
        held = []
        for step, (op, arg) in enumerate(ops):
            if op == "free":
                if not held:
                    continue
                page = held[arg % len(held)]
                if reference.dropped(reference.class_of(page)):
                    continue
                held.remove(page)
                allocator.free_page(page)
                reference.free_page(page)
                continue
            outcomes = []
            for subject in (allocator, reference):
                try:
                    if op == "alloc":
                        outcomes.append(subject.alloc_page())
                    elif op == "hinted":
                        # Some hints fall past the zone's end and are ignored.
                        hint = zone.base + (arg % (2 * pages)) * PAGE
                        outcomes.append(subject.alloc_page(hint=hint))
                    else:
                        klass = arg % subject.subarray_classes()
                        outcomes.append(subject.alloc_page_in_class(klass))
                except OutOfMemoryError:
                    outcomes.append("oom")
            assert outcomes[0] == outcomes[1], f"step {step}: {op}({arg})"
            if outcomes[0] not in (None, "oom"):
                held.append(outcomes[0])
        assert allocator.free_pages == reference.free_pages


class TestFootprint:
    def test_full_net_zone_allocator_stays_small(self):
        # Python heap only, so the bound does not depend on the machine.
        geometry = DRAMGeometry()
        zone = net_zone(size=geometry.capacity_bytes)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            allocator = PageAllocator(zone, geometry)
            allocator.alloc_page()
            allocator.alloc_page()
            footprint = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert zone.size == 16 * GB
        assert allocator.allocated_pages == 2
        assert footprint < 16 * 1024
