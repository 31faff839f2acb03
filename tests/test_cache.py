"""Generic cache, DDIO partition, and hierarchy latency model."""

import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from repro.cache import (
    CacheHierarchyModel,
    DDIOPartition,
    ReplacementPolicy,
    SetAssociativeCache,
)
from repro.params import CacheParams
from repro.units import CACHELINE
from tests.conftest import worker_env


class TestSetAssociativeCache:
    def test_miss_then_hit(self):
        cache = SetAssociativeCache(num_lines=64, ways=4)
        assert not cache.lookup(0x1000)
        cache.fill(0x1000)
        assert cache.lookup(0x1000)

    def test_capacity(self):
        cache = SetAssociativeCache(num_lines=64, ways=4)
        assert cache.capacity_bytes == 64 * CACHELINE

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(num_lines=0, ways=4)
        with pytest.raises(ValueError):
            SetAssociativeCache(num_lines=10, ways=3)

    def test_eviction_when_set_full(self):
        cache = SetAssociativeCache(num_lines=4, ways=2)  # 2 sets
        set_stride = cache.num_sets * CACHELINE
        cache.fill(0)
        cache.fill(set_stride)
        victim = cache.fill(2 * set_stride)
        assert victim in (0, set_stride)
        assert cache.occupancy() == 2

    def test_lru_evicts_least_recent(self):
        cache = SetAssociativeCache(num_lines=2, ways=2, policy=ReplacementPolicy.LRU)
        cache.fill(0)
        cache.fill(CACHELINE)  # same set (1 set total)
        cache.lookup(0)  # touch 0
        victim = cache.fill(2 * CACHELINE)
        assert victim == CACHELINE

    def test_fifo_evicts_oldest_insert(self):
        cache = SetAssociativeCache(num_lines=2, ways=2, policy=ReplacementPolicy.FIFO)
        cache.fill(0)
        cache.fill(CACHELINE)
        cache.lookup(0)  # touching must NOT protect under FIFO
        victim = cache.fill(2 * CACHELINE)
        assert victim == 0

    def test_random_replacement_deterministic_with_seed(self):
        def evictions(seed):
            cache = SetAssociativeCache(
                num_lines=2, ways=2, policy=ReplacementPolicy.RANDOM, seed=seed
            )
            cache.fill(0)
            cache.fill(CACHELINE)
            return [cache.fill((2 + i) * CACHELINE) for i in range(10)]

        assert evictions(7) == evictions(7)

    def test_refill_existing_updates_in_place(self):
        cache = SetAssociativeCache(num_lines=4, ways=2)
        cache.fill(0)
        assert cache.fill(0) is None
        assert cache.stats.fills == 1  # in-place update is not a new fill

    def test_invalidate(self):
        cache = SetAssociativeCache(num_lines=4, ways=2)
        cache.fill(0)
        assert cache.invalidate(0)
        assert not cache.invalidate(0)
        assert not cache.contains(0)

    def test_flags_lifecycle(self):
        cache = SetAssociativeCache(num_lines=4, ways=2)
        cache.fill(0, first_line=True)
        assert cache.get_flag(0, "first_line")
        cache.set_flag(0, "first_line", False)
        assert not cache.get_flag(0, "first_line")

    def test_flag_on_absent_line_is_false(self):
        cache = SetAssociativeCache(num_lines=4, ways=2)
        assert not cache.get_flag(0x5000, "anything")

    def test_hit_rate_statistics(self):
        cache = SetAssociativeCache(num_lines=4, ways=2)
        cache.lookup(0)
        cache.fill(0)
        cache.lookup(0)
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_occupancy_fraction(self):
        cache = SetAssociativeCache(num_lines=4, ways=2)
        assert cache.occupancy_fraction() == 0.0
        cache.fill(0)
        assert cache.occupancy_fraction() == 0.25

    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=200))
    def test_occupancy_never_exceeds_capacity(self, line_indices):
        cache = SetAssociativeCache(num_lines=16, ways=4)
        for index in line_indices:
            cache.fill(index * CACHELINE)
        assert cache.occupancy() <= 16

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=100))
    def test_fill_then_contains(self, line_indices):
        cache = SetAssociativeCache(num_lines=256, ways=4)  # big enough: no evictions
        for index in line_indices:
            cache.fill(index * CACHELINE)
        for index in line_indices:
            assert cache.contains(index * CACHELINE)


class TestDDIOPartition:
    def test_partition_is_fraction_of_llc(self):
        ddio = DDIOPartition(llc_bytes=2 * 1024 * 1024, way_fraction=0.10)
        assert ddio.capacity_bytes == pytest.approx(0.10 * 2 * 1024 * 1024, rel=0.01)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            DDIOPartition(llc_bytes=1024 * 1024, way_fraction=0.0)
        with pytest.raises(ValueError):
            DDIOPartition(llc_bytes=1024 * 1024, way_fraction=1.5)

    def test_inject_then_consume_hits(self):
        ddio = DDIOPartition(llc_bytes=2 * 1024 * 1024)
        ddio.inject(0x10000, 1514)
        assert ddio.consume(0x10000, 1514) == 0

    def test_consume_uninjected_misses(self):
        ddio = DDIOPartition(llc_bytes=2 * 1024 * 1024)
        assert ddio.consume(0x10000, 1514) == 24

    def test_overflow_spills(self):
        ddio = DDIOPartition(llc_bytes=64 * 1024)  # ~100-line partition
        capacity_lines = ddio.capacity_bytes // 64
        spilled = 0
        for packet in range(20):
            spilled += ddio.inject(packet * 4096, 1514)
        # 480 distinct lines into the partition: at least the overflow
        # spills, and the partition keeps what it holds.
        assert 20 * 24 - capacity_lines <= spilled < 20 * 24

    def test_no_spill_under_capacity(self):
        ddio = DDIOPartition(llc_bytes=2 * 1024 * 1024)
        assert ddio.inject(0, 1514) == 0
        assert sum(ddio.inject(packet * 4096, 1514) for packet in range(1, 10)) == 0

    def test_resident_misses_nondestructive(self):
        ddio = DDIOPartition(llc_bytes=2 * 1024 * 1024)
        ddio.inject(0, 1514)
        assert ddio.resident_misses(0, 1514) == 0
        assert ddio.resident_misses(0, 1514) == 0  # still resident

    def test_consume_removes_lines(self):
        ddio = DDIOPartition(llc_bytes=2 * 1024 * 1024)
        ddio.inject(0, 128)
        ddio.consume(0, 128)
        assert ddio.resident_misses(0, 128) == 2

    def test_recycled_buffer_hits_in_place(self):
        """An RX ring reusing its buffers re-DMAs into resident lines."""
        ddio = DDIOPartition(llc_bytes=2 * 1024 * 1024)
        for _round in range(10):
            spilled = ddio.inject(0x40000, 1514)
            assert spilled == 0


class TestCacheHierarchyModel:
    def make(self, **kwargs):
        return CacheHierarchyModel(CacheParams(), **kwargs)

    def test_competition_hit_rate_clean_fit(self):
        model = self.make(working_set_bytes=1024 * 1024)  # fits in 2 MB LLC
        assert model.competition_hit_rate(0.0) == pytest.approx(
            model.llc_hit_rate_clean
        )

    def test_competition_overflow_degrades(self):
        model = self.make(working_set_bytes=4 * 1024 * 1024)  # 2x the LLC
        assert model.competition_hit_rate(0.0) < model.llc_hit_rate_clean

    def test_capacity_fraction_degrades(self):
        model = self.make(working_set_bytes=2_600_000)
        full = model.competition_hit_rate(0.0, capacity_fraction=1.0)
        carved = model.competition_hit_rate(0.0, capacity_fraction=0.9)
        assert carved < full

    def test_pollution_rate_degrades(self):
        model = self.make()
        quiet = model.competition_hit_rate(0.0)
        loud = model.competition_hit_rate(50e6)
        assert loud < quiet

    def test_beyond_l1_latency_between_llc_and_dram(self):
        model = self.make()
        latency = model.beyond_l1_latency(dram_latency=60_000)
        assert CacheParams().l2_latency < latency < 60_000

    def test_beyond_l1_monotone_in_pollution(self):
        model = self.make()
        values = [
            model.beyond_l1_latency(60_000, pollution_lines_per_second=rate)
            for rate in (0, 1e6, 1e7, 1e8)
        ]
        assert values == sorted(values)


DRIVER_IMPORT_SCRIPT = """
import sys

import repro.driver.host_nic
import repro.driver.netdimm_node

loaded = [m for m in ("repro.cache.ddio", "repro.cache.hierarchy") if m in sys.modules]
assert not loaded, f"importing the drivers loaded {loaded}"
"""


class TestLazyPackage:
    def test_driver_import_loads_no_fig12b_model(self):
        """The drivers use only the generic cache; the DDIO partition and
        the hierarchy model load on first use of their names."""
        proc = subprocess.run(
            [sys.executable, "-c", DRIVER_IMPORT_SCRIPT],
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
