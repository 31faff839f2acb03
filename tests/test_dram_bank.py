"""Bank state machine: row-buffer management and DDR timing."""

import pytest

from repro.dram.bank import Bank
from repro.params import ddr4_2400


@pytest.fixture
def bank():
    return Bank(ddr4_2400())


class TestRowBufferState:
    def test_starts_closed(self, bank):
        assert bank.open_row is None

    def test_classify_miss_when_closed(self, bank):
        bank.access_ready_time(0, row=5, is_write=False)
        assert (bank.row_hits, bank.row_misses, bank.row_conflicts) == (0, 1, 0)

    def test_first_access_opens_row(self, bank):
        bank.access_ready_time(0, row=5, is_write=False)
        assert bank.open_row == 5

    def test_classify_hit_when_open(self, bank):
        bank.access_ready_time(0, row=5, is_write=False)
        bank.access_ready_time(0, row=5, is_write=False)
        assert (bank.row_hits, bank.row_misses, bank.row_conflicts) == (1, 1, 0)
        assert bank.open_row == 5

    def test_classify_conflict_other_row(self, bank):
        bank.access_ready_time(0, row=5, is_write=False)
        bank.access_ready_time(0, row=6, is_write=False)
        assert (bank.row_hits, bank.row_misses, bank.row_conflicts) == (0, 1, 1)
        assert bank.open_row == 6


class TestTiming:
    def test_row_miss_pays_trcd_plus_tcl(self, bank):
        timing = bank.timing
        data = bank.access_ready_time(0, row=1, is_write=False)
        assert data == timing.tRCD + timing.tCL

    def test_row_hit_pays_only_tcl(self, bank):
        timing = bank.timing
        bank.access_ready_time(0, row=1, is_write=False)
        hit_start = 10 * timing.tCL  # well past any obligation
        data = bank.access_ready_time(hit_start, row=1, is_write=False)
        assert data == hit_start + timing.tCL

    def test_conflict_pays_precharge_and_activate(self, bank):
        timing = bank.timing
        bank.access_ready_time(0, row=1, is_write=False)
        late = 10 * timing.tRAS
        data = bank.access_ready_time(late, row=2, is_write=False)
        assert data == late + timing.tRP + timing.tRCD + timing.tCL

    def test_conflict_honors_tras(self, bank):
        timing = bank.timing
        bank.access_ready_time(0, row=1, is_write=False)
        # Immediately conflicting: precharge must wait for tRAS since
        # the activate.
        data = bank.access_ready_time(0, row=2, is_write=False)
        assert data >= timing.tRAS + timing.tRP + timing.tRCD + timing.tCL

    def test_back_to_back_hits_pipeline_at_tccd(self, bank):
        timing = bank.timing
        first = bank.access_ready_time(0, row=1, is_write=False)
        second = bank.access_ready_time(0, row=1, is_write=False)
        assert second - first == timing.tCCD

    def test_write_recovery_delays_conflict_precharge(self, bank):
        timing = bank.timing
        write_data = bank.access_ready_time(0, row=1, is_write=True)
        data = bank.access_ready_time(write_data, row=2, is_write=False)
        # Precharge cannot start before write recovery completes.
        assert data >= write_data + timing.tWR + timing.tRP + timing.tRCD

    def test_data_times_never_regress(self, bank):
        last = 0
        for index in range(50):
            row = index % 3
            data = bank.access_ready_time(0, row=row, is_write=index % 2 == 0)
            assert data >= last
            last = data


class TestCounters:
    def test_hit_miss_conflict_counts(self, bank):
        bank.access_ready_time(0, row=1, is_write=False)  # miss
        bank.access_ready_time(0, row=1, is_write=False)  # hit
        bank.access_ready_time(0, row=2, is_write=False)  # conflict
        assert bank.row_misses == 1
        assert bank.row_hits == 1
        assert bank.row_conflicts == 1
