"""DRAM geometry and Fig. 9 address-mapping properties."""

import pytest
from hypothesis import given, strategies as st

from repro.dram.geometry import (
    BANKS_PER_RANK,
    DRAMGeometry,
    RANK_BYTES,
    ROWS_PER_SUBARRAY,
    SUBARRAY_CLASSES_PER_RANK,
    SUBARRAY_STRIDE_BYTES,
    SUBARRAYS_PER_BANK,
)
from repro.units import KB, MB, GB, PAGE


class TestOrganizationConstants:
    """Fig. 9(a): rank 8 GB, bank 64 MB, sub-array 128 KB, row 1 KB."""

    def test_rank_capacity_is_8gb(self):
        assert RANK_BYTES == 8 * GB

    def test_16_banks_per_rank(self):
        assert BANKS_PER_RANK == 16

    def test_512_subarrays_per_bank(self):
        assert SUBARRAYS_PER_BANK == 512

    def test_128_rows_per_subarray(self):
        assert ROWS_PER_SUBARRAY == 128

    def test_bank_capacity_is_64mb_per_device_scale(self):
        # Rank-level bank = 512 MB across 8 devices = 64 MB per device,
        # matching the paper's per-device figure.
        rank_level_bank = RANK_BYTES // BANKS_PER_RANK
        assert rank_level_bank // 8 == 64 * MB

    def test_subarray_capacity_is_128kb_per_device(self):
        rank_level_subarray = RANK_BYTES // BANKS_PER_RANK // SUBARRAYS_PER_BANK
        assert rank_level_subarray // 8 == 128 * KB

    def test_8k_subarray_classes_per_rank(self):
        # Sec. 4.2.2: "each NetDIMM rank has 512 * 16 = 8K distinct
        # sub-arrays".
        assert SUBARRAY_CLASSES_PER_RANK == 8192

    def test_two_rank_dimm_is_16gb(self):
        assert DRAMGeometry(ranks=2).capacity_bytes == 16 * GB

    def test_two_rank_dimm_has_16k_classes(self):
        assert DRAMGeometry(ranks=2).subarray_classes == 16384


class TestDecodeEncode:
    geometry = DRAMGeometry(ranks=2)

    def test_address_zero(self):
        decoded = self.geometry.decode(0)
        assert (decoded.rank, decoded.bank, decoded.subarray, decoded.row) == (0, 0, 0, 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            self.geometry.decode(self.geometry.capacity_bytes)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            self.geometry.decode(-1)

    def test_encode_validates_fields(self):
        with pytest.raises(ValueError):
            self.geometry.encode(rank=2, bank=0, subarray=0, row=0)
        with pytest.raises(ValueError):
            self.geometry.encode(rank=0, bank=16, subarray=0, row=0)
        with pytest.raises(ValueError):
            self.geometry.encode(rank=0, bank=0, subarray=512, row=0)
        with pytest.raises(ValueError):
            self.geometry.encode(rank=0, bank=0, subarray=0, row=128)
        with pytest.raises(ValueError):
            self.geometry.encode(rank=0, bank=0, subarray=0, row=0, row_half=2)

    def test_second_rank_starts_at_8gb(self):
        address = self.geometry.encode(rank=1, bank=0, subarray=0, row=0)
        assert address == RANK_BYTES

    @given(st.integers(min_value=0, max_value=2 * RANK_BYTES - 1))
    def test_decode_encode_roundtrip(self, address):
        decoded = self.geometry.decode(address)
        rebuilt = self.geometry.encode(
            rank=decoded.rank,
            bank=decoded.bank,
            subarray=decoded.subarray,
            row=decoded.row,
            row_half=decoded.row_half,
            page_offset=decoded.page_offset,
        )
        assert rebuilt == address

    @given(st.integers(min_value=0, max_value=2 * RANK_BYTES - 1))
    def test_fields_within_bounds(self, address):
        decoded = self.geometry.decode(address)
        assert 0 <= decoded.rank < 2
        assert 0 <= decoded.bank < BANKS_PER_RANK
        assert 0 <= decoded.subarray < SUBARRAYS_PER_BANK
        assert 0 <= decoded.row < ROWS_PER_SUBARRAY
        assert decoded.row_half in (0, 1)
        assert 0 <= decoded.page_offset < PAGE

    @given(st.integers(min_value=0, max_value=2 * RANK_BYTES - 1))
    def test_bank_row_of_matches_decode(self, address):
        decoded = self.geometry.decode(address)
        assert self.geometry.bank_row_of(address) == (
            decoded.global_bank,
            decoded.global_row,
        )

    @pytest.mark.parametrize("address", [-1, 2 * RANK_BYTES])
    def test_bank_row_of_rejects_outside_dimm(self, address):
        with pytest.raises(ValueError):
            self.geometry.bank_row_of(address)


class TestFig9cSpacing:
    """Fig. 9(c): same (bank, sub-array) pages are spaced every 32 pages."""

    geometry = DRAMGeometry(ranks=2)

    def test_adjacent_pages_differ(self):
        assert not self.geometry.same_subarray(0, PAGE)

    def test_32_page_stride_matches(self):
        assert self.geometry.same_subarray(0, SUBARRAY_STRIDE_BYTES)

    def test_stride_is_128kb(self):
        assert SUBARRAY_STRIDE_BYTES == 128 * KB

    @given(st.integers(min_value=0, max_value=1000))
    def test_every_32nd_page_shares_class_within_row_window(self, page):
        base = page * PAGE
        assert self.geometry.same_subarray(base, base + SUBARRAY_STRIDE_BYTES)

    @given(st.integers(min_value=0, max_value=1000), st.integers(min_value=1, max_value=31))
    def test_non_multiple_strides_differ(self, page, offset):
        base = page * PAGE
        assert not self.geometry.same_subarray(base, base + offset * PAGE)

    def test_consecutive_pages_cover_32_distinct_classes(self):
        classes = {self.geometry.page_subarray_class(page) for page in range(32)}
        assert len(classes) == 32

    def test_pages_in_subarray_class(self):
        # 128 rows x 2 pages per 8 KB rank-row = 256 pages per class.
        assert self.geometry.pages_in_subarray_class(0) == 256

    def test_class_count_times_pages_covers_rank(self):
        total = SUBARRAY_CLASSES_PER_RANK * self.geometry.pages_in_subarray_class(0)
        assert total * PAGE == RANK_BYTES


class TestRankChecks:
    geometry = DRAMGeometry(ranks=2)

    def test_same_rank_true_within_rank(self):
        assert self.geometry.same_rank(0, RANK_BYTES - PAGE)

    def test_same_rank_false_across_ranks(self):
        assert not self.geometry.same_rank(0, RANK_BYTES)

    def test_subarray_class_unique_across_ranks(self):
        class_rank0 = self.geometry.decode(0).subarray_class
        class_rank1 = self.geometry.decode(RANK_BYTES).subarray_class
        assert class_rank0 != class_rank1

    def test_global_bank_distinct_across_ranks(self):
        bank0 = self.geometry.decode(0).global_bank
        bank1 = self.geometry.decode(RANK_BYTES).global_bank
        assert bank0 != bank1

    def test_global_row_folds_subarray(self):
        a = self.geometry.encode(rank=0, bank=0, subarray=1, row=0)
        b = self.geometry.encode(rank=0, bank=0, subarray=0, row=0)
        assert self.geometry.decode(a).global_row != self.geometry.decode(b).global_row
