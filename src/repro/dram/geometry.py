"""DRAM geometry and physical-address decoding (paper Fig. 9).

The NetDIMM paper assumes a Micron MT40A512M16-class organization
(Sec. 4.2.1, Fig. 9):

* one **rank** = eight x8 devices operating in lockstep, 8 GB;
* each device has 16 **banks**;
* each bank has 512 **sub-arrays**;
* each sub-array has 128 **rows**;
* a row is 1 KB per device, so a rank-level row (all eight devices) is
  8 KB and holds two 4 KB pages.

The address layout reproduces Fig. 9(b)/(c): **consecutive 4 KB pages
interleave across the 16 banks (x2 sub-array groups)**, so pages that
share a bank and sub-array repeat every 32 pages (128 KB) — "it is easy
to check if two pages are on a same sub-array and bank" — and there are
16 x 512 = 8 K distinct (bank, sub-array) classes per rank, the number
the allocCache pre-allocation in Sec. 4.2.2 is built around.

Bit layout (low to high) within a rank:

====================  ======  =====================================
field                 bits    meaning
====================  ======  =====================================
page offset           0..11   byte within the 4 KB page
bank                  12..15  16 banks
sub-array low bit     16      LSB of the sub-array index
row half              17      which 4 KB half of the 8 KB rank-row
row in sub-array      18..24  128 rows
sub-array high bits   25..32  upper 8 bits of the sub-array index
rank                  33..    rank index
====================  ======  =====================================

With this layout, page *p* and page *p + 32* differ only in the row-half
bit (or row bits), hence share (bank, sub-array) — exactly the 128 KB
spacing of Fig. 9(c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.units import KB, PAGE

PAGE_OFFSET_BITS = 12
BANK_BITS = 4
SUBARRAY_LOW_BITS = 1
ROW_HALF_BITS = 1
ROW_BITS = 7
SUBARRAY_HIGH_BITS = 8

BANKS_PER_RANK = 1 << BANK_BITS  # 16
SUBARRAYS_PER_BANK = 1 << (SUBARRAY_LOW_BITS + SUBARRAY_HIGH_BITS)  # 512
ROWS_PER_SUBARRAY = 1 << ROW_BITS  # 128
DEVICES_PER_RANK = 8
DEVICE_ROW_BYTES = 1 * KB
RANK_ROW_BYTES = DEVICE_ROW_BYTES * DEVICES_PER_RANK  # 8 KB
RANK_BYTES = (
    RANK_ROW_BYTES * ROWS_PER_SUBARRAY * SUBARRAYS_PER_BANK * BANKS_PER_RANK
)  # 8 GB

RANK_ADDRESS_BITS = (
    PAGE_OFFSET_BITS
    + BANK_BITS
    + SUBARRAY_LOW_BITS
    + ROW_HALF_BITS
    + ROW_BITS
    + SUBARRAY_HIGH_BITS
)  # 33 bits = 8 GB

SUBARRAY_STRIDE_BYTES = 32 * PAGE  # 128 KB: Fig. 9(c) page spacing
SUBARRAY_CLASSES_PER_RANK = BANKS_PER_RANK * SUBARRAYS_PER_BANK  # 8 K


@dataclass(frozen=True)
class DecodedAddress:
    """A physical address broken into its DRAM coordinates."""

    rank: int
    bank: int
    subarray: int
    row: int
    row_half: int
    page_offset: int

    @property
    def global_bank(self) -> int:
        """Bank index unique across ranks."""
        return self.rank * BANKS_PER_RANK + self.bank

    @property
    def global_row(self) -> int:
        """Row index unique within a bank (sub-array folded in)."""
        return self.subarray * ROWS_PER_SUBARRAY + self.row

    @property
    def subarray_class(self) -> int:
        """The (rank, bank, sub-array) identity as a single integer.

        Two pages can be cloned in RowClone FPM mode exactly when their
        ``subarray_class`` matches.
        """
        return (self.rank * BANKS_PER_RANK + self.bank) * SUBARRAYS_PER_BANK + self.subarray


@dataclass(frozen=True)
class DRAMGeometry:
    """The organization of one DIMM's DRAM (Fig. 9(a)).

    ``ranks`` defaults to 2 (Sec. 4.2.2: "Considering that NetDIMM has
    two memory ranks").
    """

    ranks: int = 2

    @property
    def capacity_bytes(self) -> int:
        """Total DIMM capacity."""
        return self.ranks * RANK_BYTES

    @property
    def subarray_classes(self) -> int:
        """Distinct (rank, bank, sub-array) classes on the DIMM."""
        return self.ranks * SUBARRAY_CLASSES_PER_RANK

    def check(self, address: int) -> None:
        """Validate that ``address`` is inside the DIMM."""
        if not 0 <= address < self.capacity_bytes:
            raise ValueError(
                f"address {address:#x} outside DIMM of {self.capacity_bytes:#x} bytes"
            )

    def decode(self, address: int) -> DecodedAddress:
        """Decode a DIMM-local physical address into DRAM coordinates."""
        self.check(address)
        rest = address
        page_offset = rest & ((1 << PAGE_OFFSET_BITS) - 1)
        rest >>= PAGE_OFFSET_BITS
        bank = rest & (BANKS_PER_RANK - 1)
        rest >>= BANK_BITS
        subarray_low = rest & 1
        rest >>= SUBARRAY_LOW_BITS
        row_half = rest & 1
        rest >>= ROW_HALF_BITS
        row = rest & (ROWS_PER_SUBARRAY - 1)
        rest >>= ROW_BITS
        subarray_high = rest & ((1 << SUBARRAY_HIGH_BITS) - 1)
        rest >>= SUBARRAY_HIGH_BITS
        rank = rest
        return DecodedAddress(
            rank=rank,
            bank=bank,
            subarray=(subarray_high << SUBARRAY_LOW_BITS) | subarray_low,
            row=row,
            row_half=row_half,
            page_offset=page_offset,
        )

    def encode(
        self,
        rank: int,
        bank: int,
        subarray: int,
        row: int,
        row_half: int = 0,
        page_offset: int = 0,
    ) -> int:
        """Inverse of :meth:`decode`."""
        if not 0 <= rank < self.ranks:
            raise ValueError(f"rank {rank} out of range")
        if not 0 <= bank < BANKS_PER_RANK:
            raise ValueError(f"bank {bank} out of range")
        if not 0 <= subarray < SUBARRAYS_PER_BANK:
            raise ValueError(f"subarray {subarray} out of range")
        if not 0 <= row < ROWS_PER_SUBARRAY:
            raise ValueError(f"row {row} out of range")
        if row_half not in (0, 1):
            raise ValueError(f"row_half {row_half} out of range")
        if not 0 <= page_offset < (1 << PAGE_OFFSET_BITS):
            raise ValueError(f"page_offset {page_offset} out of range")
        subarray_low = subarray & 1
        subarray_high = subarray >> SUBARRAY_LOW_BITS
        address = rank
        address = (address << SUBARRAY_HIGH_BITS) | subarray_high
        address = (address << ROW_BITS) | row
        address = (address << ROW_HALF_BITS) | row_half
        address = (address << SUBARRAY_LOW_BITS) | subarray_low
        address = (address << BANK_BITS) | bank
        address = (address << PAGE_OFFSET_BITS) | page_offset
        return address

    def subarray_class_of(self, address: int) -> int:
        """``decode(address).subarray_class`` without building the object.

        The class test is the hottest geometry query (every RowClone
        FPM-eligibility check and allocator placement runs it), so it
        is pure shift/mask arithmetic on the bit layout above.
        """
        self.check(address)
        bank = (address >> PAGE_OFFSET_BITS) & (BANKS_PER_RANK - 1)
        subarray_low = (address >> (PAGE_OFFSET_BITS + BANK_BITS)) & 1
        subarray_high = (
            address >> (PAGE_OFFSET_BITS + BANK_BITS + SUBARRAY_LOW_BITS + ROW_HALF_BITS + ROW_BITS)
        ) & ((1 << SUBARRAY_HIGH_BITS) - 1)
        rank = address >> RANK_ADDRESS_BITS
        subarray = (subarray_high << SUBARRAY_LOW_BITS) | subarray_low
        return (rank * BANKS_PER_RANK + bank) * SUBARRAYS_PER_BANK + subarray

    def bank_row_of(self, address: int) -> Tuple[int, int]:
        """``(global_bank, global_row)`` of ``decode(address)`` without
        building the object.

        The memory controller decodes each 4 KB page it touches once,
        and an MLC injector touches nearly every page of its 64 MB footprint,
        so this is the hottest full decode.
        """
        self.check(address)
        rest = address >> PAGE_OFFSET_BITS
        bank = rest & (BANKS_PER_RANK - 1)
        rest >>= BANK_BITS
        subarray_low = rest & 1
        rest >>= SUBARRAY_LOW_BITS + ROW_HALF_BITS
        row = rest & (ROWS_PER_SUBARRAY - 1)
        rest >>= ROW_BITS
        subarray_high = rest & ((1 << SUBARRAY_HIGH_BITS) - 1)
        rank = rest >> SUBARRAY_HIGH_BITS
        subarray = (subarray_high << SUBARRAY_LOW_BITS) | subarray_low
        return rank * BANKS_PER_RANK + bank, subarray * ROWS_PER_SUBARRAY + row

    def same_subarray(self, address_a: int, address_b: int) -> bool:
        """Whether two addresses share a (rank, bank, sub-array).

        This is the FPM-eligibility test, and — per Fig. 9(c) — nearby
        pages satisfy it exactly when their page indices differ by a
        multiple of 32 within the same row window.
        """
        return self.subarray_class_of(address_a) == self.subarray_class_of(address_b)

    def same_rank(self, address_a: int, address_b: int) -> bool:
        """Whether two addresses are on the same rank (PSM eligibility)."""
        self.check(address_a)
        self.check(address_b)
        return (address_a >> RANK_ADDRESS_BITS) == (address_b >> RANK_ADDRESS_BITS)

    def page_subarray_class(self, page_number: int) -> int:
        """Sub-array class of the page with the given global page index."""
        return self.subarray_class_of(page_number * PAGE)

    def pages_in_subarray_class(self, subarray_class: int) -> int:
        """How many 4 KB pages live in one (rank, bank, sub-array) class.

        Each sub-array holds 128 rank-rows of 8 KB = 256 pages.
        """
        del subarray_class  # every class is the same size
        return ROWS_PER_SUBARRAY * (RANK_ROW_BYTES // PAGE)
