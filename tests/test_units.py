"""Unit helpers: time, size, bandwidth conversions."""

import pytest
from hypothesis import given, strategies as st

from repro import units


class TestTimeConversions:
    def test_nanoseconds_are_thousand_ticks(self):
        assert units.ns(1) == 1000

    def test_microseconds(self):
        assert units.us(1) == 1_000_000

    def test_milliseconds(self):
        assert units.ms(2) == 2_000_000_000

    def test_seconds(self):
        assert units.seconds(1) == 10**12

    def test_fractional_nanoseconds_round(self):
        assert units.ns(1.25) == 1250
        assert units.ns(3.333) == 3333

    def test_to_ns_inverts_ns(self):
        assert units.to_ns(units.ns(42)) == pytest.approx(42)

    def test_to_us_inverts_us(self):
        assert units.to_us(units.us(1.5)) == pytest.approx(1.5)

    @given(st.floats(min_value=0, max_value=1e6, allow_nan=False))
    def test_roundtrip_ns_within_rounding(self, value):
        assert abs(units.to_ns(units.ns(value)) - value) <= 0.0005


class TestSizes:
    def test_cacheline_is_64(self):
        assert units.CACHELINE == 64

    def test_page_is_4096(self):
        assert units.PAGE == 4096

    def test_kib(self):
        assert units.kib(2) == 2048

    def test_mib(self):
        assert units.mib(1) == 1024 * 1024

    def test_gib(self):
        assert units.gib(1) == 1024**3


class TestCachelines:
    def test_zero_bytes_is_zero_lines(self):
        assert units.cachelines(0) == 0

    def test_one_byte_is_one_line(self):
        assert units.cachelines(1) == 1

    def test_exact_line(self):
        assert units.cachelines(64) == 1

    def test_one_over(self):
        assert units.cachelines(65) == 2

    def test_mtu_packet_is_24_lines(self):
        # The Fig. 7 observation: a 1514 B packet occupies 24 cachelines.
        assert units.cachelines(1514) == 24

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            units.cachelines(-1)

    @given(st.integers(min_value=0, max_value=10**9))
    def test_covers_size(self, size):
        lines = units.cachelines(size)
        assert lines * 64 >= size
        assert (lines - 1) * 64 < size or lines == 0


class TestPages:
    def test_one_page(self):
        assert units.pages(4096) == 1

    def test_partial_page_rounds_up(self):
        assert units.pages(1) == 1
        assert units.pages(4097) == 2

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            units.pages(-5)


class TestBandwidth:
    def test_gbps_conversion(self):
        # 40 Gb/s = 5 GB/s = 0.005 bytes per picosecond.
        assert units.Gbps(40) == pytest.approx(0.005)

    def test_GBps_conversion(self):
        assert units.GBps(1) == pytest.approx(0.001)

    def test_transfer_time_zero_size(self):
        assert units.transfer_time(0, units.Gbps(40)) == 0

    def test_transfer_time_minimum_one_tick(self):
        assert units.transfer_time(1, units.GBps(1000)) >= 1

    def test_transfer_time_mtu_at_40g(self):
        # 1514 B at 40 Gb/s ~= 302.8 ns.
        ticks = units.transfer_time(1514, units.Gbps(40))
        assert units.to_ns(ticks) == pytest.approx(302.8, rel=0.01)

    def test_transfer_time_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            units.transfer_time(100, 0)

    def test_transfer_time_rejects_negative_size(self):
        with pytest.raises(ValueError):
            units.transfer_time(-1, 1.0)

    @given(
        st.integers(min_value=1, max_value=10**8),
        st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
    )
    def test_transfer_time_monotone_in_size(self, size, rate):
        assert units.transfer_time(size, rate) <= units.transfer_time(size + 64, rate)
