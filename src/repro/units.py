"""Time and size units used throughout the simulator.

All simulated time is kept in **picoseconds** as integers.  Integer
picoseconds keep event ordering exact (no floating-point ties) while still
resolving sub-nanosecond DRAM timing such as half-cycle DDR command slots.

All sizes are kept in **bytes** as integers.

The helpers here are thin, explicit constructors and converters so that
calling code reads like the paper: ``us(1.3)`` is the RoCE round trip,
``GBps(12.8)`` is a DDR4 channel.
"""

from __future__ import annotations

import math

# ---------------------------------------------------------------------------
# Time: base unit is the picosecond.
# ---------------------------------------------------------------------------

PS = 1
NS = 1_000
US = 1_000_000
MS = 1_000_000_000
S = 1_000_000_000_000


def ps(value: float) -> int:
    """Convert picoseconds to simulator ticks."""
    return round(value)


def ns(value: float) -> int:
    """Convert nanoseconds to simulator ticks."""
    return round(value * NS)


def us(value: float) -> int:
    """Convert microseconds to simulator ticks."""
    return round(value * US)


def ms(value: float) -> int:
    """Convert milliseconds to simulator ticks."""
    return round(value * MS)


def seconds(value: float) -> int:
    """Convert seconds to simulator ticks."""
    return round(value * S)


def to_ns(ticks: int) -> float:
    """Express simulator ticks in nanoseconds."""
    return ticks / NS


def to_us(ticks: int) -> float:
    """Express simulator ticks in microseconds."""
    return ticks / US


# ---------------------------------------------------------------------------
# Size: base unit is the byte.
# ---------------------------------------------------------------------------

B = 1
KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024

CACHELINE = 64
"""Cacheline size in bytes (Sec. 4.1 footnote: 64 B throughout the paper)."""

PAGE = 4096
"""Page size in bytes (Sec. 4.2.1 assumes 4 KB pages)."""


def kib(value: float) -> int:
    """Convert KiB to bytes."""
    return round(value * KB)


def mib(value: float) -> int:
    """Convert MiB to bytes."""
    return round(value * MB)


def gib(value: float) -> int:
    """Convert GiB to bytes."""
    return round(value * GB)


def cachelines(size_bytes: int) -> int:
    """Number of cachelines needed to hold ``size_bytes`` (ceiling)."""
    if size_bytes < 0:
        raise ValueError(f"negative size: {size_bytes}")
    return -(-size_bytes // CACHELINE)


def pages(size_bytes: int) -> int:
    """Number of 4 KB pages needed to hold ``size_bytes`` (ceiling)."""
    if size_bytes < 0:
        raise ValueError(f"negative size: {size_bytes}")
    return -(-size_bytes // PAGE)


# ---------------------------------------------------------------------------
# Bandwidth helpers: bytes per tick (picosecond).
# ---------------------------------------------------------------------------


def GBps(value: float) -> float:
    """Convert gigabytes/second (decimal GB) to bytes per picosecond."""
    return value * 1e9 / S


def Gbps(value: float) -> float:
    """Convert gigabits/second to bytes per picosecond."""
    return value * 1e9 / 8 / S


def transfer_time(size_bytes: int, bytes_per_ps: float) -> int:
    """Ticks needed to move ``size_bytes`` at the given rate.

    Returns 0 for an empty transfer and at least 1 tick otherwise, so a
    nonempty transfer always advances simulated time.

    Rounding is *ceiling*, not nearest: a transfer may never finish
    before the wire could physically deliver it, and splitting a
    transfer into chunks must never total fewer ticks than moving it
    whole (``ceil(a) + ceil(b) >= ceil(a + b)``; nearest-rounding
    violates this).  A tiny relative epsilon absorbs float noise so an
    exact multiple of the rate does not ceil up a spurious tick.
    """
    if bytes_per_ps <= 0:
        raise ValueError(f"non-positive rate: {bytes_per_ps}")
    if size_bytes < 0:
        raise ValueError(f"negative size: {size_bytes}")
    if size_bytes == 0:
        return 0
    exact = size_bytes / bytes_per_ps
    return max(1, math.ceil(exact - exact * 1e-12))
