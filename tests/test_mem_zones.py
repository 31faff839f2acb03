"""Memory zones."""

import pytest

from repro.mem.zones import MemoryZone, ZoneKind
from repro.units import MB, PAGE


class TestMemoryZone:
    def test_basic_properties(self):
        zone = MemoryZone(name="ZONE_NORMAL", kind=ZoneKind.NORMAL, base=0, size=16 * MB)
        assert zone.end == 16 * MB
        assert zone.num_pages == 16 * MB // PAGE
        assert zone.contains(0)
        assert zone.contains(16 * MB - 1)
        assert not zone.contains(16 * MB)

    def test_unaligned_base_rejected(self):
        with pytest.raises(ValueError):
            MemoryZone(name="x", kind=ZoneKind.NORMAL, base=100, size=4096)

    def test_unaligned_size_rejected(self):
        with pytest.raises(ValueError):
            MemoryZone(name="x", kind=ZoneKind.NORMAL, base=0, size=5000)

    def test_empty_zone_rejected(self):
        with pytest.raises(ValueError):
            MemoryZone(name="x", kind=ZoneKind.NORMAL, base=0, size=0)

    def test_net_zone_requires_index(self):
        with pytest.raises(ValueError):
            MemoryZone(name="NET0", kind=ZoneKind.NET, base=0, size=4096)

    def test_net_zone_with_index(self):
        zone = MemoryZone(
            name="NET0", kind=ZoneKind.NET, base=0, size=4096, netdimm_index=0
        )
        assert zone.netdimm_index == 0
