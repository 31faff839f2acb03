"""The shared one-way measurement machinery."""

from dataclasses import replace

import pytest

from repro.driver.registry import NIC_KINDS, make_node
from repro.experiments.oneway import measure_one_way
from repro.net.packet import FIG11_SEGMENTS
from repro.params import DEFAULT
from repro.sim import Simulator
from repro.units import ns


class TestMakeNode:
    @pytest.mark.parametrize("kind", NIC_KINDS)
    def test_all_kinds_constructible(self, kind):
        node = make_node(Simulator(), "n", kind)
        assert node.name == "n"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_node(Simulator(), "n", "quantum-nic")

    def test_zero_copy_variants(self):
        assert make_node(Simulator(), "n", "dnic.zcpy").zero_copy
        assert not make_node(Simulator(), "n", "dnic").zero_copy


class TestMeasureOneWay:
    def test_result_fields(self):
        result = measure_one_way("inic", 256)
        assert result.nic_kind == "inic"
        assert result.size_bytes == 256
        assert result.total_ticks == sum(result.segments.values())
        assert result.total_us == result.total_ticks / 1e6

    def test_segments_are_fig11_labels(self):
        result = measure_one_way("netdimm", 256)
        assert set(result.segments) <= set(FIG11_SEGMENTS)

    def test_wire_segment_present(self):
        result = measure_one_way("dnic", 256)
        assert result.segments["wire"] > 0
        assert result.host_ticks() == result.total_ticks - result.segments["wire"]

    def test_deterministic(self):
        assert measure_one_way("netdimm", 512) == measure_one_way("netdimm", 512)

    def test_warm_packets_engage_fast_path(self):
        warm = measure_one_way("netdimm", 1024, warm_packets=1)
        cold = measure_one_way("netdimm", 1024, warm_packets=0)
        assert warm.total_ticks < cold.total_ticks

    def test_latency_monotone_in_size_per_config(self):
        for kind in ("dnic", "inic", "netdimm"):
            totals = [measure_one_way(kind, size).total_ticks
                      for size in (64, 256, 1024)]
            assert totals == sorted(totals)

    def test_measurement_is_repeatable(self):
        """A measurement is a pure function of its arguments (fig12a
        measures each point once per run and reuses it)."""
        assert measure_one_way("inic", 320) == measure_one_way("inic", 320, DEFAULT)

    def test_host_ticks_ignore_switch_latency(self):
        """fig12a keys host-side ticks on (config, size bucket) alone, so
        the switch latency must leave them unchanged; host params do not."""
        default = measure_one_way("inic", 320, DEFAULT)
        switched = measure_one_way("inic", 320, DEFAULT.with_switch_latency(ns(25)))
        assert switched.host_ticks() == default.host_ticks()
        slow = replace(DEFAULT, software=replace(DEFAULT.software, copy_base=ns(360)))
        assert measure_one_way("inic", 320, slow).host_ticks() > default.host_ticks()
