"""The stacked bar chart and the whole-system stats dump."""

import pytest

from repro.analysis.charts import stacked_bar_chart
from repro.analysis.statsdump import collect, dump, find_components
from repro.dram.controller import MemoryController
from repro.driver.netdimm_node import NetDIMMNode
from repro.params import ddr4_2400
from repro.sim import Component, Simulator


class TestStackedBarChart:
    def test_total_is_segment_sum(self):
        chart = stacked_bar_chart(
            columns=["x"], segments={"a": [1.0], "b": [2.0]}
        )
        assert "3.00" in chart

    def test_legend_present(self):
        chart = stacked_bar_chart(columns=["x"], segments={"a": [1.0]})
        assert "legend: #=a" in chart

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            stacked_bar_chart(columns=["x", "y"], segments={"a": [1.0]})

    def test_too_many_segments_rejected(self):
        segments = {f"s{i}": [1.0] for i in range(11)}
        with pytest.raises(ValueError):
            stacked_bar_chart(columns=["x"], segments=segments)

    def test_relative_widths(self):
        chart = stacked_bar_chart(
            columns=["big", "small"],
            segments={"a": [10.0, 1.0]},
            width=20,
        )
        lines = chart.splitlines()
        assert lines[0].count("#") > lines[1].count("#")


class TestStatsDump:
    def test_finds_nested_components(self, sim):
        node = NetDIMMNode(sim, "nd")
        components = find_components(node)
        names = {component.name for component in components}
        assert "nd" in names
        assert "nd.netdimm" in names
        assert "nd.netdimm.nmc" in names
        assert "nd.port" in names

    def test_collect_flattens_stats(self, sim):
        mc = MemoryController(sim, "mc0", ddr4_2400())
        sim.run_until(mc.read(0))

        class Holder:
            def __init__(self):
                self.controller = mc

        flat = collect(Holder())
        assert flat["mc0.reads"] == 1

    def test_dump_filter(self, sim):
        node = NetDIMMNode(sim, "nd")
        node.warm_up()
        from repro.net.packet import Packet

        sim.run_until(node.transmit(Packet(size_bytes=256)), max_events=2_000_000)
        text = dump(node, only="nmc")
        assert "nmc" in text
        assert "alloccache" not in text

    def test_cycle_safe(self, sim):
        a = Component(sim, "a")
        b = Component(sim, "b")
        a.other = b
        b.other = a
        names = {component.name for component in find_components(a)}
        assert names == {"a", "b"}
