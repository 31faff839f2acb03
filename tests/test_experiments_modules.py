"""Per-experiment unit tests: result helpers and report formatting.

The integration tests (test_paper_targets.py) check the numbers; these
check the *machinery* — result accessors, report structure, sweep
parameters, determinism.
"""

import inspect
from dataclasses import replace

import pytest

from repro.analysis.targets import PAPER_TARGETS
from repro.experiments import (
    ablation,
    bandwidth,
    fig4,
    fig5,
    fig7,
    fig11,
    fig12a,
    fig12b,
    table1,
)
from repro.experiments.harness import submit_experiments
from repro.experiments.runner import EXPERIMENTS
from repro.params import DEFAULT
from repro.workloads.netfuncs import NetworkFunction
from repro.workloads.traces import ClusterKind


class TestFig4Module:
    @pytest.fixture(scope="class")
    def result(self):
        return fig4.run(sizes=(10, 2000))

    def test_series_accessor(self, result):
        assert result.measured_sizes("dnic") == [10, 2000]
        series = result.series("dnic")
        assert len(series) == 2
        assert series[0] < series[1]

    def test_pcie_fractions_only_for_dnic(self, result):
        configs = {config for config, _size in result.pcie_overhead_fraction}
        assert configs <= {"dnic", "dnic.zcpy"}

    def test_report_lists_all_configs(self, result):
        text = fig4.format_report(result, sizes=(10, 2000))
        for config in fig4.CONFIGS:
            assert config in text
        assert "pcie.overh" in text


class TestFig11Module:
    @pytest.fixture(scope="class")
    def result(self):
        return fig11.run(sizes=(64, 1024), extra_sizes=(256,))

    def test_sizes_merged_and_sorted(self, result):
        assert result.sizes == (64, 256, 1024)

    def test_report_contains_panels_and_chart(self, result):
        text = fig11.format_report(result)
        assert "PCIe NIC" in text
        assert "integrated NIC" in text
        assert "NetDIMM" in text
        assert "legend:" in text
        assert "txFlush" in text

    def test_improvement_helpers(self, result):
        assert 0 < result.improvement("dnic", 256) < 1
        assert result.average_improvement("dnic") > result.average_improvement("inic")


class TestFig5Module:
    def test_custom_sweep_points(self):
        result = fig5.run(delays_ns=(0, None), packets=100)
        assert set(result.bandwidth_gbps) == {0, None}

    def test_report_marks_off_point(self):
        result = fig5.run(delays_ns=(0, None), packets=100)
        assert "off" in fig5.format_report(result)

    def test_ethernet_framing_lowers_bandwidth(self):
        """iperf prices each frame with the configured framing overhead."""
        cell = (None, 60, 16)
        heavy = replace(
            DEFAULT,
            network=replace(DEFAULT.network, ethernet_overhead_bytes=500),
        )
        assert fig5.run_cell(cell, heavy) < fig5.run_cell(cell, DEFAULT)


class TestFig7Module:
    def test_result_deterministic(self):
        assert fig7.run().trace.accesses == fig7.run().trace.accesses

    def test_report_mentions_targets(self):
        text = fig7.format_report(fig7.run())
        assert "paper: 6" in text
        assert "143 ns" in text


class TestFig12aModule:
    @pytest.fixture(scope="class")
    def result(self):
        return fig12a.run(packets_per_cluster=300, switch_latencies_ns=(25, 200))

    def test_all_cells_present(self, result):
        for cluster in ClusterKind:
            for config in fig12a.CONFIGS:
                for switch_ns in (25, 200):
                    assert (cluster, config, switch_ns) in result.mean_latency

    def test_normalized_sane(self, result):
        for cluster in ClusterKind:
            value = result.normalized(cluster, "dnic", 25)
            assert 0.3 < value < 1.0

    def test_size_bucket_helper(self):
        assert fig12a._size_bucket(1) == 64
        assert fig12a._size_bucket(64) == 64
        assert fig12a._size_bucket(65) == 128
        assert fig12a._size_bucket(1514) == 1536
        assert fig12a._size_bucket(99999) == 1536

    def test_deterministic(self):
        a = fig12a.run(packets_per_cluster=100, switch_latencies_ns=(25,))
        b = fig12a.run(packets_per_cluster=100, switch_latencies_ns=(25,))
        assert a.mean_latency == b.mean_latency


class TestFig12bModule:
    @pytest.fixture(scope="class")
    def result(self):
        return fig12b.run(packets=300)

    def test_all_scenarios_present(self, result):
        assert len(result.amat) == len(ClusterKind) * len(NetworkFunction) * 2

    def test_report_structure(self, result):
        text = fig12b.format_report(result)
        for cluster in ClusterKind:
            assert cluster.value in text


class TestBandwidthModule:
    def test_result_has_both_directions(self):
        result = bandwidth.run(packets=80)
        assert set(result.achieved_gbps) == set(result.achieved_rx_gbps)

    def test_report_has_tx_and_rx(self):
        result = bandwidth.run(packets=80)
        text = bandwidth.format_report(result)
        assert "TX" in text and "RX" in text


class TestAblationModule:
    @pytest.fixture(scope="class")
    def result(self):
        return ablation.run()

    def test_baseline_slowdown_is_one(self, result):
        for size in ablation.SIZES:
            assert result.slowdown("baseline", size) == 1.0

    def test_unknown_variant_rejected(self):
        from repro.params import DEFAULT

        with pytest.raises(ValueError):
            ablation._variant_setup("no_magic", DEFAULT)

    def test_report_has_all_variants(self, result):
        text = ablation.format_report(result)
        for variant in ablation.VARIANTS:
            assert variant in text


class TestRunner:
    def test_registry_covers_all_paper_artifacts(self):
        for name in ("table1", "fig4", "fig5", "fig7", "fig11", "fig12a",
                     "fig12b", "bandwidth", "ablation"):
            assert name in EXPERIMENTS

    def test_every_target_figure_is_a_calibratable_experiment(self):
        """Calibration runs a target's figure prefix as a registry
        module under candidate params."""
        for figure in sorted({name.split(".", 1)[0] for name in PAPER_TARGETS}):
            assert figure in EXPERIMENTS
            assert "params" in inspect.signature(EXPERIMENTS[figure].run).parameters

    def test_sharded_modules_declare_the_whole_sweep(self):
        sharded = [n for n, m in EXPERIMENTS.items() if hasattr(m, "cells")]
        assert sharded == ["fig5"]
        for name in sharded:
            assert callable(EXPERIMENTS[name].run_cell)
            assert callable(EXPERIMENTS[name].merge)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="fig99"):
            submit_experiments(["fig99"])


class TestTable1Module:
    def test_report_round_trip(self):
        result = table1.run()
        text = table1.format_report(result)
        for key in result.rows:
            assert key in text
