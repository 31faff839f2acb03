"""Statistics primitives: Histogram, StatRecorder."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import Histogram, StatRecorder


class TestHistogram:
    def test_empty_histogram(self):
        histogram = Histogram()
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.summary() == {
            "count": 0,
            "mean": 0.0,
            "min": 0.0,
            "p50": 0.0,
            "p99": 0.0,
            "max": 0.0,
        }

    def test_mean(self):
        histogram = Histogram()
        histogram.extend([1, 2, 3, 4])
        assert histogram.mean == 2.5

    def test_min_max(self):
        histogram = Histogram()
        histogram.extend([5, 1, 9])
        assert histogram.minimum == 1
        assert histogram.maximum == 9

    def test_median_odd(self):
        histogram = Histogram()
        histogram.extend([3, 1, 2])
        assert histogram.median == 2

    def test_median_even_interpolates(self):
        histogram = Histogram()
        histogram.extend([1, 2, 3, 4])
        assert histogram.median == 2.5

    def test_percentile_bounds(self):
        histogram = Histogram()
        histogram.extend(range(101))
        assert histogram.percentile(0) == 0
        assert histogram.percentile(100) == 100
        assert histogram.percentile(50) == 50

    def test_percentile_out_of_range_raises(self):
        histogram = Histogram()
        histogram.record(1)
        with pytest.raises(ValueError):
            histogram.percentile(101)

    def test_percentile_empty_raises(self):
        with pytest.raises(ValueError):
            Histogram().percentile(50)

    def test_single_sample_percentiles(self):
        histogram = Histogram()
        histogram.record(42)
        assert histogram.percentile(1) == 42
        assert histogram.percentile(99) == 42

    def test_stdev(self):
        histogram = Histogram()
        histogram.extend([2, 4, 4, 4, 5, 5, 7, 9])
        assert histogram.stdev == pytest.approx(2.0)

    def test_stdev_single_sample_is_zero(self):
        histogram = Histogram()
        histogram.record(5)
        assert histogram.stdev == 0.0

    def test_summary_keys(self):
        histogram = Histogram()
        histogram.extend([1, 2, 3])
        summary = histogram.summary()
        assert set(summary) == {"count", "mean", "min", "p50", "p99", "max"}

    def test_record_after_percentile_still_correct(self):
        histogram = Histogram()
        histogram.extend([5, 1, 3])
        assert histogram.median == 3
        histogram.record(0)
        assert histogram.minimum == 0
        assert histogram.percentile(0) == 0

    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), min_size=1))
    def test_percentile_within_range(self, values):
        histogram = Histogram()
        histogram.extend(values)
        p50 = histogram.percentile(50)
        assert min(values) <= p50 <= max(values)

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=2))
    def test_percentiles_monotone(self, values):
        histogram = Histogram()
        histogram.extend(values)
        assert histogram.percentile(25) <= histogram.percentile(75)


class TestStatRecorder:
    def test_counter_increments(self):
        stats = StatRecorder("x")
        stats.count("events")
        stats.count("events", 4)
        assert stats.get_counter("events") == 5

    def test_missing_counter_is_zero(self):
        assert StatRecorder().get_counter("nothing") == 0

    def test_scalar_overwrite(self):
        stats = StatRecorder()
        stats.set_scalar("bw", 1.0)
        stats.set_scalar("bw", 2.0)
        assert stats.scalars["bw"] == 2.0

    def test_sample_creates_histogram(self):
        stats = StatRecorder("mc")
        stats.sample("latency", 10)
        stats.sample("latency", 20)
        assert stats.histogram("latency").mean == 15

    def test_report_flattens_everything(self):
        stats = StatRecorder()
        stats.count("reads", 3)
        stats.set_scalar("util", 0.5)
        stats.sample("lat", 100)
        report = stats.report()
        assert report["reads"] == 3
        assert report["util"] == 0.5
        assert report["lat.mean"] == 100
        assert report["lat.count"] == 1

    def test_histogram_name_carries_owner(self):
        stats = StatRecorder("mc0")
        stats.sample("latency", 1)
        assert stats.histograms["latency"].name == "mc0.latency"
