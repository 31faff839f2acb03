"""Fig. 7 benchmark: NIC DMA burst locality."""

from benchmarks.conftest import pedantic_calls, report
from repro.experiments import fig7


def test_bench_fig7(benchmark):
    # fig7 fires no simulator events: metered in calls/sec.
    result = pedantic_calls(benchmark, fig7.run, rounds=6000)
    report("Fig. 7 — DMA access locality", fig7.format_report(result))
    assert result.burst_count == 6
    assert result.lines_per_burst == [24] * 6
    assert 100 <= result.burst_duration_ns(2) <= 190
