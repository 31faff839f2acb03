"""Table 1 benchmark: system-configuration report."""

from benchmarks.conftest import pedantic_calls, report
from repro.experiments import table1


def test_bench_table1(benchmark):
    # Table 1 fires no simulator events: metered in calls/sec.
    result = pedantic_calls(benchmark, table1.run, rounds=50_000)
    report("Table 1 — system configuration", table1.format_report(result))
    assert result.rows["Cores (# cores, freq)"] == "(8, 3.4GHz)"
