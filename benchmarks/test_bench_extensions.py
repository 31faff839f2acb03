"""Extension benchmarks: transaction census, notification modes, kernel
stack dilution — the quantified versions of the paper's Sec. 2.1/3/5.1
prose claims."""

from benchmarks.conftest import pedantic_calls, report
from repro.experiments import (
    feasibility,
    kernel_stack,
    loaded_latency,
    notification,
    transactions,
)
from repro.units import us


def test_bench_transactions(benchmark):
    result = benchmark.pedantic(transactions.run, rounds=3, iterations=1)
    report("PCIe transaction census", transactions.format_report(result))
    assert 10 <= result.per_host <= 16
    assert result.netdimm_traversals == 0


def test_bench_notification(benchmark):
    result = benchmark.pedantic(notification.run, rounds=1, iterations=1)
    report("Polling vs. interrupts", notification.format_report(result))
    for config in notification.CONFIGS:
        assert result.interrupt_penalty(config, 64) > us(3)


def test_bench_kernel_stack(benchmark):
    result = benchmark.pedantic(kernel_stack.run, rounds=1, iterations=1)
    report("Kernel-stack dilution", kernel_stack.format_report(result))
    for size in kernel_stack.SIZES:
        assert result.improvement("kernel", size) < result.improvement("bare", size)
        assert result.improvement("kernel", size) > 0


def test_bench_feasibility(benchmark):
    # The feasibility check fires no simulator events: metered in calls/sec.
    result = pedantic_calls(benchmark, feasibility.run, rounds=30_000)
    report("Physical feasibility (Sec. 4.3)", feasibility.format_report(result))
    assert result.fits
    assert result.energy_saving(1514) > 0.2


def test_bench_loaded_latency(benchmark):
    result = benchmark.pedantic(loaded_latency.run, rounds=1, iterations=1)
    report(
        "Packet latency under memory pressure",
        loaded_latency.format_report(result),
    )
    for size in loaded_latency.SIZES:
        # Pressure hurts everyone, but NetDIMM least — its packet path is
        # isolated behind the nMC.
        assert result.degradation("netdimm", size) < result.degradation("dnic", size)
        assert result.netdimm_advantage(size, "max") >= (
            result.netdimm_advantage(size, "idle") - 0.01
        )
