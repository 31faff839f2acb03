"""Fig. 12(a) benchmark: Facebook trace replay over the clos fabric."""

from benchmarks.conftest import report
from repro.experiments import fig12a
from repro.workloads.traces import ClusterKind


def test_bench_fig12a(benchmark):
    result = benchmark.pedantic(
        lambda: fig12a.run(packets_per_cluster=1500),
        rounds=1,
        iterations=1,
    )
    report("Fig. 12(a) — trace-replay normalized latency", fig12a.format_report(result))
    # NetDIMM wins everywhere; the win shrinks as switches slow down.
    for cluster in ClusterKind:
        for switch_ns in fig12a.SWITCH_LATENCIES_NS:
            assert result.normalized(cluster, "dnic", switch_ns) < 1.0
            assert result.normalized(cluster, "inic", switch_ns) < 1.0
    sweep = [result.average_improvement("dnic", s) for s in fig12a.SWITCH_LATENCIES_NS]
    assert sweep == sorted(sweep, reverse=True)
