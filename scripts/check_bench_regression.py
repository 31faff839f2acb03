"""Gate CI on the kernel microbenchmark trajectory.

Reads ``BENCH_runner.json`` (appended to by ``pytest benchmarks/``)
and holds each test's ``events_per_sec`` in the newest run — or its
``calls_per_sec``, the rate of benches that fire no simulator events —
to its baseline: the test's rate in the newest earlier run that has it
and ran on the same machine (same ``cpu_count``, ``platform`` and
``python`` in the run meta).  Exits 1 if any test fell by more than
the threshold (default 25%).  It prints how many tests were compared
and names every test that had no like-for-like baseline.  A trajectory
with fewer than two runs passes — there is nothing to regress against
yet.

Vanished tests (present in the previous run, missing from the newest)
fail the gate; tests with no baseline pass (their first run seeds it).
``--expect-improvement TEST=RATIO`` additionally requires the newest
run's events/sec for TEST to be at least RATIO times its baseline —
used to pin in claimed speedups.  The
``TEST=RATIO:BASELINE_TEST`` form instead compares against another
test *within the newest run*, so a speedup can be pinned the same run
that introduces both the fast path and its reference bench.

Usage::

    python scripts/check_bench_regression.py \
        [--path BENCH_runner.json] [--threshold 0.25] \
        [--expect-improvement TEST=RATIO[:BASELINE_TEST] ...]
"""

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--path",
        default=str(REPO_ROOT / "BENCH_runner.json"),
        help="bench-trajectory file (default: repo BENCH_runner.json)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="maximum tolerated fractional events/sec or calls/sec drop (default 0.25)",
    )
    parser.add_argument(
        "--expect-improvement",
        action="append",
        default=[],
        metavar="TEST=RATIO[:BASELINE_TEST]",
        help=(
            "require the newest run's events/sec for TEST to be at least "
            "RATIO times its baseline's, or — with :BASELINE_TEST — "
            "RATIO times BASELINE_TEST's rate in the same run (repeatable)"
        ),
    )
    args = parser.parse_args(argv)

    expect_improvement = {}
    for spec in args.expect_improvement:
        test, _, rest = spec.partition("=")
        ratio_str, _, baseline = rest.partition(":")
        try:
            ratio = float(ratio_str)
        except ValueError:
            parser.error(
                f"--expect-improvement wants TEST=RATIO[:BASELINE_TEST], "
                f"got {spec!r}"
            )
        expect_improvement[test] = (ratio, baseline) if baseline else ratio

    from benchmarks.trajectory import gate_bench_run

    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"error: cannot read bench trajectory {args.path}: {error}")
        return 2

    runs = document.get("runs") or []
    if len(runs) < 2:
        print(f"{len(runs)} run(s) on file; nothing to compare yet")
        return 0
    report = gate_bench_run(
        document,
        threshold=args.threshold,
        expect_improvement=expect_improvement,
    )
    rated = len(report.compared) + len(report.unmatched)
    print(
        f"compared {len(report.compared)} of {rated} rated test(s) against "
        f"their newest like-for-like run ({len(runs)} runs on file)"
    )
    if report.unmatched:
        print(
            f"WARNING: {len(report.unmatched)} test(s) have no like-for-like "
            "baseline (same cpu_count, platform, python) and were not gated:"
        )
        for test in report.unmatched:
            print(f"  {test}")
    if report.failures:
        print("bench regression:")
        for line in report.failures:
            print(f"  {line}")
        return 1
    print(
        f"no bench regression: {len(report.compared)} test(s) within "
        f"{args.threshold:.0%} of their baseline"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
