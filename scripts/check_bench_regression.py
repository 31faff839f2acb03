"""Gate CI on the kernel microbenchmark trajectory.

Reads ``BENCH_runner.json`` (appended to by ``pytest benchmarks/``),
compares the newest run's ``events_per_sec`` per test against the
previous run, and the same for ``calls_per_sec`` (the rate of benches
that fire no simulator events), and exits 1 if any test fell by more
than the threshold (default 25%).  A trajectory with fewer than two runs passes — there
is nothing to regress against yet.

Vanished tests (present in the previous run, missing from the newest)
fail the gate; tests new in the newest run pass (their first run seeds
the baseline).  ``--expect-improvement TEST=RATIO`` additionally
requires the newest run's events/sec for TEST to be at least RATIO
times the previous run's — used to pin in claimed speedups.  The
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
            "RATIO times the previous run's, or — with :BASELINE_TEST — "
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

    from benchmarks.trajectory import check_bench_regression

    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"error: cannot read bench trajectory {args.path}: {error}")
        return 2

    runs = document.get("runs") or []
    failures = check_bench_regression(
        document,
        threshold=args.threshold,
        expect_improvement=expect_improvement,
    )
    if failures:
        print(f"bench regression vs previous run ({len(runs)} runs on file):")
        for line in failures:
            print(f"  {line}")
        return 1
    if len(runs) < 2:
        print(f"{len(runs)} run(s) on file; nothing to compare yet")
    else:
        tests = len(runs[-1].get("records") or [])
        print(
            f"no bench regression: {tests} test(s) within "
            f"{args.threshold:.0%} of the previous run"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
