"""Command line: ``python -m benchmarks.e2e {run,trace,compare,bench}``.

Run from the repository root.  See ``benchmarks/e2e/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import report, runner
from .metrics import load_declaration
from .workloads import WORKLOADS


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end and per-layer host benchmark of the repro package.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, reps, text in (
        ("run", 5, "end-to-end metrics, tracing off; exits 1 on a wrong output"),
        ("trace", 1, "per-layer metrics from one profiled repetition per workload"),
    ):
        command = commands.add_parser(name, help=text)
        command.add_argument("--seed", type=int, default=runner.DEFAULT_SEED)
        command.add_argument(
            "--reps", type=_positive_int, default=reps,
            help=f"untraced repetitions per workload (default {reps})",
        )
        command.add_argument("--out", help="also write the result document here")
    compare = commands.add_parser(
        "compare", help="verdict per workload and metric; exits 1 on 'worse'"
    )
    compare.add_argument("before", help="result document A (the baseline)")
    compare.add_argument("after", help="result document B")
    bench = commands.add_parser(
        "bench", help="one workload for a fixed time; last line is one JSON result"
    )
    bench.add_argument("--workload", required=True, choices=list(WORKLOADS))
    bench.add_argument("--seed", type=int, required=True)
    bench.add_argument("--seconds", type=_positive_int, required=True)
    bench.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "bench":
            result = runner.bench_result(
                args.workload, args.seed, args.seconds, bool(args.trace)
            )
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        declaration = load_declaration()
        if args.command == "compare":
            documents = []
            for path in (args.before, args.after):
                with open(path, "r", encoding="utf-8") as handle:
                    documents.append(json.load(handle))
            rows, worse = report.compare(*documents, declaration)
            print(report.format_compare(*documents, rows, declaration))
            return 1 if worse else 0
        document = runner.run_document(
            args.command,
            args.seed,
            reps=args.reps,
            trace=args.command == "trace",
            log=_log,
        )
    except runner.BenchError as error:
        _log(f"error: {error}")
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    render = report.format_trace if args.command == "trace" else report.format_run
    print(render(document, declaration))
    failed = [
        name
        for name, entry in document["workloads"].items()
        if entry["status"] == "failed"
    ]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
