"""The experiment registry and the ``python -m repro experiments`` verb.

:data:`EXPERIMENTS` maps every experiment name to its ``(run,
format_report)`` pair; :func:`normalize_names` validates a selection
against it.  :func:`run_cli` is the body of the ``experiments`` verb::

    python -m repro experiments                    # everything
    python -m repro experiments fig11 fig5         # a subset
    python -m repro experiments --jobs 4 --json out.json
    python -m repro experiments --baseline old.json

It runs through :func:`repro.experiments.harness.run_experiments` —
the experiment sweep as a runtime job — for parallel execution, JSON
artifacts, and baseline diffing.
"""

from __future__ import annotations

import argparse
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments import (
    ablation,
    bandwidth,
    faults,
    feasibility,
    fig4,
    fig5,
    fig7,
    fig11,
    fig12a,
    fig12b,
    kernel_stack,
    loaded_latency,
    notification,
    table1,
    transactions,
)

EXPERIMENTS: Dict[str, Tuple[Callable[[], object], Callable[[object], str]]] = {
    "table1": (table1.run, table1.format_report),
    "fig4": (fig4.run, fig4.format_report),
    "fig5": (fig5.run, fig5.format_report),
    "fig7": (fig7.run, fig7.format_report),
    "fig11": (fig11.run, fig11.format_report),
    "fig12a": (fig12a.run, fig12a.format_report),
    "fig12b": (fig12b.run, fig12b.format_report),
    "bandwidth": (bandwidth.run, bandwidth.format_report),
    "ablation": (ablation.run, ablation.format_report),
    "transactions": (transactions.run, transactions.format_report),
    "notification": (notification.run, notification.format_report),
    "kernel_stack": (kernel_stack.run, kernel_stack.format_report),
    "loaded_latency": (loaded_latency.run, loaded_latency.format_report),
    "feasibility": (feasibility.run, feasibility.format_report),
    "faults": (faults.run, faults.format_report),
}


def normalize_names(names: Optional[Sequence[str]]) -> List[str]:
    """Validate and de-duplicate experiment names, preserving order.

    ``None`` (or empty) means every experiment.  Unknown names raise
    :class:`ValueError` — library code never calls :func:`sys.exit`;
    the CLI entry points translate to a clean exit.
    """
    if not names:
        return list(EXPERIMENTS)
    seen: List[str] = []
    for name in names:
        if name not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {name!r}; choose from {', '.join(EXPERIMENTS)}"
            )
        if name not in seen:
            seen.append(name)
    return seen


def add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared runner flags (used here and by ``repro`` CLI)."""
    parser.add_argument(
        "names", nargs="*", help="experiment names (default: all)"
    )
    parser.add_argument(
        "--jobs",
        type=positive_int,
        default=1,
        metavar="N",
        help="worker processes (1 = run inline, the debuggable fallback)",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        metavar="PATH",
        help="write the versioned JSON artifact to PATH",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help="diff this run against a previous artifact and flag regressions",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile kernel events per callback owner (forces --jobs 1)",
    )


def positive_int(text: str) -> int:
    """argparse type: a strictly positive integer."""
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def run_cli(args: argparse.Namespace) -> Tuple[str, int]:
    """Execute a parsed runner invocation; returns (output, exit code)."""
    from repro.experiments import harness

    profile = getattr(args, "profile", False)
    jobs = args.jobs
    if profile:
        # The profile accumulates in process-global counters; worker
        # processes would run their simulators (and drop their buckets)
        # in separate address spaces, so profiling forces inline runs.
        from repro.sim import engine

        jobs = 1
        engine.reset_profile_totals()
        engine.set_profile_default(True)
    from repro.runtime.backends import SweepConfig

    config = SweepConfig(backend="pool" if jobs > 1 else "local", jobs=jobs)
    try:
        run = harness.run_experiments(args.names or None, config=config)
    finally:
        if profile:
            engine.set_profile_default(False)
    output = run.report_text()
    if profile:
        from repro.analysis.statsdump import format_profile
        from repro.sim.engine import profile_totals

        output += (
            f"\n{'=' * 72}\n"
            "kernel event profile (events per callback owner)\n"
            f"{format_profile(profile_totals(), top=30)}\n"
        )
    exit_code = 0
    if args.json_path:
        run.write_artifact(args.json_path)
        output += f"\nwrote artifact: {args.json_path}"
    if args.baseline:
        baseline = harness.load_artifact(args.baseline)
        diff = harness.diff_artifacts(run.to_artifact(), baseline)
        output += "\n" + diff.format()
        if diff.has_regressions:
            exit_code = 1
    return output, exit_code

