"""The experiment registry.

:data:`EXPERIMENTS` maps every experiment name to its ``(run,
format_report)`` pair; :func:`normalize_names` validates a selection
against it.  The harness (:mod:`repro.experiments.harness`) runs a
selection as a sweep job, and ``python -m repro experiments`` is that
job's command-line front-end.
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


def positive_int(text: str) -> int:
    """argparse type: a strictly positive integer."""
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value
