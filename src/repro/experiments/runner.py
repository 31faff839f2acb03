"""The experiment registry.

:data:`EXPERIMENTS` maps every experiment name to its module; it is the
one place that lists the experiments.  Every module exports
``run(params=None)``, ``format_report(result)`` and a one-line
``SUMMARY``.  A module that also exports ``cells`` (with ``run_cell``
and ``merge``) is sharded one task per sweep point; only ``fig5`` does,
and every other experiment runs as one task.  The harness
(:mod:`repro.experiments.harness`), calibration
(:mod:`repro.calib.evaluate`) and ``python -m repro list`` all read this
map, so adding an experiment is one module plus one line here.
:func:`normalize_names` validates a selection against it.
"""

from __future__ import annotations

from types import ModuleType
from typing import Dict, List, Optional, Sequence

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

EXPERIMENTS: Dict[str, ModuleType] = {
    "table1": table1,
    "fig4": fig4,
    "fig5": fig5,
    "fig7": fig7,
    "fig11": fig11,
    "fig12a": fig12a,
    "fig12b": fig12b,
    "bandwidth": bandwidth,
    "ablation": ablation,
    "transactions": transactions,
    "notification": notification,
    "kernel_stack": kernel_stack,
    "loaded_latency": loaded_latency,
    "feasibility": feasibility,
    "faults": faults,
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
