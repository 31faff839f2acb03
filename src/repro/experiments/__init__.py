"""Experiment reproductions — one module per table/figure of the paper.

``python -m repro list`` prints every experiment with its one-line
summary.  :mod:`repro.experiments.runner` holds the registry (name →
module), :mod:`repro.experiments.oneway` the shared single-packet
one-way latency measurement, and :mod:`repro.experiments.harness` runs
a selection as one sweep job (``python -m repro experiments``).

Every experiment module exports ``run(...) -> result dataclass``,
``format_report(result) -> str`` and ``SUMMARY``.
"""

from repro.experiments.oneway import OneWayResult, measure_one_way

__all__ = [
    "OneWayResult",
    "measure_one_way",
]
