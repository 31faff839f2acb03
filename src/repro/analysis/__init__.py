"""Analysis utilities: report charts, stats dumps and paper-target checking.

* :mod:`repro.analysis.charts` — the stacked bar chart of the Fig. 11
  report.
* :mod:`repro.analysis.statsdump` — gem5-style whole-system stats
  collection (:func:`collect`, :func:`dump`) and the kernel event
  profile table behind ``experiments --profile``.
* :mod:`repro.analysis.targets` — the paper's quoted quantitative
  results as a machine-readable registry, with tolerance-banded
  checking.  The reproduction's integration tests assert against these
  targets, and ``EXPERIMENTS.md`` is generated from the same source of
  truth.
"""

from repro.analysis.charts import stacked_bar_chart
from repro.analysis.statsdump import collect, dump, find_components
from repro.analysis.targets import PAPER_TARGETS, Target, check_value

__all__ = [
    "PAPER_TARGETS",
    "Target",
    "check_value",
    "collect",
    "dump",
    "find_components",
    "stacked_bar_chart",
]
