"""Candidate evaluation: one parameter set → per-target losses.

A calibration trial is one full experiment pass under a candidate
:class:`~repro.params.SystemParams` (the shipped defaults patched by
the candidate's overrides), scored against the selected subset of the
``PAPER_TARGETS`` registry with :meth:`Target.loss` — normalized so 0
is the paper's value, 1 the band edge.

A target's figure prefix names the experiment that measures it: a
trial looks the prefix up in the experiment registry
(:data:`repro.experiments.runner.EXPERIMENTS`) and runs that module's
``run(params=...)``, so every ``PAPER_TARGETS`` figure can constrain a
fit.  Target selection is by full registry name or by figure prefix
(``"fig11"`` selects every ``fig11.*`` target); the default
set — ``fig4`` + ``fig11`` — is the same pair of figures the shipped
constants were hand-calibrated against (``docs/calibration.md``).

The module owns the ``"calib"`` task kind of the sweep runtime
(:data:`repro.runtime.tasks.KIND_OWNERS`), so a trial is an ordinary
shard: executed by any backend, checkpointed in run directories,
SIGKILL-survivable, and — on failure — recorded as a structured
:class:`ShardFailure`, never a fabricated ``inf`` loss.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.analysis.targets import PAPER_TARGETS, aggregate_loss
from repro.calib.space import nested_overrides
from repro.experiments.runner import EXPERIMENTS
from repro.params import DEFAULT, apply_overrides
from repro.runtime.tasks import Outcome, ShardResult

__all__ = [
    "DEFAULT_TARGET_SELECTORS",
    "select_targets",
    "experiments_for",
    "evaluate_candidate",
]

DEFAULT_TARGET_SELECTORS = ("fig4", "fig11")
"""The figures the shipped constants were calibrated against."""


def select_targets(
    selectors: Optional[Sequence[str]] = None,
) -> List[str]:
    """Resolve target selectors to registry names, in registry order.

    Each selector is either a full ``PAPER_TARGETS`` name or a figure
    prefix (everything before the first ``.``).  ``None`` selects the
    default ``fig4`` + ``fig11`` set.  Unknown selectors raise.

    >>> select_targets(["fig7"])
    ['fig7.lines_per_burst', 'fig7.third_burst_ns']
    """
    chosen = list(selectors) if selectors else list(DEFAULT_TARGET_SELECTORS)
    names: List[str] = []
    for selector in chosen:
        if selector in PAPER_TARGETS:
            matches = [selector]
        else:
            matches = [
                name
                for name in PAPER_TARGETS
                if name.split(".", 1)[0] == selector
            ]
        if not matches:
            figures = sorted({n.split(".", 1)[0] for n in PAPER_TARGETS})
            raise ValueError(
                f"unknown target selector {selector!r}; use a registry "
                f"name or a figure prefix from {figures}"
            )
        for name in matches:
            if name not in names:
                names.append(name)
    return names


def experiments_for(target_names: Sequence[str]) -> List[str]:
    """The experiments that must run to measure these targets."""
    seen: List[str] = []
    for name in target_names:
        figure = name.split(".", 1)[0]
        if figure not in seen:
            seen.append(figure)
    return seen


def evaluate_candidate(
    overrides: Mapping[str, int], target_names: Sequence[str]
) -> Dict[str, Any]:
    """Run one candidate's experiments and score them.

    ``overrides`` is the flat ``{"section.field": ticks}`` candidate
    (empty = shipped defaults); ``target_names`` the registry names to
    score.  Returns the JSON-safe trial payload: the aggregate
    normalized loss, how many targets landed in band, and per-target
    diagnostics (measured value, loss, band, verdict).  Any failure —
    a candidate that breaks the simulation, a metric the experiment
    did not emit — propagates as an exception for the runtime's shard
    fence to capture as structured diagnostics.
    """
    params = apply_overrides(DEFAULT, nested_overrides(overrides))
    metrics: Dict[str, float] = {}
    for figure in experiments_for(target_names):
        metrics.update(EXPERIMENTS[figure].run(params=params).metrics())
    loss, per_target = aggregate_loss(metrics, names=target_names)
    return {
        "overrides": {name: int(overrides[name]) for name in sorted(overrides)},
        "loss": loss,
        "targets_passed": sum(1 for t in per_target.values() if t["ok"]),
        "targets_total": len(per_target),
        "targets": per_target,
    }


def run_task(args: Dict[str, Any]) -> Dict[str, Any]:
    """One ``"calib"`` task: args in, trial payload out."""
    payload = evaluate_candidate(
        args.get("overrides") or {}, args["targets"]
    )
    payload["param_id"] = args.get("param_id", "")
    return payload


def assemble(
    meta: Dict[str, Any], outcomes: Sequence[Outcome]
) -> Dict[str, Any]:
    """Assemble one round's successful shard payloads into a trials
    document."""
    return {
        "schema": "netdimm-repro/calib-trials",
        "schema_version": 1,
        "job": {
            "base_seed": meta.get("base_seed", 0),
            "targets": meta.get("targets", []),
        },
        "trials": [
            outcome.payload
            for outcome in outcomes
            if isinstance(outcome, ShardResult)
        ],
    }
