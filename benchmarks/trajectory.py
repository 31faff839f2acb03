"""The bench trajectory: ``BENCH_runner.json`` and the gate that reads it.

:func:`append_bench_run` is what ``benchmarks/conftest.py`` calls at the
end of every ``pytest benchmarks/`` session to append that session's
per-test records (wall seconds, events fired, events/sec, machine
meta) to the trajectory file.  :func:`check_bench_regression` holds
each test of the newest run to its newest earlier rate from the same
machine; ``scripts/check_bench_regression.py``
is its command-line front end, which CI's bench job runs.

This is repository tooling, not part of the simulator: nothing under
``src/repro`` imports it.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional


def append_bench_run(
    path: str,
    records: List[Dict[str, Any]],
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Append one benchmark run (a list of per-test records) to ``path``.

    The file accumulates a perf trajectory across sessions::

        {"schema": ..., "schema_version": 1,
         "runs": [{"timestamp": ..., "records": [...]}, ...]}

    A missing file starts a fresh trajectory.  An *unreadable* file
    (malformed JSON, wrong shape, I/O error) is preserved: it is moved
    aside to ``<path>.corrupt`` and a warning is emitted before the
    fresh trajectory is written, so a perf history is never silently
    destroyed.

    Timestamps are timezone-aware UTC ISO-8601
    (``datetime.now(timezone.utc).isoformat()``).  Older trajectories
    with local-time ``strftime`` stamps remain valid — timestamps are
    informational and never parsed by the regression gate.
    """
    document: Dict[str, Any] = {
        "schema": "netdimm-repro/bench-trajectory",
        "schema_version": 1,
        "runs": [],
    }
    corrupt_reason: Optional[str] = None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            existing = json.load(handle)
        if isinstance(existing, dict) and isinstance(existing.get("runs"), list):
            document = existing
        else:
            corrupt_reason = "not a bench-trajectory document"
    except FileNotFoundError:
        pass
    except (OSError, ValueError) as error:
        corrupt_reason = str(error)
    if corrupt_reason is not None:
        backup = f"{path}.corrupt"
        try:
            os.replace(path, backup)
        except OSError:
            backup = None
        warnings.warn(
            f"bench trajectory {path} is unreadable ({corrupt_reason}); "
            + (
                f"backed it up to {backup} and starting fresh"
                if backup
                else "could not back it up; starting fresh"
            ),
            RuntimeWarning,
            stacklevel=2,
        )
    run_entry: Dict[str, Any] = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "records": records,
    }
    if meta:
        run_entry["meta"] = meta
    document["runs"].append(run_entry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return document


MACHINE_KEYS = ("cpu_count", "platform", "python")
"""Run-meta keys two runs must share for one to baseline the other."""

RATES = (("events_per_sec", "events/sec"), ("calls_per_sec", "calls/sec"))
"""The gated rates: simulator benches, and benches that fire no events."""


@dataclass
class GateReport:
    """What :func:`gate_bench_run` found in the newest run."""

    failures: List[str] = field(default_factory=list)
    """Human-readable violations; empty means the gate passes."""

    compared: List[str] = field(default_factory=list)
    """Tests whose rate was held to a like-for-like baseline, sorted."""

    unmatched: List[str] = field(default_factory=list)
    """Tests with a rate but no like-for-like baseline, sorted: new
    benches, or benches whose earlier runs were all on other machines."""


def _machine(run: Dict[str, Any]) -> tuple:
    meta = run.get("meta") or {}
    return tuple(meta.get(key) for key in MACHINE_KEYS)


def _rates(run: Dict[str, Any], key: str) -> Dict[str, float]:
    rates: Dict[str, float] = {}
    for record in run.get("records") or []:
        rate = record.get(key)
        test = record.get("test")
        if test and isinstance(rate, (int, float)) and rate > 0:
            rates[test] = float(rate)
    return rates


def _baselines(runs: List[Dict[str, Any]], key: str) -> Dict[str, float]:
    """Each test's rate in the newest earlier run that has it and ran on
    the newest run's machine (same :data:`MACHINE_KEYS`)."""
    machine = _machine(runs[-1])
    baselines: Dict[str, float] = {}
    for run in reversed(runs[:-1]):
        if _machine(run) == machine:
            for test, rate in _rates(run, key).items():
                baselines.setdefault(test, rate)
    return baselines


def gate_bench_run(
    document: Dict[str, Any],
    threshold: float = 0.25,
    expect_improvement: Optional[Dict[str, Any]] = None,
) -> GateReport:
    """Gate the newest bench run against earlier runs on its machine.

    ``document`` is a bench-trajectory (the :func:`append_bench_run`
    schema).  Each test with a positive rate in the newest run is held
    to its *baseline*: its rate in the newest earlier run that has it
    and whose meta ``cpu_count``, ``platform`` and ``python`` match the
    newest run's.  So a partial run (a few benches re-run on their own)
    never resets the baseline of the benches it left out, and a run
    from another machine is never a baseline.  The rate must stay
    within ``threshold`` (fractional drop) of the baseline.  A test
    with no such baseline passes, and the report names it.  Two
    rates are gated this way, each on its own: ``events_per_sec``
    (simulator benches) and ``calls_per_sec`` (benches of experiments
    that fire no events).

    A test that *vanishes* — has a rate in the previous run but none in
    the newest — is itself a failure: a silently-dropped benchmark is
    how regressions hide.  Violations come back as human-readable
    strings in ``failures``; none means the gate passes.  Fewer than two runs
    passes (a fresh trajectory has nothing to regress against).

    ``expect_improvement`` maps test name → required speedup in
    ``events_per_sec``.  A plain float ratio compares against the
    test's baseline: the newest ``events_per_sec`` must be at least
    ``ratio`` times it.  A ``(ratio, baseline_test)`` tuple compares
    against a *different test in the newest run* — how a fast-path
    bench pins its speedup over its own slow-path twin recorded in the
    same session.  A test named in the map but missing a positive rate
    in the newest run is a failure, as is a missing baseline test — a
    declared speedup cannot be waved through on absent data.  The one
    exception: a plain-ratio expectation for a test with no baseline
    passes — its first recorded rate seeds the baseline the next run
    will be held to — so a new benchmark can land in the same change as
    its gate.
    """
    runs = document.get("runs") or []
    report = GateReport()
    if len(runs) < 2:
        return report
    compared, unmatched = set(), set()
    for key, unit in RATES:
        previous, current = _rates(runs[-2], key), _rates(runs[-1], key)
        for test, base_rate in sorted(previous.items()):
            if test not in current:
                report.failures.append(
                    f"{test}: present in previous run "
                    f"({base_rate:.0f} {unit}) but missing from newest run"
                )
        baselines = _baselines(runs, key)
        for test, now_rate in sorted(current.items()):
            base_rate = baselines.get(test)
            if base_rate is None:
                unmatched.add(test)
                continue
            compared.add(test)
            drop = (base_rate - now_rate) / base_rate
            if drop > threshold:
                report.failures.append(
                    f"{test}: {unit} fell {drop:.0%} "
                    f"({base_rate:.0f} -> {now_rate:.0f}, "
                    f"threshold {threshold:.0%})"
                )
    baselines = _baselines(runs, "events_per_sec")
    current = _rates(runs[-1], "events_per_sec")
    for test, expectation in sorted((expect_improvement or {}).items()):
        if isinstance(expectation, tuple):
            ratio, baseline_test = expectation
        else:
            ratio, baseline_test = expectation, None
        now_rate = current.get(test)
        if now_rate is None:
            report.failures.append(
                f"{test}: expected {ratio:g}x improvement but the test has "
                f"no rate in the newest run"
            )
            continue
        if baseline_test is not None:
            base_rate = current.get(baseline_test)
            if base_rate is None:
                report.failures.append(
                    f"{test}: expected >= {ratio:g}x vs {baseline_test}, "
                    f"but {baseline_test} has no rate in the newest run"
                )
                continue
            if now_rate < base_rate * ratio:
                report.failures.append(
                    f"{test}: expected >= {ratio:g}x vs {baseline_test}, "
                    f"got {now_rate / base_rate:.2f}x "
                    f"({base_rate:.0f} -> {now_rate:.0f})"
                )
            continue
        base_rate = baselines.get(test)
        if base_rate is None:
            # No like-for-like baseline yet: the rate just recorded
            # becomes the one its next run is held to, so new benches
            # land gate-first.
            continue
        if now_rate < base_rate * ratio:
            report.failures.append(
                f"{test}: expected >= {ratio:g}x improvement, got "
                f"{now_rate / base_rate:.2f}x "
                f"({base_rate:.0f} -> {now_rate:.0f})"
            )
    report.compared = sorted(compared)
    report.unmatched = sorted(unmatched - compared)
    return report


def check_bench_regression(
    document: Dict[str, Any],
    threshold: float = 0.25,
    expect_improvement: Optional[Dict[str, Any]] = None,
) -> List[str]:
    """The failures :func:`gate_bench_run` finds; empty means the gate passes."""
    return gate_bench_run(document, threshold, expect_improvement).failures
