"""Run workloads in fresh interpreters, check their outputs, report metrics.

The parent process never imports ``repro``: every repetition is a child
``python -m benchmarks.e2e.rep`` with ``src`` on ``PYTHONPATH``, so each
one pays the import a user pays and inherits no state from the last.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence

from .metrics import (
    END_TO_END,
    LAYERS,
    ROOT,
    load_declaration,
    per_layer_names,
    summarize,
)
from .workloads import POOL_JOBS, POOL_WORKLOADS, WORKLOADS

DEFAULT_SEED = 2019
PINS = ROOT / "benchmarks" / "e2e" / "expected.json"
SCHEMA = "netdimm-repro/e2e-bench"
REP_TIMEOUT_S = 170
BENCH_MIN_REPS = 3
"""A fixed-duration run still takes at least this many repetitions."""

PROFILE_PROBES = (
    "dram.access_calls",
    "net.route_paths_calls",
    "net.route_paths_s",
    "host.gc_s",
    "host.gc_collections",
)
"""Per-layer probes only a traced repetition can take; every other
probe is timed from outside and taken from the untraced repetitions."""


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, a crashed child)."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + [
        path for path in env.get("PYTHONPATH", "").split(os.pathsep) if path
    ]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def check_checkout() -> None:
    """Fail unless the program's sources are here, then warm the import.

    The untimed warm-up fills the file cache (and writes bytecode where
    Python is allowed to), a cost users pay once, not on every call.
    """
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {ROOT / 'src'}")
    proc = subprocess.run(
        [sys.executable, "-c", "import repro.api"],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=REP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"cannot import repro: {proc.stderr.strip()}")


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_context() -> Dict[str, Any]:
    """What a result needs to explain itself: cores, interpreter, load."""
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": _git_revision(),
        "pool_jobs": POOL_JOBS,
        "loadavg_before": list(os.getloadavg()),
    }


def skip_reason(name: str, machine: Mapping[str, Any]) -> Optional[str]:
    """Why ``name`` cannot run on this machine, or ``None``."""
    if name in POOL_WORKLOADS and machine["usable_cpus"] < POOL_JOBS:
        return (
            f"{machine['usable_cpus']} usable core(s); pool workloads "
            f"run {POOL_JOBS} workers and need {POOL_JOBS}"
        )
    return None


def run_rep(name: str, seed: int, traced: bool = False) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; its record."""
    proc = subprocess.run(
        [
            sys.executable, "-m", "benchmarks.e2e.rep",
            name, str(seed), "trace" if traced else "plain",
        ],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=REP_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{name} seed {seed} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def repeat(
    name: str,
    seed: int,
    *,
    reps: int = 0,
    seconds: float = 0.0,
    min_reps: int = 1,
) -> List[Dict[str, Any]]:
    """Untraced repetitions: ``reps`` of them, or as many as fit in
    ``seconds`` (at least ``min_reps``).

    A repetition starts only while at least half of an average one still
    fits, so a fixed-duration run ends within half a repetition of
    ``seconds`` instead of overrunning by a whole one.
    """
    records: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while len(records) < max(reps, min_reps):
        records.append(run_rep(name, seed))
    while True:
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(records) / 2 > seconds:
            return records
        records.append(run_rep(name, seed))


def load_pins() -> Dict[str, Any]:
    with open(PINS, "r", encoding="utf-8") as handle:
        return json.load(handle)


def verify(
    name: str, seed: int, records: Sequence[Mapping[str, Any]], pins: Mapping[str, Any]
) -> List[str]:
    """Every reason the outputs of ``records`` are wrong (empty: correct).

    Each repetition must give the same digest and hold the workload's
    invariants; a seed with a pin must also match its digest and its
    pinned outputs exactly.
    """
    problems = sorted({p for record in records for p in record["problems"]})
    digests = {record["digest"] for record in records}
    if len(digests) != 1:
        problems.append(f"repetitions disagree: {len(digests)} distinct digests")
    failed = sum(record["failed"] for record in records)
    if failed:
        problems.append(f"{failed} operation(s) failed")
    pin = pins.get(str(seed), {}).get(name)
    if pin is not None:
        if digests != {pin["sha256"]}:
            problems.append(
                f"digest {sorted(digests)[0][:16]} != pinned {pin['sha256'][:16]}"
            )
        expected = {k: v for k, v in pin["outputs"].items() if k != "failed_frac"}
        for key, value in expected.items():
            got = records[0]["outputs"].get(key)
            if got != value:
                problems.append(f"{key} = {got!r}, pinned {value!r}")
    return problems


def end_to_end(records: Sequence[Mapping[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Median, quartiles and n of each end-to-end metric."""
    return {
        metric: summarize([record[metric] for record in records])
        for metric in END_TO_END
    }


def per_layer(
    records: Sequence[Mapping[str, Any]], traced: Mapping[str, Any]
) -> Dict[str, float]:
    """Every per-layer metric, zero where a layer did nothing."""
    def median_of(key: str) -> float:
        return float(summarize([r["probes"].get(key, 0.0) for r in records])["median"])

    values: Dict[str, float] = {}
    for name in per_layer_names():
        layer, _, kind = name.rpartition(".")
        if layer in LAYERS and kind in ("self_s", "calls"):
            values[name] = traced["layers"][layer][kind]
        elif layer in LAYERS and kind == "share":
            values[name] = traced["layers"][layer]["self_s"] / traced["traced_wall_s"]
        elif name in PROFILE_PROBES:
            values[name] = traced["probes"].get(name, 0)
        else:
            values[name] = median_of(name)
    run_s = float(summarize([r["run_s"] for r in records])["median"])
    wall_s = float(summarize([r["wall_s"] for r in records])["median"])
    values["sim.events_per_s"] = median_of("sim.events") / run_s
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.overhead_x"] = traced["wall_s"] / wall_s
    return values


def measure_workload(
    name: str,
    seed: int,
    machine: Mapping[str, Any],
    pins: Mapping[str, Any],
    *,
    reps: int = 0,
    seconds: float = 0.0,
    min_reps: int = 1,
    trace: bool = False,
) -> Dict[str, Any]:
    """One workload's entry in a result document.

    The traced repetition, if any, runs first and counts against
    ``seconds``, so a traced fixed-duration run takes no longer than an
    untraced one unless the minimum repetitions need it.
    """
    reason = skip_reason(name, machine)
    if reason is not None:
        return {"status": "skipped", "reason": reason}
    traced = None
    if trace:
        start = time.perf_counter()
        traced = run_rep(name, seed, traced=True)
        seconds = max(0.0, seconds - (time.perf_counter() - start))
    records = repeat(name, seed, reps=reps, seconds=seconds, min_reps=min_reps)
    checked = records + ([traced] if traced else [])
    problems = verify(name, seed, checked, pins)
    attempted = sum(record["attempted"] for record in checked)
    failed = attempted if problems else sum(r["failed"] for r in checked)
    outputs = dict(records[0]["outputs"])
    outputs["failed_frac"] = failed / attempted if attempted else 1.0
    entry: Dict[str, Any] = {
        "status": "failed" if problems else "ok",
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "digest": records[0]["digest"],
        "outputs": outputs,
        "metrics": end_to_end(records),
    }
    if traced is not None:
        entry["per_layer"] = per_layer(records, traced)
    return entry


def run_document(
    command: str, seed: int, *, reps: int, trace: bool, log=None
) -> Dict[str, Any]:
    """Measure every workload and assemble the result document."""
    check_checkout()
    pins = load_pins()
    machine = machine_context()
    workloads: Dict[str, Any] = {}
    for name in WORKLOADS:
        if log is not None:
            log(f"{name}: {reps} repetition(s){' + 1 traced' if trace else ''} ...")
        workloads[name] = measure_workload(
            name, seed, machine, pins, reps=reps, trace=trace
        )
    machine["loadavg_after"] = list(os.getloadavg())
    return {
        "schema": SCHEMA,
        "schema_version": 1,
        "command": command,
        "seed": seed,
        "reps": reps,
        "machine": machine,
        "workloads": workloads,
    }


def bench_result(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """The one-line result of a fixed-duration run of one workload."""
    check_checkout()
    machine = machine_context()
    reason = skip_reason(name, machine)
    if reason is not None:
        raise BenchError(f"{name} skipped: {reason}")
    entry = measure_workload(
        name,
        seed,
        machine,
        load_pins(),
        seconds=seconds,
        min_reps=BENCH_MIN_REPS,
        trace=trace,
    )
    if trace:
        metrics = entry["per_layer"]
    else:
        # The host flips between a fast and a slow state for tens of
        # seconds at a time, so the median repetition of one run lands in
        # either state; the mean weighs the whole run's work and moves
        # far less from run to run.
        metrics = {m: entry["metrics"][m]["mean"] for m in END_TO_END}
    declared = load_declaration()["per_layer" if trace else "end_to_end"]
    return {
        "correct": entry["status"] == "ok",
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {
            metric: {"value": value, "unit": declared[metric]["unit"]}
            for metric, value in metrics.items()
        },
    }
