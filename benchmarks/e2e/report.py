"""Render result documents as text, and compare two of them."""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

from .metrics import END_TO_END, LAYERS, OUTPUTS, spread, verdict


def _machine_line(machine: Mapping[str, Any]) -> str:
    return (
        f"machine: {machine['cpu_count']} cpus ({machine['usable_cpus']} usable), "
        f"Python {machine['python']}, {machine['platform']}, "
        f"git {machine['git_revision'][:12]}, load "
        f"{machine['loadavg_before'][0]:.2f} -> {machine['loadavg_after'][0]:.2f}, "
        f"pool jobs {machine['pool_jobs']}"
    )


def _status_line(name: str, entry: Mapping[str, Any]) -> List[str]:
    if entry["status"] == "skipped":
        return [f"{name}: skipped ({entry['reason']})"]
    lines = [
        f"{name}: {entry['status']}, {entry['attempted']} ops attempted, "
        f"{entry['failed']} failed, digest {entry['digest'][:16]}"
    ]
    lines += [f"  PROBLEM: {problem}" for problem in entry["problems"]]
    return lines


def format_run(document: Mapping[str, Any], declaration: Mapping[str, Any]) -> str:
    """Every end-to-end metric by name and unit, then the pinned outputs."""
    declared = declaration["end_to_end"]
    lines = [
        _machine_line(document["machine"]),
        f"seed {document['seed']}, {document['reps']} repetition(s) per workload",
    ]
    for name, entry in document["workloads"].items():
        lines.append("")
        lines += _status_line(name, entry)
        if entry["status"] == "skipped":
            continue
        lines.append(
            f"  {'metric':<16}{'unit':<10}{'median':>12}{'q1':>12}{'q3':>12}"
            f"{'n':>4}{'spread':>9}{'bound':>8}"
        )
        for metric in END_TO_END:
            stats = entry["metrics"][metric]
            lines.append(
                f"  {metric:<16}{declared[metric]['unit']:<10}"
                f"{stats['median']:>12.4f}{stats['q1']:>12.4f}{stats['q3']:>12.4f}"
                f"{stats['n']:>4}{spread(stats):>9.1%}"
                f"{declared[metric]['bound']:>8.0%}"
            )
        lines.append(f"  {'output (pinned)':<16}{'unit':<10}{'value':>12}")
        for output, value in sorted(entry["outputs"].items()):
            lines.append(f"  {output:<16}{OUTPUTS[output]:<10}{value!r:>12}")
    return "\n".join(lines)


def format_trace(document: Mapping[str, Any], declaration: Mapping[str, Any]) -> str:
    """Per-layer host time, then every probe, for each traced workload."""
    units = {
        name: entry["unit"] for name, entry in declaration["per_layer"].items()
    }
    layer_rows = {
        f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "share", "calls")
    }
    lines = [_machine_line(document["machine"]), f"seed {document['seed']}"]
    for name, entry in document["workloads"].items():
        lines.append("")
        lines += _status_line(name, entry)
        if entry["status"] == "skipped":
            continue
        values = entry["per_layer"]
        lines.append(
            f"  traced wall {values['trace.wall_s']:.3f} s = "
            f"{values['trace.overhead_x']:.2f}x the untraced median"
        )
        lines.append(f"  {'layer':<14}{'self_s':>10}{'share':>9}{'calls':>12}")
        ordered = sorted(LAYERS, key=lambda layer: -values[f"{layer}.self_s"])
        for layer in ordered:
            lines.append(
                f"  {layer:<14}{values[f'{layer}.self_s']:>10.3f}"
                f"{values[f'{layer}.share']:>9.1%}{values[f'{layer}.calls']:>12}"
            )
        total = sum(values[f"{layer}.share"] for layer in LAYERS)
        lines.append(f"  {'(sum)':<14}{'':>10}{total:>9.1%}")
        lines.append(f"  {'probe':<32}{'unit':<10}{'value':>14}")
        for metric, value in values.items():
            if metric not in layer_rows:
                lines.append(f"  {metric:<32}{units[metric]:<10}{value:>14.6g}")
    return "\n".join(lines)


def compare(
    before: Mapping[str, Any],
    after: Mapping[str, Any],
    declaration: Mapping[str, Any],
) -> Tuple[List[Dict[str, Any]], bool]:
    """One row per workload and end-to-end metric; whether any is worse.

    A workload whose ``after`` side failed its output checks is
    ``worse`` on every metric; one missing, skipped or failed on the
    ``before`` side is ``unresolved``.
    """
    rows: List[Dict[str, Any]] = []
    for name, new in after["workloads"].items():
        old = before["workloads"].get(name, {"status": "missing"})
        for metric in END_TO_END:
            declared = declaration["end_to_end"][metric]
            row: Dict[str, Any] = {"workload": name, "metric": metric}
            if new["status"] == "failed":
                row["verdict"] = "worse"
            elif old["status"] != "ok" or new["status"] != "ok":
                row["verdict"] = "unresolved"
            else:
                row["before"] = old["metrics"][metric]
                row["after"] = new["metrics"][metric]
                row["verdict"] = verdict(
                    row["before"]["values"],
                    row["after"]["values"],
                    declared["bound"],
                    declared["better"],
                )
            rows.append(row)
    return rows, any(row["verdict"] == "worse" for row in rows)


def format_compare(
    before: Mapping[str, Any],
    after: Mapping[str, Any],
    rows: List[Dict[str, Any]],
    declaration: Mapping[str, Any],
) -> str:
    lines = [
        f"A: seed {before['seed']}, {_machine_line(before['machine'])}",
        f"B: seed {after['seed']}, {_machine_line(after['machine'])}",
        f"{'workload':<17}{'metric':<13}{'A median [q1, q3]':>30}"
        f"{'B median [q1, q3]':>30}{'change':>9}{'bound':>7}  verdict",
    ]
    for row in rows:
        bound = declaration["end_to_end"][row["metric"]]["bound"]
        if "before" not in row:
            lines.append(
                f"{row['workload']:<17}{row['metric']:<13}{'-':>30}{'-':>30}"
                f"{'-':>9}{bound:>7.0%}  {row['verdict']}"
            )
            continue
        a, b = row["before"], row["after"]
        change = (b["median"] - a["median"]) / a["median"]
        lines.append(
            f"{row['workload']:<17}{row['metric']:<13}"
            f"{_cell(a):>30}{_cell(b):>30}{change:>+9.1%}{bound:>7.0%}  "
            f"{row['verdict']}"
        )
    return "\n".join(lines)


def _cell(stats: Mapping[str, Any]) -> str:
    return f"{stats['median']:.4f} [{stats['q1']:.4f}, {stats['q3']:.4f}]"
