"""Whole-system statistics collection (gem5-style stats dump).

Every model element derives from :class:`~repro.sim.component.Component`
and accumulates counters/histograms in its recorder.  After a run, an
experiment (or a user debugging one) often wants *everything*:
``collect`` walks an object graph, finds every component, and flattens
their reports into one ``component.stat -> value`` mapping.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set

from repro.sim.component import Component


def find_components(root: Any, max_depth: int = 6) -> List[Component]:
    """Every :class:`Component` reachable from ``root``'s attributes.

    Walks plain attributes, lists/tuples, and dict values, depth-bounded
    and cycle-safe.  ``root`` itself is included if it is a component.
    """
    seen: Set[int] = set()
    found: List[Component] = []

    def visit(obj: Any, depth: int) -> None:
        if depth < 0 or id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, Component):
            found.append(obj)
        if isinstance(obj, (list, tuple)):
            for item in obj:
                visit(item, depth - 1)
            return
        if isinstance(obj, dict):
            for item in obj.values():
                visit(item, depth - 1)
            return
        attributes = getattr(obj, "__dict__", None)
        if attributes and (isinstance(obj, Component) or depth == max_depth):
            for value in attributes.values():
                visit(value, depth - 1)
        elif attributes and not isinstance(obj, (str, bytes, int, float)):
            for value in attributes.values():
                if isinstance(value, (Component, list, tuple, dict)):
                    visit(value, depth - 1)

    visit(root, max_depth)
    return found


def collect(root: Any) -> Dict[str, float]:
    """Flatten every reachable component's stats into one mapping."""
    flat: Dict[str, float] = {}
    for component in find_components(root):
        for stat, value in component.stats.report().items():
            flat[f"{component.name}.{stat}"] = value
    return flat


def format_profile(counts: Dict[str, int], top: int = 0) -> str:
    """Render a kernel event profile (owner → events fired) as a table.

    ``counts`` maps the owner labels a ``Simulator(trace=...)`` hook
    receives to how often each fired (``experiments --profile`` counts
    them this way).  Rows are sorted by event
    count, heaviest first; ``top`` truncates to the N heaviest owners
    (0 = all).  To fold a profile into a component's stats instead, use
    :meth:`repro.sim.stats.StatRecorder.count_many`.

    A profile says *which code* fired events; to see *where one
    packet's time went*, use the span tracer instead
    (``repro.api.trace_scenario`` / ``python -m repro trace SPEC``)
    and open the exported timeline in Perfetto.
    """
    total = sum(counts.values())
    rows = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    dropped = len(rows) - top if top and len(rows) > top else 0
    if top:
        rows = rows[:top]
    lines = [f"{'event owner':<48}{'events':>12}{'share':>9}"]
    for name, value in rows:
        share = value / total if total else 0.0
        lines.append(f"{name:<48}{value:>12}{share:>8.1%}")
    if dropped:
        lines.append(f"... {dropped} more owners elided")
    lines.append(f"{'total':<48}{total:>12}")
    return "\n".join(lines)


def dump(root: Any, only: str = "") -> str:
    """Human-readable stats dump, optionally filtered by substring."""
    flat = collect(root)
    lines = []
    for key in sorted(flat):
        if only and only not in key:
            continue
        value = flat[key]
        rendered = f"{value:.3f}".rstrip("0").rstrip(".") if isinstance(value, float) else value
        lines.append(f"{key:<60} {rendered}")
    return "\n".join(lines)
