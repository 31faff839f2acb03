"""Terminal-friendly charts for experiment reports.

The experiment reports are plain text; these helpers add horizontal bar
charts and grouped series so the figure *shapes* (who wins, crossovers,
stacking) are visible straight from ``python -m repro experiments``
without any plotting dependency.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple


def bar_chart(
    rows: Sequence[Tuple[str, float]],
    width: int = 40,
    unit: str = "",
    fill: str = "#",
) -> str:
    """Horizontal bars scaled to the largest value.

    ``rows`` is a sequence of (label, value); values must be >= 0.
    """
    if not rows:
        return "(no data)"
    peak = max(value for _label, value in rows)
    if peak <= 0:
        peak = 1.0
    label_width = max(len(label) for label, _value in rows)
    lines = []
    for label, value in rows:
        if value < 0:
            raise ValueError(f"bar values must be non-negative: {label}={value}")
        bar = fill * max(1 if value > 0 else 0, round(value / peak * width))
        lines.append(f"{label:<{label_width}}  {value:>8.2f}{unit}  {bar}")
    return "\n".join(lines)


def stacked_bar_chart(
    columns: Sequence[str],
    segments: Dict[str, Sequence[float]],
    width: int = 40,
    unit: str = "",
) -> str:
    """Stacked horizontal bars: one row per column, one glyph per segment.

    ``segments`` maps segment name -> per-column values; each column's
    bar concatenates its segments with distinct glyphs, scaled to the
    tallest stack.  A legend line maps glyphs back to segments.
    """
    glyphs = "#=+*o:%@&~"
    names = list(segments)
    if len(names) > len(glyphs):
        raise ValueError(f"too many segments: {len(names)} > {len(glyphs)}")
    for name, values in segments.items():
        if len(values) != len(columns):
            raise ValueError(f"segment {name!r} has {len(values)} values for "
                             f"{len(columns)} columns")
    totals = [
        sum(segments[name][index] for name in names)
        for index in range(len(columns))
    ]
    peak = max(totals) if totals else 1.0
    if peak <= 0:
        peak = 1.0
    label_width = max(len(str(column)) for column in columns)
    lines = []
    for index, column in enumerate(columns):
        bar = ""
        for glyph, name in zip(glyphs, names):
            value = segments[name][index]
            bar += glyph * round(value / peak * width)
        lines.append(f"{column:<{label_width}}  {totals[index]:>8.2f}{unit}  {bar}")
    legend = "  ".join(
        f"{glyph}={name}" for glyph, name in zip(glyphs, names)
    )
    lines.append(f"legend: {legend}")
    return "\n".join(lines)


def series_chart(
    x_labels: Sequence[str],
    series: Dict[str, Sequence[float]],
    width: int = 40,
    unit: str = "",
) -> str:
    """Several named series over common x labels, one block per x.

    Good for "latency vs. packet size per configuration" comparisons.
    """
    flat: List[Tuple[str, float]] = []
    for index, x_label in enumerate(x_labels):
        for name, values in series.items():
            if len(values) != len(x_labels):
                raise ValueError(
                    f"series {name!r} has {len(values)} values for "
                    f"{len(x_labels)} x labels"
                )
            flat.append((f"{x_label} {name}", values[index]))
    return bar_chart(flat, width=width, unit=unit)
