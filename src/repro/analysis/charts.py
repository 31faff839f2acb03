"""Terminal-friendly charts for experiment reports.

The experiment reports are plain text; a stacked bar chart makes a
figure's *shape* (who wins, what the stack is made of) visible straight
from ``python -m repro experiments`` without any plotting dependency.
"""

from __future__ import annotations

from typing import Dict, Sequence


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
