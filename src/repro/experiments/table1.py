"""Table 1 — the simulated system configuration.

Rendered from :mod:`repro.params` so the table always reflects the
parameters the experiments actually ran with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.params import DEFAULT, SystemParams, table1_report

SUMMARY = "system configuration (Table 1)"


@dataclass(frozen=True)
class Table1Result:
    """The configuration rows."""

    rows: Dict[str, str]

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe rendering (artifact schema v1)."""
        return {"rows": dict(self.rows)}

    def metrics(self) -> Dict[str, float]:
        """Scalar metrics for artifact/target checking."""
        return {"table1.rows": float(len(self.rows))}


def run(params: Optional[SystemParams] = None) -> Table1Result:
    """Collect the configuration rows."""
    return Table1Result(rows=table1_report(params or DEFAULT))


def format_report(result: Table1Result) -> str:
    """Render the two-column table."""
    width = max(len(key) for key in result.rows)
    lines = ["Table 1 — system configuration"]
    for key, value in result.rows.items():
        lines.append(f"{key:<{width}}  {value}")
    return "\n".join(lines)
