"""Base class for named simulation components."""

from __future__ import annotations

from repro.sim.engine import Simulator
from repro.sim.stats import StatRecorder


class Component:
    """A named model element bound to a simulator.

    Provides a per-component :class:`~repro.sim.stats.StatRecorder` and
    convenience accessors for the clock.  Every hardware block in the
    reproduction (memory controller, NIC, nCache, switch, ...) derives
    from this.
    """

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.stats = StatRecorder(owner=name)

    @property
    def now(self) -> int:
        """Current simulated time in ticks."""
        return self.sim._now

    def spawn(self, body, name: str = ""):
        """Spawn a process owned by this component.

        The process is named ``<component>.<name>`` so the kernel trace
        hook (and ``experiments --profile``) attributes its events to
        this component instead of an anonymous generator.
        """
        label = name or getattr(body, "__name__", "process")
        return self.sim.spawn(body, name=f"{self.name}.{label}")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
