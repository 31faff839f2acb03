"""Discrete-event simulation kernel.

This package is the substrate every hardware model in the reproduction is
built on.  It provides:

* :class:`~repro.sim.engine.Simulator` — the event loop with an integer
  picosecond clock.
* :class:`~repro.sim.engine.Future` — a one-shot completion token that
  processes can wait on.
* :class:`~repro.sim.engine.Process` — generator-based cooperative
  processes (``yield delay`` / ``yield future``).
* :class:`~repro.sim.resource.Resource` — FIFO mutual exclusion with
  queueing, used for buses, ports, and controllers.
* :class:`~repro.sim.resource.Pipe` — a latency/bandwidth-modelled
  point-to-point channel.
* :class:`~repro.sim.component.Component` — a named owner of statistics
  attached to a simulator.
* :class:`~repro.sim.stats.StatRecorder` — counters, scalars, and
  histograms.

The kernel is deliberately small and fully deterministic: events at the
same tick fire in scheduling order, and no wall-clock or OS state leaks
into a run, so every experiment in :mod:`repro.experiments` is exactly
reproducible.
"""

from repro.sim.component import Component
from repro.sim.engine import Future, Process, Simulator, SimulationError, Timer
from repro.sim.resource import Pipe, Queue, Resource
from repro.sim.stats import Histogram, StatRecorder

__all__ = [
    "Component",
    "Future",
    "Histogram",
    "Pipe",
    "Process",
    "Queue",
    "Resource",
    "SimulationError",
    "Simulator",
    "StatRecorder",
    "Timer",
]
