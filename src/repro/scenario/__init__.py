"""Declarative scenario layer: many-node simulations from one spec.

* :mod:`repro.scenario.spec` — :class:`ScenarioSpec` and friends: a
  JSON-round-trippable description of nodes (NIC kind + parameter
  overrides), fabric topology, and seeded traffic.
* :mod:`repro.scenario.traffic` — deterministic traffic planning
  (oneway / incast / uniform / Facebook-trace generators).
* :mod:`repro.scenario.builder` — instantiates the whole cluster into
  one simulator and replays the plan with per-flow latency histograms.
* :mod:`repro.scenario.runner` — spec files → artifact, serial or
  fanned over worker processes (``python -m repro run-scenario``).

The experiment layer sits on top: ``measure_one_way`` is the trivial
two-node scenario, and fig12a's ``mode="fabric"`` replays the cluster
traces over the live fabric built here.  Running a spec is
:func:`repro.api.simulate`.  The package re-exports nothing, so
loading a spec (:func:`repro.api.load_spec`) loads no model: the
builder and the models it instantiates load when a spec is built.
"""

__all__ = []
