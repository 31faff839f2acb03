"""Shared fixtures for the test suite."""

import gc
import os

import pytest

import repro
from repro.params import SystemParams
from repro.sim import Simulator


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def no_gc():
    """The cyclic GC off for one test, so ``gc.collect()`` counts what it left.

    Collects first, so earlier tests' garbage is not counted, and restores
    the GC's previous state in ``finally``.
    """
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.fixture
def params() -> SystemParams:
    """The default (Table 1) system parameters."""
    return SystemParams()


def run_process(sim: Simulator, body, max_events: int = 1_000_000):
    """Spawn a process and run the simulator until it finishes."""
    process = sim.spawn(body)
    return sim.run_until(process.done, max_events=max_events)


def worker_env() -> dict:
    """A subprocess env that can import repro the way this test run did."""
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    parts = [src_root] + [
        p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p
    ]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
    return env
