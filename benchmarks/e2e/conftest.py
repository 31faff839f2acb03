"""Keep the benchmark's self-tests out of the pytest-bench trajectory.

``benchmarks/conftest.py`` meters every test under ``benchmarks/`` into
``BENCH_runner.json``.  These tests time nothing, and the benchmark
keeps its own result documents, so the metering fixture is a no-op here.
"""

import pytest


@pytest.fixture(autouse=True)
def _bench_record():
    yield
