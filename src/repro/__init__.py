"""NetDIMM reproduction: a near-memory NIC architecture simulator.

A from-scratch Python reproduction of *NetDIMM: Low-Latency Near-Memory
Network Interface Architecture* (Alian & Kim, MICRO 2019): a
discrete-event full-system model of servers whose 40GbE NIC lives in
the buffer device of a DDR5 DIMM, plus the PCIe-NIC and integrated-NIC
baselines it is evaluated against, and a harness regenerating every
table and figure of the paper's evaluation.

Quick start — everything routes through the :mod:`repro.api` facade::

    from repro import api

    dnic = api.measure_one_way("dnic", size_bytes=256)
    netdimm = api.measure_one_way("netdimm", size_bytes=256)
    print(f"{1 - netdimm.total_ticks / dnic.total_ticks:.1%} faster")

    result = api.simulate(api.load_spec("examples/incast_mixed.json"))
    print(api.format_report(result))

Package map — substrates: :mod:`repro.sim` (event kernel),
:mod:`repro.dram`, :mod:`repro.pcie`, :mod:`repro.cache`,
:mod:`repro.mem`, :mod:`repro.net`, :mod:`repro.nic`; the paper's
contribution: :mod:`repro.core`; software stack: :mod:`repro.driver`;
fault injection & recovery: :mod:`repro.faults`; workloads:
:mod:`repro.workloads`; evaluation: :mod:`repro.experiments` and
:mod:`repro.analysis`; every calibrated constant: :mod:`repro.params`;
the public facade over all of it: :mod:`repro.api`.
"""

from repro.params import DEFAULT, SystemParams

__version__ = "1.1.0"

__all__ = [
    "DEFAULT",
    "SystemParams",
    "__version__",
    "api",
    "diff_artifacts",
    "format_report",
    "load_spec",
    "simulate",
    "submit",
]


def __getattr__(name):
    # Lazy: `import repro` must stay light (the facade loads the sweep
    # runtime), but `repro.api` / `repro.simulate` etc. work.
    if name == "api":
        import repro.api as api

        return api
    if name in (
        "load_spec",
        "simulate",
        "submit",
        "diff_artifacts",
        "format_report",
    ):
        import repro.api as api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
