"""Regenerate the determinism goldens in ``tests/data/``.

Only run this after an *intentional* event-order or span change: the
goldens pin the kernel's ``(time, seq, owner)`` execution order and the
span tracer's Chrome-trace export, and rewriting them silently would
defeat the determinism tests in ``tests/test_sim_determinism.py`` and
``tests/test_telemetry.py``.  Every golden is a pure function of the
source, so a clean checkout reproduces ``tests/data/`` byte for byte.

Seven artifacts are produced:

* ``golden_event_order.json`` — the traced event stream of the mixed
  kernel workload, recorded through ``Simulator(trace=...)``.
* ``golden_cluster_streams.json`` — the sha256 of the traced event
  stream of a seeded four-node incast cluster, plus its delivery
  summary, per seed.
* ``golden_host_nic_streams.json`` — the sha256 and summary of the
  traced event streams of the dNIC and iNIC kinds (plain and
  zero-copy): the four-node incast at two seeds, and a same-tick RX/TX
  burst on one node.
* ``golden_sweep_results.json`` — the sha256 of the ``fig11``,
  ``fig12a`` and ``loaded_latency`` experiment artifact entries.
* ``golden_dram_stream.json`` — the sha256 and event count of the
  traced memory-controller stream of a short fig5 cell, traced from
  simulator birth so the workload processes appear under their own
  names, plus the sha256 of its stats reports (``stats_sha256``).
* ``golden_trace_netdimm_oneway.json`` — the byte-exact Chrome-trace
  export of the two-node NetDIMM oneway scenario (256 B).
* ``fig5_baseline.json`` — the fig5 experiment artifact (takes a few
  seconds; skip with ``--no-fig5`` when only the kernel golden moved).

Usage::

    PYTHONPATH=src python scripts/record_golden_events.py [--no-fig5]
"""

import argparse
import hashlib
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

DATA_DIR = REPO_ROOT / "tests" / "data"


def record_golden_event_order() -> pathlib.Path:
    from tests.test_sim_determinism import record_stream

    events, final_now, fired = record_stream()
    document = {
        "schema": "netdimm-repro/golden-event-order",
        "schema_version": 1,
        "kernel": "ring + single-hop resume kernel",
        "final_now": final_now,
        "events_fired": fired,
        "events": events,
    }
    out = DATA_DIR / "golden_event_order.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=None) + "\n")
    print(f"wrote {len(events)} events, final_now={final_now} -> {out}")
    return out


def record_golden_cluster_streams() -> pathlib.Path:
    from tests.test_sim_determinism import CLUSTER_SEEDS, scenario_stream

    seeds = {}
    for seed in CLUSTER_SEEDS:
        stream, summary = scenario_stream(seed)
        seeds[str(seed)] = {
            "sha256": hashlib.sha256(stream).hexdigest(),
            "summary": summary,
        }
    document = {
        "schema": "netdimm-repro/golden-cluster-streams",
        "schema_version": 1,
        "seeds": seeds,
    }
    out = DATA_DIR / "golden_cluster_streams.json"
    out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(seeds)} cluster stream digests -> {out}")
    return out


def record_golden_host_nic_streams() -> pathlib.Path:
    from tests.test_sim_determinism import (
        HOST_NIC_KINDS,
        HOST_NIC_SEEDS,
        host_nic_burst_stream,
        host_nic_incast_stream,
    )

    runs = {}
    for nic_kind in HOST_NIC_KINDS:
        for seed in HOST_NIC_SEEDS:
            runs[f"{nic_kind}/incast-{seed}"] = host_nic_incast_stream(nic_kind, seed)
        runs[f"{nic_kind}/burst"] = host_nic_burst_stream(nic_kind)
    document = {
        "schema": "netdimm-repro/golden-host-nic-streams",
        "schema_version": 1,
        "runs": {
            name: {"sha256": hashlib.sha256(stream).hexdigest(), "summary": summary}
            for name, (stream, summary) in runs.items()
        },
    }
    out = DATA_DIR / "golden_host_nic_streams.json"
    out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(runs)} host-NIC stream digests -> {out}")
    return out


def record_golden_sweep_results() -> pathlib.Path:
    from tests.test_sim_determinism import sweep_digests

    document = {
        "schema": "netdimm-repro/golden-sweep-results",
        "schema_version": 1,
        "experiments": sweep_digests(),
    }
    out = DATA_DIR / "golden_sweep_results.json"
    out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(document['experiments'])} sweep result digests -> {out}")
    return out


def record_golden_dram_stream() -> pathlib.Path:
    from tests.test_sim_determinism import DRAM_STREAMS

    streams = {}
    for name, stream_fn in sorted(DRAM_STREAMS.items()):
        stream, fired, stats_sha256 = stream_fn()
        streams[name] = {
            "sha256": hashlib.sha256(stream).hexdigest(),
            "events_fired": fired,
            "stats_sha256": stats_sha256,
        }
    document = {
        "schema": "netdimm-repro/golden-dram-stream",
        "schema_version": 1,
        "streams": streams,
    }
    out = DATA_DIR / "golden_dram_stream.json"
    out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(streams)} DRAM stream digests -> {out}")
    return out


def record_golden_trace() -> pathlib.Path:
    from repro import api

    spec = api.ScenarioSpec.two_node("netdimm", 256)
    _result, document = api.trace_scenario(spec)
    out = DATA_DIR / "golden_trace_netdimm_oneway.json"
    out.write_text(api.dump_trace(document), encoding="utf-8")
    print(f"wrote {len(document['traceEvents'])} trace events -> {out}")
    return out


def record_fig5_baseline() -> pathlib.Path:
    from repro.experiments import harness

    out = DATA_DIR / "fig5_baseline.json"
    harness.submit_experiments(["fig5"]).artifact(str(out))
    print(f"wrote fig5 artifact (+ .manifest.json sidecar) -> {out}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--no-fig5",
        action="store_true",
        help="skip the (slow) fig5 baseline regeneration",
    )
    args = parser.parse_args(argv)
    record_golden_event_order()
    record_golden_cluster_streams()
    record_golden_host_nic_streams()
    record_golden_sweep_results()
    record_golden_dram_stream()
    record_golden_trace()
    if not args.no_fig5:
        record_fig5_baseline()
    return 0


if __name__ == "__main__":
    sys.exit(main())
