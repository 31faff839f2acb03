"""Fast self-tests of the end-to-end benchmark; no workload is run.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import cProfile
import json
import os
import re
import time

import pytest

from benchmarks.e2e import layers, report
from benchmarks.e2e.metrics import (
    END_TO_END,
    EXPERIMENTS,
    LAYERS,
    OUTPUTS,
    ROOT,
    load_declaration,
    per_layer_names,
    summarize,
    verdict,
)
from benchmarks.e2e.runner import PINS
from benchmarks.e2e.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def declaration():
    return load_declaration()


def test_every_name_is_well_formed(declaration):
    names = (
        list(declaration["end_to_end"])
        + list(declaration["per_layer"])
        + [entry["name"] for entry in declaration["workloads"]]
        + list(OUTPUTS)
    )
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_emitted_names_equal_declared_names(declaration):
    assert list(declaration["end_to_end"]) == list(END_TO_END)
    assert list(declaration["per_layer"]) == per_layer_names()
    assert [entry["name"] for entry in declaration["workloads"]] == list(WORKLOADS)


def test_declaration_follows_the_benchmark_contract(declaration):
    setup = declaration["end_to_end"]["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    bounds = [entry["bound"] for entry in declaration["end_to_end"].values()]
    assert all(0 < bound <= 0.25 for bound in bounds)
    assert setup["bound"] == max(bounds)
    assert declaration["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(declaration["workloads"]) <= 8
    for section in ("end_to_end", "per_layer"):
        for entry in declaration[section].values():
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"])
            assert entry["better"] in ("lower", "higher")


def test_experiment_names_follow_the_registry():
    from repro.experiments.runner import EXPERIMENTS as REGISTRY

    assert EXPERIMENTS == tuple(REGISTRY)


def test_pins_cover_every_workload_at_both_seeds():
    with open(PINS, encoding="utf-8") as handle:
        pins = json.load(handle)
    assert sorted(pins) == ["2019", "2020"]
    for seed_pins in pins.values():
        assert sorted(seed_pins) == sorted(WORKLOADS)
        for pin in seed_pins.values():
            assert re.fullmatch(r"[0-9a-f]{64}", pin["sha256"])
            assert set(pin["outputs"]) <= set(OUTPUTS)
            assert pin["outputs"]["failed_frac"] == 0.0
    suite = pins["2019"]["suite_pool"]["outputs"]
    assert suite["targets_in_band"] == 24


def test_summarize_uses_statistics_quartiles():
    stats = summarize([5.0, 1.0, 4.0, 2.0, 3.0])
    assert (stats["median"], stats["q1"], stats["q3"], stats["n"]) == (3.0, 1.5, 4.5, 5)
    single = summarize([2.5])
    assert (single["median"], single["q1"], single["q3"], single["n"]) == (2.5, 2.5, 2.5, 1)


STEADY = [10.0, 10.1, 9.9, 10.0, 10.05]


@pytest.mark.parametrize(
    "after, better, expected",
    [
        ([10.2, 10.1, 10.3, 10.2, 10.25], "lower", "unchanged"),
        ([12.0, 12.1, 11.9, 12.0, 12.05], "lower", "worse"),
        ([8.0, 8.1, 7.9, 8.0, 8.05], "lower", "better"),
        ([12.0, 12.1, 11.9, 12.0, 12.05], "higher", "better"),
        ([8.0, 8.1, 7.9, 8.0, 8.05], "higher", "worse"),
        # Spread far wider than the bound and the sides overlap.
        ([6.0, 14.0, 9.0, 16.0, 11.0], "lower", "unresolved"),
    ],
)
def test_verdicts_on_fixed_numbers(after, better, expected):
    assert verdict(STEADY, after, 0.10, better) == expected


def test_wide_spread_resolves_when_one_side_beats_every_run():
    noisy = [10.0, 14.0, 18.0, 12.0, 16.0]
    assert verdict(noisy, [5.0, 6.0, 7.0, 8.0, 9.0], 0.10) == "better"
    assert verdict(noisy, [30.0, 40.0, 35.0, 50.0, 45.0], 0.10) == "worse"
    # Overlapping runs stay unresolved even though the medians moved.
    assert verdict(noisy, [9.0, 20.0, 11.0, 25.0, 13.0], 0.10) == "unresolved"


def _document(status="ok", scale=1.0):
    entry = {"status": status}
    if status == "ok":
        entry["metrics"] = {
            metric: summarize([value * scale for value in STEADY])
            for metric in END_TO_END
        }
    return {"workloads": {"clos1000_hybrid": entry}}


def test_compare_reports_each_metric_and_flags_worse(declaration):
    rows, worse = report.compare(_document(), _document(), declaration)
    assert [row["metric"] for row in rows] == list(END_TO_END)
    assert {row["verdict"] for row in rows} == {"unchanged"}
    assert not worse
    rows, worse = report.compare(_document(), _document(scale=1.5), declaration)
    assert {row["verdict"] for row in rows} == {"worse"} and worse
    rows, worse = report.compare(_document(), _document("failed"), declaration)
    assert {row["verdict"] for row in rows} == {"worse"} and worse
    rows, worse = report.compare(_document("skipped"), _document(), declaration)
    assert {row["verdict"] for row in rows} == {"unresolved"} and not worse


PACKAGE = os.path.join(str(ROOT), "src", "repro")


def test_layer_of_maps_packages_top_modules_and_foreign_code():
    assert layers.layer_of(os.path.join(PACKAGE, "sim", "engine.py"), PACKAGE) == "sim"
    assert layers.layer_of(os.path.join(PACKAGE, "api.py"), PACKAGE) == "repro"
    assert layers.layer_of("/usr/lib/python3/json/decoder.py", PACKAGE) is None
    assert layers.layer_of("~", PACKAGE) is None


def test_foreign_time_climbs_caller_edges_through_cycles():
    net = (os.path.join(PACKAGE, "net", "fabric.py"), 1, "route_paths")
    sim = (os.path.join(PACKAGE, "sim", "engine.py"), 1, "run")
    helper = ("/site-packages/networkx/algo.py", 1, "helper")
    inner = ("/site-packages/networkx/algo.py", 9, "inner")
    orphan = ("~", 0, "<built-in method time.sleep>")
    stats = {
        # (cc, nc, tt, ct, callers{caller: (cc, nc, tt, ct)})
        net: (1, 1, 0.5, 4.5, {}),
        sim: (1, 1, 1.0, 2.0, {}),
        helper: (4, 4, 1.0, 4.0, {net: (3, 3, 0.75, 3.0), inner: (1, 1, 0.25, 1.0)}),
        inner: (2, 2, 2.0, 3.0, {helper: (1, 1, 1.0, 2.0), sim: (1, 1, 1.0, 1.0)}),
        orphan: (1, 1, 0.25, 0.25, {}),
    }
    buckets = layers.bucket(stats, PACKAGE)
    total = sum(bucket["self_s"] for bucket in buckets.values())
    assert total == pytest.approx(4.75)
    assert buckets["ext"]["self_s"] == pytest.approx(0.25)
    assert buckets["ext"]["calls"] == 4 + 2 + 1
    # helper's walk: 3/4 to net directly, 1/4 back through inner, whose
    # walk is 2/3 back to helper and 1/3 to sim.  Fixed point:
    # net share of helper h = 3/4 + 1/4 * (2/3) h  ->  h = 0.9
    # net share of inner i = 2/3 * 0.9 = 0.6
    assert buckets["net"]["self_s"] == pytest.approx(0.5 + 1.0 * 0.9 + 2.0 * 0.6)
    assert buckets["sim"]["self_s"] == pytest.approx(1.0 + 1.0 * 0.1 + 2.0 * 0.4)


def test_layer_shares_of_a_small_simulator_run_sum_to_one():
    from repro.sim.engine import Simulator

    sim = Simulator()

    def ticker(count):
        for _ in range(count):
            yield sim.timeout(7)

    for _ in range(200):
        sim.spawn(ticker(100))
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    sim.run()
    profiler.disable()
    wall = time.perf_counter() - start
    profiler.create_stats()
    buckets = layers.bucket(profiler.stats, PACKAGE)
    shares = {layer: buckets[layer]["self_s"] / wall for layer in LAYERS}
    assert sum(shares.values()) == pytest.approx(1.0, abs=0.05)
    assert shares["sim"] > 0.5
    assert buckets["telemetry"]["calls"] == 0
