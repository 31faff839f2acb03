"""Scenario layer: specs round-trip, clusters run, results are pinned.

Covers the determinism contract (same spec + seed → byte-identical
artifact, serial or parallel), the mixed-NIC incast acceptance
scenario end-to-end through the CLI, and the zero-load parity between
fig12a's live-fabric and analytical replay modes.
"""

import dataclasses
import gc
import json
from pathlib import Path

import pytest

from repro import api
from repro.__main__ import main as cli_main
from repro.driver.registry import NIC_KINDS, make_node
from repro.experiments import fig12a
from repro.faults import FaultSpec, LinkFaultSpec
from repro.nic.descriptor import RingFullError
from repro.params import DEFAULT, apply_overrides
from repro.scenario import (
    FabricSpec,
    NodeSpec,
    SCENARIO_SCHEMA,
    ScenarioSpec,
    TrafficSpec,
    build_scenario,
    plan_traffic,
)
from repro.scenario.builder import dump_artifact
from repro.runtime import SweepConfig
from repro.scenario.runner import submit_scenarios
from repro.sim import Simulator
from repro.workloads.traces import ClusterKind

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
SUMMARY_KEYS = {"count", "mean", "min", "p50", "p99", "p999", "max"}


def mixed_incast_spec(queue_depth=8, packets=15, size_bytes=1024,
                      mean_interarrival_ns=4000.0):
    """Half dNIC / half NetDIMM senders converging on one receiver."""
    nodes = (
        NodeSpec(name="recv", nic_kind="netdimm"),
        NodeSpec(name="d0", nic_kind="dnic"),
        NodeSpec(name="d1", nic_kind="dnic"),
        NodeSpec(name="n0", nic_kind="netdimm"),
        NodeSpec(name="n1", nic_kind="netdimm"),
    )
    return ScenarioSpec(
        name="test-incast",
        seed=11,
        nodes=nodes,
        fabric=FabricSpec(kind="clos", hosts_per_rack=5,
                          queue_depth=queue_depth),
        traffic=(
            TrafficSpec(kind="incast", dst="recv", packets=packets,
                        size_bytes=size_bytes,
                        mean_interarrival_ns=mean_interarrival_ns,
                        label="incast"),
        ),
    )


class TestRegistry:
    def test_every_kind_builds(self):
        for kind in NIC_KINDS:
            node = make_node(Simulator(), "node", kind)
            assert node is not None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown NIC kind"):
            make_node(Simulator(), "node", "quantum")


class TestSpec:
    def test_round_trip_preserves_equality(self):
        spec = mixed_incast_spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_save_load(self, tmp_path):
        path = tmp_path / "spec.json"
        spec = mixed_incast_spec()
        spec.save(path)
        assert ScenarioSpec.load(path) == spec

    def test_unknown_field_rejected(self):
        document = mixed_incast_spec().to_dict()
        document["turbo"] = True
        with pytest.raises(ValueError, match="turbo"):
            ScenarioSpec.from_dict(document)

    def test_unknown_nic_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown NIC kind"):
            NodeSpec(name="x", nic_kind="quantum")

    def test_traffic_endpoints_must_be_nodes(self):
        with pytest.raises(ValueError, match="unknown node"):
            ScenarioSpec(
                name="bad",
                nodes=(NodeSpec(name="a"), NodeSpec(name="b")),
                fabric=FabricSpec(kind="direct"),
                traffic=(TrafficSpec(kind="oneway", src=("a",), dst="ghost"),),
            )


class TestOverrides:
    def test_nested_override_applies(self):
        params = apply_overrides(
            DEFAULT, {"software": {"rx_notification": "interrupt"}}
        )
        assert params.software.rx_notification == "interrupt"
        assert DEFAULT.software.rx_notification == "polling"

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown SystemParams field"):
            apply_overrides(DEFAULT, {"warp_drive": {}})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown software parameter"):
            apply_overrides(DEFAULT, {"software": {"telepathy": 1}})

    def test_bad_rx_notification_rejected_at_construction(self):
        with pytest.raises(ValueError, match="rx_notification"):
            apply_overrides(DEFAULT, {"software": {"rx_notification": "psychic"}})


class TestTrafficPlan:
    def test_plan_is_deterministic(self):
        spec = mixed_incast_spec()
        assert plan_traffic(spec) == plan_traffic(spec)

    def test_plan_sorted_by_arrival(self):
        plan = plan_traffic(mixed_incast_spec())
        arrivals = [flow.arrival for flow in plan]
        assert arrivals == sorted(arrivals)

    def test_incast_defaults_sources_to_all_other_nodes(self):
        plan = plan_traffic(mixed_incast_spec(packets=4))
        assert {flow.src for flow in plan} == {"d0", "d1", "n0", "n1"}
        assert {flow.dst for flow in plan} == {"recv"}


class TestScenarioRun:
    def test_mixed_incast_delivers_everything(self):
        result = api.simulate(mixed_incast_spec())
        assert result.packets_delivered == 4 * 15
        for stats in result.pairs.values():
            assert set(stats) == SUMMARY_KEYS
        dnic = result.pairs["incast/d0->recv"]["mean"]
        netdimm = result.pairs["incast/n0->recv"]["mean"]
        assert netdimm < dnic

    def test_rebuild_is_byte_identical(self):
        spec = mixed_incast_spec()
        first = api.simulate(spec).to_dict()
        second = api.simulate(ScenarioSpec.from_dict(spec.to_dict())).to_dict()
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_shallow_queue_backpressures(self):
        calm = api.simulate(
            mixed_incast_spec(queue_depth=16, size_bytes=1514,
                              mean_interarrival_ns=500.0)
        )
        squeezed = api.simulate(
            mixed_incast_spec(queue_depth=1, size_bytes=1514,
                              mean_interarrival_ns=500.0)
        )
        assert squeezed.packets_delivered == calm.packets_delivered
        assert squeezed.fabric["egress_stalls"] > calm.fabric["egress_stalls"]
        assert squeezed.flows["incast"]["p99"] >= calm.flows["incast"]["p99"]

    def test_direct_fabric_needs_two_nodes(self):
        spec = ScenarioSpec(
            name="bad",
            nodes=(NodeSpec(name="a"), NodeSpec(name="b"), NodeSpec(name="c")),
            fabric=FabricSpec(kind="direct"),
            traffic=(TrafficSpec(kind="oneway", src=("a",), dst="b"),),
        )
        with pytest.raises(ValueError, match="exactly 2 nodes"):
            build_scenario(spec)

    @pytest.mark.parametrize(
        "name", ["dc0/c0/r0/tor", "dc0/spine0", "dc0/edge", "dc0/c0/r0/h8"]
    )
    def test_node_binding_to_a_non_host_refused_at_build(self, name):
        document = json.loads((EXAMPLES_DIR / "incast_mixed.json").read_text())
        document["nodes"][0]["host"] = name
        with pytest.raises(ValueError, match=f"binds to unknown host {name!r}"):
            build_scenario(ScenarioSpec.from_dict(document))


FIVE_PERCENT_DROPS = FaultSpec(links=(LinkFaultSpec(drop_probability=0.05),))


class TestScenarioFreesByRefcount:
    """A run leaves no cyclic garbage, and a dropped scenario frees by
    reference count: nothing waits for the cyclic GC between seeds."""

    @pytest.mark.parametrize("faults", [None, FIVE_PERCENT_DROPS],
                             ids=["plain", "drop5"])
    @pytest.mark.parametrize("path", sorted(EXAMPLES_DIR.glob("*.json")),
                             ids=lambda path: path.stem)
    def test_run_creates_no_cyclic_garbage(self, no_gc, path, faults):
        spec = api.load_spec(path)
        if faults is not None:
            spec = dataclasses.replace(spec, faults=faults)
        scenario = build_scenario(spec)
        gc.collect()
        result = scenario.run()
        assert gc.collect() == 0
        if faults is not None and result.packets_delivered:
            assert sum(group["drops"] for group in result.recovery.values()) > 0

    def test_dropped_clos1000_leaves_little_for_the_gc(self, no_gc):
        scenario = build_scenario(api.load_spec(EXAMPLES_DIR / "clos1000_hybrid.json"))
        scenario.run()
        gc.collect()
        del scenario
        # Pooled futures hold their simulator's token, not the simulator,
        # and an idle DRAM controller holds no scheduler: nothing is left.
        assert gc.collect() == 0


def ring_full_spec(faults=None):
    """400 back-to-back 1514 B frames per sender into one dNIC: the
    receiver's 256-entry RX ring overflows."""
    return ScenarioSpec(
        name="ring-full",
        seed=1,
        nodes=tuple(NodeSpec(name=f"h{index}", nic_kind="dnic") for index in range(4)),
        fabric=FabricSpec(kind="clos", hosts_per_rack=4, queue_depth=8),
        traffic=(
            TrafficSpec(kind="incast", dst="h0", packets=400, size_bytes=1514,
                        mean_interarrival_ns=1.0),
        ),
        faults=faults,
    )


class TestFlowModelErrors:
    """A model error inside a measured flow ends the run with that
    error, not with the kernel's "event queue drained" complaint."""

    @pytest.mark.parametrize("faults", [None, FaultSpec()],
                             ids=["plain", "reliable"])
    def test_run_raises_the_flow_error(self, faults):
        with pytest.raises(RingFullError):
            build_scenario(ring_full_spec(faults)).run()

    def test_shard_failure_names_the_flow_error(self):
        job = submit_scenarios([ring_full_spec()]).run()
        [failure] = job.failures()
        assert failure.exception_type == "RingFullError"


class TestRunnerAndCli:
    def _write_specs(self, tmp_path):
        paths = []
        for index, size in enumerate((256, 1024)):
            spec = ScenarioSpec(
                name=f"pair-{size}",
                seed=5 + index,
                nodes=(NodeSpec(name="tx", nic_kind="dnic"),
                       NodeSpec(name="rx", nic_kind="netdimm")),
                fabric=FabricSpec(kind="direct"),
                traffic=(TrafficSpec(kind="oneway", src=("tx",), dst="rx",
                                     packets=8, size_bytes=size),),
            )
            path = tmp_path / f"spec{index}.json"
            spec.save(path)
            paths.append(str(path))
        return paths

    def test_serial_and_parallel_artifacts_identical(self, tmp_path):
        paths = self._write_specs(tmp_path)
        serial = submit_scenarios(paths).result()
        parallel = submit_scenarios(
            paths, config=SweepConfig(backend="pool", jobs=2)
        ).result()
        assert dump_artifact(serial) == dump_artifact(parallel)

    def test_cli_mixed_incast_end_to_end(self, tmp_path, capsys):
        artifact_path = tmp_path / "artifact.json"
        exit_code = cli_main([
            "run-scenario", str(EXAMPLES_DIR / "incast_mixed.json"),
            "--json", str(artifact_path),
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "scenario incast-mixed" in out
        document = json.loads(artifact_path.read_text())
        assert document["schema"] == SCENARIO_SCHEMA
        assert document["schema_version"] == 4
        entry = document["scenarios"]["incast-mixed"]
        assert entry["spec"]["fabric"]["kind"] == "clos"
        pairs = entry["result"]["pairs"]
        assert "incast/dnic0->recv" in pairs and "incast/nd0->recv" in pairs
        for stats in pairs.values():
            assert set(stats) == SUMMARY_KEYS

    def test_cli_rejects_duplicate_names(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        mixed_incast_spec().save(path)
        exit_code = cli_main(["run-scenario", str(path), str(path)])
        assert exit_code == 2
        assert "duplicate scenario name" in capsys.readouterr().err

    def test_sweep_rejects_duplicate_names_before_running(
        self, tmp_path, capsys
    ):
        path = tmp_path / "spec.json"
        mixed_incast_spec().save(path)
        artifact_path = tmp_path / "sweep.json"
        exit_code = cli_main(
            ["sweep", str(path), str(path), "--json", str(artifact_path)]
        )
        assert exit_code == 2
        assert "duplicate scenario name" in capsys.readouterr().err
        assert not artifact_path.exists()

    def test_cli_rejects_missing_file(self, tmp_path, capsys):
        exit_code = cli_main(["run-scenario", str(tmp_path / "ghost.json")])
        assert exit_code == 2


def hybrid_parity_spec(bg_fidelity, bg_dst="sink", bg_mean=1e6):
    """16 hosts: a packet-level fg stream beside a 13-way background
    incast whose fidelity (and aim point) the hybrid tests vary."""
    nodes = [
        NodeSpec(name="ptx", nic_kind="netdimm"),
        NodeSpec(name="prx", nic_kind="netdimm"),
        NodeSpec(name="sink", nic_kind="dnic"),
    ]
    nodes += [NodeSpec(name=f"b{i}", nic_kind="dnic") for i in range(13)]
    return ScenarioSpec(
        name=f"parity-{bg_fidelity}",
        seed=7,
        nodes=tuple(nodes),
        fabric=FabricSpec(
            kind="clos", racks_per_cluster=2, hosts_per_rack=8, queue_depth=16
        ),
        traffic=(
            TrafficSpec(kind="oneway", packets=24, size_bytes=512,
                        mean_interarrival_ns=1500.0, src=("ptx",), dst="prx",
                        label="fg"),
            TrafficSpec(kind="incast", packets=5, size_bytes=1514,
                        mean_interarrival_ns=bg_mean,
                        src=tuple(f"b{i}" for i in range(13)), dst=bg_dst,
                        label="bg", role="background", fidelity=bg_fidelity),
        ),
    )


class TestHybridFidelity:
    """The flow-level fast path: parity where load is absent, coupling
    where it isn't, and strict spec validation around the new knobs."""

    # The zero-interference foreground summary, pinned: the background
    # incast converges on "sink" whose links the fg path never crosses,
    # so the packet-fidelity and flow-fidelity runs must both land on
    # exactly these bytes.
    FG_GOLDEN = {
        "count": 24, "mean": 1.5896375, "min": 1.58054,
        "p50": 1.59267, "p99": 1.59267, "p999": 1.59267, "max": 1.59267,
    }

    def test_zero_load_parity_is_byte_identical(self):
        packet = api.simulate(hybrid_parity_spec("packet"))
        flow = api.simulate(hybrid_parity_spec("flow"))
        assert packet.flows["fg"] == self.FG_GOLDEN
        assert flow.flows["fg"] == self.FG_GOLDEN
        assert json.dumps(packet.flows["fg"], sort_keys=True) == json.dumps(
            flow.flows["fg"], sort_keys=True
        )

    def test_loaded_background_shifts_foreground_tail(self):
        """Aim the flow-level incast at the fg receiver: its last-hop
        link carries ~0.5 utilization, and the analytical queue wait
        must surface in the packet-level fg tail."""
        loaded = api.simulate(
            hybrid_parity_spec("flow", bg_dst="prx", bg_mean=8000.0)
        )
        assert loaded.flows["fg"]["p99"] > self.FG_GOLDEN["p99"]
        assert loaded.flow_traffic["bg"]["peak_utilization"] == pytest.approx(
            0.5, abs=0.05
        )

    def test_flow_summary_round_trips_in_artifact(self):
        result = api.simulate(hybrid_parity_spec("flow"))
        summary = result.flow_traffic["bg"]
        assert summary["demands"] == 13
        assert summary["offered_packets"] == 13 * 5
        assert summary["offered_bytes"] == 13 * 5 * 1514
        assert summary["peak_utilization"] > 0.0
        document = json.loads(json.dumps(result.to_dict(), sort_keys=True))
        assert document["flow_traffic"]["bg"] == summary
        # Pure packet scenarios keep an empty (but present) section.
        assert api.simulate(hybrid_parity_spec("packet")).to_dict()[
            "flow_traffic"
        ] == {}

    def test_flow_only_nodes_skip_model_construction(self):
        scenario = build_scenario(hybrid_parity_spec("flow"))
        assert set(scenario.nodes) == {"ptx", "prx"}
        # Placement still covers every declared node: demands need hosts.
        assert len(scenario.placement) == 16
        all_packet = build_scenario(hybrid_parity_spec("packet"))
        assert len(all_packet.nodes) == 16

    def test_flow_fidelity_needs_clos_fabric(self):
        with pytest.raises(ValueError, match="needs a clos fabric"):
            ScenarioSpec(
                name="bad",
                nodes=(NodeSpec(name="a"), NodeSpec(name="b")),
                fabric=FabricSpec(kind="direct"),
                traffic=(TrafficSpec(kind="oneway", src=("a",), dst="b",
                                     fidelity="flow"),),
            )

    def test_trace_traffic_cannot_be_flow_fidelity(self):
        with pytest.raises(ValueError, match="trace traffic cannot"):
            TrafficSpec(kind="trace", cluster="webserver", fidelity="flow")

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError, match="unknown traffic fidelity"):
            TrafficSpec(fidelity="quantum")

    def test_flow_update_interval_must_be_positive(self):
        with pytest.raises(ValueError, match="flow_update_interval_ns"):
            ScenarioSpec(
                name="bad",
                nodes=(NodeSpec(name="a"), NodeSpec(name="b")),
                fabric=FabricSpec(kind="direct"),
                traffic=(TrafficSpec(kind="oneway", src=("a",), dst="b"),),
                flow_update_interval_ns=0.0,
            )


class TestStrictNestedValidation:
    """Typos anywhere in a spec document fail at parse time — including
    inside nested traffic entries and node override blocks."""

    def test_traffic_typo_key_rejected(self):
        document = mixed_incast_spec().to_dict()
        document["traffic"][0]["fidelityy"] = "flow"
        with pytest.raises(ValueError, match="unknown TrafficSpec field.*fidelityy"):
            ScenarioSpec.from_dict(document)

    def test_node_typo_key_rejected(self):
        document = mixed_incast_spec().to_dict()
        document["nodes"][0]["nic_kindd"] = "dnic"
        with pytest.raises(ValueError, match="unknown NodeSpec field.*nic_kindd"):
            ScenarioSpec.from_dict(document)

    def test_override_typo_section_rejected_at_parse(self):
        with pytest.raises(ValueError, match="unknown SystemParams field"):
            NodeSpec(name="x", overrides={"warp_drive": {"speed": 9}})

    def test_override_typo_field_rejected_at_parse(self):
        document = mixed_incast_spec().to_dict()
        document["nodes"][0]["overrides"] = {"software": {"telepathy": 1}}
        with pytest.raises(ValueError, match="unknown software parameter"):
            ScenarioSpec.from_dict(document)

    def test_valid_override_still_parses(self):
        document = mixed_incast_spec().to_dict()
        document["nodes"][0]["overrides"] = {
            "software": {"rx_notification": "interrupt"}
        }
        spec = ScenarioSpec.from_dict(document)
        assert spec.nodes[0].overrides["software"]["rx_notification"] == (
            "interrupt"
        )


class TestFig12aParity:
    """At zero load, the live fabric reproduces the analytical model."""

    KWARGS = dict(
        packets_per_cluster=120,
        switch_latencies_ns=(25,),
        seed=2019,
        mean_interarrival_ns=300_000.0,
    )

    def test_fabric_matches_analytical_at_zero_load(self):
        analytical = fig12a.run(
            packets_per_cluster=self.KWARGS["packets_per_cluster"],
            switch_latencies_ns=self.KWARGS["switch_latencies_ns"],
            seed=self.KWARGS["seed"],
        )
        fabric = fig12a.run(mode="fabric", **self.KWARGS)
        for cluster in ClusterKind:
            for config in fig12a.CONFIGS:
                key = (cluster, config, 25)
                expected = analytical.mean_latency[key]
                actual = fabric.mean_latency[key]
                assert actual == pytest.approx(expected, rel=0.05), key
        improvement_gap = abs(
            fabric.average_improvement("dnic", 25)
            - analytical.average_improvement("dnic", 25)
        )
        assert improvement_gap < 0.02

    def test_hybrid_mode_prices_background_load_on_top(self):
        """mode="hybrid" is mode="fabric" plus flow-level background:
        every cell's mean latency moves up (the analytical queue wait),
        and only modestly (20% offered load, spread over ECMP)."""
        kwargs = dict(self.KWARGS, packets_per_cluster=40)
        fabric = fig12a.run(mode="fabric", **kwargs)
        hybrid = fig12a.run(mode="hybrid", **kwargs)
        for cluster in ClusterKind:
            for config in fig12a.CONFIGS:
                key = (cluster, config, 25)
                assert hybrid.mean_latency[key] > fabric.mean_latency[key], key
                assert hybrid.mean_latency[key] < 1.05 * fabric.mean_latency[key], key
