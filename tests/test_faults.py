"""Fault injection & recovery: specs round-trip, chaos is deterministic.

Pins the chaos contract: seeded fault verdicts are identical in-process
and across worker processes, recovery counters always balance the
traffic plan, budget exhaustion surfaces as loss (never a hang), and a
zero-probability fault model in ``lossy`` switch mode is byte-identical
to ``backpressure`` when queues never fill.
"""

import json
from dataclasses import replace

import pytest

from repro import api
from repro.__main__ import main as cli_main
from repro.faults import (
    FaultInjector,
    FaultSpec,
    LinkFaultSpec,
    LinkKillSpec,
    RecoverySpec,
    StallSpec,
)
from repro.faults.engine import CORRUPT, DROP, OK, stall_delay
from repro.net.packet import Packet
from repro.scenario.builder import build_scenario, dump_artifact
from repro.scenario.spec import FabricSpec, NodeSpec, ScenarioSpec, TrafficSpec
from repro.runtime import SweepConfig
from repro.scenario.runner import build_fault_overlay, parse_kill, submit_scenarios
from repro.sim import Simulator


def chaos_spec(drop=0.1, packets=20, seed=7, **fault_kwargs):
    """A two-node chaos scenario with a short retransmission timeout."""
    base = ScenarioSpec.two_node("netdimm", 1024, packets=packets)
    faults = FaultSpec(
        links=(LinkFaultSpec(link="*", drop_probability=drop),),
        recovery=RecoverySpec(timeout_ns=20_000.0),
        **fault_kwargs,
    )
    return replace(base, name="chaos-twonode", seed=seed, faults=faults)


def incast_spec(queue_depth, faults, packets=15, mean_interarrival_ns=500.0):
    """A clos incast (the shallow-queue shape from test_scenario)."""
    nodes = (
        NodeSpec(name="recv", nic_kind="netdimm"),
        NodeSpec(name="d0", nic_kind="dnic"),
        NodeSpec(name="d1", nic_kind="dnic"),
        NodeSpec(name="n0", nic_kind="netdimm"),
        NodeSpec(name="n1", nic_kind="netdimm"),
    )
    return ScenarioSpec(
        name="chaos-incast",
        seed=11,
        nodes=nodes,
        fabric=FabricSpec(kind="clos", hosts_per_rack=5,
                          queue_depth=queue_depth),
        traffic=(
            TrafficSpec(kind="incast", dst="recv", packets=packets,
                        size_bytes=1514,
                        mean_interarrival_ns=mean_interarrival_ns,
                        label="incast"),
        ),
        faults=faults,
    )


class TestFaultSpec:
    def test_json_round_trip(self):
        spec = FaultSpec(
            links=(LinkFaultSpec(link="tx->*", drop_probability=0.1,
                                 corrupt_probability=0.02),),
            kills=(LinkKillSpec(link="tx->rx", at_ns=100.0, restore_ns=900.0),),
            stalls=(StallSpec(node="rx", at_ns=50.0, duration_ns=25.0),),
            switch_drop_mode="lossy",
            recovery=RecoverySpec(timeout_ns=10_000.0, backoff=1.5,
                                  max_retransmits=3),
        )
        wire = json.loads(json.dumps(spec.to_dict()))
        assert FaultSpec.from_dict(wire) == spec

    def test_round_trips_inside_scenario_spec(self):
        spec = chaos_spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="drop_probability"):
            LinkFaultSpec(drop_probability=1.5)

    def test_unknown_switch_mode_rejected(self):
        with pytest.raises(ValueError, match="switch_drop_mode"):
            FaultSpec(switch_drop_mode="teleport")

    def test_restore_before_kill_rejected(self):
        with pytest.raises(ValueError, match="restore_ns"):
            LinkKillSpec(link="a->b", at_ns=100.0, restore_ns=50.0)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="gremlins"):
            FaultSpec.from_dict({"gremlins": True})

    def test_stall_must_name_known_node(self):
        base = ScenarioSpec.two_node("dnic", 256)
        with pytest.raises(ValueError, match="ghost"):
            replace(
                base,
                faults=FaultSpec(
                    stalls=(StallSpec(node="ghost", duration_ns=10.0),)
                ),
            )


class TestInjector:
    def _packet(self, uid, attempt=0):
        packet = Packet(size_bytes=256, src="tx", dst="rx", uid=uid)
        packet.attempt = attempt
        return packet

    def test_verdicts_are_process_independent(self):
        spec = FaultSpec(links=(LinkFaultSpec(drop_probability=0.5),))
        first = FaultInjector(spec, seed=3)
        second = FaultInjector(spec, seed=3)
        verdicts = [
            first.link_verdict("tx->rx", now=0, packet=self._packet(uid))
            for uid in range(50)
        ]
        # A fresh injector — different object, different call order —
        # produces the identical verdict sequence.
        replay = [
            second.link_verdict("tx->rx", now=99, packet=self._packet(uid))
            for uid in reversed(range(50))
        ]
        assert verdicts == list(reversed(replay))
        assert DROP in verdicts and OK in verdicts

    def test_attempts_are_independent_draws(self):
        spec = FaultSpec(links=(LinkFaultSpec(drop_probability=0.5),))
        injector = FaultInjector(spec, seed=3)
        verdicts = {
            injector.link_verdict("tx->rx", 0, self._packet(0, attempt))
            for attempt in range(40)
        }
        assert verdicts == {OK, DROP}

    def test_warmup_packets_never_faulted(self):
        spec = FaultSpec(
            links=(LinkFaultSpec(drop_probability=1.0),),
            kills=(LinkKillSpec(link="*"),),
        )
        injector = FaultInjector(spec, seed=0)
        assert injector.link_verdict("tx->rx", 0, self._packet(None)) == OK
        assert injector.counters["link_drops"] == 0

    def test_corruption_counted_separately(self):
        spec = FaultSpec(links=(LinkFaultSpec(corrupt_probability=1.0),))
        injector = FaultInjector(spec, seed=0)
        assert injector.link_verdict("tx->rx", 0, self._packet(1)) == CORRUPT
        assert injector.counters == {
            "link_drops": 0, "link_corruptions": 1, "link_killed": 0,
        }

    def test_kill_window_restores(self):
        spec = FaultSpec(
            kills=(LinkKillSpec(link="tx->rx", at_ns=1.0, restore_ns=2.0),)
        )
        injector = FaultInjector(spec, seed=0)
        packet = self._packet(1)
        assert injector.link_verdict("tx->rx", 0, packet) == OK
        assert injector.link_verdict("tx->rx", 1500, packet) == DROP
        assert injector.link_verdict("tx->rx", 2000, packet) == OK
        assert injector.link_verdict("rx->tx", 1500, packet) == OK

    def test_zero_probability_rule_resolves_to_none(self):
        spec = FaultSpec(links=(LinkFaultSpec(drop_probability=0.0),))
        injector = FaultInjector(spec, seed=0)
        for uid in range(200):
            assert injector.link_verdict("tx->rx", 0, self._packet(uid)) == OK
        assert injector.counters["link_drops"] == 0

    def test_stall_delay(self):
        windows = ((100, 200), (400, 450))
        assert stall_delay(windows, 50) == 0
        assert stall_delay(windows, 100) == 100
        assert stall_delay(windows, 199) == 1
        assert stall_delay(windows, 200) == 0
        assert stall_delay(windows, 425) == 25


class TestTimer:
    def test_fires_with_args(self):
        sim = Simulator()
        fired = []
        timer = sim.call_later(100, fired.append, "x")
        sim.run()
        assert fired == ["x"] and timer.fired and not timer.pending

    def test_cancel_before_fire(self):
        sim = Simulator()
        fired = []
        timer = sim.call_later(100, fired.append, "x")
        assert timer.cancel() is True
        assert timer.cancel() is True  # double-cancel is a no-op
        sim.run()
        assert fired == [] and timer.cancelled

    def test_cancel_after_fire_returns_false(self):
        sim = Simulator()
        timer = sim.call_later(100, lambda: None)
        sim.run()
        assert timer.cancel() is False

    def test_cancellation_preserves_event_order(self):
        def trace(cancel_one):
            sim = Simulator()
            order = []
            timers = [
                sim.call_later(delay, order.append, delay)
                for delay in (300, 100, 200)
            ]
            if cancel_one:
                timers[2].cancel()
            sim.run()
            return order, sim.now

        full, full_now = trace(cancel_one=False)
        trimmed, trimmed_now = trace(cancel_one=True)
        assert full == [100, 200, 300]
        assert trimmed == [100, 300]
        assert full_now == trimmed_now  # cancelled entry still pops


class TestRecovery:
    def test_drops_recovered_and_counters_balance(self):
        result = api.simulate(chaos_spec(drop=0.2, packets=30))
        counters = result.recovery["oneway"]
        assert counters["delivered"] + counters["lost"] == 30
        assert counters["drops"] > 0
        assert counters["retransmits"] > 0
        assert counters["timeouts"] >= counters["retransmits"]
        assert result.fabric["link_drops"] == counters["drops"]
        assert result.packets_delivered == counters["delivered"]
        assert result.packets_lost == counters["lost"]

    def test_budget_exhaustion_is_loss_not_hang(self):
        spec = chaos_spec(drop=0.0, packets=6)
        faults = replace(
            spec.faults,
            links=(LinkFaultSpec(link="tx->rx", drop_probability=1.0),),
            recovery=RecoverySpec(timeout_ns=5_000.0, max_retransmits=2),
        )
        result = api.simulate(replace(spec, faults=faults))
        counters = result.recovery["oneway"]
        assert result.packets_delivered == 0
        assert result.packets_lost == 6
        assert counters["delivered"] == 0 and counters["lost"] == 6
        # Every packet burns its initial attempt plus the full budget.
        assert counters["retransmits"] == 6 * 2
        assert counters["timeouts"] == 6 * 3
        assert counters["drops"] == 6 * 3
        assert result.flows == {}  # nothing delivered, nothing summarized

    def test_kill_and_restore_recovers_every_packet(self):
        spec = chaos_spec(drop=0.0, packets=8)
        faults = replace(
            spec.faults,
            kills=(LinkKillSpec(link="tx->rx", at_ns=0.0,
                                restore_ns=30_000.0),),
        )
        result = api.simulate(replace(spec, faults=faults))
        counters = result.recovery["oneway"]
        assert result.packets_delivered == 8
        assert result.packets_lost == 0
        assert counters["retransmits"] > 0

    def test_stall_window_delays_but_delivers(self):
        spec = chaos_spec(drop=0.0, packets=10)
        stalled = replace(
            spec,
            faults=replace(
                spec.faults,
                links=(),
                stalls=(StallSpec(node="tx", at_ns=5_000.0,
                                  duration_ns=50_000.0),),
            ),
        )
        clean = replace(spec, faults=replace(spec.faults, links=()))
        stalled_result = api.simulate(stalled)
        clean_result = api.simulate(clean)
        assert stalled_result.packets_delivered == 10
        assert (
            stalled_result.flows["oneway"]["max"]
            > clean_result.flows["oneway"]["max"]
        )

    def test_lossy_equals_backpressure_when_queues_never_fill(self):
        # 60 packets total can never fill a 64-deep queue, so neither
        # mode stalls or drops and the event streams must coincide.
        calm = FaultSpec(recovery=RecoverySpec(timeout_ns=200_000.0))
        deep_backpressure = api.simulate(
            incast_spec(64, replace(calm, switch_drop_mode="backpressure"))
        )
        deep_lossy = api.simulate(
            incast_spec(64, replace(calm, switch_drop_mode="lossy"))
        )
        assert deep_lossy.fabric["overflow_drops"] == 0
        assert deep_lossy.fabric["egress_stalls"] == 0
        assert deep_lossy.to_dict() == deep_backpressure.to_dict()

    def test_lossy_overflow_drops_and_recovers(self):
        faults = FaultSpec(
            switch_drop_mode="lossy",
            recovery=RecoverySpec(timeout_ns=50_000.0, max_retransmits=8),
        )
        result = api.simulate(incast_spec(1, faults))
        counters = result.recovery["incast"]
        assert result.fabric["overflow_drops"] > 0
        assert counters["delivered"] + counters["lost"] == 4 * 15
        assert counters["drops"] == result.fabric["overflow_drops"]


class TestChaosDeterminism:
    def _write_specs(self, tmp_path):
        paths = []
        for index, seed in enumerate((7, 8)):
            spec = replace(chaos_spec(seed=seed), name=f"chaos-{seed}")
            path = tmp_path / f"chaos{index}.json"
            spec.save(path)
            paths.append(str(path))
        return paths

    def test_serial_and_parallel_chaos_artifacts_identical(self, tmp_path):
        paths = self._write_specs(tmp_path)
        serial = submit_scenarios(paths, chaos=True).result()
        parallel = submit_scenarios(
            paths, config=SweepConfig(backend="pool", jobs=2), chaos=True
        ).result()
        assert dump_artifact(serial) == dump_artifact(parallel)
        result = serial["scenarios"]["chaos-7"]["result"]
        assert result["recovery"]["oneway"]["drops"] > 0

    def test_rerun_is_byte_identical(self):
        spec = chaos_spec(drop=0.15, packets=25)
        first = api.simulate(spec).to_dict()
        second = api.simulate(ScenarioSpec.from_dict(spec.to_dict())).to_dict()
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_overlay_replaces_spec_faults(self, tmp_path):
        path = tmp_path / "spec.json"
        chaos_spec(drop=0.0).save(path)
        overlay = build_fault_overlay(drop=1.0, budget=0, timeout_ns=5_000.0)
        document = submit_scenarios(
            [str(path)], chaos=True, faults=overlay
        ).result()
        result = document["scenarios"]["chaos-twonode"]["result"]
        assert result["packets_delivered"] == 0


class TestChaosCli:
    def test_parse_kill(self):
        assert parse_kill("tx->rx@100") == LinkKillSpec(
            link="tx->rx", at_ns=100.0
        )
        assert parse_kill("a@b->c@100..900") == LinkKillSpec(
            link="a@b->c", at_ns=100.0, restore_ns=900.0
        )
        with pytest.raises(ValueError, match="--kill"):
            parse_kill("no-at-sign")

    def test_run_chaos_end_to_end(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        chaos_spec(drop=0.0).save(spec_path)
        artifact_path = tmp_path / "artifact.json"
        exit_code = cli_main([
            "run-chaos", str(spec_path),
            "--drop", "0.2", "--timeout-ns", "20000",
            "--json", str(artifact_path),
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "faults:" in out
        document = json.loads(artifact_path.read_text())
        assert document["schema_version"] == 4
        result = document["scenarios"]["chaos-twonode"]["result"]
        counters = result["recovery"]["oneway"]
        assert counters["delivered"] + counters["lost"] == 20

    @pytest.mark.parametrize(
        "flags, timeout_ns",
        [
            (["--timeout-ns", "50000"], 50_000.0),
            (["--drop", "0"], 50_000.0),
            (["--timeout-ns", "50001"], 50_001.0),
        ],
    )
    def test_fault_flag_at_its_default_overrides_spec_faults(
        self, tmp_path, capsys, flags, timeout_ns
    ):
        """Any fault flag given replaces the spec's own faults section,
        even at its default value; the flags left unset take the
        FaultSpec defaults."""
        spec_path = tmp_path / "spec.json"
        chaos_spec(drop=0.2).save(spec_path)  # own faults: timeout 20000
        artifact_path = tmp_path / "artifact.json"
        exit_code = cli_main(
            ["run-chaos", str(spec_path), *flags, "--json", str(artifact_path)]
        )
        assert exit_code == 0
        document = json.loads(artifact_path.read_text())
        faults = document["scenarios"]["chaos-twonode"]["spec"]["faults"]
        assert faults["links"] == []
        assert faults["recovery"] == {
            "timeout_ns": timeout_ns, "backoff": 2.0, "max_retransmits": 5
        }

    def test_flagless_run_chaos_arms_recovery(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        base = replace(chaos_spec(), faults=None)
        base.save(spec_path)
        assert cli_main(["run-chaos", str(spec_path)]) == 0
        assert "faults: 0 drops" in capsys.readouterr().out


class TestZeroFaultParity:
    """``faults=None`` must bypass the fault machinery entirely."""

    def test_no_faultspec_report_has_no_faults_line(self, capsys):
        spec = replace(chaos_spec(), faults=None)
        result = api.simulate(spec)
        assert result.recovery == {}
        assert "faults:" not in api.format_report(result)

    def test_zero_probability_chaos_delivers_identical_latencies(self):
        spec = chaos_spec(drop=0.0, packets=12)
        chaos = api.simulate(spec)
        plain = api.simulate(replace(spec, faults=None))
        # The recovery path adds timer events but must not change any
        # packet's latency when nothing actually faults.
        assert chaos.flows["oneway"] == plain.flows["oneway"]
        assert chaos.recovery["oneway"]["retransmits"] == 0
        assert chaos.recovery["oneway"]["delivered"] == 12
