"""The ``python -m repro`` command-line interface."""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.__main__ import main
from repro.experiments.runner import EXPERIMENTS
from repro.workloads.trace_io import load_trace


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_blurbs_cover_registry(self):
        for module in EXPERIMENTS.values():
            assert isinstance(module.SUMMARY, str) and module.SUMMARY


class TestOneway:
    def test_default_netdimm(self, capsys):
        assert main(["oneway"]) == 0
        out = capsys.readouterr().out
        assert "netdimm one-way latency" in out
        assert "txFlush" in out

    def test_explicit_config(self, capsys):
        main(["oneway", "--nic", "dnic", "--size", "64"])
        out = capsys.readouterr().out
        assert "dnic" in out
        assert "txFlush" not in out  # dNIC has no flush segment

    def test_invalid_nic_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["oneway", "--nic", "carrier-pigeon"])

    def test_non_positive_size_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["oneway", "--size", "0"])
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_negative_size_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["oneway", "--size", "-1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "positive integer" in err


class TestTrace:
    def test_stdout_csv(self, capsys):
        main(["trace", "--cluster", "hadoop", "--count", "5"])
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line]
        assert lines[0] == "arrival_ps,size_bytes,locality"
        assert len(lines) == 6

    def test_file_output_loadable(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        main(["trace", "--cluster", "database", "--count", "20", "--out", str(path)])
        assert "wrote 20 packets" in capsys.readouterr().out
        assert len(load_trace(path)) == 20

    def test_seed_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["trace", "--count", "50", "--seed", "7", "--out", str(a)])
        main(["trace", "--count", "50", "--seed", "7", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_zero_count_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "--count", "0"])
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_negative_count_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "--count", "-5"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "positive integer" in err


class TestTargets:
    def test_prints_registry(self, capsys):
        main(["targets"])
        out = capsys.readouterr().out
        assert "fig11.improvement_vs_dnic.avg" in out
        assert "[0.4, 0.6]" in out


class TestExperiments:
    def test_single_cheap_experiment(self, capsys):
        assert main(["experiments", "fig7"]) == 0
        assert "Fig. 7" in capsys.readouterr().out

    def test_unknown_experiment_exits_cleanly(self, capsys):
        # Unknown names surface as a clean exit code 2 with a message on
        # stderr, not a SystemExit raised from library code (bugfix).
        assert main(["experiments", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_shard_failure_exits_1_without_traceback(self, monkeypatch, capsys):
        def explode():
            raise RuntimeError("boom")

        monkeypatch.setitem(
            EXPERIMENTS, "exploding", SimpleNamespace(run=explode, format_report=str)
        )
        assert main(["experiments", "exploding"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 1 experiment shard(s) failed")
        assert "(exploding, seed" in err and "RuntimeError: boom" in err
        assert "Traceback" not in err

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_json_equals_sweep_json_byte_for_byte(self, tmp_path, capsys):
        """``experiments`` and ``sweep`` are two front-ends over one job."""
        ran, swept = tmp_path / "experiments.json", tmp_path / "sweep.json"
        assert main(["experiments", "table1", "fig7", "--json", str(ran)]) == 0
        assert main(["sweep", "table1", "fig7", "--json", str(swept)]) == 0
        assert ran.read_bytes() == swept.read_bytes()
        out = capsys.readouterr().out
        assert f"wrote manifest: {ran}.manifest.json" in out

    def test_json_into_unwritable_path_is_a_clean_error(self, tmp_path, capsys):
        parent = tmp_path / "a-file"
        parent.write_text("")
        path = parent / "artifact.json"
        assert main(["experiments", "table1", "--json", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class TestScenarioVerbs:
    def test_run_scenario_json_equals_sweep_json(self, tmp_path):
        specs = [str(EXAMPLES / "twonode_oneway.json"),
                 str(EXAMPLES / "incast_mixed.json")]
        ran, swept = tmp_path / "run.json", tmp_path / "sweep.json"
        assert main(["run-scenario", *specs, "--json", str(ran)]) == 0
        assert main(["sweep", *specs, "--json", str(swept)]) == 0
        assert ran.read_bytes() == swept.read_bytes()

    @pytest.mark.parametrize("verb", ["run-scenario", "run-chaos"])
    def test_failed_scenario_exits_1_with_diagnostic(
        self, tmp_path, capsys, verb
    ):
        """A scenario that fails at build time is a failed shard (exit 1),
        not a usage error (exit 2) — as ``sweep`` reports it."""
        document = json.loads((EXAMPLES / "incast_mixed.json").read_text())
        for node in document["nodes"]:
            if node["name"] == "recv":
                node["host"] = "dc0/c0/r0/h999"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        assert main([verb, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 1 scenario shard(s) failed")
        assert "unknown host 'dc0/c0/r0/h999'" in err
        assert "Traceback" not in err
