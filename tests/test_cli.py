"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import EXPERIMENT_BLURBS, main
from repro.experiments.runner import EXPERIMENTS
from repro.workloads.trace_io import load_trace


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_blurbs_cover_registry(self):
        assert set(EXPERIMENT_BLURBS) == set(EXPERIMENTS)


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

        monkeypatch.setitem(EXPERIMENTS, "exploding", (explode, str))
        assert main(["experiments", "exploding"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 1 experiment shard(s) failed")
        assert "(exploding, seed" in err and "RuntimeError: boom" in err
        assert "Traceback" not in err

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])
