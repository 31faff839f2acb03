"""The shipped examples run end-to-end and say what they promise."""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, capsys):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart", capsys)
        assert "PCIe NIC" in out
        assert "NetDIMM" in out
        assert "faster" in out

    def test_netdimm_internals(self, capsys):
        out = run_example("netdimm_internals", capsys)
        assert "nCache hit" in out
        assert "FPM" in out and "PSM" in out and "GCM" in out
        assert "1 nCache miss" in out

    def test_trace_replay(self, capsys):
        out = run_example("trace_replay", capsys)
        assert "webserver" in out
        assert "saved" in out

    def test_scenario_tour(self, capsys):
        out = run_example("scenario_tour", capsys)
        assert "scenario incast-mixed" in out
        assert "mixed incast" in out and "saved" in out
        assert "replay byte-identical: True" in out

    def test_custom_hardware_sweep(self, capsys):
        out = run_example("custom_hardware_sweep", capsys)
        assert "degree 0" in out
        assert "PCIe Gen5" in out

    @pytest.mark.slow
    def test_memory_interference(self, capsys):
        out = run_example("memory_interference", capsys)
        assert "unloaded bandwidth" in out
        assert "DPI" in out
