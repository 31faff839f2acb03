"""The ``repro.api`` facade: its verbs, the job surface every sweep
runs through, and the lazy top-level re-exports."""

import importlib
import json
import pathlib
import pkgutil
import subprocess
import sys
import textwrap
from dataclasses import replace

import pytest

import repro
from repro import api
from tests.conftest import worker_env

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture(scope="module")
def spec():
    return api.load_spec(
        {
            "name": "api-twonode",
            "seed": 3,
            "nodes": [
                {"name": "tx", "nic_kind": "dnic"},
                {"name": "rx", "nic_kind": "netdimm"},
            ],
            "fabric": {"kind": "direct"},
            "traffic": [
                {
                    "kind": "oneway",
                    "src": ["tx"],
                    "dst": "rx",
                    "packets": 4,
                    "size_bytes": 256,
                    "label": "oneway",
                }
            ],
        }
    )


class TestFacadeVerbs:
    def test_load_spec_from_mapping_and_file(self, spec, tmp_path):
        path = tmp_path / "spec.json"
        spec.save(path)
        assert api.load_spec(str(path)) == spec

    def test_simulate_and_format_report(self, spec):
        result = api.simulate(spec)
        assert result.packets_delivered == 4
        assert "scenario api-twonode" in api.format_report(result)

    def test_simulate_with_fault_overlay(self, spec):
        faults = api.FaultSpec(
            links=(api.LinkFaultSpec(drop_probability=0.5),),
            recovery=api.RecoverySpec(timeout_ns=20_000.0),
        )
        result = api.simulate(spec, faults=faults)
        counters = result.recovery["oneway"]
        assert counters["delivered"] + counters["lost"] == 4

    def test_run_experiment_and_diff(self):
        job = api.submit(["table1"]).run()
        artifact = job.result()
        assert "Table 1" in api.format_report(job)
        diff = api.diff_artifacts(artifact, artifact)
        assert not diff.has_regressions

    def test_format_report_rejects_other_types(self):
        with pytest.raises(TypeError, match="expected ScenarioResult"):
            api.format_report({"not": "a result"})
        other = api.Job(kind="calibration", meta={}, tasks=[])
        with pytest.raises(TypeError, match="expected ScenarioResult"):
            api.format_report(other)

    def test_format_report_of_a_scenario_job(self, spec):
        job = api.submit([spec, replace(spec, name="api-twonode-b")]).run()
        assert api.format_report(job) == "\n\n".join(
            api.format_report(api.simulate(one))
            for one in (spec, replace(spec, name="api-twonode-b"))
        )

    def test_format_report_refuses_unrun_job(self):
        with pytest.raises(api.JobError, match="pending"):
            api.format_report(api.submit("table1"))


class TestJobVerbs:
    def test_submit_experiments_by_name(self):
        job = api.submit("table1")
        assert job.status()["state"] == "pending"
        document = job.result()
        assert document["run"]["experiments"] == ["table1"]
        assert job.status()["state"] == "done"

    def test_submit_scenario_specs(self, spec, tmp_path):
        path = tmp_path / "spec.json"
        spec.save(path)
        document = api.submit(str(path)).result()
        assert document["scenarios"]["api-twonode"]["result"]

    def test_submit_scenario_objects_with_faults(self, spec):
        faults = api.FaultSpec(
            links=(api.LinkFaultSpec(drop_probability=0.5),),
            recovery=api.RecoverySpec(timeout_ns=20_000.0),
        )
        document = api.submit(spec, faults=faults).result()
        result = document["scenarios"]["api-twonode"]["result"]
        counters = result["recovery"]["oneway"]
        assert counters["delivered"] + counters["lost"] == 4

    def test_submit_rejects_mixtures_and_typos(self, spec):
        with pytest.raises(ValueError, match="not a mixture"):
            api.submit([spec, 123])
        with pytest.raises(ValueError, match="fig99"):
            api.submit("fig99")
        with pytest.raises(ValueError, match="scenario"):
            api.submit("table1", chaos=True)
        with pytest.raises(ValueError, match="scenario"):
            api.submit("table1", trace=True)

    def test_collect_gathers_in_order(self, spec):
        documents = api.collect([api.submit("table1"), api.submit(spec)])
        assert documents[0]["run"]["experiments"] == ["table1"]
        assert "api-twonode" in documents[1]["scenarios"]

    def test_submit_artifact_writes_manifest_sidecar(self, tmp_path):
        path = tmp_path / "artifact.json"
        api.submit("table1").artifact(str(path))
        manifest = json.loads((tmp_path / "artifact.json.manifest.json").read_text())
        assert manifest["run"]["status"] == "complete"
        assert manifest["job"]["kind"] == "experiment"

    def test_resume_completes_a_checkpointed_submit(self, tmp_path):
        run_dir = str(tmp_path / "run")
        job = api.submit("table1", run_dir=run_dir)
        job.run()
        resumed = api.resume(run_dir)
        assert resumed.result() == job.result()

    def test_submit_refuses_duplicate_scenario_names(self, spec):
        with pytest.raises(ValueError, match="duplicate scenario name 'api-twonode'"):
            api.submit([spec, spec])


class TestTopLevelExports:
    def test_lazy_api_attribute(self):
        assert repro.api is api
        assert repro.simulate is api.simulate
        assert repro.load_spec is api.load_spec
        assert repro.submit is api.submit
        assert repro.diff_artifacts is api.diff_artifacts
        assert repro.format_report is api.format_report

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.warp_drive

    @pytest.mark.parametrize(
        "package",
        sorted(info.name for info in pkgutil.iter_modules(repro.__path__) if info.ispkg),
    )
    def test_package_exports_resolve(self, package):
        """A name left in ``__all__`` after its definition is deleted
        breaks only ``from repro.<package> import *``; catch it here."""
        module = importlib.import_module(f"repro.{package}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"repro.{package}.__all__ names undefined {missing}"


IMPORT_SURFACE_SCRIPT = textwrap.dedent(
    """
    import sys

    from repro import api

    api.Job
    spec = api.load_spec(sys.argv[1])
    result = api.build_scenario(spec).run()
    assert result.packets_delivered > 0, result.packets_delivered
    layers = ("calib", "experiments", "telemetry", "analysis")
    loaded = sorted(
        name
        for name in sys.modules
        if any(name.startswith(f"repro.{layer}") for layer in layers)
    )
    assert not loaded, f"a scenario run loaded {loaded}"

    document = api.submit("table1").result()
    assert document["run"]["experiments"] == ["table1"], document["run"]
    assert "repro.experiments.table1" in sys.modules
    """
)


STDLIB_SURFACE_SCRIPT = textwrap.dedent(
    """
    import sys

    bare = set(sys.modules)
    from repro import api

    api.Job
    spec = api.load_spec(sys.argv[1])
    result = api.build_scenario(spec).run()
    assert result.packets_delivered > 0, result.packets_delivered
    unrun = ["subprocess", "socket", "pickle", "datetime", "platform"]
    unrun += [f"repro.workloads.{name}" for name in ("mlc", "iperf", "netfuncs", "trace_io")]
    loaded = sorted(name for name in unrun if name in sys.modules and name not in bare)
    assert not loaded, f"a scenario run loaded {loaded}"

    from repro import workloads

    listed = set(dir(workloads))
    for name in workloads.__all__:
        assert getattr(workloads, name) is not None, name
        assert name in listed, name
    assert "repro.workloads.mlc" in sys.modules
    """
)


LOAD_SPEC_SURFACE_SCRIPT = textwrap.dedent(
    """
    import sys

    from repro import api

    spec = api.load_spec(sys.argv[1])
    assert len(spec.nodes) > 0
    models = ("repro.driver.", "repro.dram", "repro.core", "repro.net.fabric", "repro.flow")
    loaded = sorted(
        name
        for name in sys.modules
        if any(name.startswith(model) for model in models)
        and name != "repro.driver.registry"
    )
    assert not loaded, f"load_spec loaded {loaded}"
    try:
        api.load_spec({"name": "x", "nodes": [{"name": "a", "nic_kind": "fpga"}]})
    except ValueError as error:
        assert "unknown NIC kind 'fpga'" in str(error), error
    else:
        raise AssertionError("an unknown NIC kind loaded")
    """
)


class TestImportSurface:
    def test_scenario_run_loads_no_runtime_stdlib_or_unrun_workload(self):
        """The runtime's worker-spawn, pickling and manifest modules, and
        the workloads a scenario never runs, load only when called."""
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                STDLIB_SURFACE_SCRIPT,
                str(EXAMPLES / "clos1000_hybrid.json"),
            ],
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr

    def test_scenario_run_loads_no_evaluation_layer(self):
        """``from repro import api`` and a 1024-host scenario load neither
        calibration, the experiments, telemetry nor analysis; a later
        experiment submission still finds them."""
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                IMPORT_SURFACE_SCRIPT,
                str(EXAMPLES / "clos1000_hybrid.json"),
            ],
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr

    def test_load_spec_loads_no_model(self):
        """Parsing a spec checks its NIC kinds but loads no node model,
        DRAM, NetDIMM core, live fabric or flow plane."""
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                LOAD_SPEC_SURFACE_SCRIPT,
                str(EXAMPLES / "clos1000_hybrid.json"),
            ],
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr

    def test_every_exported_name_resolves_and_is_listed(self):
        listed = set(dir(api))
        for name in api.__all__:
            assert getattr(api, name) is not None, name
            assert name in listed, name

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="warp_drive"):
            api.warp_drive
