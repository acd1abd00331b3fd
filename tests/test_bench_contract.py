"""The benchmark's workloads still run on the package and pass their checks.

``perfbench/workloads.py`` reads the package through its public names:
``len(problem.segments)``, ``mesh.audit_interface``, ``run_study``,
``solve`` and ``solve_mixed(method="pdas")``.  A package change that
breaks one of them would only show when the benchmark runs.  These tests
load the workloads module without the benchmark driver and run a prefix
of the oracle battery and one small study through their own checks.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_oracle_battery_prefix_passes(workloads):
    battery = workloads.OracleBattery(limit=6)
    inputs = battery.inputs(0)
    outcome = battery.outcome(inputs, battery.operation(inputs)())
    assert outcome.failures == []


def test_small_study_passes_against_its_own_output(workloads):
    full = workloads.WORKLOADS["adaptive-p2-bending"]
    resolutions = full.pairs[0][0]
    study = workloads.Study(full.experiment, full.degree, full.mode, 2000,
                            (full.slope_target, 1.0), ((resolutions, None),),
                            warmup_dofs=1000)
    config, _ = study.inputs(0)
    out = study.operation((config, None))()
    ref = workloads.Reference(out.final_ndofs, len(out.records), out.records[-1].eta_plus_S)
    assert study.outcome((config, ref), out).failures == []
