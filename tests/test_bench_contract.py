"""The benchmark's workloads still run on the package and pass their checks.

``perfbench/workloads.py`` reads the package through its public names:
``len(problem.segments)``, ``mesh.audit_interface``, ``run_study``,
``solve`` and ``solve_mixed(method="pdas")``.  A package change that
breaks one of them would only show when the benchmark runs.  These tests
load the workloads module without the benchmark driver and run a prefix
of the oracle battery and one small study through their own checks, and
the one battery instance on which both active-set iterations cycle.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from nitsche_contact.adapt import make_problem
from nitsche_contact.contact import NonconvergenceError, solve
from nitsche_contact.oracle import InfeasibleError, check_vi_residual, solve_mixed

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


def test_cycling_battery_instance(workloads):
    # battery seed 13, instance 0: bending on the (2,1)/(2,4) pair, P2,
    # master-slave, inactive terms kept.  Both active-set iterations cycle
    # (5, 3, 5 active samples); enumerating the patterns still solves it.
    inst = workloads.OracleBattery(limit=1).inputs(13)[0]
    assert (inst.mesh1.num_triangles, inst.mesh2.num_triangles, inst.degree) == (4, 16, 2)
    assert (inst.config.variant, inst.config.drop_inactive_terms) == ("master-slave", False)
    problem = make_problem(inst.setup, inst.mesh1, inst.mesh2, inst.degree)
    with pytest.raises(NonconvergenceError, match="entered a cycle"):
        solve(inst.config, problem)
    with pytest.raises(InfeasibleError, match="cycled"):
        solve_mixed(problem, inst.config, method="pdas")
    mixed = solve_mixed(problem, inst.config, method="enumerate")
    assert check_vi_residual(mixed.system, mixed.u, mixed.lam) < 1e-8
