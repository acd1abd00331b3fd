import numpy as np
import pytest

import nitsche_contact.oracle as oracle
from nitsche_contact.adapt import initial_meshes, make_experiment, make_problem
from nitsche_contact.contact import (
    ContactProblem,
    NitscheConfig,
    SolverError,
    energy_norm,
    lh_values,
    mortar,
    solve,
)
from nitsche_contact.oracle import (
    ENUMERATION_SAMPLE_CAP,
    build_mixed_system,
    check_vi_residual,
    solve_mixed,
)


def tiny_problem(degree=1, load=None, experiment="pressing", res=((1, 2), (2, 4))):
    setup = make_experiment(experiment)
    if load is not None:
        setup = setup.__class__(**{**setup.__dict__, "load1": load})
    m1, m2 = initial_meshes(setup, res)
    return setup, make_problem(setup, m1, m2, degree)


class TestMixedSolve:
    def test_zero_load(self):
        setup, prob = tiny_problem()
        quiet = ContactProblem(spaces=prob.spaces, materials=prob.materials,
                               segments=prob.segments, body_loads=(None, None),
                               pins=prob.pins)
        for method in ("enumerate", "pdas"):
            mix = solve_mixed(quiet, NitscheConfig(alpha=1e-2), method=method)
            assert np.allclose(mix.u, 0.0)
            assert np.allclose(mix.lam, 0.0)

    def test_enumeration_matches_pdas_and_positive_part(self):
        _, prob = tiny_problem(degree=1)
        cfg = NitscheConfig(alpha=1e-2, drop_inactive_terms=False)
        enum = solve_mixed(prob, cfg, method="enumerate")
        pdas = solve_mixed(prob, cfg, method="pdas")
        assert np.allclose(enum.u, pdas.u, atol=1e-12)
        assert np.allclose(enum.lam, pdas.lam, atol=1e-12)
        data = enum.system.data
        lh = lh_values(data, mortar(data, prob.materials, cfg), enum.u)
        assert np.allclose(enum.lam, np.maximum(lh, 0.0), atol=1e-10)

    def test_enumeration_cap(self):
        _, prob = tiny_problem(degree=2, res=((2, 5), (3, 8)))
        system_size = (prob.degree + 1) * len(prob.segments)
        assert system_size > ENUMERATION_SAMPLE_CAP  # sanity of the setup
        with pytest.raises(ValueError):
            solve_mixed(prob, NitscheConfig(alpha=1e-3), method="enumerate")

    def test_missing_constraints_raise(self):
        # vertical load with horizontal-only clamps and no pin: the free
        # vertical rigid mode makes the saddle system singular
        _, prob = tiny_problem(res=((2, 2), (3, 4)))
        vertical = lambda x: np.column_stack([np.zeros(len(x)), -0.05 * np.ones(len(x))])
        loose = ContactProblem(spaces=prob.spaces, materials=prob.materials,
                               segments=prob.segments, body_loads=(vertical, None),
                               pins=())
        with pytest.raises(SolverError):
            solve_mixed(loose, NitscheConfig(alpha=1e-2), method="pdas")

    def test_enumeration_skips_only_solver_errors(self, monkeypatch):
        def broken(K, r):
            raise ValueError("injected")

        monkeypatch.setattr(oracle, "_lu_solve", broken)
        _, prob = tiny_problem()
        with pytest.raises(ValueError, match="injected"):
            solve_mixed(prob, NitscheConfig(alpha=1e-2), method="enumerate")

    def test_matrix_symmetric_and_multiplier_block_negative(self):
        _, prob = tiny_problem(degree=2)
        for variant in ("weighted", "master-slave", "juntunen"):
            system = build_mixed_system(prob, NitscheConfig(variant=variant, alpha=1e-3))
            M = system.matrix
            assert abs(M - M.T).max() < 1e-12 * abs(M).max()
            block = M[system.n_u:, system.n_u:].toarray()
            assert np.all(np.diag(block) < 0)
            evals = np.linalg.eigvalsh(block)
            assert evals.max() <= 1e-14

    def test_partial_contact_equivalence(self):
        bend = lambda x: np.column_stack([np.zeros(len(x)), np.full(len(x), -0.05)])
        _, prob = tiny_problem(degree=2, load=bend, experiment="bending")
        cfg = NitscheConfig(variant="juntunen", alpha=1e-3, drop_inactive_terms=False)
        nit = solve(cfg, prob)
        assert nit.active.any() and not nit.active.all()
        mix = solve_mixed(prob, cfg, method="pdas")
        rel = energy_norm(prob, nit.u - mix.u) / energy_norm(prob, mix.u)
        assert rel < 1e-10
        assert np.abs(nit.lam - mix.lam).max() < 1e-10


class TestViResidual:
    def test_valid_solution_small_residual(self):
        _, prob = tiny_problem()
        cfg = NitscheConfig(alpha=1e-2, drop_inactive_terms=False)
        mix = solve_mixed(prob, cfg, method="pdas")
        assert check_vi_residual(mix.system, mix.u, mix.lam) < 1e-8

    def test_perturbed_inactive_multiplier_violates(self):
        bend = lambda x: np.column_stack([np.zeros(len(x)), np.full(len(x), -0.05)])
        _, prob = tiny_problem(degree=1, load=bend, experiment="bending")
        cfg = NitscheConfig(alpha=1e-2, drop_inactive_terms=False)
        mix = solve_mixed(prob, cfg, method="pdas")
        assert not mix.pattern.all()
        lam_bad = mix.lam.copy()
        lam_bad[np.flatnonzero(~mix.pattern)[0]] += 1.0
        assert check_vi_residual(mix.system, mix.u, lam_bad) > 1e-3

    def test_zero_problem_zero_residual(self):
        setup, prob = tiny_problem()
        quiet = ContactProblem(spaces=prob.spaces, materials=prob.materials,
                               segments=prob.segments, body_loads=(None, None),
                               pins=prob.pins)
        mix = solve_mixed(quiet, NitscheConfig(alpha=1e-2), method="pdas")
        assert check_vi_residual(mix.system, mix.u, mix.lam) == 0.0
