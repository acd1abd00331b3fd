from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nitsche_contact.adapt as adapt
from nitsche_contact.adapt import (
    ConvergenceRecord,
    EXPERIMENTS,
    StudyConfig,
    free_dof_count,
    initial_meshes,
    make_experiment,
    make_problem,
    mark_dorfler,
    regression_slope,
    run_study,
)
from nitsche_contact.contact import VARIANTS, NonconvergenceError, SolverError, solve
from nitsche_contact.mesh import uniform_refine


class TestExperiments:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="pressing"):
            make_experiment("squeeze")

    def test_material_override(self):
        setup = make_experiment("bending", e2=100.0)
        assert setup.materials[1].E == 100.0
        assert setup.materials[0].E == 1.0

    def test_geometry(self):
        setup = make_experiment("pressing")
        m1, m2 = initial_meshes(setup)
        assert m1.bbox == (0.5, 1.0, 0.25, 0.75)
        assert m2.bbox == (1.0, 1.6, 0.0, 1.0)
        assert len(m1.facets_of_kind("contact")) == 2
        assert len(m2.facets_of_kind("contact")) == 2


class TestDorfler:
    def test_theta_near_one_marks_all(self):
        marked = mark_dorfler(np.array([1.0, 2.0, 3.0]), 0.999)
        assert set(marked) == {0, 1, 2}

    def test_single_dominant(self):
        marked = mark_dorfler(np.array([0.0, 10.0, 0.0, 0.0]), 0.5)
        assert list(marked) == [1]

    def test_prefix_rule(self):
        marked = mark_dorfler(np.array([4.0, 3.0, 2.0, 1.0]), 0.5)
        assert list(marked) == [0, 1]

    def test_tie_break_deterministic(self):
        marked = mark_dorfler(np.array([1.0, 1.0, 1.0, 1.0]), 0.5)
        assert list(marked) == [0, 1]
        # twins a few ulp apart tie, in either order: the lower id is marked
        twin = 1.0 + 4 * np.finfo(float).eps
        for vals in ([0.1, 1.0, 0.1, twin], [0.1, twin, 0.1, 1.0]):
            assert list(mark_dorfler(np.array(vals), 0.4)) == [1]

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            mark_dorfler(np.array([1.0]), 1.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_minimality_against_brute_force(self, seed):
        rng = np.random.RandomState(seed)
        vals = rng.rand(rng.randint(2, 10))
        theta = rng.uniform(0.2, 0.95)
        marked = mark_dorfler(vals, theta)
        total = vals.sum()
        assert vals[marked].sum() >= theta * total - 1e-12
        best = None
        for mask in range(1, 2 ** len(vals)):
            idx = [i for i in range(len(vals)) if mask >> i & 1]
            if vals[idx].sum() >= theta * total - 1e-12:
                best = len(idx) if best is None else min(best, len(idx))
        assert len(marked) == best

    @pytest.mark.parametrize("bad", [[1.0, np.nan, 2.0], [np.nan] * 3, [1.0, np.inf, 2.0],
                                     [1.0, -5.0, 2.0], []])
    def test_rejects_indicators_it_cannot_honour(self, bad):
        with pytest.raises(ValueError, match="indicators"):
            mark_dorfler(np.array(bad), 0.5)

    def test_all_zero_marks_the_first(self):
        assert list(mark_dorfler(np.zeros(4), 0.5)) == [0]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=7),
           st.floats(0.01, 0.99), st.integers(-10, 10))
    def test_marked_set_is_minimal(self, counts, theta, exponent):
        # small integers times a power of two give ties and zeros with exact
        # sums in any order; among the smallest sets carrying the fraction,
        # the marked one has the largest sum and, of those, the lowest ids
        vals = np.array(counts, dtype=float) * 2.0 ** exponent
        total = vals.sum()
        need = theta * total - 1e-15 * abs(total)
        for k in range(1, len(vals) + 1):
            sets = [c for c in combinations(range(len(vals)), k) if vals[list(c)].sum() >= need]
            if sets:
                break
        best = min(sets, key=lambda c: (-vals[list(c)].sum(), c))
        assert tuple(mark_dorfler(vals, theta)) == best


def _records(pairs):
    """Convergence records carrying only N and eta + S."""
    return [ConvergenceRecord(step=k, ndofs=n, eta=v, S=0.0, eta_plus_S=v, eta_element=0.0,
                              eta_interior=0.0, eta_contact=0.0, eta_neumann=0.0, iterations=1,
                              factorizations=1)
            for k, (n, v) in enumerate(pairs)]


class TestRegression:
    def test_exact_power_law(self):
        records = _records([(10, 1.0), (100, 0.1)])
        assert regression_slope(records, slice(0, None)) == pytest.approx(-1.0)

    def test_flat(self):
        records = _records([(10, 1.0), (100, 1.0)])
        assert regression_slope(records, slice(0, None)) == pytest.approx(0.0)

    def test_reference_series(self):
        # uniform linear-element series of the squeezing benchmark
        series = _records([
            (82, 0.03973469149724339),
            (272, 0.024543634683048224),
            (988, 0.014696965226563396),
            (3764, 0.008649341647060958),
            (14692, 0.00486546952937192),
        ])
        assert regression_slope(series, slice(0, None)) == pytest.approx(-0.4033, abs=1e-3)
        assert regression_slope([series[0], series[-1]], slice(0, None)) == pytest.approx(
            -0.4048, abs=1e-3
        )

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            regression_slope(_records([(10, 1.0)]), slice(0, None))


class TestRunStudy:
    def test_uniform_quadruples(self):
        out = run_study(StudyConfig(experiment="pressing", degree=1,
                                    mode="uniform", max_dofs=800))
        ns = [r.ndofs for r in out.records]
        assert all(b > a for a, b in zip(ns, ns[1:]))
        for a, b in zip(ns, ns[1:]):
            assert 2.5 < b / a < 4.5

    @settings(max_examples=25, deadline=None)
    @given(experiment=st.sampled_from(EXPERIMENTS), degree=st.sampled_from((1, 2)),
           mode=st.sampled_from(("uniform", "adaptive")), variant=st.sampled_from(VARIANTS),
           resolutions=st.tuples(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                                 st.tuples(st.integers(1, 4), st.sampled_from((4, 8)))),
           max_dofs=st.integers(100, 600))
    def test_deterministic(self, experiment, degree, mode, variant, resolutions, max_dofs):
        # two runs give equal records and a bitwise-equal final field, or
        # fail alike with equal partial records
        cfg = StudyConfig(experiment=experiment, degree=degree, mode=mode, variant=variant,
                          resolutions=resolutions, max_dofs=max_dofs)

        def outcome():
            try:
                out = run_study(cfg)
            except (NonconvergenceError, SolverError) as exc:
                return type(exc), str(exc), exc.records
            return out.records, out.result.u.tobytes()

        assert outcome() == outcome()

    def test_every_solve_converged_quickly(self):
        out = run_study(StudyConfig(experiment="bending", degree=1,
                                    mode="adaptive", max_dofs=900))
        assert all(r.iterations <= 10 for r in out.records)
        assert all(np.isfinite(r.eta_plus_S) for r in out.records)

    def test_eta_plus_s_decreases_pressing_uniform(self):
        out = run_study(StudyConfig(experiment="pressing", degree=1,
                                    mode="uniform", max_dofs=2500))
        vals = [r.eta_plus_S for r in out.records]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_nonconvergence_attaches_records(self, monkeypatch):
        # a failed linear solve carries the records as nonconvergence does
        real_solve = adapt.solve
        for error in (NonconvergenceError("induced", history=[]), SolverError("induced")):
            calls = {"n": 0}

            def flaky(cfg, problem, start=None, error=error):
                calls["n"] += 1
                if calls["n"] >= 2:
                    raise error
                return real_solve(cfg, problem, start)

            monkeypatch.setattr(adapt, "solve", flaky)
            with pytest.raises(type(error)) as err:
                run_study(StudyConfig(experiment="pressing", degree=1,
                                      mode="uniform", max_dofs=5000))
            assert len(err.value.records) == 1
            assert isinstance(err.value.records[0], ConvergenceRecord)

    def test_uniform_study_refines_no_mesh_beyond_the_budget(self, monkeypatch):
        calls = {"n": 0}
        real_refine = adapt.bisect_refine

        def counted(mesh, marked):
            calls["n"] += 1
            return real_refine(mesh, marked)

        monkeypatch.setattr(adapt, "bisect_refine", counted)
        out = run_study(StudyConfig(experiment="pressing", degree=1,
                                    mode="uniform", max_dofs=800))
        # two sweeps of both bodies between consecutive recorded steps
        assert calls["n"] == 4 * (len(out.records) - 1)


@settings(max_examples=25, deadline=None)
@given(experiment=st.sampled_from(EXPERIMENTS), nx1=st.integers(1, 4), ny1=st.integers(1, 4),
       nx2=st.integers(1, 4), ny2=st.sampled_from((4, 8)), degree=st.sampled_from((1, 2)))
def test_uniform_step_at_least_doubles_the_free_dofs(experiment, nx1, ny1, nx2, ny2, degree):
    """``run_study`` stops a uniform study before refining when twice the
    free dofs exceed the budget; that rests on this doubling."""
    setup = make_experiment(experiment)
    mesh1, mesh2 = initial_meshes(setup, ((nx1, ny1), (nx2, ny2)))
    n = free_dof_count(make_problem(setup, mesh1, mesh2, degree))
    for _ in range(3):
        mesh1, mesh2 = uniform_refine(mesh1, 2), uniform_refine(mesh2, 2)
        refined = free_dof_count(make_problem(setup, mesh1, mesh2, degree))
        assert refined >= 2 * n
        n = refined


class TestDeskScaleProperties:
    def test_complementarity_term_decreases_under_uniform_refinement(self, pressing_studies):
        recs = pressing_studies[("uniform", 1)].records
        s_vals = [r.S for r in recs if r.S > 0]
        assert len(s_vals) >= 2
        assert s_vals[-1] < s_vals[0]

    def test_adaptive_beats_uniform_p2(self, pressing_studies):
        s_uni = regression_slope(pressing_studies[("uniform", 2)].records)
        s_ada = regression_slope(pressing_studies[("adaptive", 2)].records)
        assert abs(s_ada) >= abs(s_uni)

    def test_iteration_counts_small(self, pressing_studies):
        for out in pressing_studies.values():
            assert all(r.iterations <= 10 for r in out.records)

    def test_started_solve_matches_cold_solve(self, bending_adaptive_p2):
        out = bending_adaptive_p2
        assert all(r.iterations <= 5 for r in out.records[1:])
        warm = out.result
        cold = solve(out.config.solver_config(), warm.problem)
        assert cold.iterations > warm.iterations
        assert np.array_equal(cold.active, warm.active)
        assert np.linalg.norm(warm.u - cold.u) <= 1e-10 * np.linalg.norm(cold.u)

    def test_bending_resolves_contact_corner(self, bending_adaptive_p2):
        # triangles near the free end of the contact zone end up much
        # smaller than the rest of the transmitting block's mesh
        mesh = bending_adaptive_p2.meshes[1]
        c = mesh.vertices[mesh.triangles].mean(axis=1)
        areas = mesh.signed_areas()
        near = np.hypot(c[:, 0] - 1.0, c[:, 1] - 0.75) < 0.1
        assert near.any() and (~near).any()
        h_near = np.sqrt(areas[near].mean())
        h_far = np.sqrt(areas[~near].mean())
        assert h_far / h_near >= 2.0
