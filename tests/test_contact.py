from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nitsche_contact.contact as contact
from nitsche_contact.adapt import initial_meshes, make_experiment, make_problem
from nitsche_contact.contact import (
    VARIANTS,
    ContactProblem,
    NitscheConfig,
    NonconvergenceError,
    SolverError,
    assemble_nitsche,
    build_interface_data,
    bulk_system,
    contact_force,
    energy_norm,
    lh_values,
    mortar,
    solve,
    transfer_active,
)
from nitsche_contact.fem import MaterialParams, dirichlet_mask, interpolate
from nitsche_contact.mesh import build_interface, uniform_refine

MAT = MaterialParams.from_young(1.0, 0.3)


def small_problem(experiment="pressing", degree=1, res=((2, 2), (3, 4)), e2=None, sweeps=0):
    setup = make_experiment(experiment, e2=e2)
    m1, m2 = initial_meshes(setup, res)
    m1 = uniform_refine(m1, sweeps)
    m2 = uniform_refine(m2, sweeps)
    return setup, make_problem(setup, m1, m2, degree)


class TestCoefficients:
    def test_weights_sum_to_one(self):
        _, prob = small_problem()
        h = SimpleNamespace(h1=prob.segments.h[:, 0], h2=prob.segments.h[:, 1])
        m = mortar(h, prob.materials, NitscheConfig(variant="weighted", alpha=1e-2))
        (w1, w2), beta, gamma = m.traction, m.penalty, m.gamma
        assert np.allclose(w1 + w2, 1.0, rtol=0.0, atol=1e-14)
        assert np.all(beta > 0) and np.all(gamma > 0)

    def test_beta_value(self):
        # equal facet sizes and shear moduli: beta = mu / (2 alpha h)
        h = SimpleNamespace(h1=np.array([0.1]), h2=np.array([0.1]))
        m = mortar(h, (MAT, MAT), NitscheConfig(alpha=0.01))
        (w1, w2), beta = m.traction, m.penalty
        assert beta[0] == pytest.approx(192.30769230769232, rel=1e-12)
        assert w1[0] == pytest.approx(0.5)
        assert w2[0] == pytest.approx(0.5)

    def test_dissimilar_materials_weighting(self):
        soft = MaterialParams.from_young(0.01, 0.3)
        h = SimpleNamespace(h1=np.array([0.2]), h2=np.array([0.4]))
        w1, _ = mortar(h, (MAT, soft), NitscheConfig(alpha=1e-2)).traction
        # w1 = h1 mu2 / (h1 mu2 + h2 mu1)
        expect = 0.2 * soft.mu / (0.2 * soft.mu + 0.4 * MAT.mu)
        assert w1[0] == pytest.approx(expect, rel=1e-14)
        ms = mortar(h, (MAT, soft), NitscheConfig(variant="master-slave", alpha=1e-2))
        assert ms.traction == (0.0, 1.0)  # softer body is mortared


def _per_sample(weights, ns):
    """Traction weights as an (ns, 2) array."""
    return np.column_stack([np.broadcast_to(a, (ns,)) for a in weights])


@settings(max_examples=60, deadline=None)
@given(h=st.lists(st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0)), min_size=1, max_size=6),
       log_ratio=st.floats(-3.0, 3.0), log_alpha=st.floats(-5.0, 0.0),
       variant=st.sampled_from(VARIANTS))
def test_mortar_elimination_identity(h, log_ratio, log_alpha, variant):
    """Eliminating the multiplier of the stabilised mixed form gives back
    the Nitsche form: sum c_k b_k = c_q a, penalty c_q = 1, and
    c_q a a^T - sum c_k b_k b_k^T = -gamma (e2 - e1)(e2 - e1)^T."""
    h1, h2 = np.array(h).T
    ns = len(h1)
    materials = (MAT, MaterialParams.from_young(10.0 ** log_ratio, 0.3))
    m = mortar(SimpleNamespace(h1=h1, h2=h2), materials,
               NitscheConfig(variant=variant, alpha=10.0 ** log_alpha))
    a = _per_sample(m.traction, ns)
    c_q = np.broadcast_to(m.c_q, (ns,))
    pairs = [(np.broadcast_to(c, (ns,)), _per_sample(b, ns)) for c, b in m.stab]
    assert np.allclose(sum(c for c, _ in pairs), c_q, rtol=1e-14, atol=0.0)
    assert np.allclose(m.penalty * c_q, 1.0, rtol=0.0, atol=1e-14)
    assert np.allclose(sum(c[:, None] * b for c, b in pairs), c_q[:, None] * a,
                       rtol=0.0, atol=1e-14 * c_q.max())
    lhs = c_q[:, None, None] * np.einsum("si,sj->sij", a, a) - sum(
        c[:, None, None] * np.einsum("si,sj->sij", b, b) for c, b in pairs)
    gamma = np.broadcast_to(0.0 if m.gamma is None else m.gamma, (ns,))
    rhs = -gamma[:, None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-14 * c_q.max())


class TestConfigValidation:
    @pytest.mark.parametrize("alpha", [np.inf, -np.inf, np.nan, 0.0, -1.0])
    def test_alpha_must_be_positive_and_finite(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            NitscheConfig(alpha=alpha)


class TestLh:
    def test_zero_field(self):
        _, prob = small_problem()
        data = build_interface_data(prob)
        m = mortar(data, prob.materials, NitscheConfig(alpha=1e-2))
        lh = lh_values(data, m, np.zeros(prob.num_dofs))
        assert np.allclose(lh, 0.0)
        assert not (lh > 0).any()

    @pytest.mark.parametrize("variant", ["weighted", "master-slave", "juntunen"])
    def test_rigid_interpenetration_detected(self, variant):
        _, prob = small_problem()
        data = build_interface_data(prob)
        cfg = NitscheConfig(variant=variant, alpha=1e-2)
        delta = 1e-3
        u = np.zeros(prob.num_dofs)
        u[0:prob.spaces[0].num_dofs:2] = delta  # body 1 shifted toward body 2
        m = mortar(data, prob.materials, cfg)
        lh = lh_values(data, m, u)
        assert np.allclose(lh, m.penalty * delta, rtol=1e-10)
        assert (lh > 0).all()

    def test_reconstruct_positive_part(self):
        lh = np.array([-2.0, 3.0, 0.0])
        assert np.array_equal(np.maximum(lh, 0.0), np.array([0.0, 3.0, 0.0]))


class TestAssembly:
    @pytest.mark.parametrize("variant", ["weighted", "master-slave", "juntunen"])
    @pytest.mark.parametrize("degree", [1, 2])
    def test_system_symmetry(self, variant, degree):
        _, prob = small_problem(degree=degree)
        data = build_interface_data(prob)
        cfg = NitscheConfig(variant=variant, alpha=1e-3, drop_inactive_terms=False)
        rng = np.random.RandomState(0)
        active = rng.rand(data.num_samples) > 0.4
        A0, _ = bulk_system(prob)
        A = A0 + assemble_nitsche(data, mortar(data, prob.materials, cfg), cfg, active,
                                  prob.num_dofs)
        assert abs(A - A.T).max() < 1e-12 * abs(A).max()

    def test_all_inactive_dropped_is_pure_elasticity(self):
        _, prob = small_problem()
        data = build_interface_data(prob)
        cfg = NitscheConfig(alpha=1e-2, drop_inactive_terms=True)
        N = assemble_nitsche(data, mortar(data, prob.materials, cfg), cfg,
                             np.zeros(data.num_samples, dtype=bool), prob.num_dofs)
        assert N.nnz == 0 or abs(N).max() == 0.0

    def test_indicator_length_mismatch(self):
        _, prob = small_problem()
        data = build_interface_data(prob)
        cfg = NitscheConfig(alpha=1e-2)
        with pytest.raises(ValueError):
            assemble_nitsche(data, mortar(data, prob.materials, cfg), cfg,
                             np.ones(3, dtype=bool), prob.num_dofs)

    def test_weighted_vs_juntunen_differ_only_by_stabilisation(self):
        # on a traction-continuous field the two weighted variants act identically
        setup, prob = small_problem(experiment="patch", res=((2, 2), (3, 4)))
        data = build_interface_data(prob)
        active = np.ones(data.num_samples, dtype=bool)
        A1, A3 = (assemble_nitsche(data, mortar(data, prob.materials, cfg), cfg,
                                   active, prob.num_dofs)
                  for cfg in (NitscheConfig(variant="weighted", alpha=1e-2),
                              NitscheConfig(variant="juntunen", alpha=1e-2)))
        mat = setup.materials[0]
        exx = -(2 * mat.mu + mat.lam) / (4 * mat.mu * (mat.mu + mat.lam))
        eyy = -mat.lam / (2 * mat.mu + mat.lam) * exx

        def exact(x):
            return np.column_stack([exx * (x[:, 0] - 1.6), eyy * (x[:, 1] - 0.25)])

        u = np.concatenate([interpolate(prob.spaces[0], exact),
                            interpolate(prob.spaces[1], exact)])
        diff = (A1 - A3) @ u
        assert np.abs(diff).max() < 1e-12 * max(1.0, np.abs(A1 @ u).max())


class TestSolve:
    def test_zero_load(self):
        setup, prob = small_problem("bending")
        prob = ContactProblem(spaces=prob.spaces, materials=prob.materials,
                              segments=prob.segments, body_loads=(None, None),
                              pins=prob.pins)
        res = solve(NitscheConfig(alpha=1e-2), prob)
        assert np.allclose(res.u, 0.0)
        assert not res.active.any()
        # the all-active initial guess needs one extra sweep to confirm itself
        assert res.iterations <= 2

    def test_pressing_full_contact(self):
        _, prob = small_problem("pressing", sweeps=2)
        res = solve(NitscheConfig(alpha=1e-2), prob)
        assert res.active.all()
        assert res.lam.min() >= 0.0

    def test_bending_partial_contact(self):
        _, prob = small_problem("bending", degree=2, sweeps=2)
        res = solve(NitscheConfig(alpha=1e-3), prob)
        assert res.active.any() and not res.active.all()
        assert res.lam.min() >= 0.0
        # contact localises at the upper part of the interface
        ys = res.data.points[:, 1]
        assert ys[res.active].min() > 0.4

    def test_active_set_idempotent(self):
        _, prob = small_problem("bending", sweeps=1)
        cfg = NitscheConfig(alpha=1e-2)
        res = solve(cfg, prob)
        again = lh_values(res.data, mortar(res.data, prob.materials, cfg), res.u) > 0
        assert np.array_equal(again, res.active)

    def test_nonconvergence_carries_history(self, monkeypatch):
        _, prob = small_problem("bending", sweeps=1)
        monkeypatch.setattr(contact, "MAX_ITERATIONS", 1)
        with pytest.raises(NonconvergenceError) as err:
            solve(NitscheConfig(alpha=1e-2), prob)
        assert len(err.value.history) == 1

    def test_missing_constraints_raise(self):
        # vertical load with horizontal-only clamps and no pin: the free
        # vertical rigid mode makes the system unsolvable
        setup, prob = small_problem("pressing")
        vertical = lambda x: np.column_stack([np.zeros(len(x)), -0.05 * np.ones(len(x))])
        loose = ContactProblem(spaces=prob.spaces, materials=prob.materials,
                               segments=prob.segments, body_loads=(vertical, None),
                               pins=())
        with pytest.raises(SolverError):
            solve(NitscheConfig(alpha=1e-2), loose)

    def test_drop_toggle_changes_solution_slightly(self):
        _, prob = small_problem("bending", degree=1, sweeps=1)
        r1 = solve(NitscheConfig(alpha=1e-2, drop_inactive_terms=True), prob)
        r2 = solve(NitscheConfig(alpha=1e-2, drop_inactive_terms=False), prob)
        scale = energy_norm(prob, r1.u)
        d = energy_norm(prob, r1.u - r2.u) / scale
        assert 0 < d < 0.05
        assert r2.lam.min() >= 0.0


class TestWarmStart:
    def test_nearest_sample_along_interface(self):
        start = np.array([[1.0, 0.0], [1.0, 1.0]])
        points = np.array([[1.0, 0.2], [1.0, 0.5], [1.0, 0.9], [1.0, 1.4]])
        got = transfer_active(points, start, np.array([True, False]))
        assert list(got) == [True, True, False, False]
        # an exact tie goes to the lower start index, wherever it lies
        got = transfer_active(points, start[::-1], np.array([False, True]))
        assert list(got) == [True, False, False, False]

    def test_own_converged_samples_settle_in_one_iteration(self):
        _, prob = small_problem("bending", degree=2, sweeps=2)
        cfg = NitscheConfig(alpha=1e-3)
        cold = solve(cfg, prob)
        assert cold.iterations > 1
        warm = solve(cfg, prob, start=(cold.data.points, cold.active))
        assert warm.iterations == 1
        assert np.array_equal(warm.active, cold.active)
        assert np.allclose(warm.u, cold.u, rtol=0.0, atol=1e-12 * np.abs(cold.u).max())

    def test_start_length_mismatch(self):
        _, prob = small_problem("bending")
        data = build_interface_data(prob)
        start = (data.points, np.ones(data.num_samples - 1, dtype=bool))
        with pytest.raises(ValueError, match="start indicator"):
            solve(NitscheConfig(alpha=1e-2), prob, start=start)


class TestEquilibrium:
    @pytest.mark.parametrize("variant", ["weighted", "master-slave", "juntunen"])
    def test_contact_force_balances_load_and_reaction(self, variant):
        # x-equilibrium of body 1: the interface pressure integral equals
        # the applied horizontal load plus the clamped-wall reaction
        _, prob = small_problem("pressing", sweeps=2)
        cfg = NitscheConfig(variant=variant, alpha=1e-2)
        res = solve(cfg, prob)
        A0, b = bulk_system(prob)
        A = A0 + assemble_nitsche(res.data, mortar(res.data, prob.materials, cfg), cfg,
                                  res.active, prob.num_dofs)
        r = A @ res.u - b
        fixed1 = dirichlet_mask(prob.spaces[0])
        wall_x = np.flatnonzero(fixed1 & (np.arange(prob.spaces[0].num_dofs) % 2 == 0))
        reaction = r[wall_x].sum()
        force = contact_force(res)
        assert force == pytest.approx(0.0625 + reaction, abs=1e-12)

    def test_contact_force_stabilises_under_refinement(self):
        forces = []
        for sweeps in (0, 2, 4):
            _, prob = small_problem("pressing", sweeps=sweeps)
            res = solve(NitscheConfig(alpha=1e-2), prob)
            forces.append(contact_force(res))
        assert abs(forces[2] - forces[1]) < abs(forces[1] - forces[0])


class TestMasterSlave:
    def test_relabels_when_body2_stiffer(self):
        _, prob = small_problem("pressing", e2=100.0)
        data = build_interface_data(prob)
        cfg = NitscheConfig(variant="master-slave", alpha=1e-2)
        assert mortar(data, prob.materials, cfg).traction == (1.0, 0.0)  # softer body is mortared
        res = solve(cfg, prob)
        assert res.lam.min() >= 0.0

    def test_swap_symmetry_with_equal_materials(self):
        # relabelling ties must not change the solution; requires a problem
        # whose discrete data are exactly mirror symmetric, so the second
        # block is the reflected copy of the first
        from nitsche_contact.mesh import (
            CONTACT, DIRICHLET, NEUMANN, BoundaryRule, BoundarySpec,
            _make_mesh, classify_boundary, generate_block_mesh,
        )

        L, H, n = 0.6, 0.5, 3
        left = generate_block_mesh((-L, 0.0, 0.0, H), n, n, body_id=1)
        right_vertices = left.vertices * np.array([-1.0, 1.0])
        right_triangles = left.triangles[:, [0, 2, 1]]  # keep orientation
        right = _make_mesh(right_vertices, right_triangles, 2, (0.0, L, 0.0, H))

        def rules(x_clamp):
            return BoundarySpec(rules=(
                BoundaryRule("clamp", DIRICHLET,
                             lambda m, v=x_clamp: np.abs(m[:, 0] - v) < 1e-9,
                             components=(0,)),
                BoundaryRule("free", NEUMANN,
                             lambda m: (np.abs(m[:, 1]) < 1e-9) | (np.abs(m[:, 1] - H) < 1e-9)),
                BoundaryRule("interface", CONTACT,
                             lambda m: np.abs(m[:, 0]) < 1e-9),
            ))

        left = classify_boundary(left, rules(-L))
        right = classify_boundary(right, rules(L))
        push_r = lambda x: np.column_stack([np.ones(len(x)), np.zeros(len(x))])
        push_l = lambda x: np.column_stack([-np.ones(len(x)), np.zeros(len(x))])
        mats = (MAT, MAT)
        cfg = NitscheConfig(variant="master-slave", alpha=1e-2)

        prob = ContactProblem.build(
            left, right, 1, mats, build_interface(left, right),
            body_loads=(push_r, push_l),
            pins=((1, (-L, 0.0), 1), (2, (L, 0.0), 1)),
        )
        res = solve(cfg, prob)

        swapped = ContactProblem.build(
            right, left, 1, mats, build_interface(right, left),
            body_loads=(push_l, push_r),
            pins=((1, (L, 0.0), 1), (2, (-L, 0.0), 1)),
        )
        res_swapped = solve(cfg, swapped)

        assert res.active.all() and res_swapped.active.all()
        assert contact_force(res_swapped) == pytest.approx(contact_force(res), rel=1e-10)
        order_a = np.argsort(res.data.points[:, 1], kind="stable")
        order_b = np.argsort(res_swapped.data.points[:, 1], kind="stable")
        assert np.allclose(res.lam[order_a], res_swapped.lam[order_b],
                           rtol=1e-9, atol=1e-12)
