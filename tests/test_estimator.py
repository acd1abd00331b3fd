import numpy as np
import pytest

from nitsche_contact.adapt import initial_meshes, make_experiment, make_problem
from nitsche_contact.contact import (
    NitscheConfig,
    SolveResult,
    build_interface_data,
    lh_values,
    mortar,
    solve,
)
from nitsche_contact.estimator import (
    contact_facet_estimator,
    element_estimator,
    interior_facet_estimator,
    neumann_facet_estimator,
    oscillation,
    report,
    stress_divergence,
    vertex_stresses,
)
from nitsche_contact.fem import (
    FeSpace,
    FieldFunction,
    MaterialParams,
    interpolate,
    strain,
    stress,
)
from nitsche_contact.mesh import uniform_refine

from test_batching import reference_contact_estimator
from test_mesh import body1_mesh

MAT = MaterialParams.from_young(1.0, 0.3)


def contact_pair(degree=1, res=((2, 2), (3, 4)), experiment="pressing", sweeps=0):
    setup = make_experiment(experiment)
    m1, m2 = initial_meshes(setup, res)
    m1 = uniform_refine(m1, sweeps)
    m2 = uniform_refine(m2, sweeps)
    return setup, make_problem(setup, m1, m2, degree)


def synthetic_result(problem, u, config=None, lam=None):
    config = config or NitscheConfig(alpha=1e-2)
    data = build_interface_data(problem)
    m = mortar(data, problem.materials, config)
    if lam is None:
        lam = np.maximum(lh_values(data, m, u), 0.0)
    active = lam > 0
    return SolveResult(problem=problem, config=config, data=data, mortar=m, u=u,
                       active=active, lam=lam, iterations=1)


class TestElement:
    def test_p1_zero_load(self):
        space = FeSpace.build(body1_mesh(2, 2), 1)
        rng = np.random.RandomState(0)
        eta = element_estimator(space, MAT, rng.randn(space.num_dofs), None)
        assert np.allclose(eta, 0.0)

    def test_p1_constant_load_value(self):
        space = FeSpace.build(body1_mesh(2, 3), 1)
        f = lambda x: np.column_stack([np.ones(len(x)), np.zeros(len(x))])
        eta = element_estimator(space, MAT, np.zeros(space.num_dofs), f)
        hK = space.mesh.triangle_diameters()
        areas = space.mesh.signed_areas()
        assert np.allclose(eta, hK**2 * areas / MAT.mu, rtol=1e-12)

    def test_p2_manufactured_residual_vanishes(self):
        space = FeSpace.build(body1_mesh(2, 2), 2)
        coeffs = interpolate(
            space, lambda x: np.column_stack([x[:, 0] ** 2 + x[:, 1] * x[:, 0],
                                              x[:, 1] ** 2 - 0.5 * x[:, 0] ** 2])
        )
        div = stress_divergence(space, MAT, coeffs)
        f = lambda x, d=div: -np.repeat(d[:1], len(x), axis=0)
        # div sigma = (4 mu + 2 lam, 4 mu + 3 lam) on every element
        expect = [4 * MAT.mu + 2 * MAT.lam, 4 * MAT.mu + 3 * MAT.lam]
        assert np.allclose(div, expect, rtol=0, atol=1e-12)
        eta = element_estimator(space, MAT, coeffs, f)
        assert np.abs(eta).max() < 1e-24


class TestInteriorFacets:
    def test_linear_field_no_jumps(self):
        for p in (1, 2):
            space = FeSpace.build(body1_mesh(2, 2), p)
            coeffs = interpolate(space, lambda x: np.column_stack(
                [0.3 * x[:, 0] - 0.1 * x[:, 1], 0.2 * x[:, 1]]))
            eta = interior_facet_estimator(space, MAT, vertex_stresses(space, MAT, coeffs))
            assert np.abs(eta).max() < 1e-26

    @pytest.mark.parametrize("degree", [1, 2])
    def test_matches_dense_quadrature_oracle(self, degree):
        space = FeSpace.build(body1_mesh(2, 2), degree)
        rng = np.random.RandomState(3)
        coeffs = rng.randn(space.num_dofs)
        field = FieldFunction(space, coeffs)
        eta = interior_facet_estimator(space, MAT, vertex_stresses(space, MAT, coeffs))
        mesh = space.mesh
        xs, ws = np.polynomial.legendre.leggauss(12)
        xs = 0.5 * (xs + 1.0)
        ws = 0.5 * ws
        for f in range(mesh.num_facets):
            t2 = mesh.facet_triangles[f, 1]
            if t2 < 0:
                continue
            a = mesh.vertices[mesh.facets[f, 0]]
            b = mesh.vertices[mesh.facets[f, 1]]
            length = np.hypot(*(b - a))
            n = np.array([(b - a)[1], -(b - a)[0]]) / length
            pts = a[None, :] + xs[:, None] * (b - a)[None, :]
            val = 0.0
            for q, wq in zip(pts, ws):
                tr = []
                for t in mesh.facet_triangles[f]:
                    ref = space.ref_coords(int(t), q)[0]
                    eps = strain(field, int(t), ref)
                    tr.append(stress(MAT, eps) @ n)
                jump = tr[0] - tr[1]
                val += wq * (jump @ jump)
            expect = length / MAT.mu * val * length
            assert eta[f] == pytest.approx(expect, rel=1e-10, abs=1e-14)


class TestNeumannFacets:
    def test_zero_field(self):
        space = FeSpace.build(body1_mesh(2, 2), 1)
        sig = vertex_stresses(space, MAT, np.zeros(space.num_dofs))
        eta = neumann_facet_estimator(space, MAT, sig)
        assert np.allclose(eta, 0.0)

    def test_aligned_uniaxial_stress_free_facets(self):
        # sigma = diag(s, 0): top/bottom facets are traction free
        space = FeSpace.build(body1_mesh(3, 2), 1)
        exx, eyy = 1.0, -MAT.lam / (2 * MAT.mu + MAT.lam)
        coeffs = interpolate(space, lambda x: np.column_stack(
            [exx * x[:, 0], eyy * x[:, 1]]))
        eta = neumann_facet_estimator(space, MAT, vertex_stresses(space, MAT, coeffs))
        mids = space.mesh.facet_midpoints()
        for f in space.mesh.facets_of_kind("neumann"):
            if abs(mids[f, 1] - 0.25) < 1e-9 or abs(mids[f, 1] - 0.75) < 1e-9:
                assert eta[f] < 1e-28

    @pytest.mark.parametrize("degree", [1, 2])
    def test_matches_dense_quadrature_oracle(self, degree):
        space = FeSpace.build(body1_mesh(2, 2), degree)
        rng = np.random.RandomState(5)
        coeffs = rng.randn(space.num_dofs)
        field = FieldFunction(space, coeffs)
        eta = neumann_facet_estimator(space, MAT, vertex_stresses(space, MAT, coeffs))
        mesh = space.mesh
        xs, ws = np.polynomial.legendre.leggauss(12)
        xs = 0.5 * (xs + 1.0)
        ws = 0.5 * ws
        for f in mesh.facets_of_kind("neumann"):
            a = mesh.vertices[mesh.facets[f, 0]]
            b = mesh.vertices[mesh.facets[f, 1]]
            length = np.hypot(*(b - a))
            t = int(mesh.facet_triangles[f, 0])
            cent = mesh.vertices[mesh.triangles[t]].mean(axis=0)
            n = np.array([(b - a)[1], -(b - a)[0]]) / length
            if n @ (0.5 * (a + b) - cent) < 0:
                n = -n
            val = 0.0
            for q, wq in zip(a[None, :] + xs[:, None] * (b - a)[None, :], ws):
                ref = space.ref_coords(t, q)[0]
                tr = stress(MAT, strain(field, t, ref)) @ n
                val += wq * (tr @ tr)
            expect = length / MAT.mu * val * length
            assert eta[f] == pytest.approx(expect, rel=1e-10, abs=1e-14)


class TestContactFacets:
    def test_exact_contact_state_vanishes(self):
        # converged flat-compression solve: every contact term is zero
        setup, prob = contact_pair(experiment="patch", res=((2, 3), (3, 4)))
        res = solve(NitscheConfig(variant="juntunen", alpha=1e-2), prob)
        contact2, S2 = contact_facet_estimator(res)
        assert sum(a.sum() for a in contact2) < 1e-22
        # S^2 is linear in the rounding-level gap, so its floor is ~1e-17
        assert S2 < 1e-15

    def test_pure_interpenetration_value(self):
        # rigid overlap with zero pressure input: only the penetration
        # term survives, (mu_i / h_E) * delta^2 * |E| per parent facet
        _, prob = contact_pair()
        delta = 1e-2
        u = np.zeros(prob.num_dofs)
        u[0:prob.spaces[0].num_dofs:2] = delta
        res = synthetic_result(prob, u, lam=np.zeros(build_interface_data(prob).num_samples))
        contact2, S2 = contact_facet_estimator(res)
        assert S2 == pytest.approx(0.0, abs=1e-30)
        for i in range(2):
            mesh = prob.spaces[i].mesh
            mu = prob.materials[i].mu
            lengths = mesh.facet_lengths()
            for f in mesh.facets_of_kind("contact"):
                expect = mu / lengths[f] * delta**2 * lengths[f]
                assert contact2[i][f] == pytest.approx(expect, rel=1e-12)

    def test_opening_with_pressure_gives_S(self):
        # rigid separation plus a fictitious uniform pressure: S^2 = delta * c * |Gamma|
        _, prob = contact_pair()
        delta, c = 2e-3, 0.7
        u = np.zeros(prob.num_dofs)
        u[0:prob.spaces[0].num_dofs:2] = -delta
        data = build_interface_data(prob)
        res = synthetic_result(prob, u, lam=np.full(data.num_samples, c))
        _, S2 = contact_facet_estimator(res)
        assert S2 == pytest.approx(delta * c * 0.5, rel=1e-12)

    def test_tangential_term_detects_shear(self):
        _, prob = contact_pair()
        u = np.concatenate([
            interpolate(prob.spaces[0], lambda x: np.column_stack(
                [np.zeros(len(x)), 0.1 * (x[:, 0] - 0.5)])),
            np.zeros(prob.spaces[1].num_dofs),
        ])
        res = synthetic_result(prob, u, lam=np.zeros(build_interface_data(prob).num_samples))
        contact2, _ = contact_facet_estimator(res)
        assert contact2[0].sum() > 0


class TestOscillation:
    def test_constant_and_linear_are_resolved(self):
        for p in (1, 2):
            space = FeSpace.build(body1_mesh(2, 2), p)
            osc = oscillation(space, lambda x: np.tile([2.0, -1.0], (len(x), 1)))
            assert np.abs(osc).max() < 1e-14
            osc_lin = oscillation(space, lambda x: np.column_stack(
                [x[:, 0] - 0.5, np.zeros(len(x))]))
            assert np.abs(osc_lin).max() < 1e-14

    def test_smooth_data_slopes(self):
        # cosine data, linear elements: the projection error decays at
        # second order, the h-weighted oscillation at third
        f = lambda x: np.column_stack([-np.cos(4 * np.pi * (x[:, 1] - 0.5)),
                                       np.zeros(len(x))])
        proj_err = []
        osc_tot = []
        hs = []
        mesh = body1_mesh(2, 2)
        for _ in range(5):
            space = FeSpace.build(mesh, 1)
            osc = oscillation(space, f)
            hK = mesh.triangle_diameters()
            osc_tot.append(np.sqrt((osc**2).sum()))
            proj_err.append(np.sqrt(((osc / hK) ** 2).sum()))
            hs.append(hK.max())
            mesh = uniform_refine(mesh, 2)
        # fit where the data oscillation is resolved by the mesh
        slope_proj = np.polyfit(np.log(hs[-3:]), np.log(proj_err[-3:]), 1)[0]
        slope_osc = np.polyfit(np.log(hs[-3:]), np.log(osc_tot[-3:]), 1)[0]
        assert slope_proj == pytest.approx(2.0, abs=0.3)
        assert slope_osc == pytest.approx(3.0, abs=0.3)


class TestReport:
    def test_additivity_and_aggregate(self):
        _, prob = contact_pair(degree=2, sweeps=1)
        res = solve(NitscheConfig(variant="juntunen", alpha=1e-3), prob)
        rep = report(res)
        total = sum(rep.family_totals.values())
        assert rep.eta2 == total  # same summands by construction
        assert rep.aggregate.sum() == pytest.approx(rep.eta2, rel=1e-12)
        assert rep.aggregate.min() >= 0.0
        nt = prob.spaces[0].mesh.num_triangles + prob.spaces[1].mesh.num_triangles
        assert rep.aggregate.shape == (nt,)

    def test_zero_problem(self):
        setup, prob = contact_pair(experiment="pressing")
        from nitsche_contact.contact import ContactProblem
        quiet = ContactProblem(spaces=prob.spaces, materials=prob.materials,
                               segments=prob.segments, body_loads=(None, None),
                               pins=prob.pins)
        res = solve(NitscheConfig(alpha=1e-2), quiet)
        rep = report(res)
        assert rep.eta == 0.0
        assert rep.S == 0.0

    @pytest.mark.parametrize("scale", [0.5, 2.0, 10.0])
    def test_homogeneity_under_load_scaling(self, scale):
        setup, prob = contact_pair(degree=1, sweeps=1)
        base = solve(NitscheConfig(alpha=1e-2), prob)
        rep0 = report(base)

        scaled_setup = make_experiment("pressing")
        load = lambda x, s=scale: s * scaled_setup.load1(x)
        st = scaled_setup.__class__(**{**scaled_setup.__dict__, "load1": load})
        m1, m2 = prob.spaces[0].mesh, prob.spaces[1].mesh
        prob2 = make_problem(st, m1, m2, 1)
        res2 = solve(NitscheConfig(alpha=1e-2), prob2)
        rep2 = report(res2)
        assert rep2.eta == pytest.approx(scale * rep0.eta, rel=1e-10)
        assert rep2.S == pytest.approx(scale * rep0.S, rel=1e-10)

    def test_facet_quadrature_consistency(self):
        # polynomial traces with sign-definite gap: the segment-loop
        # reference at a doubled facet rule must give every facet term
        _, prob = contact_pair(degree=2)
        rng = np.random.RandomState(11)
        smooth = 1e-3 * rng.randn(prob.num_dofs)
        u = smooth.copy()
        u[0:prob.spaces[0].num_dofs:2] += 0.05  # keep the gap single-signed
        data = build_interface_data(prob)
        cfg = NitscheConfig(variant="weighted", alpha=1e-2)
        lam = np.maximum(lh_values(data, mortar(data, prob.materials, cfg), u), 0.0)
        res = synthetic_result(prob, u, config=cfg, lam=lam)

        base_contact, base_S2 = contact_facet_estimator(res)
        fine_contact, fine_S2 = reference_contact_estimator(res, n_gauss=2 * data.n_per_seg)
        for i in range(2):
            nz = base_contact[i] > 0
            assert np.allclose(fine_contact[i][nz], base_contact[i][nz], rtol=1e-10)
        assert fine_S2 == pytest.approx(base_S2, rel=1e-10, abs=1e-26)
