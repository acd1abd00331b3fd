import math

import numpy as np
import pytest

from nitsche_contact.fem import (
    FeSpace,
    FieldFunction,
    MaterialParams,
    assemble_boundary_load,
    assemble_bulk,
    assemble_load,
    dirichlet_mask,
    elastic_moduli_rows,
    expand,
    fixed_pattern,
    gauss1d,
    interpolate,
    scatter,
    shape_gradients,
    shape_values,
    strain,
    stress,
    triangle_rule,
)
from nitsche_contact.adapt import initial_meshes, make_experiment
from nitsche_contact.mesh import (
    DIRICHLET,
    NEUMANN,
    BoundaryRule,
    BoundarySpec,
    classify_boundary,
    uniform_refine,
)

from test_mesh import body1_mesh


STEEL_LIKE = MaterialParams.from_young(1.0, 0.3)


def field_from(space, func):
    return FieldFunction(space, interpolate(space, func))


class TestMaterial:
    def test_plane_strain_lame(self):
        m = STEEL_LIKE
        assert m.mu == pytest.approx(0.38461538461538464, rel=1e-14)
        assert m.lam == pytest.approx(0.5769230769230769, rel=1e-14)

    def test_rejects_near_incompressible(self):
        with pytest.raises(ValueError):
            MaterialParams.from_young(1.0, 0.49)

    @pytest.mark.parametrize("E", [np.inf, np.nan, 0.0, -1.0])
    def test_rejects_nonpositive_or_nonfinite_modulus(self, E):
        with pytest.raises(ValueError, match="Young's modulus"):
            MaterialParams.from_young(E, 0.3)


class TestQuadrature:
    @pytest.mark.parametrize("degree", [1, 2, 4, 6])
    def test_monomial_exactness(self, degree):
        pts, w = triangle_rule(degree)
        for i in range(degree + 1):
            for j in range(degree + 1 - i):
                # exact integral of x^i y^j over the reference triangle
                exact = (
                    math.factorial(i) * math.factorial(j)
                    / math.factorial(i + j + 2)
                )
                got = (w * pts[:, 0] ** i * pts[:, 1] ** j).sum()
                assert got == pytest.approx(exact, rel=1e-13), (degree, i, j)

    def test_gauss1d(self):
        x, w = gauss1d(3)
        for k in range(6):
            assert (w * x**k).sum() == pytest.approx(1.0 / (k + 1), rel=1e-13)


class TestBasis:
    def test_partition_of_unity_p1(self):
        pts, _ = triangle_rule(4)
        assert np.allclose(shape_values(1, pts).sum(axis=1), 1.0, atol=1e-14)

    def test_partition_of_unity_p2(self):
        pts, _ = triangle_rule(4)
        assert np.allclose(shape_values(2, pts).sum(axis=1), 1.0, atol=1e-13)

    def test_p2_reproduces_quadratics(self):
        space = FeSpace.build(body1_mesh(2, 2), 2)
        f = field_from(space, lambda x: np.column_stack([x[:, 0] ** 2, x[:, 0] * x[:, 1]]))
        rng = np.random.RandomState(0)
        for t in rng.choice(space.mesh.num_triangles, 5):
            ref = rng.rand(4, 2) * 0.4
            xs = space.global_points(ref)[t]
            vals = f.element_values(t, ref)
            assert np.allclose(vals[:, 0], xs[:, 0] ** 2, atol=1e-12)
            assert np.allclose(vals[:, 1], xs[:, 0] * xs[:, 1], atol=1e-12)

    def test_dof_counts(self):
        m = body1_mesh(2, 3)
        assert FeSpace.build(m, 1).num_dofs == 2 * m.num_vertices
        assert FeSpace.build(m, 2).num_dofs == 2 * (m.num_vertices + m.num_facets)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_cell_dofs_interleave_the_components(self, degree):
        space = FeSpace.build(body1_mesh(2, 3), degree)
        dofs = space.cell_dofs
        assert dofs is space.cell_dofs and not dofs.flags.writeable
        assert dofs.shape == (space.mesh.num_triangles, 2 * space.nodes_per_cell)
        for t, nodes in enumerate(space.cell_nodes):
            assert list(dofs[t]) == [2 * n + c for n in nodes for c in (0, 1)]


class TestStrainStress:
    def test_linear_field(self):
        space = FeSpace.build(body1_mesh(), 1)
        f = field_from(space, lambda x: np.column_stack([x[:, 0], 0 * x[:, 1]]))
        eps = strain(f, 0, (0.3, 0.3))
        assert np.allclose(eps, [[1, 0], [0, 0]], atol=1e-14)

    def test_zero_field(self):
        space = FeSpace.build(body1_mesh(), 1)
        f = FieldFunction(space, np.zeros(space.num_dofs))
        assert np.allclose(strain(f, 2, (0.2, 0.1)), 0.0)

    def test_shear_field(self):
        space = FeSpace.build(body1_mesh(), 2)
        f = field_from(space, lambda x: np.column_stack([x[:, 1], x[:, 0]]))
        eps = strain(f, 1, (0.25, 0.5))
        assert np.allclose(eps, [[0, 1], [1, 0]], atol=1e-13)

    def test_stress_zero(self):
        assert np.allclose(stress(STEEL_LIKE, np.zeros((2, 2))), 0.0)

    def test_stress_identity(self):
        s = stress(STEEL_LIKE, np.eye(2))
        expect = (2 * STEEL_LIKE.mu + 2 * STEEL_LIKE.lam) * np.eye(2)
        assert np.allclose(s, expect, rtol=1e-14)
        assert s[0, 0] == pytest.approx(1.9230769230769231, rel=1e-13)

    def test_stress_traceless(self):
        eps = np.array([[1.0, 0.0], [0.0, -1.0]])
        assert np.allclose(stress(STEEL_LIKE, eps), 2 * STEEL_LIKE.mu * eps, rtol=1e-14)

    def test_stress_of_a_stack_equals_each_tensor(self):
        eps = np.random.default_rng(4).standard_normal((3, 5, 2, 2))
        eps = eps + np.swapaxes(eps, -1, -2)
        sig = stress(STEEL_LIKE, eps)
        assert sig.shape == eps.shape
        for idx in np.ndindex(eps.shape[:2]):
            assert np.array_equal(sig[idx], stress(STEEL_LIKE, eps[idx]))

    def test_stress_of_a_gradient_is_stress_of_its_strain(self):
        grad = np.random.default_rng(5).standard_normal((4, 2, 2))
        eps = 0.5 * (grad + np.swapaxes(grad, -1, -2))
        assert np.allclose(stress(STEEL_LIKE, grad), stress(STEEL_LIKE, eps), rtol=0, atol=1e-14)

    def test_stress_linearity(self):
        rng = np.random.RandomState(1)
        e1 = rng.randn(2, 2)
        e1 = 0.5 * (e1 + e1.T)
        e2 = rng.randn(2, 2)
        e2 = 0.5 * (e2 + e2.T)
        a, b = 1.7, -0.3
        assert np.allclose(
            stress(STEEL_LIKE, a * e1 + b * e2),
            a * stress(STEEL_LIKE, e1) + b * stress(STEEL_LIKE, e2),
            atol=1e-14,
        )


class TestElasticModuliRows:
    @pytest.mark.parametrize("degree", [1, 2])
    def test_rows_are_the_traction_of_each_unit_dof(self, degree):
        space = FeSpace.build(body1_mesh(2, 2), degree)
        rng = np.random.default_rng(degree)
        for t in rng.choice(space.mesh.num_triangles, size=3, replace=False):
            ref = rng.dirichlet(np.ones(3), size=4)[:, 1:]        # points inside the triangle
            th = rng.uniform(0.0, 2 * np.pi)
            n = np.array([np.cos(th), np.sin(th)])
            g = shape_gradients(degree, ref) @ space.geometry()[1][t]
            snn, trac = elastic_moduli_rows(g, n, STEEL_LIKE)
            nodes = space.cell_nodes[t]
            for j in range(2 * space.nodes_per_cell):
                unit = np.zeros(space.num_dofs)
                unit[2 * nodes[j // 2] + j % 2] = 1.0
                field = FieldFunction(space, unit)
                for q in range(len(ref)):
                    expect = stress(STEEL_LIKE, strain(field, t, ref[q])) @ n
                    assert np.allclose(trac[q, j], expect, rtol=0.0, atol=1e-12)
                    assert snn[q, j] == pytest.approx(expect @ n, rel=1e-12, abs=1e-12)


class TestBulk:
    def test_rigid_modes_have_zero_energy(self):
        for p in (1, 2):
            space = FeSpace.build(body1_mesh(2, 2), p)
            K = assemble_bulk(space, STEEL_LIKE)
            for mode in (
                lambda x: np.column_stack([np.ones(len(x)), np.zeros(len(x))]),
                lambda x: np.column_stack([np.zeros(len(x)), np.ones(len(x))]),
                lambda x: np.column_stack([-x[:, 1], x[:, 0]]),
            ):
                w = interpolate(space, mode)
                assert abs(w @ (K @ w)) < 1e-13

    def test_patch_energy(self):
        for p in (1, 2):
            space = FeSpace.build(body1_mesh(3, 2), p)
            K = assemble_bulk(space, STEEL_LIKE)
            w = interpolate(space, lambda x: np.column_stack([x[:, 0], 0 * x[:, 1]]))
            expect = (2 * STEEL_LIKE.mu + STEEL_LIKE.lam) * 0.25
            assert w @ (K @ w) == pytest.approx(expect, rel=1e-13)

    def test_positive_semidefinite(self):
        space = FeSpace.build(body1_mesh(2, 2), 2)
        K = assemble_bulk(space, STEEL_LIKE)
        rng = np.random.RandomState(3)
        for _ in range(20):
            w = rng.randn(space.num_dofs)
            assert w @ (K @ w) >= -1e-12

    def test_symmetry(self):
        space = FeSpace.build(body1_mesh(2, 3), 2)
        K = assemble_bulk(space, STEEL_LIKE)
        d = abs(K - K.T).max()
        assert d < 1e-12 * abs(K).max()

    def test_quadrature_saturation(self):
        # raising the rule two degrees must not change the entries; the
        # default rule (None) is exact, degree 2 (p - 1)
        for p, qd, higher in ((1, 2, 4), (2, 4, 6), (1, None, 2), (2, None, 4)):
            space = FeSpace.build(body1_mesh(2, 2), p)
            K1 = assemble_bulk(space, STEEL_LIKE, quad_degree=qd)
            K2 = assemble_bulk(space, STEEL_LIKE, quad_degree=higher)
            scale = abs(K1).max()
            assert abs(K1 - K2).max() < 1e-12 * scale

    @pytest.mark.parametrize("degree", [1, 2])
    def test_entries_are_the_energy_of_unit_dof_pairs(self, degree):
        # K_ij = int sigma(u_i) : eps(u_j) over the elements sharing both dofs,
        # from unit-dof fields and the single-tensor law at a degree-6 rule
        space = FeSpace.build(body1_mesh(2, 2), degree)
        K = assemble_bulk(space, STEEL_LIKE).toarray()
        pts, w = triangle_rule(6)
        det = space.geometry()[2]
        rng = np.random.default_rng(degree)
        for t in rng.choice(space.mesh.num_triangles, size=3, replace=False):
            nodes = space.cell_nodes[t]
            dofs = np.stack([2 * nodes, 2 * nodes + 1], axis=1).ravel()
            for i, j in rng.choice(len(dofs), size=(4, 2)):
                u = []
                for d in (dofs[i], dofs[j]):
                    unit = np.zeros(space.num_dofs)
                    unit[d] = 1.0
                    u.append(FieldFunction(space, unit))
                shared = [s for s, cell in enumerate(space.cell_nodes)
                          if {dofs[i] // 2, dofs[j] // 2} <= set(cell)]
                expect = sum(det[s] * wq * np.sum(stress(STEEL_LIKE, strain(u[0], s, x))
                                                  * strain(u[1], s, x))
                             for s in shared for x, wq in zip(pts, w))
                assert K[dofs[i], dofs[j]] == pytest.approx(expect, rel=1e-12, abs=1e-14)


class TestScatter:
    def test_sums_the_blocks(self):
        dofs = np.array([[0, 2, 1], [2, 4, 3], [1, 3, 0]])
        blocks = np.random.default_rng(0).standard_normal((3, 3, 3))
        expect = np.zeros((5, 5))
        for block, d in zip(blocks, dofs):
            expect[np.ix_(d, d)] += block
        K = scatter(blocks, dofs, 5)
        assert K.format == "csr"
        assert np.allclose(K.toarray(), expect, rtol=1e-15, atol=0.0)


class TestLoad:
    def test_zero(self):
        space = FeSpace.build(body1_mesh(), 1)
        b = assemble_load(space, lambda x: np.zeros_like(x))
        assert np.allclose(b, 0.0)

    def test_constant_partition_of_unity(self):
        for p in (1, 2):
            space = FeSpace.build(body1_mesh(2, 2), p)
            b = assemble_load(space, lambda x: np.column_stack([np.ones(len(x)), np.zeros(len(x))]))
            assert b[0::2].sum() == pytest.approx(0.25, rel=1e-13)
            assert abs(b[1::2].sum()) < 1e-15

    def test_linear_load_total(self):
        space = FeSpace.build(body1_mesh(3, 3), 1)
        b = assemble_load(space, lambda x: np.column_stack([x[:, 0] - 0.5, np.zeros(len(x))]))
        assert b[0::2].sum() == pytest.approx(0.0625, rel=1e-13)


class TestBoundaryLoad:
    def test_uniform_traction_total(self):
        rules = (
            BoundaryRule(
                "pull", NEUMANN,
                lambda m: np.abs(m[:, 0] - 0.5) < 1e-9,
                traction=lambda x: np.tile([2.0, 0.0], (len(x), 1)),
            ),
            BoundaryRule("rest", NEUMANN, lambda m: np.abs(m[:, 0] - 0.5) >= 1e-9),
        )
        from nitsche_contact.mesh import generate_block_mesh

        m = generate_block_mesh((0.5, 1.0, 0.25, 0.75), 2, 2)
        m = classify_boundary(m, BoundarySpec(rules))
        for p in (1, 2):
            space = FeSpace.build(m, p)
            b = assemble_boundary_load(space)
            # resultant = traction times the loaded edge length
            assert b[0::2].sum() == pytest.approx(2.0 * 0.5, rel=1e-13)
            assert abs(b[1::2].sum()) < 1e-14


    @pytest.mark.parametrize("degree", [1, 2])
    def test_linear_traction_work(self, degree):
        # b . v is the work of g = (y, x) on the loaded edge x = 0.5 against
        # the interpolated v = (y, 0): the integral of y^2 over [0.25, 0.75]
        rules = (
            BoundaryRule("pull", NEUMANN, lambda m: np.abs(m[:, 0] - 0.5) < 1e-9,
                         traction=lambda x: x[:, ::-1].copy()),
            BoundaryRule("rest", NEUMANN, lambda m: np.abs(m[:, 0] - 0.5) >= 1e-9),
        )
        from nitsche_contact.mesh import generate_block_mesh

        m = generate_block_mesh((0.5, 1.0, 0.25, 0.75), 2, 3)
        m = classify_boundary(m, BoundarySpec(rules))
        space = FeSpace.build(m, degree)
        v = interpolate(space, lambda x: np.column_stack([x[:, 1], np.zeros(len(x))]))
        work = assemble_boundary_load(space) @ v
        assert work == pytest.approx((0.75**3 - 0.25**3) / 3, rel=1e-13)


class TestDirichlet:
    def test_all_fixed_solution_zero(self):
        space = FeSpace.build(body1_mesh(), 1)
        K = assemble_bulk(space, STEEL_LIKE)
        fixed = np.ones(space.num_dofs, dtype=bool)
        add, free = fixed_pattern(K, space.cell_dofs[:1], fixed)
        assert free.size == 0
        Kf = add(np.ones((1, space.cell_dofs.shape[1] ** 2)))
        assert Kf.shape == (0, 0) and Kf.nnz == 0
        u = expand(np.zeros(0), free, space.num_dofs)
        assert np.allclose(u, 0.0)

    def test_component_mask(self):
        space = FeSpace.build(body1_mesh(2, 2), 1)
        fixed = dirichlet_mask(space)
        mids = space.mesh.vertices
        on_wall = np.abs(mids[:, 0] - 0.5) < 1e-12
        # x constrained, y free on the clamped face
        assert np.all(fixed[2 * np.flatnonzero(on_wall)])
        assert not np.any(fixed[2 * np.flatnonzero(on_wall) + 1])
        assert not np.any(fixed[2 * np.flatnonzero(~on_wall)])

    def test_constrained_system_symmetric(self):
        space = FeSpace.build(body1_mesh(2, 2), 2)
        K = assemble_bulk(space, STEEL_LIKE)
        fixed = dirichlet_mask(space)
        add, free = fixed_pattern(K, space.cell_dofs, fixed)
        assert np.array_equal(free, np.flatnonzero(~fixed))
        blocks = np.random.default_rng(0).standard_normal((len(space.cell_dofs), 12, 12))
        Kf = add(blocks + blocks.swapaxes(1, 2))
        assert Kf.shape == (free.size, free.size)
        assert abs(Kf - Kf.T).max() < 1e-14

    @pytest.mark.parametrize("experiment", ["pressing", "bending", "patch"])
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("sweeps", [0, 1, 2])
    def test_mask_matches_facet_loop(self, experiment, degree, sweeps):
        for mesh in initial_meshes(make_experiment(experiment)):
            space = FeSpace.build(uniform_refine(mesh, sweeps), degree)
            assert np.array_equal(dirichlet_mask(space), reference_dirichlet_mask(space))


def reference_dirichlet_mask(space):
    """Dirichlet dofs by a loop over boundary facets, their nodes and the
    rule's components."""
    mesh = space.mesh
    fixed = np.zeros(space.num_dofs, dtype=bool)
    for f in mesh.boundary_facets():
        rule = mesh.boundary_spec.rules[mesh.facet_rule[f]]
        if rule.kind != DIRICHLET:
            continue
        nodes = list(mesh.facets[f])
        if space.degree == 2:
            nodes.append(mesh.num_vertices + f)
        for node in nodes:
            for comp in rule.components:
                fixed[2 * node + comp] = True
    return fixed
