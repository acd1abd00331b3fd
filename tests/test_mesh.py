import numpy as np
import pytest

from nitsche_contact.mesh import (
    CONTACT,
    DIRICHLET,
    NEUMANN,
    BoundaryRule,
    BoundarySpec,
    ClassificationError,
    GeometryError,
    _build_topology,
    audit_conformity,
    audit_interface,
    bisect_refine,
    build_interface,
    classify_boundary,
    dump_mesh,
    generate_block_mesh,
    parse_mesh,
    uniform_refine,
)


def block_spec(x_dirichlet, x_contact, y_lo, y_hi, contact_lo=None, contact_hi=None):
    """Boundary rules for an axis-aligned block with a vertical interface."""
    tol = 1e-9
    c_lo = y_lo if contact_lo is None else contact_lo
    c_hi = y_hi if contact_hi is None else contact_hi

    def on_dirichlet(m):
        return np.abs(m[:, 0] - x_dirichlet) < tol

    def on_contact(m):
        return (np.abs(m[:, 0] - x_contact) < tol) & (m[:, 1] > c_lo) & (m[:, 1] < c_hi)

    def on_neumann(m):
        horiz = (np.abs(m[:, 1] - y_lo) < tol) | (np.abs(m[:, 1] - y_hi) < tol)
        side = (np.abs(m[:, 0] - x_contact) < tol) & ~((m[:, 1] > c_lo) & (m[:, 1] < c_hi))
        return horiz | side

    return BoundarySpec(rules=(
        BoundaryRule("clamp", DIRICHLET, on_dirichlet, components=(0,)),
        BoundaryRule("free", NEUMANN, on_neumann),
        BoundaryRule("interface", CONTACT, on_contact),
    ))


def body1_mesh(nx=2, ny=2):
    m = generate_block_mesh((0.5, 1.0, 0.25, 0.75), nx, ny, body_id=1)
    return classify_boundary(m, block_spec(0.5, 1.0, 0.25, 0.75))


def body2_mesh(nx=3, ny=4):
    m = generate_block_mesh((1.0, 1.6, 0.0, 1.0), nx, ny, body_id=2)
    return classify_boundary(m, block_spec(1.6, 1.0, 0.0, 1.0, contact_lo=0.25, contact_hi=0.75))


class TestGenerate:
    def test_single_cell(self):
        m = generate_block_mesh((0.0, 1.0, 0.0, 1.0), 1, 1)
        assert m.num_vertices == 4
        assert m.num_triangles == 2

    def test_two_by_two(self):
        m = generate_block_mesh((0.5, 1.0, 0.25, 0.75), 2, 2)
        assert m.num_vertices == 9
        assert m.num_triangles == 8

    @pytest.mark.parametrize("nx,ny", [(1, 1), (2, 3), (5, 2), (4, 7)])
    def test_area(self, nx, ny):
        m = generate_block_mesh((0.5, 1.0, 0.25, 0.75), nx, ny)
        assert m.signed_areas().sum() == pytest.approx(0.25, rel=1e-14)
        assert np.all(m.signed_areas() > 0)

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            generate_block_mesh((0, 1, 0, 1), 0, 2)


class TestClassify:
    def test_block_tags(self):
        m = body1_mesh()
        mids = m.facet_midpoints()
        for f in m.facets_of_kind(DIRICHLET):
            assert mids[f, 0] == pytest.approx(0.5)
        for f in m.facets_of_kind(CONTACT):
            assert mids[f, 0] == pytest.approx(1.0)
        n_boundary = len(m.boundary_facets())
        tagged = sum(
            len(m.facets_of_kind(k)) for k in (DIRICHLET, NEUMANN, CONTACT)
        )
        assert tagged == n_boundary

    def test_interior_untagged(self):
        m = body1_mesh()
        interior = np.setdiff1d(np.arange(m.num_facets), m.boundary_facets())
        assert np.all(m.facet_rule[interior] == -1)

    def test_unmatched_facet_raises(self):
        m = generate_block_mesh((0.5, 1.0, 0.25, 0.75), 2, 2)
        spec = BoundarySpec(rules=(
            BoundaryRule("clamp", DIRICHLET, lambda p: np.abs(p[:, 0] - 0.5) < 1e-9),
        ))
        with pytest.raises(ClassificationError):
            classify_boundary(m, spec)


class TestInterface:
    def test_matching_meshes(self):
        m1 = body1_mesh(2, 2)
        m2 = body2_mesh(3, 4)
        iface = build_interface(m1, m2)
        assert len(iface) == 2
        assert iface.h == pytest.approx(np.full((2, 2), 0.25))
        assert iface.normal @ np.array([1.0, 0.0]) == pytest.approx(1.0)
        audit_interface(iface, m1, m2)

    def test_nonmatching_breakpoints(self):
        m1 = body1_mesh(2, 3)  # body-1 trace cut at 0.25 + k/6
        m2 = body2_mesh(3, 4)  # body-2 trace cut at 0.25 + k/4
        iface = build_interface(m1, m2)
        cuts = sorted(set(np.round(np.concatenate([iface.p0[:, 1], iface.p1[:, 1]]), 12)))
        expect = sorted({0.25, 0.25 + 1 / 6, 0.25 + 2 / 6, 0.75, 0.5} | {0.25, 0.5, 0.75})
        assert cuts == pytest.approx(expect)
        assert len(iface) == 4
        assert iface.lengths.sum() == pytest.approx(0.5, rel=1e-12)
        audit_interface(iface, m1, m2)

    def test_parent_diameters(self):
        # one facet [0.25, 0.75] against two facets split at 0.5
        m1 = body1_mesh(1, 1)
        m2 = body2_mesh(1, 4)
        iface = build_interface(m1, m2)
        assert len(iface) == 2
        assert set(np.round(iface.h[:, 0], 12)) == {0.5}
        assert set(np.round(iface.h[:, 1], 12)) == {0.25}

    def test_partially_overlapping_traces(self):
        # facet spanning y in [0.25, 0.5] against one spanning [0.4, 0.75]:
        # one segment [0.4, 0.5] carrying both parent diameters
        spec1 = block_spec(0.5, 1.0, 0.25, 0.5)
        m1 = classify_boundary(generate_block_mesh((0.5, 1.0, 0.25, 0.5), 1, 1, 1), spec1)
        spec2 = block_spec(1.6, 1.0, 0.4, 0.75)
        m2 = classify_boundary(generate_block_mesh((1.0, 1.6, 0.4, 0.75), 1, 1, 2), spec2)
        iface = build_interface(m1, m2)
        assert len(iface) == 1
        assert sorted([iface.p0[0, 1], iface.p1[0, 1]]) == pytest.approx([0.4, 0.5])
        assert iface.h[0] == pytest.approx([0.25, 0.35])
        audit_interface(iface, m1, m2)

    def test_disjoint_traces_raise(self):
        spec1 = block_spec(0.5, 1.0, 0.25, 0.5)
        m1 = classify_boundary(generate_block_mesh((0.5, 1.0, 0.25, 0.5), 1, 1, 1), spec1)
        spec2 = block_spec(1.6, 1.0, 0.6, 0.75)
        m2 = classify_boundary(generate_block_mesh((1.0, 1.6, 0.6, 0.75), 1, 1, 2), spec2)
        with pytest.raises(GeometryError):
            build_interface(m1, m2)

    def test_unresolved_endpoint_rejected_by_experiment_setup(self):
        from nitsche_contact.adapt import initial_meshes, make_experiment

        setup = make_experiment("pressing")
        with pytest.raises(ValueError, match="multiple of 4"):
            initial_meshes(setup, ((2, 2), (3, 3)))


class TestRefine:
    def test_empty_marked_is_identity(self):
        m = body1_mesh()
        assert bisect_refine(m, []) is m

    def test_generator_marks_like_list(self):
        m = body1_mesh()
        r_gen = bisect_refine(m, (t for t in [0, 1]))
        r_list = bisect_refine(m, [0, 1])
        assert r_gen.num_triangles > m.num_triangles
        assert np.array_equal(r_gen.vertices, r_list.vertices)
        assert np.array_equal(r_gen.triangles, r_list.triangles)
        assert np.array_equal(r_gen.parents, r_list.parents)

    def test_mark_all_preserves_area(self):
        m = body1_mesh()
        r = bisect_refine(m, range(m.num_triangles))
        assert r.num_triangles == 2 * m.num_triangles
        assert r.signed_areas().sum() == pytest.approx(0.25, rel=1e-13)
        audit_conformity(r)

    def test_single_mark_conforming(self):
        m = body1_mesh()
        for t in range(m.num_triangles):
            r = bisect_refine(m, [t])
            audit_conformity(r)
            assert r.num_triangles > m.num_triangles

    def test_parents_recorded(self):
        m = body1_mesh()
        r = bisect_refine(m, [0])
        assert r.parents is not None
        assert set(r.parents) <= set(range(m.num_triangles))
        kept = [i for i, p in enumerate(r.parents) if p == 0]
        assert len(kept) >= 2

    def test_vertices_preserved(self):
        m = body1_mesh()
        r = bisect_refine(m, [3])
        assert np.allclose(r.vertices[: m.num_vertices], m.vertices)

    def test_repeated_refinement_stays_conforming(self):
        m = body1_mesh()
        rng = np.random.RandomState(7)
        for _ in range(6):
            marked = rng.choice(m.num_triangles, size=max(1, m.num_triangles // 4), replace=False)
            m = bisect_refine(m, marked)
            audit_conformity(m)

    def test_shape_regularity(self):
        m = body1_mesh()
        a0 = m.min_angle()
        r = m
        rng = np.random.RandomState(3)
        for _ in range(7):
            marked = rng.choice(r.num_triangles, size=max(1, r.num_triangles // 3), replace=False)
            r = bisect_refine(r, marked)
        assert r.min_angle() >= 0.45 * a0

    def test_out_of_range_ids_raise(self):
        m = body1_mesh()
        for bad in (-1, m.num_triangles):
            with pytest.raises(ValueError, match="invalid triangle ids"):
                bisect_refine(m, [0, bad])

    @pytest.mark.parametrize("marked", [
        np.arange(8) == 7,          # a boolean mask, not ids
        [1.7],                      # not integral
        [[0, 1]],                   # not 1-D
        np.array(["1"]),            # not numeric
        [np.nan],
    ])
    def test_marks_that_are_not_ids_raise(self, marked):
        m = body1_mesh()
        assert m.num_triangles == 8
        with pytest.raises(ValueError):
            bisect_refine(m, marked)

    def test_integral_float_ids_mark_like_ints(self):
        m = body1_mesh()
        assert np.array_equal(bisect_refine(m, [1.0, 6.0]).triangles,
                              bisect_refine(m, [1, 6]).triangles)

    def test_uniform_refine_sweeps(self):
        m = body1_mesh()
        assert uniform_refine(m, 0) is m
        with pytest.raises(ValueError, match="sweeps"):
            uniform_refine(m, -1)

    def test_classification_survives(self):
        # two sweeps halve h: boundary facets split once (sweep 1 cuts diagonals)
        m = body1_mesh()
        r = uniform_refine(m, 2)
        assert len(r.facets_of_kind(CONTACT)) == 2 * len(m.facets_of_kind(CONTACT))
        assert r.num_triangles == 4 * m.num_triangles

    def test_facet_normals_point_out_of_the_first_triangle(self):
        m = bisect_refine(uniform_refine(body1_mesh(2, 3), 1), [0, 3, 5])
        n = m.facet_normals(np.arange(m.num_facets))
        a, b = m.vertices[m.facets[:, 0]], m.vertices[m.facets[:, 1]]
        assert np.allclose(np.hypot(n[:, 0], n[:, 1]), 1.0, rtol=1e-15, atol=0.0)
        assert np.allclose(((b - a) * n).sum(axis=1), 0.0, rtol=0.0, atol=1e-15)
        centroids = m.vertices[m.triangles].mean(axis=1)
        for side, sign in ((0, 1), (1, -1)):
            t = m.facet_triangles[:, side]
            away = sign * ((0.5 * (a + b) - centroids[t]) * n).sum(axis=1)
            assert (away[t >= 0] > 0).all()
        # outward on the boundary: a step along n leaves the box
        f = m.boundary_facets()
        step = 0.5 * (a[f] + b[f]) + 1e-3 * n[f]
        assert (np.abs(step - [0.75, 0.5]) > 0.25).any(axis=1).all()

    def test_interface_after_one_sided_refinement(self):
        m1 = body1_mesh()
        m2 = body2_mesh()
        m1r = uniform_refine(m1, 1)
        iface = build_interface(m1r, m2)
        audit_interface(iface, m1r, m2)
        assert iface.lengths.sum() == pytest.approx(0.5, rel=1e-12)


class TestTopology:
    def test_inverted_triangle_raises(self):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(GeometryError, match="non-positive area"):
            _build_topology(vertices, np.array([[0, 1, 2], [1, 2, 3]]))  # 1-2-3 is clockwise

    def test_facet_shared_by_three_triangles_raises(self):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 2.0], [0.5, 3.0]])
        with pytest.raises(GeometryError, match="more than two"):
            _build_topology(vertices, np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]]))

    def test_facet_table(self):
        # unit square split along 0-2; edge k of a triangle is opposite vertex k
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        facets, facet_triangles, triangle_facets = _build_topology(
            vertices, np.array([[1, 2, 0], [3, 0, 2]]))
        assert facets.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [2, 3]]
        assert facet_triangles.tolist() == [[0, -1], [0, 1], [1, -1], [0, -1], [1, -1]]
        assert triangle_facets.tolist() == [[1, 0, 3], [1, 4, 2]]


class TestDump:
    def test_roundtrip(self):
        m = uniform_refine(body1_mesh(2, 3), 1)
        text = dump_mesh(m)
        m2 = parse_mesh(text)
        assert np.array_equal(m.triangles, m2.triangles)
        assert np.array_equal(m.vertices, m2.vertices)
        assert m2.body_id == 1
        assert dump_mesh(m2) == text

    def test_header(self):
        m = body1_mesh(1, 1)
        first = dump_mesh(m).splitlines()[0]
        assert first == "vertices 4 triangles 2"
