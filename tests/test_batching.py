"""The batched interface kernels against per-sample reference loops.

The loops below evaluate every interface term one sample at a time, in
the plain form of the formulas; the package forms the same terms batched
over all samples.  Both must agree to rounding on random active sets,
every variant, P1 and P2, and either treatment of the inactive samples.
The contact-facet estimator and the interface intersection are checked
the same way against loops over segments and facets, and the segments
are checked to tile the overlap of the two contact traces.
"""

from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import nitsche_contact.contact as contact
import nitsche_contact.oracle as oracle
from nitsche_contact.adapt import initial_meshes, make_experiment, make_problem
from nitsche_contact.contact import (
    MASTER_SLAVE,
    VARIANTS,
    WEIGHTED,
    NitscheConfig,
    SolveResult,
    assemble_nitsche,
    build_interface_data,
    bulk_system,
    mortar,
    solve,
)
from nitsche_contact.estimator import contact_facet_estimator, vertex_stresses
from nitsche_contact.fem import (
    elastic_moduli_rows,
    fixed_pattern,
    gauss1d,
    shape_gradients,
    shape_values,
)
from nitsche_contact.mesh import (
    CONTACT,
    audit_interface,
    bisect_refine,
    build_interface,
    geometric_tolerance,
)

RTOL = 1e-12
PAIRS = (((1, 2), (2, 4)), ((2, 2), (3, 4)), ((2, 3), (1, 8)))


def problem_for(degree, pair, e2):
    setup = make_experiment("bending", e2=e2)
    m1, m2 = initial_meshes(setup, pair)
    return make_problem(setup, m1, m2, degree)


def close(a, b):
    a = a.toarray() if sp.issparse(a) else np.asarray(a)
    b = b.toarray() if sp.issparse(b) else np.asarray(b)
    return np.abs(a - b).max(initial=0.0) <= RTOL * max(np.abs(b).max(initial=0.0), 1e-300)


def reference_rows(problem):
    """Jump, normal traction and tangential traction rows of every sample,
    one sample at a time; the tangent is the normal out of body 1 turned
    counterclockwise."""
    data = build_interface_data(problem)
    iface = problem.segments
    nl = problem.spaces[0].nodes_per_cell
    normal = iface.normal
    tau = np.array([-normal[1], normal[0]])
    jump, t1, t2, tan1, tan2 = (np.zeros_like(data.jump) for _ in range(5))
    for i, x in enumerate(data.points):
        parents = iface.parents[data.seg_of[i]]
        assert tuple(data.parents[data.seg_of[i]]) == tuple(parents)
        for body, parent in ((1, parents[0]), (2, parents[1])):
            space = problem.spaces[body - 1]
            mesh = space.mesh
            tri = int(mesh.facet_triangles[parent, 0])
            p = mesh.vertices[mesh.triangles[tri]]
            A = np.stack([p[1] - p[0], p[2] - p[0]], axis=-1)
            ref = np.linalg.solve(A, x - p[0])
            phi = shape_values(problem.degree, ref[None])[0]
            g = shape_gradients(problem.degree, ref[None]) @ np.linalg.inv(A)
            n = normal if body == 1 else -normal
            snn, trac = elastic_moduli_rows(g, n, problem.materials[body - 1])
            lo = (body - 1) * 2 * nl
            for node in range(nl):
                for c in range(2):
                    j = 2 * node + c
                    jump[i, lo + j] = -phi[node] * n[c]
                    (tan1 if body == 1 else tan2)[i, lo + j] = trac[0, j] @ tau
            (t1 if body == 1 else t2)[i, lo:lo + 2 * nl] = snn[0]
    return jump, t1, t2, tan1, tan2


def reference_weights(data, materials, config, i):
    """Mortaring weights of sample ``i``, written out from h and mu:
    (combined traction weights, penalty, gamma, stabilisation pairs, c_q)."""
    h1, h2 = data.h1[i], data.h2[i]
    mu1, mu2 = materials[0].mu, materials[1].mu
    alpha = config.alpha
    denom = h1 * mu2 + h2 * mu1
    w1, w2 = h1 * mu2 / denom, h2 * mu1 / denom
    beta = mu1 * mu2 / (alpha * denom)
    if config.variant == MASTER_SLAVE:
        slave = 2 if mu1 >= mu2 else 1
        hs, mus = (h2, mu2) if slave == 2 else (h1, mu1)
        side = (0.0, 1.0) if slave == 2 else (1.0, 0.0)
        beta_ms = mus / (alpha * hs)
        return side, beta_ms, 0.0, [(alpha * hs / mus, side)], alpha * hs / mus
    if config.variant == WEIGHTED:
        gamma = alpha * h1 * h2 / denom
        stab = [(alpha * h1 / mu1, (1.0, 0.0)), (alpha * h2 / mu2, (0.0, 1.0))]
        return (w1, w2), beta, gamma, stab, alpha * (h1 / mu1 + h2 / mu2)
    return (w1, w2), beta, 0.0, [(1.0 / beta, (w1, w2))], 1.0 / beta


def reference_nitsche(data, materials, config, active, ndofs):
    K = np.zeros((ndofs, ndofs))
    for i in range(data.num_samples):
        d = data.dofs[data.seg_of[i]]
        w, J, T1, T2 = data.weights[i], data.jump[i], data.t1[i], data.t2[i]
        (a1, a2), pen, gamma, stab, _ = reference_weights(data, materials, config, i)
        M = a1 * T1 + a2 * T2
        if active[i]:
            local = w * pen * np.outer(J, J) + w * (np.outer(M, J) + np.outer(J, M))
            local -= w * gamma * np.outer(T2 - T1, T2 - T1)
        elif not config.drop_inactive_terms:
            local = -w * sum(c * np.outer(b1 * T1 + b2 * T2, b1 * T1 + b2 * T2)
                             for c, (b1, b2) in stab)
        else:
            continue
        K[np.ix_(d, d)] += local
    return K


def reference_mixed(problem, config):
    data = build_interface_data(problem)
    A, b = bulk_system(problem)
    n_u, n_l = problem.num_dofs, data.num_samples
    M = np.zeros((n_u + n_l, n_u + n_l))
    M[:n_u, :n_u] = A.toarray()
    c = np.empty(n_l)
    for i in range(n_l):
        d = data.dofs[data.seg_of[i]]
        w, T1, T2 = data.weights[i], data.t1[i], data.t2[i]
        *_, stab, c[i] = reference_weights(data, problem.materials, config, i)
        coupling = -w * data.jump[i]
        for coeff, (b1, b2) in stab:
            T = b1 * T1 + b2 * T2
            M[np.ix_(d, d)] -= w * coeff * np.outer(T, T)
            coupling = coupling - w * coeff * T
        M[d, n_u + i] += coupling
        M[n_u + i, d] += coupling
        M[n_u + i, n_u + i] -= w * c[i]
    return M, np.concatenate([b, np.zeros(n_l)]), c


cases = st.tuples(st.sampled_from((1, 2)), st.sampled_from(PAIRS),
                  st.sampled_from((None, 100.0, 0.01)), st.sampled_from(VARIANTS),
                  st.booleans())


@settings(max_examples=30, deadline=None)
@given(case=cases, draw=st.data())
def test_batched_kernels_match_sample_loops(case, draw):
    degree, pair, e2, variant, drop = case
    problem = problem_for(degree, pair, e2)
    data = build_interface_data(problem)
    ns, n = data.num_samples, problem.num_dofs
    config = NitscheConfig(variant=variant, alpha=1e-3, drop_inactive_terms=drop)
    active = np.array(draw.draw(st.lists(st.booleans(), min_size=ns, max_size=ns)))
    u = np.random.default_rng(ns).standard_normal(n)

    for rows, ref in zip((data.jump, data.t1, data.t2, data.tan1, data.tan2),
                         reference_rows(problem)):
        assert close(rows, ref)
        looped = np.array([ref[i] @ u[data.dofs[data.seg_of[i]]] for i in range(ns)])
        assert close(data.rows_dot(rows, u), looped)

    m = mortar(data, problem.materials, config)
    N = assemble_nitsche(data, m, config, active, n)
    assert N.shape == (n, n)
    assert close(N, reference_nitsche(data, problem.materials, config, active, n))

    # the solve's fixed pattern adds the same blocks onto the bulk matrix,
    # over the free dofs
    A0 = bulk_system(problem)[0]
    add_blocks, free = fixed_pattern(A0, data.dofs, problem.fixed_mask())
    assert np.array_equal(free, np.flatnonzero(~problem.fixed_mask()))
    constrained = add_blocks(contact._nitsche_blocks(data, m, config, active))
    assert constrained.format == "csc" and constrained.has_canonical_format
    assert close(constrained, (A0 + N)[free][:, free])

    system = oracle.build_mixed_system(problem, config)
    M, rhs, c = reference_mixed(problem, config)
    assert close(system.matrix, M)
    assert np.array_equal(system.rhs, rhs)
    assert close(system.mortar.c_q, c)

    # the matrix a pattern solve factors: the inactive multipliers' rows
    # and columns zeroed with 1 on their diagonal, the fixed dofs dropped
    factored, lu_solve = [], oracle._lu_solve

    def capture(K, r):
        factored.append(K)
        return lu_solve(K, r)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_lu_solve", capture)
        oracle._solve_pattern(system, active)
    inactive = n + np.flatnonzero(~active)
    M[inactive] = 0.0
    M[:, inactive] = 0.0
    M[inactive, inactive] = 1.0
    kept = np.concatenate([~problem.fixed_mask(), np.ones(ns, dtype=bool)])
    assert len(factored) == 1
    assert close(factored[0], M[np.ix_(kept, kept)])


class TestProblemCache:
    def test_repeated_calls_share_read_only_objects(self):
        problem = problem_for(2, PAIRS[1], None)
        A, b = bulk_system(problem)
        again = bulk_system(problem)
        assert again[0] is A and again[1] is b
        data = build_interface_data(problem)
        assert build_interface_data(problem) is data
        assert problem.fixed_mask() is problem.fixed_mask()
        for arr in (A.data, A.indices, A.indptr, b, problem.fixed_mask(),
                    data.points, data.weights, data.parents, data.dofs, data.jump,
                    data.t1, data.t2, data.tan1, data.tan2):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    def test_fields_cannot_be_assigned(self):
        problem = problem_for(1, PAIRS[1], None)
        for f in fields(problem):
            with pytest.raises(FrozenInstanceError):
                setattr(problem, f.name, getattr(problem, f.name))

    def test_interface_arrays_are_read_only_copies(self):
        problem = problem_for(2, PAIRS[1], None)
        iface = problem.segments
        for f in fields(iface):
            arr = getattr(iface, f.name)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[0]
        p0 = np.array(iface.p0)
        assert replace(iface, p0=p0).p0 is not p0 and p0.flags.writeable

    def test_replaced_problem_has_its_own_caches(self):
        problem = problem_for(1, PAIRS[1], None)
        config = NitscheConfig(alpha=1e-2)
        first = solve(config, problem)
        A, b = bulk_system(problem)
        f = problem.body_loads[0]
        doubled_problem = replace(problem, body_loads=(lambda x: 2.0 * f(x),
                                                       problem.body_loads[1]))
        assert bulk_system(doubled_problem)[1] is not b
        assert bulk_system(problem)[1] is b
        doubled = solve(config, doubled_problem, (first.data.points, first.active))
        assert doubled.iterations == 1
        assert np.array_equal(doubled.active, first.active)
        assert np.allclose(doubled.u, 2.0 * first.u, rtol=0.0,
                           atol=1e-12 * np.abs(first.u).max())
        # a started solve reads the same caches as a cold one
        assert solve(config, problem, (first.data.points, first.active)).data is first.data


def reference_contact_estimator(result, n_gauss=None):
    """Contact-facet terms and S^2, one segment at a time, with the
    ``n_gauss``-point rule (default: the solve's own) and the pressure
    interpolated through the samples."""
    problem, data, config = result.problem, result.data, result.config
    mats = problem.materials
    mu1, mu2 = mats[0].mu, mats[1].mu
    out = [np.zeros(problem.spaces[i].mesh.num_facets) for i in range(2)]
    sig_v = [vertex_stresses(problem.spaces[i], mats[i],
                             result.u[problem.offset(i + 1):][:problem.spaces[i].num_dofs])
             for i in range(2)]
    xi0, _ = data.gauss
    xi, wg = data.gauss if n_gauss is None else gauss1d(n_gauss)
    S2 = 0.0
    iface = problem.segments
    normal = iface.normal
    for s in range(len(iface)):
        p0, p1 = iface.p0[s], iface.p1[s]
        (parent1, parent2), (h1, h2) = iface.parents[s], iface.h[s]
        pts = p0 + xi[:, None] * (p1 - p0)
        wq = wg * np.hypot(*(p1 - p0))
        samples = result.lam[s * data.n_per_seg:(s + 1) * data.n_per_seg]
        lam = np.array([sum(samples[k] * np.prod([(t - xi0[m]) / (xi0[k] - xi0[m])
                                                  for m in range(len(xi0)) if m != k])
                            for k in range(len(xi0))) for t in xi])
        jump = np.zeros(len(xi))
        snn, tang = [], []
        for i, parent in ((0, parent1), (1, parent2)):
            space = problem.spaces[i]
            mesh = space.mesh
            n = normal if i == 0 else -normal
            tri = int(mesh.facet_triangles[parent, 0])
            p = mesh.vertices[mesh.triangles[tri]]
            ref = np.linalg.solve(np.stack([p[1] - p[0], p[2] - p[0]], axis=-1),
                                  (pts - p[0]).T).T
            nodes = problem.offset(i + 1) + 2 * space.cell_nodes[tri]
            phi = shape_values(space.degree, ref)
            jump -= (phi @ result.u[nodes]) * n[0] + (phi @ result.u[nodes + 1]) * n[1]
            a, b = mesh.vertices[mesh.facets[parent]]
            tau = ((pts - a) @ (b - a)) / ((b - a) @ (b - a))
            la, lb = (list(mesh.triangles[tri]).index(v) for v in mesh.facets[parent])
            sig = (sig_v[i][tri, la] * (1 - tau)[:, None, None]
                   + sig_v[i][tri, lb] * tau[:, None, None])
            trac = sig @ n
            snn.append(trac @ n)
            tang.append(trac - snn[-1][:, None] * n)
        S2 += (wq * np.maximum(jump, 0.0) * lam).sum()
        denom = h1 * mu2 + h2 * mu1
        for i, parent, hE in ((0, parent1, h1), (1, parent2, h2)):
            mu = mats[i].mu
            term = (hE / mu) * (wq * (tang[i] ** 2).sum(axis=1)).sum()
            term += (mu / hE) * (wq * np.maximum(-jump, 0.0) ** 2).sum()
            if config.variant == WEIGHTED or (
                    config.variant == MASTER_SLAVE and i + 1 == (2 if mu1 >= mu2 else 1)):
                term += (hE / mu) * (wq * (lam + snn[i]) ** 2).sum()
            elif config.variant != MASTER_SLAVE:
                mean = (h1 * mu2 * snn[0] + h2 * mu1 * snn[1]) / denom
                beta = mu1 * mu2 / (config.alpha * denom)
                term += 0.5 * (wq * (lam + mean) ** 2).sum() / beta
            out[i][parent] += term
    return out, S2


@settings(max_examples=30, deadline=None)
@given(case=cases, seed=st.integers(0, 2**16))
def test_contact_estimator_matches_segment_loop(case, seed):
    degree, pair, e2, variant, _ = case
    problem = problem_for(degree, pair, e2)
    data = build_interface_data(problem)
    rng = np.random.default_rng(seed)
    config = NitscheConfig(variant=variant, alpha=1e-3)
    result = SolveResult(problem=problem, config=config, data=data,
                         mortar=mortar(data, problem.materials, config),
                         u=1e-3 * rng.standard_normal(problem.num_dofs), active=None,
                         lam=rng.standard_normal(data.num_samples), iterations=1)
    (c1, c2), S2 = contact_facet_estimator(result)
    (r1, r2), rS2 = reference_contact_estimator(result)
    assert close(c1, r1) and close(c2, r2)
    assert S2 == pytest.approx(rS2, rel=RTOL, abs=RTOL * (abs(result.lam).max() + 1.0))


def reference_interface(mesh1, mesh2):
    """Interface segments by a loop over facets and a linear parent search."""
    tol = geometric_tolerance(mesh1, mesh2)
    g1, g2 = mesh1.facets_of_kind(CONTACT), mesh2.facets_of_kind(CONTACT)
    a, b = mesh1.vertices[mesh1.facets[g1[0]]]
    direction = (b - a) / np.hypot(*(b - a))

    def intervals(mesh, ids):
        out = []
        for f in ids:
            ta, tb = ((mesh.vertices[v] - a) @ direction for v in mesh.facets[f])
            out.append((min(ta, tb), max(ta, tb), int(f)))
        return sorted(out)

    iv1, iv2 = intervals(mesh1, g1), intervals(mesh2, g2)
    lo, hi = max(iv1[0][0], iv2[0][0]), min(iv1[-1][1], iv2[-1][1])
    cuts = np.array(sorted([lo, hi] + [t for iv in iv1 + iv2 for t in iv[:2]
                                       if lo + tol < t < hi - tol]))
    cuts = cuts[np.concatenate([[True], np.diff(cuts) > tol])]

    def parent(iv, t):
        return next((f, t1 - t0) for t0, t1, f in iv if t0 - tol <= t <= t1 + tol)

    segments = []
    for t0, t1 in zip(cuts[:-1], cuts[1:]):
        if t1 - t0 > tol:
            (f1, h1), (f2, h2) = parent(iv1, 0.5 * (t0 + t1)), parent(iv2, 0.5 * (t0 + t1))
            segments.append((a + t0 * direction, a + t1 * direction, f1, f2, h1, h2))
    return segments


pressing_pairs = st.tuples(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                           st.tuples(st.integers(1, 4), st.sampled_from((4, 8))))
refinements = st.lists(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8), max_size=3)


def refined_pressing_meshes(pair, rounds):
    """The pressing pair ``pair``, refined once per round at the triangles
    whose ids are the round's fractions of the triangle count."""
    setup = make_experiment("pressing")
    meshes = list(initial_meshes(setup, pair))
    for marks in rounds:
        meshes = [bisect_refine(m, np.unique((np.array(marks) * m.num_triangles).astype(int)
                                             .clip(0, m.num_triangles - 1)))
                  for m in meshes]
    return meshes


@settings(max_examples=20, deadline=None)
@given(pair=pressing_pairs, rounds=refinements)
def test_interface_matches_facet_loop(pair, rounds):
    meshes = refined_pressing_meshes(pair, rounds)
    for m1, m2 in (meshes, meshes[::-1]):
        iface = build_interface(m1, m2)
        ref = reference_interface(m1, m2)
        assert len(iface) == len(ref)
        for k, (p0, p1, f1, f2, h1, h2) in enumerate(ref):
            assert np.array_equal(iface.p0[k], p0) and np.array_equal(iface.p1[k], p1)
            assert tuple(iface.parents[k]) == (f1, f2) and tuple(iface.h[k]) == (h1, h2)


@settings(max_examples=20, deadline=None)
@given(pair=pressing_pairs, rounds=refinements)
def test_segments_tile_the_overlap(pair, rounds):
    meshes = refined_pressing_meshes(pair, rounds)
    for m1, m2 in (meshes, meshes[::-1]):
        iface = build_interface(m1, m2)
        tol = geometric_tolerance(m1, m2)
        d = iface.p1[0] - iface.p0[0]
        d = d / np.hypot(*d)
        # the overlap runs from the later start to the earlier end of the traces
        starts, ends = [], []
        for mesh in (m1, m2):
            pts = mesh.vertices[mesh.facets[mesh.facets_of_kind(CONTACT)]].reshape(-1, 2)
            t = pts @ d
            starts.append(pts[np.argmin(t)])
            ends.append(pts[np.argmax(t)])
        start = max(starts, key=lambda p: p @ d)
        end = min(ends, key=lambda p: p @ d)
        assert np.hypot(*(iface.p0[0] - start)) <= tol
        assert np.hypot(*(iface.p1[-1] - end)) <= tol
        assert np.array_equal(iface.p1[:-1], iface.p0[1:])
        assert np.all((iface.p1 - iface.p0) @ d > tol)
        audit_interface(iface, m1, m2)
