"""The batched interface kernels against per-sample reference loops.

The loops below evaluate every interface term one sample at a time, in
the plain form of the formulas; the package forms the same terms batched
over all samples.  Both must agree to rounding on random active sets,
every variant, P1 and P2, and either treatment of the inactive samples.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from nitsche_contact.adapt import initial_meshes, make_experiment, make_problem
from nitsche_contact.contact import (
    MASTER_SLAVE,
    VARIANTS,
    WEIGHTED,
    NitscheConfig,
    _sample_coefficients,
    assemble_nitsche,
    build_interface_data,
    bulk_system,
    solve,
)
from nitsche_contact.fem import (
    constrain,
    elastic_moduli_rows,
    shape_gradients,
    shape_values,
)
from nitsche_contact.oracle import build_mixed_system

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
    """Jump and traction rows of every sample, one sample at a time."""
    data = build_interface_data(problem)
    nl = problem.spaces[0].nodes_per_cell
    jump, t1, t2 = (np.zeros_like(data.jump) for _ in range(3))
    for i, x in enumerate(data.points):
        seg = data.segments[data.seg_of[i]]
        for body, parent in ((1, seg.parent1), (2, seg.parent2)):
            space = problem.spaces[body - 1]
            mesh = space.mesh
            tri = int(mesh.facet_triangles[parent, 0])
            p = mesh.vertices[mesh.triangles[tri]]
            A = np.stack([p[1] - p[0], p[2] - p[0]], axis=-1)
            ref = np.linalg.solve(A, x - p[0])
            phi = shape_values(problem.degree, ref[None])[0]
            g = shape_gradients(problem.degree, ref[None]) @ np.linalg.inv(A)
            n = seg.normal if body == 1 else -seg.normal
            snn, _ = elastic_moduli_rows(g, n, problem.materials[body - 1])
            lo = (body - 1) * 2 * nl
            for node in range(nl):
                for c in range(2):
                    jump[i, lo + 2 * node + c] = -phi[node] * n[c]
            (t1 if body == 1 else t2)[i, lo:lo + 2 * nl] = snn[0]
    return jump, t1, t2


def reference_nitsche(data, materials, config, active, ndofs):
    w1, w2, beta, gamma, beta_ms, slave = _sample_coefficients(data, materials, config)
    mu1, mu2 = materials[0].mu, materials[1].mu
    K = np.zeros((ndofs, ndofs))
    for i in range(data.num_samples):
        d = data.dofs[data.seg_of[i]]
        w, J, T1, T2 = data.weights[i], data.jump[i], data.t1[i], data.t2[i]
        if config.variant == MASTER_SLAVE:
            M, pen = (T2 if slave == 2 else T1), beta_ms[i]
        else:
            M, pen = w1[i] * T1 + w2[i] * T2, beta[i]
        if active[i]:
            local = w * pen * np.outer(J, J) + w * (np.outer(M, J) + np.outer(J, M))
            if config.variant == WEIGHTED:
                local -= w * gamma[i] * np.outer(T2 - T1, T2 - T1)
        elif not config.drop_inactive_terms:
            if config.variant == WEIGHTED:
                local = -w * config.alpha * ((data.h1[i] / mu1) * np.outer(T1, T1)
                                             + (data.h2[i] / mu2) * np.outer(T2, T2))
            elif config.variant == MASTER_SLAVE:
                hs, mus = (data.h2[i], mu2) if slave == 2 else (data.h1[i], mu1)
                local = -w * config.alpha * (hs / mus) * np.outer(M, M)
            else:
                local = -w * np.outer(M, M) / pen
        else:
            continue
        K[np.ix_(d, d)] += local
    return K


def reference_mixed(problem, config):
    data = build_interface_data(problem)
    A, b = bulk_system(problem)
    n_u, n_l = problem.num_dofs, data.num_samples
    w1, w2, beta, _, _, slave = _sample_coefficients(data, problem.materials, config)
    mu1, mu2 = problem.materials[0].mu, problem.materials[1].mu
    alpha = config.alpha
    M = np.zeros((n_u + n_l, n_u + n_l))
    M[:n_u, :n_u] = A.toarray()
    c = np.empty(n_l)
    for i in range(n_l):
        d = data.dofs[data.seg_of[i]]
        w, T1, T2 = data.weights[i], data.t1[i], data.t2[i]
        if config.variant == WEIGHTED:
            stab = [(alpha * data.h1[i] / mu1, T1), (alpha * data.h2[i] / mu2, T2)]
            c[i] = alpha * (data.h1[i] / mu1 + data.h2[i] / mu2)
        elif config.variant == MASTER_SLAVE:
            hs, mus = (data.h2[i], mu2) if slave == 2 else (data.h1[i], mu1)
            stab = [(alpha * hs / mus, T2 if slave == 2 else T1)]
            c[i] = alpha * hs / mus
        else:
            stab = [(1.0 / beta[i], w1[i] * T1 + w2[i] * T2)]
            c[i] = 1.0 / beta[i]
        coupling = -w * data.jump[i]
        for coeff, T in stab:
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

    for rows, ref in zip((data.jump, data.t1, data.t2), reference_rows(problem)):
        assert close(rows, ref)
        looped = np.array([ref[i] @ u[data.dofs[data.seg_of[i]]] for i in range(ns)])
        assert close(data.rows_dot(rows, u), looped)

    N = assemble_nitsche(data, problem.materials, config, active, n)
    assert N.shape == (n, n)
    assert close(N, reference_nitsche(data, problem.materials, config, active, n))

    # renumbered onto the free dofs it assembles the constrained matrix
    fixed = problem.fixed_mask()
    Nf, _, free = constrain(N, np.zeros(n), fixed)
    local = np.full(n, -1)
    local[free] = np.arange(free.size)
    reduced = assemble_nitsche(replace(data, dofs=local[data.dofs]), problem.materials,
                               config, active, free.size)
    assert close(reduced, Nf)

    system = build_mixed_system(problem, config)
    M, rhs, c = reference_mixed(problem, config)
    assert close(system.matrix, M)
    assert np.array_equal(system.rhs, rhs)
    assert close(system.c, c)


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
                    data.points, data.weights, data.dofs, data.jump, data.t1, data.t2):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    def test_assigning_a_field_drops_the_cache(self):
        problem = problem_for(1, PAIRS[1], None)
        config = NitscheConfig(alpha=1e-2)
        first = solve(config, problem)
        A, b = bulk_system(problem)
        f = problem.body_loads[0]
        problem.body_loads = (lambda x: 2.0 * f(x), problem.body_loads[1])
        assert bulk_system(problem)[1] is not b
        doubled = solve(config, problem)
        assert np.array_equal(doubled.active, first.active)
        assert np.allclose(doubled.u, 2.0 * first.u, rtol=0.0,
                           atol=1e-12 * np.abs(first.u).max())

    def test_warm_start_keeps_the_cache(self):
        problem = problem_for(1, PAIRS[1], None)
        A, b = bulk_system(problem)
        data = build_interface_data(problem)
        problem.warm_start = (data.points, np.ones(data.num_samples, dtype=bool))
        assert bulk_system(problem)[0] is A
        assert build_interface_data(problem) is data
