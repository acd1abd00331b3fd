"""Newest-vertex bisection against the worklist routine it replaced.

The package refines in array form: it closes the marked refinement
edges on the facet table and splits every triangle by the pattern of its
marked edges.  The worklist routine below bisects one triangle at a time
and recurses into the neighbour across the refinement edge, with dicts
and sets for the edge adjacency; ``loop_topology`` fills the facet table
one facet at a time.  NVB closure of a marked set is unique, so both
must give the same mesh up to numbering, and the same facet table.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nitsche_contact.adapt import initial_meshes, make_experiment
from nitsche_contact.mesh import (
    _build_topology,
    audit_conformity,
    audit_interface,
    bisect_refine,
    build_interface,
)


def worklist_bisect(mesh, marked):
    """Reference NVB: vertices, peak-first triangles and parents."""
    verts = [tuple(v) for v in mesh.vertices]
    tris = [tuple(t) for t in mesh.triangles]
    alive = [True] * len(tris)
    ancestor = list(range(len(tris)))
    edge_tris = {}

    def edge_key(a, b):
        return (a, b) if a < b else (b, a)

    def tri_edges(t):
        v0, v1, v2 = tris[t]
        return (edge_key(v1, v2), edge_key(v2, v0), edge_key(v0, v1))

    for t in range(len(tris)):
        for e in tri_edges(t):
            edge_tris.setdefault(e, set()).add(t)

    def refinement_edge(t):
        _, v1, v2 = tris[t]
        return edge_key(v1, v2)

    def neighbor_across(t, e):
        for other in edge_tris[e]:
            if other != t and alive[other]:
                return other
        return None

    def split(t, m):
        v0, v1, v2 = tris[t]
        alive[t] = False
        for e in tri_edges(t):
            edge_tris[e].discard(t)
        for child in ((m, v0, v1), (m, v2, v0)):
            tris.append(child)
            alive.append(True)
            ancestor.append(ancestor[t])
            for e in tri_edges(len(tris) - 1):
                edge_tris.setdefault(e, set()).add(len(tris) - 1)

    midpoint = {}
    work = [int(t) for t in marked]
    while work:
        t = work[-1]
        if not alive[t]:
            work.pop()
            continue
        e = refinement_edge(t)
        nb = neighbor_across(t, e)
        if nb is not None and refinement_edge(nb) != e:
            work.append(nb)
            continue
        work.pop()
        if e not in midpoint:
            a, b = e
            verts.append(tuple(0.5 * (np.asarray(verts[a]) + np.asarray(verts[b]))))
            midpoint[e] = len(verts) - 1
        split(t, midpoint[e])
        if nb is not None:
            split(nb, midpoint[e])

    keep = [i for i in range(len(tris)) if alive[i]]
    return (np.array(verts), np.array([tris[i] for i in keep], dtype=int),
            np.array([ancestor[i] for i in keep], dtype=int))


def loop_topology(vertices, triangles):
    """Reference facet table: 2-D ``np.unique`` and a per-facet slot loop."""
    t = triangles
    edges = np.sort(np.concatenate([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]]), axis=1)
    facets, inverse = np.unique(edges, axis=0, return_inverse=True)
    nt = t.shape[0]
    facet_triangles = np.full((facets.shape[0], 2), -1, dtype=int)
    order = np.argsort(inverse, kind="stable")
    owner = np.tile(np.arange(nt), 3)[order]
    slot = np.zeros(facets.shape[0], dtype=int)
    for f, tri in zip(inverse[order], owner):
        facet_triangles[f, slot[f]] = tri
        slot[f] += 1
    return facets, facet_triangles, inverse.reshape(3, nt).T


def same_mesh(vertices, triangles, parents, ref):
    """Equal as sets of peak-first coordinate triples with their parents,
    and as vertex sets."""
    def rows(v, t, p):
        r = np.column_stack([v[t].reshape(-1, 6), p])
        return r[np.lexsort(r.T[::-1])]

    ref_v, ref_t, ref_p = ref
    return (vertices.shape == ref_v.shape
            and np.array_equal(rows(vertices, triangles, parents), rows(ref_v, ref_t, ref_p))
            and np.array_equal(np.unique(vertices, axis=0), np.unique(ref_v, axis=0)))


def marks(nt):
    return st.lists(st.integers(0, nt - 1), min_size=1, max_size=min(nt, 10))


@settings(max_examples=20, deadline=None)
@given(nx1=st.integers(1, 3), ny1=st.integers(1, 3), nx2=st.integers(1, 3),
       ny2=st.sampled_from([4, 8]), data=st.data())
def test_refinement_matches_worklist_reference(nx1, ny1, nx2, ny2, data):
    meshes = list(initial_meshes(make_experiment("pressing"), ((nx1, ny1), (nx2, ny2))))
    for _ in range(3):
        for body, mesh in enumerate(meshes):
            marked = data.draw(marks(mesh.num_triangles))
            refined = bisect_refine(mesh, marked)
            assert same_mesh(refined.vertices, refined.triangles, refined.parents,
                             worklist_bisect(mesh, marked))
            assert np.array_equal(refined.vertices[: mesh.num_vertices], mesh.vertices)
            audit_conformity(refined)

            topology = _build_topology(refined.vertices, refined.triangles)
            for got, want in zip(topology, loop_topology(refined.vertices, refined.triangles)):
                assert got.dtype == want.dtype and np.array_equal(got, want)

            again = bisect_refine(mesh, np.array(marked))
            for name in ("vertices", "triangles", "parents", "facets",
                         "facet_triangles", "triangle_facets", "facet_rule"):
                assert np.array_equal(getattr(again, name), getattr(refined, name)), name
            meshes[body] = refined
        audit_interface(build_interface(*meshes), *meshes)

