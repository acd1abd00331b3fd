"""Triangulations of the two elastic blocks and their contact interface.

A mesh is a plain numpy structure: vertices as an ``(nv, 2)`` array and
triangles as an ``(nt, 3)`` index array with positive orientation.  The
first vertex of every triangle is the *peak* used by newest-vertex
bisection; the refinement edge is the one opposite to it.  Meshes are
immutable: refinement and classification return new objects.

Refinement works on the facet table in array form (Funken, Praetorius &
Wissgott, CMAM 11, 2011; L. Chen, iFEM ``bisect.m``): the marked
refinement edges are closed to a fixed point, the midpoints are numbered
in facet order after the input vertices, and each triangle is replaced
by its 1, 2, 3 or 4 children in place, so children stay grouped by parent.

The contact interface is assumed to lie on a straight line, so the
intersection of the two boundary traces reduces to merging breakpoints
of two interval partitions of that line.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

INTERIOR = -1

DIRICHLET = "dirichlet"
NEUMANN = "neumann"
CONTACT = "contact"


class GeometryError(ValueError):
    """Raised when geometric preconditions fail (non-collinear contact
    traces, mismatched interface coverage, degenerate input)."""


class ClassificationError(ValueError):
    """Raised when a boundary facet matches no rule or several rules."""


@dataclass(frozen=True)
class BoundaryRule:
    """One boundary region: a midpoint predicate plus its physics.

    ``where`` receives facet midpoints of shape ``(n, 2)`` and returns a
    boolean mask.  ``components`` lists the constrained displacement
    components for Dirichlet rules.  ``traction`` is an optional surface
    load for Neumann rules, mapping points ``(n, 2)`` to ``(n, 2)``.
    """

    name: str
    kind: str
    where: Callable[[np.ndarray], np.ndarray]
    components: tuple = (0, 1)
    traction: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.kind not in (DIRICHLET, NEUMANN, CONTACT):
            raise ValueError(f"unknown boundary kind {self.kind!r}")


@dataclass(frozen=True)
class BoundarySpec:
    rules: tuple

    def rule_index(self, name: str) -> int:
        for k, rule in enumerate(self.rules):
            if rule.name == name:
                return k
        raise KeyError(name)


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation of one body.

    ``facets`` holds sorted vertex pairs; ``facet_triangles[f]`` are the
    adjacent triangle ids (second entry ``-1`` on the boundary) and
    ``triangle_facets[t, k]`` is the facet opposite local vertex ``k``.
    ``facet_rule[f]`` indexes into ``boundary_spec.rules`` and is
    ``INTERIOR`` for interior facets (and for boundary facets of an
    unclassified mesh).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    body_id: int
    bbox: tuple
    facets: np.ndarray = field(repr=False)
    facet_triangles: np.ndarray = field(repr=False)
    triangle_facets: np.ndarray = field(repr=False)
    facet_rule: np.ndarray = field(repr=False)
    boundary_spec: Optional[BoundarySpec] = None
    parents: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def num_facets(self) -> int:
        return self.facets.shape[0]

    def signed_areas(self) -> np.ndarray:
        p = self.vertices
        t = self.triangles
        d1 = p[t[:, 1]] - p[t[:, 0]]
        d2 = p[t[:, 2]] - p[t[:, 0]]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def facet_lengths(self) -> np.ndarray:
        e = self.vertices[self.facets[:, 1]] - self.vertices[self.facets[:, 0]]
        return np.hypot(e[:, 0], e[:, 1])

    def facet_midpoints(self) -> np.ndarray:
        return 0.5 * (self.vertices[self.facets[:, 0]] + self.vertices[self.facets[:, 1]])

    def triangle_diameters(self) -> np.ndarray:
        """Element diameter, i.e. the longest edge."""
        p = self.vertices
        t = self.triangles
        d = np.zeros(t.shape[0])
        for a, b in ((0, 1), (1, 2), (2, 0)):
            e = p[t[:, b]] - p[t[:, a]]
            d = np.maximum(d, np.hypot(e[:, 0], e[:, 1]))
        return d

    def boundary_facets(self) -> np.ndarray:
        return np.flatnonzero(self.facet_triangles[:, 1] < 0)

    def facets_of_kind(self, kind: str) -> np.ndarray:
        if self.boundary_spec is None:
            raise ValueError("mesh has no boundary classification")
        kinds = np.array([r.kind for r in self.boundary_spec.rules])
        mask = np.zeros(self.num_facets, dtype=bool)
        on_boundary = self.facet_rule >= 0
        mask[on_boundary] = kinds[self.facet_rule[on_boundary]] == kind
        return np.flatnonzero(mask)

    def min_angle(self) -> float:
        p = self.vertices
        t = self.triangles
        ang = np.full(t.shape[0], np.inf)
        for k in range(3):
            a = p[t[:, k]]
            b = p[t[:, (k + 1) % 3]]
            c = p[t[:, (k + 2) % 3]]
            u = b - a
            v = c - a
            cosang = (u * v).sum(axis=1) / (np.hypot(*u.T) * np.hypot(*v.T))
            ang = np.minimum(ang, np.arccos(np.clip(cosang, -1.0, 1.0)))
        return float(ang.min())


def geometric_tolerance(*meshes: Mesh) -> float:
    """Collinearity / degeneracy tolerance: 1e-12 times the domain diameter."""
    lo = np.array([min(m.bbox[0] for m in meshes), min(m.bbox[2] for m in meshes)])
    hi = np.array([max(m.bbox[1] for m in meshes), max(m.bbox[3] for m in meshes)])
    return 1e-12 * float(np.hypot(*(hi - lo)))


def _build_topology(vertices, triangles):
    """Facet table from the triangle list; raises on inverted triangles.

    Facets are the sorted vertex pairs in lexicographic order, found by one
    1-D ``np.unique`` on the key ``a * nv + b``.  ``facet_triangles`` lists
    the adjacent triangles in the order their edges appear in the stacked
    edge array (edge k of every triangle, for k = 0, 1, 2).
    """
    t = triangles
    d1 = vertices[t[:, 1]] - vertices[t[:, 0]]
    d2 = vertices[t[:, 2]] - vertices[t[:, 0]]
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    if np.any(areas <= 0):
        bad = int(np.argmin(areas))
        raise GeometryError(f"triangle {bad} has non-positive area {areas[bad]}")

    # edge k is opposite local vertex k
    edges = np.concatenate(
        [t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]], axis=0
    )
    edges = np.sort(edges, axis=1)
    key = edges[:, 0] * vertices.shape[0] + edges[:, 1]
    _, first, inverse, counts = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True
    )
    if counts.max() > 2:
        raise GeometryError("facet shared by more than two triangles")
    nt = t.shape[0]
    facets = edges[first]
    triangle_facets = inverse.reshape(3, nt).T

    facet_triangles = np.full((facets.shape[0], 2), -1, dtype=int)
    facet_triangles[:, 0] = first % nt
    second = np.flatnonzero(first[inverse] != np.arange(3 * nt))
    facet_triangles[inverse[second], 1] = second % nt
    return facets, facet_triangles, triangle_facets


def _make_mesh(vertices, triangles, body_id, bbox, spec=None, parents=None) -> Mesh:
    facets, facet_triangles, triangle_facets = _build_topology(vertices, triangles)
    mesh = Mesh(
        vertices=vertices,
        triangles=triangles,
        body_id=body_id,
        bbox=bbox,
        facets=facets,
        facet_triangles=facet_triangles,
        triangle_facets=triangle_facets,
        facet_rule=np.full(facets.shape[0], INTERIOR, dtype=int),
        boundary_spec=None,
        parents=parents,
    )
    if spec is not None:
        mesh = classify_boundary(mesh, spec)
    return mesh


def generate_block_mesh(rect: Sequence[float], nx: int, ny: int, body_id: int = 1) -> Mesh:
    """Structured triangulation of the rectangle ``(x0, x1, y0, y1)``.

    Every grid cell is split along a diagonal; the diagonal direction
    alternates in a criss-cross pattern so the mesh is symmetric under
    reflection of the rectangle.  The diagonal is the longest edge of
    both triangles in a cell and serves as their refinement edge.
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"subdivision counts must be positive, got nx={nx}, ny={ny}")
    x0, x1, y0, y1 = rect
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"degenerate rectangle {rect}")

    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    xg, yg = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([xg.ravel(), yg.ravel()])

    def vid(i, j):
        return j * (nx + 1) + i

    tris = []
    for j in range(ny):
        for i in range(nx):
            a = vid(i, j)
            b = vid(i + 1, j)
            c = vid(i + 1, j + 1)
            d = vid(i, j + 1)
            if (i + j) % 2 == 0:
                # diagonal a-c; peak-first so the diagonal is the refinement edge
                tris.append((b, c, a))
                tris.append((d, a, c))
            else:
                # diagonal b-d
                tris.append((a, b, d))
                tris.append((c, d, b))
    triangles = np.array(tris, dtype=int)
    return _make_mesh(vertices, triangles, body_id, (x0, x1, y0, y1))


def classify_boundary(mesh: Mesh, spec: BoundarySpec) -> Mesh:
    """Tag every boundary facet with exactly one rule of ``spec``."""
    mids = mesh.facet_midpoints()
    boundary = mesh.boundary_facets()
    rule = np.full(mesh.num_facets, INTERIOR, dtype=int)
    hits = np.zeros(boundary.shape[0], dtype=int)
    for k, r in enumerate(spec.rules):
        mask = np.asarray(r.where(mids[boundary]), dtype=bool)
        rule[boundary[mask]] = k
        hits += mask
    if np.any(hits != 1):
        bad = boundary[np.flatnonzero(hits != 1)[0]]
        n = int(hits[np.flatnonzero(hits != 1)[0]])
        raise ClassificationError(
            f"boundary facet {bad} with midpoint {mids[bad]} matches {n} rules"
        )
    return replace(mesh, facet_rule=rule, boundary_spec=spec)


@dataclass(frozen=True)
class InterfaceSegment:
    """One element of the intersected interface mesh.

    The segment is the overlap of one contact facet from each body;
    ``h1``/``h2`` are the parent facet diameters and ``normal`` points
    out of body 1.
    """

    p0: np.ndarray
    p1: np.ndarray
    parent1: int
    parent2: int
    h1: float
    h2: float
    normal: np.ndarray

    @property
    def length(self) -> float:
        return float(np.hypot(*(self.p1 - self.p0)))

    @property
    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.p0 + self.p1)


def _facet_intervals(mesh, facet_ids, origin, direction, tol):
    """Map contact facets to parameter intervals ``[t0, t1]`` along the
    interface line: the arrays ``(t0, t1, facet)``, sorted by ``(t0, t1, facet)``."""
    facet_ids = np.asarray(facet_ids, dtype=int)
    ends = mesh.vertices[mesh.facets[facet_ids]] - origin          # (n, 2, 2)
    t = ends @ direction                                            # (n, 2)
    off = ends - t[..., None] * direction
    off_line = np.flatnonzero((np.hypot(off[..., 0], off[..., 1]) > tol).any(axis=1))
    if len(off_line):
        raise GeometryError(
            f"contact facet {facet_ids[off_line[0]]} of body {mesh.body_id}"
            " is not on the interface line"
        )
    t0, t1 = t.min(axis=1), t.max(axis=1)
    order = np.lexsort((facet_ids, t1, t0))
    t0, t1, facet_ids = t0[order], t1[order], facet_ids[order]
    bad = np.flatnonzero((t0[1:] < t1[:-1] - tol) | (t0[1:] > t1[:-1] + tol))
    if len(bad):
        if t0[bad[0] + 1] < t1[bad[0]] - tol:
            raise GeometryError(f"overlapping contact facets on body {mesh.body_id}")
        raise GeometryError(f"gap in the contact trace of body {mesh.body_id}")
    return t0, t1, facet_ids


def _outward_normal(mesh, facet, direction):
    a = mesh.vertices[mesh.facets[facet, 0]]
    b = mesh.vertices[mesh.facets[facet, 1]]
    tri = mesh.facet_triangles[facet, 0]
    opposite = [v for v in mesh.triangles[tri] if v not in mesh.facets[facet]][0]
    n = np.array([direction[1], -direction[0]])
    if n @ (mesh.vertices[opposite] - 0.5 * (a + b)) > 0:
        n = -n
    return n


def _parent_facets(intervals, t, tol):
    """Facet and length of the first interval ``[t0 - tol, t1 + tol]`` holding
    each parameter in ``t``.  The intervals are sorted by ``t0``, so the first
    one whose ``t1 + tol`` reaches a parameter is its only candidate.
    """
    t0, t1, facet = intervals
    k = np.searchsorted(np.maximum.accumulate(t1 + tol), t).clip(max=len(t0) - 1)
    bad = np.flatnonzero((t0[k] - tol > t) | (t1[k] + tol < t))
    if len(bad):
        raise GeometryError(f"interface point {t[bad[0]]} not covered by a contact facet")
    return facet[k], t1[k] - t0[k]


def build_interface(mesh1: Mesh, mesh2: Mesh) -> list:
    """Intersect the contact facets of both bodies into interface segments.

    Both traces must lie on the same straight line; the segments tile
    the overlap of the two traces, each remembering its parent facet on
    either side.
    """
    g1 = mesh1.facets_of_kind(CONTACT)
    g2 = mesh2.facets_of_kind(CONTACT)
    if len(g1) == 0 or len(g2) == 0:
        raise GeometryError("one of the bodies has no contact facets")
    tol = geometric_tolerance(mesh1, mesh2)

    a = mesh1.vertices[mesh1.facets[g1[0], 0]]
    b = mesh1.vertices[mesh1.facets[g1[0], 1]]
    direction = (b - a) / np.hypot(*(b - a))
    origin = a

    iv1 = _facet_intervals(mesh1, g1, origin, direction, tol)
    iv2 = _facet_intervals(mesh2, g2, origin, direction, tol)
    lo = max(iv1[0][0], iv2[0][0])
    hi = min(iv1[1][-1], iv2[1][-1])
    if hi - lo <= tol:
        raise GeometryError("the contact traces of the two bodies do not overlap")

    normal = _outward_normal(mesh1, int(g1[0]), direction)
    ends = np.concatenate([iv1[0], iv1[1], iv2[0], iv2[1]])
    cuts = np.sort(np.concatenate([[lo, hi], ends[(lo + tol < ends) & (ends < hi - tol)]]))
    keep = np.concatenate([[True], np.diff(cuts) > tol])
    cuts = cuts[keep]

    long = np.diff(cuts) > tol
    t0, t1 = cuts[:-1][long], cuts[1:][long]
    f1, h1 = _parent_facets(iv1, 0.5 * (t0 + t1), tol)
    f2, h2 = _parent_facets(iv2, 0.5 * (t0 + t1), tol)
    p0 = origin + t0[:, None] * direction
    p1 = origin + t1[:, None] * direction
    return [InterfaceSegment(p0=p0[s], p1=p1[s], parent1=int(f1[s]), parent2=int(f2[s]),
                             h1=float(h1[s]), h2=float(h2[s]), normal=normal)
            for s in range(len(t0))]


def bisect_refine(mesh: Mesh, marked) -> Mesh:
    """Newest-vertex bisection of the marked triangles plus closure.

    ``marked`` is a 1-D sequence (or iterable) of triangle ids.  The
    refinement facet of every marked triangle is marked, and the marking
    is closed: while a triangle has a marked facet but an unmarked
    refinement facet, its refinement facet is marked too.  Each triangle
    whose refinement facet is marked is then bisected, and each child is
    bisected once more if its own refinement facet (an edge of the
    parent) is marked, so a triangle yields 1, 2, 3 or 4 children.

    Vertices of the input mesh keep their positions and indices; the
    midpoints of the marked facets follow as ``nv, nv + 1, ...`` in facet
    order.  The children of each input triangle are contiguous and in the
    order of their parents, and ``parents`` on the result maps each
    triangle to its input triangle.
    """
    if not isinstance(marked, np.ndarray):
        marked = list(marked)
    marked = np.asarray(marked)
    if marked.ndim != 1 or marked.dtype == bool:
        raise ValueError("marked must be a 1-D sequence of triangle ids, not a mask")
    if marked.size == 0:
        return mesh
    if not np.issubdtype(marked.dtype, np.integer):
        if not np.issubdtype(marked.dtype, np.floating) or np.any(marked != np.round(marked)):
            raise ValueError("marked set contains non-integral triangle ids")
    if marked.min() < 0 or marked.max() >= mesh.num_triangles:
        raise ValueError("marked set contains invalid triangle ids")

    tf = mesh.triangle_facets
    refine = np.zeros(mesh.num_facets, dtype=bool)
    refine[tf[marked.astype(int), 0]] = True
    while True:
        # each pass marks at least one new facet, so the loop ends
        pending = refine[tf].any(axis=1) & ~refine[tf[:, 0]]
        if not pending.any():
            break
        refine[tf[pending, 0]] = True

    nv = mesh.num_vertices
    new = np.flatnonzero(refine)
    midpoint = np.full(mesh.num_facets, -1)
    midpoint[new] = nv + np.arange(new.size)
    f = mesh.facets[new]
    vertices = np.concatenate(
        [mesh.vertices, 0.5 * (mesh.vertices[f[:, 0]] + mesh.vertices[f[:, 1]])]
    )

    v0, v1, v2 = mesh.triangles.T
    m, m1, m2 = midpoint[tf].T
    split = m >= 0
    split1 = m2 >= 0  # first child (m, v0, v1) across v0v1
    split2 = m1 >= 0  # second child (m, v2, v0) across v2v0

    first = np.where(split1[:, None], np.column_stack((m2, m, v0)),
                     np.column_stack((m, v0, v1)))
    first = np.where(split[:, None], first, mesh.triangles)
    second = np.where(split2[:, None], np.column_stack((m1, m, v2)),
                      np.column_stack((m, v2, v0)))
    children = np.stack([first, np.column_stack((m2, v1, m)), second,
                         np.column_stack((m1, v0, m))], axis=1)
    keep = np.column_stack([np.ones_like(split), split1, split, split2])
    triangles = children[keep]
    parents = np.repeat(np.arange(mesh.num_triangles), keep.sum(axis=1))
    return _make_mesh(
        vertices, triangles, mesh.body_id, mesh.bbox,
        spec=mesh.boundary_spec, parents=parents,
    )


def uniform_refine(mesh: Mesh, sweeps: int = 1) -> Mesh:
    if sweeps < 0:
        raise ValueError(f"the number of refinement sweeps must be >= 0, got {sweeps}")
    for _ in range(sweeps):
        mesh = bisect_refine(mesh, np.arange(mesh.num_triangles))
    return mesh


def audit_conformity(mesh: Mesh) -> None:
    """Raise if the mesh violates its structural invariants."""
    areas = mesh.signed_areas()
    if np.any(areas <= 0):
        raise AssertionError("non-positive triangle area")
    counts = (mesh.facet_triangles >= 0).sum(axis=1)
    if not np.all((counts == 1) | (counts == 2)):
        raise AssertionError("facet with bad adjacency count")
    x0, x1, y0, y1 = mesh.bbox
    tol = geometric_tolerance(mesh)
    mids = mesh.facet_midpoints()[mesh.boundary_facets()]
    on_edge = (
        (np.abs(mids[:, 0] - x0) < tol)
        | (np.abs(mids[:, 0] - x1) < tol)
        | (np.abs(mids[:, 1] - y0) < tol)
        | (np.abs(mids[:, 1] - y1) < tol)
    )
    if not np.all(on_edge):
        raise AssertionError("boundary facet not on the rectangle boundary (hanging node)")
    area = (x1 - x0) * (y1 - y0)
    if abs(areas.sum() - area) > 1e-10 * area:
        raise AssertionError("triangle areas do not sum to the rectangle area")


def audit_interface(segments, mesh1: Mesh, mesh2: Mesh) -> None:
    """Raise if the segments do not tile the interface or leave their parents."""
    tol = geometric_tolerance(mesh1, mesh2)
    total = sum(s.length for s in segments)
    # the interface is the overlap of the two contact traces
    spans = []
    for mesh in (mesh1, mesh2):
        g = mesh.facets_of_kind(CONTACT)
        pts = mesh.vertices[mesh.facets[g]].reshape(-1, 2)
        d = segments[0].p1 - segments[0].p0
        d = d / np.hypot(*d)
        t = (pts - segments[0].p0) @ d
        spans.append((t.min(), t.max()))
    overlap = min(spans[0][1], spans[1][1]) - max(spans[0][0], spans[1][0])
    if abs(total - overlap) > 10 * tol * max(1.0, len(segments)):
        raise AssertionError("segments do not cover the interface")
    for s in segments:
        if s.length <= tol:
            raise AssertionError("degenerate segment")
        for mesh, parent in ((mesh1, s.parent1), (mesh2, s.parent2)):
            a = mesh.vertices[mesh.facets[parent, 0]]
            b = mesh.vertices[mesh.facets[parent, 1]]
            lo = np.minimum(a, b) - tol
            hi = np.maximum(a, b) + tol
            for p in (s.p0, s.p1):
                if np.any(p < lo) or np.any(p > hi):
                    raise AssertionError("segment endpoint outside its parent facet")


def dump_mesh(mesh: Mesh) -> str:
    """ASCII dump: header, one vertex per line, one triangle per line."""
    lines = [f"vertices {mesh.num_vertices} triangles {mesh.num_triangles}"]
    for x, y in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g}")
    for i, j, k in mesh.triangles:
        lines.append(f"{i} {j} {k} {mesh.body_id}")
    return "\n".join(lines) + "\n"


def parse_mesh(text: str, bbox=None) -> Mesh:
    rows = text.strip().splitlines()
    head = rows[0].split()
    if head[0] != "vertices" or head[2] != "triangles":
        raise ValueError("bad mesh header")
    nv, nt = int(head[1]), int(head[3])
    vertices = np.array([[float(w) for w in r.split()] for r in rows[1 : 1 + nv]])
    body = 1
    tris = []
    for r in rows[1 + nv : 1 + nv + nt]:
        i, j, k, tag = (int(w) for w in r.split())
        tris.append((i, j, k))
        body = tag
    triangles = np.array(tris, dtype=int)
    if bbox is None:
        bbox = (
            float(vertices[:, 0].min()),
            float(vertices[:, 0].max()),
            float(vertices[:, 1].min()),
            float(vertices[:, 1].max()),
        )
    return _make_mesh(vertices, triangles, body, bbox)
