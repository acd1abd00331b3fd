"""Triangulations of the two elastic blocks and their contact interface.

A mesh is a plain numpy structure: vertices as an ``(nv, 2)`` array and
triangles as an ``(nt, 3)`` index array with positive orientation.  The
first vertex of every triangle is the *peak* used by newest-vertex
bisection; the refinement edge is the one opposite to it.  Meshes are
immutable: refinement and classification return new objects.

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
    """Facet table from the triangle list; raises on inverted triangles."""
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
    facets, inverse = np.unique(edges, axis=0, return_inverse=True)
    nt = t.shape[0]
    triangle_facets = inverse.reshape(3, nt).T

    counts = np.bincount(inverse, minlength=facets.shape[0])
    if counts.max() > 2:
        raise GeometryError("facet shared by more than two triangles")
    facet_triangles = np.full((facets.shape[0], 2), -1, dtype=int)
    order = np.argsort(inverse, kind="stable")
    owner = np.tile(np.arange(nt), 3)[order]
    slot = np.zeros(facets.shape[0], dtype=int)
    for f, tri in zip(inverse[order], owner):
        facet_triangles[f, slot[f]] = tri
        slot[f] += 1
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
    """Map contact facets to parameter intervals along the interface line."""
    out = []
    for f in facet_ids:
        a = mesh.vertices[mesh.facets[f, 0]]
        b = mesh.vertices[mesh.facets[f, 1]]
        for p in (a, b):
            off = (p - origin) - ((p - origin) @ direction) * direction
            if np.hypot(*off) > tol:
                raise GeometryError(
                    f"contact facet {f} of body {mesh.body_id} is not on the interface line"
                )
        ta = float((a - origin) @ direction)
        tb = float((b - origin) @ direction)
        out.append((min(ta, tb), max(ta, tb), int(f)))
    out.sort()
    for (a0, b0, _), (a1, _, _) in zip(out, out[1:]):
        if a1 < b0 - tol:
            raise GeometryError(f"overlapping contact facets on body {mesh.body_id}")
        if a1 > b0 + tol:
            raise GeometryError(f"gap in the contact trace of body {mesh.body_id}")
    return out


def _outward_normal(mesh, facet, direction):
    a = mesh.vertices[mesh.facets[facet, 0]]
    b = mesh.vertices[mesh.facets[facet, 1]]
    tri = mesh.facet_triangles[facet, 0]
    opposite = [v for v in mesh.triangles[tri] if v not in mesh.facets[facet]][0]
    n = np.array([direction[1], -direction[0]])
    if n @ (mesh.vertices[opposite] - 0.5 * (a + b)) > 0:
        n = -n
    return n


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
    hi = min(iv1[-1][1], iv2[-1][1])
    if hi - lo <= tol:
        raise GeometryError("the contact traces of the two bodies do not overlap")

    normal = _outward_normal(mesh1, int(g1[0]), direction)
    cuts = np.array(sorted(
        [lo, hi] + [t for iv in iv1 + iv2 for t in iv[:2] if lo + tol < t < hi - tol]
    ))
    keep = np.concatenate([[True], np.diff(cuts) > tol])
    cuts = cuts[keep]

    def find_parent(intervals, tmid):
        for (t0, t1, f) in intervals:
            if t0 - tol <= tmid <= t1 + tol:
                return f, t1 - t0
        raise GeometryError(f"interface point {tmid} not covered by a contact facet")

    segments = []
    for t0, t1 in zip(cuts[:-1], cuts[1:]):
        if t1 - t0 <= tol:
            continue
        tmid = 0.5 * (t0 + t1)
        f1, h1 = find_parent(iv1, tmid)
        f2, h2 = find_parent(iv2, tmid)
        segments.append(
            InterfaceSegment(
                p0=origin + t0 * direction,
                p1=origin + t1 * direction,
                parent1=f1,
                parent2=f2,
                h1=float(h1),
                h2=float(h2),
                normal=normal,
            )
        )
    return segments


def bisect_refine(mesh: Mesh, marked) -> Mesh:
    """Newest-vertex bisection of the marked triangles plus closure.

    Every marked triangle is bisected at least once; neighbours are
    bisected as needed so the result is conforming.  Vertices of the
    input mesh keep their positions and indices.  ``parents`` on the
    result maps each triangle to its ancestor in the input mesh.
    """
    marked = np.atleast_1d(np.asarray(list(marked), dtype=int))
    if marked.size == 0:
        return mesh
    if marked.min() < 0 or marked.max() >= mesh.num_triangles:
        raise ValueError("marked set contains invalid triangle ids")

    verts = [tuple(v) for v in mesh.vertices]
    tris = [tuple(t) for t in mesh.triangles]
    alive = [True] * len(tris)
    ancestor = list(range(len(tris)))

    edge_tris: dict = {}

    def edge_key(a, b):
        return (a, b) if a < b else (b, a)

    def tri_edges(t):
        v0, v1, v2 = tris[t]
        return (edge_key(v1, v2), edge_key(v2, v0), edge_key(v0, v1))

    for t in range(len(tris)):
        for e in tri_edges(t):
            edge_tris.setdefault(e, set()).add(t)

    midpoint: dict = {}

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
            tc = len(tris) - 1
            for e in tri_edges(tc):
                edge_tris.setdefault(e, set()).add(tc)

    work = [int(t) for t in marked]
    budget = 0
    while work:
        budget += 1
        if budget > 100 * (len(mesh.triangles) + marked.size) + 10000:
            raise RuntimeError("refinement closure did not terminate")
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
        m = midpoint[e]
        split(t, m)
        if nb is not None:
            split(nb, m)

    new_vertices = np.array(verts)
    keep = [i for i in range(len(tris)) if alive[i]]
    new_triangles = np.array([tris[i] for i in keep], dtype=int)
    parents = np.array([ancestor[i] for i in keep], dtype=int)
    return _make_mesh(
        new_vertices, new_triangles, mesh.body_id, mesh.bbox,
        spec=mesh.boundary_spec, parents=parents,
    )


def uniform_refine(mesh: Mesh, sweeps: int = 1) -> Mesh:
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
