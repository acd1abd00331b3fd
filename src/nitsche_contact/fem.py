"""P1/P2 vector Lagrange elements, plane-strain elasticity forms, assembly.

Scalar basis functions live on the reference triangle with vertices
(0,0), (1,0), (0,1); vector degrees of freedom interleave the two
components of each scalar node, ``dof = 2 * node + component``
(``FeSpace.cell_dofs`` per element).  For quadratic elements the scalar
nodes are the mesh vertices followed by one node per facet (edge
midpoints).  Local blocks enter a sparse matrix only through ``scatter``,
or through ``fixed_pattern``, the one owner of the constrained system:
it drops the Dirichlet dofs and fixes the pattern of the matrices that
the Nitsche solve and the mixed oracle factor (the oracle's displacement
block); for ``MixedSystem.matrix`` the blocks also cover the multipliers,
numbered after the displacement dofs of the bulk matrix.

Hooke's law is written once, in ``stress``, batched and applied to
displacement gradients: those of the local unit dofs (``_unit_gradients``)
for the stiffness matrix and the traction rows, a field's for the estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh import DIRICHLET, Mesh

NU_MAX = 0.45  # harder caps would mask input errors; near-incompressibility is out of scope


@dataclass(frozen=True)
class MaterialParams:
    """Isotropic plane-strain material: mu = E/(2(1+nu)),
    lambda = E nu/((1+nu)(1-2nu))."""

    E: float
    nu: float
    mu: float
    lam: float

    @staticmethod
    def from_young(E: float, nu: float) -> "MaterialParams":
        if not (np.isfinite(E) and E > 0):
            raise ValueError(f"Young's modulus must be positive and finite, got {E}")
        if not (0 <= nu <= NU_MAX):
            raise ValueError(
                f"Poisson ratio {nu} outside [0, {NU_MAX}]; nearly incompressible "
                "materials are not supported"
            )
        mu = E / (2.0 * (1.0 + nu))
        lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
        return MaterialParams(E=E, nu=nu, mu=mu, lam=lam)


# ---------------------------------------------------------------------------
# reference bases and quadrature
# ---------------------------------------------------------------------------

def shape_values(p: int, pts: np.ndarray) -> np.ndarray:
    """Scalar basis values at reference points ``pts`` (nq, 2) -> (nq, nl)."""
    x, y = pts[:, 0], pts[:, 1]
    l0, l1, l2 = 1.0 - x - y, x, y
    if p == 1:
        return np.column_stack([l0, l1, l2])
    if p == 2:
        return np.column_stack([
            l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
            4 * l1 * l2, 4 * l2 * l0, 4 * l0 * l1,
        ])
    raise ValueError(f"unsupported degree {p}")


def shape_gradients(p: int, pts: np.ndarray) -> np.ndarray:
    """Reference gradients, shape (nq, nl, 2)."""
    x, y = pts[:, 0], pts[:, 1]
    one = np.ones_like(x)
    zero = np.zeros_like(x)
    l0 = 1.0 - x - y
    if p == 1:
        g = np.stack([
            np.stack([-one, -one], axis=-1),
            np.stack([one, zero], axis=-1),
            np.stack([zero, one], axis=-1),
        ], axis=1)
        return g
    if p == 2:
        d0 = 1 - 4 * l0
        g = np.stack([
            np.stack([d0, d0], axis=-1),
            np.stack([4 * x - 1, zero], axis=-1),
            np.stack([zero, 4 * y - 1], axis=-1),
            np.stack([4 * y, 4 * x], axis=-1),
            np.stack([-4 * y, 4 * (l0 - y)], axis=-1),
            np.stack([4 * (l0 - x), -4 * x], axis=-1),
        ], axis=1)
        return g
    raise ValueError(f"unsupported degree {p}")


def shape_hessians(p: int) -> np.ndarray:
    """Constant reference second derivatives, shape (nl, 2, 2)."""
    if p == 1:
        return np.zeros((3, 2, 2))
    if p == 2:
        H = np.zeros((6, 2, 2))
        H[0] = [[4, 4], [4, 4]]
        H[1] = [[4, 0], [0, 0]]
        H[2] = [[0, 0], [0, 4]]
        H[3] = [[0, 4], [4, 0]]
        H[4] = [[0, -4], [-4, -8]]
        H[5] = [[-8, -4], [-4, 0]]
        return H
    raise ValueError(f"unsupported degree {p}")


def triangle_rule(degree: int):
    """Quadrature on the reference triangle, exact to the given degree.

    Weights sum to the reference area 1/2.
    """
    if degree <= 1:
        return np.array([[1 / 3, 1 / 3]]), np.array([0.5])
    if degree == 2:
        pts = np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
        return pts, np.full(3, 1 / 6)
    if degree <= 4:
        a1, a2 = 0.445948490915965, 0.091576213509771
        w1, w2 = 0.223381589678011, 0.109951743655322
        pts = np.array([
            [a1, a1], [1 - 2 * a1, a1], [a1, 1 - 2 * a1],
            [a2, a2], [1 - 2 * a2, a2], [a2, 1 - 2 * a2],
        ])
        w = np.array([w1, w1, w1, w2, w2, w2]) * 0.5
        return pts, w
    if degree <= 6:
        a1, a2 = 0.063089014491502, 0.249286745170910
        b, c = 0.310352451033785, 0.053145049844816
        w1, w2, w3 = 0.050844906370207, 0.116786275726379, 0.082851075618374
        pts = [[a1, a1], [1 - 2 * a1, a1], [a1, 1 - 2 * a1],
               [a2, a2], [1 - 2 * a2, a2], [a2, 1 - 2 * a2],
               [b, c], [c, b], [1 - b - c, b], [1 - b - c, c], [b, 1 - b - c], [c, 1 - b - c]]
        w = np.array([w1] * 3 + [w2] * 3 + [w3] * 6) * 0.5
        return np.array(pts), w
    raise ValueError(f"no triangle rule of degree {degree}")


@cache
def gauss1d(n: int):
    """Gauss-Legendre rule mapped to [0, 1], derived once per ``n``; every
    call hands out the same read-only arrays."""
    x, w = np.polynomial.legendre.leggauss(n)
    rule = 0.5 * (x + 1.0), 0.5 * w
    for a in rule:
        a.setflags(write=False)
    return rule


# ---------------------------------------------------------------------------
# finite element space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeSpace:
    """Continuous vector Lagrange space of degree 1 or 2 on one mesh.

    ``cell_nodes[t]`` lists the scalar node ids of triangle ``t``
    (3 vertices for P1, plus the 3 opposite-facet midpoints for P2);
    vector dofs are ``2 * node + comp``.
    """

    mesh: Mesh
    degree: int
    cell_nodes: np.ndarray
    node_coords: np.ndarray

    @staticmethod
    def build(mesh: Mesh, degree: int) -> "FeSpace":
        if degree not in (1, 2):
            raise ValueError(f"unsupported degree {degree}")
        if degree == 1:
            cell_nodes = mesh.triangles.copy()
            node_coords = mesh.vertices
        else:
            cell_nodes = np.hstack([
                mesh.triangles,
                mesh.num_vertices + mesh.triangle_facets,
            ])
            node_coords = np.vstack([mesh.vertices, mesh.facet_midpoints()])
        return FeSpace(mesh=mesh, degree=degree, cell_nodes=cell_nodes, node_coords=node_coords)

    @property
    def num_nodes(self) -> int:
        return self.node_coords.shape[0]

    @property
    def num_dofs(self) -> int:
        return 2 * self.num_nodes

    @property
    def nodes_per_cell(self) -> int:
        return 3 if self.degree == 1 else 6

    @cached_property
    def cell_dofs(self) -> np.ndarray:
        """Vector dof ids of every element, (nt, 2 nl) read-only, in the
        order of the local vector dofs ``2 l + c``."""
        dofs = (2 * self.cell_nodes[:, :, None] + np.arange(2)).reshape(len(self.cell_nodes), -1)
        dofs.setflags(write=False)
        return dofs

    def geometry(self):
        """Affine maps of all elements: (A, invA, det) stacked over cells,
        computed once per space and handed out read-only."""
        return self._geometry

    @cached_property
    def _geometry(self):
        p = self.mesh.vertices
        t = self.mesh.triangles
        A = np.stack([p[t[:, 1]] - p[t[:, 0]], p[t[:, 2]] - p[t[:, 0]]], axis=-1)
        det = 2.0 * self.mesh.signed_areas()
        invA = np.empty_like(A)
        invA[:, 0, 0] = A[:, 1, 1] / det
        invA[:, 0, 1] = -A[:, 0, 1] / det
        invA[:, 1, 0] = -A[:, 1, 0] / det
        invA[:, 1, 1] = A[:, 0, 0] / det
        for a in (A, invA, det):
            a.setflags(write=False)
        return A, invA, det

    def global_points(self, ref_pts: np.ndarray) -> np.ndarray:
        """Map reference points to every element: (nt, nq, 2), their
        barycentric coordinates times the element's vertices."""
        x, y = ref_pts[:, 0], ref_pts[:, 1]
        bary = np.column_stack([1.0 - x - y, x, y])                   # (nq, 3)
        return bary @ np.take(self.mesh.vertices, self.mesh.triangles, axis=0)

    def ref_coords(self, t, x: np.ndarray) -> np.ndarray:
        """Reference coordinates of physical points ``x`` (..., nq, 2) inside
        the elements ``t`` (...), by the inverse affine map."""
        origin = self.mesh.vertices[self.mesh.triangles[t, 0]][..., None, :]
        return (np.atleast_2d(x) - origin) @ np.swapaxes(self.geometry()[1][t], -1, -2)


@dataclass
class FieldFunction:
    """A finite element function: a space plus its coefficient vector."""

    space: FeSpace
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != (self.space.num_dofs,):
            raise ValueError("coefficient length does not match the dof count")

    def element_values(self, t: int, ref_pts: np.ndarray) -> np.ndarray:
        phi = shape_values(self.space.degree, ref_pts)
        nodes = self.space.cell_nodes[t]
        ux = phi @ self.coeffs[2 * nodes]
        uy = phi @ self.coeffs[2 * nodes + 1]
        return np.column_stack([ux, uy])

    def element_gradients(self, t: int, ref_pts: np.ndarray) -> np.ndarray:
        """Displacement gradient (du_i/dx_j) at reference points: (nq, 2, 2)."""
        g = shape_gradients(self.space.degree, ref_pts) @ self.space.geometry()[1][t]
        nodes = self.space.cell_nodes[t]
        return self.coeffs[2 * nodes + np.arange(2)[:, None]] @ g   # (2, nl) @ (nq, nl, 2)

    def node_values(self) -> np.ndarray:
        return self.coeffs.reshape(-1, 2)


# ---------------------------------------------------------------------------
# kinematics and constitutive law
# ---------------------------------------------------------------------------

def strain(field: FieldFunction, t: int, ref_pt) -> np.ndarray:
    """Symmetric gradient of the displacement at one reference point."""
    g = field.element_gradients(t, np.atleast_2d(np.asarray(ref_pt, dtype=float)))[0]
    return 0.5 * (g + g.T)


def stress(mat: MaterialParams, eps: np.ndarray) -> np.ndarray:
    """Plane-strain stress 2 mu eps + lambda tr(eps) I, batched over the
    leading axes of ``eps`` (..., 2, 2).  The argument is symmetrised, so a
    displacement gradient may stand in for its strain."""
    eps = np.asarray(eps, dtype=float)
    tr = eps[..., 0, 0] + eps[..., 1, 1]
    return mat.mu * (eps + np.swapaxes(eps, -1, -2)) + mat.lam * tr[..., None, None] * np.eye(2)


def _unit_gradients(grads: np.ndarray) -> np.ndarray:
    """Displacement gradients e_c (x) grad phi_l of the local vector dofs
    2 l + c, from scalar gradients (..., nl, 2) to (..., 2 nl, 2, 2)."""
    G = np.zeros(grads.shape[:-1] + (2, 2, 2))
    G[..., 0, 0, :] = grads
    G[..., 1, 1, :] = grads
    return G.reshape(grads.shape[:-2] + (-1, 2, 2))


def elastic_moduli_rows(grads: np.ndarray, n: np.ndarray, mat: MaterialParams):
    """Rows of sigma_nn and of the full traction for local scalar gradients.

    ``grads`` has shape (nq, nl, 2); returns ``snn`` of shape
    (nq, 2 * nl) ordered like the local vector dofs, and ``trac`` of
    shape (nq, 2 * nl, 2) giving the traction vector of each unit dof.
    """
    trac = stress(mat, _unit_gradients(grads)) @ n
    return trac @ n, trac


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def assemble_bulk(space: FeSpace, mat: MaterialParams) -> sp.csr_matrix:
    """Stiffness matrix of the elasticity form over one body."""
    return scatter(stiffness_blocks(space, mat), space.cell_dofs, space.num_dofs)


def stiffness_blocks(space: FeSpace, mat: MaterialParams, out=None) -> np.ndarray:
    """Element stiffness matrices (nt, 2 nl, 2 nl), written to ``out`` when
    given: the local matrix is sum_q w_q det sigma(G_i) : G_j over the
    unit-dof gradients G, with the rule of degree 2 (p - 1), exact on
    affine elements."""
    p = space.degree
    pts, w = triangle_rule(2 * (p - 1))
    _, invA, det = space.geometry()
    G = _unit_gradients(shape_gradients(p, pts) @ invA[:, None])     # (nt, nq, 2 nl, 2, 2)
    S = stress(mat, G) * (w * det[:, None])[..., None, None, None]
    nt, nq, nd = G.shape[:3]
    # contract over (q, a, b) in one matmul per body
    flat = lambda X: X.swapaxes(1, 2).reshape(nt, nd, 4 * nq)
    return np.matmul(flat(S), flat(G).swapaxes(1, 2), out=out)


def scatter(blocks: np.ndarray, dofs: np.ndarray, n: int) -> sp.csr_matrix:
    """Sum local blocks (nb, nd, nd) into an (n, n) matrix, block ``k``
    at the rows and columns ``dofs[k]`` (nb, nd)."""
    nd = dofs.shape[1]
    rows = np.repeat(dofs, nd, axis=1)
    cols = np.tile(dofs, (1, nd))
    return sp.coo_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n)).tocsr()


def assemble_load(space: FeSpace, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Load vector of a body force; ``f`` maps points (n, 2) to (n, 2)."""
    pts, w = triangle_rule(4)
    phi = shape_values(space.degree, pts)  # (nq, nl)
    _, _, det = space.geometry()
    xq = space.global_points(pts)  # (nt, nq, 2)
    fv = f(xq.reshape(-1, 2)).reshape(xq.shape)  # (nt, nq, 2)
    contrib = np.einsum("q,tqc,ql,t->tlc", w, fv, phi, det)  # (nt, nl, 2)
    b = np.zeros(space.num_dofs)
    np.add.at(b, space.cell_dofs, contrib.reshape(space.cell_dofs.shape))
    return b


def _facet_points(mesh: Mesh, facets: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Points at the parameters ``xi`` along each facet, (nf, nq, 2)."""
    a = mesh.vertices[mesh.facets[facets, 0]]
    b = mesh.vertices[mesh.facets[facets, 1]]
    return a[:, None, :] + xi[None, :, None] * (b - a)[:, None, :]


def boundary_traction(mesh: Mesh, facets: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Prescribed surface traction at the parameters ``xi`` along each
    boundary facet, (nf, nq, 2); zero where the facet's rule has none."""
    pts = _facet_points(mesh, facets, xi)
    g = np.zeros_like(pts)
    rule_of = mesh.facet_rule[facets]
    for k, rule in enumerate(mesh.boundary_spec.rules):
        on = rule_of == k
        if rule.traction is not None and on.any():
            values = rule.traction(pts[on].reshape(-1, 2))
            g[on] = np.asarray(values, dtype=float).reshape(-1, len(xi), 2)
    return g


def assemble_boundary_load(space: FeSpace) -> np.ndarray:
    """Surface load from the tractions attached to Neumann rules."""
    mesh = space.mesh
    if mesh.boundary_spec is None:
        raise ValueError("mesh is not classified")
    xi, wg = gauss1d(space.degree + 1)
    facets = mesh.boundary_facets()
    g = boundary_traction(mesh, facets, xi)                       # (nf, nq, 2)
    tri = mesh.facet_triangles[facets, 0]
    ref = space.ref_coords(tri, _facet_points(mesh, facets, xi))
    phi = shape_values(space.degree, ref.reshape(-1, 2)).reshape(len(facets), len(xi), -1)
    contrib = np.einsum("q,fql,fqc,f->flc", wg, phi, g, mesh.facet_lengths()[facets])
    b = np.zeros(space.num_dofs)
    np.add.at(b, space.cell_dofs[tri], contrib.reshape(len(tri), -1))
    return b


def interpolate(space: FeSpace, func: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Nodal interpolation of a smooth vector field."""
    vals = np.asarray(func(space.node_coords), dtype=float)
    return vals.ravel()


# ---------------------------------------------------------------------------
# Dirichlet constraints by elimination
# ---------------------------------------------------------------------------

def dirichlet_mask(space: FeSpace) -> np.ndarray:
    """Boolean mask of constrained dofs from the mesh's Dirichlet rules."""
    mesh = space.mesh
    if mesh.boundary_spec is None:
        raise ValueError("mesh is not classified")
    fixed = np.zeros((space.num_nodes, 2), dtype=bool)
    for k, rule in enumerate(mesh.boundary_spec.rules):
        if rule.kind != DIRICHLET:
            continue
        f = np.flatnonzero(mesh.facet_rule == k)
        nodes = mesh.facets[f]
        if space.degree == 2:   # the facet's midpoint node
            nodes = np.column_stack([nodes, mesh.num_vertices + f])
        fixed[np.ix_(nodes.ravel(), rule.components)] = True
    return fixed.ravel()


def pin_dof(space: FeSpace, point, comp: int) -> int:
    """Dof index of one displacement component at a mesh vertex.

    Used to remove rigid-body modes left over by component-wise
    Dirichlet data; the vertex must exist in the mesh.
    """
    d = np.hypot(*(space.mesh.vertices - np.asarray(point)).T)
    i = int(np.argmin(d))
    if d[i] > 1e-9:
        raise ValueError(f"no mesh vertex at {point}")
    return 2 * i + comp


def fixed_pattern(A: sp.spmatrix, dofs: np.ndarray, fixed: np.ndarray):
    """The constrained system on one fixed CSC pattern: ``A`` plus local
    blocks over ``dofs`` (nb, nd), with every entry in a row or column of
    a ``fixed`` dof dropped (homogeneous data) and the free dofs numbered
    in order.  The ``n = fixed.size`` dofs may outnumber ``A``'s, which
    then covers the leading ones.

    Returns ``(add, free)``: ``free`` lists the free dofs, and
    ``add(blocks)`` gives the CSC matrix of ``A + scatter(blocks, dofs, n)``
    over them, on the union of both patterns.  The pattern is fixed once,
    by a sort of column-major keys; ``add`` copies ``A``'s values and adds
    the blocks' with one ``bincount``.
    """
    n = fixed.size
    free = np.flatnonzero(~fixed)
    nf = free.size
    local = np.full(n, nf)          # fixed dofs map past the last free one
    local[free] = np.arange(nf)
    A = A.tocsc()
    nd = dofs.shape[1]
    rows = local[np.concatenate([A.indices, np.repeat(dofs, nd, axis=1).ravel()])]
    cols = local[np.concatenate([np.repeat(np.arange(A.shape[1]), np.diff(A.indptr)),
                                 np.tile(dofs, (1, nd)).ravel()])]
    kept = (rows < nf) & (cols < nf)
    # column-major keys, whose sorted order is the CSC order; A's come
    # sorted, so the stable sort mostly merges in the blocks' keys
    keys = cols[kept] * nf + rows[kept]
    del rows, cols   # the largest temporaries; freed before the sort they would outlive
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.diff(ordered, prepend=-1) != 0
    union = ordered[first]
    nnz = union.size
    slot = np.full(kept.size, nnz)  # entries at fixed dofs land in an extra slot
    slot[np.flatnonzero(kept)[order]] = np.cumsum(first) - 1
    indptr = np.searchsorted(union, np.arange(nf + 1, dtype=np.int64) * nf).astype(np.int32)
    indices = (union % nf).astype(np.int32)
    a_values = np.bincount(slot[:A.nnz], weights=A.data, minlength=nnz + 1)[:-1]
    block_slot = slot[A.nnz:].copy()   # a view would keep all of ``slot`` alive

    def add(blocks: np.ndarray) -> sp.csc_matrix:
        values = a_values + np.bincount(block_slot, weights=blocks.ravel(),
                                        minlength=nnz + 1)[:-1]
        return sp.csc_matrix((values, indices, indptr), shape=(nf, nf))

    return add, free


def expand(u_free: np.ndarray, free: np.ndarray, n: int) -> np.ndarray:
    u = np.zeros(n)
    u[free] = u_free
    return u
