"""Residual a posteriori error estimation for the contact solves.

Four families of local contributions are collected: element residuals,
traction jumps across interior facets, contact-facet residuals (pressure
consistency, tangential traction, penetration), and Neumann-facet
traction residuals.  Their squared sum is the global estimator; a
separate globally-defined complementarity term measures pressure acting
across an open gap.

Stress traces are evaluated from per-element vertex stresses: the
discrete stress is at most linear inside an element, so its trace along
any edge is the linear interpolant of the two endpoint values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .contact import MASTER_SLAVE, WEIGHTED, SolveResult
from .fem import (
    FeSpace,
    MaterialParams,
    gauss1d,
    shape_gradients,
    shape_hessians,
    shape_values,
    triangle_rule,
)

_REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@dataclass
class EstimatorReport:
    """Squared local contributions per body plus the global quantities.

    Facet arrays run over all facets of the body's mesh and are zero
    where the family does not apply.  ``aggregate`` is the per-triangle
    marking indicator over both bodies (body 1 first): the element term
    plus half of each adjacent interior-facet term and the full share of
    boundary-facet terms, so that ``aggregate.sum() == eta2``.
    """

    element2: tuple
    interior2: tuple
    contact2: tuple
    neumann2: tuple
    S2: float
    osc: tuple
    aggregate: np.ndarray

    @property
    def family_totals(self) -> dict:
        return {
            "element": float(sum(a.sum() for a in self.element2)),
            "interior": float(sum(a.sum() for a in self.interior2)),
            "contact": float(sum(a.sum() for a in self.contact2)),
            "neumann": float(sum(a.sum() for a in self.neumann2)),
        }

    @property
    def eta2(self) -> float:
        t = self.family_totals
        return t["element"] + t["interior"] + t["contact"] + t["neumann"]

    @property
    def eta(self) -> float:
        return float(np.sqrt(self.eta2))

    @property
    def S(self) -> float:
        return float(np.sqrt(self.S2))

    @property
    def total(self) -> float:
        return self.eta + self.S

    @property
    def osc_total(self) -> float:
        return float(np.sqrt(sum((a**2).sum() for a in self.osc)))


def vertex_stresses(space: FeSpace, mat: MaterialParams, coeffs: np.ndarray) -> np.ndarray:
    """Stress tensor at the three vertices of every element, (nt, 3, 2, 2)."""
    gref = shape_gradients(space.degree, _REF_VERTICES)  # (3, nl, 2)
    _, invA, _ = space.geometry()
    g = np.einsum("qld,tde->tqle", gref, invA)  # (nt, 3, nl, 2)
    cx = coeffs[2 * space.cell_nodes]
    cy = coeffs[2 * space.cell_nodes + 1]
    grad = np.empty((space.mesh.num_triangles, 3, 2, 2))
    grad[:, :, 0, :] = np.einsum("tqld,tl->tqd", g, cx)
    grad[:, :, 1, :] = np.einsum("tqld,tl->tqd", g, cy)
    eps = 0.5 * (grad + np.swapaxes(grad, 2, 3))
    tr = eps[..., 0, 0] + eps[..., 1, 1]
    sig = 2.0 * mat.mu * eps
    sig[..., 0, 0] += mat.lam * tr
    sig[..., 1, 1] += mat.lam * tr
    return sig


def stress_divergence(space: FeSpace, mat: MaterialParams, coeffs: np.ndarray) -> np.ndarray:
    """Elementwise-constant divergence of the discrete stress, (nt, 2)."""
    Href = shape_hessians(space.degree)  # (nl, 2, 2)
    _, invA, _ = space.geometry()
    # physical Hessian: invA^T H invA per element and basis function
    H = np.einsum("tda,lde,teb->tlab", invA, Href, invA)
    cx = coeffs[2 * space.cell_nodes]
    cy = coeffs[2 * space.cell_nodes + 1]
    lap = H[..., 0, 0] + H[..., 1, 1]  # (nt, nl)
    div = np.empty((space.mesh.num_triangles, 2))
    # div sigma(u)_k = mu lap(u_k) + (mu + lam) d_k (div u)
    for k in range(2):
        div[:, k] = mat.mu * (
            np.einsum("tl,tl->t", lap, cx if k == 0 else cy)
        ) + (mat.mu + mat.lam) * (
            np.einsum("tl,tl->t", H[..., k, 0], cx) + np.einsum("tl,tl->t", H[..., k, 1], cy)
        )
    return div


def element_estimator(space: FeSpace, mat: MaterialParams, coeffs: np.ndarray,
                      f: Optional[Callable], quad_degree: int = 6) -> np.ndarray:
    """Squared element residuals (h_K^2 / mu) ||div sigma + f||^2."""
    pts, w = triangle_rule(quad_degree)
    div = stress_divergence(space, mat, coeffs)  # (nt, 2)
    xq = space.global_points(pts)
    if f is None:
        fv = np.zeros_like(xq)
    else:
        fv = np.asarray(f(xq.reshape(-1, 2)), dtype=float).reshape(xq.shape)
    r = fv + div[:, None, :]
    _, _, det = space.geometry()
    norm2 = np.einsum("q,tqc,tqc,t->t", w, r, r, det)
    hK = space.mesh.triangle_diameters()
    return hK**2 / mat.mu * norm2


def _facet_gauss_stress(space, sig_vertices, facets, xi):
    """Traction trace data on the given facets, from the first adjacent
    element: stresses at (nf, nq, 2, 2), unit normals and lengths."""
    mesh = space.mesh
    tris = mesh.facet_triangles[facets, 0]
    va = mesh.facets[facets, 0]
    vb = mesh.facets[facets, 1]
    # local index of the facet endpoints within the adjacent triangle
    tv = mesh.triangles[tris]
    la = (tv == va[:, None]).argmax(axis=1)
    lb = (tv == vb[:, None]).argmax(axis=1)
    sa = sig_vertices[tris, la]
    sb = sig_vertices[tris, lb]
    sig = sa[:, None] * (1 - xi)[None, :, None, None] + sb[:, None] * xi[None, :, None, None]
    e = mesh.vertices[vb] - mesh.vertices[va]
    length = np.hypot(e[:, 0], e[:, 1])
    n = np.column_stack([e[:, 1], -e[:, 0]]) / length[:, None]
    return sig, n, length, tris


def interior_facet_estimator(space: FeSpace, mat: MaterialParams, coeffs: np.ndarray,
                             n_gauss: Optional[int] = None) -> np.ndarray:
    """Squared traction-jump terms (h_E / mu) ||[sigma n]||^2 over all
    facets (zero on boundary facets)."""
    mesh = space.mesh
    sig = vertex_stresses(space, mat, coeffs)
    ng = (space.degree + 1) if n_gauss is None else n_gauss
    xi, wg = gauss1d(ng)

    interior = np.flatnonzero(mesh.facet_triangles[:, 1] >= 0)
    out = np.zeros(mesh.num_facets)
    if interior.size == 0:
        return out

    va = mesh.facets[interior, 0]
    vb = mesh.facets[interior, 1]
    e = mesh.vertices[vb] - mesh.vertices[va]
    length = np.hypot(e[:, 0], e[:, 1])
    n = np.column_stack([e[:, 1], -e[:, 0]]) / length[:, None]

    jump = None
    for side in (0, 1):
        tris = mesh.facet_triangles[interior, side]
        tv = mesh.triangles[tris]
        la = (tv == va[:, None]).argmax(axis=1)
        lb = (tv == vb[:, None]).argmax(axis=1)
        sa = sig[tris, la]
        sb = sig[tris, lb]
        s = sa[:, None] * (1 - xi)[None, :, None, None] + sb[:, None] * xi[None, :, None, None]
        tr = np.einsum("fqab,fb->fqa", s, n)
        jump = tr if side == 0 else jump - tr
    val = np.einsum("q,fqa,fqa->f", wg, jump, jump) * length
    out[interior] = length / mat.mu * val
    return out


def neumann_facet_estimator(space: FeSpace, mat: MaterialParams, coeffs: np.ndarray,
                            n_gauss: Optional[int] = None) -> np.ndarray:
    """Squared Neumann residuals (h_E / mu) ||sigma n - g||^2 (g the
    prescribed traction, zero by default), over all facets."""
    mesh = space.mesh
    out = np.zeros(mesh.num_facets)
    neumann = mesh.facets_of_kind("neumann")
    if neumann.size == 0:
        return out
    sig = vertex_stresses(space, mat, coeffs)
    ng = (space.degree + 1) if n_gauss is None else n_gauss
    xi, wg = gauss1d(ng)
    s, n, length, tris = _facet_gauss_stress(space, sig, neumann, xi)
    tr = np.einsum("fqab,fb->fqa", s, n)
    # outward orientation: flip normals pointing into the element
    mids = mesh.facet_midpoints()[neumann]
    cents = mesh.vertices[mesh.triangles[tris]].mean(axis=1)
    flip = np.einsum("fa,fa->f", n, mids - cents) < 0
    n[flip] *= -1.0
    tr[flip] *= -1.0

    for k, f in enumerate(neumann):
        rule = mesh.boundary_spec.rules[mesh.facet_rule[f]]
        if rule.traction is not None:
            a = mesh.vertices[mesh.facets[f, 0]]
            b = mesh.vertices[mesh.facets[f, 1]]
            pts = a[None, :] + xi[:, None] * (b - a)[None, :]
            tr[k] -= np.asarray(rule.traction(pts), dtype=float)
    val = np.einsum("q,fqa,fqa->f", wg, tr, tr) * length
    out[neumann] = length / mat.mu * val
    return out


def oscillation(space: FeSpace, f: Optional[Callable], quad_degree: int = 6) -> np.ndarray:
    """Data oscillation h_K ||f - f_h||_K with f_h the elementwise L2
    projection onto the displacement polynomial space."""
    nt = space.mesh.num_triangles
    if f is None:
        return np.zeros(nt)
    pts, w = triangle_rule(quad_degree)
    phi = shape_values(space.degree, pts)  # (nq, nl)
    Mref = np.einsum("q,ql,qm->lm", w, phi, phi)
    # values of f_h at the quadrature points are proj @ (values of f);
    # det cancels against M_K^{-1}
    proj = phi @ np.linalg.inv(Mref) @ (w[:, None] * phi).T  # (nq, nq)
    xq = space.global_points(pts)
    fv = np.asarray(f(xq.reshape(-1, 2)), dtype=float).reshape(xq.shape)  # (nt, nq, 2)
    fq = fv.transpose(1, 0, 2).reshape(len(w), -1)  # (nq, 2 nt)
    diff = fq - proj @ fq
    _, _, det = space.geometry()
    err2 = (w @ (diff * diff)).reshape(nt, 2).sum(axis=1) * det
    hK = space.mesh.triangle_diameters()
    return hK * np.sqrt(np.maximum(err2, 0.0))


def _lagrange_matrix(nodes: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Lagrange basis through ``nodes`` at the parameters ``ts``: (len(ts), len(nodes))."""
    out = np.ones((len(ts), len(nodes)))
    for k in range(len(nodes)):
        for m in range(len(nodes)):
            if m != k:
                out[:, k] *= (ts - nodes[m]) / (nodes[k] - nodes[m])
    return out


def _normal_jump(problem, u, parents, normal, pts):
    """Normal-displacement jump -(u1.n1 + u2.n2) at interface points.

    ``pts`` is (nseg, nq, 2); segment ``s`` lies on facet ``parents[0][s]``
    of body 1 and on facet ``parents[1][s]`` of body 2, and ``normal[s]``
    points out of body 1.
    """
    nseg, nq, _ = pts.shape
    jump = np.zeros((nseg, nq))
    for body, parent in ((1, parents[0]), (2, parents[1])):
        space = problem.spaces[body - 1]
        mesh = space.mesh
        tri = mesh.facet_triangles[parent, 0]
        p = mesh.vertices[mesh.triangles[tri]]                      # (nseg, 3, 2)
        A = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
        ref = np.linalg.solve(A, (pts - p[:, None, 0]).transpose(0, 2, 1)).transpose(0, 2, 1)
        phi = shape_values(space.degree, ref.reshape(-1, 2)).reshape(nseg, nq, -1)
        nodes = space.cell_nodes[tri]
        off = problem.offset(body)
        n_body = normal if body == 1 else -normal
        ux = np.einsum("sql,sl->sq", phi, u[off + 2 * nodes])
        uy = np.einsum("sql,sl->sq", phi, u[off + 2 * nodes + 1])
        jump -= ux * n_body[:, None, 0] + uy * n_body[:, None, 1]
    return jump


def contact_facet_estimator(result: SolveResult, n_gauss: Optional[int] = None):
    """Squared contact-facet terms for both bodies plus the global
    complementarity term.

    The pressure-consistency family depends on the mortaring variant:
    the weighted variant charges both bodies, master-slave only the
    softer body, and the inverse-penalty variant integrates the weighted
    mean residual per segment (split half/half between the parent
    facets).  Tangential-traction and penetration terms are always
    charged to both bodies.  All segments are evaluated at once; a
    facet that parents several segments collects their terms in segment
    order.
    """
    problem = result.problem
    data = result.data
    config = result.config
    mats = problem.materials
    mu1, mu2 = mats[0].mu, mats[1].mu
    slave = 2 if mu1 >= mu2 else 1
    out = (
        np.zeros(problem.spaces[0].mesh.num_facets),
        np.zeros(problem.spaces[1].mesh.num_facets),
    )
    sig_v = []
    for i in range(2):
        off = problem.offset(i + 1)
        coeffs = result.u[off:off + problem.spaces[i].num_dofs]
        sig_v.append(vertex_stresses(problem.spaces[i], mats[i], coeffs))

    default = n_gauss is None or n_gauss == data.n_per_seg
    xi, wg = data.gauss if default else gauss1d(n_gauss)

    segs = data.segments
    nseg = len(segs)
    if nseg == 0:
        return out, 0.0
    p0 = np.array([s.p0 for s in segs], dtype=float)
    p1 = np.array([s.p1 for s in segs], dtype=float)
    normal = np.array([s.normal for s in segs], dtype=float)
    parents = (np.array([s.parent1 for s in segs], dtype=int),
               np.array([s.parent2 for s in segs], dtype=int))
    h = (np.array([s.h1 for s in segs], dtype=float),
         np.array([s.h2 for s in segs], dtype=float))

    pts = p0[:, None, :] + xi[None, :, None] * (p1 - p0)[:, None, :]   # (nseg, nq, 2)
    wq = wg[None, :] * np.hypot(*(p1 - p0).T)[:, None]
    lam = result.lam.reshape(nseg, data.n_per_seg)
    if not default:
        # the segmentwise polynomial pressure through its samples
        lam = lam @ _lagrange_matrix(data.gauss[0], xi).T
    jump = _normal_jump(problem, result.u, parents, normal, pts)
    denom = h[0] * mu2 + h[1] * mu1
    w1 = (h[0] * mu2 / denom)[:, None]
    w2 = (h[1] * mu1 / denom)[:, None]
    beta = mu1 * mu2 / (config.alpha * denom)

    snn = [None, None]
    tang = [None, None]
    for i in range(2):
        mesh = problem.spaces[i].mesh
        n_body = normal if i == 0 else -normal
        ends = mesh.facets[parents[i]]                                # (nseg, 2)
        a = mesh.vertices[ends[:, 0]]
        e = mesh.vertices[ends[:, 1]] - a
        tau = np.einsum("sqd,sd->sq", pts - a[:, None, :], e) / (e * e).sum(axis=1)[:, None]
        tri = mesh.facet_triangles[parents[i], 0]
        tv = mesh.triangles[tri]
        la = (tv == ends[:, :1]).argmax(axis=1)
        lb = (tv == ends[:, 1:]).argmax(axis=1)
        sig_pts = (
            sig_v[i][tri, la][:, None] * (1 - tau)[..., None, None]
            + sig_v[i][tri, lb][:, None] * tau[..., None, None]
        )                                                             # (nseg, nq, 2, 2)
        trac = np.einsum("sqab,sb->sqa", sig_pts, n_body)
        snn[i] = np.einsum("sqa,sa->sq", trac, n_body)
        tang[i] = trac - snn[i][..., None] * n_body[:, None, :]

    S2 = float((wq * np.maximum(jump, 0.0) * lam).sum())

    for i in range(2):
        mu = mats[i].mu
        hE = h[i]
        term = (hE / mu) * (wq * (tang[i] * tang[i]).sum(axis=2)).sum(axis=1)
        term += (mu / hE) * (wq * np.maximum(-jump, 0.0) ** 2).sum(axis=1)
        if config.variant == WEIGHTED:
            term += (hE / mu) * (wq * (lam + snn[i]) ** 2).sum(axis=1)
        elif config.variant == MASTER_SLAVE:
            if i + 1 == slave:
                term += (hE / mu) * (wq * (lam + snn[i]) ** 2).sum(axis=1)
        else:
            mean = w1 * snn[0] + w2 * snn[1]
            term += 0.5 * (wq * (lam + mean) ** 2).sum(axis=1) / beta
        np.add.at(out[i], parents[i], term)
    return out, S2


def report(result: SolveResult, n_gauss_facet: Optional[int] = None,
           quad_degree_volume: int = 6) -> EstimatorReport:
    """Full estimator evaluation for a converged solve."""
    problem = result.problem
    element2 = []
    interior2 = []
    neumann2 = []
    osc = []
    for i in range(2):
        space = problem.spaces[i]
        mat = problem.materials[i]
        off = problem.offset(i + 1)
        coeffs = result.u[off:off + space.num_dofs]
        f = problem.body_loads[i]
        element2.append(element_estimator(space, mat, coeffs, f, quad_degree_volume))
        interior2.append(interior_facet_estimator(space, mat, coeffs, n_gauss_facet))
        neumann2.append(neumann_facet_estimator(space, mat, coeffs, n_gauss_facet))
        osc.append(oscillation(space, f, quad_degree_volume))
    contact2, S2 = contact_facet_estimator(result, n_gauss_facet)

    aggregates = []
    for i in range(2):
        mesh = problem.spaces[i].mesh
        agg = element2[i].copy()
        facet_total = interior2[i] + contact2[i] + neumann2[i]
        share = np.where((mesh.facet_triangles >= 0).sum(axis=1) == 2, 0.5, 1.0)
        for side in (0, 1):
            tris = mesh.facet_triangles[:, side]
            valid = tris >= 0
            np.add.at(agg, tris[valid], (share * facet_total)[valid])
        aggregates.append(agg)

    return EstimatorReport(
        element2=tuple(element2),
        interior2=tuple(interior2),
        contact2=tuple(contact2),
        neumann2=tuple(neumann2),
        S2=float(S2),
        osc=tuple(osc),
        aggregate=np.concatenate(aggregates),
    )
