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

from .contact import SolveResult, combine, mortar
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


def interior_facet_estimator(space: FeSpace, mat: MaterialParams, sig: np.ndarray,
                             n_gauss: Optional[int] = None) -> np.ndarray:
    """Squared traction-jump terms (h_E / mu) ||[sigma n]||^2 over all
    facets (zero on boundary facets); ``sig`` is ``vertex_stresses``."""
    mesh = space.mesh
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


def neumann_facet_estimator(space: FeSpace, mat: MaterialParams, sig: np.ndarray,
                            n_gauss: Optional[int] = None) -> np.ndarray:
    """Squared Neumann residuals (h_E / mu) ||sigma n - g||^2 (g the
    prescribed traction, zero by default), over all facets; ``sig`` is
    ``vertex_stresses``."""
    mesh = space.mesh
    out = np.zeros(mesh.num_facets)
    neumann = mesh.facets_of_kind("neumann")
    if neumann.size == 0:
        return out
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


def body_stresses(result: SolveResult) -> tuple:
    """``vertex_stresses`` of both bodies for a solve."""
    problem = result.problem
    return tuple(vertex_stresses(space, mat, result.u[problem.offset(i + 1):][:space.num_dofs])
                 for i, (space, mat) in enumerate(zip(problem.spaces, problem.materials)))


def contact_facet_estimator(result: SolveResult, stresses: tuple):
    """Squared contact-facet terms for both bodies plus the global
    complementarity term.

    Every term is integrated at the solve's own interface samples
    (``result.data``: points, weights, parent facet sizes, and the
    normal-displacement jump of ``result.jump_un``); their Gauss rule is
    exact on a segment where the gap keeps its sign.  The body tractions
    are traces of ``stresses`` (``body_stresses``), linear along each
    parent facet.  The pressure-consistency terms are the variant's
    ``mortar`` record: the weighted variant charges both bodies,
    master-slave only the softer body, and the inverse-penalty variant
    splits the weighted mean residual half/half between the parent
    facets.  Tangential-traction and penetration terms are always
    charged to both bodies.  A facet that parents several segments
    collects their terms in segment order.
    """
    problem = result.problem
    data = result.data
    mats = problem.materials
    out = tuple(np.zeros(space.mesh.num_facets) for space in problem.spaces)
    segs = data.segments
    nseg = len(segs)
    if nseg == 0:
        return out, 0.0
    # the interface is one straight line: every segment carries its normal
    normal = segs[0].normal
    parents = (np.array([s.parent1 for s in segs], dtype=int),
               np.array([s.parent2 for s in segs], dtype=int))
    h = (data.h1, data.h2)
    lam = result.lam
    jump = result.jump_un()

    snn, tang = [], []
    for i in range(2):
        mesh = problem.spaces[i].mesh
        n_body = normal if i == 0 else -normal
        parent = parents[i][data.seg_of]
        ends = mesh.facets[parent]                                    # (ns, 2)
        a = mesh.vertices[ends[:, 0]]
        e = mesh.vertices[ends[:, 1]] - a
        tau = ((data.points - a) * e).sum(axis=1) / (e * e).sum(axis=1)
        tri = mesh.facet_triangles[parent, 0]
        tv = mesh.triangles[tri]
        la = (tv == ends[:, :1]).argmax(axis=1)
        lb = (tv == ends[:, 1:]).argmax(axis=1)
        sig = (stresses[i][tri, la] * (1 - tau)[:, None, None]
               + stresses[i][tri, lb] * tau[:, None, None])           # (ns, 2, 2)
        trac = sig @ n_body
        snn.append(trac @ n_body)
        tang.append(trac - snn[i][:, None] * n_body)

    S2 = float((data.weights * np.maximum(jump, 0.0) * lam).sum())
    terms = [(h[i] / mats[i].mu) * (tang[i] * tang[i]).sum(axis=1)
             + (mats[i].mu / h[i]) * np.maximum(-jump, 0.0) ** 2 for i in range(2)]
    for body, weight, traction in mortar(data, mats, result.config).consistency:
        terms[body - 1] = terms[body - 1] + weight * (lam + combine(traction, *snn)) ** 2
    for i in range(2):
        per_seg = (data.weights * terms[i]).reshape(nseg, data.n_per_seg).sum(axis=1)
        np.add.at(out[i], parents[i], per_seg)
    return out, S2


def report(result: SolveResult, quad_degree_volume: int = 6) -> EstimatorReport:
    """Full estimator evaluation for a converged solve."""
    problem = result.problem
    stresses = body_stresses(result)
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
        interior2.append(interior_facet_estimator(space, mat, stresses[i]))
        neumann2.append(neumann_facet_estimator(space, mat, stresses[i]))
        osc.append(oscillation(space, f, quad_degree_volume))
    contact2, S2 = contact_facet_estimator(result, stresses)

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
