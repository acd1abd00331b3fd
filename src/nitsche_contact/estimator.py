"""Residual a posteriori error estimation for the contact solves.

Four families of local contributions are collected: element residuals,
traction jumps across interior facets, contact-facet residuals (pressure
consistency, tangential traction, penetration), and Neumann-facet
traction residuals.  Their squared sum is the global estimator; a
separate globally-defined complementarity term measures pressure acting
across an open gap.

The interior and Neumann facet traces are evaluated from per-element
vertex stresses (``_facet_traction``): the discrete stress is at most
linear inside an element, so its trace along any edge is the linear
interpolant of the two endpoint values.  The contact terms read the body
tractions from the solve's own interface rows (``InterfaceData``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .contact import SolveResult, combine
from .fem import (
    FeSpace,
    MaterialParams,
    boundary_traction,
    gauss1d,
    shape_gradients,
    shape_hessians,
    shape_values,
    stress,
    triangle_rule,
)

_REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
# exactness degree of the element-residual and oscillation quadrature
VOLUME_QUAD_DEGREE = 6


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


def _cell_coefficients(space: FeSpace, coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of the local scalar basis per component, (nt, 2, nl)."""
    return coeffs[space.cell_dofs.reshape(len(space.cell_dofs), -1, 2).swapaxes(1, 2)]


def vertex_stresses(space: FeSpace, mat: MaterialParams, coeffs: np.ndarray) -> np.ndarray:
    """Stress tensor at the three vertices of every element, (nt, 3, 2, 2)."""
    g = shape_gradients(space.degree, _REF_VERTICES) @ space.geometry()[1][:, None]
    return stress(mat, _cell_coefficients(space, coeffs)[:, None] @ g)    # (nt, 3, 2, 2)


def stress_divergence(space: FeSpace, mat: MaterialParams, coeffs: np.ndarray) -> np.ndarray:
    """Elementwise-constant divergence of the discrete stress, (nt, 2):
    sigma is linear, so (div sigma(u))_a = sum_j sigma(d_j grad u)_aj."""
    _, invA, _ = space.geometry()
    # physical Hessians invA^T H invA per element and basis function, (nt, nl, 2, 2)
    H = invA.swapaxes(1, 2)[:, None] @ shape_hessians(space.degree) @ invA[:, None]
    nt, nl = H.shape[:2]
    # d_j grad u as (nt, j, c, b): Hessians are symmetric, so H_bj = H_jb
    dgrad = (_cell_coefficients(space, coeffs) @ H.reshape(nt, nl, 4)).reshape(nt, 2, 2, 2)
    sig = stress(mat, dgrad.swapaxes(1, 2))                 # (nt, j, a, b)
    return sig[:, 0, :, 0] + sig[:, 1, :, 1]


def element_estimator(space: FeSpace, mat: MaterialParams, coeffs: np.ndarray,
                      f: Optional[Callable]) -> np.ndarray:
    """Squared element residuals (h_K^2 / mu) ||div sigma + f||^2."""
    pts, w = triangle_rule(VOLUME_QUAD_DEGREE)
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


def _facet_traction(mesh, sig, facets, side, xi):
    """Traction sigma n at the parameters ``xi`` along each facet from the
    vertex stresses ``sig`` of the triangle on ``side`` (0, 1, or both as
    a leading axis), n the facet normal out of side 0."""
    n = mesh.facet_normals(facets)
    va, vb = mesh.facets[facets].T
    tris = mesh.facet_triangles[facets][:, side].T        # ([nsides,] nf)
    # local index of the facet endpoints within the adjacent triangle
    tv = mesh.triangles[tris]
    la = (tv == va[:, None]).argmax(axis=-1)
    lb = (tv == vb[:, None]).argmax(axis=-1)
    ta = (sig[tris, la] @ n[:, :, None])[..., 0]          # ([nsides,] nf, 2)
    tb = (sig[tris, lb] @ n[:, :, None])[..., 0]
    return ta[..., None, :] * (1 - xi)[:, None] + tb[..., None, :] * xi[:, None]


def interior_facet_estimator(space: FeSpace, mat: MaterialParams, sig: np.ndarray) -> np.ndarray:
    """Squared traction-jump terms (h_E / mu) ||[sigma n]||^2 over all
    facets (zero on boundary facets); ``sig`` is ``vertex_stresses``."""
    mesh = space.mesh
    out = np.zeros(mesh.num_facets)
    interior = np.flatnonzero(mesh.facet_triangles[:, 1] >= 0)
    xi, wg = gauss1d(space.degree + 1)
    tr = _facet_traction(mesh, sig, interior, (0, 1), xi)
    jump = tr[0] - tr[1]
    length = mesh.facet_lengths()[interior]
    out[interior] = length**2 / mat.mu * np.einsum("q,fqa,fqa->f", wg, jump, jump)
    return out


def neumann_facet_estimator(space: FeSpace, mat: MaterialParams, sig: np.ndarray) -> np.ndarray:
    """Squared Neumann residuals (h_E / mu) ||sigma n - g||^2 (g the
    prescribed traction, zero by default), over all facets; ``sig`` is
    ``vertex_stresses``."""
    mesh = space.mesh
    out = np.zeros(mesh.num_facets)
    neumann = mesh.facets_of_kind("neumann")
    xi, wg = gauss1d(space.degree + 1)
    tr = _facet_traction(mesh, sig, neumann, 0, xi) - boundary_traction(mesh, neumann, xi)
    length = mesh.facet_lengths()[neumann]
    out[neumann] = length**2 / mat.mu * np.einsum("q,fqa,fqa->f", wg, tr, tr)
    return out


def oscillation(space: FeSpace, f: Optional[Callable]) -> np.ndarray:
    """Data oscillation h_K ||f - f_h||_K with f_h the elementwise L2
    projection onto the displacement polynomial space."""
    nt = space.mesh.num_triangles
    if f is None:
        return np.zeros(nt)
    pts, w = triangle_rule(VOLUME_QUAD_DEGREE)
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


def contact_facet_estimator(result: SolveResult):
    """Squared contact-facet terms for both bodies plus the global
    complementarity term.

    Every term is integrated at the solve's own interface samples
    (``result.data``: points, weights, parent facets and their sizes),
    whose Gauss rule is exact on a segment where the gap keeps its sign.
    The body tractions, normal and tangential, and the
    normal-displacement jump are the solve's interface rows applied to
    ``result.u``; nothing here re-derives a trace.  The
    pressure-consistency terms are the solve's ``Mortar`` record: the
    weighted variant charges both bodies, master-slave only the softer
    body, and the inverse-penalty variant splits the weighted mean
    residual half/half between the parent facets.  Tangential-traction
    and penetration terms are always charged to both bodies.  A facet
    that parents several segments collects their terms in segment order.
    """
    problem = result.problem
    data = result.data
    mats = problem.materials
    out = tuple(np.zeros(space.mesh.num_facets) for space in problem.spaces)
    nseg = data.parents.shape[0]
    h = (data.h1, data.h2)
    lam = result.lam
    jump = result.jump_un()
    snn = (result.traction_samples(1), result.traction_samples(2))
    tang = (data.rows_dot(data.tan1, result.u), data.rows_dot(data.tan2, result.u))

    S2 = float((data.weights * np.maximum(jump, 0.0) * lam).sum())
    terms = [(h[i] / mats[i].mu) * tang[i] ** 2
             + (mats[i].mu / h[i]) * np.maximum(-jump, 0.0) ** 2 for i in range(2)]
    for body, weight, traction in result.mortar.consistency:
        terms[body - 1] = terms[body - 1] + weight * (lam + combine(traction, *snn)) ** 2
    for i in range(2):
        per_seg = (data.weights * terms[i]).reshape(nseg, data.n_per_seg).sum(axis=1)
        np.add.at(out[i], data.parents[:, i], per_seg)
    return out, S2


def report(result: SolveResult) -> EstimatorReport:
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
        sig = vertex_stresses(space, mat, coeffs)
        element2.append(element_estimator(space, mat, coeffs, f))
        interior2.append(interior_facet_estimator(space, mat, sig))
        neumann2.append(neumann_facet_estimator(space, mat, sig))
        osc.append(oscillation(space, f))
    contact2, S2 = contact_facet_estimator(result)

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
