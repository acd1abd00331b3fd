"""Nitsche mortaring of the frictionless contact constraint.

Three variants are provided.  All eliminate the contact pressure in
favour of the displacements; they differ in how the two bodies' normal
tractions are combined on the interface:

* ``weighted`` - a mesh/material-weighted average of both tractions and
  an extra traction-jump stabilisation,
* ``master-slave`` - the traction of the softer body alone,
* ``juntunen`` - the weighted average with the stabilisation expressed
  through the inverse penalty weight.

The contact region is tracked pointwise at the interface quadrature
points and resolved by a fixed-point iteration on the active set.  The
iteration starts from the fully active indicator, or, when the problem
carries the converged samples of a solve on a nearby mesh (the previous
step of an adaptive study), from that indicator transferred onto the new
samples by position along the interface.
Quadrature uses ``degree + 1`` Gauss points per interface segment, which
integrates every coupling term exactly and makes the multiplier samples
an exact parametrisation of the segmentwise polynomial multiplier.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import MatrixRankWarning, spsolve

from .fem import (
    FeSpace,
    FieldFunction,
    assemble_boundary_load,
    assemble_bulk,
    assemble_load,
    constrain,
    dirichlet_mask,
    elastic_moduli_rows,
    expand,
    gauss1d,
    pin_dof,
    shape_gradients,
    shape_values,
)
from .mesh import Mesh

WEIGHTED = "weighted"
MASTER_SLAVE = "master-slave"
JUNTUNEN = "juntunen"
VARIANTS = (WEIGHTED, MASTER_SLAVE, JUNTUNEN)


class NonconvergenceError(RuntimeError):
    """The active-set iteration cycled or ran out of iterations."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = history


class SolverError(RuntimeError):
    """The linear system could not be solved (typically missing constraints)."""


@dataclass
class NitscheConfig:
    variant: str = JUNTUNEN
    alpha: float = 1e-2
    drop_inactive_terms: bool = True
    max_iterations: int = 30

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if self.alpha <= 0:
            raise ValueError("stabilisation parameter alpha must be positive")


@dataclass(frozen=True)
class InterfaceCoefficients:
    """Per-segment mortaring weights.

    ``w1 + w2 == 1``; ``beta`` is the penalty weight of the weighted
    variants, ``gamma`` the traction-jump weight, ``beta_slave`` the
    master-slave penalty ``mu_s / (alpha h_s)``.
    """

    w1: float
    w2: float
    beta: float
    gamma: float
    beta_slave: float
    slave: int


def interface_coefficients(segments, materials, alpha: float, slave: Optional[int] = None):
    mu1, mu2 = materials[0].mu, materials[1].mu
    if slave is None:
        slave = 2 if mu1 >= mu2 else 1
    out = []
    for s in segments:
        denom = s.h1 * mu2 + s.h2 * mu1
        hs = s.h2 if slave == 2 else s.h1
        mus = mu2 if slave == 2 else mu1
        out.append(
            InterfaceCoefficients(
                w1=s.h1 * mu2 / denom,
                w2=s.h2 * mu1 / denom,
                beta=mu1 * mu2 / (alpha * denom),
                gamma=alpha * s.h1 * s.h2 / denom,
                beta_slave=mus / (alpha * hs),
                slave=slave,
            )
        )
    return out


@dataclass
class ContactProblem:
    """Everything a contact solve needs: spaces, materials, loads, interface."""

    spaces: tuple
    materials: tuple
    segments: list
    body_loads: tuple = (None, None)
    pins: tuple = ()
    # (points (m, 2), active (m,)) of a converged solve on a nearby mesh;
    # the active-set iteration starts from it instead of all-active
    warm_start: Optional[tuple] = None

    @staticmethod
    def build(mesh1: Mesh, mesh2: Mesh, degree: int, materials, segments,
              body_loads=(None, None), pins=()) -> "ContactProblem":
        s1 = FeSpace.build(mesh1, degree)
        s2 = FeSpace.build(mesh2, degree)
        problem = ContactProblem(
            spaces=(s1, s2),
            materials=tuple(materials),
            segments=list(segments),
            body_loads=tuple(body_loads),
        )
        resolved = []
        for body, point, comp in pins:
            space = problem.spaces[body - 1]
            resolved.append(problem.offset(body) + pin_dof(space, point, comp))
        problem.pins = tuple(resolved)
        return problem

    def offset(self, body: int) -> int:
        return 0 if body == 1 else self.spaces[0].num_dofs

    @property
    def num_dofs(self) -> int:
        return self.spaces[0].num_dofs + self.spaces[1].num_dofs

    def fixed_mask(self) -> np.ndarray:
        fixed = np.concatenate([dirichlet_mask(self.spaces[0]), dirichlet_mask(self.spaces[1])])
        for dof in self.pins:
            fixed[dof] = True
        return fixed

    @property
    def degree(self) -> int:
        return self.spaces[0].degree


def bulk_system(problem: ContactProblem):
    """Block-diagonal elasticity matrix and the load vector of both bodies."""
    A = sp.block_diag(
        [assemble_bulk(problem.spaces[0], problem.materials[0]),
         assemble_bulk(problem.spaces[1], problem.materials[1])],
        format="csr",
    )
    b = np.zeros(problem.num_dofs)
    for body in (1, 2):
        space = problem.spaces[body - 1]
        off = problem.offset(body)
        f = problem.body_loads[body - 1]
        if f is not None:
            b[off:off + space.num_dofs] += assemble_load(space, f)
        if any(r.traction is not None for r in space.mesh.boundary_spec.rules):
            b[off:off + space.num_dofs] += assemble_boundary_load(space)
    return A, b


@dataclass
class InterfaceData:
    """Quadrature-point cache of the interface traces.

    Per sample: position, weight, parent facet sizes, and the linear
    functionals (rows over the two adjacent elements' dofs) giving the
    normal-displacement jump and each body's normal traction.
    """

    segments: list
    points: np.ndarray        # (ns, 2)
    weights: np.ndarray       # (ns,)
    seg_of: np.ndarray        # (ns,) segment index
    h1: np.ndarray            # (ns,)
    h2: np.ndarray
    dofs: np.ndarray          # (nseg, npatch) combined dof ids
    jump: np.ndarray          # (ns, npatch) normal-displacement jump rows
    t1: np.ndarray            # (ns, npatch) body-1 normal traction rows
    t2: np.ndarray            # (ns, npatch)
    gauss: tuple              # reference rule on [0, 1]
    n_per_seg: int

    @property
    def num_samples(self) -> int:
        return self.points.shape[0]

    def rows_dot(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Evaluate row functionals against a coefficient vector."""
        vals = np.empty(self.num_samples)
        nq = self.n_per_seg
        for s in range(len(self.segments)):
            sl = slice(s * nq, (s + 1) * nq)
            vals[sl] = rows[sl] @ u[self.dofs[s]]
        return vals


def build_interface_data(problem: ContactProblem, n_gauss: Optional[int] = None) -> InterfaceData:
    degree = problem.degree
    nq = (degree + 1) if n_gauss is None else n_gauss
    xi, wg = gauss1d(nq)
    segs = problem.segments
    nl = problem.spaces[0].nodes_per_cell
    npatch = 4 * nl
    ns = nq * len(segs)

    points = np.empty((ns, 2))
    weights = np.empty(ns)
    seg_of = np.empty(ns, dtype=int)
    h1 = np.empty(ns)
    h2 = np.empty(ns)
    dofs = np.empty((len(segs), npatch), dtype=int)
    jump = np.zeros((ns, npatch))
    t1 = np.zeros((ns, npatch))
    t2 = np.zeros((ns, npatch))

    for s, seg in enumerate(segs):
        sl = slice(s * nq, (s + 1) * nq)
        x = seg.p0[None, :] + xi[:, None] * (seg.p1 - seg.p0)[None, :]
        points[sl] = x
        weights[sl] = wg * seg.length
        seg_of[sl] = s
        h1[sl] = seg.h1
        h2[sl] = seg.h2

        cols = []
        for body, parent in ((1, seg.parent1), (2, seg.parent2)):
            space = problem.spaces[body - 1]
            mat = problem.materials[body - 1]
            mesh = space.mesh
            tri = int(mesh.facet_triangles[parent, 0])
            ref = space.ref_coords(tri, x)
            phi = shape_values(degree, ref)
            gref = shape_gradients(degree, ref)
            p = mesh.vertices[mesh.triangles[tri]]
            A = np.stack([p[1] - p[0], p[2] - p[0]], axis=-1)
            invA = np.linalg.inv(A)
            g = gref @ invA
            n_body = seg.normal if body == 1 else -seg.normal
            snn, _ = elastic_moduli_rows(g, n_body, mat)

            un = np.zeros((nq, 2 * nl))
            for c in range(2):
                un[:, c::2] = phi * n_body[c]

            lo = (body - 1) * 2 * nl
            block = slice(lo, lo + 2 * nl)
            jump[sl, block] = -un
            (t1 if body == 1 else t2)[sl, block] = snn
            cols.append(problem.offset(body) + np.stack(
                [2 * space.cell_nodes[tri], 2 * space.cell_nodes[tri] + 1], axis=1
            ).ravel())
        dofs[s] = np.concatenate(cols)

    return InterfaceData(
        segments=segs, points=points, weights=weights, seg_of=seg_of,
        h1=h1, h2=h2, dofs=dofs, jump=jump, t1=t1, t2=t2,
        gauss=(xi, wg), n_per_seg=nq,
    )


def _sample_coefficients(data: InterfaceData, materials, config: NitscheConfig):
    """Per-sample mortaring weights (w1, w2, beta, gamma, vi weight c)."""
    mu1, mu2 = materials[0].mu, materials[1].mu
    denom = data.h1 * mu2 + data.h2 * mu1
    w1 = data.h1 * mu2 / denom
    w2 = data.h2 * mu1 / denom
    beta = mu1 * mu2 / (config.alpha * denom)
    gamma = config.alpha * data.h1 * data.h2 / denom
    slave = 2 if mu1 >= mu2 else 1
    hs = data.h2 if slave == 2 else data.h1
    mus = mu2 if slave == 2 else mu1
    beta_ms = mus / (config.alpha * hs)
    return w1, w2, beta, gamma, beta_ms, slave


def lh_values(data: InterfaceData, materials, config: NitscheConfig, u: np.ndarray) -> np.ndarray:
    """Eliminated multiplier expression at every interface sample."""
    w1, w2, beta, _, beta_ms, slave = _sample_coefficients(data, materials, config)
    ju = data.rows_dot(data.jump, u)
    t1u = data.rows_dot(data.t1, u)
    t2u = data.rows_dot(data.t2, u)
    if config.variant == MASTER_SLAVE:
        ts = t2u if slave == 2 else t1u
        return -ts - beta_ms * ju
    return -(w1 * t1u + w2 * t2u) - beta * ju


def detect_active_set(data: InterfaceData, materials, config: NitscheConfig, u: np.ndarray) -> np.ndarray:
    """Pointwise contact indicator; the boundary case is classified inactive."""
    return lh_values(data, materials, config, u) > 0.0


def reconstruct_lambda(data, materials, config, u, clamp: bool = True) -> np.ndarray:
    """Contact pressure samples: the positive part of the eliminated
    multiplier (``clamp=False`` is a fault-injection hook for testing)."""
    lh = lh_values(data, materials, config, u)
    return np.maximum(lh, 0.0) if clamp else lh


def assemble_nitsche(data: InterfaceData, materials, config: NitscheConfig,
                     active: np.ndarray, ndofs: int) -> sp.csr_matrix:
    """Interface contribution of the chosen variant for a frozen active set.

    On the active samples: the penalty term, the two symmetric
    consistency terms, and (weighted variant only) the traction-jump
    stabilisation.  On inactive samples the variant's own stabilisation
    term, unless dropped.
    """
    if active.shape != (data.num_samples,):
        raise ValueError(
            f"active indicator has length {active.shape}, expected {data.num_samples}"
        )
    w1, w2, beta, gamma, beta_ms, slave = _sample_coefficients(data, materials, config)
    mu1, mu2 = materials[0].mu, materials[1].mu
    nq = data.n_per_seg
    npatch = data.dofs.shape[1]

    rows, cols, vals = [], [], []
    for s in range(len(data.segments)):
        sl = slice(s * nq, (s + 1) * nq)
        K = np.zeros((npatch, npatch))
        for k in range(nq):
            i = s * nq + k
            w = data.weights[i]
            J = data.jump[i]
            T1 = data.t1[i]
            T2 = data.t2[i]
            if config.variant == MASTER_SLAVE:
                M = T2 if slave == 2 else T1
                pen = beta_ms[i]
            else:
                M = w1[i] * T1 + w2[i] * T2
                pen = beta[i]
            if active[i]:
                K += w * pen * np.outer(J, J)
                K += w * (np.outer(M, J) + np.outer(J, M))
                if config.variant == WEIGHTED:
                    D = T2 - T1
                    K -= w * gamma[i] * np.outer(D, D)
            elif not config.drop_inactive_terms:
                if config.variant == WEIGHTED:
                    K -= w * config.alpha * (
                        (data.h1[i] / mu1) * np.outer(T1, T1)
                        + (data.h2[i] / mu2) * np.outer(T2, T2)
                    )
                elif config.variant == MASTER_SLAVE:
                    Ts = T2 if slave == 2 else T1
                    hs = data.h2[i] if slave == 2 else data.h1[i]
                    mus = mu2 if slave == 2 else mu1
                    K -= w * config.alpha * (hs / mus) * np.outer(Ts, Ts)
                else:
                    K -= w * np.outer(M, M) / pen
        d = data.dofs[s]
        rows.append(np.repeat(d, npatch))
        cols.append(np.tile(d, npatch))
        vals.append(K.ravel())

    if not rows:
        return sp.csr_matrix((ndofs, ndofs))
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(ndofs, ndofs),
    ).tocsr()


@dataclass
class SolveResult:
    problem: ContactProblem
    config: NitscheConfig
    data: InterfaceData
    u: np.ndarray
    active: np.ndarray
    lam: np.ndarray
    iterations: int
    history: list = field(default_factory=list)

    @property
    def fields(self):
        n1 = self.problem.spaces[0].num_dofs
        return (
            FieldFunction(self.problem.spaces[0], self.u[:n1]),
            FieldFunction(self.problem.spaces[1], self.u[n1:]),
        )

    def jump_un(self) -> np.ndarray:
        return self.data.rows_dot(self.data.jump, self.u)

    def traction_samples(self, body: int) -> np.ndarray:
        rows = self.data.t1 if body == 1 else self.data.t2
        return self.data.rows_dot(rows, self.u)


def _solve_linear(A, b, fixed, ndofs):
    Af, bf, free = constrain(A, b, fixed)
    with warnings.catch_warnings():
        warnings.simplefilter("error", MatrixRankWarning)
        try:
            uf = spsolve(Af.tocsc(), bf)
        except MatrixRankWarning as exc:
            raise SolverError(f"singular system: {exc}") from exc
    uf = np.atleast_1d(uf)
    if not np.all(np.isfinite(uf)):
        raise SolverError("linear solve produced non-finite values; "
                          "the system is likely missing Dirichlet constraints")
    if uf.size:
        anorm = abs(Af).max()
        bnorm = np.abs(bf).max()
        if np.abs(uf).max() > 1e13 * (1.0 + bnorm / max(anorm, 1e-300)):
            raise SolverError(
                "solution norm blew up; the system is singular "
                "(insufficient Dirichlet constraints)"
            )
        scale = anorm * max(np.abs(uf).max(), 1.0) + bnorm
        if np.abs(Af @ uf - bf).max() > 1e-8 * max(scale, 1e-300):
            raise SolverError(
                "linear solve left a large residual; the system is singular "
                "or inconsistent (insufficient Dirichlet constraints)"
            )
    return expand(uf, free, ndofs)


def transfer_active(points: np.ndarray, start_points, start_active) -> np.ndarray:
    """Contact indicator at ``points`` taken from the nearest start sample.

    Distance is measured along the coordinate that varies along the
    interface (the axis rule of ``lambda_profile``); of two equally near
    start samples the one with the lower index wins.
    """
    start_points = np.asarray(start_points, dtype=float)
    start_active = np.asarray(start_active, dtype=bool)
    if start_active.shape != (start_points.shape[0],):
        raise ValueError(
            f"start indicator has shape {start_active.shape}, expected "
            f"({start_points.shape[0]},) to match the start points"
        )
    if start_points.shape[0] == 0:
        raise ValueError("start samples are empty")
    axis = int(np.argmax(start_points.max(axis=0) - start_points.min(axis=0)))
    order = np.argsort(start_points[:, axis], kind="stable")
    s = start_points[order, axis]
    x = points[:, axis]
    hi = np.minimum(np.searchsorted(s, x), len(s) - 1)
    lo = np.maximum(hi - 1, 0)
    # the first of equal coordinates carries the lowest index (stable sort)
    lo = np.searchsorted(s, s[lo])
    d_lo = np.abs(x - s[lo])
    d_hi = np.abs(s[hi] - x)
    pick = np.where((d_lo < d_hi) | ((d_lo == d_hi) & (order[lo] < order[hi])),
                    order[lo], order[hi])
    return start_active[pick]


def solve(config: NitscheConfig, problem: ContactProblem,
          data: Optional[InterfaceData] = None) -> SolveResult:
    """Active-set fixed point: assemble for a guessed contact region,
    solve, re-detect, repeat until the indicator reproduces itself.

    The iteration starts from ``problem.warm_start`` transferred onto the
    interface samples (``transfer_active``) when it is set, and otherwise
    from the fully active indicator (the bodies are modelled as initially
    in contact).  A repeated non-consecutive indicator is reported as
    nonconvergence rather than damped.
    """
    if data is None:
        data = build_interface_data(problem)
    A0, b = bulk_system(problem)
    fixed = problem.fixed_mask()

    if problem.warm_start is None:
        active = np.ones(data.num_samples, dtype=bool)
    else:
        active = transfer_active(data.points, *problem.warm_start)
    seen = {active.tobytes()}
    history = []
    u_prev = None

    for it in range(1, config.max_iterations + 1):
        A = A0 + assemble_nitsche(data, problem.materials, config, active, problem.num_dofs)
        u = _solve_linear(A, b, fixed, problem.num_dofs)
        new_active = detect_active_set(data, problem.materials, config, u)
        unorm = float(np.linalg.norm(u))
        rel = (
            float(np.linalg.norm(u - u_prev)) / unorm
            if (u_prev is not None and unorm > 0)
            else (0.0 if u_prev is not None else np.inf)
        )
        history.append({"iteration": it, "n_active": int(new_active.sum()), "rel_update": rel})
        if np.array_equal(new_active, active):
            lam = reconstruct_lambda(data, problem.materials, config, u)
            return SolveResult(
                problem=problem, config=config, data=data, u=u,
                active=active, lam=lam, iterations=it, history=history,
            )
        key = new_active.tobytes()
        if key in seen:
            raise NonconvergenceError(
                "active-set iteration entered a cycle", history
            )
        seen.add(key)
        active = new_active
        u_prev = u

    raise NonconvergenceError(
        f"active set did not settle within {config.max_iterations} iterations", history
    )


def energy_norm(problem: ContactProblem, u: np.ndarray) -> float:
    """Energy norm over both bodies, sqrt of the elastic strain energy form."""
    A, _ = bulk_system(problem)
    return float(np.sqrt(max(u @ (A @ u), 0.0)))


def contact_force(result: SolveResult) -> float:
    """Integral of the contact pressure over the interface."""
    return float((result.data.weights * result.lam).sum())


def lambda_profile(result: SolveResult):
    """Sorted (arclength parameter, position, pressure) samples along the
    interface, using the coordinate that varies along it."""
    pts = result.data.points
    axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
    order = np.argsort(pts[:, axis], kind="stable")
    return pts[order, axis], pts[order], result.lam[order]
