"""Nitsche mortaring of the frictionless contact constraint.

Three variants are provided.  All eliminate the contact pressure in
favour of the displacements; they differ in how the two bodies' normal
tractions are combined on the interface:

* ``weighted`` - a mesh/material-weighted average of both tractions and
  an extra traction-jump stabilisation,
* ``master-slave`` - the traction of the softer body alone,
* ``juntunen`` - the weighted average with the stabilisation expressed
  through the inverse penalty weight.

``mortar`` is the one place that tells the variants apart: it returns a
``Mortar`` record of per-sample weights (the combined traction, the
penalty, the stabilisation pairs, the traction-jump weight and the
estimator's pressure-consistency terms) that the Nitsche assembly, the
multiplier expression, the mixed oracle and the contact-facet estimator
all read; a solve builds it once for all its iterations.  Likewise
``build_interface_data`` is the one place that evaluates a body's
traction at an interface sample: its rows give each body's normal
traction, which those four readers take, and its tangential traction,
which the estimator takes.

The contact region is tracked pointwise at the interface quadrature
points and resolved by a fixed-point iteration on the active set.  The
iteration starts from the fully active indicator, or, when ``solve`` is
given the converged samples of a solve on a nearby mesh (the previous
step of an adaptive study), from that indicator transferred onto the new
samples by position along the interface.
Quadrature uses ``degree + 1`` Gauss points per interface segment, which
integrates every coupling term exactly and makes the multiplier samples
an exact parametrisation of the segmentwise polynomial multiplier.

Each solve fixes one CSC pattern over the free dofs, the bulk matrix
plus the interface blocks (``fem.fixed_pattern``, which also owns the
elimination of the Dirichlet dofs); an iteration adds its blocks' values
and factors the result once.  Below the inverse-inequality bound on
alpha the Nitsche matrix is symmetric positive definite (Stenberg's
reading of Nitsche's method as a stabilised method), so ``spsolve``
factors it symmetrically without pivoting and reads the inertia from
the pivots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .fem import (
    FeSpace,
    FieldFunction,
    assemble_boundary_load,
    assemble_bulk,
    assemble_load,
    dirichlet_mask,
    elastic_moduli_rows,
    expand,
    fixed_pattern,
    gauss1d,
    pin_dof,
    scatter,
    shape_gradients,
    shape_values,
)
from .mesh import Interface, Mesh

WEIGHTED = "weighted"
MASTER_SLAVE = "master-slave"
JUNTUNEN = "juntunen"
VARIANTS = (WEIGHTED, MASTER_SLAVE, JUNTUNEN)
MAX_ITERATIONS = 30   # active-set iterations of one solve


class NonconvergenceError(RuntimeError):
    """The active-set iteration cycled or ran out of iterations."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = history


class SolverError(RuntimeError):
    """The linear system could not be solved: it is singular (typically
    missing constraints), or the Nitsche matrix is not positive definite
    (alpha too large)."""


@dataclass
class NitscheConfig:
    variant: str = JUNTUNEN
    alpha: float = 1e-2
    drop_inactive_terms: bool = True

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"stabilisation parameter alpha must be positive and finite,"
                             f" got {self.alpha}")


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)


@dataclass(frozen=True, eq=False)
class ContactProblem:
    """Everything a contact solve needs: spaces, materials, loads, interface.

    The bulk system (``bulk_system``), the fixed-dof mask (``fixed_mask``)
    and the interface samples (``build_interface_data``) are computed once
    per instance, on first use, and handed out read-only.  The problem is
    frozen and its interface read-only, so they cannot go stale: a changed
    problem is a new instance (``dataclasses.replace``) with caches of its own.
    """

    spaces: tuple
    materials: tuple
    segments: Interface
    body_loads: tuple = (None, None)
    pins: tuple = ()

    @staticmethod
    def build(mesh1: Mesh, mesh2: Mesh, degree: int, materials, segments: Interface,
              body_loads=(None, None), pins=()) -> "ContactProblem":
        spaces = (FeSpace.build(mesh1, degree), FeSpace.build(mesh2, degree))
        offsets = (0, spaces[0].num_dofs)
        resolved = tuple(offsets[body - 1] + pin_dof(spaces[body - 1], point, comp)
                         for body, point, comp in pins)
        return ContactProblem(
            spaces=spaces,
            materials=tuple(materials),
            segments=segments,
            body_loads=tuple(body_loads),
            pins=resolved,
        )

    def offset(self, body: int) -> int:
        return 0 if body == 1 else self.spaces[0].num_dofs

    @property
    def num_dofs(self) -> int:
        return self.spaces[0].num_dofs + self.spaces[1].num_dofs

    def fixed_mask(self) -> np.ndarray:
        """Dirichlet and pinned dofs of both bodies (cached, read-only)."""
        return self._fixed

    @property
    def degree(self) -> int:
        return self.spaces[0].degree

    @cached_property
    def _fixed(self) -> np.ndarray:
        fixed = np.concatenate([dirichlet_mask(self.spaces[0]), dirichlet_mask(self.spaces[1])])
        fixed[list(self.pins)] = True
        _read_only(fixed)
        return fixed

    @cached_property
    def _bulk(self):
        A = sp.block_diag(
            [assemble_bulk(self.spaces[0], self.materials[0]),
             assemble_bulk(self.spaces[1], self.materials[1])],
            format="csr",
        )
        A.sum_duplicates()  # canonical now, so no later call sorts in place
        b = np.zeros(self.num_dofs)
        for body in (1, 2):
            space = self.spaces[body - 1]
            off = self.offset(body)
            f = self.body_loads[body - 1]
            if f is not None:
                b[off:off + space.num_dofs] += assemble_load(space, f)
            if any(r.traction is not None for r in space.mesh.boundary_spec.rules):
                b[off:off + space.num_dofs] += assemble_boundary_load(space)
        _read_only(A.data, A.indices, A.indptr, b)
        return A, b

    @cached_property
    def _interface(self) -> "InterfaceData":
        data = _interface_data(self)
        _read_only(data.points, data.weights, data.seg_of, data.parents, data.h1, data.h2,
                   data.dofs, data.jump, data.t1, data.t2, data.tan1, data.tan2, *data.gauss)
        return data


def bulk_system(problem: ContactProblem):
    """Block-diagonal elasticity matrix and the load vector of both bodies.

    Assembled once per problem; the returned matrix and vector are the
    problem's read-only cache.
    """
    return problem._bulk


@dataclass
class InterfaceData:
    """Quadrature-point cache of the interface traces.

    Per sample: position, weight, parent facet sizes, and the linear
    functionals (rows over the two adjacent elements' dofs) giving the
    normal-displacement jump and each body's normal and tangential
    traction (the tangent is the normal out of body 1 turned
    counterclockwise); per segment: the parent facet in each body.  No
    other code evaluates a body's traction at a sample: the solve, the
    multiplier, the mixed oracle and the contact-facet estimator read
    these rows.  Sample ``s * n_per_seg + k`` is Gauss point ``k`` of
    segment ``s``.
    """

    points: np.ndarray        # (ns, 2)
    weights: np.ndarray       # (ns,)
    seg_of: np.ndarray        # (ns,) segment index
    parents: np.ndarray       # (nseg, 2) parent facet in body 1 and in body 2
    h1: np.ndarray            # (ns,)
    h2: np.ndarray
    dofs: np.ndarray          # (nseg, npatch) combined dof ids
    jump: np.ndarray          # (ns, npatch) normal-displacement jump rows
    t1: np.ndarray            # (ns, npatch) body-1 normal traction rows
    t2: np.ndarray            # (ns, npatch)
    tan1: np.ndarray          # (ns, npatch) body-1 tangential traction rows
    tan2: np.ndarray          # (ns, npatch)
    gauss: tuple              # reference rule on [0, 1]
    n_per_seg: int

    @property
    def num_samples(self) -> int:
        return self.points.shape[0]

    def rows_dot(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Evaluate row functionals against a coefficient vector."""
        nseg, npatch = self.dofs.shape
        per_seg = rows.reshape(nseg, self.n_per_seg, npatch)
        return np.einsum("sqp,sp->sq", per_seg, u[self.dofs]).ravel()

    def outer_sums(self, terms) -> np.ndarray:
        """Per-segment sums over the samples of ``c * left^T right`` for
        ``(c (ns,), left (ns, nd), right (ns, nd))`` terms, as
        (nseg, nd * nd) blocks; rows over the patch dofs (``nd = npatch``)
        give blocks over ``dofs``."""
        nseg, nd = len(self.dofs), terms[0][1].shape[1]
        shape = (nseg, self.n_per_seg * len(terms), nd)
        left = np.concatenate([c[:, None] * a for c, a, _ in terms], axis=1).reshape(shape)
        right = np.concatenate([b for _, _, b in terms], axis=1).reshape(shape)
        return (left.transpose(0, 2, 1) @ right).reshape(nseg, nd * nd)


def build_interface_data(problem: ContactProblem) -> InterfaceData:
    """Interface samples with ``degree + 1`` Gauss points per segment.

    Built once per problem; the returned object is the problem's
    read-only cache.
    """
    return problem._interface


def _interface_data(problem: ContactProblem) -> InterfaceData:
    degree = problem.degree
    nq = degree + 1
    xi, wg = gauss1d(nq)
    iface = problem.segments
    nseg = len(iface)
    ns = nq * nseg
    nl = problem.spaces[0].nodes_per_cell

    parents = iface.parents
    x = iface.p0[:, None, :] + xi[None, :, None] * (iface.p1 - iface.p0)[:, None, :]
    normal = iface.normal
    tangent = np.array([-normal[1], normal[0]])

    # traction rows of each body, over the combined patch of both bodies
    t, tan = np.zeros((2, ns, 4 * nl)), np.zeros((2, ns, 4 * nl))
    jump, dofs = [], []
    for body in (1, 2):
        space = problem.spaces[body - 1]
        mesh = space.mesh
        tri = mesh.facet_triangles[parents[:, body - 1], 0]
        ref = space.ref_coords(tri, x).reshape(ns, 2)
        gref = shape_gradients(degree, ref).reshape(nseg, nq, nl, 2)
        g = np.einsum("sqld,sde->sqle", gref, space.geometry()[1][tri]).reshape(ns, nl, 2)
        n_body = normal if body == 1 else -normal
        snn, trac = elastic_moduli_rows(g, n_body, problem.materials[body - 1])
        # dof 2 * node + c of the normal displacement is phi_node * n_c
        un = (shape_values(degree, ref)[:, :, None] * n_body).reshape(ns, 2 * nl)
        jump.append(-un)
        cols = slice(2 * nl * (body - 1), 2 * nl * body)
        t[body - 1, :, cols], tan[body - 1, :, cols] = snn, trac @ tangent
        dofs.append(problem.offset(body) + space.cell_dofs[tri])

    return InterfaceData(
        points=x.reshape(ns, 2),
        weights=(iface.lengths[:, None] * wg[None, :]).ravel(),
        seg_of=np.repeat(np.arange(nseg), nq),
        parents=parents,
        h1=np.repeat(iface.h[:, 0], nq),
        h2=np.repeat(iface.h[:, 1], nq),
        dofs=np.hstack(dofs),
        jump=np.hstack(jump),
        t1=t[0], t2=t[1], tan1=tan[0], tan2=tan[1],
        gauss=(xi, wg), n_per_seg=nq,
    )


class Mortar(NamedTuple):
    """One Nitsche variant, per interface sample.

    A traction-weight pair ``(a1, a2)`` stands for ``a1 T1 + a2 T2``, the
    two bodies' normal tractions combined; a weight is a scalar or a
    per-sample array.  On the active samples the variant's bilinear form
    is ``penalty J J + M J + J M - gamma D D`` with ``D = T2 - T1``; the
    stabilisation ``-sum c_k R_k R_k`` acts on the inactive samples and
    on the multiplier of the mixed form, whose elimination gives back
    ``M = sum c_k R_k / c_q``, ``penalty = 1 / c_q`` and ``gamma``.
    """

    traction: tuple       # weights of the combined traction M
    penalty: np.ndarray   # weight of the jump-jump term
    gamma: Optional[np.ndarray]  # weight of the traction-jump term, None if absent
    stab: tuple           # (coefficient c_k, traction weights of R_k) pairs
    c_q: np.ndarray       # sum of the c_k: the multiplier's own weight
    # estimator pressure-consistency terms, weight * (lambda + traction)^2
    # charged to a body: (body, weight, traction weights)
    consistency: tuple


def mortar(data, materials, config: NitscheConfig) -> Mortar:
    """The chosen variant's weights at the samples of ``data`` (which
    needs the parent facet sizes ``h1``, ``h2``).

    The combined traction, the penalty and gamma are the closed forms of
    the eliminated mixed form, not sums over the stabilisation pairs, so
    the mixed oracle (which uses only the pairs) checks the elimination.
    """
    mu1, mu2 = materials[0].mu, materials[1].mu
    alpha = config.alpha
    h1, h2 = data.h1, data.h2
    if config.variant == MASTER_SLAVE:
        # the softer body's traction alone; a tie mortars body 2
        body, hs, mus = (2, h2, mu2) if mu1 >= mu2 else (1, h1, mu1)
        side = (0.0, 1.0) if body == 2 else (1.0, 0.0)
        c = alpha * hs / mus
        return Mortar(traction=side, penalty=mus / (alpha * hs), gamma=None,
                      stab=((c, side),), c_q=c, consistency=((body, hs / mus, side),))
    s1, s2 = h1 * mu2, h2 * mu1
    denom = s1 + s2
    mean = (s1 / denom, s2 / denom)
    beta = mu1 * mu2 / (alpha * denom)
    if config.variant == WEIGHTED:
        r1, r2 = h1 / mu1, h2 / mu2
        return Mortar(
            traction=mean, penalty=beta, gamma=alpha * h1 * h2 / denom,
            stab=((alpha * r1, (1.0, 0.0)), (alpha * r2, (0.0, 1.0))),
            c_q=alpha * (r1 + r2),
            consistency=((1, r1, (1.0, 0.0)), (2, r2, (0.0, 1.0))),
        )
    # inverse-penalty variant: the weighted mean, stabilised by itself;
    # its estimator term splits half/half between the parent facets
    c = 1.0 / beta
    return Mortar(traction=mean, penalty=beta, gamma=None, stab=((c, mean),), c_q=c,
                  consistency=((1, 0.5 * c, mean), (2, 0.5 * c, mean)))


def combine(weights, x1, x2):
    """``a1 x1 + a2 x2`` for traction weights ``(a1, a2)``; per-sample
    weights scale the rows of two-dimensional ``x1``, ``x2``."""
    a1, a2 = weights
    if x1.ndim == 2:
        a1 = a1[:, None] if isinstance(a1, np.ndarray) else a1
        a2 = a2[:, None] if isinstance(a2, np.ndarray) else a2
    return a1 * x1 + a2 * x2


def lh_values(data: InterfaceData, m: Mortar, u: np.ndarray) -> np.ndarray:
    """Eliminated multiplier expression at every interface sample, for the
    variant record ``m`` at those samples."""
    a1, a2 = m.traction
    t = a1 * data.rows_dot(data.t1, u) + a2 * data.rows_dot(data.t2, u)
    return -t - m.penalty * data.rows_dot(data.jump, u)


def assemble_nitsche(data: InterfaceData, m: Mortar, config: NitscheConfig,
                     active: np.ndarray, ndofs: int) -> sp.csr_matrix:
    """Interface contribution of one variant for a frozen active set.

    ``m`` is the variant's ``Mortar`` record at the samples of ``data``,
    which ``solve`` builds once for all its iterations; ``config`` says
    whether the inactive terms are dropped.  The blocks
    (``_nitsche_blocks``) go through ``scatter``.
    """
    return scatter(_nitsche_blocks(data, m, config, active), data.dofs, ndofs)


def _nitsche_blocks(data: InterfaceData, m: Mortar, config: NitscheConfig,
                   active: np.ndarray) -> np.ndarray:
    """Per-segment blocks of the interface form over ``data.dofs``.

    On the active samples the form is ``penalty J J + M J + J M - gamma
    D D``; on the inactive ones the stabilisation ``-sum c_k R_k R_k``,
    unless ``config`` drops it.  ``assemble_nitsche`` scatters these
    blocks into a matrix, ``solve`` adds them onto its fixed pattern.
    """
    if active.shape != (data.num_samples,):
        raise ValueError(
            f"active indicator has length {active.shape}, expected {data.num_samples}"
        )
    T1, T2, J = data.t1, data.t2, data.jump
    M = combine(m.traction, T1, T2)

    # (per-sample coefficient, left row, right row): coefficient * left^T right
    on = data.weights * active
    terms = [(on * m.penalty, J, J), (on, M, J), (on, J, M)]
    if m.gamma is not None:
        D = T2 - T1
        terms.append((-on * m.gamma, D, D))
    if not config.drop_inactive_terms:
        off = data.weights * ~active
        for c, weights in m.stab:
            R = M if weights is m.traction else combine(weights, T1, T2)
            terms.append((-off * c, R, R))
    return data.outer_sums(terms)


@dataclass
class SolveResult:
    problem: ContactProblem
    config: NitscheConfig
    data: InterfaceData
    mortar: Mortar            # the variant's record at the samples of ``data``
    u: np.ndarray
    active: np.ndarray
    lam: np.ndarray
    iterations: int

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


def spsolve(A: sp.csc_matrix, b: np.ndarray, alpha: float) -> np.ndarray:
    """Solve the symmetric positive definite Nitsche system ``A x = b``.

    SuperLU factors ``A`` in symmetric mode without pivoting, ordered by
    minimum degree on ``A + A^T``, which fills a third to a half as much
    as COLAMD on these matrices and factored faster at every P1 and P2
    size measured (up to 165k unknowns).  Every pivot is the diagonal
    entry of its column, so the row and column permutations agree and
    the diagonal of ``U`` holds the pivots of a symmetric elimination,
    whose signs are the inertia of ``A``.  A non-positive pivot (or an
    off-diagonal one, which SuperLU takes only for a zero diagonal)
    proves that ``A`` is not positive definite: alpha lies beyond the
    discrete inverse-inequality bound, or Dirichlet constraints are
    missing.  That, a singular factor and every failed check of
    ``_check_solution`` raise ``SolverError``.

    The name is the one this linear solve has always had in this module:
    the benchmark's tracer (``perfbench/tracer.py``) times the layer by
    wrapping ``contact.spsolve`` and counts one factorisation per call.
    """
    try:
        lu = splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:   # SuperLU reports an exactly singular factor
        raise SolverError(f"singular system: {exc}") from exc
    pivot = lu.U.diagonal().min(initial=np.inf)
    if not (np.array_equal(lu.perm_r, lu.perm_c) and pivot > 0.0):
        raise SolverError(
            f"the Nitsche matrix is not positive definite (smallest pivot {pivot:.3g}):"
            f" alpha = {alpha:g} is too large for the inverse inequality,"
            " or Dirichlet constraints are missing"
        )
    return _check_solution(A, b, lu.solve(b))


def _check_solution(Af, bf, uf):
    """``uf`` from a solve of ``Af uf = bf``, refused when it is not finite,
    blew up or leaves a large residual (a singular system)."""
    uf = np.atleast_1d(uf)
    if not np.all(np.isfinite(uf)):
        raise SolverError("linear solve produced non-finite values; "
                          "the system is likely missing Dirichlet constraints")
    if uf.size:
        anorm = np.abs(Af.data).max(initial=0.0)
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
    return uf


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


def solve(config: NitscheConfig, problem: ContactProblem, start=None) -> SolveResult:
    """Active-set fixed point: assemble for a guessed contact region,
    solve, re-detect, repeat until the indicator reproduces itself.

    ``start`` is ``(points (m, 2), active (m,))``, the samples of a
    converged solve on a nearby mesh.  The iteration starts from that
    indicator transferred onto the interface samples (``transfer_active``)
    when it is given, and otherwise from the fully active indicator (the
    bodies are modelled as initially in contact).  A repeated
    non-consecutive indicator is reported as nonconvergence rather than
    damped.
    """
    data = build_interface_data(problem)
    m = mortar(data, problem.materials, config)
    A0, b = bulk_system(problem)
    # fix the free-dof pattern of bulk plus interface blocks once; each
    # iteration only adds its blocks' values
    add_blocks, free = fixed_pattern(A0, data.dofs, problem.fixed_mask())
    bf = b[free]

    if start is None:
        active = np.ones(data.num_samples, dtype=bool)
    else:
        active = transfer_active(data.points, *start)
    seen = {active.tobytes()}
    history = []
    u_prev = None

    for it in range(1, MAX_ITERATIONS + 1):
        Af = add_blocks(_nitsche_blocks(data, m, config, active))
        u = expand(spsolve(Af, bf, config.alpha), free, problem.num_dofs)
        lh = lh_values(data, m, u)
        new_active = lh > 0.0
        unorm = float(np.linalg.norm(u))
        rel = (
            float(np.linalg.norm(u - u_prev)) / unorm
            if (u_prev is not None and unorm > 0)
            else (0.0 if u_prev is not None else np.inf)
        )
        history.append({"iteration": it, "n_active": int(new_active.sum()), "rel_update": rel})
        if np.array_equal(new_active, active):
            return SolveResult(
                problem=problem, config=config, data=data, mortar=m, u=u,
                active=active, lam=np.maximum(lh, 0.0), iterations=it,
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
        f"active set did not settle within {MAX_ITERATIONS} iterations", history
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
