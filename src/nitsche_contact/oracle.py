"""Reference solver keeping the contact pressure as an explicit unknown.

The stabilised mixed system couples the displacements with a
segmentwise-polynomial multiplier constrained to be nonnegative at the
segment Gauss points.  Because each segment carries as many Gauss points
as multiplier coefficients, the point samples parametrise the multiplier
exactly and the sign constraint becomes a finite-dimensional
complementarity problem:

    lambda_q >= 0,   g_q >= 0,   lambda_q * g_q = 0,

with ``g_q`` the weighted residual between the multiplier and the
eliminated-pressure expression.  It is solved by one of two methods,
named by the caller: ``enumerate`` tries every active pattern of a tiny
instance and verifies each candidate independently; ``pdas`` runs a
primal-dual active-set iteration on the samples.

This path exists to certify that the displacement-only solver and its
pressure reconstruction coincide with the explicit mixed solution.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import MatrixRankWarning
from scipy.sparse.linalg import spsolve as _lu_solve

from .contact import (
    ContactProblem,
    InterfaceData,
    Mortar,
    NitscheConfig,
    SolverError,
    _check_solution,
    build_interface_data,
    bulk_system,
    combine,
    lh_values,
    mortar,
)
from .fem import constrain, expand, scatter

ENUMERATION_SAMPLE_CAP = 12
TOL = 1e-9            # complementarity tolerance of an accepted solution
MAX_ITERATIONS = 40   # primal-dual active-set iterations


class InfeasibleError(RuntimeError):
    """No active pattern satisfies the complementarity conditions."""


@dataclass
class MixedSystem:
    """Symmetric saddle system in (displacements, multiplier samples).

    ``matrix`` is the full stabilised operator; the multiplier block is
    negative semidefinite.  ``constrained`` eliminates the problem's
    fixed dofs from it once, for every active pattern a solve tries.
    ``mortar`` is the variant's record at the samples, built once per
    system; its ``c_q`` holds the per-sample weights that turn
    multiplier rows into the complementarity residual.
    """

    problem: ContactProblem
    config: NitscheConfig
    data: InterfaceData
    mortar: Mortar
    matrix: sp.csr_matrix
    rhs: np.ndarray

    @property
    def n_u(self) -> int:
        return self.problem.num_dofs

    @property
    def n_lam(self) -> int:
        return self.data.num_samples

    @cached_property
    def constrained(self):
        """The system with the problem's fixed dofs eliminated, once per
        system: ``(K (csr), rhs, free, row of each entry of K, position
        in K.data of each multiplier's diagonal entry)``.  The multipliers
        are the last ``n_lam`` free unknowns."""
        fixed = np.concatenate([self.problem.fixed_mask(), np.zeros(self.n_lam, dtype=bool)])
        K, r, free = constrain(self.matrix, self.rhs, fixed)
        K.sort_indices()
        entry_rows = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
        diag = np.flatnonzero((entry_rows == K.indices)
                              & (entry_rows >= free.size - self.n_lam))
        return K, r, free, entry_rows, diag


def build_mixed_system(problem: ContactProblem, config: NitscheConfig) -> MixedSystem:
    """Assemble the stabilised mixed operator for the chosen variant.

    Only the variant's stabilisation pairs ``(c_k, R_k)`` and their sum
    ``c_q`` enter; eliminating the multiplier gives back the Nitsche form.
    """
    data = build_interface_data(problem)
    A, b = bulk_system(problem)
    n_u = problem.num_dofs
    n_l = data.num_samples
    m = mortar(data, problem.materials, config)
    stab = [(c, combine(weights, data.t1, data.t2)) for c, weights in m.stab]

    w = data.weights
    n = n_u + n_l
    # displacement-displacement stabilisation: -sum c_k R_k^T R_k, per segment
    uu = scatter(data.outer_sums([(-w * c, R, R) for c, R in stab]), data.dofs, n)
    # displacement-multiplier coupling: -(jump + sum c_k R_k)
    coupling = -w[:, None] * data.jump
    for c, R in stab:
        coupling = coupling - (w * c)[:, None] * R
    d = data.dofs[data.seg_of]                       # (n_l, npatch)
    diag = n_u + np.arange(n_l)                      # multiplier unknowns
    mult = np.broadcast_to(diag[:, None], d.shape)
    rows = np.concatenate([d.ravel(), mult.ravel(), diag])
    cols = np.concatenate([mult.ravel(), d.ravel(), diag])
    vals = np.concatenate([coupling.ravel(), coupling.ravel(),
                           -w * m.c_q])    # multiplier-multiplier: -c_q
    full = A.copy()
    full.resize((n, n))    # empty multiplier rows and columns; far cheaper than sp.bmat
    full = full + uu + sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    rhs = np.concatenate([b, np.zeros(n_l)])
    return MixedSystem(problem=problem, config=config, data=data, mortar=m,
                       matrix=full, rhs=rhs)


@dataclass
class MixedResult:
    system: MixedSystem
    u: np.ndarray
    lam: np.ndarray
    pattern: np.ndarray
    iterations: int


def _solve_pattern(system: MixedSystem, pattern: np.ndarray):
    """Solve with multiplier samples clamped to zero off the pattern.

    Active samples keep their saddle rows; inactive ones are eliminated
    like homogeneous Dirichlet constraints: their rows and columns of the
    system constrained once (``MixedSystem.constrained``) are zeroed,
    their diagonal set to 1 and their right-hand side (zero already) kept
    at 0.  The saddle matrix is indefinite, so it is factored by scipy's
    general LU with partial pivoting, never by the Nitsche solve's
    symmetric factor.
    """
    K, r, free, entry_rows, diag = system.constrained
    keep = np.ones(K.shape[0])
    keep[free.size - system.n_lam:] = pattern
    values = K.data * keep[entry_rows] * keep[K.indices]
    values[diag[~pattern]] = 1.0
    Kp = sp.csr_matrix((values, K.indices, K.indptr), shape=K.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error", MatrixRankWarning)
        try:
            xf = _lu_solve(Kp, r)
        except MatrixRankWarning as exc:
            raise SolverError(f"singular system: {exc}") from exc
    x = expand(_check_solution(Kp, r, xf), free, system.n_u + system.n_lam)
    return x[: system.n_u], x[system.n_u:]


def check_vi_residual(system: MixedSystem, u: np.ndarray, lam: np.ndarray) -> float:
    """Maximum complementarity violation of a candidate mixed solution.

    The inequality system over the sample directions reduces to
    lambda >= 0, lambda - l_h(u) >= 0 and lambda (lambda - l_h(u)) = 0
    at every sample; the positive sample weights drop out.
    """
    r = lam - lh_values(system.data, system.mortar, u)
    scale = max(1.0, float(np.abs(lam).max(initial=0.0)))
    return max(
        float(np.maximum(-lam, 0.0).max(initial=0.0)),
        float(np.maximum(-r, 0.0).max(initial=0.0)),
        float(np.abs(lam * r).max(initial=0.0)) / scale,
    )


def solve_mixed(problem: ContactProblem, config: NitscheConfig, method: str) -> MixedResult:
    """Solve the stabilised mixed contact problem.

    ``method='enumerate'`` tries every active pattern and returns the
    first consistent one (instances up to ``ENUMERATION_SAMPLE_CAP``
    samples); ``'pdas'`` runs the primal-dual active-set iteration.
    """
    if method not in ("enumerate", "pdas"):
        raise ValueError(f"unknown method {method!r}; choose 'enumerate' or 'pdas'")
    system = build_mixed_system(problem, config)
    ns = system.n_lam

    if method == "enumerate":
        if ns > ENUMERATION_SAMPLE_CAP:
            raise ValueError(
                f"{ns} multiplier samples exceed the enumeration cap "
                f"{ENUMERATION_SAMPLE_CAP}; use method='pdas'"
            )
        tried = 0
        for bits in product((True, False), repeat=ns):
            pattern = np.array(bits, dtype=bool)
            tried += 1
            try:
                u, lam = _solve_pattern(system, pattern)
            except Exception:
                continue
            lh = lh_values(system.data, system.mortar, u)
            ok = np.all(lam[pattern] >= -TOL) and np.all(lh[~pattern] <= TOL)
            if ok and check_vi_residual(system, u, np.maximum(lam, 0.0)) <= TOL:
                return MixedResult(system=system, u=u, lam=np.maximum(lam, 0.0),
                                   pattern=pattern, iterations=tried)
        raise InfeasibleError(
            "no active pattern satisfies the complementarity system; "
            "check the stabilisation parameter"
        )

    pattern = np.ones(ns, dtype=bool)
    seen = {pattern.tobytes()}
    for it in range(1, MAX_ITERATIONS + 1):
        u, lam = _solve_pattern(system, pattern)
        lh = lh_values(system.data, system.mortar, u)
        new_pattern = lh > 0.0
        if np.array_equal(new_pattern, pattern):
            lam = np.where(pattern, lam, 0.0)
            if check_vi_residual(system, u, lam) > TOL:
                raise InfeasibleError("stationary pattern violates complementarity")
            return MixedResult(system=system, u=u, lam=lam,
                               pattern=pattern, iterations=it)
        key = new_pattern.tobytes()
        if key in seen:
            raise InfeasibleError("active-set iteration cycled on the mixed system")
        seen.add(key)
        pattern = new_pattern
    raise InfeasibleError(f"mixed active-set iteration did not settle in {MAX_ITERATIONS} steps")
