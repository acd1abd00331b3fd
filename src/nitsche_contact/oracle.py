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
primal-dual active-set iteration on the samples.  The saddle system is
written like the Nitsche form, one block per segment through ``outer_sums``
and ``fixed_pattern``; an active pattern is a mask on those blocks.

This path exists to certify that the displacement-only solver and its
pressure reconstruction coincide with the explicit mixed solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

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
from .fem import expand, fixed_pattern

ENUMERATION_SAMPLE_CAP = 12
TOL = 1e-9            # complementarity tolerance of an accepted solution
MAX_ITERATIONS = 40   # primal-dual active-set iterations


class InfeasibleError(RuntimeError):
    """No active pattern satisfies the complementarity conditions."""


@dataclass
class MixedSystem:
    """Symmetric saddle system in (displacements, multiplier samples): the
    bulk matrix plus ``blocks[s]`` over ``dofs[s]``, segment ``s``'s patch
    dofs and then its multipliers, numbered after the displacements.  The
    multiplier block is negative semidefinite.  ``mortar`` is the variant's
    record at the samples; its ``c_q`` holds the per-sample weights that
    turn multiplier rows into the complementarity residual.
    """

    problem: ContactProblem
    config: NitscheConfig
    data: InterfaceData
    mortar: Mortar
    blocks: np.ndarray        # (nseg, nd * nd)
    dofs: np.ndarray          # (nseg, nd)
    rhs: np.ndarray

    @property
    def n_u(self) -> int:
        return self.problem.num_dofs

    @property
    def n_lam(self) -> int:
        return self.data.num_samples

    @property
    def matrix(self) -> sp.csc_matrix:
        """The full operator, through ``fixed_pattern`` with nothing fixed."""
        add, _ = fixed_pattern(bulk_system(self.problem)[0], self.dofs,
                               np.zeros(self.n_u + self.n_lam, dtype=bool))
        return add(self.blocks)

    @cached_property
    def constrained(self):
        """``(add, rhs, free)`` with the problem's fixed dofs eliminated, once
        for every pattern a solve tries; the multipliers are the last unknowns."""
        fixed = np.concatenate([self.problem.fixed_mask(), np.zeros(self.n_lam, dtype=bool)])
        add, free = fixed_pattern(bulk_system(self.problem)[0], self.dofs, fixed)
        return add, self.rhs[free], free


def build_mixed_system(problem: ContactProblem, config: NitscheConfig) -> MixedSystem:
    """Assemble the stabilised mixed operator for the chosen variant.

    Only the variant's stabilisation pairs ``(c_k, R_k)`` and their sum
    ``c_q`` enter; eliminating the multiplier gives back the Nitsche form.
    With ``E`` a sample's multiplier row, its weight ``-w`` multiplies
    ``J E + E J + c_q E E`` and each pair's ``c_k (R_k R_k + R_k E + E R_k)``.
    """
    data = build_interface_data(problem)
    m = mortar(data, problem.materials, config)
    n_l, nq = data.num_samples, data.n_per_seg
    nseg, npatch = data.dofs.shape
    # rows over the segment's patch dofs followed by its multipliers
    pad = lambda rows: np.hstack([rows, np.zeros((n_l, nq))])
    E = np.zeros((n_l, npatch + nq))
    E[np.arange(n_l), npatch + np.arange(n_l) % nq] = 1.0
    w = data.weights
    J = pad(data.jump)
    terms = [(-w, J, E), (-w, E, J), (-w * m.c_q, E, E)]
    for c, weights in m.stab:
        R = pad(combine(weights, data.t1, data.t2))
        terms += [(-w * c, R, R), (-w * c, R, E), (-w * c, E, R)]
    dofs = np.hstack([data.dofs, problem.num_dofs + np.arange(n_l).reshape(nseg, nq)])
    rhs = np.concatenate([bulk_system(problem)[1], np.zeros(n_l)])
    return MixedSystem(problem=problem, config=config, data=data, mortar=m,
                       blocks=data.outer_sums(terms), dofs=dofs, rhs=rhs)


@dataclass
class MixedResult:
    system: MixedSystem
    u: np.ndarray
    lam: np.ndarray
    pattern: np.ndarray
    iterations: int


def _lu_solve(K: sp.csc_matrix, r: np.ndarray) -> np.ndarray:
    """Solve ``K x = r`` by SuperLU's general LU, with ``spsolve``'s
    defaults: COLAMD ordering and partial pivoting.  An exactly singular
    factor raises ``SolverError``."""
    try:
        lu = splu(K)
    except RuntimeError as exc:   # SuperLU reports an exactly singular factor
        raise SolverError(f"singular system: {exc}") from exc
    return lu.solve(r)


def _solve_pattern(system: MixedSystem, pattern: np.ndarray):
    """Solve with multiplier samples clamped to zero off the pattern.

    Inactive samples are eliminated like homogeneous Dirichlet
    constraints, by a mask on the segment blocks: ``keep (x) keep`` (1 on
    the patch dofs, the pattern on the multipliers), plus 1 on each
    inactive multiplier's diagonal.  The saddle matrix is indefinite, so
    it is factored by ``_lu_solve``, never by the Nitsche symmetric factor.
    """
    add, r, free = system.constrained
    nseg, nd = system.dofs.shape
    keep = np.ones((nseg, nd))
    keep[:, nd - system.data.n_per_seg:] = pattern.reshape(nseg, -1)
    blocks = system.blocks.reshape(nseg, nd, nd) * keep[:, :, None] * keep[:, None, :]
    blocks.reshape(nseg, -1)[:, ::nd + 1] += 1.0 - keep     # the blocks' diagonals
    K = add(blocks)
    x = expand(_check_solution(K, r, _lu_solve(K, r)), free, system.n_u + system.n_lam)
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
            except SolverError:
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
