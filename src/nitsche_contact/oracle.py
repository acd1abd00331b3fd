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
and ``fixed_pattern``.  Each system is condensed onto its multipliers once:
one factor of the displacement block solves for the load and for every
multiplier column, which leaves a dense Schur complement ``S`` on the
samples.  An active pattern is then one small dense solve on ``S``.

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
    def condensed(self):
        """``(z, Z, S, q, free)``: the saddle system condensed onto the
        multipliers, once for every pattern a solve tries.

        With ``Auu`` the displacement block over the free dofs, ``B`` the
        multiplier rows over them and ``D`` the multiplier block, one
        factor of ``Auu`` gives ``[z | Z] = Auu^-1 [b | B^T]``; then
        ``u = z - Z lam`` and ``S lam = q`` with ``S = B Z - D`` and
        ``q = B z`` minus the multipliers' right-hand side.
        """
        nseg, nd = self.dofs.shape
        npatch = self.data.dofs.shape[1]
        blocks = self.blocks.reshape(nseg, nd, nd)
        add, free = fixed_pattern(bulk_system(self.problem)[0], self.data.dofs,
                                  self.problem.fixed_mask())
        Auu = add(blocks[:, :npatch, :npatch].reshape(nseg, -1))
        ids = self.dofs[:, npatch:] - self.n_u       # each segment's multipliers
        B = np.zeros((self.n_lam, self.n_u))
        B[ids[:, :, None], self.data.dofs[:, None, :]] = blocks[:, npatch:, :npatch]
        B = B[:, free]
        D = np.zeros((self.n_lam, self.n_lam))
        D[ids[:, :, None], ids[:, None, :]] = blocks[:, npatch:, npatch:]
        r = np.column_stack([self.rhs[free], B.T])
        x = _check_solution(Auu, r, _lu_solve(Auu, r))
        z, Z = x[:, 0], x[:, 1:]
        return z, Z, B @ Z - D, B @ z - self.rhs[self.n_u:], free


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
    """Solve ``K x = r``, one column of ``x`` per column of ``r``, by
    SuperLU's general LU with ``spsolve``'s defaults: COLAMD ordering and
    partial pivoting.  An exactly singular factor raises ``SolverError``."""
    try:
        lu = splu(K)
    except RuntimeError as exc:   # SuperLU reports an exactly singular factor
        raise SolverError(f"singular system: {exc}") from exc
    return lu.solve(r)


def _solve_pattern(system: MixedSystem, pattern: np.ndarray):
    """Solve with multiplier samples clamped to zero off the pattern.

    On the condensed system this is one dense solve of ``S`` restricted to
    the active samples, ``lam = 0`` elsewhere, and ``u = z - Z lam``; the
    displacement block was factored once, by ``_lu_solve``, when the
    system was condensed.  A singular restriction raises ``SolverError``.
    """
    z, Z, S, q, free = system.condensed
    a = np.flatnonzero(pattern)
    lam = np.zeros(system.n_lam)
    try:
        lam[a] = np.linalg.solve(S[np.ix_(a, a)], q[a])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular multiplier system on this pattern: {exc}") from exc
    return expand(z - Z[:, a] @ lam[a], free, system.n_u), lam


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
    if method == "enumerate" and ns > ENUMERATION_SAMPLE_CAP:
        raise ValueError(
            f"{ns} multiplier samples exceed the enumeration cap "
            f"{ENUMERATION_SAMPLE_CAP}; use method='pdas'"
        )
    system.condensed   # a singular displacement block raises here, for either method

    if method == "enumerate":
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
