"""Experiment definitions and the solve-estimate-mark-refine driver.

Three loadings of the two-block geometry are provided: ``pressing``
(a horizontal body force squeezing the blocks together over the whole
interface), ``bending`` (a vertical force that closes only part of the
interface), and ``cosine`` (an oscillating horizontal force producing
two separate contact zones).  A fourth configuration, ``patch``, presses
two equal-height blocks together with a uniform face traction; its exact
solution has constant stress and must be reproduced to rounding error.

Uniform refinement marks every triangle; adaptive refinement marks a
minimal bulk of the estimator via the standard fixed-fraction rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .contact import (
    JUNTUNEN,
    ContactProblem,
    NitscheConfig,
    NonconvergenceError,
    SolverError,
    solve,
)
from .estimator import EstimatorReport, report
from .fem import MaterialParams
from .mesh import (
    CONTACT,
    DIRICHLET,
    NEUMANN,
    BoundaryRule,
    BoundarySpec,
    Mesh,
    bisect_refine,
    build_interface,
    classify_boundary,
    generate_block_mesh,
)

EXPERIMENTS = ("pressing", "bending", "cosine", "patch")

DEFAULT_ALPHA = {1: 1e-2, 2: 1e-3}
DEFAULT_RESOLUTIONS = ((2, 2), (3, 4))
NU = 0.3              # Poisson's ratio of both bodies
MAX_STEPS = 80        # solve-estimate-mark-refine steps of one study
TIE_RTOL = 1e-12      # indicators this close (relative) tie in the marking order


def _near(value):
    return lambda m, v=value: np.abs(m[:, 0] - v) < 1e-9


def _block_rules(x_clamp, x_contact, y_lo, y_hi, clamp_components,
                 contact_lo, contact_hi, clamp_traction=None):
    """Rules for one block: clamped face, contact strip, free remainder."""

    def on_contact(m):
        return (np.abs(m[:, 0] - x_contact) < 1e-9) & \
            (m[:, 1] > contact_lo + 1e-12) & (m[:, 1] < contact_hi - 1e-12)

    def on_free(m):
        horiz = (np.abs(m[:, 1] - y_lo) < 1e-9) | (np.abs(m[:, 1] - y_hi) < 1e-9)
        outside = (np.abs(m[:, 0] - x_contact) < 1e-9) & ~(
            (m[:, 1] > contact_lo + 1e-12) & (m[:, 1] < contact_hi - 1e-12)
        )
        return horiz | outside

    clamp_kind = DIRICHLET if clamp_traction is None else NEUMANN
    return BoundarySpec(rules=(
        BoundaryRule("clamp", clamp_kind, _near(x_clamp),
                     components=clamp_components, traction=clamp_traction),
        BoundaryRule("free", NEUMANN, on_free),
        BoundaryRule("interface", CONTACT, on_contact),
    ))


def _pressing_load(x):
    return np.column_stack([x[:, 0] - 0.5, np.zeros(len(x))])


def _bending_load(x):
    return np.column_stack([np.zeros(len(x)), np.full(len(x), -0.05)])


def _cosine_load(x):
    return np.column_stack([-np.cos(4.0 * np.pi * (x[:, 1] - 0.5)), np.zeros(len(x))])


@dataclass(frozen=True)
class ExperimentSetup:
    """Geometry, boundary conditions, materials, and loading of one test case."""

    name: str
    rect1: tuple
    rect2: tuple
    spec1: BoundarySpec
    spec2: BoundarySpec
    load1: Optional[Callable]
    load2: Optional[Callable]
    materials: tuple
    pins: tuple = ()


def make_experiment(name: str, e2: Optional[float] = None) -> ExperimentSetup:
    """Build one of the named experiments; ``e2`` overrides the second
    body's Young's modulus."""
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; valid: {', '.join(EXPERIMENTS)}")
    m1 = MaterialParams.from_young(1.0, NU)
    m2 = MaterialParams.from_young(1.0 if e2 is None else e2, NU)

    if name == "patch":
        # equal-height blocks pressed by a uniform traction on the far face
        rect1 = (0.5, 1.0, 0.25, 0.75)
        rect2 = (1.0, 1.6, 0.25, 0.75)
        press = lambda x: np.tile([1.0, 0.0], (len(x), 1))
        spec1 = _block_rules(0.5, 1.0, 0.25, 0.75, (0, 1), 0.25, 0.75, clamp_traction=press)
        spec2 = _block_rules(1.6, 1.0, 0.25, 0.75, (0,), 0.25, 0.75)
        return ExperimentSetup(
            name=name, rect1=rect1, rect2=rect2, spec1=spec1, spec2=spec2,
            load1=None, load2=None, materials=(m1, m2),
            pins=((1, (0.5, 0.25), 1), (2, (1.6, 0.25), 1)),
        )

    rect1 = (0.5, 1.0, 0.25, 0.75)
    rect2 = (1.0, 1.6, 0.0, 1.0)
    if name == "pressing":
        components = (0,)  # horizontal clamping only
        load1 = _pressing_load
        pins = ((1, (0.5, 0.25), 1), (2, (1.6, 0.0), 1))
    elif name == "bending":
        components = (0, 1)
        load1 = _bending_load
        pins = ()
    else:
        components = (0, 1)
        load1 = _cosine_load
        pins = ()
    spec1 = _block_rules(0.5, 1.0, 0.25, 0.75, components, 0.25, 0.75)
    spec2 = _block_rules(1.6, 1.0, 0.0, 1.0, components, 0.25, 0.75)
    return ExperimentSetup(
        name=name, rect1=rect1, rect2=rect2, spec1=spec1, spec2=spec2,
        load1=load1, load2=None, materials=(m1, m2), pins=pins,
    )


def initial_meshes(setup: ExperimentSetup, resolutions=DEFAULT_RESOLUTIONS):
    (nx1, ny1), (nx2, ny2) = resolutions
    if setup.rect2[2] < 0.25:
        # the tall block's grid must resolve the contact strip [0.25, 0.75]
        if (ny2 * 0.25) % 1.0 or (ny2 * 0.75) % 1.0:
            raise ValueError(
                f"ny2={ny2} does not place grid lines at the contact-zone "
                "endpoints y=0.25 and y=0.75; use a multiple of 4"
            )
    m1 = classify_boundary(generate_block_mesh(setup.rect1, nx1, ny1, body_id=1), setup.spec1)
    m2 = classify_boundary(generate_block_mesh(setup.rect2, nx2, ny2, body_id=2), setup.spec2)
    return m1, m2


def make_problem(setup: ExperimentSetup, mesh1: Mesh, mesh2: Mesh, degree: int) -> ContactProblem:
    segments = build_interface(mesh1, mesh2)
    return ContactProblem.build(
        mesh1, mesh2, degree, setup.materials, segments,
        body_loads=(setup.load1, setup.load2), pins=setup.pins,
    )


# ---------------------------------------------------------------------------
# marking and the study loop
# ---------------------------------------------------------------------------

def mark_dorfler(indicators, theta: float) -> np.ndarray:
    """Smallest prefix of descending indicators carrying a ``theta``
    fraction of the total.  Ties break towards lower triangle ids, and an
    indicator within a relative ``TIE_RTOL`` of the next larger one ties
    with it, so mirror-image triangles whose indicators differ by rounding
    noise are ordered by id.  An empty array and NaN, infinite or negative
    indicators are rejected."""
    if not (0.0 < theta < 1.0):
        raise ValueError(f"marking fraction must be in (0, 1), got {theta}")
    indicators = np.asarray(indicators, dtype=float)
    if indicators.size == 0:
        raise ValueError("no indicators to mark")
    if not (np.isfinite(indicators).all() and (indicators >= 0).all()):
        raise ValueError("indicators must be finite and non-negative")
    order = np.argsort(-indicators, kind="stable")
    ranked = indicators[order]
    tier = np.cumsum(np.r_[False, ranked[1:] < ranked[:-1] * (1.0 - TIE_RTOL)])
    order = order[np.lexsort((order, tier))]
    csum = np.cumsum(indicators[order])
    total = csum[-1]
    k = int(np.searchsorted(csum, theta * total - 1e-15 * abs(total))) + 1
    return np.sort(order[:k])


@dataclass
class ConvergenceRecord:
    step: int
    ndofs: int
    eta: float
    S: float
    eta_plus_S: float
    eta_element: float
    eta_interior: float
    eta_contact: float
    eta_neumann: float
    iterations: int


@dataclass
class StudyConfig:
    experiment: str
    degree: int
    variant: str = JUNTUNEN
    alpha: Optional[float] = None
    mode: str = "adaptive"
    theta: float = 0.5
    max_dofs: int = 15000
    resolutions: tuple = DEFAULT_RESOLUTIONS
    e2: Optional[float] = None

    def __post_init__(self):
        if self.mode not in ("uniform", "adaptive"):
            raise ValueError(f"mode must be 'uniform' or 'adaptive', got {self.mode!r}")
        if not (0.0 < self.theta < 1.0):
            raise ValueError("theta must lie in (0, 1)")

    def solver_config(self) -> NitscheConfig:
        alpha = DEFAULT_ALPHA[self.degree] if self.alpha is None else self.alpha
        return NitscheConfig(variant=self.variant, alpha=alpha)


@dataclass
class StudyOutput:
    config: StudyConfig
    records: list
    meshes: tuple
    result: object
    report: EstimatorReport

    @property
    def final_ndofs(self) -> int:
        return self.records[-1].ndofs


def free_dof_count(problem: ContactProblem) -> int:
    return int((~problem.fixed_mask()).sum())


def run_study(cfg: StudyConfig) -> StudyOutput:
    """Solve-estimate-refine until the dof budget is reached.

    Every recorded step comes from a converged contact solve; solver
    nonconvergence and a failed linear solve (``SolverError``) propagate
    with the partial record list attached.
    The first solve starts from the fully active indicator; every later
    one starts from the previous step's converged contact indicator,
    transferred onto the refined interface (the ``start`` of ``solve``).
    """
    setup = make_experiment(cfg.experiment, e2=cfg.e2)
    mesh1, mesh2 = initial_meshes(setup, cfg.resolutions)
    solver_cfg = cfg.solver_config()

    records = []
    last = start = None
    for step in range(MAX_STEPS):
        problem = make_problem(setup, mesh1, mesh2, cfg.degree)
        n = free_dof_count(problem)
        if records and n > cfg.max_dofs:
            break
        try:
            result = solve(solver_cfg, problem, start)
        except (NonconvergenceError, SolverError) as exc:
            exc.records = records
            raise
        rep = report(result)
        totals = rep.family_totals
        records.append(ConvergenceRecord(
            step=step,
            ndofs=n,
            eta=rep.eta,
            S=rep.S,
            eta_plus_S=rep.total,
            eta_element=float(np.sqrt(totals["element"])),
            eta_interior=float(np.sqrt(totals["interior"])),
            eta_contact=float(np.sqrt(totals["contact"])),
            eta_neumann=float(np.sqrt(totals["neumann"])),
            iterations=result.iterations,
        ))
        last = (mesh1, mesh2, result, rep)
        start = (result.data.points, result.active)
        # a uniform step at least doubles the free dofs, so a uniform mesh
        # with 2 n over the budget is the last one within it: stop before
        # refining to a mesh that would only be counted and dropped
        if n >= cfg.max_dofs or (cfg.mode == "uniform" and 2 * n > cfg.max_dofs):
            break

        if cfg.mode == "uniform":
            # two mark-all sweeps halve h, quadrupling the dof count
            for _ in range(2):
                mesh1 = bisect_refine(mesh1, np.arange(mesh1.num_triangles))
                mesh2 = bisect_refine(mesh2, np.arange(mesh2.num_triangles))
        else:
            marked = mark_dorfler(rep.aggregate, cfg.theta)
            split = mesh1.num_triangles
            marked1 = marked[marked < split]
            marked2 = marked[marked >= split] - split
            mesh1 = bisect_refine(mesh1, marked1)
            mesh2 = bisect_refine(mesh2, marked2)

    mesh1, mesh2, result, rep = last
    return StudyOutput(config=cfg, records=records, meshes=(mesh1, mesh2),
                       result=result, report=rep)


def regression_slope(records, window: slice = slice(1, None)) -> float:
    """Least-squares slope of log(eta + S) against log(N) over the
    convergence records in ``window``."""
    records = records[window]
    if len(records) < 2:
        raise ValueError("need at least two records in the regression window")
    x = np.log([r.ndofs for r in records])
    y = np.log([r.eta_plus_S for r in records])
    return float(np.polyfit(x, y, 1)[0])
