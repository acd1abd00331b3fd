"""The benchmark's workloads: seeded inputs, one operation, its checks.

Each workload turns a seed into inputs for the package's public API,
runs one complete operation on them and checks the outputs.  The program
receives only the generated inputs, never the seed.

* ``uniform-p1-pressing``: one uniform P1 study of the pressing load to a
  60,000-dof budget.  Refinement dominates; the active set settles in one
  iteration.
* ``adaptive-p2-bending``: one adaptive P2 study of the bending load to an
  8,000-dof budget.  The repeated active-set linear solves dominate.
* ``oracle-battery``: 144 small instances, each solved by the Nitsche
  active-set solver and by the mixed oracle, which must agree.  Per-call
  overhead dominates.

For the studies the seed picks the nonmatching starting pair from a fixed
list; seed 0 is the package default ``((2, 2), (3, 4))``.  The pairs of a
list were picked from all valid pairs because their studies cost about
the same (time and summed dof count within a few percent), so that a
run's figures do not depend on which pair its seed picked.  Their outputs
were recorded on the commit that added the benchmark (see ``PAIRS``).
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from nitsche_contact import adapt, contact, mesh, oracle

# Agreement bound of the oracle comparison (acceptance criterion 2).
ORACLE_TOL = 1e-8
# eta + S of the final step must match its recorded value to rounding level.
ETA_RTOL = 1e-8


@dataclasses.dataclass(frozen=True)
class Reference:
    """Recorded outputs of one study: final N, steps and final eta + S."""

    ndofs: int
    steps: int
    eta_plus_S: float


@dataclasses.dataclass
class Outcome:
    """What one operation produced, reduced to what the metrics need."""

    dofs: int                        # sum of the free dof counts of all contact solves
    iters_max: int                   # most active-set iterations of any one solve
    eta_plus_S: float | None = None  # study workloads only
    cycles: int = 0                  # battery instances on which both solvers cycle
    failures: list = dataclasses.field(default_factory=list)


class Study:
    """One ``run_study`` to the dof budget on a seeded starting pair."""

    def __init__(self, experiment, degree, mode, max_dofs, slope, pairs, warmup_dofs):
        self.experiment = experiment
        self.degree = degree
        self.mode = mode
        self.max_dofs = max_dofs
        self.slope_target, self.slope_tol = slope
        self.pairs = pairs               # ((resolutions, Reference), ...)
        self.warmup_dofs = warmup_dofs

    def inputs(self, seed: int):
        resolutions, ref = self.pairs[seed % len(self.pairs)]
        setup = adapt.make_experiment(self.experiment)
        adapt.initial_meshes(setup, resolutions)   # validates the pair
        return self._config(resolutions, self.max_dofs), ref

    def _config(self, resolutions, max_dofs):
        return adapt.StudyConfig(experiment=self.experiment, degree=self.degree,
                                 mode=self.mode, theta=0.5, max_dofs=max_dofs,
                                 resolutions=resolutions)

    def warmup(self, inputs) -> None:
        cfg, _ = inputs
        adapt.run_study(self._config(cfg.resolutions, self.warmup_dofs))

    def operation(self, inputs):
        cfg, _ = inputs
        return lambda: adapt.run_study(cfg)

    def outcome(self, inputs, out) -> Outcome:
        _, ref = inputs
        records = out.records
        result = Outcome(dofs=sum(r.ndofs for r in records),
                         iters_max=max(r.iterations for r in records),
                         eta_plus_S=records[-1].eta_plus_S)
        fail = result.failures
        if out.final_ndofs != ref.ndofs:
            fail.append(f"final N {out.final_ndofs} != reference {ref.ndofs}")
        if len(records) != ref.steps:
            fail.append(f"{len(records)} steps != reference {ref.steps}")
        if abs(result.eta_plus_S - ref.eta_plus_S) > ETA_RTOL * ref.eta_plus_S:
            fail.append(f"eta+S {result.eta_plus_S!r} != reference {ref.eta_plus_S!r}")
        slope = adapt.regression_slope(records)
        if abs(slope - self.slope_target) > self.slope_tol:
            fail.append(f"slope {slope:+.3f} outside {self.slope_target:+.2f}"
                        f" +- {self.slope_tol}")
        mesh1, mesh2 = out.meshes
        try:
            mesh.audit_conformity(mesh1)
            mesh.audit_conformity(mesh2)
            mesh.audit_interface(out.result.problem.segments, mesh1, mesh2)
        except AssertionError as exc:
            fail.append(f"mesh audit: {exc}")
        return result


@dataclasses.dataclass(frozen=True)
class Instance:
    setup: adapt.ExperimentSetup
    mesh1: mesh.Mesh
    mesh2: mesh.Mesh
    degree: int
    config: contact.NitscheConfig


class OracleBattery:
    """Nitsche solve vs mixed oracle on every small pair x variant x degree.

    The battery holds each of 6 x 4 coarse pairs with each variant and
    degree once (144 instances, at most 6 interface segments each).  The
    seed draws each instance's linear load, as in acceptance criterion 2,
    and the order of the instances.
    """

    RES1 = tuple(itertools.product((1, 2), (1, 2, 3)))
    RES2 = tuple(itertools.product((1, 2), (4, 8)))
    WARMUP = 12

    def __init__(self, limit=None):
        self.limit = limit   # a prefix of the battery, for the self-test

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        base = adapt.make_experiment("bending")
        combos = list(itertools.product(self.RES1, self.RES2, (1, 2), contact.VARIANTS))
        instances = []
        for k in rng.permutation(len(combos)):
            res1, res2, degree, variant = combos[k]
            a, b, c, d = rng.uniform(-1.0, 1.0, 4)

            def load(x, a=a, b=b, c=c, d=d):
                return np.column_stack([a + b * (x[:, 1] - 0.5) + c * (x[:, 0] - 0.75),
                                        np.full(len(x), d)])

            setup = dataclasses.replace(base, load1=load)
            mesh1, mesh2 = adapt.initial_meshes(setup, (res1, res2))
            config = contact.NitscheConfig(variant=variant, alpha=1e-3,
                                           drop_inactive_terms=False)
            instances.append(Instance(setup, mesh1, mesh2, degree, config))
        return instances[:self.limit]

    def warmup(self, inputs) -> None:
        _battery(inputs[:self.WARMUP])

    def operation(self, inputs):
        return lambda: _battery(inputs)

    def outcome(self, inputs, rows) -> Outcome:
        solved = [r for r in rows if r.iterations is not None]
        result = Outcome(dofs=sum(adapt.free_dof_count(r.problem) for r in solved),
                         iters_max=max((r.iterations for r in solved), default=0),
                         cycles=sum(r.nitsche_cycled and r.mixed_cycled for r in rows))
        for k, r in enumerate(rows):
            label = f"instance {k} ({inputs[k].config.variant}, p{inputs[k].degree})"
            if len(r.problem.segments) > 12:
                result.failures.append(f"{label}: {len(r.problem.segments)} segments > 12")
            if r.nitsche_cycled != r.mixed_cycled:
                result.failures.append(f"{label}: only the "
                                       f"{'Nitsche' if r.nitsche_cycled else 'mixed'}"
                                       " active-set iteration failed to settle")
            elif r.iterations is not None and not max(r.errors) < ORACLE_TOL:
                du, dl, vi = r.errors
                result.failures.append(f"{label}: rel={du:.1e} dlam={dl:.1e} vi={vi:.1e}")
        return result


@dataclasses.dataclass
class Row:
    """One battery instance: its problem and how the two solvers compare."""

    problem: contact.ContactProblem
    iterations: int | None = None    # Nitsche active-set iterations
    errors: tuple = ()               # relative energy difference, max |dlam|, VI residual
    nitsche_cycled: bool = False
    mixed_cycled: bool = False


def _battery(instances):
    """Solve every instance both ways and measure their disagreement.

    The elimination is exact, so the two active-set iterations are the
    same iteration: on an instance where one cycles, so must the other.
    Such an instance is a known limit of the undamped iteration; it is
    counted (``Outcome.cycles``), not compared.
    """
    rows = []
    for inst in instances:
        row = Row(adapt.make_problem(inst.setup, inst.mesh1, inst.mesh2, inst.degree))
        try:
            nitsche = contact.solve(inst.config, row.problem)
        except contact.NonconvergenceError:
            row.nitsche_cycled = True
        try:
            mixed = oracle.solve_mixed(row.problem, inst.config, method="pdas")
        except oracle.InfeasibleError:
            row.mixed_cycled = True
        if not (row.nitsche_cycled or row.mixed_cycled):
            scale = max(contact.energy_norm(row.problem, mixed.u), 1e-300)
            row.iterations = nitsche.iterations
            row.errors = (contact.energy_norm(row.problem, nitsche.u - mixed.u) / scale,
                          float(np.abs(nitsche.lam - mixed.lam).max()),
                          oracle.check_vi_residual(mixed.system, mixed.u, mixed.lam))
        rows.append(row)
    return rows


# Starting pairs per study, first entry = seed 0, with the outputs recorded
# on the commit that added the benchmark.
PAIRS = {
    "uniform-p1-pressing": (
        (((2, 2), (3, 4)), Reference(33280, 6, 0.0036967206819391927)),
        (((4, 1), (3, 4)), Reference(33376, 6, 0.005435026709063043)),
        (((1, 4), (3, 4)), Reference(33280, 6, 0.0060702465048306994)),
        (((4, 3), (1, 4)), Reference(33312, 6, 0.004424523686563752)),
    ),
    "adaptive-p2-bending": (
        (((2, 2), (3, 4)), Reference(7016, 20, 0.0006611132955318527)),
        (((3, 4), (4, 4)), Reference(6674, 18, 0.0007204403122214627)),
    ),
}

WORKLOADS = {
    "uniform-p1-pressing": Study(
        "pressing", 1, "uniform", 60000, (-0.40, 0.15),
        PAIRS["uniform-p1-pressing"], warmup_dofs=2000),
    "adaptive-p2-bending": Study(
        "bending", 2, "adaptive", 8000, (-0.97, 0.2),
        PAIRS["adaptive-p2-bending"], warmup_dofs=1000),
    "oracle-battery": OracleBattery(),
}
