"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers."""

import time

import numpy as np
import pytest

from nitsche_contact.adapt import (
    StudyConfig,
    initial_meshes,
    make_experiment,
    make_problem,
    mark_dorfler,
    regression_slope,
    run_study,
)
from nitsche_contact.contact import (
    VARIANTS,
    NitscheConfig,
    assemble_nitsche,
    build_interface_data,
    bulk_system,
    energy_norm,
    mortar,
    solve,
)
from nitsche_contact.estimator import report
from nitsche_contact.fem import interpolate
from nitsche_contact.mesh import uniform_refine
from nitsche_contact.oracle import solve_mixed

SLOPE_TARGETS = {
    ("uniform", 1): -0.40,
    ("adaptive", 1): -0.49,
    ("uniform", 2): -0.49,
    ("adaptive", 2): -0.99,
}


def _line(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_patch_test():
    """Uniform traction across the nonmatching interface is reproduced to
    rounding error, in energy and in the estimator."""
    t0 = time.perf_counter()
    setup = make_experiment("patch")
    mesh1, mesh2 = initial_meshes(setup, ((2, 3), (3, 4)))
    mat = setup.materials[0]
    exx = -(2 * mat.mu + mat.lam) / (4 * mat.mu * (mat.mu + mat.lam))
    eyy = -mat.lam / (2 * mat.mu + mat.lam) * exx

    def exact(x):
        return np.column_stack([exx * (x[:, 0] - 1.6), eyy * (x[:, 1] - 0.25)])

    worst_err = worst_eta = 0.0
    for degree in (1, 2):
        problem = make_problem(setup, mesh1, mesh2, degree)
        config = NitscheConfig(variant="juntunen", alpha=1e-2 if degree == 1 else 1e-3)
        result = solve(config, problem)
        ue = np.concatenate([interpolate(problem.spaces[0], exact),
                             interpolate(problem.spaces[1], exact)])
        err = energy_norm(problem, result.u - ue) / energy_norm(problem, ue)
        eta = report(result).eta
        worst_err = max(worst_err, err)
        worst_eta = max(worst_eta, eta)
    elapsed = time.perf_counter() - t0
    ok = worst_err < 1e-10 and worst_eta < 1e-10 and elapsed < 1.0
    _line(1, ok, f"energy_err={worst_err:.2e} eta={worst_eta:.2e} runtime={elapsed:.2f}s")
    assert worst_err < 1e-10
    assert worst_eta < 1e-10
    assert elapsed < 1.0


def test_criterion_2_oracle_equivalence():
    """Displacement-only solves match the explicit-multiplier solves on
    randomized small instances: the pressure elimination is exact."""
    t0 = time.perf_counter()
    worst_u = worst_lam = 0.0
    n_instances = 24
    for seed in range(n_instances):
        rng = np.random.RandomState(1000 + seed)
        variant = VARIANTS[seed % 3]
        degree = 1 + (seed // 3) % 2
        res1 = (int(rng.randint(1, 3)), int(rng.randint(1, 4)))
        res2 = (int(rng.randint(1, 3)), int(rng.choice([4, 8])))
        a, b, c, d = rng.uniform(-1.0, 1.0, 4)

        def load(x, a=a, b=b, c=c, d=d):
            return np.column_stack([a + b * (x[:, 1] - 0.5) + c * (x[:, 0] - 0.75),
                                    d * np.ones(len(x))])

        setup = make_experiment("bending")
        setup = setup.__class__(**{**setup.__dict__, "load1": load})
        mesh1, mesh2 = initial_meshes(setup, (res1, res2))
        problem = make_problem(setup, mesh1, mesh2, degree)
        assert len(problem.segments) <= 12
        config = NitscheConfig(variant=variant, alpha=1e-3, drop_inactive_terms=False)
        nitsche = solve(config, problem)
        mixed = solve_mixed(problem, config, method="pdas")
        scale = max(energy_norm(problem, mixed.u), 1e-300)
        worst_u = max(worst_u, energy_norm(problem, nitsche.u - mixed.u) / scale)
        worst_lam = max(worst_lam, float(np.abs(nitsche.lam - mixed.lam).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_u < 1e-8 and worst_lam < 1e-8 and elapsed < 30.0
    _line(2, ok, f"{n_instances} instances, worst rel={worst_u:.2e} "
                 f"worst dlam={worst_lam:.2e} runtime={elapsed:.1f}s")
    assert worst_u < 1e-8
    assert worst_lam < 1e-8
    assert elapsed < 30.0


def test_criterion_3_pressing_slopes(pressing_studies):
    """Convergence rates of eta+S against N for the squeezing load."""
    details = []
    ok = True
    for key, target in SLOPE_TARGETS.items():
        slope = regression_slope(pressing_studies[key].records)
        good = abs(slope - target) <= 0.15
        ok &= good
        details.append(f"{key[0]}-p{key[1]}: {slope:+.3f} (target {target:+.2f})")
    _line(3, ok, "; ".join(details))
    for key, target in SLOPE_TARGETS.items():
        slope = regression_slope(pressing_studies[key].records)
        assert abs(slope - target) <= 0.15, (key, slope, target)


def test_criterion_4_bending_slope_and_active_set(bending_adaptive_p2):
    out = bending_adaptive_p2
    slope = regression_slope(out.records)
    res = out.result
    proper_subset = bool(res.active.any() and not res.active.all())
    ok = abs(slope - (-0.97)) <= 0.2 and proper_subset
    _line("4(slope+active-set)", ok,
          f"slope={slope:+.3f} active={int(res.active.sum())}/{res.active.size}")
    assert abs(slope - (-0.97)) <= 0.2
    assert proper_subset


def test_criterion_4_refinement_concentration(bending_adaptive_p2):
    """At least 30% of a final mesh's triangles lie within 0.1 of the
    free end of the contact zone.

    The census is taken per body, matching the per-block mesh pictures
    the slope data comes from: the loaded block also resolves its own
    clamp-corner singularities, which says nothing about the contact
    region, while the transmitting block's refinement is driven almost
    entirely by the contact corner.  Both fractions and the combined one
    are reported.
    """
    out = bending_adaptive_p2
    res = out.result
    ys = res.data.points[:, 1]
    # active zone touches the top corner of the interface; its free end
    corner = np.array([1.0, ys[res.active].max() if res.active.any() else 0.75])
    fracs = []
    for mesh in out.meshes:
        c = mesh.vertices[mesh.triangles].mean(axis=1)
        d = np.hypot(c[:, 0] - corner[0], c[:, 1] - corner[1])
        fracs.append(float((d < 0.1).mean()))
    n1 = out.meshes[0].num_triangles
    n2 = out.meshes[1].num_triangles
    combined = (fracs[0] * n1 + fracs[1] * n2) / (n1 + n2)
    best = max(fracs)
    ok = best >= 0.30
    _line("4(concentration)", ok,
          f"fraction within 0.1 of ({corner[0]:.2f},{corner[1]:.2f}): "
          f"body1={fracs[0]:.3f} body2={fracs[1]:.3f} combined={combined:.3f}")
    assert best >= 0.30, (fracs, combined)


@pytest.mark.parametrize("e2", [100.0, 0.01])
def test_criterion_5_material_jump(e2):
    cfg = StudyConfig(experiment="bending", degree=2, mode="adaptive",
                      max_dofs=5500, e2=e2)
    out = run_study(cfg)
    slope = regression_slope(out.records)
    ok = slope <= -0.85
    _line(f"5(E2={e2})", ok, f"slope={slope:+.3f}")
    assert slope <= -0.85


def test_criterion_6_alpha_robustness():
    slopes = {}
    for alpha in (1e-4, 1e-3, 1e-2):
        cfg = StudyConfig(experiment="bending", degree=2, mode="adaptive",
                          max_dofs=5500, alpha=alpha)
        slopes[alpha] = regression_slope(run_study(cfg).records)
    spread = max(slopes.values()) - min(slopes.values())
    ok = spread <= 0.2
    _line(6, ok, "slopes " + ", ".join(f"{a:g}:{s:+.3f}" for a, s in slopes.items())
          + f"; spread={spread:.3f}")
    assert spread <= 0.2


def test_criterion_7_variant_agreement():
    setup = make_experiment("pressing")
    mesh1, mesh2 = initial_meshes(setup)
    mesh1 = uniform_refine(mesh1, 7)
    mesh2 = uniform_refine(mesh2, 7)
    etas = {}
    ndofs = None
    for variant in VARIANTS:
        problem = make_problem(setup, mesh1, mesh2, 1)
        result = solve(NitscheConfig(variant=variant, alpha=1e-2), problem)
        etas[variant] = report(result).eta
        ndofs = int((~problem.fixed_mask()).sum())
    vals = list(etas.values())
    spread = max(abs(a - b) / max(a, b) for a in vals for b in vals)
    ok = spread <= 0.05
    _line(7, ok, f"N={ndofs}, eta per variant " +
          ", ".join(f"{k}:{v:.5g}" for k, v in etas.items()) + f"; spread={spread:.3%}")
    assert spread <= 0.05


def test_criterion_8_cosine_symmetry():
    cfg = StudyConfig(experiment="cosine", degree=2, mode="uniform", max_dofs=9000)
    out = run_study(cfg)
    res = out.result
    ys = res.data.points[:, 1]
    order = np.argsort(ys, kind="stable")
    ys, lam = ys[order], res.lam[order]
    pos = lam > 0
    runs = int(np.count_nonzero(pos[1:] & ~pos[:-1]) + (1 if pos[0] else 0))
    peak = float(lam.max())
    grid = np.linspace(0.25, 0.75, 801)
    prof = np.interp(grid, ys, lam)
    mirror = np.interp(1.0 - grid, ys, lam)
    asym = float(np.abs(prof - mirror).max())
    ok = runs == 2 and asym < 0.02 * peak
    _line(8, ok, f"positive intervals={runs} peak={peak:.4f} asymmetry={asym / peak:.2e} of peak")
    assert runs == 2
    assert asym < 0.02 * peak


def test_criterion_9_property_suite(pressing_studies, bending_adaptive_p2):
    checks = {}

    # pressure nonnegativity on every converged solve at hand
    worst_lam = min(out.result.lam.min() for out in pressing_studies.values())
    worst_lam = min(worst_lam, bending_adaptive_p2.result.lam.min())
    checks["lambda>=0"] = worst_lam >= 0.0

    # assembled system symmetry
    setup = make_experiment("pressing")
    m1, m2 = initial_meshes(setup)
    m1, m2 = uniform_refine(m1, 2), uniform_refine(m2, 2)
    problem = make_problem(setup, m1, m2, 2)
    data = build_interface_data(problem)
    rng = np.random.RandomState(0)
    sym_ok = True
    for variant in VARIANTS:
        cfg = NitscheConfig(variant=variant, alpha=1e-3, drop_inactive_terms=False)
        A0, _ = bulk_system(problem)
        A = A0 + assemble_nitsche(data, mortar(data, problem.materials, cfg), cfg,
                                  rng.rand(data.num_samples) > 0.5, problem.num_dofs)
        sym_ok &= abs(A - A.T).max() < 1e-12 * abs(A).max()
    checks["system-symmetry<=1e-12"] = sym_ok

    # estimator additivity
    rep = bending_adaptive_p2.report
    checks["eta2-additivity"] = rep.eta2 == sum(rep.family_totals.values()) and \
        abs(rep.aggregate.sum() - rep.eta2) <= 1e-12 * rep.eta2

    # marking rule against brute force on short lists
    dorfler_ok = True
    for seed in range(8):
        r = np.random.RandomState(seed)
        vals = r.rand(r.randint(2, 11))
        theta = r.uniform(0.2, 0.95)
        marked = mark_dorfler(vals, theta)
        total = vals.sum()
        dorfler_ok &= vals[marked].sum() >= theta * total - 1e-12
        best = min(
            bin(mask).count("1")
            for mask in range(1, 2 ** len(vals))
            if vals[[i for i in range(len(vals)) if mask >> i & 1]].sum()
            >= theta * total - 1e-12
        )
        dorfler_ok &= len(marked) == best
    checks["dorfler-minimal-prefix"] = dorfler_ok

    # estimator homogeneity under load scaling
    hom_ok = True
    base_setup = make_experiment("pressing")
    bm1, bm2 = initial_meshes(base_setup)
    bm1, bm2 = uniform_refine(bm1, 2), uniform_refine(bm2, 2)
    prob0 = make_problem(base_setup, bm1, bm2, 1)
    rep0 = report(solve(NitscheConfig(alpha=1e-2), prob0))
    for c in (0.5, 2.0, 10.0):
        scaled = base_setup.__class__(**{
            **base_setup.__dict__,
            "load1": (lambda x, s=c: s * base_setup.load1(x)),
        })
        probc = make_problem(scaled, bm1, bm2, 1)
        repc = report(solve(NitscheConfig(alpha=1e-2), probc))
        hom_ok &= abs(repc.eta - c * rep0.eta) <= 1e-10 * max(repc.eta, 1e-300)
        hom_ok &= abs(repc.S - c * rep0.S) <= 1e-10 * max(repc.S, 1e-300)
    checks["estimator-homogeneity"] = hom_ok

    ok = all(checks.values())
    _line(9, ok, ", ".join(f"{k}={'y' if v else 'N'}" for k, v in checks.items()))
    assert all(checks.values()), checks
