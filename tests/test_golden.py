"""Golden outputs of seed-0 studies.

A refactor that should not change the numbers must reproduce these
studies exactly: the free dof count, the active-set iterations and the
factorisations of every step, and the final eta + S and each estimator
family's final total to 1e-12 relative (a reordered sum may move them by
rounding, a changed formula moves them far more).  The values were
recorded from the code before the dof map, the block scatter and the
facet normals each got a single owner; the family totals from the code
before the estimator's closed-form facet jumps.
"""

import pytest

from nitsche_contact.adapt import StudyConfig, run_study

ETA_RTOL = 1e-12

# (experiment, degree, mode, max_dofs, variant) -> per-step N, per-step
# iterations, final eta + S; per-step factorisations in FACTORIZATIONS
GOLDEN = {
    ("bending", 2, "adaptive", 2000, "weighted"): (
        [148, 164, 176, 204, 240, 272, 320, 388, 478, 632, 816, 986, 1314, 1626],
        [5, 1, 1, 2, 1, 2, 1, 1, 1, 1, 1, 1, 3, 1],
        0.002695951846427138,
    ),
    ("bending", 2, "adaptive", 2000, "master-slave"): (
        [148, 164, 176, 204, 240, 274, 328, 396, 482, 624, 820, 978, 1270, 1572],
        [5, 1, 1, 2, 1, 1, 2, 1, 1, 1, 1, 1, 5, 1],
        0.0027731257388189322,
    ),
    ("bending", 2, "adaptive", 2000, "juntunen"): (
        [148, 164, 176, 204, 240, 274, 324, 388, 476, 616, 788, 972, 1288, 1598],
        [5, 1, 1, 2, 1, 1, 2, 1, 1, 1, 1, 1, 4, 1],
        0.002690328418939963,
    ),
    ("pressing", 1, "uniform", 5000, "juntunen"): (
        [48, 160, 576, 2176],
        [1, 1, 1, 1],
        0.013421215902027092,
    ),
}


# the work counter of the same studies: a solve factors its first matrix
# and updates that factor for the later iterations, unless an update's
# rank exceeds the factor's fill per column
FACTORIZATIONS = {
    ("bending", 2, "adaptive", 2000, "weighted"): [2] + [1] * 13,
    ("bending", 2, "adaptive", 2000, "master-slave"): [1] * 14,
    ("bending", 2, "adaptive", 2000, "juntunen"): [1] * 14,
    ("pressing", 1, "uniform", 5000, "juntunen"): [1] * 4,
}


# final estimator family totals of the same studies: element, interior,
# contact, neumann (squared sums), so that a shift between families shows
FAMILY_TOTALS = {
    ("bending", 2, "adaptive", 2000, "weighted"): (
        4.905585269120049e-06, 1.7667807036364472e-06,
        3.2440389392280243e-07, 2.1301260824721346e-07,
    ),
    ("bending", 2, "adaptive", 2000, "master-slave"): (
        5.141057030877141e-06, 2.036812218668822e-06,
        2.458629868723979e-07, 2.230762998929908e-07,
    ),
    ("bending", 2, "adaptive", 2000, "juntunen"): (
        4.978460065695433e-06, 1.952821837947544e-06,
        2.5089927428481127e-08, 2.171027493416872e-07,
    ),
    ("pressing", 1, "uniform", 5000, "juntunen"): (
        0.00010579427083333361, 6.987456559742034e-05,
        4.566789207391637e-07, 1.3614559590051004e-06,
    ),
}


@pytest.mark.parametrize("key", list(GOLDEN), ids=lambda k: "-".join(map(str, k)))
def test_study_reproduces_golden_output(key):
    experiment, degree, mode, max_dofs, variant = key
    ndofs, iterations, eta_plus_S = GOLDEN[key]
    out = run_study(StudyConfig(experiment=experiment, degree=degree, mode=mode,
                                max_dofs=max_dofs, variant=variant))
    assert [r.ndofs for r in out.records] == ndofs
    assert [r.iterations for r in out.records] == iterations
    assert [r.factorizations for r in out.records] == FACTORIZATIONS[key]
    assert out.records[-1].eta_plus_S == pytest.approx(eta_plus_S, rel=ETA_RTOL, abs=0.0)
    totals = out.report.family_totals
    assert list(totals) == ["element", "interior", "contact", "neumann"]
    assert list(totals.values()) == pytest.approx(FAMILY_TOTALS[key], rel=ETA_RTOL, abs=0.0)
