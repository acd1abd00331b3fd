"""Golden outputs of seed-0 studies.

A refactor that should not change the numbers must reproduce these
studies exactly: the free dof count and the active-set iterations of
every step, and the final eta + S to 1e-12 relative (a reordered sum may
move it by rounding, a changed formula moves it far more).  The values
were recorded from the code before the dof map, the block scatter and
the facet normals each got a single owner.
"""

import pytest

from nitsche_contact.adapt import StudyConfig, run_study

ETA_RTOL = 1e-12

# (experiment, degree, mode, max_dofs, variant) -> per-step N, per-step
# iterations, final eta + S
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


@pytest.mark.parametrize("key", list(GOLDEN), ids=lambda k: "-".join(map(str, k)))
def test_study_reproduces_golden_output(key):
    experiment, degree, mode, max_dofs, variant = key
    ndofs, iterations, eta_plus_S = GOLDEN[key]
    out = run_study(StudyConfig(experiment=experiment, degree=degree, mode=mode,
                                max_dofs=max_dofs, variant=variant))
    assert [r.ndofs for r in out.records] == ndofs
    assert [r.iterations for r in out.records] == iterations
    assert out.records[-1].eta_plus_S == pytest.approx(eta_plus_S, rel=ETA_RTOL, abs=0.0)
