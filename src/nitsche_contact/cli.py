"""Command-line front end: single solves, convergence studies, the
self-verification battery, and mesh dumps.

Numbers are exported with 17 significant digits so a re-parse reproduces
them bit-exactly.  Field output uses the legacy unstructured-grid text
format (displacement as point vectors, von Mises stress as cell data);
study output is a plain CSV plus an optional self-contained SVG log-log
plot with the regression line.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .adapt import (
    DEFAULT_ALPHA,
    DEFAULT_RESOLUTIONS,
    EXPERIMENTS,
    StudyConfig,
    free_dof_count,
    initial_meshes,
    make_experiment,
    make_problem,
    mark_dorfler,
    regression_slope,
    run_study,
)
from .contact import (
    JUNTUNEN,
    VARIANTS,
    NitscheConfig,
    NonconvergenceError,
    SolverError,
    energy_norm,
    lambda_profile,
    solve,
)
from .estimator import report, vertex_stresses
from .fem import interpolate
from .mesh import dump_mesh, uniform_refine
from .oracle import check_vi_residual, solve_mixed


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------

def write_convergence_csv(records, path: Path, slope: float) -> None:
    lines = ["step,N,eta,S,eta_plus_S,iters"]
    for r in records:
        lines.append(
            f"{r.step},{r.ndofs},{_fmt(r.eta)},{_fmt(r.S)},{_fmt(r.eta_plus_S)},{r.iterations}"
        )
    lines.append(f"# regression_slope {_fmt(slope)}")
    path.write_text("\n".join(lines) + "\n")


def read_convergence_csv(path: Path):
    rows = []
    for line in path.read_text().splitlines()[1:]:
        if line.startswith("#") or not line.strip():
            continue
        step, n, eta, s, tot, iters = line.split(",")
        rows.append((int(step), int(n), float(eta), float(s), float(tot), int(iters)))
    return rows


def von_mises(sig: np.ndarray, nu: float) -> np.ndarray:
    """Plane-strain von Mises stress of (..., 2, 2) stress tensors,
    including the out-of-plane component s_zz = nu (s_xx + s_yy)."""
    sxx = sig[..., 0, 0]
    syy = sig[..., 1, 1]
    sxy = sig[..., 0, 1]
    szz = nu * (sxx + syy)
    return np.sqrt(
        0.5 * ((sxx - syy) ** 2 + (syy - szz) ** 2 + (szz - sxx) ** 2) + 3.0 * sxy**2
    )


def write_vtk(result, path: Path) -> None:
    """Legacy unstructured-grid export of both bodies: displacement at
    the points, von Mises stress and the body id per cell."""
    problem = result.problem
    fields = result.fields
    blocks = []
    offset = 0
    for i in range(2):
        mesh = problem.spaces[i].mesh
        disp = fields[i].node_values()[: mesh.num_vertices]
        sig = vertex_stresses(problem.spaces[i], problem.materials[i], fields[i].coeffs)
        sv = von_mises(sig.mean(axis=1), problem.materials[i].nu)
        blocks.append((mesh, disp, sv, offset))
        offset += mesh.num_vertices

    npts = sum(b[0].num_vertices for b in blocks)
    ncell = sum(b[0].num_triangles for b in blocks)
    out = ["# vtk DataFile Version 3.0", "two-body contact solution", "ASCII",
           "DATASET UNSTRUCTURED_GRID", f"POINTS {npts} double"]
    for mesh, _, _, _ in blocks:
        for x, y in mesh.vertices:
            out.append(f"{_fmt(x)} {_fmt(y)} 0")
    out.append(f"CELLS {ncell} {4 * ncell}")
    for mesh, _, _, off in blocks:
        for i, j, k in mesh.triangles:
            out.append(f"3 {i + off} {j + off} {k + off}")
    out.append(f"CELL_TYPES {ncell}")
    out.extend(["5"] * ncell)
    out.append(f"POINT_DATA {npts}")
    out.append("VECTORS displacement double")
    for _, disp, _, _ in blocks:
        for ux, uy in disp:
            out.append(f"{_fmt(ux)} {_fmt(uy)} 0")
    out.append(f"CELL_DATA {ncell}")
    out.append("SCALARS von_mises double 1")
    out.append("LOOKUP_TABLE default")
    for _, _, sv, _ in blocks:
        out.extend(_fmt(v) for v in sv)
    out.append("SCALARS body_id int 1")
    out.append("LOOKUP_TABLE default")
    for mesh, _, _, _ in blocks:
        out.extend([str(mesh.body_id)] * mesh.num_triangles)
    path.write_text("\n".join(out) + "\n")


def write_lambda_profile(result, path: Path) -> None:
    coord, _, lam = lambda_profile(result)
    lines = ["s,lambda"]
    lines += [f"{_fmt(c)},{_fmt(v)}" for c, v in zip(coord, lam)]
    path.write_text("\n".join(lines) + "\n")


def write_estimator_summary(rep, result, path: Path) -> None:
    t = rep.family_totals
    lines = [
        f"eta: {_fmt(rep.eta)}",
        f"S: {_fmt(rep.S)}",
        f"eta_plus_S: {_fmt(rep.total)}",
        f"eta_element: {_fmt(float(np.sqrt(t['element'])))}",
        f"eta_interior_facets: {_fmt(float(np.sqrt(t['interior'])))}",
        f"eta_contact_facets: {_fmt(float(np.sqrt(t['contact'])))}",
        f"eta_neumann_facets: {_fmt(float(np.sqrt(t['neumann'])))}",
        f"oscillation: {_fmt(rep.osc_total)}",
        f"iterations: {result.iterations}",
        f"active_samples: {int(result.active.sum())} / {result.active.size}",
    ]
    path.write_text("\n".join(lines) + "\n")


def write_svg_loglog(records, path: Path, slope: float) -> None:
    """Self-contained log-log scatter of eta+S against N with the
    least-squares regression line."""
    xs = np.log10([r.ndofs for r in records])
    ys = np.log10([r.eta_plus_S for r in records])
    W, H, M = 480, 360, 48

    def sx(x):
        lo, hi = xs.min(), xs.max()
        span = (hi - lo) or 1.0
        return M + (x - lo) / span * (W - 2 * M)

    def sy(y):
        lo, hi = ys.min(), ys.max()
        span = (hi - lo) or 1.0
        return H - M - (y - lo) / span * (H - 2 * M)

    el = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
          f'<rect width="{W}" height="{H}" fill="white"/>',
          f'<line x1="{M}" y1="{H - M}" x2="{W - M}" y2="{H - M}" stroke="black"/>',
          f'<line x1="{M}" y1="{M}" x2="{M}" y2="{H - M}" stroke="black"/>']
    for d in range(int(np.floor(xs.min())), int(np.ceil(xs.max())) + 1):
        el.append(f'<text x="{sx(d):.1f}" y="{H - M + 16}" font-size="10" '
                  f'text-anchor="middle">1e{d}</text>')
    for d in range(int(np.floor(ys.min())), int(np.ceil(ys.max())) + 1):
        el.append(f'<text x="{M - 4}" y="{sy(d):.1f}" font-size="10" '
                  f'text-anchor="end">1e{d}</text>')
    # regression line in log-log coordinates
    coef = np.polyfit(xs, ys, 1)
    for xa, xb in [(xs.min(), xs.max())]:
        el.append(f'<line x1="{sx(xa):.1f}" y1="{sy(np.polyval(coef, xa)):.1f}" '
                  f'x2="{sx(xb):.1f}" y2="{sy(np.polyval(coef, xb)):.1f}" '
                  f'stroke="steelblue"/>')
    for x, y in zip(xs, ys):
        el.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" fill="firebrick"/>')
    el.append(f'<text x="{W / 2:.0f}" y="16" font-size="12" text-anchor="middle">'
              f'slope {slope:.3f}</text>')
    el.append(f'<text x="{W / 2:.0f}" y="{H - 8}" font-size="11" '
              f'text-anchor="middle">N</text>')
    el.append("</svg>")
    path.write_text("\n".join(el) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    setup = make_experiment(args.experiment, e2=args.e2)
    mesh1, mesh2 = initial_meshes(setup, args.resolutions)
    mesh1 = uniform_refine(mesh1, args.refine)
    mesh2 = uniform_refine(mesh2, args.refine)
    problem = make_problem(setup, mesh1, mesh2, args.degree)
    alpha = DEFAULT_ALPHA[args.degree] if args.alpha is None else args.alpha
    config = NitscheConfig(variant=args.variant, alpha=alpha)
    try:
        result = solve(config, problem)
    except (NonconvergenceError, SolverError) as exc:
        hist = getattr(exc, "history", None)   # a SolverError carries none
        where = ""
        if hist:
            log = out / "iteration_log.txt"
            log.write_text("\n".join(str(h) for h in hist) + "\n")
            where = f" (iteration log: {log})"
        print(f"error: {exc}{where}", file=sys.stderr)
        return 1
    rep = report(result)
    write_vtk(result, out / "solution.vtk")
    write_lambda_profile(result, out / "lambda_profile.csv")
    write_estimator_summary(rep, result, out / "estimator.txt")
    print(f"solved {args.experiment} (degree {args.degree}, {args.variant}): "
          f"N={free_dof_count(problem)} eta+S={rep.total:.6g} "
          f"iterations={result.iterations}")
    print(f"artifacts in {out}")
    return 0


def cmd_study(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = StudyConfig(
        experiment=args.experiment, degree=args.degree, variant=args.variant,
        alpha=args.alpha, mode=args.mode, theta=args.theta,
        max_dofs=args.max_dofs, resolutions=args.resolutions, e2=args.e2,
    )
    try:
        output = run_study(cfg)
    except (NonconvergenceError, SolverError) as exc:
        print(f"error: {exc} after {len(exc.records)} recorded steps", file=sys.stderr)
        return 1
    slope = regression_slope(output.records)
    slope_all = regression_slope(output.records, slice(0, None))
    write_convergence_csv(output.records, out / "convergence.csv", slope)
    if args.svg:
        write_svg_loglog(output.records, out / "convergence.svg", slope)
    print(f"study {args.experiment} degree={args.degree} mode={args.mode}: "
          f"{len(output.records)} steps, N={output.records[-1].ndofs}, "
          f"regression slope {slope:.4f} (full series {slope_all:.4f})")
    print(f"artifacts in {out}")
    return 0


def _verify_patch(degree: int):
    setup = make_experiment("patch")
    mesh1, mesh2 = initial_meshes(setup, ((2, 3), (3, 4)))
    problem = make_problem(setup, mesh1, mesh2, degree)
    config = NitscheConfig(variant=JUNTUNEN, alpha=DEFAULT_ALPHA[degree])
    result = solve(config, problem)

    mat = setup.materials[0]
    exx = -(2 * mat.mu + mat.lam) / (4 * mat.mu * (mat.mu + mat.lam))
    eyy = -mat.lam / (2 * mat.mu + mat.lam) * exx

    def exact(x):
        return np.column_stack([exx * (x[:, 0] - 1.6), eyy * (x[:, 1] - 0.25)])

    ue = np.concatenate([interpolate(problem.spaces[0], exact),
                         interpolate(problem.spaces[1], exact)])
    err = energy_norm(problem, result.u - ue) / energy_norm(problem, ue)
    eta = report(result).eta
    lam_min = float(result.lam.min())
    checks = {
        f"patch-test-p{degree}-energy": err < 1e-10,
        f"patch-test-p{degree}-eta": eta < 1e-10,
        f"multiplier-positivity-p{degree}": lam_min >= 0.0,
    }
    detail = f"energy_err={err:.2e} eta={eta:.2e} min_lambda={lam_min:.2e}"
    return checks, detail


def _verify_oracle(seed: int):
    rng = np.random.RandomState(seed)
    setup = make_experiment("bending")
    res1 = (1, int(rng.randint(1, 4)))
    res2 = (2, 4)
    mesh1, mesh2 = initial_meshes(setup, (res1, res2))
    a, b = rng.uniform(-1.0, 1.0, 2)

    def load(x, a=a, b=b):
        return np.column_stack([a + b * (x[:, 1] - 0.5), 0.2 * a * np.ones(len(x))])

    setup = dataclasses.replace(setup, load1=load)
    degree = int(rng.choice([1, 2]))
    variant = VARIANTS[int(rng.randint(0, 3))]
    problem = make_problem(setup, mesh1, mesh2, degree)
    config = NitscheConfig(variant=variant, alpha=1e-3, drop_inactive_terms=False)
    nitsche = solve(config, problem)
    mixed = solve_mixed(problem, config, method="pdas")
    scale = max(energy_norm(problem, mixed.u), 1e-300)
    du = energy_norm(problem, nitsche.u - mixed.u) / scale
    dl = float(np.abs(nitsche.lam - mixed.lam).max())
    vi = check_vi_residual(mixed.system, mixed.u, mixed.lam)
    ok = du < 1e-8 and dl < 1e-8 and vi < 1e-8
    return {f"oracle-equivalence-seed{seed}-{variant}-p{degree}": ok}, \
        f"rel={du:.1e} dlam={dl:.1e} vi={vi:.1e}"


def _verify_positivity():
    """Pressure nonnegativity on a solve with a genuine inactive region."""
    setup = make_experiment("bending")
    mesh1, mesh2 = initial_meshes(setup)
    mesh1 = uniform_refine(mesh1, 2)
    mesh2 = uniform_refine(mesh2, 2)
    problem = make_problem(setup, mesh1, mesh2, 1)
    config = NitscheConfig(variant=JUNTUNEN, alpha=DEFAULT_ALPHA[1])
    lam_min = float(solve(config, problem).lam.min())
    return {"pressure-nonnegative-bending": lam_min >= 0.0}, f"min_lambda={lam_min:.2e}"


def _verify_dorfler():
    rng = np.random.RandomState(0)
    ok = True
    for _ in range(20):
        vals = rng.rand(rng.randint(2, 9))
        theta = rng.uniform(0.2, 0.9)
        marked = mark_dorfler(vals, theta)
        total = vals.sum()
        ok &= vals[marked].sum() >= theta * total - 1e-12
        # minimality by brute force
        best = None
        for mask in range(1, 2 ** len(vals)):
            idx = [i for i in range(len(vals)) if mask >> i & 1]
            if vals[idx].sum() >= theta * total - 1e-12:
                if best is None or len(idx) < best:
                    best = len(idx)
        ok &= len(marked) == best
    return {"dorfler-minimality": bool(ok)}, ""


def cmd_verify(args) -> int:
    jobs = [lambda d=d: _verify_patch(d) for d in (1, 2)]
    jobs += [_verify_positivity]
    jobs += [lambda s=s: _verify_oracle(s) for s in range(args.oracle_instances)]
    jobs += [_verify_dorfler]
    failures = []
    for job in jobs:
        checks, detail = job()
        for name, ok in checks.items():
            status = "PASS" if ok else "FAIL"
            print(f"{status} {name}" + (f" ({detail})" if detail else ""))
            if not ok:
                failures.append(name)
    if failures:
        print(f"{len(failures)} check(s) failed: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def cmd_mesh_dump(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    setup = make_experiment(args.experiment)
    mesh1, mesh2 = initial_meshes(setup, args.resolutions)
    mesh1 = uniform_refine(mesh1, args.refine)
    mesh2 = uniform_refine(mesh2, args.refine)
    for mesh, name in ((mesh1, "body1.mesh.txt"), (mesh2, "body2.mesh.txt")):
        (out / name).write_text(dump_mesh(mesh))
    print(f"meshes written to {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parse_resolutions(text: str):
    parts = [int(p) for p in text.replace("x", ",").split(",")]
    if len(parts) != 4 or min(parts) < 1:
        raise argparse.ArgumentTypeError(
            "resolution must be four positive integers 'nx1,ny1,nx2,ny2'"
        )
    return ((parts[0], parts[1]), (parts[2], parts[3]))


def _checked(convert, ok, what):
    """Argument type: ``convert`` the text, then reject a value failing ``ok``."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_non_negative_int = _checked(int, lambda v: v >= 0, "a non-negative integer")
_positive_int = _checked(int, lambda v: v > 0, "a positive integer")
_positive_float = _checked(float, lambda v: np.isfinite(v) and v > 0, "a positive finite number")
_fraction = _checked(float, lambda v: 0.0 < v < 1.0, "in the open interval (0, 1)")


def _add_common(p):
    p.add_argument("--experiment", choices=EXPERIMENTS, default="pressing")
    p.add_argument("--degree", type=int, choices=(1, 2), default=1)
    p.add_argument("--variant", choices=VARIANTS, default=JUNTUNEN)
    p.add_argument("--alpha", type=_positive_float, default=None,
                   help="stabilisation parameter (default 1e-2 for degree 1, 1e-3 for degree 2)")
    p.add_argument("--e2", type=_positive_float, default=None,
                   help="Young's modulus override for body 2")
    p.add_argument("--resolutions", type=_parse_resolutions,
                   default=DEFAULT_RESOLUTIONS, metavar="NX1,NY1,NX2,NY2")
    p.add_argument("--out", default="out")


_BOOLEAN_WORDS = {"true": True, "yes": True, "1": True,
                  "false": False, "no": False, "0": False}


class _Parser(argparse.ArgumentParser):
    """Argument parser that keeps its actions by destination, so that
    ``--config`` can check each key against the flags it names."""

    def __init__(self, *args, **kwargs):
        self.flags = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flags[action.dest] = action
        return action


class _ConfigFile(argparse.Action):
    """``--config FILE``: the file's ``key=value`` lines become the defaults
    of every subcommand, so flags on the command line override them.  The
    subcommand is parsed after this action runs, which converts the string
    values with each flag's type.  A switch (``--svg``) takes
    true/false/yes/no/1/0; a key that names no flag of any subcommand, any
    other switch value, or a value that the flag's type rejects or that is
    not among its choices, is a usage error."""

    def __init__(self, option_strings, dest, subcommands, **kwargs):
        super().__init__(option_strings, dest, **kwargs)
        self.subcommands = subcommands

    def __call__(self, parser, namespace, value, option_string=None):
        path = Path(value)
        if not path.is_file():
            parser.error(f"config file {value} does not exist")
        overrides = {}
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, raw = line.partition("=")
            key, raw = key.strip().replace("-", "_"), raw.strip()
            flags = [sp.flags[key] for sp in self.subcommands.values() if key in sp.flags]
            if not flags:
                parser.error(f"config file {value}: {key!r} names no flag of any subcommand")
            if flags[0].nargs == 0:
                if raw.lower() not in _BOOLEAN_WORDS:
                    parser.error(f"config file {value}: {key!r} takes true/false/yes/no/1/0,"
                                 f" not {raw!r}")
                overrides[key] = _BOOLEAN_WORDS[raw.lower()]
            else:
                for flag in flags:
                    try:
                        converted = raw if flag.type is None else flag.type(raw)
                    except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
                        parser.error(f"config file {value}: {key!r}: bad value {raw!r} ({exc})")
                    if flag.choices is not None and converted not in flag.choices:
                        parser.error(f"config file {value}: {key!r} takes one of"
                                     f" {', '.join(map(str, flag.choices))}, not {raw!r}")
                overrides[key] = raw
        for subparser in self.subcommands.values():
            subparser.set_defaults(**overrides)
        setattr(namespace, self.dest, value)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nitsche-contact",
        description="Adaptive FEM for frictionless two-body contact with Nitsche mortaring",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.add_argument("--config", action=_ConfigFile, subcommands=sub.choices,
                        help="key=value file; command-line flags override it")

    p = sub.add_parser("solve", help="single solve with field and pressure export")
    _add_common(p)
    p.add_argument("--refine", type=_non_negative_int, default=3,
                   help="uniform refinement sweeps before solving")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("study", help="uniform or adaptive convergence study")
    _add_common(p)
    p.add_argument("--mode", choices=("uniform", "adaptive"), default="adaptive")
    p.add_argument("--theta", type=_fraction, default=0.5)
    p.add_argument("--max-dofs", type=_positive_int, default=15000)
    p.add_argument("--svg", action="store_true", help="write a log-log plot")
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("verify", help="patch test, oracle battery, invariants")
    p.add_argument("--oracle-instances", type=_non_negative_int, default=8)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mesh-dump", help="write the classified meshes as text")
    p.add_argument("--experiment", choices=EXPERIMENTS, default="pressing")
    p.add_argument("--resolutions", type=_parse_resolutions,
                   default=DEFAULT_RESOLUTIONS, metavar="NX1,NY1,NX2,NY2")
    p.add_argument("--refine", type=_non_negative_int, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_mesh_dump)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
