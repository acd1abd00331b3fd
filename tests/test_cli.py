from dataclasses import replace

import numpy as np
import pytest

import nitsche_contact.cli as cli
from nitsche_contact.cli import (
    build_parser,
    main,
    read_convergence_csv,
    von_mises,
    write_convergence_csv,
)
from nitsche_contact.adapt import ConvergenceRecord, regression_slope
from nitsche_contact.contact import NonconvergenceError, lh_values, mortar, solve
from nitsche_contact.mesh import parse_mesh


class TestSolveCommand:
    def test_happy_path(self, tmp_path, capsys):
        rc = main(["solve", "--experiment", "pressing", "--degree", "1",
                   "--alpha", "1e-2", "--refine", "1", "--out", str(tmp_path)])
        assert rc == 0
        for name in ("solution.vtk", "lambda_profile.csv", "estimator.txt"):
            assert (tmp_path / name).exists()
        assert "pressing" in capsys.readouterr().out

    def test_unknown_experiment_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--experiment", "stretching", "--out", str(tmp_path)])
        assert err.value.code == 2

    def test_vtk_structure(self, tmp_path):
        main(["solve", "--degree", "1", "--refine", "0", "--out", str(tmp_path)])
        lines = (tmp_path / "solution.vtk").read_text().splitlines()
        assert lines[0].startswith("# vtk DataFile")
        assert "DATASET UNSTRUCTURED_GRID" in lines
        npts = int(next(l for l in lines if l.startswith("POINTS")).split()[1])
        ncell = int(next(l for l in lines if l.startswith("CELLS")).split()[1])
        assert npts == 9 + 20
        assert ncell == 8 + 24
        assert any(l.startswith("VECTORS displacement") for l in lines)
        assert any(l.startswith("SCALARS von_mises") for l in lines)

    def test_lambda_profile_positive_pressure(self, tmp_path):
        main(["solve", "--degree", "1", "--refine", "2", "--out", str(tmp_path)])
        rows = (tmp_path / "lambda_profile.csv").read_text().splitlines()[1:]
        lam = np.array([float(r.split(",")[1]) for r in rows])
        assert lam.min() >= 0.0
        assert lam.max() > 0.0


class TestStudyCommand:
    def test_csv_roundtrip_and_slope_line(self, tmp_path):
        rc = main(["study", "--experiment", "pressing", "--degree", "1",
                   "--mode", "uniform", "--max-dofs", "600", "--svg",
                   "--out", str(tmp_path)])
        assert rc == 0
        path = tmp_path / "convergence.csv"
        rows = read_convergence_csv(path)
        assert len(rows) >= 2
        assert [r[0] for r in rows] == list(range(len(rows)))
        # values reparse bit-exactly
        recs = [ConvergenceRecord(step=r[0], ndofs=r[1], eta=r[2], S=r[3],
                                  eta_plus_S=r[4], eta_element=0, eta_interior=0,
                                  eta_contact=0, eta_neumann=0, iterations=r[5])
                for r in rows]
        slope_line = [l for l in path.read_text().splitlines() if l.startswith("#")][0]
        slope = float(slope_line.split()[-1])
        assert slope == regression_slope(recs)
        svg = (tmp_path / "convergence.svg").read_text()
        assert svg.startswith("<svg") and "circle" in svg

    def test_nonconvergence_is_an_error_exit(self, tmp_path, capsys, monkeypatch):
        def cycling(cfg):
            exc = NonconvergenceError("active-set iteration entered a cycle", [])
            exc.records = [None] * 3
            raise exc

        monkeypatch.setattr(cli, "run_study", cycling)
        assert main(["study", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "entered a cycle" in err and "3 recorded steps" in err
        assert not (tmp_path / "convergence.csv").exists()

    def test_solver_error_is_an_error_exit(self, tmp_path, capsys):
        # P2 beyond the inverse-inequality bound: a negative pivot
        assert main(["study", "--degree", "2", "--alpha", "0.03", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "alpha = 0.03" in err
        assert "Traceback" not in err

    def test_reexport_bit_exact(self, tmp_path):
        recs = [ConvergenceRecord(step=0, ndofs=48, eta=0.0922056381819,
                                  S=1.234e-9, eta_plus_S=0.09220564, eta_element=0,
                                  eta_interior=0, eta_contact=0, eta_neumann=0,
                                  iterations=1),
                ConvergenceRecord(step=1, ndofs=160, eta=np.pi / 62.3, S=0.0,
                                  eta_plus_S=np.pi / 62.3, eta_element=0,
                                  eta_interior=0, eta_contact=0, eta_neumann=0,
                                  iterations=2)]
        path = tmp_path / "c.csv"
        write_convergence_csv(recs, path, slope=-0.5)
        rows = read_convergence_csv(path)
        assert rows[0][2] == recs[0].eta
        assert rows[0][3] == recs[0].S
        assert rows[1][2] == recs[1].eta


class TestVerifyCommand:
    def test_passes(self, capsys):
        rc = main(["verify", "--oracle-instances", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "patch-test-p1-energy" in out

    def test_fault_injection_fails_positivity(self, capsys, monkeypatch):
        # a solve that returns the eliminated multiplier unclamped must be caught
        def unclamped(config, problem, start=None):
            res = solve(config, problem, start)
            m = mortar(res.data, problem.materials, config)
            return replace(res, lam=lh_values(res.data, m, res.u))

        monkeypatch.setattr(cli, "solve", unclamped)
        rc = main(["verify", "--oracle-instances", "1"])
        assert rc == 1
        assert "FAIL pressure-nonnegative-bending" in capsys.readouterr().out


class TestMeshDump:
    def test_roundtrip(self, tmp_path):
        rc = main(["mesh-dump", "--out", str(tmp_path), "--refine", "1"])
        assert rc == 0
        m1 = parse_mesh((tmp_path / "body1.mesh.txt").read_text())
        m2 = parse_mesh((tmp_path / "body2.mesh.txt").read_text())
        assert m1.body_id == 1 and m2.body_id == 2
        assert m1.num_triangles == 16 and m2.num_triangles == 48


class TestRefineFlag:
    @pytest.mark.parametrize("command", ["solve", "mesh-dump"])
    def test_negative_refine_is_usage_error(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as err:
            main([command, "--refine", "-1", "--out", str(tmp_path)])
        assert err.value.code == 2
        assert "--refine" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestPositiveFloatFlags:
    @pytest.mark.parametrize("flag", ["--alpha", "--e2"])
    @pytest.mark.parametrize("value", ["inf", "nan", "-1", "0"])
    def test_bad_value_is_usage_error(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as err:
            main(["solve", flag, value, "--out", str(tmp_path / "out")])
        assert err.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, key", [("alpha=inf", "alpha"), ("e2=-1", "e2")])
    def test_bad_value_in_config_is_usage_error(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as err:
            main(["--config", str(cfg), "study", "--out", str(tmp_path / "out")])
        assert err.value.code == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestNumericFlags:
    @pytest.mark.parametrize("command, flag, value", [
        ("verify", "--oracle-instances", "-1"),
        ("verify", "--oracle-instances", "1.5"),
        ("study", "--theta", "1.5"),
        ("study", "--theta", "0"),
        ("study", "--theta", "1"),
        ("study", "--theta", "nan"),
        ("study", "--max-dofs", "-5"),
        ("study", "--max-dofs", "0"),
        ("study", "--resolutions", "0,2,3,4"),
        ("mesh-dump", "--resolutions", "2,2,-3,4"),
    ])
    def test_bad_value_is_usage_error(self, tmp_path, capsys, command, flag, value):
        out = [] if command == "verify" else ["--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as err:
            main([command, flag, value] + out)
        assert err.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, key", [
        ("oracle-instances=-1", "oracle_instances"),
        ("theta=1.5", "theta"),
        ("max-dofs=-5", "max_dofs"),
        ("resolutions=0,2,3,4", "resolutions"),
    ])
    def test_bad_value_in_config_is_usage_error(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as err:
            main(["--config", str(cfg), "study", "--out", str(tmp_path / "out")])
        assert err.value.code == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_parsed_values(self):
        args = build_parser().parse_args(["study", "--theta", "0.25", "--max-dofs", "7"])
        assert (args.theta, args.max_dofs) == (0.25, 7)
        args = build_parser().parse_args(["verify", "--oracle-instances", "0"])
        assert args.oracle_instances == 0


class TestConfigFile:
    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment=cosine\ndegree=2\nrefine=1\n")
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), "solve", "--out", str(out)])
        assert rc == 0
        assert "cosine (degree 2" in capsys.readouterr().out
        rc = main(["--config", str(cfg), "solve", "--degree", "1", "--out", str(out)])
        assert rc == 0
        assert "cosine (degree 1" in capsys.readouterr().out

    def test_equals_form(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment=cosine\nrefine=0\n")
        rc = main([f"--config={cfg}", "solve", "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "cosine (degree 1" in capsys.readouterr().out

    def test_missing_value_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--config"])
        assert err.value.code == 2
        assert "--config" in capsys.readouterr().err

    @pytest.mark.parametrize("form", ["split", "equals"])
    def test_missing_file_is_usage_error(self, tmp_path, capsys, form):
        path = str(tmp_path / "absent.cfg")
        flag = ["--config", path] if form == "split" else [f"--config={path}"]
        with pytest.raises(SystemExit) as err:
            main(flag + ["solve", "--out", str(tmp_path)])
        assert err.value.code == 2
        assert "absent.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize("word", ["false", "No", "0"])
    def test_switch_false_is_off(self, tmp_path, word):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"svg={word}\n")
        args = build_parser().parse_args(["--config", str(cfg), "study"])
        assert args.svg is False
        cfg.write_text("svg=TRUE\n")
        args = build_parser().parse_args(["--config", str(cfg), "study"])
        assert args.svg is True

    def test_switch_false_writes_no_svg(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("svg=false\nmode=uniform\nmax-dofs=600\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "study", "--out", str(out)]) == 0
        assert (out / "convergence.csv").exists()
        assert not (out / "convergence.svg").exists()

    @pytest.mark.parametrize("line, key", [
        ("degree=3", "degree"),
        ("experiment=bogus", "experiment"),
        ("mode=both", "mode"),
        ("refine=-1", "refine"),
        ("degree=two", "degree"),
    ])
    def test_value_outside_choices_or_type_is_usage_error(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as err:
            main(["--config", str(cfg), "solve", "--out", str(tmp_path / "out")])
        assert err.value.code == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, key", [("svg=maybe", "svg"), ("bogus=1", "bogus")])
    def test_bad_key_or_switch_value_is_usage_error(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as err:
            main(["--config", str(cfg), "study", "--out", str(tmp_path)])
        assert err.value.code == 2
        assert repr(key) in capsys.readouterr().err


class TestHelpers:
    def test_von_mises_uniaxial(self):
        # uniaxial tension: s_zz = nu s, von Mises = s sqrt(1 - nu + nu^2)
        s = np.array([[[2.0, 0.0], [0.0, 0.0]]])
        nu = 0.3
        expect = 2.0 * np.sqrt(1 - nu + nu**2)
        assert von_mises(s, nu)[0] == pytest.approx(expect, rel=1e-12)
