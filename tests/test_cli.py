"""The kgraph command line front end and its exit-code contract."""

import json

import numpy as np
import pytest

import kgraph as kg
import kgraph.solver as ksolver
from kgraph.cli import main, parse_config
from kgraph.errors import InputError

CAP_CONFIG = """\
[geometry]
builtin = euclidean

[domain]
shape = disk
center = 0.0 0.0
radius = 0.5
h = 0.03125

[problem]
H = 1.0
phi = -sqrt(1 - r^2)

[solver]
newton_tol = 1e-10
"""

TRIVIAL_CONFIG = """\
[geometry]
builtin = euclidean

[domain]
shape = disk
center = 0.0 0.0
radius = 0.5
h = 0.0625

[problem]
H = 0
phi = 0
"""


# the euclidean plane as a 2 x 2 table over [-1, 1]^2
CHART_FILE = """\
name = table-euclid
grid = 2 2 -1 -1 2 2
ric_lower = 0
[sigma11]
1, 1
1, 1
[sigma12]
0, 0
0, 0
[sigma22]
1, 1
1, 1
[f]
1, 1
1, 1
[delta1]
0, 0
0, 0
[delta2]
0, 0
0, 0
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSolve:
    def test_trivial_zero_solution(self, tmp_path, capsys):
        cfg = write(tmp_path, "trivial.cfg", TRIVIAL_CONFIG)
        out = tmp_path / "out"
        assert main(["solve", cfg, "--out", str(out)]) == 0
        run = parse_config(cfg)
        grid = kg.build_grid(run.spec.domain, run.h, run.spec.chart)
        u = kg.read_field_csv(out / "u.csv", grid)
        assert np.abs(u).max() < 1e-12
        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == 1
        assert report["converged"] is True

    def test_cap_run(self, tmp_path):
        cfg = write(tmp_path, "cap.cfg", CAP_CONFIG)
        out = tmp_path / "out"
        assert main(["solve", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["residual_final"] <= 1e-10
        assert report["hypothesis"]["passed"] is True

    def test_stall_exit_code(self, tmp_path, capsys):
        cfg = write(tmp_path, "stall.cfg", CAP_CONFIG.replace("H = 1.0", "H = 10.0"))
        out = tmp_path / "out"
        assert main(["solve", cfg, "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is False
        assert 0.0 < report["stalled_at"] < 1.0
        assert report["hypothesis"]["passed"] is False
        text = capsys.readouterr().out
        assert "stalled at sigma" in text

    def test_minimal_graph_stall_report(self, tmp_path, capsys, monkeypatch):
        # a stall at sigma = 0 writes the same report as any other stall
        def failing(*args, **kwargs):
            raise ksolver._NewtonFailure("line search stalled")

        monkeypatch.setattr(ksolver, "newton_solve", failing)
        cfg = write(tmp_path, "cap.cfg", CAP_CONFIG)
        out = tmp_path / "out"
        assert main(["solve", cfg, "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is False
        assert report["stalled_at"] == 0.0
        assert report["sigma_path"] == []
        assert report["geometry"] == "euclidean"
        assert report["h"] == 0.03125
        assert report["domain"]
        assert report["hypothesis"]["passed"] is True
        text = capsys.readouterr().out
        assert "stalled at sigma = 0 " in text
        assert "n/a" not in text

    def test_malformed_config(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.cfg", "[domain]\nshape = disk\n")
        assert main(["solve", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "geometry" in err

    def test_bad_expression_names_key(self, tmp_path, capsys):
        cfg = write(tmp_path, "expr.cfg", TRIVIAL_CONFIG.replace("H = 0", "H = q + 1"))
        assert main(["solve", cfg, "--out", str(tmp_path)]) == 1
        assert "[problem] H" in capsys.readouterr().err

    def test_non_finite_H_exit_1(self, tmp_path, capsys):
        cfg = write(tmp_path, "ln.cfg", TRIVIAL_CONFIG.replace("H = 0", "H = ln(x)"))
        with np.errstate(invalid="ignore", divide="ignore"):
            assert main(["solve", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "H is not finite at node (" in capsys.readouterr().err

    def test_disabled_geometry(self, tmp_path, capsys):
        cfg = write(tmp_path, "hopf.cfg",
                    TRIVIAL_CONFIG.replace("builtin = euclidean", "builtin = hopf"))
        assert main(["solve", cfg, "--out", str(tmp_path)]) == 1
        assert "unknown geometry 'hopf'" in capsys.readouterr().err


class TestCheck:
    @pytest.mark.parametrize("rho", [0.25, 0.5, 1.0])
    def test_disk_cylinder_values(self, tmp_path, capsys, rho):
        text = TRIVIAL_CONFIG.replace("radius = 0.5", f"radius = {rho}") \
                             .replace("h = 0.0625", f"h = {rho/16}") \
                             .replace("H = 0", "H = 0.1")
        cfg = write(tmp_path, "check.cfg", text)
        assert main(["check", cfg]) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("inf_Hcyl")][0]
        value = float(line.split("=")[1])
        assert abs(value - 1.0 / (2 * rho)) <= 1e-4
        assert "verdict: PASS" in out

    def test_half_disk_half_curvature(self, tmp_path, capsys):
        # rho = 0.5 with H = 0.5: passes with inf H_cyl printed as 1.0000
        cfg = write(tmp_path, "half.cfg", TRIVIAL_CONFIG.replace("H = 0", "H = 0.5"))
        assert main(["check", cfg]) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("inf_Hcyl")][0]
        assert abs(float(line.split("=")[1]) - 1.0) <= 1e-4

    def test_hypothesis_failure_exit(self, tmp_path, capsys):
        cfg = write(tmp_path, "fail.cfg", TRIVIAL_CONFIG.replace("H = 0", "H = 1.5"))
        assert main(["check", cfg]) == 3
        assert "verdict: FAIL" in capsys.readouterr().out


class TestVerify:
    def test_round_trip(self, tmp_path, capsys):
        cfg = write(tmp_path, "cap.cfg", CAP_CONFIG)
        out = tmp_path / "out"
        assert main(["solve", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        vout = tmp_path / "vout"
        assert main(["verify", cfg, str(out / "u.csv"), "--out", str(vout)]) == 0
        verify = json.loads((vout / "verify.json").read_text())
        assert verify["schema"] == 1
        assert verify["passed"] is True
        # the recomputed residual reproduces the solver's value exactly
        assert abs(verify["items"]["residual"]["residual_inf"]
                   - report["residual_final"]) <= 1e-12
        # the margins are written as u.csv is, CRLF-terminated
        for name in ("margin_height.csv", "margin_gradient.csv"):
            text = (vout / name).read_bytes().decode()
            assert text.startswith("x,y,margin\r\n") and text.endswith("\r\n")
            assert text.count("\n") == text.count("\r\n")
        # the height barrier is checked at every inside node, in grid order
        run = parse_config(cfg)
        grid = kg.build_grid(run.spec.domain, run.h, run.spec.chart)
        rows = np.loadtxt(vout / "margin_height.csv", delimiter=",", skiprows=1, ndmin=2)
        assert rows.shape == (grid.num_inside, 3)
        assert np.array_equal(rows[:, :2], grid.points)

    def test_corrupted_field_exit_4(self, tmp_path):
        cfg = write(tmp_path, "cap.cfg", CAP_CONFIG)
        out = tmp_path / "out"
        main(["solve", cfg, "--out", str(out)])
        run = parse_config(cfg)
        grid = kg.build_grid(run.spec.domain, run.h, run.spec.chart)
        u = kg.read_field_csv(out / "u.csv", grid)
        u[int(np.argmax(grid.dist))] += 0.5
        kg.write_field_csv(out / "u.csv", grid, u, name="u")
        assert main(["verify", cfg, str(out / "u.csv"), "--out", str(out)]) == 4

    def test_shape_mismatch_exit_1(self, tmp_path):
        cfg = write(tmp_path, "cap.cfg", CAP_CONFIG)
        out = tmp_path / "out"
        main(["solve", cfg, "--out", str(out)])
        other = write(tmp_path, "other.cfg", CAP_CONFIG.replace("0.03125", "0.0625"))
        assert main(["verify", other, str(out / "u.csv"), "--out", str(out)]) == 1

    def test_minimal_heisenberg_flux(self, tmp_path):
        text = """\
[geometry]
builtin = heisenberg

[domain]
shape = disk
center = 0 0
radius = 1.0
h = 0.03125

[problem]
H = 0
phi = 0
"""
        cfg = write(tmp_path, "heis.cfg", text)
        out = tmp_path / "out"
        assert main(["solve", cfg, "--out", str(out)]) == 0
        vout = tmp_path / "vout"
        assert main(["verify", cfg, str(out / "u.csv"), "--out", str(vout)]) == 0
        verify = json.loads((vout / "verify.json").read_text())
        assert abs(verify["items"]["flux"]["boundary"]) <= 1e-2


class TestMisc:
    def test_geometries_listing(self, capsys):
        assert main(["geometries"]) == 0
        out = capsys.readouterr().out
        for name in ("euclidean", "heisenberg", "warped"):
            assert name in out
        assert "hopf" not in out

    def test_warped_config(self, tmp_path):
        text = """\
[geometry]
builtin = warped
f = 1 + x^2/4
ric_lower = 0.0

[domain]
shape = rectangle
x0 = -0.5
y0 = -0.5
x1 = 0.5
y1 = 0.5
h = 0.0625

[problem]
H = 0
phi = 0
"""
        cfg = write(tmp_path, "warp.cfg", text)
        out = tmp_path / "out"
        assert main(["solve", cfg, "--out", str(out)]) == 0

    def test_parse_config_solver_overrides(self, tmp_path):
        text = CAP_CONFIG.replace("newton_tol = 1e-10", "newton_tol = 1e-9")
        run = parse_config(write(tmp_path, "over.cfg", text))
        assert run.solve_config.newton_tol == 1e-9
        run = parse_config(write(tmp_path, "default.cfg", TRIVIAL_CONFIG))
        assert run.solve_config.newton_tol == kg.SolveConfig().newton_tol
        with pytest.raises(InputError):
            parse_config(str(tmp_path / "missing.cfg"))

    # newton_tol is the only [solver] key; fd_jacobian, max_newton and
    # try_direct were SolveConfig fields, and a config naming one is rejected;
    # so is a key a section does not read, or a section kgraph does not know
    @pytest.mark.parametrize("after, line, message", [
        *(("newton_tol = 1e-10", line, f"[solver] unknown key {line.split()[0]!r}")
          for line in ("warp_speed = 9", "fd_jacobian = true", "max_newton = 12",
                       "try_direct = flase")),
        ("h = 0.03125", "raduis = 0.4", "[domain] unknown key 'raduis'"),
        ("phi = -sqrt(1 - r^2)", "newton_tol = 1e-3", "[problem] unknown key 'newton_tol'"),
        ("newton_tol = 1e-10", "[solvr]\nnewton_tol = 1e-3", "unknown section [solvr]"),
    ], ids=["warp_speed", "fd_jacobian", "max_newton", "try_direct", "domain-raduis",
            "problem-newton_tol", "section-solvr"])
    def test_unknown_solver_key(self, tmp_path, capsys, after, line, message):
        cfg = write(tmp_path, "bad.cfg", CAP_CONFIG.replace(after, after + "\n" + line))
        with pytest.raises(InputError):
            parse_config(cfg)
        assert main(["check", cfg]) == 1
        assert message in capsys.readouterr().err

    # edits of the config, or of the chart file that `[geometry] file` names
    @pytest.mark.parametrize("where, old, new, key", [
        ("config", "newton_tol = 1e-10", "newton_tol = abc", "[solver] newton_tol"),
        ("config", "newton_tol = 1e-10", "newton_tol = 0", "[solver] newton_tol"),
        ("config", "newton_tol = 1e-10", "newton_tol = -1e-10", "[solver] newton_tol"),
        ("config", "newton_tol = 1e-10", "newton_tol = nan", "[solver] newton_tol"),
        ("config", "newton_tol = 1e-10", "newton_tol = inf", "[solver] newton_tol"),
        ("config", "radius = 0.5", "radius = half", "[domain] radius"),
        ("config", "radius = 0.5", "radius = nan", "[domain] radius"),
        ("config", "radius = 0.5", "radius = inf", "[domain] radius"),
        ("config", "center = 0.0 0.0", "center = 0.0 zero", "[domain] center"),
        ("config", "center = 0.0 0.0", "center = 0.0 inf", "[domain] center"),
        ("config", "h = 0.03125", "h = 1/32", "[domain] h"),
        ("config", "builtin = euclidean", "builtin = warped\nf = 1\nric_lower = low",
         "[geometry]"),
        ("chart", "grid = 2 2 -1 -1 2 2", "grid = 2 2 0 0 one 1", "chart.geom:2: grid"),
        ("chart", "ric_lower = 0", "ric_lower = low", "chart.geom:3: ric_lower"),
        ("chart", "[f]\n1, 1", "[f]\n1, x", "chart.geom:14: [f]"),
    ], ids=["tol-abc", "tol-zero", "tol-negative", "tol-nan", "tol-inf", "radius-half",
            "radius-nan", "radius-inf", "center-zero", "center-inf", "h-fraction",
            "ric_lower-low", "chart-grid", "chart-ric_lower", "chart-table-row"])
    def test_malformed_number_is_input_error(self, tmp_path, capsys, where, old, new, key):
        if where == "chart":
            assert old in CHART_FILE
            chart = write(tmp_path, "chart.geom", CHART_FILE.replace(old, new))
            cfg = write(tmp_path, "bad.cfg",
                        CAP_CONFIG.replace("builtin = euclidean", f"file = {chart}"))
        else:
            cfg = write(tmp_path, "bad.cfg", CAP_CONFIG.replace(old, new))
        assert main(["check", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and key in err
        assert "Traceback" not in err
