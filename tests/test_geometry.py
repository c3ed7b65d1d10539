"""Chart construction and derived pointwise geometry."""

import dataclasses

import numpy as np
import pytest
import sympy

import kgraph as kg
from kgraph.errors import InputError, NonPositiveDefinite


def const_metric_chart(mat, name="const"):
    mat = np.asarray(mat, dtype=float)

    def metric(P):
        P = np.asarray(P)
        out = np.empty(P.shape[:-1] + (2, 2))
        out[...] = mat
        return out

    return kg.SubmersionChart(
        name=name, metric=metric,
        f=lambda P: np.ones(np.asarray(P).shape[:-1]),
        delta=lambda P: np.zeros(np.asarray(P).shape[:-1] + (2,)),
        ric_lower=0.0, flat_metric=bool(np.allclose(mat, np.eye(2))),
    )


def exp_metric_chart():
    def metric(P):
        P = np.asarray(P)
        out = np.zeros(P.shape[:-1] + (2, 2))
        out[..., 0, 0] = np.exp(2.0 * P[..., 0])
        out[..., 1, 1] = 1.0
        return out

    return kg.SubmersionChart(
        name="exp-x", metric=metric,
        f=lambda P: np.ones(np.asarray(P).shape[:-1]),
        delta=lambda P: np.zeros(np.asarray(P).shape[:-1] + (2,)),
        ric_lower=0.0,
    )


class TestInverseMetric:
    def test_euclidean_identity(self, euclid):
        inv = kg.inverse_metric_at(euclid, (0.3, -1.2))
        assert np.allclose(inv, np.eye(2), atol=1e-15)

    def test_diagonal(self):
        chart = const_metric_chart(np.diag([4.0, 1.0]))
        inv = kg.inverse_metric_at(chart, (0.0, 0.0))
        assert np.allclose(inv, np.diag([0.25, 1.0]), atol=1e-15)

    def test_full_matrix_vs_linalg(self):
        mat = np.array([[2.0, 1.0], [1.0, 1.0]])
        chart = const_metric_chart(mat)
        inv = kg.inverse_metric_at(chart, (0.0, 0.0))
        assert np.allclose(inv, np.array([[1.0, -1.0], [-1.0, 2.0]]), atol=1e-12)
        assert np.allclose(inv, np.linalg.inv(mat), atol=1e-12)

    def test_identity_contract(self, heis):
        pts = np.random.default_rng(1).normal(size=(40, 2))
        sig = heis.metric_at(pts)
        inv = kg.inverse_metric_at(heis, pts)
        prod = np.einsum("nij,njk->nik", sig, inv)
        assert np.abs(prod - np.eye(2)).max() < 1e-12

    def test_nonpositive_rejected(self):
        chart = const_metric_chart([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1, 3
        with pytest.raises(NonPositiveDefinite):
            kg.inverse_metric_at(chart, (0.0, 0.0))

    def test_nonpositive_names_the_point(self):
        chart = const_metric_chart([[1.0, 2.0], [2.0, 1.0]], name="indefinite")
        with pytest.raises(NonPositiveDefinite, match=r"^chart 'indefinite': metric eigenvalue "
                           r"-1\.000e\+00 <= 1e-12 at point \(0\.3, -1\.2\)$"):
            kg.inverse_metric_at(chart, (0.3, -1.2))
        # sigma = diag(x, 1) degenerates from x = 0 on: the first such point
        # in row-major order of a (2, 2) batch is named
        chart = kg.SubmersionChart(
            name="diag-x", metric=lambda P: np.asarray(P)[..., :, None] * [[1, 0], [0, 0]]
            + [[0, 0], [0, 1]], f=lambda P: np.ones(np.shape(P)[:-1]),
            delta=lambda P: np.zeros(np.shape(P)), ric_lower=0.0)
        pts = [[(0.25, 0.0), (-0.5, 0.125)], [(-1.0, 1.0), (2.0, 0.0)]]
        with pytest.raises(NonPositiveDefinite, match=r"-5\.000e-01 .* at point \(-0\.5, 0\.125\)$"):
            kg.geometry.metric_fields(chart, pts)
        # the grid names its first inside node, in row-major order, with x <= 0
        with pytest.raises(NonPositiveDefinite, match=r"at point \(-0\.25, -0\.375\)$"):
            kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 8, chart)

    def test_flat_chart_constants(self, euclid):
        pts = np.zeros((3, 5, 2))
        sig, inv, root = kg.geometry.metric_fields(euclid, pts)
        assert sig.shape == inv.shape == (3, 5, 2, 2) and root.shape == (3, 5)
        assert np.array_equal(sig, np.broadcast_to(np.eye(2), sig.shape))
        assert np.array_equal(inv, sig) and np.all(np.signbit(inv[..., 0, 1]))
        assert np.all(root == 1.0)
        assert not (sig.flags.writeable or inv.flags.writeable or root.flags.writeable)
        # metric_at answers I too, without calling the chart's metric
        never = dataclasses.replace(euclid, metric=lambda P: 1 / 0)
        assert np.array_equal(never.metric_at(pts), sig) and not never.metric_at(pts).flags.writeable


class TestChristoffels:
    def test_euclidean_zero(self, euclid):
        gam = kg.christoffels_at(euclid, (0.7, 0.1), 1e-3)
        assert np.abs(gam).max() == 0.0

    def test_exponential_metric(self):
        # sigma = diag(e^{2x}, 1): only Gamma^1_11 = 1 survives
        chart = exp_metric_chart()
        gam = kg.christoffels_at(chart, (0.2, -0.4), 1e-4)
        expect = np.zeros((2, 2, 2))
        expect[0, 0, 0] = 1.0
        assert np.abs(gam - expect).max() < 1e-6

    def test_symmetry_exact(self, heis):
        def metric(P):
            P = np.asarray(P)
            out = np.empty(P.shape[:-1] + (2, 2))
            out[..., 0, 0] = 1.0 + 0.1 * np.sin(P[..., 0] + P[..., 1])
            out[..., 0, 1] = 0.05 * P[..., 0] * P[..., 1]
            out[..., 1, 0] = out[..., 0, 1]
            out[..., 1, 1] = 2.0 + 0.1 * np.cos(P[..., 0])
            return out

        chart = kg.SubmersionChart(
            name="bumpy", metric=metric, f=heis.f, delta=heis.delta, ric_lower=0.0)
        pts = np.random.default_rng(2).uniform(-1, 1, size=(25, 2))
        gam = kg.christoffels_at(chart, pts, 1e-3)
        assert np.abs(gam - np.swapaxes(gam, -1, -2)).max() == 0.0

    def test_second_order_convergence(self):
        chart = exp_metric_chart()
        x = (0.3, 0.0)
        exact = np.zeros((2, 2, 2))
        exact[0, 0, 0] = 1.0
        err = [np.abs(kg.christoffels_at(chart, x, hfd) - exact).max()
               for hfd in (2e-2, 1e-2)]
        assert 3.5 < err[0] / err[1] < 4.5


class TestKappaVector:
    def test_constant_f(self, heis):
        assert np.abs(kg.kappa_vector_at(heis, (0.4, 0.9), 1e-3)).max() == 0.0

    def test_exponential_warp(self):
        chart = kg.warped("exp(2*x)", ric_lower=-1.0)
        for pt in ((0.0, 0.0), (0.5, -0.3)):
            kap = kg.kappa_vector_at(chart, pt, 1e-4)
            assert np.allclose(kap, [1.0, 0.0], atol=1e-7)

    def test_polynomial_f(self):
        chart = kg.warped(lambda P: 1.0 + np.asarray(P)[..., 0] ** 2)
        kap = kg.kappa_vector_at(chart, (1.0, 0.0), 1e-5)
        assert np.allclose(kap, [0.5, 0.0], atol=1e-9)

    def test_second_order_convergence(self):
        chart = kg.warped(lambda P: 1.0 + np.asarray(P)[..., 0] ** 4)
        # exact at x=1: 4x^3/(2(1+x^4)) = 1
        err = [abs(kg.kappa_vector_at(chart, (1.0, 0.0), hfd)[0] - 1.0)
               for hfd in (2e-2, 1e-2)]
        assert 3.5 < err[0] / err[1] < 4.5


class TestGamma:
    def test_zero_tilt(self, euclid, warp):
        for chart in (euclid, warp):
            assert np.abs(kg.gamma_at(chart, (0.2, 0.6), 1e-3)).max() == 0.0

    def test_heisenberg_value(self, heis):
        gam = kg.gamma_at(heis, (0.37, -2.4), 1e-3)
        assert abs(gam[0, 1] - 1.0) < 1e-8
        assert abs(gam[1, 0] + 1.0) < 1e-8

    def test_heisenberg_symbolic_oracle(self, heis):
        # independent check by symbolic differentiation of f^{1/2} delta
        x, y = sympy.symbols("x y", real=True)
        g1, g2 = y / 2, -x / 2
        gamma12 = sympy.diff(g1, y) - sympy.diff(g2, x)
        assert float(gamma12) == 1.0

    def test_antisymmetry_exact(self):
        def delta(P):
            P = np.asarray(P)
            out = np.empty(P.shape[:-1] + (2,))
            out[..., 0] = np.sin(P[..., 1]) + P[..., 0] ** 2
            out[..., 1] = P[..., 0] * P[..., 1]
            return out

        chart = kg.SubmersionChart(
            name="twisted", metric=kg.euclidean().metric,
            f=lambda P: 1.0 + 0.2 * np.asarray(P)[..., 0] ** 2,
            delta=delta, ric_lower=0.0)
        pts = np.random.default_rng(3).uniform(-2, 2, size=(50, 2))
        gam = kg.gamma_at(chart, pts, 1e-3)
        assert np.abs(gam + np.swapaxes(gam, -1, -2)).max() == 0.0
        assert np.abs(gam[..., 0, 0]).max() == 0.0


class TestSectionGradient:
    def test_euclidean_zero(self, euclid):
        assert np.abs(kg.section_gradient_s_at(euclid, (5.0, -3.0))).max() == 0.0

    def test_heisenberg_point(self, heis):
        ds = kg.section_gradient_s_at(heis, (1.0, 2.0))
        assert np.allclose(ds, [-1.0, 0.5], atol=1e-15)

    def test_constant_data(self):
        chart = kg.SubmersionChart(
            name="c", metric=kg.euclidean().metric,
            f=lambda P: 4.0 * np.ones(np.asarray(P).shape[:-1]),
            delta=lambda P: np.broadcast_to(
                np.array([1.0, 0.0]), np.asarray(P).shape[:-1] + (2,)).copy(),
            ric_lower=0.0)
        assert np.allclose(kg.section_gradient_s_at(chart, (0.0, 0.0)),
                           [-2.0, 0.0], atol=1e-15)


class TestValidation:
    def test_degenerate_f_names_node(self):
        chart = kg.warped(lambda P: np.asarray(P)[..., 0], name="bad")  # f <= 0 at x <= 0
        with pytest.raises(NonPositiveDefinite) as err:
            kg.geometry.validate_chart_at(chart, [(0.25, 0.0), (-0.5, 0.125)])
        assert "-0.5" in str(err.value)

    def test_builtin_registry(self):
        assert set(kg.geometry.BUILTIN_GEOMETRIES) == {"euclidean", "heisenberg", "warped"}
        with pytest.raises(InputError):
            kg.geometry.make_builtin("nonsense")
        with pytest.raises(InputError, match="unknown geometry 'hopf'"):
            kg.geometry.make_builtin("hopf")
        with pytest.raises(InputError):
            kg.geometry.make_builtin("warped")  # missing f


GEOM_FILE = """\
name = table-demo
grid = 3 3 0.0 0.0 0.5 0.5
ric_lower = -0.25
[sigma11]
1.0, 1.0, 1.0
1.0, 1.0, 1.0
1.0, 1.0, 1.0
[sigma12]
0.0, 0.0, 0.0
0.0, 0.0, 0.0
0.0, 0.0, 0.0
[sigma22]
1.0, 1.0, 1.0
1.0, 1.0, 1.0
1.0, 1.0, 1.0
[f]
1.0, 1.0, 1.0
2.0, 2.0, 2.0
3.0, 3.0, 3.0
[delta1]
0.0, 0.1, 0.2
0.0, 0.1, 0.2
0.0, 0.1, 0.2
[delta2]
0.0, 0.0, 0.0
0.0, 0.0, 0.0
0.0, 0.0, 0.0
"""


class TestChartFile:
    def test_round_trip_and_interpolation(self, tmp_path):
        path = tmp_path / "demo.geom"
        path.write_text(GEOM_FILE)
        chart = kg.chart_from_file(path)
        assert chart.name == "table-demo"
        assert chart.ric_lower == -0.25
        assert chart.flat_metric
        # exact at table nodes
        assert chart.f_at((0.0, 0.5)) == 2.0
        assert chart.delta_at((1.0, 0.0))[0] == pytest.approx(0.2)
        # bilinear between nodes: f varies in y, delta1 in x
        assert chart.f_at((0.25, 0.25)) == pytest.approx(1.5)
        assert chart.delta_at((0.25, 0.75))[0] == pytest.approx(0.05)

    def test_near_identity_table_is_not_flat(self, tmp_path):
        # flat means every sigma entry within 1e-14 of I, with no relative slack
        path = tmp_path / "near.geom"
        for entry, flat in (("1.0", True), ("1.000000000000005", True),
                            ("1.000001", False), ("1.000005", False)):
            path.write_text(GEOM_FILE.replace("[sigma11]\n1.0,", f"[sigma11]\n{entry},", 1))
            assert kg.chart_from_file(path).flat_metric is flat, entry

    @pytest.mark.parametrize("line", ["3 3 0.0 0.0 0 0.5", "3 3 0.0 0.0 -1 0.5",
                                      "3 3 0.0 0.0 0.5 nan", "3 3 inf 0.0 0.5 0.5"],
                             ids=["hx-zero", "hx-negative", "hy-nan", "x0-inf"])
    def test_bad_grid_line_rejected(self, tmp_path, line):
        # a zero or negative spacing would divide by zero or mirror the table
        path = tmp_path / "bad.geom"
        path.write_text(GEOM_FILE.replace("grid = 3 3 0.0 0.0 0.5 0.5", f"grid = {line}"))
        with pytest.raises(InputError, match=r"bad\.geom:2: grid: (hx|hy|x0 y0) must be"):
            kg.chart_from_file(path)

    def test_missing_table_rejected(self, tmp_path):
        path = tmp_path / "broken.geom"
        path.write_text("name = x\ngrid = 2 2 0 0 1 1\n[sigma11]\n1,1\n1,1\n")
        with pytest.raises(InputError):
            kg.chart_from_file(path)

    def test_two_loads_of_one_file_match_one_grid(self, tmp_path):
        # the loaded callables compare on the file's tables and grid line,
        # so a spec and a grid made from two loads are one problem
        path = tmp_path / "demo.geom"
        path.write_text(GEOM_FILE)
        first, second = kg.chart_from_file(path), kg.chart_from_file(path)
        assert first == second and hash(first) == hash(second)
        grid = kg.build_grid(kg.Disk((0.5, 0.5), 0.3), 1.0 / 16, first)
        spec = kg.ProblemSpec(chart=second, domain=grid.domain, H=0.0, phi=0.0)
        u = np.zeros(grid.num_inside)
        assert np.array_equal(kg.residual(spec, grid, u),
                              kg.residual(dataclasses.replace(spec, chart=first), grid, u))
        # a different table or grid line is a different chart
        for old, new in (("2.0, 2.0, 2.0", "2.0, 2.5, 2.0"),
                         ("grid = 3 3 0.0 0.0 0.5 0.5", "grid = 3 3 0.0 0.0 0.5 0.6")):
            other = tmp_path / "other.geom"
            other.write_text(GEOM_FILE.replace(old, new, 1))
            assert kg.chart_from_file(other) != first
            with pytest.raises(InputError, match="does not match its grid"):
                kg.residual(dataclasses.replace(spec, chart=kg.chart_from_file(other)), grid, u)
