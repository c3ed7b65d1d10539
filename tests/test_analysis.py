"""Cylinder geometry, Riccati curves, barriers, flux, angle function."""

import dataclasses
import gc
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

import kgraph as kg
import kgraph.analysis as kan
from kgraph.errors import CertificateFailed, MinPrincipleViolated, TubularWidthExceeded
from conftest import cap_trace, curved_exp_H, curved_exp_u, saddle
from oracles import ellipticity_einsum, riccati_per_stage
from test_equivalence import _chart, _curved_exp, _sheared

DATA = Path(__file__).resolve().parent / "data"

CAP = cap_trace()


class TestBoundaryGeometry:
    def test_disk_cylinder_curvature(self, euclid):
        for rho in (0.25, 0.5, 1.0):
            bg = kg.boundary_geometry(euclid, kg.Disk((0.0, 0.0), rho), samples=64)
            assert np.abs(bg.H_cyl - 1.0 / (2 * rho)).max() < 1e-6
            assert np.abs(bg.kappa).max() == 0.0
            assert np.abs(bg.H_gamma - 1.0 / rho).max() < 1e-6

    def test_perimeter_weights(self, euclid):
        bg = kg.boundary_geometry(euclid, kg.Disk((0.0, 0.0), 0.5), samples=128)
        assert bg.perimeter == pytest.approx(np.pi, rel=1e-7)
        bg2 = kg.boundary_geometry(euclid, kg.Rectangle(0, 0, 2, 1), samples=96)
        assert bg2.perimeter == pytest.approx(6.0, rel=1e-9)

    def test_warped_edge_kappa(self):
        # f = e^{2x} on a rectangle: along the x = 0 edge the inward
        # normal is +x, kappa = 1, H_Gamma = 0, so H_cyl = 1/2
        chart = kg.warped("exp(2*x)", ric_lower=-1.0)
        bg = kg.boundary_geometry(chart, kg.Rectangle(0, 0, 1, 1), samples=128)
        left = np.abs(bg.points[:, 0]) < 1e-9
        assert np.any(left)
        assert np.allclose(bg.eta[left], [1.0, 0.0], atol=1e-12)
        assert np.abs(bg.H_cyl[left] - 0.5).max() < 1e-6
        assert np.abs(bg.H_gamma[left]).max() < 1e-6

    def test_minimum_sample_count(self, euclid):
        with pytest.raises(ValueError):
            kg.boundary_geometry(euclid, kg.Disk((0.0, 0.0), 1.0), samples=8)


class TestHypothesis:
    def test_pass_and_slack(self, euclid):
        dom = kg.Disk((0.0, 0.0), 0.5)
        bg = kg.boundary_geometry(euclid, dom, samples=64)
        spec = kg.ProblemSpec(chart=euclid, domain=dom, H=0.5, phi=0.0)
        v = kg.hypothesis_check(spec, bg)
        assert v.passed and v.h_ok and v.cyl_positive and v.ric_ok
        assert v.slack_H == pytest.approx(0.5, abs=1e-6)

    def test_fail_with_negative_slack(self, euclid):
        dom = kg.Disk((0.0, 0.0), 0.5)
        bg = kg.boundary_geometry(euclid, dom, samples=64)
        spec = kg.ProblemSpec(chart=euclid, domain=dom, H=1.5, phi=0.0)
        v = kg.hypothesis_check(spec, bg)
        assert not v.passed and not v.h_ok
        assert v.slack_H == pytest.approx(-0.5, abs=1e-6)

    def test_zero_H_always_passes(self, euclid, heis, warp):
        for chart, dom in ((euclid, kg.Disk((0.0, 0.0), 0.5)),
                           (heis, kg.Disk((0.0, 0.0), 1.0)),
                           (warp, kg.Disk((0.0, 0.0), 0.5))):
            bg = kg.boundary_geometry(chart, dom, samples=64)
            spec = kg.ProblemSpec(chart=chart, domain=dom, H=0.0, phi=0.0)
            assert kg.hypothesis_check(spec, bg).h_ok

    def test_heisenberg_ricci_threshold(self, heis):
        # ric_lower = -1/2 meets -n inf H_cyl^2 = -1/2 exactly on the unit disk
        dom = kg.Disk((0.0, 0.0), 1.0)
        bg = kg.boundary_geometry(heis, dom, samples=64)
        spec = kg.ProblemSpec(chart=heis, domain=dom, H=0.0, phi=0.0)
        v = kg.hypothesis_check(spec, bg)
        assert v.ric_ok
        assert abs(v.slack_ric) < 1e-6


class TestRiccati:
    def test_disk_matches_shrinking_circles(self, euclid):
        rho = 0.5
        curve = kg.riccati_evolution(euclid, kg.Disk((0.0, 0.0), rho),
                                     eps_max=0.3 * rho, deps=0.3 * rho / 16,
                                     samples=64)
        exact = 1.0 / (2.0 * (rho - curve.eps))
        assert np.abs(curve.H_direct - exact[None, :]).max() < 1e-6

    def test_zero_depth_reproduces_boundary_geometry(self, euclid):
        rho = 0.5
        curve = kg.riccati_evolution(euclid, kg.Disk((0.0, 0.0), rho),
                                     eps_max=0.1, deps=0.05, samples=64)
        bg = kg.boundary_geometry(euclid, kg.Disk((0.0, 0.0), rho), samples=64)
        assert np.array_equal(curve.H_direct[:, 0], bg.H_cyl)

    def test_monotone_and_envelope(self, euclid):
        curve = kg.riccati_evolution(euclid, kg.Disk((0.0, 0.0), 0.5),
                                     eps_max=0.15, deps=0.15 / 16, samples=64)
        assert curve.monotone()
        assert np.all(curve.H_direct >= curve.H_envelope - 1e-9)

    def test_tubular_width_guard(self, euclid):
        with pytest.raises(TubularWidthExceeded):
            kg.riccati_evolution(euclid, kg.Disk((0.0, 0.0), 0.5),
                                 eps_max=0.499, deps=0.499 / 64, samples=32)

    def test_envelope_blow_up_guard(self):
        # dH/deps = H^2 + 100 from H = 1/2 reaches infinity near eps = 0.15
        chart = kg.warped("1", ric_lower=200.0)
        with pytest.raises(TubularWidthExceeded,
                           match=r"^Riccati envelope blows up before eps = 0\.25$"):
            kg.riccati_evolution(chart, kg.Disk((0.0, 0.0), 1.0), 0.5, 0.5 / 16)


    @pytest.mark.parametrize("eps_max, deps", [(np.nan, 0.01), (0.15, np.nan),
                                               (np.inf, 0.01), (0.15, np.inf)])
    def test_non_finite_depths_are_value_errors(self, euclid, eps_max, deps):
        with pytest.raises(ValueError, match=r"^eps_max and deps must be positive and finite$"):
            kg.riccati_evolution(euclid, kg.Disk((0.0, 0.0), 0.5), eps_max, deps)

    def test_overflowing_step_count_is_a_value_error(self, euclid):
        # both depths are finite, but their ratio, the step count, is not
        with pytest.raises(ValueError, match=r"^eps_max / deps must be finite$"):
            kg.riccati_evolution(euclid, kg.Disk((0.0, 0.0), 0.5), 1e200, 1e-200)


def _table_chart(tmp_path):
    """A `chart_from_file` chart with a varying, sheared sigma on a 7 x 7
    table over [-0.6, 0.6]^2."""
    x, y = np.meshgrid(np.linspace(-0.6, 0.6, 7), np.linspace(-0.6, 0.6, 7))
    tables = {"sigma11": 1.0 + 0.4 * x + 0.2 * y * y, "sigma12": 0.1 * x * y,
              "sigma22": 1.2 - 0.3 * y, "f": 1.0 + 0.25 * x * x,
              "delta1": 0.5 * y, "delta2": -0.5 * x}
    lines = ["name = table-sheared", "grid = 7 7 -0.6 -0.6 0.2 0.2"]
    for key, tab in tables.items():
        lines += [f"[{key}]"] + [", ".join(repr(float(v)) for v in row) for row in tab]
    path = tmp_path / "sheared.geom"
    path.write_text("\n".join(lines) + "\n")
    return kg.chart_from_file(path)


def _aniso41():
    def metric(P):
        out = np.zeros(np.shape(P)[:-1] + (2, 2))
        out[..., 0, 0] = 4.0
        out[..., 1, 1] = 1.0
        return out

    return kg.SubmersionChart(name="aniso41", metric=metric, f=lambda P: np.ones(np.shape(P)[:-1]),
                              delta=lambda P: np.zeros(np.shape(P)[:-1] + (2,)))


RICCATI_CASES = {   # chart, domain, eps_max; deps = eps_max / 16
    "curved-exp": (lambda r, t: r.getfixturevalue("curved"), kg.Disk((0.0, 0.0), 0.5), 0.15),
    "heisenberg": (lambda r, t: kg.heisenberg(), kg.Disk((0.0, 0.0), 1.0), 0.3),
    "warped": (lambda r, t: r.getfixturevalue("warp"), kg.Disk((0.0, 0.0), 0.5), 0.15),
    "table": (lambda r, t: _table_chart(t), kg.Disk((0.02, -0.01), 0.45), 0.12),
    "aniso41-rect": (lambda r, t: _aniso41(), kg.Rectangle(-0.3, -0.2, 0.4, 0.3), 0.06),
}


class TestRiccatiOracle:
    """`riccati_evolution` steps the geodesics with one metric evaluation
    per stage and takes every depth's curvature at once; the per-stage
    flow in `oracles.riccati_per_stage` is its reference."""

    @pytest.mark.parametrize("case", sorted(RICCATI_CASES))
    def test_matches_per_stage_flow(self, request, tmp_path, case):
        make, domain, eps_max = RICCATI_CASES[case]
        chart = make(request, tmp_path)
        got = kg.riccati_evolution(chart, domain, eps_max, eps_max / 16)
        ref = riccati_per_stage(chart, domain, eps_max, eps_max / 16)
        assert np.array_equal(got.eps, ref.eps)
        assert np.array_equal(got.H_envelope, ref.H_envelope)
        assert got.H_direct.shape == ref.H_direct.shape
        assert np.abs(got.H_direct - ref.H_direct).max() <= 1e-7
        assert got.monotone() == ref.monotone()
        assert (np.all(got.H_direct >= got.H_envelope - 1e-6)
                == np.all(ref.H_direct >= ref.H_envelope - 1e-6))

    @pytest.mark.parametrize("ric_lower, eps_max, message", [
        (0.0, 0.49, "normal geodesics focus before eps = 0.3063"),
        (60.0, 0.4, "Riccati envelope blows up before eps = 0.2625"),
    ])
    def test_stops_where_the_per_stage_flow_stops(self, curved, ric_lower, eps_max, message):
        chart = dataclasses.replace(curved, ric_lower=ric_lower)
        args = (chart, kg.Disk((0.0, 0.0), 0.5), eps_max, eps_max / 32)
        for riccati in (riccati_per_stage, kg.riccati_evolution):
            with pytest.raises(TubularWidthExceeded) as err:
                riccati(*args, samples=32)
            assert str(err.value) == message


class TestHeightBarrier:
    def test_barrier_shape(self):
        # h(0) = 0 and h'(0) = e^{CA} for any C, A
        for C in (0.5, 1.0, 8.0):
            for A in (1.1, 2.0):
                assert kg.height_barrier(C, A, 0.0) == 0.0
                d = 1e-7
                slope = kg.height_barrier(C, A, d) / d
                assert slope == pytest.approx(np.exp(C * A), rel=1e-5)

    def test_flat_solution_any_constant(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=0.0, phi=0.0)
        cert = kg.height_barrier_certificate(spec, grid, np.zeros(grid.num_inside))
        assert cert.C == 1.0      # smallest rung passes
        assert np.min(cert.margin) >= 0.0
        assert cert.crude_ok

    def test_cap_certificate_and_depth(self, cap_64):
        case = cap_64
        cert = kg.height_barrier_certificate(case.spec, case.grid, case.u)
        assert np.min(cert.margin) >= -1e-12
        assert cert.crude_ok
        # the barrier sup at the smallest ladder constant dominates the
        # true interior variation below the boundary data
        phi_vals = case.spec.phi_links(case.grid)
        depth = np.abs(case.u - phi_vals.max()).max()
        smallest_sup = np.max(kg.height_barrier(1.0, cert.A, case.grid.dist))
        assert smallest_sup >= depth

    def test_failure_carries_witness(self, euclid):
        # small-C rungs top out near sup h = diam, which cannot enclose a
        # unit spike over zero boundary data
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=0.0, phi=0.0)
        u = np.zeros(grid.num_inside)
        k = int(np.argmax(grid.dist))
        u[k] = 1.0
        with pytest.raises(CertificateFailed) as err:
            kg.height_barrier_certificate(spec, grid, u, ladder=[1e-3, 1e-2])
        assert err.value.node == k


class TestGradientBarrier:
    def test_psi_shape(self):
        p = kg.BarrierParams(K=np.e - 1.0, C=1.0, eps=0.1)
        assert p.psi(0.0) == 0.0
        assert p.mu == pytest.approx(1.0)
        assert p.psi_prime0() == pytest.approx(np.e - 1.0)

    def test_cap_certificate(self, cap_64):
        case = cap_64
        cert = kg.boundary_gradient_certificate(case.spec, case.grid, case.u)
        assert np.min(cert.margin) >= -1e-9
        assert abs(cert.sup_grad_boundary - 1.0 / np.sqrt(3.0)) <= 2e-2
        assert cert.bound > cert.sup_grad_boundary

    def test_extension_condition_flags(self, cap_64, heis_saddle_32):
        # delta . eta = 0 on both charts, so the strict extension
        # condition fails and the linear tilt fallback engages
        cert = kg.boundary_gradient_certificate(
            cap_64.spec, cap_64.grid, cap_64.u)
        assert not cert.condition_ok
        assert cert.extension == "linear_tilt"
        case = heis_saddle_32
        cert2 = kg.boundary_gradient_certificate(case.spec, case.grid, case.u)
        assert cert2.extension == "linear_tilt"
        assert np.min(cert2.margin) >= -1e-9

    def test_constant_extension_on_a_gauge_chart(self):
        # delta = (x, y) is the gradient of r^2 / 2, so u = 0.125 - r^2 / 2
        # has hat_u = 0 and solves H = 0 with zero data; -delta . eta = r
        # on the circle, so the strict extension condition holds
        chart = kg.SubmersionChart(
            name="gauge", metric=lambda P: np.broadcast_to(np.eye(2), np.shape(P)[:-1] + (2, 2)),
            f=lambda P: np.ones(np.shape(P)[:-1]), delta=lambda P: np.asarray(P, dtype=float),
            flat_metric=True)
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, chart)
        spec = kg.ProblemSpec(chart=chart, domain=grid.domain, H=0.0, phi=0.0)
        u, report = kg.solve_dirichlet(spec, grid)
        assert report.converged
        assert np.abs(u - (0.125 - 0.5 * np.sum(grid.points ** 2, axis=1))).max() <= 1e-12
        cert = kg.boundary_gradient_certificate(spec, grid, u)
        assert cert.extension == "constant"
        assert cert.condition_ok is True
        rep = kg.verify(spec, grid, u)
        assert rep.items["gradient_barrier"]["extension"] == "constant"
        assert all(item["passed"] for item in rep.items.values())

    def test_explicit_params(self, cap_64):
        p = kg.BarrierParams(K=4.0, C=4.0, eps=0.12)
        cert = kg.boundary_gradient_certificate(cap_64.spec, cap_64.grid,
                                                cap_64.u, params=p)
        assert cert.params is p
        assert np.min(cert.margin) >= -1e-9

    def test_weak_params_fail_with_witness(self, cap_64):
        # psi too shallow to dominate the cap's boundary layer
        p = kg.BarrierParams(K=1.0, C=1e-4, eps=0.12)
        with pytest.raises(CertificateFailed) as err:
            kg.boundary_gradient_certificate(cap_64.spec, cap_64.grid,
                                             cap_64.u, params=p)
        assert err.value.node is not None


def scherk(P):
    """Scherk's minimal graph log(cos y / cos x): H = 0 on the euclidean chart."""
    P = np.asarray(P, dtype=float)
    return np.log(np.cos(P[..., 1]) / np.cos(P[..., 0]))


class TestNodesOnTheBoundary:
    """At h = 1/96 these grids have nodes within 1e-12 h of the boundary,
    where psi(d) is about 0: the barrier holds there only if phi_ext is
    phi at the node's own foot, as phi varies along the boundary."""

    @staticmethod
    def _solved(chart, domain, phi):
        h = 1.0 / 96
        grid = kg.build_grid(domain, h, chart)
        assert np.min(grid.dist) < 1e-12 * h
        spec = kg.ProblemSpec(chart=chart, domain=domain, H=0.0, phi=phi)
        u, report = kg.solve_dirichlet(spec, grid)
        assert report.converged
        return spec, grid, u

    def test_scherk_on_a_disk_verifies(self, euclid):
        rep = kg.verify(*self._solved(euclid, kg.Disk((0.0, 0.0), 0.5), scherk))
        assert all(item["passed"] for item in rep.items.values())
        assert rep.passed

    @pytest.mark.parametrize("domain", [kg.Disk((0.013, -0.021), 0.5),
                                        kg.Rectangle(-0.3, -0.2, 0.4, 0.3)])
    def test_scherk_gradient_barrier(self, euclid, domain):
        # verify skips the rectangle's barriers: flat sides fail the
        # hypothesis check, H_cyl = 0 there
        cert = kg.boundary_gradient_certificate(*self._solved(euclid, domain, scherk))
        assert np.min(cert.margin) >= -1e-9
        assert cert.bound >= cert.sup_grad_boundary

    def test_heisenberg_saddle_gradient_barrier(self, heis):
        cert = kg.boundary_gradient_certificate(*self._solved(heis, kg.Disk((0.0, 0.0), 1.0),
                                                              saddle))
        assert cert.extension == "linear_tilt"
        assert np.min(cert.margin) >= -1e-9


class TestFlux:
    def test_flat_graph_exact_zero(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=0.0, phi=0.0)
        res = kg.flux_balance(spec, grid, np.zeros(grid.num_inside))
        assert res.boundary == pytest.approx(0.0, abs=1e-13)
        assert res.bulk == 0.0

    def test_minimal_runs_near_zero(self, heis_min_32, heis_saddle_32):
        for case in (heis_min_32, heis_saddle_32):
            res = kg.flux_balance(case.spec, case.grid, case.u)
            assert abs(res.boundary) <= 1e-2
            assert res.bulk == pytest.approx(0.0, abs=1e-12)

    def test_cap_balance(self, cap_128):
        res = kg.flux_balance(cap_128.spec, cap_128.grid, cap_128.u)
        # closed form: both sides equal pi/2 for rho=0.5, R=1
        assert res.bulk == pytest.approx(np.pi / 2, abs=2e-3)
        assert res.boundary == pytest.approx(np.pi / 2, abs=5e-3)
        assert abs(res.imbalance) <= 1e-2 * (abs(res.boundary) + abs(res.bulk) + 1.0)

    def test_imbalance_shrinks_with_h(self, cap_64, cap_128):
        r64 = kg.flux_balance(cap_64.spec, cap_64.grid, cap_64.u)
        r128 = kg.flux_balance(cap_128.spec, cap_128.grid, cap_128.u)
        assert abs(r128.imbalance) < abs(r64.imbalance)


class TestTheta:
    def test_flat_graph_unity(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=0.0, phi=0.0)
        rep = kg.theta_field(spec, grid, np.zeros(grid.num_inside))
        assert np.abs(rep.theta - 1.0).max() < 1e-12
        assert rep.passed

    def test_cap_profile(self, cap_64):
        case = cap_64
        rep = kg.theta_field(case.spec, case.grid, case.u)
        r2 = np.sum(case.grid.points ** 2, axis=1)
        exact = np.sqrt(1.0 - r2)
        assert np.abs(rep.theta - exact).max() < 1e-3
        assert rep.passed
        # minimum on the boundary ring
        assert case.grid.dist[rep.min_node] <= 1.5 * case.grid.h

    def test_heisenberg_profile(self, heis_min_32):
        case = heis_min_32
        rep = kg.theta_field(case.spec, case.grid, case.u)
        r2 = np.sum(case.grid.points ** 2, axis=1)
        exact = 1.0 / np.sqrt(1.0 + r2 / 4.0)
        assert np.abs(rep.theta - exact).max() < 1e-3
        assert rep.passed
        assert rep.normalization_gap == 0.0   # f = 1: both normalizations agree

    def test_violation_detected(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=0.0, phi=0.0)
        # a steep interior bump drives W up (theta down) away from the boundary
        d = grid.dist
        u = 5.0 * np.maximum(0.0, d - 0.2) ** 2
        with pytest.raises(MinPrincipleViolated):
            kg.theta_field(spec, grid, u)
        rep = kg.theta_field(spec, grid, u, require_pass=False)
        assert not rep.passed

    def test_requires_constant_H(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain,
                              H=lambda P: np.asarray(P)[..., 0], phi=0.0)
        with pytest.raises(ValueError):
            kg.theta_field(spec, grid, np.zeros(grid.num_inside))


class TestVerify:
    def test_cap_all_items_pass(self, cap_64):
        rep = kg.verify(cap_64.spec, cap_64.grid, cap_64.u)
        assert rep.passed
        for name in ("residual", "ellipticity", "hypothesis", "height_barrier",
                     "gradient_barrier", "riccati", "flux", "theta"):
            assert name in rep.items

    def test_ellipticity_can_fail(self, cap_64, monkeypatch):
        # f |xi|^2 <= A xi xi fails once W is shrunk below its value at u
        spec, grid, u = cap_64.spec, cap_64.grid, cap_64.u
        assert kg.verify(spec, grid, u).items["ellipticity"]["passed"] is True
        op = grid.operator
        state = op.state

        def shrunk(*args):
            *gradient, W = state(*args)
            return (*gradient, 0.9 * W)

        monkeypatch.setattr(op, "state", shrunk)
        assert kg.verify(spec, grid, u).items["ellipticity"]["passed"] is False

    @pytest.mark.parametrize("case", ["cap_64", "heis_saddle_32", "sheared"])
    def test_ellipticity_matches_einsum_oracle(self, request, monkeypatch, case):
        # the same verdict as the per-node einsum, passing on a solved
        # field in two sets of directions, and failing once W is scaled
        # below sqrt(f) at every node
        spec, grid, u = _ellipticity_case(request, case)
        op = grid.operator
        phi_vals = spec.phi_links(grid)
        for seed in (7, 101):
            assert kg.verify(spec, grid, u, rng_seed=seed).items["ellipticity"]["passed"] is True
            assert ellipticity_einsum(op, op.state(u, phi_vals), seed) is True
        state = op.state

        def below(*args):
            *gradient, W = state(*args)
            return (*gradient, 0.9 * W * np.min(np.sqrt(op.node_f) / W))

        monkeypatch.setattr(op, "state", below)
        assert kg.verify(spec, grid, u).items["ellipticity"]["passed"] is False
        assert ellipticity_einsum(op, op.state(u, phi_vals), 7) is False

    @pytest.mark.parametrize("seed", [-1, np.int64(-3), 1.5, 7.0, "abc", None, True, False])
    def test_rng_seed_not_an_integer_at_least_0_is_an_input_error(self, cap_64, seed):
        # None would draw fresh OS entropy: the ellipticity directions, and
        # so its verdict, would not be reproducible
        with pytest.raises(kg.InputError, match="^rng_seed must be an integer >= 0$"):
            kg.verify(cap_64.spec, cap_64.grid, cap_64.u, rng_seed=seed)

    def test_numpy_integer_seed_is_accepted(self, cap_64):
        args = (cap_64.spec, cap_64.grid, cap_64.u)
        assert (kg.verify(*args, rng_seed=np.int64(0)).to_json_dict()
                == kg.verify(*args, rng_seed=0).to_json_dict())

    def test_corrupted_field_fails_residual(self, cap_64):
        u = cap_64.u.copy()
        k = int(np.argmax(cap_64.grid.dist))
        u[k] += 0.5
        rep = kg.verify(cap_64.spec, cap_64.grid, u)
        assert not rep.items["residual"]["passed"]
        assert not rep.passed

    def test_json_round_trip(self, cap_64):
        payload = kg.verify(cap_64.spec, cap_64.grid, cap_64.u).to_json_dict()
        assert payload["schema"] == 1
        assert payload["passed"] is True

    def test_state_evaluated_once(self, cap_64, monkeypatch):
        # verify hands its one op.state to the flux and theta checks,
        # which give what they give when called on their own
        spec, grid, u = cap_64.spec, cap_64.grid, cap_64.u
        op = grid.operator
        calls = []
        state = op.state
        monkeypatch.setattr(op, "state", lambda *a: calls.append(a) or state(*a))
        items = kg.verify(spec, grid, u).items
        assert len(calls) == 1
        monkeypatch.undo()
        flux = kg.flux_balance(spec, grid, u)
        assert (items["flux"]["boundary"], items["flux"]["bulk"]) == (flux.boundary, flux.bulk)
        assert items["theta"]["min_value"] == kg.theta_field(spec, grid, u).min_value


def _ellipticity_case(request, case):
    """(spec, grid, u) of a solved fixture, or of H = 0 with the saddle's
    data on a sheared chart (sigma^12 != 0 at every node) at h = 1/32."""
    if case != "sheared":
        solved = request.getfixturevalue(case)
        return solved.spec, solved.grid, solved.u
    chart, domain = _chart("sheared", _sheared), kg.Disk((0.03, -0.02), 0.45)
    grid = kg.build_grid(domain, 1.0 / 32, chart)
    assert np.all(grid.operator.node_siginv[:, 0, 1] != 0)
    spec = kg.ProblemSpec(chart=chart, domain=domain, H=0.0, phi=saddle)
    return spec, grid, kg.solve_dirichlet(spec, grid)[0]


@pytest.fixture(scope="module")
def cap_16(euclid):
    grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 16, euclid)
    spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=1.0, phi=CAP)
    return spec, grid, kg.solve_dirichlet(spec, grid)[0]


class TestVerifyRecordsFailures:
    """A certificate that fails lands in its item with its reason, and
    a failed hypothesis check skips the three that assume it."""

    def test_failed_hypothesis_skips_barriers_and_riccati(self, euclid):
        # sup |H| = 5 above inf H_cyl = 1 on the r = 1/2 disk
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 16, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=5.0, phi=0.0)
        rep = kg.verify(spec, grid, np.zeros(grid.num_inside))
        assert rep.items["hypothesis"]["passed"] is False
        for name in ("height_barrier", "gradient_barrier", "riccati"):
            assert rep.items[name] == {"passed": False, "skipped": True,
                                       "reason": "hypothesis check failed"}

    def test_riccati_blow_up_fails_riccati(self):
        chart = kg.warped(1.0, ric_lower=1e4)
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 16, chart)
        spec = kg.ProblemSpec(chart=chart, domain=grid.domain, H=0.0, phi=0.0)
        rep = kg.verify(spec, grid, np.zeros(grid.num_inside))
        assert rep.items["hypothesis"]["passed"] is True
        assert rep.items["riccati"]["passed"] is False
        assert rep.items["riccati"]["reason"].startswith("Riccati envelope blows up before eps = ")
        assert not rep.passed

    def test_boundary_spike_fails_gradient_barrier(self, cap_16):
        spec, grid, u = cap_16
        u = u.copy()
        u[grid.link_node[0]] += 1e7     # a node with a boundary link
        rep = kg.verify(spec, grid, u)
        assert rep.items["gradient_barrier"] == {"passed": False,
                                                 "reason": "gradient barrier ladder exhausted"}
        assert not rep.passed

    def test_short_ladder_fails_height_barrier(self, cap_16, monkeypatch):
        # the full ladder encloses any field whose residual stays finite
        spec, grid, u = cap_16
        u = u.copy()
        u[int(np.argmax(grid.dist))] += 10.0
        assert kg.verify(spec, grid, u).items["height_barrier"]["passed"] is True
        monkeypatch.setattr(kan, "LADDER", [1.0])
        rep = kg.verify(spec, grid, u)
        assert rep.items["height_barrier"] == {"passed": False,
                                               "reason": "height barrier ladder exhausted"}
        assert not rep.passed


VERIFY_CASES = {   # chart fixture, H, phi; Disk((0, 0), 0.5) at h = 1/64
    "cap64": ("euclid", 1.0, cap_trace()),
    "curved_exp64": ("curved", curved_exp_H, curved_exp_u),
}


def _verify_case(chart, case):
    """(spec, grid, reference): `verify_<case>.npz` holds a solved u and
    verify's JSON for it; run this file as a script to rewrite the JSON
    from the installed kgraph."""
    _, H, phi = VERIFY_CASES[case]
    grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 64, chart)
    spec = kg.ProblemSpec(chart=chart, domain=grid.domain, H=H, phi=phi)
    return spec, grid, np.load(DATA / f"verify_{case}.npz")


def _assert_json_close(got, ref, path="verify"):
    """Equal JSON trees, floats to 1e-12 relative (the exp in the curved
    chart may round differently on another CPU)."""
    if isinstance(ref, dict):
        assert sorted(got) == sorted(ref), path
        for key in ref:
            _assert_json_close(got[key], ref[key], f"{path}.{key}")
    elif isinstance(ref, list):
        assert len(got) == len(ref), path
        for k, (a, b) in enumerate(zip(got, ref)):
            _assert_json_close(a, b, f"{path}[{k}]")
    elif isinstance(ref, float):
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-300), path
    else:
        assert got == ref, path


class TestVerifyEvaluatesOnce:
    @pytest.mark.parametrize("case", sorted(VERIFY_CASES))
    def test_json_matches_reference(self, request, case):
        spec, grid, ref = _verify_case(request.getfixturevalue(VERIFY_CASES[case][0]), case)
        got = kg.verify(spec, grid, ref["u"]).to_json_dict()
        _assert_json_close(got, json.loads(str(ref["json"])))

    @pytest.mark.parametrize("case", sorted(VERIFY_CASES))
    def test_data_and_samples_evaluated_once(self, request, case, monkeypatch):
        spec, grid, ref = _verify_case(request.getfixturevalue(VERIFY_CASES[case][0]), case)
        u = ref["u"]
        calls = {"samples": 0, "H_nodes": 0, "phi_links": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(kan, "boundary_gradient_samples",
                            counted("samples", kan.boundary_gradient_samples))
        monkeypatch.setattr(kg.ProblemSpec, "H_nodes", counted("H_nodes", kg.ProblemSpec.H_nodes))
        monkeypatch.setattr(kg.ProblemSpec, "phi_links",
                            counted("phi_links", kg.ProblemSpec.phi_links))
        items = kg.verify(spec, grid, u).items
        assert calls == {"samples": 1, "H_nodes": 1, "phi_links": 1}
        monkeypatch.undo()

        # the gradient and flux items are what the standalone calls give
        gc = kg.boundary_gradient_certificate(spec, grid, u)
        grad = items["gradient_barrier"]
        assert (grad["K"], grad["C"], grad["sup_grad_boundary"], grad["bound"],
                grad["min_margin"]) == (gc.params.K, gc.params.C, gc.sup_grad_boundary,
                                        gc.bound, float(np.min(gc.margin)))
        flux = kg.flux_balance(spec, grid, u)
        assert (items["flux"]["boundary"], items["flux"]["bulk"]) == (flux.boundary, flux.bulk)


class TestBoundaryGeometryOnGrid:
    def test_solve_and_verify_share_one(self, euclid, monkeypatch):
        # the grid's full-sample geometry: computed by the solve's
        # hypothesis check, read again by verify and by the gradient and
        # flux certificates on their own, freed with the grid
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=1.0, phi=CAP)
        samples = max(64, grid.num_links)
        assert samples > 64    # so the Riccati curve's 64-sample geometry is told apart
        calls = []
        fresh = kan.boundary_geometry
        monkeypatch.setattr(kan, "boundary_geometry",
                            lambda *a, **kw: calls.append(kw["samples"]) or fresh(*a, **kw))
        u, _ = kg.solve_dirichlet(spec, grid)
        assert kg.verify(spec, grid, u).passed
        kg.boundary_gradient_certificate(spec, grid, u)
        kg.flux_balance(spec, grid, u)
        assert calls.count(samples) == 1
        monkeypatch.undo()

        shared = grid.boundary_geometry
        ref = kg.boundary_geometry(euclid, grid.domain, samples=samples)
        for name in ("params", "points", "points_minus", "points_plus", "dt", "tangents",
                     "eta", "eta_minus", "eta_plus", "H_gamma", "kappa", "H_cyl", "speed",
                     "weights", "tilt"):
            assert np.array_equal(getattr(shared, name), getattr(ref, name)), name
        alive = weakref.ref(shared)
        del grid, shared
        gc.collect()
        assert alive() is None


if __name__ == "__main__":
    charts = {"euclid": kg.euclidean(), "curved": _chart("curved-exp", _curved_exp)}
    for name in sorted(VERIFY_CASES):
        spec, grid, ref = _verify_case(charts[VERIFY_CASES[name][0]], name)
        report = kg.verify(spec, grid, ref["u"]).to_json_dict()
        np.savez_compressed(DATA / f"verify_{name}.npz", u=ref["u"],
                            json=json.dumps(report, sort_keys=True))
        print("verify", name)
