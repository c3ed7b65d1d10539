"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion with the measured values and tolerances.
"""

import numpy as np
import pytest

import kgraph as kg
from kgraph.cli import main
from conftest import cap_trace, saddle, smooth_random_field
from oracles import residual_nondivergence

CAP = cap_trace()


def report(criterion, message):
    print(f"[criterion {criterion}] {message} -> PASS")


class TestCriterion1Cap:
    def test_cap_reproduction(self, cap_64, cap_128):
        e64 = np.abs(cap_64.u - CAP(cap_64.grid.points)).max()
        e128 = np.abs(cap_128.u - CAP(cap_128.grid.points)).max()
        ratio = e64 / e128
        runtime = cap_128.solve_seconds
        assert e128 <= 1e-3
        assert 3.0 <= ratio <= 5.0
        assert runtime <= 60.0
        report(1, f"cap error {e128:.2e} <= 1e-3 at h=1/128, "
                  f"ratio {ratio:.2f} in [3,5], runtime {runtime:.1f}s <= 60s")


class TestCriterion2Heisenberg:
    @staticmethod
    def _order_ok(coarse, fine):
        # exact discrete solutions sit at rounding level; below that floor
        # the ratio divides noise and the order claim is vacuous
        if coarse <= 1e-7:
            return True
        return coarse / fine >= 2.5

    def test_exact_minimal_graphs(self, heis_min_32, heis_min_64,
                                  heis_saddle_32, heis_saddle_64):
        e_min_64 = np.abs(heis_min_64.u).max()
        e_min_32 = np.abs(heis_min_32.u).max()
        e_sad_64 = np.abs(heis_saddle_64.u - saddle(heis_saddle_64.grid.points)).max()
        e_sad_32 = np.abs(heis_saddle_32.u - saddle(heis_saddle_32.grid.points)).max()
        assert e_min_64 <= 1e-3
        assert e_sad_64 <= 1e-3
        assert self._order_ok(e_min_32, e_min_64)
        assert self._order_ok(e_sad_32, e_sad_64)
        report(2, f"heisenberg minimal |u| {e_min_64:.2e} <= 1e-3 and "
                  f"saddle error {e_sad_64:.2e} <= 1e-3 at h=1/64; "
                  f"refinement ok ({e_min_32:.1e}->{e_min_64:.1e}, "
                  f"{e_sad_32:.1e}->{e_sad_64:.1e})")


class TestCriterion3HypothesisGate:
    def test_cmd_check_values_and_continuation(self, tmp_path, capsys, euclid):
        devs = []
        for rho in (0.25, 0.5, 1.0):
            cfg = tmp_path / f"check_{rho}.cfg"
            cfg.write_text(f"""\
[geometry]
builtin = euclidean

[domain]
shape = disk
center = 0 0
radius = {rho}
h = {rho / 16}

[problem]
H = 0.1
phi = 0
""")
            assert main(["check", str(cfg)]) == 0
            out = capsys.readouterr().out
            line = [l for l in out.splitlines() if l.startswith("inf_Hcyl")][0]
            value = float(line.split("=")[1])
            dev = abs(value - 1.0 / (2 * rho))
            assert dev <= 1e-4
            devs.append(dev)
        # continuation completes at H = 0.9 inf H_cyl on each disk, and the
        # solutions match the shifted-cap closed form
        cap_errs = []
        for rho in (0.25, 0.5, 1.0):
            grid = kg.build_grid(kg.Disk((0.0, 0.0), rho), rho / 24, euclid)
            H = 0.9 / (2 * rho)
            spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=H, phi=0.0)
            u, rep = kg.solve_dirichlet(spec, grid)
            assert rep.converged
            assert rep.residual_final <= 1e-10
            R = 1.0 / H
            r2 = np.sum(grid.points ** 2, axis=1)
            exact = -np.sqrt(R * R - r2) + np.sqrt(R * R - rho * rho)
            err = np.abs(u - exact).max()
            assert err <= 5e-3 * rho
            cap_errs.append(err)
        report(3, f"inf H_cyl deviations {', '.join(f'{d:.1e}' for d in devs)} "
                  f"<= 1e-4 on rho in (0.25, 0.5, 1); continuation completed "
                  f"at H = 0.9 inf H_cyl with shifted-cap errors "
                  f"{', '.join(f'{e:.1e}' for e in cap_errs)}")


class TestCriterion4Ellipticity:
    def test_random_states(self, euclid, heis, warp):
        rng = np.random.default_rng(101)
        total = 0
        for chart in (euclid, heis, warp):
            pts = rng.uniform(-0.9, 0.9, size=(3334, 2))
            sig = chart.metric_at(pts)
            siginv = kg.inverse_metric_at(chart, pts)
            f = chart.f_at(pts)
            up = rng.normal(scale=2.5, size=(3334, 2))
            W2 = f + np.einsum("ni,nij,nj->n", up, sig, up)
            A = W2[:, None, None] * siginv - np.einsum("ni,nj->nij", up, up)
            xi = rng.normal(size=(3334, 2))
            quad = np.einsum("nij,ni,nj->n", A, xi, xi)
            norm2 = np.einsum("nij,ni,nj->n", siginv, xi, xi)
            ratio = quad / norm2
            assert np.all(ratio >= f * (1 - 1e-10) - 1e-10)
            assert np.all(ratio <= W2 * (1 + 1e-10) + 1e-10)
            total += len(pts)
        assert total >= 10_000
        report(4, f"f |xi|^2 <= A xi xi <= W^2 |xi|^2 held to 1e-10 on "
                  f"{total} random (state, xi) pairs across built-in charts")


class TestCriterion5GammaInvariance:
    def test_gamma_term_drops(self, heis):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 1.0), 1.0 / 16, heis)
        op = grid.operator
        rng = np.random.default_rng(102)
        worst = 0.0
        for _ in range(5):
            u = smooth_random_field(grid.points, rng)
            phi = smooth_random_field(grid.link_points, rng)
            H0 = np.zeros(grid.num_inside)
            r_full = residual_nondivergence(op, u, phi, H0, gamma_mode="full")
            r_sym = residual_nondivergence(op, u, phi, H0, gamma_mode="symmetrized")
            m = np.isfinite(r_full)
            worst = max(worst, np.abs(r_full[m] - r_sym[m]).max())
        assert worst <= 1e-12
        gam = kg.gamma_at(heis, (0.4, -1.3), 1e-3)
        dev = abs(gam[0, 1] - 1.0)
        assert dev <= 1e-8
        report(5, f"assemblies with/without the gamma term agree to "
                  f"{worst:.1e} <= 1e-12; gamma_12 = 1 within {dev:.1e}")


class TestCriterion6Jacobian:
    def test_fd_oracle_per_geometry(self, euclid, heis, warp):
        rng = np.random.default_rng(103)
        worst = 0.0
        for chart in (euclid, heis, warp):
            grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, chart)
            op = grid.operator
            H0 = np.zeros(grid.num_inside)
            for _ in range(20):
                u = smooth_random_field(grid.points, rng)
                phi = smooth_random_field(grid.link_points, rng)
                v = smooth_random_field(grid.points, rng)
                J = op.jacobian(u, phi)
                eps = 1e-6
                fd = (op.residual(u + eps * v, phi, H0)
                      - op.residual(u - eps * v, phi, H0)) / (2 * eps)
                rel = np.linalg.norm(fd - J @ v) / np.linalg.norm(J @ v)
                worst = max(worst, rel)
                assert rel <= 1e-6
        report(6, f"directional-derivative mismatch <= {worst:.1e} <= 1e-6 "
                  f"relative on 20 random smooth states x 3 geometries")


class TestCriterion7Riccati:
    def test_disk_curve(self, euclid):
        worst_dev = 0.0
        for rho in (0.5, 1.0):
            curve = kg.riccati_evolution(euclid, kg.Disk((0.0, 0.0), rho),
                                         eps_max=0.3 * rho,
                                         deps=0.3 * rho / 24, samples=64)
            exact = 1.0 / (2.0 * (rho - curve.eps))
            dev = np.abs(curve.H_direct - exact[None, :]).max()
            assert dev <= 1e-6
            assert curve.monotone()
            worst_dev = max(worst_dev, dev)
        report(7, f"H_cyl(eps) matches 1/(2(rho-eps)) within {worst_dev:.1e} "
                  f"<= 1e-6 and is monotone over eps in [0, 0.3 rho]")


class TestCriterion8Barriers:
    def test_certificates_on_matrix(self, test_matrix, cap_128):
        passing = []
        for case in test_matrix:
            bg = kg.boundary_geometry(case.spec.chart, case.spec.domain,
                                      samples=max(64, case.grid.num_links))
            verdict = kg.hypothesis_check(case.spec, bg, grid=case.grid)
            assert verdict.passed, case.name
            hc = kg.height_barrier_certificate(case.spec, case.grid, case.u)
            gc = kg.boundary_gradient_certificate(case.spec, case.grid, case.u)
            assert np.min(hc.margin) >= -1e-12, case.name
            assert np.min(gc.margin) >= -1e-9, case.name
            passing.append(case.name)
        gc_cap = kg.boundary_gradient_certificate(cap_128.spec, cap_128.grid,
                                                  cap_128.u)
        dev = abs(gc_cap.sup_grad_boundary - 1.0 / np.sqrt(3.0))
        assert dev <= 2e-2
        report(8, f"height+gradient certificates passed on {len(passing)} "
                  f"matrix runs; cap sup|grad u| on the boundary = "
                  f"{gc_cap.sup_grad_boundary:.4f} = 3^-1/2 within {dev:.1e}")


class TestCriterion9Flux:
    def test_cap_and_minimal_runs(self, cap_128, test_matrix):
        res = kg.flux_balance(cap_128.spec, cap_128.grid, cap_128.u)
        rel = abs(res.imbalance) / (abs(res.boundary) + abs(res.bulk) + 1.0)
        assert rel <= 1e-2
        worst_minimal = 0.0
        for case in test_matrix:
            if np.max(np.abs(case.spec.H_nodes(case.grid))) > 0:
                continue
            flux = kg.flux_balance(case.spec, case.grid, case.u)
            worst_minimal = max(worst_minimal, abs(flux.boundary))
            assert abs(flux.boundary) <= 1e-2, case.name
        report(9, f"cap relative imbalance {rel:.1e} <= 1e-2 at h=1/128; "
                  f"minimal-run boundary flux <= {worst_minimal:.1e} <= 1e-2")


class TestCriterion10Uniqueness:
    def test_random_starts_agree(self, test_matrix):
        rng = np.random.default_rng(104)
        worst = 0.0
        for case in test_matrix:
            phi_vals = case.spec.phi_links(case.grid)
            bound = np.abs(phi_vals).max() + 0.5 if len(phi_vals) else 0.5
            sols = []
            for _ in range(5):
                u0 = smooth_random_field(case.grid.points, rng)
                u0 *= bound / max(np.abs(u0).max(), 1e-9)
                u, rep = kg.solve_dirichlet(case.spec, case.grid, u0=u0)
                assert rep.converged, case.name
                sols.append(u)
            spread = max(np.abs(s - sols[0]).max() for s in sols[1:])
            worst = max(worst, spread)
            assert spread <= 1e-8, case.name
        report(10, f"5 random admissible starts agree within {worst:.1e} "
                   f"<= 1e-8 on each of {len(test_matrix)} matrix problems")


class TestCriterion11Theta:
    def test_minimum_principle(self, test_matrix, cap_128):
        names = []
        for case in list(test_matrix) + [cap_128]:
            rep = kg.theta_field(case.spec, case.grid, case.u)
            assert rep.passed, case.name
            names.append(case.name)
        report(11, f"theta minimum principle held with 1e-6 slack on "
                   f"{len(names)} converged constant-H runs")
