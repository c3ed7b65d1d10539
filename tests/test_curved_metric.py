"""End-to-end pipeline on a genuinely curved base metric.

sigma = diag(e^{2x}, 1) exercises everything the flat built-ins skip:
Christoffel terms in boundary curvature, RK4 normal geodesics in the
Riccati flow, the fast-swept distance field inside barrier bands, and
metric weights in quadrature and flux.
"""

import numpy as np
import pytest

import kgraph as kg


@pytest.fixture(scope="module")
def solved(curved):
    dom = kg.Disk((0.0, 0.0), 0.5)
    grid = kg.build_grid(dom, 1.0 / 32, curved)
    spec = kg.ProblemSpec(chart=curved, domain=dom, H=0.0,
                          phi=lambda P: 0.2 * np.sin(2 * np.asarray(P)[..., 1]))
    u, report = kg.solve_dirichlet(spec, grid)
    return spec, grid, u, report


def test_zero_tilt_flat_graph_is_exact(curved):
    # u = 0 has hat_u = 0 regardless of sigma, so the discrete residual
    # vanishes identically
    grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, curved)
    spec = kg.ProblemSpec(chart=curved, domain=grid.domain, H=0.0, phi=0.0)
    r = kg.residual(spec, grid, np.zeros(grid.num_inside))
    assert np.abs(r).max() == 0.0


def test_cylinder_curvature_positive(curved):
    bg = kg.boundary_geometry(curved, kg.Disk((0.0, 0.0), 0.5), samples=96)
    assert bg.inf_H_cyl > 0.5
    assert bg.H_cyl.max() < 2.0


def test_riccati_on_curved_geodesics(curved):
    curve = kg.riccati_evolution(curved, kg.Disk((0.0, 0.0), 0.5),
                                 eps_max=0.1, deps=0.1 / 16, samples=48)
    assert curve.monotone()
    assert np.all(curve.H_direct >= curve.H_envelope - 1e-6)


def test_solve_and_verify(solved):
    spec, grid, u, report = solved
    assert report.converged
    assert report.residual_final <= 1e-10
    result = kg.verify(spec, grid, u)
    assert result.passed
    for name in ("height_barrier", "gradient_barrier", "riccati", "flux", "theta"):
        assert result.items[name]["passed"], name


def test_vertical_invariance_curved(solved):
    spec, grid, u, _ = solved
    shifted = kg.ProblemSpec(
        chart=spec.chart, domain=spec.domain, H=0.0,
        phi=lambda P: 0.2 * np.sin(2 * np.asarray(P)[..., 1]) + 0.25)
    u2, _ = kg.solve_dirichlet(shifted, grid)
    u1, _ = kg.solve_dirichlet(spec, grid)
    assert np.abs(u2 - (u1 + 0.25)).max() < 1e-9
