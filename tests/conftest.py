"""Shared fixtures: charts, solved reference problems, the test matrix."""

import time
from dataclasses import dataclass

import numpy as np
import pytest

import kgraph as kg

CAP_R = 1.0


def cap_trace(R=CAP_R, shift=0.0):
    def phi(P):
        P = np.asarray(P, dtype=float)
        return -np.sqrt(R * R - P[..., 0] ** 2 - P[..., 1] ** 2) + shift
    return phi


def saddle(P):
    P = np.asarray(P, dtype=float)
    return 0.5 * P[..., 0] * P[..., 1]


def curved_exp_u(P):
    """u* = sin(2y)/5 + x^2/10, the manufactured curved-exp solution."""
    x, y = np.asarray(P)[..., 0], np.asarray(P)[..., 1]
    return np.sin(2 * y) / 5 + x ** 2 / 10


def curved_exp_H(P):
    """H* = Q[u*] / 2 on the curved-exp chart (sympy, simplified)."""
    x, y = np.asarray(P)[..., 0], np.asarray(P)[..., 1]
    s2, c2, e2 = np.sin(2 * y), np.cos(2 * y), np.exp(2 * x)
    return ((-4 * x ** 2 * s2 - 4 * x * c2 ** 2 - 25 * x - 100 * e2 * s2
             + 4 * c2 ** 2 + 25) * np.exp(x)
            / (2 * (x ** 2 + 4 * e2 * c2 ** 2 + 25 * e2) ** 1.5))


def smooth_random_field(points, rng, scale=0.3):
    x, y = points[:, 0], points[:, 1]
    a = rng.normal(size=6)
    return scale * (a[0] * np.sin(2 * x) * np.cos(y) + a[1] * x * y
                    + a[2] * np.cos(3 * y) + a[3] * x ** 2
                    + a[4] * np.sin(x + y) + a[5])


@dataclass
class SolvedCase:
    name: str
    spec: kg.ProblemSpec
    grid: kg.GridDomain
    u: np.ndarray
    report: kg.SolveReport
    solve_seconds: float


def _solve_case(name, chart, domain, H, phi, h, cfg=None):
    t0 = time.monotonic()
    grid = kg.build_grid(domain, h, chart)
    spec = kg.ProblemSpec(chart=chart, domain=domain, H=H, phi=phi)
    u, report = kg.solve_dirichlet(spec, grid, cfg)
    return SolvedCase(name=name, spec=spec, grid=grid, u=u, report=report,
                      solve_seconds=time.monotonic() - t0)


@pytest.fixture(scope="session")
def euclid():
    return kg.euclidean()


@pytest.fixture(scope="session")
def heis():
    return kg.heisenberg()


@pytest.fixture(scope="session")
def warp():
    return kg.warped("1 + x^2 / 4", ric_lower=0.0, name="warped-mild")


@pytest.fixture(scope="session")
def curved():
    """sigma = diag(e^{2x}, 1): the curved-exp chart."""
    def metric(P):
        P = np.asarray(P)
        out = np.zeros(P.shape[:-1] + (2, 2))
        out[..., 0, 0] = np.exp(2.0 * P[..., 0])
        out[..., 1, 1] = 1.0
        return out

    return kg.SubmersionChart(
        name="curved-exp", metric=metric,
        f=lambda P: np.ones(np.asarray(P).shape[:-1]),
        delta=lambda P: np.zeros(np.asarray(P).shape[:-1] + (2,)),
        ric_lower=0.0, flat_metric=False)


@pytest.fixture(scope="session")
def cap_64(euclid):
    return _solve_case("cap-64", euclid, kg.Disk((0.0, 0.0), 0.5), 1.0,
                       cap_trace(), 1.0 / 64)


@pytest.fixture(scope="session")
def cap_128(euclid):
    return _solve_case("cap-128", euclid, kg.Disk((0.0, 0.0), 0.5), 1.0,
                       cap_trace(), 1.0 / 128)


@pytest.fixture(scope="session")
def heis_min_64(heis):
    return _solve_case("heis-min-64", heis, kg.Disk((0.0, 0.0), 1.0), 0.0,
                       0.0, 1.0 / 64)


@pytest.fixture(scope="session")
def heis_saddle_64(heis):
    return _solve_case("heis-saddle-64", heis, kg.Disk((0.0, 0.0), 1.0), 0.0,
                       saddle, 1.0 / 64)


@pytest.fixture(scope="session")
def heis_min_32(heis):
    return _solve_case("heis-min-32", heis, kg.Disk((0.0, 0.0), 1.0), 0.0,
                       0.0, 1.0 / 32)


@pytest.fixture(scope="session")
def heis_saddle_32(heis):
    return _solve_case("heis-saddle-32", heis, kg.Disk((0.0, 0.0), 1.0), 0.0,
                       saddle, 1.0 / 32)


@pytest.fixture(scope="session")
def test_matrix(euclid, heis, warp):
    """Built-in problems with passing hypothesis checks, solved at h = 1/32."""
    disk_half = kg.Disk((0.0, 0.0), 0.5)
    disk_unit = kg.Disk((0.0, 0.0), 1.0)
    cases = [
        ("euclid-minimal", euclid, disk_half, 0.0, 0.0),
        ("euclid-cap", euclid, disk_half, 1.0, cap_trace()),
        ("euclid-mid", euclid, disk_half, 0.9, 0.0),
        ("heis-minimal", heis, disk_unit, 0.0, 0.0),
        ("heis-saddle", heis, disk_unit, 0.0, saddle),
        ("warped-minimal", warp, disk_half, 0.0, 0.0),
    ]
    return [_solve_case(name, chart, dom, H, phi, 1.0 / 32)
            for name, chart, dom, H, phi in cases]
