"""Geometric estimate machinery as numeric certificates.

Everything here consumes a converged graph and produces checkable
artifacts: the inward mean curvature of the boundary cylinder
H_cyl = ((n-1) H_Gamma + kappa) / n, n = DIM = 2 the base dimension,
and its evolution along inward normal geodesics, exponential height
barriers, logarithmic boundary gradient barriers, the flux identity
between the boundary integral of <Y, nu> and the bulk integral of
n H <Y, N>, and the angle function Theta = <N, Y> with its boundary
minimum principle.  Certificates are
pointwise margin checks, not proofs: a passing certificate stores a
nonnegative margin field.
"""

import functools
import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import (CertificateFailed, InputError, MinPrincipleViolated,
                     TubularWidthExceeded)
from .geometry import (DIM, _eig_bounds_2x2, _fields_of, _positive, _tilt,
                       christoffels_at, inverse_metric_at, kappa_vector_at)
from .grid import Rectangle, integrate
from .operator import _is_constant

CURVE_DT = 2e-4          # parameter differencing step, scaled by period/(2 pi)
GEOM_H_FD = 1e-3         # chart differencing step for boundary geometry
LADDER = [2.0 ** k for k in range(0, 21)]


# ---------------------------------------------------------------------------
# boundary geometry

@dataclass
class BoundaryGeometry:
    params: np.ndarray       # (S,)
    points: np.ndarray       # (S, 2)
    points_minus: np.ndarray  # (S, 2) at t - dt
    points_plus: np.ndarray  # (S, 2) at t + dt
    dt: float
    tangents: np.ndarray     # (S, 2) dc/dt
    eta: np.ndarray          # (S, 2) inward sigma-unit normal
    eta_minus: np.ndarray    # (S, 2)
    eta_plus: np.ndarray     # (S, 2)
    H_gamma: np.ndarray      # (S,)
    kappa: np.ndarray        # (S,)
    H_cyl: np.ndarray        # (S,)
    speed: np.ndarray        # (S,) sigma length of the tangents
    weights: np.ndarray      # (S,) sigma arclength weights
    chart: object            # the chart sampled, for the tilt

    @functools.cached_property
    def tilt(self):
        """(S, 2) the section tilt f^{1/2} delta, computed on first read."""
        return _tilt(self.chart, self.points)

    @property
    def inf_H_cyl(self):
        return float(np.min(self.H_cyl))

    @property
    def perimeter(self):
        return float(np.sum(self.weights))


def _boundary_params(domain, samples):
    period = domain.boundary_period()
    if isinstance(domain, Rectangle):
        w = domain.x1 - domain.x0
        h = domain.y1 - domain.y0
        lengths = [w, h, w, h]
        starts = np.concatenate([[0.0], np.cumsum(lengths)])[:4]
        ts, dts = [], []
        for start, ln in zip(starts, lengths):
            k = max(4, int(round(samples * ln / period)))
            ts.append(start + (np.arange(k) + 0.5) * ln / k)
            dts.append(np.full(k, ln / k))
        return np.concatenate(ts), np.concatenate(dts)
    step = period / samples
    return (np.arange(samples) + 0.5) * step, np.full(samples, step)


def _sigma_normalize(chart, points, vectors):
    sig = chart.metric_at(points)
    norm = np.sqrt(np.einsum("...i,...ij,...j->...", vectors, sig, vectors))
    return vectors / norm[..., None]


def _curve_H_cyl(chart, p_minus, p0, p_plus, dt, eta):
    """Cylinder curvature from three nearby curve points and the inward normal.

    Returns (H_cyl, H_Gamma, kappa, speed): H_Gamma is the
    sigma-covariant curvature of the curve through the triplet, kappa
    the kappa-vector paired with eta, speed the sigma length of the
    central-difference tangent.
    """
    cp = (p_plus - p_minus) / (2.0 * dt)
    cpp = (p_plus - 2.0 * p0 + p_minus) / dt ** 2
    gam = christoffels_at(chart, p0, GEOM_H_FD)
    acc = cpp + np.einsum("...kij,...i,...j->...k", gam, cp, cp)
    sig = chart.metric_at(p0)
    speed2 = np.einsum("...i,...ij,...j->...", cp, sig, cp)
    tang = cp / np.sqrt(speed2)[..., None]
    a_dot_t = np.einsum("...i,...ij,...j->...", acc, sig, tang)
    kvec = (acc - a_dot_t[..., None] * tang) / speed2[..., None]
    H_gamma = np.einsum("...i,...ij,...j->...", kvec, sig, eta)
    kap = np.einsum("...i,...i->...", kappa_vector_at(chart, p0, GEOM_H_FD), eta)
    return ((DIM - 1) * H_gamma + kap) / DIM, H_gamma, kap, np.sqrt(speed2)


def _inward_sigma_normals(chart, points, m):
    """Inward sigma-unit normals at boundary `points` from the unit
    Euclidean inward covectors `m` there: m raised by sigma^{-1}, which
    is sigma-orthogonal to the boundary, then sigma-normalised."""
    v = np.einsum("...ij,...j->...i", inverse_metric_at(chart, points), m)
    norm = np.sqrt(np.einsum("...i,...i->...", m, v))
    return v / norm[..., None]


def boundary_geometry(chart, domain, samples=64):
    """Sample H_Gamma, kappa and H_cyl along the boundary.

    The parametrization is differenced with a small parameter step;
    samples avoid rectangle corners.  Arclength weights are sigma
    lengths of the parameter cells.  The sigma speed of the tangents is
    kept, and the section tilt computed on first read, for the
    certificates that read them.  A grid keeps the one of its chart and
    domain at max(64, num_links) samples (`GridDomain.boundary_geometry`).
    """
    if samples < 16:
        raise ValueError("need at least 16 boundary samples")
    ts, dts = _boundary_params(domain, samples)
    period = domain.boundary_period()
    dt = CURVE_DT * period / (2.0 * np.pi)
    pmm, pm, p0, pp, ppp = (domain.boundary_point(ts + k * dt) for k in (-2, -1, 0, 1, 2))

    cp = (pp - pm) / (2.0 * dt)
    normals = []
    for p, t in ((p0, cp), (pm, (p0 - pmm) / (2.0 * dt)), (pp, (ppp - p0) / (2.0 * dt))):
        # counterclockwise parametrization: rotating the tangent by +90
        # degrees gives the Euclidean inward covector
        m = np.stack([-t[..., 1], t[..., 0]], axis=-1)
        normals.append(_inward_sigma_normals(chart, p, m / np.linalg.norm(m, axis=-1)[:, None]))
    eta, eta_m, eta_p = normals

    H_cyl, H_gamma, kap, speed = _curve_H_cyl(chart, pm, p0, pp, dt, eta)

    return BoundaryGeometry(
        params=ts, points=p0, points_minus=pm, points_plus=pp,
        dt=dt, tangents=cp, eta=eta, eta_minus=eta_m, eta_plus=eta_p,
        H_gamma=H_gamma, kappa=kap, H_cyl=H_cyl, speed=speed, weights=speed * dts,
        chart=chart,
    )


# ---------------------------------------------------------------------------
# hypothesis check

@dataclass
class HypothesisVerdict:
    sup_H: float
    inf_Hcyl: float
    ric_lower: float
    cyl_positive: bool
    h_ok: bool
    ric_ok: bool
    slack_H: float
    slack_ric: float

    @property
    def passed(self):
        return self.cyl_positive and self.h_ok and self.ric_ok

    def as_dict(self):
        out = asdict(self)
        out["passed"] = self.passed
        return out


def hypothesis_check(spec, bgeom, grid=None, _H_vals=None):
    """Checks sup|H| <= inf H_cyl, H_cyl > 0 and the Ricci lower bound.

    The three inequalities are reported with their numeric slack; the
    verdict is their conjunction.  `_H_vals` is `spec.H_nodes(grid)`
    when the caller already has it.
    """
    H_bdry = np.abs(spec.H_at(bgeom.points))
    sup_H = float(np.max(H_bdry))
    if grid is not None:
        H_vals = spec.H_nodes(grid) if _H_vals is None else _H_vals
        sup_H = max(sup_H, float(np.max(np.abs(H_vals))))
    inf_c = bgeom.inf_H_cyl
    ric = float(spec.chart.ric_lower)
    return HypothesisVerdict(
        sup_H=sup_H,
        inf_Hcyl=inf_c,
        ric_lower=ric,
        cyl_positive=inf_c > 0.0,
        h_ok=sup_H <= inf_c + 1e-12,
        ric_ok=ric >= -DIM * inf_c ** 2 - 1e-12,
        slack_H=inf_c - sup_H,
        slack_ric=ric + DIM * inf_c ** 2,
    )


# ---------------------------------------------------------------------------
# normal geodesic flow and the Riccati envelope

@dataclass
class RiccatiCurve:
    eps: np.ndarray        # (E,)
    H_direct: np.ndarray   # (S, E) cylinder curvature of the level sets
    H_envelope: np.ndarray  # (S, E) scalar lower-bound integration

    def monotone(self):
        return bool(np.all(np.diff(self.H_direct, axis=1) >= -1e-9))


def _rk4(f, y, dt):
    """One classical Runge-Kutta step of y' = f(y)."""
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def riccati_evolution(chart, domain, eps_max, deps, samples=64):
    """Cylinder curvature along inward equidistants, two ways.

    Direct: each boundary sample is flowed along its inward normal
    geodesic; the level-set curvature at depth eps comes from the
    flowed parameter triplet.  Envelope: the scalar Riccati bound
    dH/deps = H^2 + chart.ric_lower / n integrated from the boundary value,
    which must stay below the direct curve when the hypotheses hold.
    Each RK4 stage of the geodesics evaluates the metric once, on the
    centre and the +-GEOM_H_FD stencil stacked; the level-set curvature
    of every depth is taken in one pass after the flow.
    """
    if not (0 < eps_max < np.inf and 0 < deps < np.inf):
        raise ValueError("eps_max and deps must be positive and finite")
    if not float(eps_max) / float(deps) < np.inf:
        raise ValueError("eps_max / deps must be finite")
    ric = chart.ric_lower
    bg = boundary_geometry(chart, domain, samples=samples)
    nsteps = max(1, int(round(eps_max / deps)))
    eps = np.linspace(0.0, eps_max, nsteps + 1)

    S = len(bg.points)
    width0 = np.linalg.norm(bg.points_plus - bg.points_minus, axis=1)
    stencil = GEOM_H_FD * np.array([[0, 0], [1, 0], [0, 1], [-1, 0], [0, -1]])[:, None, :]

    def geodesic(y):
        # d/deps (p, v) = (v, -Gamma^k_ij v^i v^j): straight lines on flat charts
        p, v = y
        if chart.flat_metric:
            return np.stack([v, np.zeros_like(v)])
        sig = chart.metric_at(p + stencil)
        inv = _fields_of(chart, sig[0], p)[1]
        dsig = (sig[1:3] - sig[3:]) / (2.0 * GEOM_H_FD)     # [a] = d_a sigma
        v0, v1 = v[:, 0, None], v[:, 1, None]
        dv = dsig[..., 0] * v0 + dsig[..., 1] * v1          # [a, m, l] = d_a sigma_lj v^j
        # Gamma^k_ij v^i v^j = sigma^kl (v^a d_a sigma_lj v^j - v^i d_l sigma_ij v^j / 2)
        w = v0 * dv[0] + v1 * dv[1] - 0.5 * (dv * v).sum(axis=-1).T
        return np.stack([v, -(inv[..., 0] * w[:, 0, None] + inv[..., 1] * w[:, 1, None])])

    y = np.stack([np.concatenate([bg.points_minus, bg.points, bg.points_plus]),
                  np.concatenate([bg.eta_minus, bg.eta, bg.eta_plus])])
    flowed = np.empty((nsteps + 1,) + y.shape)
    H_env = np.empty((S, nsteps + 1))
    H_env[:, 0] = bg.H_cyl
    for k in range(nsteps + 1):
        if k:
            with np.errstate(over="ignore"):    # the envelope's blow-up, checked below
                y = _rk4(geodesic, y, eps_max / nsteps)
                H_env[:, k] = _rk4(lambda H: H * H + ric / DIM, H_env[:, k - 1], eps_max / nsteps)
        flowed[k] = y
        if np.any(np.linalg.norm(y[0, 2 * S:] - y[0, :S], axis=1) < 0.05 * width0):
            raise TubularWidthExceeded(f"normal geodesics focus before eps = {eps[k]:.4g}")
        if not np.all(np.isfinite(H_env[:, k])):
            raise TubularWidthExceeded(f"Riccati envelope blows up before eps = {eps[k]:.4g}")

    p, v = flowed[:, 0], flowed[:, 1]
    eta_eps = _sigma_normalize(chart, p[:, S:2 * S], v[:, S:2 * S])
    H_direct = _curve_H_cyl(chart, p[:, :S], p[:, S:2 * S], p[:, 2 * S:], bg.dt, eta_eps)[0]
    return RiccatiCurve(eps=eps, H_direct=H_direct.T, H_envelope=H_env)


# ---------------------------------------------------------------------------
# interpolation helpers

def _bilinear(grid, id_map, values, pts):
    """Bilinear interpolation at `pts` (S, 2) of the rows of `values`
    (M, k) laid on the lattice by `id_map` ((ny, nx) -> row, or -1).

    Returns (S, k) values and an (S,) mask of the points whose four cell
    corners all carry a row; elsewhere the value is the mean of the
    corners that do, NaN where none does.
    """
    sx = (pts[:, 0] - grid.x_origin) / grid.h
    sy = (pts[:, 1] - grid.y_origin) / grid.h
    ix, iy = np.floor(sx).astype(int), np.floor(sy).astype(int)
    tx, ty = sx - ix, sy - iy
    ids = np.stack([id_map[iy, ix], id_map[iy, ix + 1],
                    id_map[iy + 1, ix], id_map[iy + 1, ix + 1]], axis=1)
    w = np.stack([(1 - tx) * (1 - ty), tx * (1 - ty), (1 - tx) * ty, tx * ty], axis=1)
    have = ids >= 0
    vals = np.where(have[..., None], values[ids], 0.0)
    complete = have.all(axis=1)
    with np.errstate(invalid="ignore"):
        mean = vals.sum(axis=1) / have.sum(axis=1)[:, None]
    out = sum(w[:, c, None] * vals[:, c] for c in range(4))
    return np.where(complete[:, None], out, mean), complete


def _nearest_sample(grid, bgeom, pts):
    """Index of the nearest sample of `bgeom`, a boundary geometry of the
    grid's domain, for each point inside the domain.

    From an inside point the squared distance to a boundary piece grows
    with the parameter's distance from the point's foot on it, so the
    nearest sample brackets a foot parameter (`domain.foot_params`) on
    some piece; rounding can only move a foot across a sample, which is
    then the nearest.  Candidates are compared by exact squared distance,
    ties to the lowest index as in a dense argmin, except at a disk's
    centre (to rounding), where every sample is at distance R to an ulp.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    S = len(bgeom.params)
    j = np.searchsorted(bgeom.params, grid.domain.foot_params(pts))    # (pieces, M)
    idx = (j[:, None] + np.arange(-1, 1)[:, None]).reshape(-1, len(pts)) % S
    d2 = (pts[:, 0] - bgeom.points[idx, 0]) ** 2 + (pts[:, 1] - bgeom.points[idx, 1]) ** 2
    return np.where(d2 == d2.min(axis=0), idx, S).min(axis=0)


def boundary_gradient_samples(spec, grid, u, _phi_vals=None):
    """sup-norm data of grad u at the samples of `grid.boundary_geometry`.

    The normal derivative comes from the nodal gradient field (itself
    second-order accurate) sampled at one and two spacings inward and
    extrapolated linearly back to the boundary; the tangential
    derivative comes from the boundary data.  Falls back to one-sided
    value differencing where the interpolation cells are incomplete.
    Returns (grad_norms, normal_derivs, tangential_derivs).  `_phi_vals`
    is `spec.phi_links(grid)` when the caller already has it.
    """
    h, bgeom = grid.h, grid.boundary_geometry
    phi0 = spec.phi_at(bgeom.points)
    phi_m = spec.phi_at(bgeom.points_minus)
    phi_p = spec.phi_at(bgeom.points_plus)
    dphi_dt = (phi_p - phi_m) / (2.0 * bgeom.dt)
    tang_deriv = dphi_dt / bgeom.speed      # derivative along the sigma-unit tangent

    phi_vals = spec.phi_links(grid) if _phi_vals is None else _phi_vals
    op = grid.operator
    u_ext = op.extend(np.asarray(u, dtype=float), phi_vals)
    grad = np.column_stack([op.Gx @ u_ext, op.Gy @ u_ext])

    a, b = 1.5 * h, 2.5 * h   # gradient sample depths; cells there avoid ghosts
    y, eta = bgeom.points, bgeom.eta
    g1, ok1 = _bilinear(grid, grid.node_index, grad, y + a * eta)
    g2, ok2 = _bilinear(grid, grid.node_index, grad, y + b * eta)
    # linear extrapolation of the eta component back to the boundary
    d1 = g1[:, 0] * eta[:, 0] + g1[:, 1] * eta[:, 1]
    d2 = g2[:, 0] * eta[:, 0] + g2[:, 1] * eta[:, 1]
    norm_deriv = (b * d1 - a * d2) / (b - a)
    fallback = np.nonzero(~(ok1 & ok2))[0]
    if len(fallback):
        # values one and two spacings inward, interleaved per sample
        depth = np.array([h, 2.0 * h])[:, None]
        pts = (y[fallback, None] + depth * eta[fallback, None]).reshape(-1, 2)
        vals, _ = _bilinear(grid, grid.ext_index, u_ext[:, None], pts)
        if np.any(np.isnan(vals)):
            p = pts[np.argmax(np.isnan(vals[:, 0]))]
            raise CertificateFailed(f"no data near boundary point ({p[0]:.4g}, {p[1]:.4g})")
        u1, u2 = vals.reshape(-1, 2).T
        norm_deriv[fallback] = (-3.0 * phi0[fallback] + 4.0 * u1 - u2) / (2.0 * h)
    grad_norm = np.sqrt(norm_deriv ** 2 + tang_deriv ** 2)
    return grad_norm, norm_deriv, tang_deriv


# ---------------------------------------------------------------------------
# height barrier

@dataclass
class HeightCertificate:
    C: float
    A: float
    margin: np.ndarray       # (N,) min of upper and lower margins, per inside node
    crude_bound: float       # sup of the barrier over the domain
    crude_ok: bool


def _sigma_diameter_bound(grid):
    if grid.chart.flat_metric:
        return grid.domain.diameter_euclid()
    _, lam = _eig_bounds_2x2(grid.chart.metric_at(grid.points))
    return grid.domain.diameter_euclid() * float(np.sqrt(np.max(lam)))


def height_barrier(C, A, d):
    """Exponential distance barrier (e^{CA}/C)(1 - e^{-Cd})."""
    return np.exp(C * A) / C * (1.0 - np.exp(-C * np.asarray(d, dtype=float)))


def height_barrier_certificate(spec, grid, u, ladder=None, _phi_vals=None):
    """Smallest ladder constant whose distance barrier encloses u.

    Checks phi_sup + h(d) >= u and phi_inf - h(d) <= u at every inside
    node, and independently the crude bound
    sup|u| <= sup h + sup|phi|.  Raises CertificateFailed when the
    ladder is exhausted.  `_phi_vals` is `spec.phi_links(grid)` when the
    caller already has it.
    """
    u = grid.check_field(u, "u")
    phi_vals = spec.phi_links(grid) if _phi_vals is None else _phi_vals
    phi_sup, phi_inf = float(np.max(phi_vals)), float(np.min(phi_vals))
    d = grid.dist
    A = 1.01 * _sigma_diameter_bound(grid)
    tol = 1e-12 * (1.0 + np.max(np.abs(u)))
    margin = None
    for C in (LADDER if ladder is None else ladder):
        with np.errstate(over="ignore"):
            hvals = height_barrier(C, A, d)
        if not np.all(np.isfinite(hvals)):
            break   # barrier overflowed before enclosing u: report failure
        upper = phi_sup + hvals - u
        lower = u - (phi_inf - hvals)
        margin = np.minimum(upper, lower)
        if np.all(margin >= -tol):
            crude = float(np.max(hvals))
            crude_ok = bool(np.max(np.abs(u)) <= crude + max(abs(phi_sup), abs(phi_inf)) + 1e-9)
            return HeightCertificate(C=C, A=A, margin=margin,
                                     crude_bound=crude, crude_ok=crude_ok)
    if margin is None:
        raise CertificateFailed("height barrier overflowed on every ladder rung")
    k = int(np.argmin(margin))
    raise CertificateFailed(
        "height barrier ladder exhausted", node=k, point=tuple(grid.points[k])
    )


# ---------------------------------------------------------------------------
# boundary gradient barrier

@dataclass
class BarrierParams:
    K: float
    C: float
    eps: float

    @property
    def mu(self):
        return self.C / np.log1p(self.K)

    def psi(self, d):
        return self.mu * np.log1p(self.K * np.asarray(d, dtype=float))

    def psi_prime0(self):
        return self.mu * self.K


@dataclass
class GradientCertificate:
    params: BarrierParams
    extension: str            # "constant" or "linear_tilt"
    condition_ok: bool        # <grad phi_ext, eta> < -f^{1/2} delta . eta strictly
    sup_grad_boundary: float
    bound: float
    margin: np.ndarray
    checked_nodes: np.ndarray


def boundary_gradient_certificate(spec, grid, u, params=None, _samples=None):
    """Logarithmic barrier certificate for the boundary gradient.

    Verifies phi_ext + psi(d) >= u and phi_ext - psi(d) <= u on the
    tubular band, with phi extended constantly along inward normals (a
    linear tilt is substituted when the strict extension condition
    fails).  Reports sup |grad u| on the boundary and the bound implied
    by psi'(0) = mu K.  Searches (K, C) ladders when params is None, on
    the band d <= 0.3 sup d.  phi is read at the samples of
    `grid.boundary_geometry`.  `_samples` is `boundary_gradient_samples`
    of u when the caller already has it.
    """
    spec.check_grid(grid)
    u, bgeom = grid.check_field(u, "u"), grid.boundary_geometry
    d = grid.dist
    eps = params.eps if params is not None else 0.3 * float(np.max(d))
    band = np.nonzero(d <= eps)[0]
    if len(band) == 0:
        raise CertificateFailed("tubular band contains no node")

    # -f^{1/2} delta . eta: strictly positive is what the constant
    # extension needs
    threshold = -np.einsum("si,si->s", bgeom.tilt, bgeom.eta)
    condition_ok = bool(np.all(threshold > 1e-12))
    feet = _nearest_sample(grid, bgeom, grid.points[band])
    extension, phi_ext, slope_sup = "constant", spec.phi_at(bgeom.points[feet]), 0.0
    if not condition_ok:
        extension = "linear_tilt"
        slope = np.minimum(threshold, 0.0) - 1e-3
        phi_ext = phi_ext + slope[feet] * d[band]
        slope_sup = float(np.max(np.abs(slope)))

    if _samples is None:
        _samples = boundary_gradient_samples(spec, grid, u)
    grad_norm, _, tang = _samples
    sup_grad = float(np.max(grad_norm))
    tol = 1e-9 * (1.0 + np.max(np.abs(u)))

    def check(p):
        psi = p.psi(d[band])
        upper = phi_ext + psi - u[band]
        lower = u[band] - (phi_ext - psi)
        return np.minimum(upper, lower)

    candidates = [params] if params is not None else [
        BarrierParams(K=K, C=C, eps=eps) for K in LADDER for C in LADDER
    ]
    for p in candidates:
        margin = check(p)
        bound = np.hypot(p.psi_prime0() + slope_sup, np.max(np.abs(tang)))
        if np.all(margin >= -tol) and sup_grad <= bound + 1e-9:
            return GradientCertificate(
                params=p, extension=extension, condition_ok=condition_ok,
                sup_grad_boundary=sup_grad, bound=float(bound),
                margin=margin, checked_nodes=band,
            )
    k = int(band[np.argmin(margin)])
    raise CertificateFailed(
        "gradient barrier ladder exhausted", node=k, point=tuple(grid.points[k])
    )


# ---------------------------------------------------------------------------
# flux identity

@dataclass
class FluxResult:
    boundary: float
    bulk: float

    @property
    def imbalance(self):
        return self.boundary - self.bulk

    @property
    def relative(self):
        return abs(self.imbalance) / (abs(self.boundary) + abs(self.bulk) + 1.0)


def flux_balance(spec, grid, u, _samples=None, _H_vals=None):
    """Boundary flux of <Y, nu> against the bulk flux of n H <Y, N>.

    Both sides are expressed in base data: the boundary integrand is
    -f^{-1/2} hat_u(eta) / W per sigma arclength at the samples of
    `grid.boundary_geometry`, the bulk integrand is n H (1/W) times the
    graph area element W f^{-1/2} per sigma area, that is n H f^{-1/2}.
    `_samples` (`boundary_gradient_samples` of u) and `_H_vals`
    (`spec.H_nodes(grid)`) are for a caller that already has them.
    """
    u, bgeom = grid.check_field(u, "u"), grid.boundary_geometry
    if _samples is None:
        _samples = boundary_gradient_samples(spec, grid, u)
    _, norm_deriv, tang_deriv = _samples
    f_b = spec.chart.f_at(bgeom.points)
    t_unit = bgeom.tangents / bgeom.speed[:, None]
    uhat_eta = norm_deriv + np.einsum("si,si->s", bgeom.tilt, bgeom.eta)
    uhat_tan = tang_deriv + np.einsum("si,si->s", bgeom.tilt, t_unit)
    W_b = np.sqrt(f_b + uhat_eta ** 2 + uhat_tan ** 2)
    boundary = float(np.sum(-uhat_eta / (W_b * np.sqrt(f_b)) * bgeom.weights))

    H_vals = spec.H_nodes(grid) if _H_vals is None else _H_vals
    # n H <Y, N> = n H / W times the graph area element W / sqrt(f)
    # relative to sqrt(sigma) dx
    bulk = integrate(grid, DIM * H_vals / np.sqrt(grid.operator.node_f))
    return FluxResult(boundary=boundary, bulk=bulk)


# ---------------------------------------------------------------------------
# angle function

@dataclass
class ThetaReport:
    theta: np.ndarray            # 1 / W, the normal-to-fiber pairing
    theta_fiber_scaled: np.ndarray  # f / W variant
    normalization_gap: float
    min_value: float
    min_node: int
    min_point: tuple
    band_min: float
    interior_min: float
    passed: bool


def theta_field(spec, grid, u, require_pass=True, _state=None, _H_vals=None):
    """Angle function Theta = <N, Y> = 1/W with its minimum location.

    For constant H the minimum must sit within 1.5 cells of the
    boundary, up to 1e-6.  Both the 1/W normalization and the
    fiber-scaled f/W variant are reported; the minimum principle is
    checked on 1/W.  `_state` (`op.state` of u) and `_H_vals`
    (`spec.H_nodes(grid)`) are for a caller that already has them.
    """
    H_vals = spec.H_nodes(grid) if _H_vals is None else _H_vals
    if not _is_constant(H_vals):
        raise ValueError("theta minimum principle applies to constant H only")
    u, op = grid.check_field(u, "u"), grid.operator
    W = (op.state(u, spec.phi_links(grid)) if _state is None else _state)[-1]
    theta = 1.0 / W
    theta_scaled = op.node_f / W
    gap = float(np.max(np.abs(theta_scaled - theta)))

    band = grid.dist <= 1.5 * grid.h
    band_min = float(np.min(theta[band])) if np.any(band) else np.inf
    interior_min = float(np.min(theta[~band])) if np.any(~band) else np.inf
    k = int(np.argmin(theta))
    passed = interior_min >= band_min - 1e-6
    report = ThetaReport(
        theta=theta, theta_fiber_scaled=theta_scaled, normalization_gap=gap,
        min_value=float(theta[k]), min_node=k, min_point=tuple(grid.points[k]),
        band_min=band_min, interior_min=interior_min, passed=passed,
    )
    if require_pass and not passed:
        raise MinPrincipleViolated(
            f"theta minimum {interior_min:.6g} in the interior undercuts the "
            f"boundary band minimum {band_min:.6g}",
            node=k, point=tuple(grid.points[k]),
        )
    return report


# ---------------------------------------------------------------------------
# full verification suite

@dataclass
class VerifyReport:
    items: dict = field(default_factory=dict)
    margins: dict = field(default_factory=dict)

    @property
    def passed(self):
        # advisory items (the solvability hypothesis is a property of the
        # problem, not of the solution) and skipped items do not gate
        return all(item.get("passed", False) for item in self.items.values()
                   if not (item.get("skipped", False) or item.get("advisory", False)))

    def to_json_dict(self):
        out = {"schema": 1, "passed": self.passed, "items": self.items}
        return json.loads(json.dumps(out, default=float))


def verify(spec, grid, u, newton_tol=1e-10, rng_seed=7):
    """Run every applicable certificate on a solved field.

    The problem data on the grid, the operator state and the boundary
    gradient samples are evaluated once and handed to every check.
    `newton_tol` must be finite and positive, as the solve's is.
    """
    _positive(newton_tol, "newton_tol")
    if isinstance(rng_seed, bool) or not isinstance(rng_seed, (int, np.integer)) or rng_seed < 0:
        raise InputError("rng_seed must be an integer >= 0")
    rep = VerifyReport()
    u = grid.check_field(u, "u")
    H_vals = spec.H_nodes(grid)
    phi_vals = spec.phi_links(grid)
    op = grid.operator

    r = op.residual(u, phi_vals, H_vals)
    res_inf = float(np.max(np.abs(r)))
    rep.items["residual"] = {
        "passed": bool(res_inf <= 2.0 * newton_tol),
        "residual_inf": res_inf,
        "tolerance": 2.0 * newton_tol,
    }

    # f |xi|^2 <= A xi xi <= W^2 |xi|^2 with A^ij = W^2 sigma^ij - hat_u^i hat_u^j in 8
    # random directions; |xi|^2 and hat_u . xi are each one product, a row per direction
    state = op.state(u, phi_vals)
    _, _, up1, up2, W = state
    xi = np.random.default_rng(rng_seed).normal(size=(8, 2))
    norm2 = (xi[:, :, None] * xi[:, None, :]).reshape(8, 4) @ op.node_siginv.reshape(-1, 4).T
    hi = W ** 2
    ratio = (hi * norm2 - (xi @ np.stack([up1, up2])) ** 2) / norm2
    lo = op.node_f
    ell_ok = bool(np.all(ratio >= lo * (1 - 1e-10) - 1e-10)
                  and np.all(ratio <= hi * (1 + 1e-10) + 1e-10))
    rep.items["ellipticity"] = {"passed": ell_ok}

    hypo = hypothesis_check(spec, grid.boundary_geometry, grid=grid, _H_vals=H_vals)
    samples = boundary_gradient_samples(spec, grid, u, _phi_vals=phi_vals)
    rep.items["hypothesis"] = dict(hypo.as_dict(), passed=hypo.passed,
                                   advisory=True)

    if hypo.passed:
        try:
            hc = height_barrier_certificate(spec, grid, u, _phi_vals=phi_vals)
            rep.items["height_barrier"] = {
                "passed": True, "C": hc.C, "A": hc.A,
                "min_margin": float(np.min(hc.margin)),
                "crude_ok": hc.crude_ok,
            }
            rep.margins["height"] = (np.arange(grid.num_inside), hc.margin)
        except CertificateFailed as exc:
            rep.items["height_barrier"] = {"passed": False, "reason": str(exc)}
        try:
            gc = boundary_gradient_certificate(spec, grid, u, _samples=samples)
            rep.items["gradient_barrier"] = {
                "passed": True, "K": gc.params.K, "C": gc.params.C,
                "mu": gc.params.mu, "extension": gc.extension,
                "sup_grad_boundary": gc.sup_grad_boundary, "bound": gc.bound,
                "min_margin": float(np.min(gc.margin)),
            }
            rep.margins["gradient"] = (gc.checked_nodes, gc.margin)
        except CertificateFailed as exc:
            rep.items["gradient_barrier"] = {"passed": False, "reason": str(exc)}
        try:
            eps_max = 0.3 * float(np.max(grid.dist))
            curve = riccati_evolution(spec.chart, spec.domain, eps_max,
                                      eps_max / 16.0, samples=64)
            envelope_ok = bool(np.all(curve.H_direct >= curve.H_envelope - 1e-6))
            rep.items["riccati"] = {
                "passed": curve.monotone() and envelope_ok,
                "monotone": curve.monotone(),
                "envelope_below": envelope_ok,
            }
        except TubularWidthExceeded as exc:
            rep.items["riccati"] = {"passed": False, "reason": str(exc)}
    else:
        for name in ("height_barrier", "gradient_barrier", "riccati"):
            rep.items[name] = {"passed": False, "skipped": True,
                               "reason": "hypothesis check failed"}

    flux = flux_balance(spec, grid, u, _samples=samples, _H_vals=H_vals)
    flux_tol = max(1e-2, 5.0 * grid.h)
    rep.items["flux"] = {
        "passed": bool(flux.relative <= flux_tol),
        "boundary": flux.boundary, "bulk": flux.bulk,
        "imbalance": flux.imbalance, "relative": flux.relative,
        "tolerance": flux_tol,
    }

    if _is_constant(H_vals):
        try:
            th = theta_field(spec, grid, u, _state=state, _H_vals=H_vals)
            rep.items["theta"] = {
                "passed": th.passed, "min_value": th.min_value,
                "min_point": list(th.min_point),
                "normalization_gap": th.normalization_gap,
            }
        except MinPrincipleViolated as exc:
            rep.items["theta"] = {"passed": False, "reason": str(exc)}
    else:
        rep.items["theta"] = {"passed": True, "skipped": True,
                              "reason": "H not constant"}
    return rep
