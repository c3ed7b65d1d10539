"""Riemannian submersion charts and derived pointwise geometry.

A chart packages the base data of a Killing fibration over a planar
domain: the base metric sigma_ij(x), the fiber weight f(x) = 1/|Y|^2
for the vertical Killing field Y, and the section tilt covector
delta_i(x) of the reference section.  Everything the mean curvature
operator and the estimate machinery need is derived from (sigma, f,
delta) pointwise:

  inverse metric      sigma^ij
  Christoffel symbols Gamma^k_ij = 1/2 sigma^kl (d_i sigma_jl + d_j sigma_il - d_l sigma_ij)
  kappa vector        kappa_i = d_i f / (2 f)          (horizontal fiber acceleration)
  bracket twist       gamma_kj = d_j(f^{1/2} delta_k) - d_k(f^{1/2} delta_j)
  section gradient    D_i(s) = -f^{1/2} delta_i

Charts are restricted to coordinate base frames, which is what makes
the gamma formula above valid; user charts supplied as node tables are
interpolated bilinearly.  Charts are immutable and all evaluations are
pure functions of (chart, x), so they are safe to share.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InputError, NonPositiveDefinite
from .expr import compile_expression

EIG_FLOOR = 1e-12  # below this, sigma or f counts as degenerate


@dataclass(frozen=True)
class SubmersionChart:
    """Base data (sigma, f, delta) of a submersion chart, dimension 2.

    metric, f and delta are vectorized callables over points of shape
    (..., 2) returning shapes (..., 2, 2), (...,) and (..., 2).
    ric_lower is a caller-supplied lower bound for the ambient Ricci
    curvature; it is stored, never computed.
    """

    name: str
    metric: Callable
    f: Callable
    delta: Callable
    ric_lower: float = 0.0
    flat_metric: bool = False  # sigma identically the identity
    dim: int = 2
    params: dict = field(default_factory=dict)

    def metric_at(self, points):
        points = np.asarray(points, dtype=float)
        sig = np.asarray(self.metric(points), dtype=float)
        # symmetrize so downstream symmetry claims hold bitwise
        return 0.5 * (sig + np.swapaxes(sig, -1, -2))

    def f_at(self, points):
        points = np.asarray(points, dtype=float)
        return np.asarray(self.f(points), dtype=float)

    def delta_at(self, points):
        points = np.asarray(points, dtype=float)
        return np.asarray(self.delta(points), dtype=float)


def _eig_bounds_2x2(sig):
    a = sig[..., 0, 0]
    b = sig[..., 0, 1]
    c = sig[..., 1, 1]
    half_tr = 0.5 * (a + c)
    disc = np.sqrt(0.25 * (a - c) ** 2 + b * b)
    return half_tr - disc, half_tr + disc


def _sqrt_det(sig):
    """sqrt(det sigma) pointwise: the sigma area element."""
    return np.sqrt(sig[..., 0, 0] * sig[..., 1, 1] - sig[..., 0, 1] ** 2)


def inverse_metric_at(chart, x):
    """Pointwise inverse metric sigma^ij; raises NonPositiveDefinite."""
    return _inverse_metric(chart, chart.metric_at(x))


def _inverse_metric(chart, sig):
    """sigma^ij of metric values `sig` of `chart`; raises NonPositiveDefinite.

    For callers that need sigma itself too, so it is evaluated once.
    """
    lo, _ = _eig_bounds_2x2(sig)
    if np.any(lo <= EIG_FLOOR):
        bad = np.argwhere(np.atleast_1d(lo) <= EIG_FLOOR)
        raise NonPositiveDefinite(
            f"metric eigenvalue {np.min(lo):.3e} <= {EIG_FLOOR} on chart "
            f"{chart.name!r} (first offending evaluation index {bad[0]})"
        )
    det = sig[..., 0, 0] * sig[..., 1, 1] - sig[..., 0, 1] ** 2
    inv = np.empty_like(sig)
    inv[..., 0, 0] = sig[..., 1, 1] / det
    inv[..., 1, 1] = sig[..., 0, 0] / det
    inv[..., 0, 1] = -sig[..., 0, 1] / det
    inv[..., 1, 0] = inv[..., 0, 1]
    return inv


def _central_partials(F, x, h_fd):
    """d_a F(x) for a = 0, 1 by central differences with step h_fd.  The
    index a follows x's point axes: shape x.shape[:-1] + (2,) + F's."""
    x = np.asarray(x, dtype=float)
    return np.stack([(F(x + step) - F(x - step)) / (2.0 * h_fd) for step in h_fd * np.eye(2)],
                    axis=x.ndim - 1)


def _tilt(chart, x):
    """The section tilt f^{1/2} delta_i pointwise."""
    return np.sqrt(chart.f_at(x))[..., None] * chart.delta_at(x)


def christoffels_at(chart, x, h_fd):
    """Christoffel symbols Gamma^k_ij of sigma, shape (..., 2, 2, 2) = [k,i,j].

    Partials are taken by central differences with step h_fd; exactly
    symmetric in (i, j) by construction.
    """
    if h_fd <= 0:
        raise ValueError("h_fd must be positive")
    inv = inverse_metric_at(chart, x)
    dsig = _central_partials(chart.metric_at, x, h_fd)  # [a, i, j] = d_a sigma_ij
    # bracket[l,i,j] = d_i sigma_jl + d_j sigma_il - d_l sigma_ij
    bracket = (np.einsum("...ijl->...lij", dsig)
               + np.einsum("...jil->...lij", dsig)
               - dsig)
    return 0.5 * np.einsum("...kl,...lij->...kij", inv, bracket)


def kappa_vector_at(chart, x, h_fd):
    """Covector kappa_i = d_i f / (2 f): the horizontal part of the fiber acceleration."""
    if h_fd <= 0:
        raise ValueError("h_fd must be positive")
    return _central_partials(chart.f_at, x, h_fd) / (2.0 * chart.f_at(x)[..., None])


def gamma_at(chart, x, h_fd):
    """Antisymmetric twist gamma_kj = d_j(f^{1/2} delta_k) - d_k(f^{1/2} delta_j).

    Returned matrix satisfies gamma + gamma^T = 0 exactly in floating
    point.  Vanishes for integrable (zero tilt) charts.
    """
    if h_fd <= 0:
        raise ValueError("h_fd must be positive")
    # D[a, b] = d_a (f^{1/2} delta_b)
    D = _central_partials(lambda p: _tilt(chart, p), x, h_fd)
    # gamma[k, j] = D[j, k] - D[k, j]
    return np.swapaxes(D, -1, -2) - D


def section_gradient_s_at(chart, x):
    """Covector D_i(s) = -f^{1/2} delta_i; exact pointwise, no differencing."""
    return -_tilt(chart, x)


def validate_chart_at(chart, points, what="grid node"):
    """Assert sigma positive definite and f positive at every point.

    Raises NonPositiveDefinite naming the first offending point.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    sig = chart.metric_at(points)
    lo, _ = _eig_bounds_2x2(sig)
    fvals = chart.f_at(points)
    bad_sig = lo <= EIG_FLOOR
    bad_f = fvals <= EIG_FLOOR
    if np.any(bad_sig):
        k = int(np.argmax(bad_sig))
        raise NonPositiveDefinite(
            f"chart {chart.name!r}: metric eigenvalue {lo[k]:.3e} <= {EIG_FLOOR} "
            f"at {what} ({points[k, 0]:.6g}, {points[k, 1]:.6g})"
        )
    if np.any(bad_f):
        k = int(np.argmax(bad_f))
        raise NonPositiveDefinite(
            f"chart {chart.name!r}: f = {fvals[k]:.3e} <= {EIG_FLOOR} "
            f"at {what} ({points[k, 0]:.6g}, {points[k, 1]:.6g})"
        )


# ---------------------------------------------------------------------------
# built-in geometries

def _identity_metric(points):
    points = np.asarray(points, dtype=float)
    out = np.zeros(points.shape[:-1] + (2, 2))
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = 1.0
    return out


def _zero_covector(points):
    points = np.asarray(points, dtype=float)
    return np.zeros(points.shape[:-1] + (2,))


def _one(points):
    points = np.asarray(points, dtype=float)
    return np.ones(points.shape[:-1])


def euclidean():
    """Flat base, unit fiber, zero tilt: graphs in Euclidean 3-space."""
    return SubmersionChart(
        name="euclidean",
        metric=_identity_metric,
        f=_one,
        delta=_zero_covector,
        ric_lower=0.0,
        flat_metric=True,
    )


def heisenberg():
    """Flat base, unit fiber, tilt delta = (y/2, -x/2): the Nil3 fibration.

    The non-integrable horizontal distribution shows up as gamma_12 = 1.
    Ambient Ricci curvature is bounded below by -1/2 for this
    normalization (bundle curvature one half).
    """

    def delta(points):
        points = np.asarray(points, dtype=float)
        out = np.empty(points.shape[:-1] + (2,))
        out[..., 0] = 0.5 * points[..., 1]
        out[..., 1] = -0.5 * points[..., 0]
        return out

    return SubmersionChart(
        name="heisenberg",
        metric=_identity_metric,
        f=_one,
        delta=delta,
        ric_lower=-0.5,
        flat_metric=True,
    )


def warped(f, ric_lower=0.0, name="warped"):
    """Flat base, zero tilt, caller-supplied positive fiber weight f.

    `f` may be a callable over points or an expression string in x, y, r.
    ric_lower is the caller's responsibility: it must be a valid lower
    bound for the Ricci curvature of the resulting warped product.
    """
    if isinstance(f, str):
        f_expr = f
        f_fun = compile_expression(f)
        params = {"f": f_expr}
    elif callable(f):
        f_fun = f
        params = {}
    else:
        const = float(f)
        if const <= 0:
            raise InputError("warped fiber weight must be positive")
        f_fun = lambda points: np.full(np.asarray(points).shape[:-1], const)
        params = {"f": const}
    return SubmersionChart(
        name=name,
        metric=_identity_metric,
        f=f_fun,
        delta=_zero_covector,
        ric_lower=float(ric_lower),
        flat_metric=True,
        params=params,
    )


def hopf():
    """Chart of the Hopf fibration; disabled pending an independent
    normalization check of the connection covector."""
    raise NotImplementedError(
        "hopf chart is disabled: the connection covector normalization in "
        "stereographic coordinates has not been fixed against an "
        "independent oracle"
    )


BUILTIN_GEOMETRIES = {
    "euclidean": euclidean,
    "heisenberg": heisenberg,
    "warped": warped,
}

DISABLED_GEOMETRIES = {"hopf": "ships disabled; connection normalization unverified"}


def make_builtin(name, params=None):
    """Instantiate a built-in geometry by name with a parameter map."""
    params = dict(params or {})
    if name in DISABLED_GEOMETRIES:
        hopf()
    if name not in BUILTIN_GEOMETRIES:
        raise InputError(
            f"unknown geometry {name!r}; available: {', '.join(sorted(BUILTIN_GEOMETRIES))}"
        )
    if name == "warped":
        if "f" not in params:
            raise InputError("warped geometry requires an 'f' parameter")
        return warped(params["f"], ric_lower=float(params.get("ric_lower", 0.0)))
    if params:
        raise InputError(f"geometry {name!r} takes no parameters")
    return BUILTIN_GEOMETRIES[name]()


# ---------------------------------------------------------------------------
# user charts from node tables

class _BilinearTable:
    """Bilinear interpolation of a node table on a regular grid.

    Queries outside the table are clamped to the table edge, which
    gives constant extension; derived quantities differenced across the
    edge see a flat continuation there.
    """

    def __init__(self, x0, y0, hx, hy, table):
        self.x0, self.y0, self.hx, self.hy = x0, y0, hx, hy
        self.table = np.asarray(table, dtype=float)  # shape (ny, nx)
        self.ny, self.nx = self.table.shape

    def __call__(self, points):
        points = np.asarray(points, dtype=float)
        sx = np.clip((points[..., 0] - self.x0) / self.hx, 0.0, self.nx - 1.0)
        sy = np.clip((points[..., 1] - self.y0) / self.hy, 0.0, self.ny - 1.0)
        ix = np.clip(sx.astype(int), 0, self.nx - 2)
        iy = np.clip(sy.astype(int), 0, self.ny - 2)
        tx = sx - ix
        ty = sy - iy
        t = self.table
        return ((1 - tx) * (1 - ty) * t[iy, ix]
                + tx * (1 - ty) * t[iy, ix + 1]
                + (1 - tx) * ty * t[iy + 1, ix]
                + tx * ty * t[iy + 1, ix + 1])


_TABLE_KEYS = ("sigma11", "sigma12", "sigma22", "f", "delta1", "delta2")


def chart_from_file(path):
    """Load a user chart from a structured text file.

    Layout: `name = ...`, `grid = nx ny x0 y0 hx hy`, optionally
    `ric_lower = ...`, then one block per table key (sigma11, sigma12,
    sigma22, f, delta1, delta2) introduced by `[key]` followed by ny
    rows of nx comma-separated values, row-major from y0 upward.
    """
    name = None
    grid = None
    ric_lower = 0.0
    tables = {}
    current = None
    rows = []

    def close_block():
        if current is not None:
            tables[current] = np.array(rows, dtype=float)

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                close_block()
                current = line[1:-1].strip()
                rows = []
                if current not in _TABLE_KEYS:
                    raise InputError(f"{path}:{lineno}: unknown table {current!r}")
                continue
            if "=" in line and current is None:
                key, _, value = line.partition("=")
                key = key.strip()
                value = value.strip()
                if key == "name":
                    name = value
                elif key == "grid":
                    parts = value.replace(",", " ").split()
                    if len(parts) != 6:
                        raise InputError(f"{path}:{lineno}: grid needs nx ny x0 y0 hx hy")
                    grid = (int(parts[0]), int(parts[1]), float(parts[2]),
                            float(parts[3]), float(parts[4]), float(parts[5]))
                elif key == "ric_lower":
                    ric_lower = float(value)
                else:
                    raise InputError(f"{path}:{lineno}: unknown key {key!r}")
                continue
            if current is None:
                raise InputError(f"{path}:{lineno}: data outside a table block")
            rows.append([float(v) for v in line.replace(",", " ").split()])
    close_block()

    if name is None or grid is None:
        raise InputError(f"{path}: missing 'name' or 'grid'")
    missing = [k for k in _TABLE_KEYS if k not in tables]
    if missing:
        raise InputError(f"{path}: missing tables {missing}")
    nx, ny, x0, y0, hx, hy = grid
    for key, tab in tables.items():
        if tab.shape != (ny, nx):
            raise InputError(
                f"{path}: table {key!r} has shape {tab.shape}, expected ({ny}, {nx})"
            )

    interp = {k: _BilinearTable(x0, y0, hx, hy, tables[k]) for k in _TABLE_KEYS}

    def metric(points):
        points = np.asarray(points, dtype=float)
        out = np.empty(points.shape[:-1] + (2, 2))
        out[..., 0, 0] = interp["sigma11"](points)
        out[..., 0, 1] = interp["sigma12"](points)
        out[..., 1, 0] = out[..., 0, 1]
        out[..., 1, 1] = interp["sigma22"](points)
        return out

    def fval(points):
        return interp["f"](points)

    def delta(points):
        points = np.asarray(points, dtype=float)
        out = np.empty(points.shape[:-1] + (2,))
        out[..., 0] = interp["delta1"](points)
        out[..., 1] = interp["delta2"](points)
        return out

    flat = (np.allclose(tables["sigma11"], 1.0, atol=1e-14)
            and np.allclose(tables["sigma12"], 0.0, atol=1e-14)
            and np.allclose(tables["sigma22"], 1.0, atol=1e-14))

    return SubmersionChart(
        name=name, metric=metric, f=fval, delta=delta,
        ric_lower=ric_lower, flat_metric=flat,
        params={"file": str(path)},
    )
