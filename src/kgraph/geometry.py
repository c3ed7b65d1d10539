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

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError, NonPositiveDefinite
from .expr import compile_expression

EIG_FLOOR = 1e-12  # below this, sigma or f counts as degenerate
DIM = 2            # n, the dimension of the base: charts are planar


@dataclass(frozen=True)
class SubmersionChart:
    """Base data (sigma, f, delta) of a submersion chart, dimension 2.

    metric, f and delta are vectorized callables over points of shape
    (..., 2) returning shapes (..., 2, 2), (...,) and (..., 2).
    ric_lower is a caller-supplied lower bound for the ambient Ricci
    curvature; it is stored, never computed.  A chart declared
    `flat_metric` has sigma = I as declared: kgraph never calls its
    `metric` (`metric_at`, `metric_fields`).
    """

    name: str
    metric: Callable
    f: Callable
    delta: Callable
    ric_lower: float = 0.0
    flat_metric: bool = False  # sigma identically the identity, never evaluated

    def metric_at(self, points):
        points = np.asarray(points, dtype=float)
        if self.flat_metric:    # a read-only view of I
            return np.broadcast_to(_FLAT_FIELDS[0], points.shape[:-1] + (2, 2))
        sig = np.asarray(self.metric(points), dtype=float)
        # symmetrize so downstream symmetry claims hold bitwise
        return 0.5 * (sig + np.swapaxes(sig, -1, -2))

    def f_at(self, points):
        return np.asarray(self.f(np.asarray(points, dtype=float)), dtype=float)

    def delta_at(self, points):
        return np.asarray(self.delta(np.asarray(points, dtype=float)), dtype=float)


def _eig_bounds_2x2(sig):
    a = sig[..., 0, 0]
    b = sig[..., 0, 1]
    c = sig[..., 1, 1]
    half_tr = 0.5 * (a + c)
    disc = np.sqrt(0.25 * (a - c) ** 2 + b * b)
    return half_tr - disc, half_tr + disc


# sigma, sigma^ij (-0.0 off the diagonal, as inverted) and sqrt det sigma when flat
_FLAT_FIELDS = (np.eye(2), np.array([[1.0, -0.0], [-0.0, 1.0]]), np.float64(1.0))


def metric_fields(chart, points):
    """(sigma_ij, sigma^ij, sqrt det sigma) at `points` (..., 2).  A `flat_metric` chart
    gets the constants above as read-only views; its `metric` is never called.  Raises
    NonPositiveDefinite naming the first point whose least sigma eigenvalue is <= EIG_FLOOR."""
    points = np.asarray(points, dtype=float)
    if chart.flat_metric:
        return tuple(np.broadcast_to(c, points.shape[:-1] + c.shape) for c in _FLAT_FIELDS)
    return _fields_of(chart, chart.metric_at(points), points)


def _fields_of(chart, sig, points):
    """`metric_fields` of a chart that is not flat, from sigma's values `sig` at `points`."""
    lo = np.ravel(_eig_bounds_2x2(sig)[0])
    if np.any(lo <= EIG_FLOOR):
        k = int(np.argmax(lo <= EIG_FLOOR))
        x, y = points.reshape(-1, 2)[k]
        raise NonPositiveDefinite(f"chart {chart.name!r}: metric eigenvalue {lo[k]:.3e} <= "
                                  f"{EIG_FLOOR} at point ({x:.6g}, {y:.6g})")
    det = sig[..., 0, 0] * sig[..., 1, 1] - sig[..., 0, 1] ** 2
    inv = np.empty_like(sig)
    inv[..., 0, 0] = sig[..., 1, 1] / det
    inv[..., 1, 1] = sig[..., 0, 0] / det
    inv[..., 0, 1] = -sig[..., 0, 1] / det
    inv[..., 1, 0] = inv[..., 0, 1]
    return sig, inv, np.sqrt(det)


def inverse_metric_at(chart, x):
    """Pointwise inverse metric sigma^ij (`metric_fields`); raises NonPositiveDefinite."""
    return metric_fields(chart, x)[1]


def _central_partials(F, x, h_fd):
    """d_a F(x) for a = 0, 1 by central differences with step h_fd.  The
    index a follows x's point axes: shape x.shape[:-1] + (2,) + F's.
    F is called once, on the four stencil points stacked."""
    if h_fd <= 0:
        raise ValueError("h_fd must be positive")
    x = np.asarray(x, dtype=float)
    steps = h_fd * np.eye(2)
    vals = F(np.stack([x + steps[0], x + steps[1], x - steps[0], x - steps[1]]))
    return np.stack([(vals[a] - vals[a + 2]) / (2.0 * h_fd) for a in range(2)], axis=x.ndim - 1)


def _tilt(chart, x):
    """The section tilt f^{1/2} delta_i pointwise."""
    return np.sqrt(chart.f_at(x))[..., None] * chart.delta_at(x)


def christoffels_at(chart, x, h_fd):
    """Christoffel symbols Gamma^k_ij of sigma, shape (..., 2, 2, 2) = [k,i,j].

    Partials are taken by central differences with step h_fd; exactly
    symmetric in (i, j) by construction.
    """
    dsig = _central_partials(chart.metric_at, x, h_fd)  # [a, i, j] = d_a sigma_ij
    inv = inverse_metric_at(chart, x)
    # bracket[l,i,j] = d_i sigma_jl + d_j sigma_il - d_l sigma_ij
    bracket = (np.einsum("...ijl->...lij", dsig)
               + np.einsum("...jil->...lij", dsig)
               - dsig)
    return 0.5 * np.einsum("...kl,...lij->...kij", inv, bracket)


def kappa_vector_at(chart, x, h_fd):
    """Covector kappa_i = d_i f / (2 f): the horizontal part of the fiber acceleration."""
    return _central_partials(chart.f_at, x, h_fd) / (2.0 * chart.f_at(x)[..., None])


def gamma_at(chart, x, h_fd):
    """Antisymmetric twist gamma_kj = d_j(f^{1/2} delta_k) - d_k(f^{1/2} delta_j).

    Returned matrix satisfies gamma + gamma^T = 0 exactly in floating
    point.  Vanishes for integrable (zero tilt) charts.
    """
    # D[a, b] = d_a (f^{1/2} delta_b)
    D = _central_partials(lambda p: _tilt(chart, p), x, h_fd)
    # gamma[k, j] = D[j, k] - D[k, j]
    return np.swapaxes(D, -1, -2) - D


def section_gradient_s_at(chart, x):
    """Covector D_i(s) = -f^{1/2} delta_i; exact pointwise, no differencing."""
    return -_tilt(chart, x)


def validate_chart_at(chart, points):
    """`metric_fields` at `points`, once f > 0 there is checked too: a
    NonPositiveDefinite names the first offending point, sigma's first."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    fields = metric_fields(chart, points)
    f = chart.f_at(points)
    if np.any(f <= EIG_FLOOR):
        k = int(np.argmax(f <= EIG_FLOOR))
        raise NonPositiveDefinite(f"chart {chart.name!r}: f = {f[k]:.3e} <= {EIG_FLOOR} "
                                  f"at point ({points[k, 0]:.6g}, {points[k, 1]:.6g})")
    return fields


# ---------------------------------------------------------------------------
# built-in geometries

def _identity_metric(points):
    return np.tile(np.eye(2), np.shape(points)[:-1] + (1, 1))


def _zero_covector(points):
    return np.zeros(np.shape(points)[:-1] + (2,))


def _one(points):
    return np.ones(np.shape(points)[:-1])


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


def _heisenberg_delta(points):
    x, y = np.moveaxis(np.asarray(points, dtype=float), -1, 0)
    return np.stack([0.5 * y, -0.5 * x], axis=-1)


def heisenberg():
    """Flat base, unit fiber, tilt delta = (y/2, -x/2): the Nil3 fibration.

    The non-integrable horizontal distribution shows up as gamma_12 = 1.
    Ambient Ricci curvature is bounded below by -1/2 for this
    normalization (bundle curvature one half).
    """
    return SubmersionChart(
        name="heisenberg",
        metric=_identity_metric,
        f=_one,
        delta=_heisenberg_delta,
        ric_lower=-0.5,
        flat_metric=True,
    )


def warped(f, ric_lower=0.0, name="warped"):
    """Flat base, zero tilt, caller-supplied positive fiber weight f.

    `f` may be a callable over points, or an expression string in x, y, r
    or a positive number, compiled once per text so such charts compare equal.
    ric_lower is the caller's responsibility: it must be a valid lower
    bound for the Ricci curvature of the resulting warped product.
    """
    if not (callable(f) or isinstance(f, str)):
        if not 0.0 < float(f) < np.inf:
            raise InputError("warped fiber weight must be positive and finite")
        f = repr(float(f))
    return SubmersionChart(
        name=name,
        metric=_identity_metric,
        f=f if callable(f) else compile_expression(f),
        delta=_zero_covector,
        ric_lower=float(ric_lower),
        flat_metric=True,
    )


BUILTIN_GEOMETRIES = {
    "euclidean": euclidean,
    "heisenberg": heisenberg,
    "warped": warped,
}


def _number(text, what, kind=float):
    """kind(text), or an InputError naming `what`."""
    try:
        return kind(text)
    except ValueError:
        raise InputError(f"{what}: not a number: {str(text).strip()!r}") from None


def _positive(value, what):
    """value, or an InputError naming `what` unless it is finite and positive (a bool is not)."""
    if isinstance(value, bool) or not (np.isfinite(value) and value > 0):
        raise InputError(f"{what} must be finite and positive")
    return value


def _finite_reals(values, what, n):
    """values, or an InputError naming `what` unless n finite reals (a bool is not one)."""
    vals = np.asarray(values, dtype=object)
    if vals.shape != (n,) or not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                                     and np.isfinite(v) for v in vals):
        raise InputError(f"{what} must be {n} finite real numbers")


def make_builtin(name, params=None):
    """Instantiate a built-in geometry by name with a parameter map."""
    params = dict(params or {})
    if name not in BUILTIN_GEOMETRIES:
        raise InputError(
            f"unknown geometry {name!r}; available: {', '.join(sorted(BUILTIN_GEOMETRIES))}"
        )
    if name == "warped":
        if "f" not in params:
            raise InputError("warped geometry requires an 'f' parameter")
        return warped(params["f"], ric_lower=_number(params.get("ric_lower", 0.0), "ric_lower"))
    if params:
        raise InputError(f"geometry {name!r} takes no parameters")
    return BUILTIN_GEOMETRIES[name]()


# ---------------------------------------------------------------------------
# user charts from node tables

class _BilinearTable:
    """Bilinear interpolation of a node table on a regular grid.

    `grid_line` is the file's (nx, ny, x0, y0, hx, hy) and `table`
    has shape (ny, nx) + the value shape.  Queries outside the table are
    clamped to the table edge, which gives constant extension; derived
    quantities differenced across the edge see a flat continuation
    there.  Two tables are equal when their grid lines and values are.
    """

    def __init__(self, grid_line, table):
        self.grid_line = grid_line
        self.table = np.asarray(table, dtype=float)

    def __eq__(self, other):
        return (isinstance(other, _BilinearTable) and self.grid_line == other.grid_line
                and np.array_equal(self.table, other.table))

    def __hash__(self):
        return hash((self.grid_line, self.table.shape))

    def __call__(self, points):
        nx, ny, x0, y0, hx, hy = self.grid_line
        points = np.asarray(points, dtype=float)
        sx = np.clip((points[..., 0] - x0) / hx, 0.0, nx - 1.0)
        sy = np.clip((points[..., 1] - y0) / hy, 0.0, ny - 1.0)
        ix = np.clip(sx.astype(int), 0, nx - 2)
        iy = np.clip(sy.astype(int), 0, ny - 2)
        values = (...,) + (None,) * (self.table.ndim - 2)
        tx = (sx - ix)[values]
        ty = (sy - iy)[values]
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
    rows of nx comma-separated values, row-major from y0 upward.  The
    chart is flat only when every sigma entry is within 1e-14 of I.
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
                    what = f"{path}:{lineno}: grid"
                    grid = tuple(_number(p, what, kind) for p, kind in
                                 zip(parts, (int, int, float, float, float, float)))
                    _finite_reals(grid[2:4], f"{what}: x0 y0", 2)
                    _positive(grid[4], f"{what}: hx")
                    _positive(grid[5], f"{what}: hy")
                elif key == "ric_lower":
                    ric_lower = _number(value, f"{path}:{lineno}: ric_lower")
                else:
                    raise InputError(f"{path}:{lineno}: unknown key {key!r}")
                continue
            if current is None:
                raise InputError(f"{path}:{lineno}: data outside a table block")
            rows.append([_number(v, f"{path}:{lineno}: [{current}]")
                         for v in line.replace(",", " ").split()])
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

    sigma = [tables[k] for k in ("sigma11", "sigma12", "sigma12", "sigma22")]
    metric = _BilinearTable(grid, np.stack(sigma, axis=-1).reshape(ny, nx, 2, 2))
    delta = _BilinearTable(grid, np.stack([tables["delta1"], tables["delta2"]], axis=-1))

    flat = all(np.allclose(tables[k], v, rtol=0.0, atol=1e-14)
               for k, v in (("sigma11", 1.0), ("sigma12", 0.0), ("sigma22", 1.0)))

    return SubmersionChart(
        name=name, metric=metric, f=_BilinearTable(grid, tables["f"]), delta=delta,
        ric_lower=ric_lower, flat_metric=flat,
    )
