"""Structured finite-difference grids over curved planar domains.

Nodes live on a uniform lattice covering the domain's bounding box.
Classification: INTERIOR nodes have all four axis neighbors inside;
BOUNDARY_ADJACENT nodes have at least one axis neighbor outside, with
the fractional crossing theta in (0, 1] to the true boundary recorded
per link; DIRICHLET_GHOST nodes are outside nodes touching an inside
node along an axis (the slots where Dirichlet data enters stencils).

The grid holds geometry only: lattice maps, crossings, inward normals,
the distance field and quadrature weights.  Derivatives of node fields
are the operator's (`GraphOperator.Gx`/`Gy` over the ghost-extended
field).  The distance field to the boundary is analytic for flat
metrics and fast-swept first-order (by anti-diagonals) for general
sigma.  Grids are immutable after build.
"""

import csv
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .errors import EmptyDomain, InputError, StencilUnavailable
from .geometry import _inverse_metric, _sqrt_det, inverse_metric_at, validate_chart_at

OUTSIDE = 0
INTERIOR = 1
BOUNDARY_ADJACENT = 2
DIRICHLET_GHOST = 3

# link directions: +x, -x, +y, -y
DIR_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))
STEP_X = np.array([sx for sx, _ in DIR_STEPS])
STEP_Y = np.array([sy for _, sy in DIR_STEPS])

# the eikonal sweep evaluates runs of at most this many anti-diagonals at once
SWEEP_RUN_MAX = 64


# ---------------------------------------------------------------------------
# domain shapes

@dataclass(frozen=True)
class Disk:
    center: tuple
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise InputError("disk radius must be positive")

    def sdf(self, points):
        points = np.asarray(points, dtype=float)
        dx = points[..., 0] - self.center[0]
        dy = points[..., 1] - self.center[1]
        return np.hypot(dx, dy) - self.radius

    def bbox(self):
        cx, cy = self.center
        r = self.radius
        return (cx - r, cy - r, cx + r, cy + r)

    def boundary_period(self):
        return 2.0 * np.pi

    def boundary_point(self, t):
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape + (2,))
        out[..., 0] = self.center[0] + self.radius * np.cos(t)
        out[..., 1] = self.center[1] + self.radius * np.sin(t)
        return out

    def inward_normal_euclid(self, points):
        points = np.asarray(points, dtype=float)
        v = np.stack([self.center[0] - points[..., 0],
                      self.center[1] - points[..., 1]], axis=-1)
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    def diameter_euclid(self):
        return 2.0 * self.radius

    def describe(self):
        return {"shape": "disk", "center": list(self.center), "radius": self.radius}


@dataclass(frozen=True)
class Rectangle:
    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise InputError("rectangle requires x1 > x0 and y1 > y0")

    def sdf(self, points):
        points = np.asarray(points, dtype=float)
        dx = np.maximum(self.x0 - points[..., 0], points[..., 0] - self.x1)
        dy = np.maximum(self.y0 - points[..., 1], points[..., 1] - self.y1)
        inside = np.minimum(np.maximum(dx, dy), 0.0)
        outside = np.hypot(np.maximum(dx, 0.0), np.maximum(dy, 0.0))
        return inside + outside

    def bbox(self):
        return (self.x0, self.y0, self.x1, self.y1)

    def boundary_period(self):
        return 2.0 * ((self.x1 - self.x0) + (self.y1 - self.y0))

    def boundary_point(self, t):
        # counterclockwise: bottom, right, top, left
        w = self.x1 - self.x0
        h = self.y1 - self.y0
        t = np.mod(np.asarray(t, dtype=float), 2.0 * (w + h))
        out = np.empty(t.shape + (2,))
        s0 = t
        s1 = t - w
        s2 = t - w - h
        s3 = t - 2 * w - h
        on0 = t < w
        on1 = (t >= w) & (t < w + h)
        on2 = (t >= w + h) & (t < 2 * w + h)
        on3 = t >= 2 * w + h
        out[..., 0] = np.select([on0, on1, on2, on3],
                                [self.x0 + s0, self.x1, self.x1 - s2, self.x0])
        out[..., 1] = np.select([on0, on1, on2, on3],
                                [self.y0, self.y0 + s1, self.y1, self.y1 - s3])
        return out

    def inward_normal_euclid(self, points):
        points = np.asarray(points, dtype=float)
        # nearest edge decides the normal
        d_left = points[..., 0] - self.x0
        d_right = self.x1 - points[..., 0]
        d_bottom = points[..., 1] - self.y0
        d_top = self.y1 - points[..., 1]
        dists = np.stack([d_left, d_right, d_bottom, d_top], axis=-1)
        which = np.argmin(np.abs(dists), axis=-1)
        normals = np.array([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)])
        return normals[which]

    def diameter_euclid(self):
        return float(np.hypot(self.x1 - self.x0, self.y1 - self.y0))

    def describe(self):
        return {"shape": "rectangle", "x0": self.x0, "y0": self.y0,
                "x1": self.x1, "y1": self.y1}


# ---------------------------------------------------------------------------
# grid domain

@dataclass(frozen=True)
class GridDomain:
    """Immutable classified lattice with boundary links and distance data.

    Scalar fields over the grid are plain float arrays of length
    num_inside (interior + boundary-adjacent nodes, in build order);
    vector fields have shape (num_inside, 2) with contravariant
    components.
    """

    domain: object
    h: float
    x_origin: float
    y_origin: float
    nx: int
    ny: int
    cls: np.ndarray            # (ny, nx) classification codes
    inside_ij: np.ndarray      # (N, 2) lattice coords (ix, iy) of inside nodes
    node_index: np.ndarray     # (ny, nx) -> inside id or -1
    ghost_ij: np.ndarray       # (Ng, 2)
    ghost_index: np.ndarray    # (ny, nx) -> ghost id or -1
    points: np.ndarray         # (N, 2) coordinates of inside nodes
    ghost_points: np.ndarray   # (Ng, 2)
    neighbor_ext: np.ndarray   # (N, 4) extended id (inside id, or N + ghost id)
    link_node: np.ndarray      # (L,) inside node id of each boundary link
    link_dir: np.ndarray       # (L,) direction code 0..3
    link_theta: np.ndarray     # (L,) fractional crossing distance in (0, 1]
    link_points: np.ndarray    # (L, 2) boundary crossing coordinates
    eta: np.ndarray            # (L, 2) inward sigma-unit normal at crossings
    dist: np.ndarray           # (N,) sigma-distance to the boundary
    cell_frac: np.ndarray      # (N,) inside area fraction of each node cell
    ghost_frac: np.ndarray     # (Ng,) inside area fraction of ghost cells
    sliver_points: np.ndarray  # (Ns, 2) corner cells touching the domain diagonally
    sliver_frac: np.ndarray    # (Ns,)
    outer_mean: object         # (Ng + Ns, N) sparse: each ghost's mean over its
                               # inside axis neighbours, then each sliver's over
                               # its inside axis and diagonal neighbours
    # GraphOperators built on this grid, keyed by (id(chart), n); freed with it
    operators: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def num_inside(self):
        return len(self.inside_ij)

    @property
    def num_ghost(self):
        return len(self.ghost_ij)

    @property
    def num_links(self):
        return len(self.link_node)

    @property
    def interior_mask(self):
        mask = np.ones(self.num_inside, dtype=bool)
        mask[self.link_node] = False
        return mask

    def check_field(self, values, name="field"):
        values = np.asarray(values, dtype=float)
        if values.shape[0] != self.num_inside:
            raise InputError(
                f"{name} has {values.shape[0]} values, grid has {self.num_inside} nodes"
            )
        if not np.all(np.isfinite(values)):
            k = int(np.argmax(~np.isfinite(values.reshape(values.shape[0], -1)).all(axis=-1)))
            x, y = self.points[k]
            raise InputError(f"{name} is not finite at node ({x:.6g}, {y:.6g})")
        return values


def _classify(domain, h):
    bx0, by0, bx1, by1 = domain.bbox()
    x_origin = bx0 - 2.0 * h
    y_origin = by0 - 2.0 * h
    nx = int(np.ceil((bx1 + 2.0 * h - x_origin) / h - 1e-12)) + 1
    ny = int(np.ceil((by1 + 2.0 * h - y_origin) / h - 1e-12)) + 1
    xs = x_origin + h * np.arange(nx)
    ys = y_origin + h * np.arange(ny)
    X, Y = np.meshgrid(xs, ys)          # shape (ny, nx)
    P = np.stack([X, Y], axis=-1)
    sdf = domain.sdf(P)
    inside = sdf < 0.0
    cls = np.zeros((ny, nx), dtype=np.int8)
    cls[inside] = INTERIOR
    # boundary-adjacent: inside with an outside axis neighbor
    pad = np.zeros((ny + 2, nx + 2), dtype=bool)
    pad[1:-1, 1:-1] = inside
    nb_outside = (~pad[1:-1, 2:] | ~pad[1:-1, :-2] | ~pad[2:, 1:-1] | ~pad[:-2, 1:-1])
    cls[inside & nb_outside] = BOUNDARY_ADJACENT
    # ghosts: outside with an inside axis neighbor
    nb_inside = (pad[1:-1, 2:] | pad[1:-1, :-2] | pad[2:, 1:-1] | pad[:-2, 1:-1])
    cls[(~inside) & nb_inside] = DIRICHLET_GHOST
    return cls, x_origin, y_origin, nx, ny, P


def build_grid(domain, h, chart):
    """Build a classified grid for `domain` at spacing `h` under `chart`.

    Boundary crossings are located by root-finding the domain's signed
    distance along grid axes, for all links at once, bit for bit as one
    scipy `brentq` call per link would (`_brentq_lanes`).  sigma positive-
    definiteness and f > 0 are checked at every inside and ghost node
    here, before anything else can run.
    """
    if h <= 0:
        raise InputError("grid spacing h must be positive")
    cls, x_origin, y_origin, nx, ny, P = _classify(domain, h)

    inside_mask = (cls == INTERIOR) | (cls == BOUNDARY_ADJACENT)
    iy, ix = np.nonzero(inside_mask)
    if len(ix) == 0:
        raise EmptyDomain(f"no node of spacing {h} falls inside the domain")
    inside_ij = np.stack([ix, iy], axis=1)
    node_index = -np.ones((ny, nx), dtype=int)
    node_index[iy, ix] = np.arange(len(ix))
    points = P[iy, ix]

    gy, gx = np.nonzero(cls == DIRICHLET_GHOST)
    ghost_ij = np.stack([gx, gy], axis=1)
    ghost_index = -np.ones((ny, nx), dtype=int)
    ghost_index[gy, gx] = np.arange(len(gx))
    ghost_points = P[gy, gx]

    validate_chart_at(chart, np.vstack([points, ghost_points]) if len(gx) else points)

    n_inside = len(ix)
    ext = _ext_index(node_index, ghost_index, n_inside)
    neighbor_ext = ext[iy[:, None] + STEP_Y, ix[:, None] + STEP_X]
    if np.any(neighbor_ext < 0):
        n = int(np.nonzero(neighbor_ext < 0)[0][0])
        raise StencilUnavailable(
            f"neighbor of inside node ({points[n,0]:.6g},{points[n,1]:.6g}) "
            "is outside without a ghost slot"
        )
    # one link per ghost neighbor, node-major and direction-minor
    link_node, link_dir = np.nonzero(neighbor_ext >= n_inside)
    base, step = points[link_node], np.array(DIR_STEPS, dtype=float)[link_dir]
    t_cross = np.full(len(link_node), h, dtype=float)
    fb = domain.sdf(base + t_cross[:, None] * step)
    cut = np.nonzero(fb > 0.0)[0]
    _brentq_lanes(lambda t, k: domain.sdf(base[k] + t[:, None] * step[k]),
                  cut, 0.0, h, fb[cut], t_cross, xtol=1e-13, rtol=1e-15)
    link_theta = np.minimum(np.maximum(t_cross / h, 1e-12), 1.0)
    link_pts = base + t_cross[:, None] * step

    eta = _inward_sigma_normals(chart, link_pts, domain.inward_normal_euclid(link_pts))
    dist = _distance_field(domain, chart, points, node_index, inside_ij, h, link_pts, link_node)
    cell_frac, ghost_frac, sliver_ij, sliver_frac = _cell_fractions(
        domain, P, cls, inside_ij, ghost_ij, h)

    cells = np.vstack([ghost_ij, sliver_ij])
    nbrs = np.stack([_lattice_at(node_index, cells[:, 0] + sx, cells[:, 1] + sy)
                     for sx, sy in DIR_STEPS + ((1, 1), (1, -1), (-1, 1), (-1, -1))], axis=1)
    nbrs[:len(ghost_ij), 4:] = -1
    has = nbrs >= 0
    rows = np.nonzero(has)[0]
    outer_mean = sp.csr_matrix((1.0 / has.sum(axis=1)[rows], (rows, nbrs[has])),
                               shape=(len(cells), n_inside))

    return GridDomain(
        domain=domain, h=h, x_origin=x_origin, y_origin=y_origin, nx=nx, ny=ny,
        cls=cls, inside_ij=inside_ij, node_index=node_index,
        ghost_ij=ghost_ij, ghost_index=ghost_index,
        points=points, ghost_points=ghost_points, neighbor_ext=neighbor_ext,
        link_node=link_node, link_dir=link_dir, link_theta=link_theta,
        link_points=link_pts,
        eta=eta, dist=dist, cell_frac=cell_frac, ghost_frac=ghost_frac,
        sliver_points=P[sliver_ij[:, 1], sliver_ij[:, 0]], sliver_frac=sliver_frac,
        outer_mean=outer_mean,
    )


def _brentq_lanes(f, lanes, xa, xb, fb, out, xtol, rtol, maxiter=100):
    """Write to out[k] the root in [xa, xb] of f(., k) for each lane k of
    `lanes`, given f(xa, k) < 0 < f(xb, k) = fb.  A lockstep port of
    scipy's `brentq.c`: each lane runs its float operations in its order,
    so the roots are those of `scipy.optimize.brentq(f, xa, xb, xtol, rtol)`."""
    n = len(lanes)
    xpre, xcur, xblk, spre, scur = np.full(n, xa), np.full(n, xb), *np.zeros((3, n))
    fpre, fcur, fblk = f(xpre, lanes), fb, np.zeros(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(maxiter):
            new = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
            xblk, fblk, spre, scur = np.where(new, [xpre, fpre, xcur - xpre, xcur - xpre],
                                              [xblk, fblk, spre, scur])
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk, fpre, fcur, fblk = np.where(
                swap, [xcur, xblk, xcur, fcur, fblk, fcur], [xpre, xcur, xblk, fpre, fcur, fblk])
            delta = (xtol + rtol * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            done = (fcur == 0) | (np.abs(sbis) < delta)
            out[lanes[done]] = xcur[done]
            if done.all():
                return
            lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                v[~done] for v in (lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur,
                                   delta, sbis))
            # secant, or inverse quadratic once xpre has left the bracket
            # end; bisection unless that step is short enough
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(xpre == xblk, -fcur * (xcur - xpre) / (fcur - fpre),
                            -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)))
            short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                     & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)))
            spre, scur = np.where(short, [scur, stry], sbis)
            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
            fcur = f(xcur, lanes)
    raise RuntimeError(f"brentq failed to converge after {maxiter} iterations")


def _ext_index(node_index, ghost_index, n_inside):
    """(ny, nx) lattice -> extended id: inside id, n_inside + ghost id, or -1."""
    return np.where(node_index >= 0, node_index,
                    np.where(ghost_index >= 0, n_inside + ghost_index, -1))


def _lattice_at(index, ix, iy):
    """index[iy, ix] per entry, or -1 where (ix, iy) is off the lattice."""
    ny, nx = index.shape
    ok = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
    out = -np.ones(np.shape(ix), dtype=int)
    out[ok] = index[iy[ok], ix[ok]]
    return out


def _inward_sigma_normals(chart, points, m):
    """Inward sigma-unit normals at boundary `points` from the unit
    Euclidean inward covectors `m` there: m raised by sigma^{-1}, which
    is sigma-orthogonal to the boundary, then sigma-normalised."""
    v = np.einsum("...ij,...j->...i", inverse_metric_at(chart, points), m)
    norm = np.sqrt(np.einsum("...i,...i->...", m, v))
    return v / norm[..., None]


def _distance_field(domain, chart, points, node_index, inside_ij, h, link_pts, link_node):
    if chart.flat_metric:
        return -domain.sdf(points)
    return _fast_sweep(domain, chart, points, node_index, inside_ij, h, link_pts, link_node)


def distance_field(grid, chart):
    """Distance to the boundary in the sigma metric, per inside node.

    Analytic for flat charts; a first-order fast-sweeping eikonal
    solution of |grad d|_sigma = 1 with d = 0 on the boundary otherwise
    (`_fast_sweep`).  Its result is that of a node-by-node row-major
    Gauss-Seidel sweep, bit for bit: nodes on one anti-diagonal
    (ix +- iy = const) never read each other, so a diagonal is updated at
    once; runs of diagonals are evaluated together, and only the first
    one that changes is applied, since no diagonal before it changed
    anything it reads.
    """
    return _distance_field(grid.domain, chart, grid.points, grid.node_index,
                           grid.inside_ij, grid.h, grid.link_points,
                           grid.link_node)


def _fast_sweep(domain, chart, points, node_index, inside_ij, h, link_pts, link_node):
    """Fast-sweeping eikonal distance (Zhao 2005), equal bit for bit to
    `tests/test_equivalence.row_major_sweep`.

    Boundary-adjacent nodes are frozen at their sigma chord length to
    the nearest crossing within 2h.  Each pass runs the four orderings
    (+,+), (+,-), (-,+), (-,-) by anti-diagonals (`_sweep_pass`); after a
    pass that changed something, one Jacobi evaluation of every open
    node decides whether another pass would, in place of the row-major
    sweep's last pass, which changes nothing.
    """
    n = len(points)
    d = np.full(n + 1, np.inf)      # d[n] stands in for a missing neighbour
    sig = chart.metric_at(points)
    siginv = _inverse_metric(chart, sig)

    # freeze only boundary-adjacent nodes, at the local chord distance to
    # crossings within 2h: a padded ball query, then the exact test and
    # the sigma length per (node, crossing) pair, the least per node
    frozen = np.zeros(n, dtype=bool)
    if len(link_pts):
        ks = np.unique(link_node)
        near = cKDTree(link_pts).query_ball_point(points[ks], 2.0 * h * (1.0 + 1e-9))
        rows = np.repeat(ks, [len(ids) for ids in near])
        delta = link_pts[np.concatenate(near).astype(int)] - points[rows]
        keep = np.hypot(delta[:, 0], delta[:, 1]) <= 2.0 * h
        rows, dl = rows[keep], delta[keep]
        np.minimum.at(d, rows, np.sqrt(np.einsum("kj,kjl,kl->k", dl, sig[rows], dl)))
        frozen[ks] = True

    ix, iy = inside_ij[:, 0], inside_ij[:, 1]
    nbr = node_index[iy[:, None] + STEP_Y, ix[:, None] + STEP_X]
    nbr[nbr < 0] = n
    s11, s12, s22 = siginv[:, 0, 0], siginv[:, 0, 1], siginv[:, 1, 1]
    s12e = np.stack([s12, -s12])                    # both upwind signs
    A = s11 + 2 * s12e + s22
    # where A <= 0 the quadratic has no upwind root: a NaN divisor makes
    # the root NaN, which the upwind test in `_upwind_candidates` drops
    coef = np.vstack([s11, s22, h / np.sqrt(s11), h / np.sqrt(s22),
                      s12e, 2 * s12e, 4 * A, np.where(A > 0, 2 * A, np.nan)])

    # the (+,+) and (+,-) orderings laid out contiguously, anti-diagonal
    # (ix + iy, ix - iy = const) after anti-diagonal; the (-,+) and (-,-)
    # orderings read the same arrays backwards
    open_ids = np.nonzero(~frozen)[0]
    layouts = []
    for key in (ix + iy, ix - iy):
        ids = open_ids[np.argsort(key[open_ids], kind="stable")]
        starts = np.unique(np.r_[0, np.nonzero(np.diff(key[ids]))[0] + 1, len(ids)])
        layouts.append((ids, nbr[ids].T.copy(), coef[:, ids], starts))
    layouts += [(ids[::-1], nb[:, ::-1], cf[:, ::-1], starts[-1] - starts[::-1])
                for ids, nb, cf, starts in layouts[::-1]]

    every = layouts[0][:3]      # all open nodes
    with np.errstate(invalid="ignore"):
        for _ in range(30):
            # a pass changes something iff a candidate on the current d is better
            if not _sweep_pass(d, layouts, h) or not _upwind_candidates(d, *every, h)[1].any():
                break
    return d[:n].copy()


def _sweep_pass(d, layouts, h):
    """One Gauss-Seidel pass over the four orderings, a run of
    anti-diagonals per kernel call; True if any node changed.

    A run is evaluated on the current d.  Its diagonals before the first
    one with a better candidate change nothing in Gauss-Seidel either,
    and that one reads nothing that changed, so its updates are exactly
    Gauss-Seidel's; the candidates after it are discarded.  Runs double
    while they change nothing and restart at one diagonal after a change.
    """
    changed = False
    for ids, nb, coef, starts in layouts:
        starts, k, run, last = starts.tolist(), 0, 1, len(starts) - 1
        while k < last:
            lo, hi = starts[k], starts[min(k + run, last)]
            cand, better = _upwind_candidates(d, ids[lo:hi], nb[:, lo:hi], coef[:, lo:hi], h)
            first = better.argmax()
            if not better[first]:
                k, run = k + run, min(2 * run, SWEEP_RUN_MAX)
                continue
            k = bisect_right(starts, lo + first)    # past the diagonal of `first`
            end = starts[k] - lo
            better = better[:end]
            d[ids[lo:lo + end][better]] = cand[:end][better]
            changed, run = True, 1
    return changed


def _upwind_candidates(d, ids, nb, coef, h):
    """Each node's upwind update from d[nb], both s12 signs at once, with
    the float operations of the scalar update in the same order; and
    where it improves d[ids]."""
    s11, s22, hx, hy = coef[:4]
    s12e, s12e2, A4, A2 = coef[4:6], coef[6:8], coef[8:10], coef[10:]
    nd = d[nb]
    a = np.minimum(nd[0], nd[1])
    b = np.minimum(nd[2], nd[3])
    s11a, s22b = s11 * a, s22 * b
    # B = -2 (s11 a + s12e (a + b) + s22 b); -B = nB and B * B = nB * nB exactly
    nB = 2 * (s11a + s12e * (a + b) + s22b)
    C = s11a * a + s12e2 * a * b + s22b * b - h * h
    root = (nB + np.sqrt(nB * nB - A4 * C)) / A2
    # upwind: a root counts only at or above both neighbours; NaN roots
    # (negative discriminant, A <= 0) add nothing, nor does a missing
    # neighbour, where the bound is inf
    root = np.where(root >= np.maximum(a, b), root, np.inf)
    cand = np.minimum(np.minimum(a + hx, b + hy), np.minimum(root[0], root[1]))
    return cand, cand < d[ids] - 1e-14


def _cell_fractions(domain, P, cls, inside_ij, ghost_ij, h):
    offs = (np.arange(4) - 1.5) / 4.0 * h   # 4x4 midpoint subsample offsets
    ox, oy = np.meshgrid(offs, offs)
    sub = np.stack([ox.ravel(), oy.ravel()], axis=-1)   # (16, 2)

    def frac_for(pts):
        if len(pts) == 0:
            return np.zeros(0)
        centers = domain.sdf(pts)
        out = np.empty(len(pts))
        full_in = centers <= -0.7072 * h
        full_out = centers >= 0.7072 * h
        out[full_in] = 1.0
        out[full_out] = 0.0
        mid = ~(full_in | full_out)
        if np.any(mid):
            probe = pts[mid][:, None, :] + sub[None, :, :]
            out[mid] = np.mean(domain.sdf(probe) < 0.0, axis=1)
        return out

    frac_inside = frac_for(P[inside_ij[:, 1], inside_ij[:, 0]])
    frac_ghost = frac_for(P[ghost_ij[:, 1], ghost_ij[:, 0]])

    # corner slivers: outside, non-ghost cells that still overlap the domain
    # (diagonal contact only); needed so node cells tile the domain exactly
    sy, sx = np.nonzero(cls == OUTSIDE)
    near = np.abs(domain.sdf(P[sy, sx])) < 0.7072 * h
    sy, sx = sy[near], sx[near]
    frac = frac_for(P[sy, sx])
    keep = frac > 0.0
    return frac_inside, frac_ghost, np.stack([sx[keep], sy[keep]], axis=1), frac[keep]


# ---------------------------------------------------------------------------
# quadrature

def integrate(grid, values, chart):
    """Integral of a node field against the sigma area element.

    Cells cut by the boundary are weighted by their inside area
    fraction (4x4 midpoint subsampling); boundary slivers under ghost
    cells take the mean value of their inside neighbors.  First-order
    accurate at the boundary, second-order inside.
    """
    values = grid.check_field(values, "integrand")
    cell_values = np.concatenate([values, grid.outer_mean @ values])
    frac = np.concatenate([grid.cell_frac, grid.ghost_frac, grid.sliver_frac])
    pts = np.vstack([grid.points, grid.ghost_points, grid.sliver_points])
    covered = frac > 0.0
    area = _sqrt_det(chart.metric_at(pts[covered])) * frac[covered] * grid.h ** 2
    return float(np.sum(cell_values[covered] * area))


# ---------------------------------------------------------------------------
# field I/O

def write_field_csv(path, grid, values, name="value"):
    """Write `x,y,<name>` rows over inside nodes; round-trips exactly."""
    values = grid.check_field(values, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", name])
        for (x, y), v in zip(grid.points, values):
            writer.writerow([f"{x:.17g}", f"{y:.17g}", f"{v:.17g}"])


def read_field_csv(path, grid=None):
    """Read a field CSV; verifies node order against `grid` when given."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=float)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read field file {path}: {exc}") from None
    data = np.atleast_2d(data)
    if data.shape[1] != 3:
        raise InputError(f"{path}: expected 3 columns x,y,value")
    if grid is not None:
        if data.shape[0] != grid.num_inside:
            raise InputError(
                f"{path}: {data.shape[0]} rows but grid has {grid.num_inside} nodes"
            )
        if not np.allclose(data[:, :2], grid.points, atol=1e-9 * max(grid.h, 1.0)):
            raise InputError(f"{path}: node coordinates do not match the grid")
    return data[:, 2].copy()
