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
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .errors import EmptyDomain, InputError, StencilUnavailable
from .geometry import _sqrt_det, inverse_metric_at, validate_chart_at

OUTSIDE = 0
INTERIOR = 1
BOUNDARY_ADJACENT = 2
DIRICHLET_GHOST = 3

# link directions: +x, -x, +y, -y
DIR_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))
STEP_X = np.array([sx for sx, _ in DIR_STEPS])
STEP_Y = np.array([sy for _, sy in DIR_STEPS])


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
    solution of |grad d|_sigma = 1 with d = 0 on the boundary otherwise.
    The sweep updates whole anti-diagonals (ix +- iy = const) at once in
    each of its four orderings; every node reads the same neighbour
    values as in a node-by-node row-major Gauss-Seidel sweep, and one
    Jacobi check stands in for that sweep's last pass, which changes
    nothing, so the result is identical to that sweep's, bit for bit.
    """
    return _distance_field(grid.domain, chart, grid.points, grid.node_index,
                           grid.inside_ij, grid.h, grid.link_points,
                           grid.link_node)


def _fast_sweep(domain, chart, points, node_index, inside_ij, h, link_pts, link_node):
    n = len(points)
    d = np.full(n + 1, np.inf)      # d[n] stands in for a missing neighbour
    siginv = inverse_metric_at(chart, points)
    sig = chart.metric_at(points)

    # freeze only boundary-adjacent nodes, at the local chord distance to
    # crossings within 2h (a padded ball query, then the exact test)
    frozen = np.zeros(n, dtype=bool)
    if len(link_pts):
        ks = np.unique(link_node)
        near_ids = cKDTree(link_pts).query_ball_point(points[ks], 2.0 * h * (1.0 + 1e-9))
        for k, ids in zip(ks, near_ids):
            delta = link_pts[np.sort(ids)] - points[k]
            dl = delta[np.hypot(delta[:, 0], delta[:, 1]) <= 2.0 * h]
            d[k] = np.sqrt(np.einsum("kj,jl,kl->k", dl, sig[k], dl)).min()
        frozen[ks] = True

    ix, iy = inside_ij[:, 0], inside_ij[:, 1]
    nbr = node_index[iy[:, None] + STEP_Y, ix[:, None] + STEP_X]
    nbr[nbr < 0] = n
    s11, s12, s22 = siginv[:, 0, 0], siginv[:, 0, 1], siginv[:, 1, 1]
    node_data = np.column_stack([
        s11, s12, s22, h / np.sqrt(s11), h / np.sqrt(s22),
        s11 + 2 * s12 + s22, s11 + 2 * -s12 + s22])

    # open nodes grouped by anti-diagonal: ix + iy for the (+,+) and (-,-)
    # orderings, ix - iy for (+,-) and (-,+)
    open_ids = np.nonzero(~frozen)[0]
    families = []
    for key in (ix + iy, ix - iy):
        ids = open_ids[np.argsort(key[open_ids], kind="stable")]
        cuts = np.nonzero(np.diff(key[ids]))[0] + 1
        families.append([(i, nbr[i], node_data[i].T)
                         for i in np.split(ids, cuts) if len(i)])
    plus, minus = families
    orderings = (plus, minus, minus[::-1], plus[::-1])

    with np.errstate(invalid="ignore"):
        for _ in range(30):
            change = False
            for ordering in orderings:
                for ids, nb, data in ordering:
                    change |= _relax_diagonal(d, ids, nb, data, h)
            # a pass changes something iff a candidate on the current d is better
            if not change or not np.any(_upwind_candidates(
                    d, nbr[open_ids], node_data[open_ids].T, h) < d[open_ids] - 1e-14):
                break
    return d[:n].copy()


def _upwind_candidates(d, nb, data, h):
    """Each node's upwind update from d[nb], with the float operations of
    the scalar update in the same order."""
    s11, s12, s22, hx, hy, A_plus, A_minus = data
    nd = d[nb]
    a = np.minimum(nd[:, 0], nd[:, 1])
    b = np.minimum(nd[:, 2], nd[:, 3])
    cand = np.minimum(a + hx, b + hy)
    both = np.isfinite(a) & np.isfinite(b)
    top = np.maximum(a, b)
    # upwind signs: gradient points away from the smaller side
    for s12e, A in ((s12, A_plus), (-s12, A_minus)):
        B = -2 * (s11 * a + s12e * (a + b) + s22 * b)
        C = s11 * a * a + 2 * s12e * a * b + s22 * b * b - h * h
        disc = B * B - 4 * A * C
        root = (-B + np.sqrt(disc)) / (2 * A)
        ok = both & (disc >= 0) & (A > 0) & (root >= top)
        cand = np.where(ok, np.minimum(cand, root), cand)
    return cand


def _relax_diagonal(d, ids, nb, data, h):
    """Gauss-Seidel update of the nodes `ids`, none adjacent; True if any changed."""
    cand = _upwind_candidates(d, nb, data, h)
    better = cand < d[ids] - 1e-14
    d[ids[better]] = cand[better]
    return better.any()


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
