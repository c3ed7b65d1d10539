"""Structured finite-difference grids over curved planar domains.

Nodes live on a uniform lattice covering the domain's bounding box.
Classification: INTERIOR nodes have all four axis neighbors inside;
BOUNDARY_ADJACENT nodes have at least one axis neighbor outside, with
the fractional crossing theta in (0, 1] to the true boundary recorded
per link; DIRICHLET_GHOST nodes are outside nodes touching an inside
node along an axis (the slots where Dirichlet data enters stencils).

Stencils are plain second-order central differences at interior nodes
and Shortley-Weller one-sided corrected stencils (exact on quadratics
along each axis) at boundary-adjacent nodes.  The distance field to
the boundary is analytic for flat metrics and fast-swept first-order
(by anti-diagonals) for general sigma.  Grids are immutable after build;
stencil reads are pure per-node operations.
"""

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.spatial import cKDTree

from .errors import EmptyDomain, InputError, StencilUnavailable
from .geometry import inverse_metric_at, validate_chart_at

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
    link_index: dict           # (node, dir) -> link id
    eta: np.ndarray            # (L, 2) inward sigma-unit normal at crossings
    dist: np.ndarray           # (N,) sigma-distance to the boundary
    cell_frac: np.ndarray      # (N,) inside area fraction of each node cell
    ghost_frac: np.ndarray     # (Ng,) inside area fraction of ghost cells
    ghost_nbrs: list = field(default_factory=list)  # per ghost, inside node ids
    sliver_points: np.ndarray = None   # corner cells touching the domain diagonally
    sliver_frac: np.ndarray = None
    sliver_nbrs: list = field(default_factory=list)
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

    def node_point(self, node):
        return self.points[node]

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
    distance along grid axes.  sigma positive-definiteness and f > 0
    are checked at every inside and ghost node here, before anything
    else can run.
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
    link_theta = np.empty(len(link_node))
    link_pts = np.empty((len(link_node), 2))
    steps = np.array(DIR_STEPS, dtype=float)
    for k, (n, d) in enumerate(zip(link_node, link_dir)):
        base, step = points[n], steps[d]

        def along(t):
            return float(domain.sdf(base + t * step))

        fb = along(h)
        if fb <= 0.0:
            t_cross = h
        else:
            t_cross = brentq(along, 0.0, h, xtol=1e-13, rtol=1e-15)
        link_theta[k] = min(max(t_cross / h, 1e-12), 1.0)
        link_pts[k] = base + t_cross * step

    link_index = {(int(n), int(d)): k
                  for k, (n, d) in enumerate(zip(link_node, link_dir))}

    # re-tag nodes whose links all landed at theta == 1 exactly are still
    # boundary-adjacent; classification already reflects axis-neighbor status

    eta = _inward_sigma_normals(domain, chart, link_pts)
    dist = _distance_field(domain, chart, points, node_index, inside_ij, h, link_pts, link_node)
    cell_frac, ghost_frac, sliver_ij, sliver_frac = _cell_fractions(
        domain, P, cls, inside_ij, ghost_ij, h)

    def inside_neighbors(cx, cy, diagonals=False):
        steps = list(DIR_STEPS)
        if diagonals:
            steps += [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        nbrs = []
        for sx, sy in steps:
            if 0 <= cy + sy < ny and 0 <= cx + sx < nx:
                j = node_index[cy + sy, cx + sx]
                if j >= 0:
                    nbrs.append(int(j))
        return nbrs

    ghost_nbrs = [inside_neighbors(cx, cy) for cx, cy in ghost_ij]
    sliver_nbrs = [inside_neighbors(cx, cy, diagonals=True) for cx, cy in sliver_ij]
    sliver_points = (P[sliver_ij[:, 1], sliver_ij[:, 0]]
                     if len(sliver_ij) else np.zeros((0, 2)))

    return GridDomain(
        domain=domain, h=h, x_origin=x_origin, y_origin=y_origin, nx=nx, ny=ny,
        cls=cls, inside_ij=inside_ij, node_index=node_index,
        ghost_ij=ghost_ij, ghost_index=ghost_index,
        points=points, ghost_points=ghost_points, neighbor_ext=neighbor_ext,
        link_node=link_node, link_dir=link_dir, link_theta=link_theta,
        link_points=link_pts, link_index=link_index,
        eta=eta, dist=dist, cell_frac=cell_frac, ghost_frac=ghost_frac,
        ghost_nbrs=ghost_nbrs, sliver_points=sliver_points,
        sliver_frac=sliver_frac, sliver_nbrs=sliver_nbrs,
    )


def _ext_index(node_index, ghost_index, n_inside):
    """(ny, nx) lattice -> extended id: inside id, n_inside + ghost id, or -1."""
    return np.where(node_index >= 0, node_index,
                    np.where(ghost_index >= 0, n_inside + ghost_index, -1))


def _inward_sigma_normals(domain, chart, link_pts):
    if len(link_pts) == 0:
        return np.zeros((0, 2))
    m = domain.inward_normal_euclid(link_pts)        # Euclidean inward covector
    siginv = inverse_metric_at(chart, link_pts)
    v = np.einsum("...ij,...j->...i", siginv, m)     # sigma-orthogonal to boundary
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
    values as in a node-by-node row-major Gauss-Seidel sweep, so the
    result is identical to that sweep's, bit for bit.
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
            if not change:
                break
    return d[:n].copy()


def _relax_diagonal(d, ids, nb, data, h):
    """One Gauss-Seidel update of the nodes `ids`, none adjacent to another.

    The float operations are those of the scalar upwind update, in the
    same order, so each node gets the value a node-by-node sweep gives.
    """
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
    better = cand < d[ids] - 1e-14
    if not better.any():
        return False
    d[ids[better]] = cand[better]
    return True


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

    iy, ix = inside_ij[:, 1], inside_ij[:, 0]
    frac_inside = frac_for(P[iy, ix])
    if len(ghost_ij):
        gy, gx = ghost_ij[:, 1], ghost_ij[:, 0]
        frac_ghost = frac_for(P[gy, gx])
    else:
        frac_ghost = np.zeros(0)

    # corner slivers: outside, non-ghost cells that still overlap the domain
    # (diagonal contact only); needed so node cells tile the domain exactly
    ny, nx = cls.shape
    sy, sx = np.nonzero(cls == OUTSIDE)
    near = np.abs(domain.sdf(P[sy, sx])) < 0.7072 * h
    sy, sx = sy[near], sx[near]
    sliver_ij = []
    sliver_frac = []
    if len(sx):
        fr = frac_for(P[sy, sx])
        keep = fr > 0.0
        sliver_ij = np.stack([sx[keep], sy[keep]], axis=1)
        sliver_frac = fr[keep]
    return frac_inside, frac_ghost, np.asarray(sliver_ij, dtype=int).reshape(-1, 2), \
        np.asarray(sliver_frac, dtype=float)


# ---------------------------------------------------------------------------
# per-node stencils (Shortley-Weller corrected at the boundary)

def _axis_samples(grid, values, node, axis, boundary_values):
    """Spacings and values to the right/left of `node` along `axis`.

    Returns (a, u_plus, b, u_minus) where a, b are spacings; either side
    may be None when no sample exists.
    """
    n_inside = grid.num_inside
    d_plus = 0 if axis == 0 else 2
    d_minus = d_plus + 1
    out = []
    for d in (d_plus, d_minus):
        e = grid.neighbor_ext[node, d]
        if e < n_inside:
            out.append((grid.h, values[e]))
        else:
            link = grid.link_index.get((int(node), int(d)))
            if boundary_values is not None and link is not None:
                out.append((grid.link_theta[link] * grid.h, boundary_values[link]))
            else:
                out.append(None)
    return out[0], out[1]


def _second_interior_sample(grid, values, node, axis, sign):
    """Value two steps along `axis` in direction `sign`, if inside."""
    cx, cy = grid.inside_ij[node]
    jx = cx + (2 * sign if axis == 0 else 0)
    jy = cy + (2 * sign if axis == 1 else 0)
    if 0 <= jx < grid.nx and 0 <= jy < grid.ny:
        j = grid.node_index[jy, jx]
        if j >= 0:
            return values[j]
    return None


def _axis_derivatives(grid, values, node, axis, boundary_values):
    plus, minus = _axis_samples(grid, values, node, axis, boundary_values)
    u0 = values[node]
    if plus is not None and minus is not None:
        a, up = plus
        b, um = minus
        du = (up * b * b - um * a * a + u0 * (a * a - b * b)) / (a * b * (a + b))
        d2u = 2.0 * (up * b + um * a - u0 * (a + b)) / (a * b * (a + b))
        return du, d2u
    # one-sided fallback (no Dirichlet data supplied on the missing side)
    side = plus if plus is not None else minus
    if side is None:
        x, y = grid.points[node]
        raise StencilUnavailable(
            f"no stencil along axis {axis} at node ({x:.6g}, {y:.6g})"
        )
    sign = 1 if plus is not None else -1
    a, u1 = side
    u2 = _second_interior_sample(grid, values, node, axis, sign)
    if u2 is not None and abs(a - grid.h) < 1e-12 * grid.h:
        du = sign * (-3.0 * u0 + 4.0 * u1 - u2) / (2.0 * grid.h)
        d2u = (u2 - 2.0 * u1 + u0) / grid.h ** 2
    else:
        du = sign * (u1 - u0) / a
        d2u = 0.0
    return du, d2u


def gradient_at(grid, values, node, boundary_values=None):
    """Covector (d_x u, d_y u) at an inside node.

    Second-order central at interior nodes; Shortley-Weller one-sided
    corrected using the boundary crossing values when supplied.
    """
    values = np.asarray(values, dtype=float)
    gx, _ = _axis_derivatives(grid, values, node, 0, boundary_values)
    gy, _ = _axis_derivatives(grid, values, node, 1, boundary_values)
    return np.array([gx, gy])


def hessian_at(grid, values, node, boundary_values=None):
    """Symmetric matrix of second partials at an inside node."""
    values = np.asarray(values, dtype=float)
    _, dxx = _axis_derivatives(grid, values, node, 0, boundary_values)
    _, dyy = _axis_derivatives(grid, values, node, 1, boundary_values)
    dxy = _cross_derivative(grid, values, node, boundary_values)
    return np.array([[dxx, dxy], [dxy, dyy]])


def _cross_derivative(grid, values, node, boundary_values):
    cx, cy = grid.inside_ij[node]
    h = grid.h
    jpp = grid.node_index[cy + 1, cx + 1]
    jpm = grid.node_index[cy - 1, cx + 1]
    jmp = grid.node_index[cy + 1, cx - 1]
    jmm = grid.node_index[cy - 1, cx - 1]
    if min(jpp, jpm, jmp, jmm) >= 0:
        return (values[jpp] - values[jpm] - values[jmp] + values[jmm]) / (4.0 * h * h)
    # fall back to differencing the y-gradient across x-neighbors
    sides = []
    for sx in (1, -1):
        j = grid.node_index[cy, cx + sx]
        if j >= 0:
            try:
                gy, _ = _axis_derivatives(grid, values, j, 1, boundary_values)
                sides.append((sx, gy))
            except StencilUnavailable:
                pass
    gy0, _ = _axis_derivatives(grid, values, node, 1, boundary_values)
    if len(sides) == 2:
        return (sides[0][1] - sides[1][1]) / (2.0 * h)
    if len(sides) == 1:
        sx, gy = sides[0]
        return sx * (gy - gy0) / h
    x, y = grid.points[node]
    raise StencilUnavailable(f"no cross stencil at node ({x:.6g}, {y:.6g})")


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
    h2 = grid.h ** 2

    def sqrt_det(pts):
        sig = chart.metric_at(pts)
        return np.sqrt(sig[..., 0, 0] * sig[..., 1, 1] - sig[..., 0, 1] ** 2)

    total = np.sum(values * sqrt_det(grid.points) * grid.cell_frac) * h2
    if grid.num_ghost:
        gmask = grid.ghost_frac > 0.0
        if np.any(gmask):
            gvals = np.array([
                np.mean(values[nbrs]) if nbrs else 0.0
                for g, nbrs in enumerate(grid.ghost_nbrs) if gmask[g]
            ])
            gpts = grid.ghost_points[gmask]
            total += np.sum(gvals * sqrt_det(gpts) * grid.ghost_frac[gmask]) * h2
    if grid.sliver_points is not None and len(grid.sliver_points):
        svals = np.array([np.mean(values[nbrs]) if nbrs else 0.0
                          for nbrs in grid.sliver_nbrs])
        total += np.sum(svals * sqrt_det(grid.sliver_points) * grid.sliver_frac) * h2
    return float(total)


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
