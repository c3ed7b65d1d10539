"""Structured finite-difference grids over curved planar domains.

Nodes live on a uniform lattice covering the domain's bounding box.
Classification: INTERIOR nodes have all four axis neighbors inside;
BOUNDARY_ADJACENT nodes have at least one axis neighbor outside, with
the fractional crossing theta in (0, 1] to the true boundary, in the
domain's closed form (`crossing`), recorded per link; DIRICHLET_GHOST
nodes are outside nodes touching an inside node along an axis (the
slots where Dirichlet data enters stencils).

The grid holds geometry only: the chart it was built for, lattice maps,
crossings, sigma^ij and sqrt det sigma at the inside nodes, the sigma
distance field and sigma-area quadrature weights.  Derivatives of node
fields are the operator's (`GraphOperator.Gx`/`Gy` over the ghost-
extended field); the grid keeps its one operator and one full-sample
boundary geometry, each built on first read.  The distance field to the
boundary is analytic for flat metrics and fast-swept first-order (by
anti-diagonals) for general sigma.  Grids are immutable after build.
"""

import functools
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import EmptyDomain, InputError, StencilUnavailable
from .geometry import _positive, metric_fields, validate_chart_at

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
        if not np.all(np.isfinite(self.center)):
            raise InputError("disk center must be finite")
        _positive(self.radius, "disk radius")

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
        return np.stack([self.center[0] + self.radius * np.cos(t),
                         self.center[1] + self.radius * np.sin(t)], axis=-1)

    def foot_params(self, points):
        """(1, M) angles about the centre in [0, 2 pi]: `boundary_point` inverted."""
        x, y = np.asarray(points, dtype=float).T
        return np.mod(np.arctan2(y - self.center[1], x - self.center[0]), 2.0 * np.pi)[None]

    def crossing(self, base, step):
        """Distance t > 0 from inside points `base` along unit axis steps to
        the circle, the root of |d + t e| = r with d = base - centre.  With
        a = d.e, p = d x e and root = sqrt((r - p)(r + p)), t = root - a
        where a <= 0, else -sdf(base) (|d| + r) / (a + root): no branch
        cancels, and t > 0 wherever sdf(base) < 0.  |a| in the quotient
        keeps the lanes it is not taken on finite."""
        d = np.asarray(base, dtype=float) - self.center
        a = d[:, 0] * step[:, 0] + d[:, 1] * step[:, 1]
        p = d[:, 0] * step[:, 1] - d[:, 1] * step[:, 0]
        r, norm = self.radius, np.hypot(d[:, 0], d[:, 1])
        root = np.sqrt((r - p) * (r + p))
        return np.where(a <= 0, root - a, (r - norm) * (norm + r) / (np.abs(a) + root))

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
        if not np.all(np.isfinite([self.x0, self.y0, self.x1, self.y1])):
            raise InputError("rectangle corners must be finite")
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
        # counterclockwise: bottom, right, top, left, s along the side
        w = self.x1 - self.x0
        h = self.y1 - self.y0
        t = np.mod(np.asarray(t, dtype=float), 2.0 * (w + h))
        side = np.searchsorted([w, w + h, 2 * w + h], t, side="right")
        s = t - np.array([0.0, w, w, 2 * w])[side] - np.array([0.0, 0.0, h, h])[side]
        return np.stack([np.choose(side, [self.x0 + s, self.x1, self.x1 - s, self.x0]),
                         np.choose(side, [self.y0, self.y0 + s, self.y1, self.y1 - s])], axis=-1)

    def foot_params(self, points):
        """(4, M) each point's foot parameter on the bottom, right, top and left side."""
        x, y = np.asarray(points, dtype=float).T
        w, h = self.x1 - self.x0, self.y1 - self.y0
        return np.stack([x - self.x0, w + (y - self.y0), w + h + (self.x1 - x),
                         2 * w + h + (self.y1 - y)])

    def crossing(self, base, step):
        """Distance from inside points `base` along unit axis steps to the
        side each step faces."""
        side = np.where(step > 0, (self.x1, self.y1), (self.x0, self.y0))
        return np.sum(step * (side - base), axis=-1)

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
    chart: object              # the chart whose sigma the distances and areas use
    h: float
    x_origin: float
    y_origin: float
    nx: int
    ny: int
    cls: np.ndarray            # (ny, nx) classification codes
    inside_ij: np.ndarray      # (N, 2) lattice coords (ix, iy) of inside nodes
    node_index: np.ndarray     # (ny, nx) -> inside id or -1
    ghost_ij: np.ndarray       # (Ng, 2)
    ext_index: np.ndarray      # (ny, nx) -> inside id, N + ghost id, or -1
    points: np.ndarray         # (N, 2) coordinates of inside nodes
    ghost_points: np.ndarray   # (Ng, 2)
    neighbor_ext: np.ndarray   # (N, 4) extended id (inside id, or N + ghost id)
    link_node: np.ndarray      # (L,) inside node id of each boundary link
    link_dir: np.ndarray       # (L,) direction code 0..3
    link_theta: np.ndarray     # (L,) fractional crossing distance in (0, 1]
    link_points: np.ndarray    # (L, 2) boundary crossing coordinates
    dist: np.ndarray           # (N,) sigma-distance to the boundary
    node_siginv: np.ndarray    # (N, 2, 2) sigma^ij and (N,) sqrt det sigma at the inside
    node_sqrt_det: np.ndarray  # nodes: `metric_fields`, constant views for a flat chart
    covered: np.ndarray        # (C,) cells overlapping the domain, indexed over
                               # the inside nodes, then ghosts, then slivers
    cell_area: np.ndarray      # (C,) sigma area of each covered cell's inside part
    outer_mean: object         # (Ng + Ns, N) sparse: each ghost's mean over its
                               # inside axis neighbours, then each sliver's over
                               # its inside axis and diagonal neighbours

    @property
    def num_inside(self):
        return len(self.inside_ij)

    @property
    def num_ghost(self):
        return len(self.ghost_ij)

    @property
    def num_links(self):
        return len(self.link_node)

    @functools.cached_property
    def operator(self):
        """The GraphOperator of this grid, built on first read and freed with it."""
        from .operator import GraphOperator
        return GraphOperator(self)

    @functools.cached_property
    def boundary_geometry(self):
        """`analysis.boundary_geometry` of the grid's chart and domain at
        one sample per boundary link, at least 64: the one the solve's
        hypothesis check and the certificates read, computed on first
        read and freed with the grid."""
        from .analysis import boundary_geometry
        return boundary_geometry(self.chart, self.domain, samples=max(64, self.num_links))

    @property
    def interior_mask(self):
        mask = np.ones(self.num_inside, dtype=bool)
        mask[self.link_node] = False
        return mask

    def check_field(self, values, name="field"):
        values = np.asarray(values, dtype=float)
        if values.ndim == 0 or values.shape[0] != self.num_inside:
            got = f"{values.shape[0]} values" if values.ndim else "one number"
            raise InputError(f"{name} has {got}, grid has {self.num_inside} nodes")
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
    """Build a classified grid for `domain` at spacing `h` under `chart`,
    which the grid keeps: its distances and cell areas are in its sigma.

    Each link's crossing is the domain's closed form (`crossing`), capped
    at h, so theta = t / h is in (0, 1].  sigma positive-definiteness and
    f > 0 are checked at every inside and ghost node before anything else
    can run, by the one evaluation of sigma that the sweep and operator read.
    """
    _positive(h, "grid spacing h")
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
    ghost_points = P[gy, gx]

    n_inside = len(ix)
    sig, siginv, sqrt_det = validate_chart_at(chart, np.vstack([points, ghost_points]))
    sig, siginv = sig[:n_inside], siginv[:n_inside]     # sqrt_det's ghosts serve their cells
    ext_index = node_index.copy()
    ext_index[gy, gx] = n_inside + np.arange(len(gx))
    neighbor_ext = ext_index[iy[:, None] + STEP_Y, ix[:, None] + STEP_X]
    if np.any(neighbor_ext < 0):
        n = int(np.nonzero(neighbor_ext < 0)[0][0])
        raise StencilUnavailable(
            f"neighbor of inside node ({points[n,0]:.6g},{points[n,1]:.6g}) "
            "is outside without a ghost slot"
        )
    # one link per ghost neighbor, node-major and direction-minor
    link_node, link_dir = np.nonzero(neighbor_ext >= n_inside)
    base, step = points[link_node], np.array(DIR_STEPS, dtype=float)[link_dir]
    t_cross = np.minimum(domain.crossing(base, step), h)
    link_theta = t_cross / h
    link_pts = base + t_cross[:, None] * step

    dist = (-domain.sdf(points) if chart.flat_metric else
            _fast_sweep(sig, siginv, points, node_index, inside_ij, h, link_pts, link_node))

    # corner slivers: outside, non-ghost cells near the boundary, which the
    # domain may touch diagonally; needed so node cells tile it exactly
    sy, sx = np.nonzero(cls == OUTSIDE)
    near = np.abs(domain.sdf(P[sy, sx])) < 0.7072 * h
    cells = np.vstack([ghost_ij, np.stack([sx[near], sy[near]], axis=1)])
    cell_pts = np.vstack([points, P[cells[:, 1], cells[:, 0]]])
    frac = _cell_fractions(domain, cell_pts, h)
    covered = np.nonzero(frac > 0.0)[0]
    known = covered < len(sqrt_det)     # inside and ghost cells; slivers evaluated here
    cell_area = np.concatenate([sqrt_det[covered[known]], metric_fields(
        chart, cell_pts[covered[~known]])[2]]) * frac[covered] * h ** 2
    nbrs = np.stack([_lattice_at(node_index, cells[:, 0] + sx, cells[:, 1] + sy)
                     for sx, sy in DIR_STEPS + ((1, 1), (1, -1), (-1, 1), (-1, -1))], axis=1)
    nbrs[:len(ghost_ij), 4:] = -1
    has = nbrs >= 0
    rows = np.nonzero(has)[0]
    outer_mean = sp.csr_matrix((1.0 / has.sum(axis=1)[rows], (rows, nbrs[has])),
                               shape=(len(cells), n_inside))

    return GridDomain(
        domain=domain, chart=chart, h=h, x_origin=x_origin, y_origin=y_origin, nx=nx, ny=ny,
        cls=cls, inside_ij=inside_ij, node_index=node_index,
        ghost_ij=ghost_ij, ext_index=ext_index,
        points=points, ghost_points=ghost_points, neighbor_ext=neighbor_ext,
        link_node=link_node, link_dir=link_dir, link_theta=link_theta,
        link_points=link_pts,
        dist=dist, node_siginv=siginv, node_sqrt_det=sqrt_det[:n_inside],
        covered=covered, cell_area=cell_area, outer_mean=outer_mean,
    )


def _lattice_at(index, ix, iy):
    """index[iy, ix] per entry, or -1 where (ix, iy) is off the lattice."""
    ny, nx = index.shape
    ok = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
    out = -np.ones(np.shape(ix), dtype=int)
    out[ok] = index[iy[ok], ix[ok]]
    return out


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
    if chart.flat_metric:
        return -grid.domain.sdf(grid.points)
    return _fast_sweep(*metric_fields(chart, grid.points)[:2], grid.points, grid.node_index,
                       grid.inside_ij, grid.h, grid.link_points, grid.link_node)


def _fast_sweep(sig, siginv, points, node_index, inside_ij, h, link_pts, link_node):
    """Fast-sweeping eikonal distance (Zhao 2005), equal bit for bit to
    `tests/test_equivalence.row_major_sweep`, from sigma and sigma^ij.

    Boundary-adjacent nodes are frozen at their sigma chord length to
    the nearest crossing within 2h.  Each pass runs the four orderings
    (+,+), (+,-), (-,+), (-,-) by anti-diagonals (`_sweep_pass`); after a
    pass that changed something, one Jacobi evaluation of every open
    node decides whether another pass would, in place of the row-major
    sweep's last pass, which changes nothing.
    """
    n = len(points)
    d = np.full(n + 1, np.inf)      # d[n] stands in for a missing neighbour

    # freeze only boundary-adjacent nodes, at the local chord distance to
    # crossings within 2h, which lie on links of nodes at most 3h away:
    # the 29 lattice offsets i^2 + j^2 <= 9 from each link's node give the
    # candidate pairs, then the exact test and the sigma length per
    # (node, crossing) pair, the least per node
    ix, iy = inside_ij[:, 0], inside_ij[:, 1]
    frozen = np.bincount(link_node, minlength=n) > 0
    oy, ox = np.nonzero(np.add.outer(np.arange(-3, 4) ** 2, np.arange(-3, 4) ** 2) <= 9)
    near = _lattice_at(node_index, ix[link_node, None] + ox - 3, iy[link_node, None] + oy - 3)
    k, j = np.nonzero((near >= 0) & frozen[near])
    rows = near[k, j]
    delta = link_pts[k] - points[rows]
    keep = np.hypot(delta[:, 0], delta[:, 1]) <= 2.0 * h
    rows, dl = rows[keep], delta[keep]
    np.minimum.at(d, rows, np.sqrt(np.einsum("kj,kjl,kl->k", dl, sig[rows], dl)))

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


def _cell_fractions(domain, pts, h):
    """Inside area fraction of the lattice cells centred at `pts`: 0 or 1
    away from the boundary, else from 4x4 midpoint subsamples."""
    offs = (np.arange(4) - 1.5) / 4.0 * h
    ox, oy = np.meshgrid(offs, offs)
    sub = np.stack([ox.ravel(), oy.ravel()], axis=-1)   # (16, 2)
    centers = domain.sdf(pts)
    frac = (centers <= -0.7072 * h).astype(float)
    mid = np.abs(centers) < 0.7072 * h
    frac[mid] = np.mean(domain.sdf(pts[mid][:, None, :] + sub) < 0.0, axis=1)
    return frac


# ---------------------------------------------------------------------------
# quadrature

def integrate(grid, values):
    """Integral of a node field against the sigma area element of the
    grid's chart.

    Cells cut by the boundary are weighted by their inside area
    fraction (4x4 midpoint subsampling); boundary slivers under ghost
    cells take the mean value of their inside neighbors.  First-order
    accurate at the boundary, second-order inside.
    """
    values = grid.check_field(values, "integrand")
    cell_values = np.concatenate([values, grid.outer_mean @ values])
    return float(np.sum(cell_values[grid.covered] * grid.cell_area))


# ---------------------------------------------------------------------------
# field I/O

def write_field_csv(path, grid, values, name="value", nodes=None):
    """Write `x,y,<name>` rows, CRLF-terminated, over the inside nodes, or
    over the inside ids `nodes` with one value each; round-trips exactly."""
    if nodes is None:
        nodes, values = slice(None), grid.check_field(values, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        np.savetxt(fh, np.column_stack([grid.points[nodes], values]), fmt="%.17g",
                   delimiter=",", newline="\r\n", header=f"x,y,{name}", comments="")


def read_field_csv(path, grid):
    """Read a field CSV; verifies its node order against `grid`."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=float)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read field file {path}: {exc}") from None
    data = np.atleast_2d(data)
    if data.shape[1] != 3:
        raise InputError(f"{path}: expected 3 columns x,y,value")
    if data.shape[0] != grid.num_inside:
        raise InputError(f"{path}: {data.shape[0]} rows but grid has {grid.num_inside} nodes")
    if not np.allclose(data[:, :2], grid.points, atol=1e-9 * max(grid.h, 1.0)):
        raise InputError(f"{path}: node coordinates do not match the grid")
    return data[:, 2].copy()
