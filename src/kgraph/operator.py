"""The Killing-graph mean curvature operator on a grid.

For a graph function u over a chart (sigma, f, delta), the tilted
gradient is

    hat_u_i = d_i u + f^{1/2} delta_i        (covariant)
    hat_u^j = sigma^{ij} hat_u_i             (contravariant)
    W       = sqrt(f + hat_u_i hat_u^i)

and the operator in divergence form reads

    Q[u] = div_sigma(hat_u / W) - (1/W) kappa_i hat_u^i,

with kappa_i = d_i f / (2 f).  A graph has prescribed mean curvature H
precisely when Q[u] = n H.  The primary discretization is the flux
form: face-centered fluxes sqrt(det sigma) hat_u^axis / W differenced
over each node cell, with Dirichlet data entering through ghost values
extrapolated across the true boundary crossings (equivalent to
Shortley-Weller stencils).  The nondivergence form built from the
quasilinear coefficients A^{ij} = W^2 sigma^{ij} - hat_u^i hat_u^j is
kept as a cross-check only.

Sign convention: the graph normal points up the fiber, so over a
Euclidean base the lower spherical cap u = -sqrt(R^2 - r^2) has
H = +1/R.
"""

import numbers
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InputError, KGraphError, SingularJacobian
from .geometry import (_central_partials, _inverse_metric, _sqrt_det, _tilt,
                       christoffels_at, kappa_vector_at)
from .grid import STEP_X, STEP_Y, _ext_index, _lattice_at

THETA_FLOOR = 1e-6  # ghost extrapolation keeps theta away from zero
THETA_ELIM = 0.05   # below this, a node is pinned to boundary interpolation:
                    # extrapolation weights ~ 1/theta would otherwise amplify
                    # fp noise past any reasonable Newton tolerance
LINEAR_TOL = 1e-6   # relative residual a sparse solve must reach: direct LU
                    # gives ~1e-14 on healthy states, so a large one flags a
                    # numerically singular matrix
ND_LEAF = 32        # nested-dissection parts this small are not split further
REFINE_MAX = 8      # refinement solves a direct solve spends at most; a
                    # healthy one stops shrinking its correction after 4-5


@dataclass(frozen=True)
class ProblemSpec:
    """A Dirichlet problem: chart, domain, prescribed H, boundary data phi.

    H may be a constant, a callable over points, or a node array; phi a
    constant or a callable over boundary points, since it is evaluated
    at crossings and at boundary samples alike.
    """

    chart: object
    domain: object
    H: object = 0.0
    phi: object = 0.0
    n: int = 2

    def __post_init__(self):
        if not (callable(self.phi) or isinstance(self.phi, numbers.Real)):
            raise InputError("phi must be a number or a callable over boundary points, "
                             f"not {type(self.phi).__name__}")

    def H_nodes(self, grid):
        vals = _eval_data(self.H, grid.points)
        grid.check_field(vals, "H")
        return vals

    def H_at(self, points):
        return _eval_data(self.H, points)

    def phi_links(self, grid):
        return self.phi_at(grid.link_points)

    def phi_at(self, points):
        points = np.asarray(points, dtype=float)
        vals = _eval_data(self.phi, points)
        if not np.all(np.isfinite(vals)):
            raise KGraphError("boundary data phi is not finite on the boundary")
        return vals


def _is_constant(vals, tol=1e-12):
    return float(np.ptp(vals)) <= tol * (1.0 + float(np.max(np.abs(vals))))


def _eval_data(data, points):
    points = np.asarray(points, dtype=float)
    lead = points.shape[:-1]
    if callable(data):
        out = np.asarray(data(points), dtype=float)
        return np.broadcast_to(out, lead).astype(float)
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 0:
        return np.full(lead, float(arr))
    return arr.astype(float)


@dataclass
class OperatorState:
    """Pointwise operator data over inside nodes."""

    u_hat_up: np.ndarray    # (N, 2) contravariant
    u_hat_down: np.ndarray  # (N, 2) covariant
    W: np.ndarray           # (N,)
    A: np.ndarray           # (N, 2, 2) quasilinear coefficients


class GraphOperator:
    """Discrete operator bound to one (chart, grid) pair.

    Assembles the residual Q[u] - n H and its analytic sparse Jacobian
    from a fixed set of sparse incidence matrices, so repeated Newton
    calls only pay pointwise nonlinear work.

    The grid owns its operators (`_get_operator` memoizes them there) and
    `op.grid` is a weak proxy, so a dropped grid frees them at once.  An
    operator lives as long as its grid: keep the grid, not only the op.
    """

    def __init__(self, chart, grid, n=2):
        self.chart = chart
        self.grid = weakref.proxy(grid)
        self.n = n
        self._find_eliminated()
        self._build_extension()
        self._build_gradients()
        self._node_geometry()
        self._build_faces()

    def _find_eliminated(self):
        """Nodes hugging the boundary (min link theta < THETA_ELIM).

        Their curvature equation is replaced by linear interpolation
        along the closest link between the crossing value and the
        opposite neighbor; second-order consistent and free of the
        1/theta weights that otherwise set an fp noise floor.
        """
        grid = self.grid
        N = grid.num_inside
        # per node, the link of smallest theta below THETA_ELIM (the first
        # such link on ties)
        small = np.nonzero(grid.link_theta < THETA_ELIM)[0]
        small = small[np.lexsort((grid.link_theta[small], grid.link_node[small]))]
        self.elim_nodes, first = np.unique(grid.link_node[small], return_index=True)
        self.elim_link = -np.ones(N, dtype=int)
        self.elim_link[self.elim_nodes] = small[first]
        # constraint row: u_n interpolated along the closest link from the
        # crossing value and up to three inward neighbors (cubic when
        # available, so the exact solution's row residual is O(theta h^2)),
        # scaled by 1/h^2 to match the PDE row magnitudes
        n = self.elim_nodes
        k = self.elim_link[n]
        inward = _walk_inward(grid, n, grid.link_dir[k], 3)
        count = np.sum(inward >= 0, axis=1)
        # weights on the crossing value and on inward nodes 1, 2, 3
        coefs = _weights_by_branch(grid.link_theta[k], (
            (count == 0, lambda t: (1.0, 0.0, 0.0, 0.0)),
            (count == 1, lambda t: (1.0 / (1 + t), t / (1 + t), 0.0, 0.0)),
            (count == 2, lambda t: (2.0 / ((1 + t) * (2 + t)), 2.0 * t / (1 + t),
                                    -t / (2 + t), 0.0)),
            (count == 3, lambda t: (6.0 / ((1 + t) * (2 + t) * (3 + t)),
                                    3.0 * t / (1 + t), -3.0 * t / (2 + t), t / (3 + t))),
        ))
        scale = 1.0 / grid.h ** 2
        used = np.arange(3) < count[:, None]
        rows = np.concatenate([n, np.repeat(n, 3)[used.ravel()]])
        cols = np.concatenate([n, inward[used]])
        vals = np.concatenate([np.full(len(n), scale), -coefs[:, 1:][used] * scale])
        L = max(grid.num_links, 1)
        self._elim_J = sp.csr_matrix((vals, (rows, cols)), shape=(N, N))
        self._elim_phi = sp.csr_matrix((coefs[:, 0] * scale, (n, k)), shape=(N, L))
        self._keep = np.ones(N)
        self._keep[self.elim_nodes] = 0.0
        self._elim_any = len(self.elim_nodes) > 0

    # -- assembly of constant sparse operators --------------------------

    def _ext_id_map(self):
        grid = self.grid
        return _ext_index(grid.node_index, grid.ghost_index, grid.num_inside)

    def _build_extension(self):
        """Ghost rows: per link, the polynomial through the crossing, the
        node and up to two nodes behind it, evaluated at the ghost; a ghost
        shared by several links takes the mean of their extrapolations."""
        grid = self.grid
        N, Ng, L = grid.num_inside, grid.num_ghost, grid.num_links
        node, link = grid.link_node, np.arange(L)
        theta = np.maximum(grid.link_theta, THETA_FLOOR)
        g = grid.neighbor_ext[node, grid.link_dir] - N
        behind = _walk_inward(grid, node, grid.link_dir, 2)
        m, mm = behind[:, 0], behind[:, 1]
        low = theta < THETA_ELIM
        two, one, none = (m >= 0) & (mm >= 0), (m >= 0) & (mm < 0), m < 0
        # weights on (mm, m, node) and on the crossing value, per link
        w = _weights_by_branch(theta, (
            # crossing nearly on the node: extrapolate past it without the
            # 1/theta weights, treating the crossing as the sample
            (low & two, lambda t: (2.0 * (1.0 - t) / (2.0 + t), -3.0 * (1.0 - t) / (1.0 + t),
                                   0.0, 6.0 / ((2.0 + t) * (1.0 + t)))),
            (low & one, lambda t: (0.0, -(1.0 - t) / (1.0 + t), 0.0, 2.0 / (1.0 + t))),
            (low & none, lambda t: (0.0, 0.0, 0.0, 1.0)),
            # cubic through (-2h, -h, 0, theta h), evaluated at +h
            (~low & two, lambda t: (-(1.0 - t) / (2.0 + t), 3.0 * (1.0 - t) / (1.0 + t),
                                    -3.0 * (1.0 - t) / t,
                                    6.0 / ((2.0 + t) * (1.0 + t) * t))),
            # quadratic through (-h, 0, theta h)
            (~low & one, lambda t: (0.0, (1.0 - t) / (1.0 + t), -2.0 * (1.0 - t) / t,
                                    2.0 / (t * (1.0 + t)))),
            (~low & none, lambda t: (0.0, 0.0, 1.0 - 1.0 / t, 1.0 / t)),
        ))
        c, cp = w[:, :3], w[:, 3]
        # which of (mm, m, node) each branch above writes
        used = np.column_stack([two, m >= 0, ~low]).ravel()
        cols = np.column_stack([mm, m, node]).ravel()[used]
        ghosts = np.repeat(g, 3)[used]
        # sum per (ghost, node) in link order, then average over the
        # ghost's links
        keys, inv = np.unique(ghosts * N + cols, return_inverse=True)
        sums = np.bincount(inv, weights=c.ravel()[used], minlength=len(keys))
        counts = np.bincount(g, minlength=Ng).astype(float)
        rows = np.concatenate([np.arange(N), N + keys // N])
        cols = np.concatenate([np.arange(N), keys % N])
        vals = np.concatenate([np.ones(N), sums / counts[keys // N]])
        self.P = sp.csr_matrix((vals, (rows, cols)), shape=(N + Ng, N))
        self.B = sp.csr_matrix((cp / counts[g], (N + g, link)), shape=(N + Ng, max(L, 1)))
        self._L = L

    def _build_gradients(self):
        grid = self.grid
        N, Ng, h = grid.num_inside, grid.num_ghost, grid.h
        rows = np.repeat(np.arange(N), 2)
        vals = np.tile([0.5 / h, -0.5 / h], N)
        ext = grid.neighbor_ext
        self.Gx = sp.csr_matrix((vals, (rows, ext[:, :2].ravel())), shape=(N, N + Ng))
        self.Gy = sp.csr_matrix((vals, (rows, ext[:, 2:].ravel())), shape=(N, N + Ng))

    def _build_faces(self):
        grid = self.grid
        N, Ng, h = grid.num_inside, grid.num_ghost, grid.h
        ext = self._ext_id_map()
        index = grid.node_index

        # faces are the lattice edges touching an inside node; an x face
        # (fx, fy) joins lattice points (fx, fy) and (fx + 1, fy), a y face
        # (fx, fy) joins (fx, fy) and (fx, fy + 1)
        fx_x, fy_x = _faces(index[:, :-1], index[:, 1:])
        fx_y, fy_y = _faces(index[:-1, :], index[1:, :])
        Fx, Fy = len(fx_x), len(fx_y)

        def normal_and_average(fx, fy, sx, sy):
            """Normal difference and tangential face value per face.

            Both sides inside: midpoint average.  One side a ghost:
            linear extrapolation from the inside node and the next node
            behind it (falls back to the inside value alone).
            """
            F = len(fx)
            e_lo, e_hi = ext[fy, fx], ext[fy + sy, fx + sx]
            D = sp.csr_matrix(
                (np.tile([1.0 / h, -1.0 / h], F),
                 (np.repeat(np.arange(F), 2), np.column_stack([e_hi, e_lo]).ravel())),
                shape=(F, N + Ng))
            lo_in = e_lo < N
            both = lo_in & (e_hi < N)
            near = np.where(lo_in, e_lo, e_hi)
            back = np.where(lo_in, _lattice_at(index, fx - sx, fy - sy),
                            _lattice_at(index, fx + 2 * sx, fy + 2 * sy))
            first = np.where(both, 0.5, np.where(back >= 0, 1.5, 1.0))
            second = np.where(both, 0.5, -0.5)
            used = np.column_stack([np.ones(F, dtype=bool), both | (back >= 0)]).ravel()
            A = sp.csr_matrix(
                (np.column_stack([first, second]).ravel()[used],
                 (np.repeat(np.arange(F), 2)[used],
                  np.column_stack([near, np.where(both, e_hi, back)]).ravel()[used])),
                shape=(F, N))
            return D, A

        Dx_norm, Avg_x = normal_and_average(fx_x, fy_x, 1, 0)
        Dy_norm, Avg_y = normal_and_average(fx_y, fy_y, 0, 1)
        self.Mq1 = sp.vstack([Dx_norm, Avg_y @ self.Gx]).tocsr()
        self.Mq2 = sp.vstack([Avg_x @ self.Gy, Dy_norm]).tocsr()
        mid = np.concatenate([
            np.column_stack([grid.x_origin + (fx_x + 0.5) * h, grid.y_origin + fy_x * h]),
            np.column_stack([grid.x_origin + fx_y * h, grid.y_origin + (fy_y + 0.5) * h]),
        ])
        self.face_axis = np.repeat([0, 1], [Fx, Fy])

        # divergence: difference of the four face fluxes per node
        face_x = -np.ones(index.shape, dtype=int)
        face_x[fy_x, fx_x] = np.arange(Fx)
        face_y = -np.ones(index.shape, dtype=int)
        face_y[fy_y, fx_y] = Fx + np.arange(Fy)
        cx, cy = grid.inside_ij[:, 0], grid.inside_ij[:, 1]
        c = 1.0 / (h * self.node_sqrt_det)
        self.Div = sp.csr_matrix(
            ((c[:, None] * np.array([1.0, -1.0, 1.0, -1.0])).ravel(),
             (np.repeat(np.arange(N), 4),
              np.column_stack([face_x[cy, cx], face_x[cy, cx - 1],
                               face_y[cy, cx], face_y[cy - 1, cx]]).ravel())),
            shape=(N, Fx + Fy))

        # face chart data
        face_sig = self.chart.metric_at(mid)
        self.face_siginv = _inverse_metric(self.chart, face_sig)
        self.face_sqrt_det = _sqrt_det(face_sig)
        self.face_f = self.chart.f_at(mid)
        self.face_tilt = np.sqrt(self.face_f)[:, None] * self.chart.delta_at(mid)

    def _node_geometry(self):
        grid = self.grid
        pts = grid.points
        self.node_sig = self.chart.metric_at(pts)
        self.node_siginv = _inverse_metric(self.chart, self.node_sig)
        self.node_f = self.chart.f_at(pts)
        self.node_tilt = np.sqrt(self.node_f)[:, None] * self.chart.delta_at(pts)
        self.node_kappa = kappa_vector_at(self.chart, pts, grid.h)
        self.node_sqrt_det = _sqrt_det(self.node_sig)

    # -- pointwise states ------------------------------------------------

    def extend(self, u, phi_vals):
        u = np.asarray(u, dtype=float)
        out = self.P @ u
        if self._L:
            out += self.B @ np.asarray(phi_vals, dtype=float)
        return out

    def _face_state(self, u_ext):
        q1 = self.Mq1 @ u_ext
        q2 = self.Mq2 @ u_ext
        c = np.stack([q1, q2], axis=-1) + self.face_tilt      # covariant hat_u
        up = np.einsum("fij,fj->fi", self.face_siginv, c)     # contravariant
        W = np.sqrt(self.face_f + np.einsum("fi,fi->f", c, up))
        return c, up, W

    def _node_state(self, u_ext):
        g1 = self.Gx @ u_ext
        g2 = self.Gy @ u_ext
        c = np.stack([g1, g2], axis=-1) + self.node_tilt
        up = np.einsum("nij,nj->ni", self.node_siginv, c)
        W = np.sqrt(self.node_f + np.einsum("ni,ni->n", c, up))
        return c, up, W

    # -- public evaluations ----------------------------------------------

    def residual(self, u, phi_vals, H_vals):
        """Pointwise Q[u] - n H over inside nodes, divergence form."""
        u_ext = self.extend(u, phi_vals)
        _, up_f, W_f = self._face_state(u_ext)
        flux = self.face_sqrt_det * np.take_along_axis(
            up_f, self.face_axis[:, None], axis=1
        )[:, 0] / W_f
        div = self.Div @ flux
        _, up_n, W_n = self._node_state(u_ext)
        low = np.einsum("ni,ni->n", self.node_kappa, up_n) / W_n
        r = div - low - self.n * np.asarray(H_vals, dtype=float)
        if self._elim_any:
            u = np.asarray(u, dtype=float)
            constraint = self._elim_J @ u - self._elim_phi @ np.asarray(
                phi_vals, dtype=float)
            r[self.elim_nodes] = constraint[self.elim_nodes]
        if not np.all(np.isfinite(r)):
            k = int(np.argmax(~np.isfinite(r)))
            x, y = self.grid.points[k]
            raise KGraphError(f"residual not finite at node ({x:.6g}, {y:.6g})")
        return r

    def q_value(self, u, phi_vals):
        """The curvature operator Q[u] alone (no H subtraction)."""
        return self.residual(u, phi_vals, np.zeros(self.grid.num_inside))

    def _linear_coefficients(self, u, phi_vals):
        """Coefficients of the residual's linearization at u.

        Returns (face, low): per face, the flux derivative along Mq1
        (m = 0) and Mq2 (m = 1), sqrt(det sigma) A^{axis m} / W^3 with A
        the quasilinear coefficient matrix; per node, the lower-order
        term's derivative along Gx and Gy.  `jacobian` assembles them and
        `jacobian_action` applies them, so both use one formula.
        """
        u_ext = self.extend(u, phi_vals)
        _, up_f, W_f = self._face_state(u_ext)
        sig_f = self.face_siginv
        alpha = self.face_axis
        up_alpha = np.take_along_axis(up_f, alpha[:, None], axis=1)[:, 0]
        W2 = W_f * W_f
        face = []
        for m in range(2):
            sig_am = np.take_along_axis(sig_f[:, :, m], alpha[:, None], axis=1)[:, 0]
            A_am = W2 * sig_am - up_alpha * up_f[:, m]
            face.append(self.face_sqrt_det * A_am / (W_f * W2))

        _, up_n, W_n = self._node_state(u_ext)
        kup = np.einsum("ni,ni->n", self.node_kappa, up_n)
        ksig = np.einsum("ni,nim->nm", self.node_kappa, self.node_siginv)
        low = [-(ksig[:, m] / W_n - kup * up_n[:, m] / W_n ** 3) for m in range(2)]
        return face, low

    def jacobian(self, u, phi_vals):
        """Analytic sparse Jacobian of `residual` in u at fixed phi.

        Per-face flux derivative is sqrt(det sigma) A^{axis m} / W^3
        with A the quasilinear coefficient matrix, so ellipticity of the
        linearization is inherited from the pointwise inequality
        f |xi|^2 <= A xi xi <= W^2 |xi|^2.
        """
        face, low = self._linear_coefficients(u, phi_vals)
        flux_part = (sp.diags(face[0]) @ self.Mq1 + sp.diags(face[1]) @ self.Mq2)
        low_part = sp.diags(low[0]) @ self.Gx + sp.diags(low[1]) @ self.Gy
        J = ((self.Div @ flux_part + low_part) @ self.P).tocsr()
        if self._elim_any:
            J = (sp.diags(self._keep) @ J + self._elim_J).tocsr()
        return J

    def jacobian_action(self, u, phi_vals):
        """`jacobian(u, phi_vals)` as a LinearOperator, never assembled.

        Each product costs a handful of sparse matvecs with the fixed
        incidence matrices.
        """
        face, low = self._linear_coefficients(u, phi_vals)

        def matvec(v):
            v = np.ravel(v)
            e = self.P @ v
            out = (self.Div @ (face[0] * (self.Mq1 @ e) + face[1] * (self.Mq2 @ e))
                   + low[0] * (self.Gx @ e) + low[1] * (self.Gy @ e))
            if self._elim_any:
                out = self._keep * out + self._elim_J @ v
            return out

        N = self.grid.num_inside
        return spla.LinearOperator((N, N), matvec=matvec, dtype=float)

    def jacobian_fd(self, u, phi_vals, eps=1e-6):
        """Colored central finite-difference Jacobian; the trusted oracle.

        Dependencies reach up to four cells through ghost fills near
        the boundary, so nodes are colored by (ix mod 9, iy mod 9),
        which keeps same-color columns row-disjoint.
        """
        grid = self.grid
        N = grid.num_inside
        H0 = np.zeros(N)
        reach = 4
        stride = 2 * reach + 1
        ix, iy = grid.inside_ij[:, 0], grid.inside_ij[:, 1]
        color = (ix % stride) * stride + iy % stride
        rows, cols, vals = [], [], []
        for c in np.unique(color):
            e = (color == c).astype(float)
            rp = self.residual(u + eps * e, phi_vals, H0)
            rm = self.residual(u - eps * e, phi_vals, H0)
            d = (rp - rm) / (2.0 * eps)
            # each row j sees the one column of this color within reach
            j = np.nonzero(d)[0]
            k = _lattice_at(grid.node_index,
                            ix[j] + (c // stride - ix[j] + reach) % stride - reach,
                            iy[j] + (c % stride - iy[j] + reach) % stride - reach)
            j, k = j[k >= 0], k[k >= 0]
            rows.append(j)
            cols.append(k)
            vals.append(d[j])
        return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(N, N))

    def laplace_lift(self, phi_vals, _lu_slot=None):
        """Discrete harmonic extension of the boundary data.

        Solves the linear metric Laplacian with the same ghost
        machinery; used to warm-start Newton with boundary-compatible
        iterates so the saturating flux never sees the raw data jump.
        `_lu_slot`, a dict, receives the Laplacian's factorization under
        "lu" for a caller that reuses it.
        """
        if getattr(self, "_lap_T", None) is None:
            coef = []
            for m in range(2):
                sig_am = np.take_along_axis(
                    self.face_siginv[:, :, m], self.face_axis[:, None], axis=1
                )[:, 0]
                coef.append(self.face_sqrt_det * sig_am)
            T = self.Div @ (sp.diags(coef[0]) @ self.Mq1 + sp.diags(coef[1]) @ self.Mq2)
            self._lap_T = T.tocsr()
            self._lap_A = (T @ self.P).tocsr()
        rhs = -(self._lap_T @ (self.B @ np.asarray(phi_vals, dtype=float)))
        return self._solve(self._lap_A, rhs, lu_slot=_lu_slot)

    @cached_property
    def _nd_order(self):
        """Nested-dissection order of the inside nodes (George 1973).

        Each part is bisected across its longer lattice axis by one
        lattice line, the separator, which is numbered after both
        halves.  The 3x3 interior stencil does not reach across the
        line, so eliminating the halves first confines most LU fill to
        them.  Every part of one level is bisected at once.  A part is
        known by its first position in the order: its low half keeps it,
        the high half starts after the low half, the separator after
        both.  Nodes in a leaf or a separator keep build order.
        """
        ix, iy = self.grid.inside_ij.T
        n = len(ix)
        start = np.zeros(n, dtype=int)          # first position of each node's part
        live = np.arange(n)                     # nodes in parts still to split
        while True:
            s = start[live]
            live = live[np.bincount(s, minlength=n)[s] > ND_LEAF]
            if not len(live):
                return np.argsort(start, kind="stable")
            s, x, y = start[live], ix[live], iy[live]
            box = []                            # per part, by its start
            for c in (x, y):
                lo, hi = np.full(n, np.iinfo(int).max), np.zeros(n, dtype=int)
                np.minimum.at(lo, s, c)
                np.maximum.at(hi, s, c)
                box += [lo, hi]
            x0, x1, y0, y1 = box
            on_y = y1 - y0 > x1 - x0                   # the longer axis, x on ties
            mid = np.where(on_y, y0 + y1, x0 + x1)[s] // 2
            along = np.where(on_y[s], y, x)
            low, high = along < mid, along > mid
            n_low = np.bincount(s[low], minlength=n)[s]
            n_high = np.bincount(s[high], minlength=n)[s]
            start[live] = s + np.where(low, 0, np.where(high, n_low, n_low + n_high))
            live = live[low | high]

    def _solve(self, A, rhs, tol=LINEAR_TOL, lu_slot=None):
        """x with A x = rhs for an (N, N) sparse A over the inside nodes.

        Single-precision sparse LU of A (`_Factorization`), then
        iterative refinement in double precision (Carson & Higham, SIAM
        J. Sci. Comput. 40, 2018): x <- x + LU^-1 (rhs - A x), with the
        residual formed from the float64 A, for as long as the
        correction shrinks and at most REFINE_MAX times.  Each step
        gains about the float32 LU's relative accuracy, so x ends at
        float64 accuracy.  Raises SingularJacobian when the
        factorization breaks down, or when x is not finite or leaves a
        relative residual above `tol`.  `lu_slot`, a dict, receives the
        factorization under "lu".
        """
        rhs = np.asarray(rhs, dtype=float)
        lu = _Factorization(A, self._nd_order)
        if lu_slot is not None:
            lu_slot["lu"] = lu
        x = lu.solve(rhs)
        if not np.all(np.isfinite(x)):
            raise SingularJacobian("linear solve returned non-finite values")
        last = np.inf
        for _ in range(REFINE_MAX):
            dx = lu.solve(rhs - A @ x)
            size = np.linalg.norm(dx)
            if not size < last:     # stopped shrinking, or not finite
                break
            x += dx
            last = size
        rel = _relative_residual(A, x, rhs)
        if rel > tol:
            raise SingularJacobian(f"linear solve relative residual {rel:.2e}")
        return x

    def state(self, u, phi_vals):
        u_ext = self.extend(u, phi_vals)
        c, up, W = self._node_state(u_ext)
        A = (W * W)[:, None, None] * self.node_siginv - np.einsum("ni,nj->nij", up, up)
        return OperatorState(u_hat_up=up, u_hat_down=c, W=W, A=A)

    def functional(self, u, phi_vals, fiber_weighted=False):
        """Integral of W (optionally of W / sqrt(f)) against sqrt(sigma).

        The fiber-weighted variant is the true graph area and is the
        quantity whose first variation matches the H = 0 residual when
        f is not constant.
        """
        from .grid import integrate

        u_ext = self.extend(u, phi_vals)
        _, _, W = self._node_state(u_ext)
        field = W / np.sqrt(self.node_f) if fiber_weighted else W
        return integrate(self.grid, field, self.chart)

    def residual_nondivergence(self, u, phi_vals, H_vals, gamma_mode="full"):
        """Nondivergence-form residual on interior nodes (cross-check).

        gamma_mode "full" keeps the antisymmetric bracket part of the
        covariant derivative of hat_u; "symmetrized" drops it.  The
        symmetric contraction against A^{ij} makes both agree to
        rounding.  Non-interior entries are NaN.
        """
        grid = self.grid
        N = grid.num_inside
        u_ext = self.extend(u, phi_vals)
        c, up, W = self._node_state(u_ext)
        out = np.full(N, np.nan)

        h = grid.h
        ext_id = self._ext_id_map()
        gam = christoffels_at(self.chart, grid.points, h)

        # d_i tilt_k by central differences of the chart tilt
        dt = _central_partials(lambda p: _tilt(self.chart, p), grid.points, h)

        idx = np.nonzero(grid.interior_mask)[0]
        Hv = self.n * np.asarray(H_vals, dtype=float)
        cx, cy = grid.inside_ij[idx, 0], grid.inside_ij[idx, 1]

        def at(sx, sy):
            return u_ext[ext_id[cy + sy, cx + sx]]

        u0 = u_ext[idx]
        uxx = (at(1, 0) - 2 * u0 + at(-1, 0)) / h ** 2
        uyy = (at(0, 1) - 2 * u0 + at(0, -1)) / h ** 2
        uxy = (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4 * h ** 2)
        hess = np.stack([uxx, uxy, uxy, uyy], axis=-1).reshape(-1, 2, 2)
        duhat = hess + dt[idx]            # [n, i, k] = d_i hat_u_k
        M = duhat.transpose(0, 2, 1) - np.einsum("nlki,nl->nki", gam[idx], c[idx])  # [n, k, i]
        if gamma_mode == "symmetrized":
            M = 0.5 * (M + M.transpose(0, 2, 1))
        W2 = W[idx] ** 2
        A = W2[:, None, None] * self.node_siginv[idx] - np.einsum("ni,nj->nij", up[idx], up[idx])
        kup = np.einsum("ni,ni->n", self.node_kappa[idx], up[idx])
        out[idx] = (np.einsum("nik,nki->n", A, M)
                    - (self.node_f[idx] + W2) * kup) / W[idx] ** 3 - Hv[idx]
        return out


class _Factorization:
    """Single-precision sparse LU of an (N, N) matrix permuted
    symmetrically by `order`.

    SuperLU factors the permuted matrix cast to float32, in the given
    order and with its threshold partial pivoting: half the memory of a
    float64 LU for the same fill, and faster to factor and to solve.
    `solve` takes float64 vectors in the original node order, solves in
    float32 and returns float64 vectors of float32 precision.  It is an
    approximate inverse, accurate to about cond(A) * 6e-8; callers that
    need more refine (`GraphOperator._solve`) or run flexible GMRES on
    it (`solver._gmres`).
    """

    def __init__(self, A, order):
        try:
            self._lu = spla.splu(A[order][:, order].tocsc().astype(np.float32),
                                 permc_spec="NATURAL")
        except RuntimeError as exc:
            raise SingularJacobian(f"sparse factorization failed: {exc}") from None
        self._order = order

    def solve(self, rhs):
        # a power-of-two scale keeps rhs inside float32's range, exactly
        scale = np.ldexp(1.0, np.frexp(np.max(np.abs(rhs), initial=0.0))[1])
        x = np.empty(len(rhs))
        x[self._order] = self._lu.solve((rhs[self._order] / scale).astype(np.float32))
        return x * scale


def _relative_residual(A, x, rhs):
    """|A x - rhs| / |rhs|, 0 for a zero rhs; not finite when x is not.

    A is a sparse matrix or a LinearOperator.
    """
    denom = np.linalg.norm(rhs)
    if denom == 0:
        return 0.0
    return float(np.linalg.norm(A @ x - rhs) / denom)


def _weights_by_branch(t, branches):
    """(len(t), 4) weights; each (mask, formula) fills the rows of its mask
    with formula(t[mask]), a tuple of four arrays or scalars."""
    out = np.zeros((len(t), 4))
    for sel, formula in branches:
        ts = t[sel]
        out[sel] = np.column_stack(np.broadcast_arrays(ts, *formula(ts))[1:])
    return out


def _walk_inward(grid, nodes, dirs, depth):
    """Inside ids 1..depth steps from `nodes` against link directions `dirs`.

    Column s holds the node s + 1 steps back, or -1 from the first step
    that leaves the inside set on.
    """
    sx, sy = STEP_X[dirs], STEP_Y[dirs]
    cx, cy = grid.inside_ij[nodes, 0], grid.inside_ij[nodes, 1]
    out = np.stack([_lattice_at(grid.node_index, cx - s * sx, cy - s * sy)
                    for s in range(1, depth + 1)], axis=-1)
    return np.where(np.cumprod(out >= 0, axis=1) > 0, out, -1)


def _faces(lo, hi):
    """Lattice coords of the faces between index views `lo` and `hi`.

    A face exists where either side is inside.  Faces are numbered in
    the order a node-by-node scan first meets them: each node names the
    face on its high side, then the one on its low side.
    """
    fy, fx = np.nonzero((lo >= 0) | (hi >= 0))
    first_seen = np.where(lo[fy, fx] >= 0, 2 * lo[fy, fx], 2 * hi[fy, fx] + 1)
    order = np.argsort(first_seen)
    return fx[order], fy[order]


def _get_operator(chart, grid, n=2):
    """The GraphOperator of (chart, grid, n), built once per grid.

    Memoized on the grid, so an operator is freed with its grid.
    """
    key = (id(chart), n)
    op = grid.operators.get(key)
    if op is None or op.chart is not chart:
        op = GraphOperator(chart, grid, n=n)
        grid.operators[key] = op
    return op


# ---------------------------------------------------------------------------
# spec-level convenience functions

def residual(spec, grid, u, H=None, phi=None):
    """Q[u] - n H over inside nodes for a problem spec."""
    op = _get_operator(spec.chart, grid, spec.n)
    H_vals = spec.H_nodes(grid) if H is None else _eval_data(H, grid.points)
    phi_vals = spec.phi_links(grid) if phi is None else _eval_data(phi, grid.link_points)
    return op.residual(np.asarray(u, dtype=float), phi_vals, H_vals)


def jacobian(spec, grid, u, phi=None):
    """Analytic sparse Jacobian of the residual at u."""
    op = _get_operator(spec.chart, grid, spec.n)
    phi_vals = spec.phi_links(grid) if phi is None else _eval_data(phi, grid.link_points)
    return op.jacobian(np.asarray(u, dtype=float), phi_vals)


def operator_state(spec, grid, u):
    """Tilted gradient (both index positions), W and A^{ij} at every inside node."""
    op = _get_operator(spec.chart, grid, spec.n)
    return op.state(np.asarray(u, dtype=float), spec.phi_links(grid))


def area_functional(spec, grid, u):
    """The graph functional integral of W against the sigma area element."""
    op = _get_operator(spec.chart, grid, spec.n)
    return op.functional(np.asarray(u, dtype=float), spec.phi_links(grid))
