"""The Killing-graph mean curvature operator on a grid.

For a graph function u over a chart (sigma, f, delta), the tilted
gradient is

    hat_u_i = d_i u + f^{1/2} delta_i        (covariant)
    hat_u^j = sigma^{ij} hat_u_i             (contravariant)
    W       = sqrt(f + hat_u_i hat_u^i)

and the operator in divergence form reads

    Q[u] = div_sigma(hat_u / W) - (1/W) kappa_i hat_u^i,

with kappa_i = d_i f / (2 f).  A graph has prescribed mean curvature H
precisely when Q[u] = n H, n = DIM = 2 the dimension of the planar
base.  The primary discretization is the flux form: face-centered
fluxes sqrt(det sigma) hat_u^n / W, n the face normal, differenced over
each node cell, with Dirichlet data entering through ghost values
extrapolated across the true boundary crossings (equivalent to
Shortley-Weller stencils).

Sign convention: the graph normal points up the fiber, so over a
Euclidean base the lower spherical cap u = -sqrt(R^2 - r^2) has
H = +1/R.
"""

import numbers
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InputError, KGraphError, SingularJacobian
from .geometry import DIM, kappa_vector_at, metric_fields
from .grid import STEP_X, STEP_Y, _lattice_at, integrate

THETA_FLOOR = 1e-6  # ghost extrapolation keeps theta away from zero
THETA_ELIM = 0.05   # below this, a node is pinned to boundary interpolation:
                    # extrapolation weights ~ 1/theta would otherwise amplify
                    # fp noise past any reasonable Newton tolerance
LINEAR_TOL = 1e-6   # relative residual of the first Newton step's solve and
                    # the floor of every later forcing term; a solve left
                    # above it and its own tolerance flags a singular matrix
LIFT_TOL = 1e-13    # relative residual of the harmonic lift, which is heis-
                    # saddle's answer: at LINEAR_TOL it takes 2 Newton steps
DIRECT_MAX = 60     # V-cycles a solve on a fresh hierarchy spends at most
COARSE_MAX = 2000   # unknowns of the coarsest multigrid level, factored by LU
JACOBI_OMEGA = 0.85 # damping of the multigrid smoother
JACOBI_SWEEPS = 3   # smoothing sweeps before and after each coarse correction


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

    def __post_init__(self):
        if not (callable(self.H) or np.asarray(self.H).dtype.kind in "biuf"):
            raise InputError("H must be a number, a callable over points or a node array, "
                             f"not {type(self.H).__name__}")
        if not (callable(self.phi) or isinstance(self.phi, numbers.Real)):
            raise InputError("phi must be a number or a callable over boundary points, "
                             f"not {type(self.phi).__name__}")

    def check_grid(self, grid):
        """InputError unless `grid` was built for this spec's chart and domain."""
        if self.chart != grid.chart or self.domain.describe() != grid.domain.describe():
            raise InputError(f"problem on chart {self.chart.name!r} over "
                             f"{self.domain.describe()} does not match its grid, built "
                             f"on {grid.chart.name!r} over {grid.domain.describe()}")

    def H_nodes(self, grid):
        self.check_grid(grid)
        return grid.check_field(_eval_data(self.H, grid.points), "H")

    def H_at(self, points):
        return _eval_data(self.H, points)

    def phi_links(self, grid):
        self.check_grid(grid)
        return self.phi_at(grid.link_points)

    def phi_at(self, points):
        vals = _eval_data(self.phi, points)
        if not np.all(np.isfinite(vals)):
            raise KGraphError("boundary data phi is not finite on the boundary")
        return vals


def _is_constant(vals):
    return float(np.ptp(vals)) <= 1e-12 * (1.0 + float(np.max(np.abs(vals))))


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


class GraphOperator:
    """Discrete operator of a grid, in the chart the grid was built for.

    Assembles the residual Q[u] - n H and its analytic sparse Jacobian
    from a fixed set of sparse incidence matrices, so repeated Newton
    calls only pay pointwise nonlinear work.

    The grid owns its one operator (`GridDomain.operator` builds it on
    first read), and `op.grid` is a weak proxy, so a dropped grid frees
    it at once.  An operator lives as long as its grid: keep the grid.
    It keeps no matrix of a solve: the harmonic lift's Laplacian and each
    solve's multigrid hierarchy (`_solve`) live only as long as the
    caller holds them.
    """

    def __init__(self, grid):
        self.grid = weakref.proxy(grid)
        self._find_eliminated()
        self._build_extension()
        self._build_gradients()
        self._node_geometry()
        self._build_faces()

    def _find_eliminated(self):
        """Nodes hugging the boundary (min link theta < THETA_ELIM).

        Their curvature equation is replaced by interpolation along the
        closest link between the crossing value and the nodes behind it;
        second-order consistent and free of the 1/theta weights that
        otherwise set an fp noise floor.
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
        # weights at the node (0) on the crossing (theta) and inward nodes (-1, -2, -3)
        used = inward >= 0
        x = np.column_stack([grid.link_theta[k], np.broadcast_to([-1.0, -2.0, -3.0], used.shape)])
        coefs = _lagrange_weights(x, np.column_stack([np.ones(len(n), dtype=bool), used]), 0.0)
        scale = 1.0 / grid.h ** 2
        rows = np.concatenate([n, np.repeat(n, 3)[used.ravel()]])
        cols = np.concatenate([n, inward[used]])
        vals = np.concatenate([np.full(len(n), scale), -coefs[:, 1:][used] * scale])
        self._elim_J = sp.csr_matrix((vals, (rows, cols)), shape=(N, N))
        self._elim_phi = sp.csr_matrix((coefs[:, 0] * scale, (n, k)), shape=(N, grid.num_links))
        self._keep = np.ones(N)
        self._keep[self.elim_nodes] = 0.0
        self._elim_any = len(self.elim_nodes) > 0

    # -- assembly of constant sparse operators --------------------------

    def _build_extension(self):
        """Ghost rows: per link, the polynomial through the crossing, the
        node and up to two nodes behind it, evaluated at the ghost; a ghost
        shared by several links takes the mean of their extrapolations.

        A crossing nearly on the node (theta < THETA_ELIM) stands in for
        it, which keeps the 1/theta weights out."""
        grid = self.grid
        N, Ng, L = grid.num_inside, grid.num_ghost, grid.num_links
        node, link = grid.link_node, np.arange(L)
        theta = np.maximum(grid.link_theta, THETA_FLOOR)
        g = grid.neighbor_ext[node, grid.link_dir] - N
        m, mm = _walk_inward(grid, node, grid.link_dir, 2).T
        # weights at +h on (mm, m, node) at (-2h, -h, 0) and on the crossing
        x = np.column_stack([np.broadcast_to([-2.0, -1.0, 0.0], (L, 3)), theta])
        used = np.column_stack([mm >= 0, m >= 0, theta >= THETA_ELIM, np.ones(L, dtype=bool)])
        w = _lagrange_weights(x, used, 1.0)
        on_node = used[:, :3].ravel()
        cols = np.column_stack([mm, m, node]).ravel()[on_node]
        ghosts = np.repeat(g, 3)[on_node]
        # sum per (ghost, node) in link order, then average over the
        # ghost's links
        keys, inv = np.unique(ghosts * N + cols, return_inverse=True)
        sums = np.bincount(inv, weights=w[:, :3].ravel()[on_node], minlength=len(keys))
        counts = np.bincount(g, minlength=Ng).astype(float)
        rows = np.concatenate([np.arange(N), N + keys // N])
        cols = np.concatenate([np.arange(N), keys % N])
        vals = np.concatenate([np.ones(N), sums / counts[keys // N]])
        self.P = sp.csr_matrix((vals, (rows, cols)), shape=(N + Ng, N))
        self.B = sp.csr_matrix((w[:, 3] / counts[g], (N + g, link)), shape=(N + Ng, L))

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
        ext = grid.ext_index
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
        # hat_u_i along each face's normal (Mn) and tangential (Mt) axis
        self.Mn = sp.vstack([Dx_norm, Dy_norm]).tocsr()
        self.Mt = sp.vstack([Avg_x @ self.Gy, Avg_y @ self.Gx]).tocsr()
        mid = np.concatenate([
            np.column_stack([grid.x_origin + (fx_x + 0.5) * h, grid.y_origin + fy_x * h]),
            np.column_stack([grid.x_origin + fx_y * h, grid.y_origin + (fy_y + 0.5) * h]),
        ])

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

        # face chart data in (n, t) axes, one row per component: sigma^{nn},
        # sigma^{nt}, sigma^{tt}, and the tilt's n and t components
        x_face = np.arange(Fx + Fy) < Fx        # x faces come first
        chart = grid.chart
        _, s, self.face_sqrt_det = metric_fields(chart, mid)
        s = np.stack([s[:, 0, 0], s[:, 0, 1], s[:, 1, 1]])
        self.face_sig_nt = np.where(x_face, s, s[::-1])
        self.face_f = chart.f_at(mid)
        t = (np.sqrt(self.face_f)[:, None] * chart.delta_at(mid)).T
        self.face_tilt = np.where(x_face, t, t[::-1])

    def _node_geometry(self):
        grid, chart, pts = self.grid, self.grid.chart, self.grid.points
        self.node_siginv, self.node_sqrt_det = grid.node_siginv, grid.node_sqrt_det
        self.node_f = chart.f_at(pts)
        self.node_tilt = (np.sqrt(self.node_f)[:, None] * chart.delta_at(pts)).T.copy()
        self.node_kappa = kappa_vector_at(chart, pts, grid.h)
        # False when f is constant: the lower-order term is then exactly 0
        self._kappa_any = bool(np.any(self.node_kappa))

    # -- pointwise states ------------------------------------------------

    def extend(self, u, phi_vals):
        return self.P @ np.asarray(u, dtype=float) + self.B @ np.asarray(phi_vals, dtype=float)

    def _face_state(self, u_ext):
        """(hat_u^n, hat_u^t, W) per face, in its (normal, tangential) axes."""
        qn = self.Mn @ u_ext + self.face_tilt[0]
        qt = self.Mt @ u_ext + self.face_tilt[1]
        return _raised(*self.face_sig_nt, qn, qt, self.face_f)

    def _node_state(self, u_ext):
        """(hat_u_x, hat_u_y, hat_u^x, hat_u^y, W) per node."""
        c1 = self.Gx @ u_ext + self.node_tilt[0]
        c2 = self.Gy @ u_ext + self.node_tilt[1]
        s = self.node_siginv
        return (c1, c2) + _raised(s[:, 0, 0], s[:, 0, 1], s[:, 1, 1], c1, c2, self.node_f)

    def _pointwise(self, u, phi_vals, out=None):
        """What the residual at u and its linearization share, in `out`."""
        u_ext = self.extend(u, phi_vals)
        out = {} if out is None else out
        out.update(face=self._face_state(u_ext),
                   node=self._node_state(u_ext) if self._kappa_any else None)
        return out

    # -- public evaluations ----------------------------------------------

    def residual(self, u, phi_vals, H_vals, _state=None):
        """Pointwise Q[u] - n H over inside nodes, divergence form.  `_state`,
        a dict, receives the state at u for `jacobian` or `jacobian_action`."""
        state = self._pointwise(u, phi_vals, _state)
        up_n, _, W = state["face"]
        r = self.Div @ (self.face_sqrt_det * up_n / W)
        if state["node"] is not None:
            _, _, up1, up2, W_n = state["node"]
            r -= (self.node_kappa[:, 0] * up1 + self.node_kappa[:, 1] * up2) / W_n
        r -= DIM * np.asarray(H_vals, dtype=float)
        if self._elim_any:
            pinned = self._elim_J @ np.asarray(u, dtype=float) - self._elim_phi @ phi_vals
            r[self.elim_nodes] = pinned[self.elim_nodes]
        if not np.all(np.isfinite(r)):
            k = int(np.argmax(~np.isfinite(r)))
            x, y = self.grid.points[k]
            raise KGraphError(f"residual not finite at node ({x:.6g}, {y:.6g})")
        return r

    def _linear_coefficients(self, u, phi_vals, state=None):
        """Coefficients of the residual's linearization at u.

        Returns (face, low): per face, the flux derivative along Mn and Mt,
        sqrt(det sigma) A^{nm} / W^3 with A the quasilinear coefficient
        matrix; per node, the lower-order term's along Gx and Gy, None when
        kappa vanishes.  `state` is the residual's at u when given.
        `jacobian` assembles them and `jacobian_action` applies them.
        """
        state = state or self._pointwise(u, phi_vals)
        up_n, up_t, W = state["face"]
        snn, snt, _ = self.face_sig_nt
        W2 = W * W
        face = [self.face_sqrt_det * (W2 * snn - up_n * up_n) / (W * W2),
                self.face_sqrt_det * (W2 * snt - up_n * up_t) / (W * W2)]
        if state["node"] is None:
            return face, None
        _, _, up1, up2, W_n = state["node"]
        k1, k2, s = self.node_kappa[:, 0], self.node_kappa[:, 1], self.node_siginv
        kup = k1 * up1 + k2 * up2
        low = [-((k1 * s[:, 0, m] + k2 * s[:, 1, m]) / W_n - kup * up / W_n ** 3)
               for m, up in ((0, up1), (1, up2))]
        return face, low

    def jacobian(self, u, phi_vals, _state=None):
        """Analytic sparse Jacobian of `residual` in u at fixed phi.

        Per-face flux derivative is sqrt(det sigma) A^{nm} / W^3 with A
        the quasilinear coefficient matrix, so ellipticity of the
        linearization is inherited from the pointwise inequality
        f |xi|^2 <= A xi xi <= W^2 |xi|^2.  `_state` is the residual's.
        """
        return self._assemble(*self._linear_coefficients(u, phi_vals, _state))[0]

    def _assemble(self, face, low=None):
        """(A, K): K = Div (diag(face[0]) Mn + diag(face[1]) Mt), plus
        diag(low[0]) Gx + diag(low[1]) Gy given `low`, over the extended
        nodes; A = K P with the `_elim_J` rows at eliminated nodes."""
        K = self.Div @ (sp.diags(face[0]) @ self.Mn + sp.diags(face[1]) @ self.Mt)
        if low is not None:
            K = K + sp.diags(low[0]) @ self.Gx + sp.diags(low[1]) @ self.Gy
        A = (K @ self.P).tocsr()
        if self._elim_any:
            A = (sp.diags(self._keep) @ A + self._elim_J).tocsr()
        return A, K

    def jacobian_action(self, u, phi_vals, _state=None):
        """`jacobian(u, phi_vals)` as a LinearOperator, never assembled.

        Each product costs a handful of sparse matvecs with the fixed
        incidence matrices.  `_state` is the residual's.
        """
        face, low = self._linear_coefficients(u, phi_vals, _state)

        def matvec(v):
            v = np.ravel(v)
            e = self.P @ v
            out = self.Div @ (face[0] * (self.Mn @ e) + face[1] * (self.Mt @ e))
            if low is not None:
                out = out + low[0] * (self.Gx @ e) + low[1] * (self.Gy @ e)
            if self._elim_any:
                out = self._keep * out + self._elim_J @ v
            return out

        N = self.grid.num_inside
        return spla.LinearOperator((N, N), matvec=matvec, dtype=float)

    def laplace_lift(self, phi_vals, _lu_slot=None):
        """Discrete harmonic extension of the boundary data.

        Solves the metric Laplacian with the same ghost machinery, and the
        Jacobian's rows at eliminated nodes, to LIFT_TOL, to warm-start
        Newton with boundary-compatible iterates: the saturating flux
        never sees the raw data jump.  Only the multigrid hierarchy built
        on the Laplacian outlives the lift, in the dict `_lu_slot` under
        "lu", for a caller that preconditions Newton steps with it.
        """
        return self._solve(*self._laplace_system(phi_vals), LIFT_TOL, lu_slot=_lu_slot)

    def _laplace_system(self, phi_vals):
        """(A, rhs) of the harmonic lift: A x = rhs over the inside nodes.

        Kept nodes carry the metric Laplacian's rows; eliminated nodes
        carry their `_elim_J` rows with right-hand side `_elim_phi @
        phi_vals`, exactly as in `residual` and `jacobian`.
        """
        phi_vals = np.asarray(phi_vals, dtype=float)
        A, T = self._assemble(self.face_sqrt_det * self.face_sig_nt[:2])
        rhs = -(T @ (self.B @ phi_vals))
        if self._elim_any:
            rhs = self._keep * rhs + self._elim_phi @ phi_vals
        return A, rhs

    def _solve(self, A, rhs, tol, lu_slot=None):
        """x with |A x - rhs| <= tol |rhs|, A sparse over the inside nodes.

        Flexible GMRES (`_gmres`) preconditioned by one V-cycle of a
        multigrid hierarchy built on A (`_Multigrid`), for at most
        DIRECT_MAX cycles.  Raises SingularJacobian when A has a zero
        diagonal or its coarsest level cannot be factored, or when x is
        not finite or leaves a relative residual above max(tol,
        LINEAR_TOL).  `lu_slot`, a dict, receives the hierarchy under "lu".
        """
        rhs = np.asarray(rhs, dtype=float)
        mg = _Multigrid(A, self.grid.inside_ij)
        if lu_slot is not None:
            lu_slot["lu"] = mg
        x = _gmres(A, mg.solve, rhs, tol, DIRECT_MAX)
        if x is None or not np.all(np.isfinite(x)):
            raise SingularJacobian("linear solve returned non-finite values")
        rel = _relative_residual(A, x, rhs)
        if rel > max(tol, LINEAR_TOL):
            raise SingularJacobian(f"linear solve relative residual {rel:.2e}")
        return x

    def state(self, u, phi_vals):
        """(hat_u_x, hat_u_y, hat_u^x, hat_u^y, W) per node at u."""
        return self._node_state(self.extend(u, phi_vals))

    def functional(self, u, phi_vals, fiber_weighted=False):
        """Integral of W (optionally of W / sqrt(f)) against sqrt(sigma).

        The fiber-weighted variant is the true graph area and is the
        quantity whose first variation matches the H = 0 residual when
        f is not constant.
        """
        W = self.state(u, phi_vals)[-1]
        field = W / np.sqrt(self.node_f) if fiber_weighted else W
        return integrate(self.grid, field)


class _Multigrid:
    """Geometric multigrid V-cycle for an (N, N) matrix over the inside
    nodes (Brandt, Math. Comp. 31, 1977).

    Level 0 is A on the nodes at lattice coords `ij`.  Each coarser level
    lives on the 2h lattice corners that bilinear interpolation P to the
    level above reaches, and carries the Galerkin operator P^T A P, down
    to COARSE_MAX unknowns, where a sparse LU solves it.  `solve` is one
    V-cycle from a zero guess, with JACOBI_SWEEPS damped-Jacobi sweeps
    before and after each coarse correction: an approximate inverse,
    which callers run float64 flexible GMRES on (`_gmres`), so the
    float32 hierarchy and cycle round only the preconditioner.  Storage
    and work per cycle are O(N).
    """

    def __init__(self, A, ij):
        A = A.tocsr()   # level 0 copies A's indices: scipy may sort A's own in place
        self.A = [sp.csr_matrix((A.data, A.indices, A.indptr), A.shape, np.float32, copy=True)]
        self.P, self.R = [], []
        while self.A[-1].shape[0] > COARSE_MAX:
            P, ij = _interpolation(ij)
            self.P.append(P)
            self.R.append(P.T.tocsr())
            self.A.append((self.R[-1] @ self.A[-1] @ P).tocsr())
        self.dinv = []
        for level, M in enumerate(self.A[:-1]):
            d = M.diagonal()
            if not np.all(d != 0):
                raise SingularJacobian(f"zero diagonal in row {int(np.argmin(d != 0))} "
                                       f"of multigrid level {level}")
            self.dinv.append(np.float32(JACOBI_OMEGA) / d)
        try:
            self._lu = spla.splu(self.A[-1].tocsc())
        except RuntimeError as exc:
            raise SingularJacobian(f"sparse factorization failed: {exc}") from None

    def solve(self, b, level=0):
        """One float32 V-cycle on b from `level` down, the coarsest by LU."""
        b = np.asarray(b, dtype=np.float32)
        if level == len(self.P):
            return self._lu.solve(b)
        A, w = self.A[level], self.dinv[level]
        x = w * b
        for _ in range(JACOBI_SWEEPS - 1):
            x += w * (b - A @ x)
        x += self.P[level] @ self.solve(self.R[level] @ (b - A @ x), level + 1)
        for _ in range(JACOBI_SWEEPS):
            x += w * (b - A @ x)
        return x


def _interpolation(ij):
    """(P, coarse_ij): bilinear interpolation from the 2h lattice to the
    nodes at lattice coords `ij`, an (n, 2) int array.

    Each node takes equal weights from its distinct 2h corners, 1, 2 or 4
    as 0, 1 or 2 of its coordinates are odd.  The coarse nodes are the
    corners some node uses, numbered row-major by a running count over the
    marked 2h lattice, so each row's columns come sorted in corner order.
    """
    width = int(ij[:, 0].max()) // 2 + 2
    base = (ij[:, 1] >> 1) * width + (ij[:, 0] >> 1)   # lower-left 2h corner, row-major
    ox, oy = (ij.T & 1).astype(bool)
    distinct = np.column_stack([np.ones_like(ox), ox, oy, ox & oy])
    keys = (base[:, None] + np.array([0, 1, width, width + 1]))[distinct]
    used = np.bincount(keys) > 0
    count = (1 + ox) * (1 + oy)
    P = sp.csr_matrix(((1.0 / np.repeat(count, count)).astype(np.float32),
                       (np.cumsum(used) - 1)[keys], np.r_[0, np.cumsum(count)]))
    return P, np.stack(np.divmod(np.flatnonzero(used), width)[::-1], axis=1)


def _gmres(A, M, b, tol, maxiter):
    """x = Z y minimizing |A x - b| over the preconditioned Krylov space,
    by flexible GMRES; None when the iteration breaks down.

    Flexible GMRES (Saad, SIAM J. Sci. Comput. 14, 1993) keeps each
    preconditioned vector Z[k] = M(V[k]) and applies A to that stored
    vector, so A Z = V H holds to rounding whatever M does, and the
    minimized residual is the true one for any M, linear or not.  Z is
    stored in float32, which halves its memory: A sees exactly what is
    stored, so only the preconditioner's quality is rounded.  The answer
    is y @ Z, with no further application of M.  Classical Gram-Schmidt,
    applied twice, orthogonalizes against all earlier vectors with two
    dense products per pass.  No restarts: it stops once the residual
    is at most tol |b|, or after `maxiter` applications of M and of A,
    and then returns its best x, which the caller checks.
    """
    beta = np.linalg.norm(b)
    if not np.isfinite(beta):
        return None
    if beta == 0.0:
        return np.zeros_like(b)
    V = np.empty((maxiter + 1, len(b)))
    Z = np.empty((maxiter, len(b)), dtype=np.float32)
    H = np.zeros((maxiter + 1, maxiter))
    g = np.zeros(maxiter + 1)
    V[0] = b / beta
    g[0] = beta
    for k in range(maxiter):
        Z[k] = M(V[k])
        w = A @ Z[k]
        for _ in range(2):
            c = V[:k + 1] @ w
            w -= c @ V[:k + 1]
            H[:k + 1, k] += c
        H[k + 1, k] = np.linalg.norm(w)
        if not np.isfinite(H[k + 1, k]):
            return None
        y = np.linalg.lstsq(H[:k + 2, :k + 1], g[:k + 2], rcond=None)[0]
        if (np.linalg.norm(H[:k + 2, :k + 1] @ y - g[:k + 2]) <= tol * beta
                or H[k + 1, k] == 0.0):
            break
        V[k + 1] = w / H[k + 1, k]
    return y @ Z[:k + 1]


def _raised(s11, s12, s22, q1, q2, f):
    """(hat_u^1, hat_u^2, W) from hat_u_i = (q1, q2) and sigma^{ij}."""
    up1 = s11 * q1 + s12 * q2
    up2 = s12 * q1 + s22 * q2
    return up1, up2, np.sqrt(f + (q1 * up1 + q2 * up2))


def _relative_residual(A, x, rhs):
    """|A x - rhs| / |rhs|, 0 for a zero rhs; not finite when x is not.

    A is a sparse matrix or a LinearOperator.
    """
    denom = np.linalg.norm(rhs)
    if denom == 0:
        return 0.0
    return float(np.linalg.norm(A @ x - rhs) / denom)


def _lagrange_weights(x, used, at):
    """(n, k) weights at `at` of each row's polynomial through its samples.

    Row i interpolates at the positions x[i] where used[i] holds.  Weight
    j is the product of (at - x_m) over the row's other samples m, divided
    by the product of (x_j - x_m), each taken in column order; a sample
    not used weighs 0.
    """
    out = np.zeros(x.shape)
    for j in range(x.shape[1]):
        num = den = 1.0
        for m in range(x.shape[1]):
            if m != j:
                num = num * np.where(used[:, m], at - x[:, m], 1.0)
                den = den * np.where(used[:, m], x[:, j] - x[:, m], 1.0)
        out[:, j] = np.where(used[:, j], num / den, 0.0)
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


# ---------------------------------------------------------------------------
# spec-level convenience functions

def residual(spec, grid, u, H=None, phi=None):
    """Q[u] - n H over inside nodes for a problem spec."""
    spec.check_grid(grid)
    H_vals = spec.H_nodes(grid) if H is None else _eval_data(H, grid.points)
    phi_vals = spec.phi_links(grid) if phi is None else _eval_data(phi, grid.link_points)
    return grid.operator.residual(grid.check_field(u, "u"), phi_vals, H_vals)


def jacobian(spec, grid, u, phi=None):
    """Analytic sparse Jacobian of the residual at u."""
    spec.check_grid(grid)
    phi_vals = spec.phi_links(grid) if phi is None else _eval_data(phi, grid.link_points)
    return grid.operator.jacobian(grid.check_field(u, "u"), phi_vals)


def operator_state(spec, grid, u):
    """(hat_u_x, hat_u_y, hat_u^x, hat_u^y, W) at every inside node: the
    tilted gradient in both index positions and W."""
    return grid.operator.state(grid.check_field(u, "u"), spec.phi_links(grid))


def area_functional(spec, grid, u):
    """The graph functional integral of W against the sigma area element."""
    return grid.operator.functional(grid.check_field(u, "u"), spec.phi_links(grid))
