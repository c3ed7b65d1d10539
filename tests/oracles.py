"""Independent checks on `GraphOperator`, kept out of the package.

`jacobian_fd` is the coloured central finite-difference Jacobian of the
divergence-form residual (Coleman & More, SIAM J. Numer. Anal. 20,
1983), the trusted reference for the analytic `jacobian`.
`residual_nondivergence` is the nondivergence form built from the
quasilinear coefficients A^{ij} = W^2 sigma^{ij} - hat_u^i hat_u^j, which
must agree with the flux form at second order.  Each takes the
operator it checks as its first argument.  `riccati_per_stage` is the
Riccati flow stepped stage by stage, the reference for
`riccati_evolution`.  `interpolation_by_sort` numbers the multigrid's
coarse nodes with `np.unique`, the reference for `_interpolation`, and
`ellipticity_einsum` is `verify`'s ellipticity test node by node.
"""

import numpy as np
import scipy.sparse as sp

from kgraph.analysis import (GEOM_H_FD, RiccatiCurve, _curve_H_cyl, _sigma_normalize,
                             boundary_geometry)
from kgraph.errors import TubularWidthExceeded
from kgraph.geometry import DIM, _central_partials, _tilt, christoffels_at
from kgraph.grid import _lattice_at


def jacobian_fd(op, u, phi_vals, eps=1e-6):
    """Colored central finite-difference Jacobian; the trusted oracle.

    Dependencies reach up to four cells through ghost fills near
    the boundary, so nodes are colored by (ix mod 9, iy mod 9),
    which keeps same-color columns row-disjoint.
    """
    grid = op.grid
    N = grid.num_inside
    H0 = np.zeros(N)
    reach = 4
    stride = 2 * reach + 1
    ix, iy = grid.inside_ij[:, 0], grid.inside_ij[:, 1]
    color = (ix % stride) * stride + iy % stride
    rows, cols, vals = [], [], []
    for c in np.unique(color):
        e = (color == c).astype(float)
        rp = op.residual(u + eps * e, phi_vals, H0)
        rm = op.residual(u - eps * e, phi_vals, H0)
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


def residual_nondivergence(op, u, phi_vals, H_vals, gamma_mode="full"):
    """Nondivergence-form residual on interior nodes (cross-check).

    gamma_mode "full" keeps the antisymmetric bracket part of the
    covariant derivative of hat_u; "symmetrized" drops it.  The
    symmetric contraction against A^{ij} makes both agree to
    rounding.  Non-interior entries are NaN.
    """
    grid = op.grid
    N = grid.num_inside
    u_ext = op.extend(u, phi_vals)
    c1, c2, up1, up2, W = op.state(u, phi_vals)
    c, up = np.column_stack([c1, c2]), np.column_stack([up1, up2])
    out = np.full(N, np.nan)

    h = grid.h
    ext_id = grid.ext_index
    gam = christoffels_at(op.grid.chart, grid.points, h)

    # d_i tilt_k by central differences of the chart tilt
    dt = _central_partials(lambda p: _tilt(op.grid.chart, p), grid.points, h)

    idx = np.nonzero(grid.interior_mask)[0]
    Hv = DIM * np.asarray(H_vals, dtype=float)
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
    A = W2[:, None, None] * op.node_siginv[idx] - np.einsum("ni,nj->nij", up[idx], up[idx])
    kup = np.einsum("ni,ni->n", op.node_kappa[idx], up[idx])
    out[idx] = (np.einsum("nik,nki->n", A, M)
                - (op.node_f[idx] + W2) * kup) / W[idx] ** 3 - Hv[idx]
    return out


def riccati_per_stage(chart, domain, eps_max, deps, samples=64):
    """`riccati_evolution` the plain way: the normal geodesics, their
    Christoffel symbols from one `christoffels_at` per RK4 stage, and the
    envelope as one tuple, with one `_curve_H_cyl` per depth."""
    ric = chart.ric_lower
    bg = boundary_geometry(chart, domain, samples=samples)
    nsteps = max(1, int(round(eps_max / deps)))
    eps = np.linspace(0.0, eps_max, nsteps + 1)
    dt = eps_max / nsteps
    S = len(bg.points)
    width0 = np.linalg.norm(bg.points_plus - bg.points_minus, axis=1)

    def flow(y):
        p, v, H = y
        if chart.flat_metric:
            acc = np.zeros_like(v)
        else:
            acc = -np.einsum("...kij,...i,...j->...k", christoffels_at(chart, p, GEOM_H_FD), v, v)
        return v, acc, H * H + ric / DIM

    def shift(y, k, c):
        return tuple(yi + c * ki for yi, ki in zip(y, k))

    y = (np.concatenate([bg.points_minus, bg.points, bg.points_plus]),
         np.concatenate([bg.eta_minus, bg.eta, bg.eta_plus]), bg.H_cyl)
    H_direct = np.empty((S, nsteps + 1))
    H_env = np.empty_like(H_direct)
    for k in range(nsteps + 1):
        if k:
            with np.errstate(over="ignore"):
                k1 = flow(y)
                k2 = flow(shift(y, k1, 0.5 * dt))
                k3 = flow(shift(y, k2, 0.5 * dt))
                k4 = flow(shift(y, k3, dt))
                y = tuple(yi + dt / 6.0 * (a + 2 * b + 2 * c + d)
                          for yi, a, b, c, d in zip(y, k1, k2, k3, k4))
        p, v, H_env[:, k] = y
        pm, p0, pp = p[:S], p[S:2 * S], p[2 * S:]
        if np.any(np.linalg.norm(pp - pm, axis=1) < 0.05 * width0):
            raise TubularWidthExceeded(f"normal geodesics focus before eps = {eps[k]:.4g}")
        if not np.all(np.isfinite(H_env[:, k])):
            raise TubularWidthExceeded(f"Riccati envelope blows up before eps = {eps[k]:.4g}")
        eta_eps = _sigma_normalize(chart, p0, v[S:2 * S])
        H_direct[:, k] = _curve_H_cyl(chart, pm, p0, pp, bg.dt, eta_eps)[0]
    return RiccatiCurve(eps=eps, H_direct=H_direct, H_envelope=H_env)


def interpolation_by_sort(ij):
    """`operator._interpolation` by sorting: the coarse nodes are the
    sorted distinct row-major keys of the 2h corners (`np.unique`), and
    each corner's column is its key's rank among them."""
    corners = (ij[:, None, :] + np.array([[0, 0], [1, 0], [0, 1], [1, 1]])) // 2
    width = int(corners[..., 0].max()) + 1
    keys, cols = np.unique(corners[..., 1] * width + corners[..., 0], return_inverse=True)
    n = len(ij)
    P = sp.csr_matrix((np.full(4 * n, 0.25, dtype=np.float32),
                       (np.repeat(np.arange(n), 4), cols.ravel())), shape=(n, len(keys)))
    return P, np.stack([keys % width, keys // width], axis=1)


def ellipticity_einsum(op, state, rng_seed):
    """`verify`'s ellipticity verdict, f |xi|^2 <= A xi xi <= W^2 |xi|^2 in
    its 8 random directions: |xi|^2 = sigma^ij xi_i xi_j by one einsum over
    nodes and directions, hat_u . xi component by component."""
    _, _, up1, up2, W = state
    xi = np.random.default_rng(rng_seed).normal(size=(8, 2))
    norm2 = np.einsum("nij,ki,kj->nk", op.node_siginv, xi, xi)
    hi = (W ** 2)[:, None]
    ratio = (hi * norm2 - (up1[:, None] * xi[:, 0] + up2[:, None] * xi[:, 1]) ** 2) / norm2
    lo = op.node_f[:, None]
    return bool(np.all(ratio >= lo * (1 - 1e-10) - 1e-10)
                and np.all(ratio <= hi * (1 + 1e-10) + 1e-10))
