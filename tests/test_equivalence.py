"""Array-assembled setup against the per-node loops it replaced.

Sweep: `grid.dist` from the anti-diagonal fast sweep must equal, bit for
bit, the row-major Gauss-Seidel loop kept below as an oracle, and run one
pass fewer than it: the oracle's last pass, which changes nothing.  Its
look-ahead must make fewer kernel calls than the diagonals it relaxes.

Crossings: `link_theta` and `link_points` must equal, bit for bit, those
of one `scipy.optimize.brentq` call per link, the loop kept below.

Operator: the residual and a Jacobian-vector product on a fixed smooth
field must match `tests/data/operator_*.npz`, which hold the values the
per-node / per-face loop assembly of `GraphOperator` produced.

Oracles and boundary gathers: `residual_nondivergence`, `jacobian_fd`,
`boundary_gradient_samples`, `integrate`, the boundary normals and `Div`
must match `tests/data/{nondiv,jacfd,boundary}_*.npz`, written by the
per-node code these became array code of, together with their inputs.
`grid.eta` must equal, bit for bit, the normals stored in
`tests/data/stencils_*.npz`, which were written with a per-node stencil
routine that no longer exists; they are kept as they are.

Run this file as a script to rewrite the operator, nondivergence,
Jacobian and boundary references from the installed kgraph.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import kgraph as kg
from kgraph import grid as kgrid
from kgraph.analysis import boundary_gradient_samples
from kgraph.geometry import inverse_metric_at
from kgraph.operator import _get_operator

DATA = Path(__file__).resolve().parent / "data"


# ---------------------------------------------------------------------------
# sweep oracle: one node at a time, rows of lattice order, four orderings

def row_major_sweep(domain, chart, points, node_index, inside_ij, h, link_pts, link_node):
    """The distance field, and the passes run, the last of them changing
    nothing."""
    n = len(points)
    d = np.full(n, np.inf)
    siginv = inverse_metric_at(chart, points)
    sig = chart.metric_at(points)

    frozen = np.zeros(n, dtype=bool)
    if len(link_pts):
        for k in np.unique(link_node):
            delta = link_pts - points[k]
            euclid = np.hypot(delta[:, 0], delta[:, 1])
            near = euclid <= 2.0 * h
            dl = delta[near]
            lens = np.sqrt(np.einsum("kj,jl,kl->k", dl, sig[k], dl))
            d[k] = lens.min()
            frozen[k] = True

    sweeps = []
    for fx in (False, True):
        for fy in (False, True):
            key = (inside_ij[:, 0] * (-1 if fx else 1),
                   inside_ij[:, 1] * (-1 if fy else 1))
            sweeps.append(np.lexsort(key))

    nbr_of = {}
    for k in range(n):
        cx, cy = inside_ij[k]
        nbr_of[k] = [[int(node_index[cy, cx + 1]), int(node_index[cy, cx - 1])],
                     [int(node_index[cy + 1, cx]), int(node_index[cy - 1, cx])]]

    for passes in range(1, 31):
        change = 0.0
        for ordering in sweeps:
            for k in ordering:
                if frozen[k]:
                    continue
                s11, s12, s22 = siginv[k, 0, 0], siginv[k, 0, 1], siginv[k, 1, 1]
                xa = [d[j] for j in nbr_of[k][0] if j >= 0 and np.isfinite(d[j])]
                ya = [d[j] for j in nbr_of[k][1] if j >= 0 and np.isfinite(d[j])]
                cand = np.inf
                if xa:
                    cand = min(cand, min(xa) + h / np.sqrt(s11))
                if ya:
                    cand = min(cand, min(ya) + h / np.sqrt(s22))
                if xa and ya:
                    a = min(xa)
                    b = min(ya)
                    for sgn in (1.0, -1.0):
                        s12e = s12 * sgn
                        A = s11 + 2 * s12e + s22
                        B = -2 * (s11 * a + s12e * (a + b) + s22 * b)
                        C = s11 * a * a + 2 * s12e * a * b + s22 * b * b - h * h
                        disc = B * B - 4 * A * C
                        if disc >= 0 and A > 0:
                            root = (-B + np.sqrt(disc)) / (2 * A)
                            if root >= max(a, b):
                                cand = min(cand, root)
                if cand < d[k] - 1e-14:
                    d[k] = cand
                    change = max(change, 1.0)
        if change == 0.0:
            break
    return d, passes


def _chart(name, metric):
    return kg.SubmersionChart(
        name=name, metric=metric,
        f=lambda P: np.ones(np.asarray(P).shape[:-1]),
        delta=lambda P: np.zeros(np.asarray(P).shape[:-1] + (2,)),
        ric_lower=0.0, flat_metric=False)


def _curved_exp(P):
    P = np.asarray(P)
    out = np.zeros(P.shape[:-1] + (2, 2))
    out[..., 0, 0] = np.exp(2.0 * P[..., 0])
    out[..., 1, 1] = 1.0
    return out


def _aniso41(P):
    P = np.asarray(P)
    out = np.zeros(P.shape[:-1] + (2, 2))
    out[..., 0, 0] = 4.0
    out[..., 1, 1] = 1.0
    return out


def _sheared(P):
    P = np.asarray(P)
    out = np.zeros(P.shape[:-1] + (2, 2))
    out[..., 0, 0] = 1.5 + 0.5 * P[..., 0]
    out[..., 0, 1] = out[..., 1, 0] = 0.4 + 0.2 * P[..., 1]
    out[..., 1, 1] = 1.0 + 0.3 * P[..., 1] ** 2
    return out


def _rotating(P):
    """sigma = R(t) diag(1, 25) R(t)^T with t = 3 (x + y / 2): the slow
    direction turns across the domain, so information needs several
    passes to get round."""
    P = np.asarray(P)
    t = 3.0 * (P[..., 0] + P[..., 1] / 2)
    c, s = np.cos(t), np.sin(t)
    out = np.empty(P.shape[:-1] + (2, 2))
    out[..., 0, 0] = c * c + 25.0 * s * s
    out[..., 0, 1] = out[..., 1, 0] = -24.0 * c * s
    out[..., 1, 1] = s * s + 25.0 * c * c
    return out


SWEEP_CASES = {
    "curved-exp-disk": (_curved_exp, kg.Disk((0.0, 0.0), 0.5), 1.0 / 32),
    # its last changing pass moves d by under 1e-7, so a convergence test
    # coarser than the update's own stops a pass early
    "curved-exp-disk-24": (_curved_exp, kg.Disk((0.0, 0.0), 0.5), 1.0 / 24),
    "aniso41-unit-square": (_aniso41, kg.Rectangle(0.0, 0.0, 1.0, 1.0), 1.0 / 32),
    "sheared-offcentre-disk": (_sheared, kg.Disk((0.03, -0.02), 0.45), 1.0 / 32),
    "rotating-offcentre-disk": (_rotating, kg.Disk((0.03, -0.02), 0.45), 1.0 / 32),
    "rotating-unit-square": (_rotating, kg.Rectangle(0.0, 0.0, 1.0, 1.0), 1.0 / 32),
}


def _sweep_case(case):
    metric, domain, h = SWEEP_CASES[case]
    chart = _chart(case, metric)
    grid = kg.build_grid(domain, h, chart)
    oracle = row_major_sweep(domain, chart, grid.points, grid.node_index,
                             grid.inside_ij, grid.h, grid.link_points, grid.link_node)
    return chart, grid, oracle


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_matches_row_major_oracle(case):
    chart, grid, (oracle, _) = _sweep_case(case)
    assert np.all(np.isfinite(oracle))
    assert np.array_equal(grid.dist, oracle)
    assert np.array_equal(kg.distance_field(grid, chart), oracle)


@pytest.fixture
def sweep_counts(monkeypatch):
    """Gauss-Seidel passes and Jacobi checks of the next `_fast_sweep`: the
    `_sweep_pass` calls, and the `_upwind_candidates` calls made outside
    them."""
    passes, checks, in_pass = [], [], []
    sweep_pass, upwind = kgrid._sweep_pass, kgrid._upwind_candidates

    def counting_pass(*args):
        passes.append(1)
        in_pass.append(True)
        try:
            return sweep_pass(*args)
        finally:
            in_pass.pop()

    def counting_upwind(*args):
        if not in_pass:
            checks.append(1)
        return upwind(*args)

    monkeypatch.setattr(kgrid, "_sweep_pass", counting_pass)
    monkeypatch.setattr(kgrid, "_upwind_candidates", counting_upwind)
    return lambda: (len(passes), len(checks))


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_skips_the_confirming_pass(case, sweep_counts):
    # the oracle's last pass changes nothing; a Jacobi check after each
    # changing pass replaces it
    _, _, (_, oracle_passes) = _sweep_case(case)
    passes, checks = sweep_counts()
    assert passes == oracle_passes - 1
    assert checks == passes


@pytest.mark.parametrize("case", ["rotating-offcentre-disk", "rotating-unit-square"])
def test_rotating_metric_needs_several_passes(case):
    # so the Jacobi check also answers "keep sweeping"
    assert _sweep_case(case)[2][1] >= 3


def test_curved_exp_disk_sweeps_twice(sweep_counts):
    _sweep_case("curved-exp-disk")
    assert sweep_counts() == (2.0, 2)


def test_look_ahead_calls_the_kernel_less_than_once_per_diagonal(monkeypatch):
    # runs of diagonals that change nothing cost one kernel call, so the
    # sweep, Jacobi checks included, makes fewer calls than the diagonals
    # its passes relax
    chart, grid, (_, oracle_passes) = _sweep_case("curved-exp-disk")
    calls = []
    upwind = kgrid._upwind_candidates
    monkeypatch.setattr(kgrid, "_upwind_candidates",
                        lambda *args: calls.append(1) or upwind(*args))
    kg.distance_field(grid, chart)
    ix, iy = grid.inside_ij[~np.isin(np.arange(grid.num_inside), grid.link_node)].T
    diagonals = 2 * (len(np.unique(ix + iy)) + len(np.unique(ix - iy)))
    assert len(calls) < (oracle_passes - 1) * diagonals


@settings(max_examples=20, deadline=None)
@given(n=st.integers(12, 20),
       centre=st.tuples(st.floats(-0.1, 0.1), st.floats(-0.1, 0.1)),
       radius=st.floats(0.3, 0.5))
def test_sweep_matches_row_major_oracle_on_offcentre_disks(n, centre, radius):
    chart = _chart("rotating", _rotating)
    grid = kg.build_grid(kg.Disk(centre, radius), 1.0 / n, chart)
    oracle, _ = row_major_sweep(grid.domain, chart, grid.points, grid.node_index,
                                grid.inside_ij, grid.h, grid.link_points, grid.link_node)
    assert np.array_equal(grid.dist, oracle)


# ---------------------------------------------------------------------------
# link crossings: the per-link scipy brentq loop build_grid ran before

def _strip(rows, top):
    """`rows` lattice rows; the bottom edge lies on a lattice row (theta 1
    below), the top edge `top` * h above the top row."""
    return kg.Rectangle(-0.2, 0.1, 0.2, 0.1 + (rows + top) / 48)


def brentq_crossings(domain, grid):
    h = grid.h
    theta = np.empty(grid.num_links)
    points = np.empty((grid.num_links, 2))
    steps = np.array(((1, 0), (-1, 0), (0, 1), (0, -1)), dtype=float)
    for k, (n, d) in enumerate(zip(grid.link_node, grid.link_dir)):
        base, step = grid.points[n], steps[d]

        def along(t):
            return float(domain.sdf(base + t * step))

        t = h if along(h) <= 0.0 else brentq(along, 0.0, h, xtol=1e-13, rtol=1e-15)
        theta[k] = min(max(t / h, 1e-12), 1.0)
        points[k] = base + t * step
    return theta, points


def _assert_crossings_match_brentq(domain, h):
    grid = kg.build_grid(domain, h, kg.euclidean())
    theta, points = brentq_crossings(domain, grid)
    assert grid.num_links > 0
    assert np.array_equal(grid.link_theta, theta)
    assert np.array_equal(grid.link_points, points)


CROSSING_CASES = {   # domain, h
    **{f"centred-cap-{n}": (kg.Disk((0.0, 0.0), 0.5), 1.0 / n) for n in (64, 192, 256, 512)},
    "offcentre-disk-48": (kg.Disk((0.0137, -0.0219), 0.5), 1.0 / 48),
    "unit-square-25": (kg.Rectangle(0.0, 0.0, 1.0, 1.0), 1.0 / 25),
    "rectangle-64": (kg.Rectangle(-0.3, -0.2, 0.4, 0.3), 1.0 / 64),
    **{f"strip{rows}-{top}": (_strip(rows, top), 1.0 / 48)
       for rows in (1, 2, 3) for top in (0.5, 0.02)},
}


@pytest.mark.parametrize("case", sorted(CROSSING_CASES))
def test_crossings_match_brentq(case):
    _assert_crossings_match_brentq(*CROSSING_CASES[case])


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([12, 16, 20, 25]),
       offset=st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                        st.floats(0.0, 1.0, exclude_max=True)),
       multiple=st.integers(3, 9),
       nudge=st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6]))
def test_crossings_match_brentq_near_lattice_radii(n, offset, multiple, nudge):
    h = 1.0 / n
    centre = (offset[0] * h, offset[1] * h)
    _assert_crossings_match_brentq(kg.Disk(centre, (multiple + nudge) * h), h)


# ---------------------------------------------------------------------------
# operator references

def _cap(P):
    P = np.asarray(P, dtype=float)
    return -np.sqrt(1.0 - P[..., 0] ** 2 - P[..., 1] ** 2)


def _saddle(P):
    P = np.asarray(P, dtype=float)
    return 0.5 * P[..., 0] * P[..., 1]


OPERATOR_CASES = {   # chart factory, domain, h, H, phi
    "euclid48_offcentre": (kg.euclidean, kg.Disk((0.0137, -0.0219), 0.5), 1.0 / 48, 1.0, _cap),
    "heis48": (kg.heisenberg, kg.Disk((0.0, 0.0), 1.0), 1.0 / 48, 0.0, _saddle),
    "euclid96_centred": (kg.euclidean, kg.Disk((0.0, 0.0), 0.5), 1.0 / 96, 1.0, _cap),
    # a ghost shared by a pinned node's small-theta link and an unpinned node
    "euclid48_r041": (kg.euclidean, kg.Disk((0.0, 0.0), 0.41), 1.0 / 48, 1.0, _cap),
    # strips one to three rows high reach the extrapolation and
    # elimination stencils that have fewer than three nodes behind them
    "euclid48_strip1_half": (kg.euclidean, _strip(1, 0.5), 1.0 / 48, 1.0, _cap),
    "euclid48_strip1_near": (kg.euclidean, _strip(1, 0.02), 1.0 / 48, 1.0, _cap),
    "euclid48_strip2_near": (kg.euclidean, _strip(2, 0.02), 1.0 / 48, 1.0, _cap),
    "euclid48_strip3_near": (kg.euclidean, _strip(3, 0.02), 1.0 / 48, 1.0, _cap),
}


def _fields(points):
    x, y = points[:, 0], points[:, 1]
    u = 0.3 * np.sin(2 * x) * np.cos(y) + 0.2 * x * y + 0.1 * np.cos(3 * y) - 0.8
    v = np.cos(x + 2 * y) + 0.5 * x
    return u, v


def operator_values(case):
    # the grid is returned with its operator, which lives only as long as it
    factory, domain, h, H, phi = OPERATOR_CASES[case]
    chart = factory()
    grid = kg.build_grid(domain, h, chart)
    spec = kg.ProblemSpec(chart=chart, domain=domain, H=H, phi=phi)
    op = _get_operator(chart, grid, spec.n)
    u, v = _fields(grid.points)
    phi_vals = spec.phi_links(grid)
    residual = op.residual(u, phi_vals, spec.H_nodes(grid))
    jv = op.jacobian(u, phi_vals) @ v
    return grid, op, {"residual": residual, "jv": jv}


def _rel_err(new, ref):
    return float(np.max(np.abs(new - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("case", sorted(OPERATOR_CASES))
def test_operator_matches_reference(case):
    ref = np.load(DATA / f"operator_{case}.npz")
    _, _, got = operator_values(case)
    for key in ("residual", "jv"):
        assert got[key].shape == ref[key].shape
        assert _rel_err(got[key], ref[key]) <= 1e-14, key


def test_centred_reference_covers_small_theta_and_shared_ghosts():
    grid, op, _ = operator_values("euclid96_centred")
    assert len(op.elim_nodes) > 0
    ghost_links = np.bincount(grid.neighbor_ext[grid.link_node, grid.link_dir]
                              - grid.num_inside)
    assert ghost_links.max() >= 2
    small = grid.link_theta < 0.05
    assert np.any(ghost_links[grid.neighbor_ext[grid.link_node[small],
                                                grid.link_dir[small]]
                              - grid.num_inside] >= 2)


def _nodes_behind(grid, node, d):
    """Inside nodes in a row behind `node`, against direction `d`, up to 3."""
    sx, sy = ((1, 0), (-1, 0), (0, 1), (0, -1))[d]
    cx, cy = grid.inside_ij[node]
    count = 0
    while count < 3 and grid.node_index[cy - (count + 1) * sy, cx - (count + 1) * sx] >= 0:
        count += 1
    return count


def test_r041_reference_shares_a_small_theta_ghost_with_an_unpinned_node():
    grid, op, _ = operator_values("euclid48_r041")
    ghost = grid.neighbor_ext[grid.link_node, grid.link_dir]
    unpinned = ~np.isin(grid.link_node, op.elim_nodes)
    small = np.nonzero(grid.link_theta < 0.05)[0]
    assert any(np.isin(ghost[k], ghost[unpinned])
               and _nodes_behind(grid, grid.link_node[k], grid.link_dir[k]) >= 2
               for k in small)


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_strip_reference_pins_top_row(rows):
    grid, op, _ = operator_values(f"euclid48_strip{rows}_near")
    # every top-row node is pinned along its +y link, rows - 1 nodes deep
    assert len(op.elim_nodes) == len(np.unique(grid.inside_ij[:, 0]))
    for n in op.elim_nodes:
        assert grid.link_dir[op.elim_link[n]] == 2
        assert _nodes_behind(grid, n, 2) == rows - 1


@pytest.mark.parametrize("case, behind", [("euclid48_strip1_half", 0),
                                          ("euclid48_strip2_near", 1)])
def test_strip_reference_extrapolates_unpinned_short_links(case, behind):
    grid, op, _ = operator_values(case)
    unpinned = np.nonzero(~np.isin(grid.link_node, op.elim_nodes))[0]
    assert any(_nodes_behind(grid, grid.link_node[k], grid.link_dir[k]) == behind
               for k in unpinned)


# ---------------------------------------------------------------------------
# the oracles and the boundary gathers: references in
# tests/data/{nondiv,jacfd,boundary}_*.npz hold the values of the per-node
# loops these became array code of, with the input fields they were
# computed from; tests/data/stencils_*.npz also hold grid.eta

STENCIL_CASES = {   # chart factory, domain, h
    "euclid20_offcentre": (kg.euclidean, kg.Disk((0.0137, -0.0219), 0.5), 1.0 / 20),
    "aniso41_square25": (lambda: _chart("aniso41", _aniso41),
                         kg.Rectangle(0.0, 0.0, 1.0, 1.0), 1.0 / 25),
    "heis16": (kg.heisenberg, kg.Disk((0.0, 0.0), 1.0), 1.0 / 16),
    "euclid48_strip2": (kg.euclidean, _strip(2, 0.5), 1.0 / 48),
    "euclid20_three_nodes": (kg.euclidean, kg.Disk((0.0, 0.37 / 20), 1.02 / 20), 1.0 / 20),
}


@pytest.mark.parametrize("case", sorted(STENCIL_CASES))
def test_eta_matches_stencils_reference(case):
    factory, domain, h = STENCIL_CASES[case]
    eta = np.load(DATA / f"stencils_{case}.npz")["eta"]
    assert np.array_equal(kg.build_grid(domain, h, factory()).eta, eta)


ORACLE_CASES = {   # chart factory, domain, h, phi
    "heis16": (kg.heisenberg, kg.Disk((0.0, 0.0), 1.0), 1.0 / 16, _saddle),
    "heis32": (kg.heisenberg, kg.Disk((0.0, 0.0), 1.0), 1.0 / 32, _saddle),
    "warped32": (lambda: kg.warped("1 + x^2 / 4", ric_lower=0.0, name="warped-mild"),
                 kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, _saddle),
    "euclid64": (kg.euclidean, kg.Disk((0.0, 0.0), 0.5), 1.0 / 64, _cap),
    "euclid48_offcentre": (kg.euclidean, kg.Disk((0.0137, -0.0219), 0.5), 1.0 / 48, _cap),
    "euclid96_centred": (kg.euclidean, kg.Disk((0.0, 0.0), 0.5), 1.0 / 96, _cap),
}
NONDIV_CASES = ("heis16", "heis32", "warped32", "euclid64")
JACFD_CASES = ("heis16", "euclid48_offcentre", "euclid96_centred")


def _oracle_setup(case, ref=None):
    # the grid is returned with its operator, which lives only as long as it
    factory, domain, h, phi = ORACLE_CASES[case]
    chart = factory()
    grid = kg.build_grid(domain, h, chart)
    op = _get_operator(chart, grid, 2)
    if ref is None:
        return grid, op, _fields(grid.points)[0], phi(grid.link_points)
    return grid, op, ref["u"], ref["phi"]


def nondiv_values(case, ref=None):
    grid, op, u, phi = _oracle_setup(case, ref)
    H = np.full(grid.num_inside, 0.5)
    return {"u": u, "phi": phi,
            "full": op.residual_nondivergence(u, phi, H, gamma_mode="full"),
            "symmetrized": op.residual_nondivergence(u, phi, H, gamma_mode="symmetrized")}


def jacfd_values(case, ref=None):
    grid, op, u, phi = _oracle_setup(case, ref)
    J = op.jacobian_fd(u, phi)
    return {"u": u, "phi": phi, "data": J.data, "indices": J.indices, "indptr": J.indptr}


@pytest.mark.parametrize("case", NONDIV_CASES)
def test_residual_nondivergence_matches_reference(case):
    ref = np.load(DATA / f"nondiv_{case}.npz")
    got = nondiv_values(case, ref)
    for key in ("full", "symmetrized"):
        interior = np.isfinite(ref[key])
        assert np.array_equal(np.isfinite(got[key]), interior), key
        assert _rel_err(got[key][interior], ref[key][interior]) <= 1e-13, key


@pytest.mark.parametrize("case", JACFD_CASES)
def test_jacobian_fd_matches_reference(case):
    ref = np.load(DATA / f"jacfd_{case}.npz")
    got = jacfd_values(case, ref)
    for key in ("indptr", "indices", "data"):
        assert np.array_equal(got[key], ref[key]), key


BOUNDARY_CASES = {   # problem factory, h
    "cap64": (lambda: (kg.euclidean(), kg.Disk((0.0, 0.0), 0.5), 1.0, _cap), 1.0 / 64),
    "curved_exp64": (lambda: (_chart("curved-exp", _curved_exp), kg.Disk((0.0, 0.0), 0.5),
                              0.0, _saddle), 1.0 / 64),
    # samples near the corners fall back to one-sided value differencing
    "aniso41_rect64": (lambda: (_chart("aniso41", _aniso41), kg.Rectangle(-0.3, -0.2, 0.4, 0.3),
                                0.0, _saddle), 1.0 / 64),
}


def gather_values(case, ref=None):
    """Boundary gradient samples, integrals, boundary normals and Div."""
    make, h = BOUNDARY_CASES[case]
    chart, domain, H, phi = make()
    grid = kg.build_grid(domain, h, chart)
    spec = kg.ProblemSpec(chart=chart, domain=domain, H=H, phi=phi)
    u, v = _fields(grid.points) if ref is None else (ref["u"], ref["v"])
    bgeom = kg.boundary_geometry(chart, domain, samples=max(64, grid.num_links))
    grad_norm, normal, tangential = boundary_gradient_samples(spec, grid, u, bgeom)
    Div = _get_operator(chart, grid, 2).Div
    return {"u": u, "v": v, "grad_norm": grad_norm, "normal": normal,
            "tangential": tangential,
            "integrals": np.array([kg.integrate(grid, w, chart)
                                   for w in (u, v, np.ones(grid.num_inside))]),
            "eta": grid.eta, "bgeom_eta": bgeom.eta, "bgeom_eta_minus": bgeom.eta_minus,
            "bgeom_eta_plus": bgeom.eta_plus, "div_data": Div.data,
            "div_indices": Div.indices, "div_indptr": Div.indptr}


@pytest.mark.parametrize("case", sorted(BOUNDARY_CASES))
def test_boundary_gathers_match_reference(case):
    ref = np.load(DATA / f"boundary_{case}.npz")
    got = gather_values(case, ref)
    for key in ("grad_norm", "normal", "tangential", "integrals"):
        assert got[key].shape == ref[key].shape
        assert _rel_err(got[key], ref[key]) <= 1e-14, key
    for key in ("eta", "bgeom_eta", "bgeom_eta_minus", "bgeom_eta_plus",
                "div_data", "div_indices", "div_indptr"):
        assert np.array_equal(got[key], ref[key]), key


def test_boundary_reference_reaches_the_fallback():
    """Some rectangle samples have an incomplete gradient cell, and some of
    those an incomplete cell of the ghost-extended field as well."""
    make, h = BOUNDARY_CASES["aniso41_rect64"]
    chart, domain, _, _ = make()
    grid = kg.build_grid(domain, h, chart)
    ext = _get_operator(chart, grid, 2)._ext_id_map()
    bgeom = kg.boundary_geometry(chart, domain, samples=max(64, grid.num_links))

    def complete(id_map, depth):
        p = bgeom.points + depth * h * bgeom.eta
        ix = np.floor((p[:, 0] - grid.x_origin) / h).astype(int)
        iy = np.floor((p[:, 1] - grid.y_origin) / h).astype(int)
        return np.min([id_map[iy + sy, ix + sx] for sx in (0, 1) for sy in (0, 1)], axis=0) >= 0

    fallback = ~(complete(grid.node_index, 1.5) & complete(grid.node_index, 2.5))
    assert 0 < np.sum(fallback) < len(fallback)
    assert np.any(fallback & ~complete(ext, 1.0))


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name in sorted(OPERATOR_CASES):
        _, _, values = operator_values(name)
        np.savez_compressed(DATA / f"operator_{name}.npz", **values)
        print(name, {k: v.shape for k, v in values.items()})
    references = [("nondiv", NONDIV_CASES, nondiv_values),
                  ("jacfd", JACFD_CASES, jacfd_values),
                  ("boundary", BOUNDARY_CASES, gather_values)]
    for prefix, cases, values_of in references:
        for name in sorted(cases):
            np.savez_compressed(DATA / f"{prefix}_{name}.npz", **values_of(name))
            print(prefix, name)
