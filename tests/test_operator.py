"""The mean curvature operator: states, residuals, Jacobian, functional."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import kgraph as kg
from kgraph.errors import InputError
from conftest import cap_trace, smooth_random_field
from oracles import jacobian_fd, residual_nondivergence
from test_equivalence import OPERATOR_CASES, _fields

CAP = cap_trace()


def aniso_chart():
    def metric(P):
        P = np.asarray(P)
        out = np.zeros(P.shape[:-1] + (2, 2))
        out[..., 0, 0] = 4.0
        out[..., 1, 1] = 1.0
        return out

    return kg.SubmersionChart(
        name="aniso41", metric=metric,
        f=lambda P: np.ones(np.asarray(P).shape[:-1]),
        delta=lambda P: np.zeros(np.asarray(P).shape[:-1] + (2,)),
        ric_lower=0.0, flat_metric=False)


def linear_state(chart, grid, a, b):
    """operator_state of u = a x + b y, with the same function as phi:
    hat_u^i as `u_hat_up` (N, 2), `W`, and the quasilinear coefficients
    `A` = W^2 sigma^ij - hat_u^i hat_u^j."""
    def field(P):
        P = np.asarray(P)
        return a * P[..., 0] + b * P[..., 1]

    spec = kg.ProblemSpec(chart=chart, domain=grid.domain, phi=field)
    _, _, up1, up2, W = kg.operator_state(spec, grid, field(grid.points))
    up = np.column_stack([up1, up2])
    A = ((W * W)[:, None, None] * kg.inverse_metric_at(chart, grid.points)
         - np.einsum("ni,nj->nij", up, up))
    return SimpleNamespace(u_hat_up=up, W=W, A=A)


def nearest(grid, x):
    return int(np.argmin(np.sum((grid.points - x) ** 2, axis=1)))


class TestUhatAndW:
    def test_euclid_identity(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 1.0), 0.125, euclid)
        state = linear_state(euclid, grid, 0.3, -0.4)
        n = nearest(grid, [0.0, 0.0])
        assert np.allclose(state.u_hat_up[n], [0.3, -0.4], atol=1e-12)
        assert state.W[n] == pytest.approx(np.sqrt(1.25))

    def test_heisenberg_zero_graph(self, heis):
        grid = kg.build_grid(kg.Disk((1.0, 2.0), 0.3), 0.1, heis)
        n = nearest(grid, [1.0, 2.0])
        assert np.allclose(grid.points[n], [1.0, 2.0], atol=1e-12)
        state = linear_state(heis, grid, 0.0, 0.0)
        assert np.allclose(state.u_hat_up[n], [1.0, -0.5], atol=1e-12)
        assert state.W[n] == pytest.approx(1.5)

    def test_index_raising(self):
        chart = aniso_chart()
        grid = kg.build_grid(kg.Rectangle(-1, -1, 1, 1), 0.25, chart)
        state = linear_state(chart, grid, 2.0, 3.0)
        n = nearest(grid, [0.0, 0.0])
        assert np.allclose(state.u_hat_up[n], [0.5, 3.0], atol=1e-12)

    def test_w_examples(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 1.0), 0.1, euclid)
        assert linear_state(euclid, grid, 0.0, 0.0).W[nearest(grid, [0.0, 0.0])] \
            == pytest.approx(1.0)
        n = nearest(grid, [0.2, 0.2])
        assert np.allclose(grid.points[n], [0.2, 0.2], atol=1e-12)
        assert linear_state(euclid, grid, 3.0, 4.0).W[n] == pytest.approx(np.sqrt(26.0))


class TestProblemSpec:
    def test_array_phi_rejected(self, euclid):
        # the cap at 1/32 has as many links as boundary samples (124), so a
        # link array would pass for sample values without an error
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, euclid)
        bgeom = kg.boundary_geometry(euclid, grid.domain, samples=max(64, grid.num_links))
        assert grid.num_links == len(bgeom.points) == 124
        with pytest.raises(InputError, match="phi must be a number or a callable"):
            kg.ProblemSpec(chart=euclid, domain=grid.domain, phi=CAP(grid.link_points))
        with pytest.raises(InputError):
            kg.ProblemSpec(chart=euclid, domain=grid.domain, phi="0.5")

    def test_number_and_callable_phi_accepted(self, euclid):
        domain = kg.Disk((0.0, 0.0), 0.5)
        for phi in (0, 0.5, np.float64(-1.0), CAP):
            assert kg.ProblemSpec(chart=euclid, domain=domain, phi=phi).phi is phi

    @pytest.mark.parametrize("H", ["abc", "0.5", 1j, None], ids=["text", "numeric-text",
                                                               "complex", "none"])
    def test_H_not_a_number_is_an_input_error(self, euclid, H):
        with pytest.raises(InputError, match="^H must be a number, a callable over points "
                                             "or a node array, not "):
            kg.ProblemSpec(chart=euclid, domain=kg.Disk((0.0, 0.0), 0.5), H=H)

    def test_link_array_override_still_accepted(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=1.0, phi=CAP)
        u = CAP(grid.points)
        r = kg.residual(spec, grid, u, phi=CAP(grid.link_points))
        assert np.array_equal(r, kg.residual(spec, grid, u))

    @pytest.mark.parametrize("builtin", [kg.euclidean, kg.heisenberg])
    def test_builtin_chart_made_twice_matches_its_grid(self, builtin):
        # built-in charts compare equal across calls, so spec and grid need
        # not share one chart object
        assert builtin() == builtin()
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 16, builtin())
        spec = kg.ProblemSpec(chart=builtin(), domain=kg.Disk((0.0, 0.0), 0.5), H=1.0, phi=CAP)
        assert np.all(np.isfinite(kg.residual(spec, grid, CAP(grid.points))))

    @pytest.mark.parametrize("f", ["1 + x^2", 2.0], ids=["expression", "constant"])
    def test_warped_chart_made_twice_matches_its_grid(self, f):
        # one text compiles to one callable, so two warped charts built
        # from it compare equal and a spec on one solves on the other's grid
        assert kg.warped(f) == kg.warped(f)
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 16, kg.warped(f))
        spec = kg.ProblemSpec(chart=kg.warped(f), domain=kg.Disk((0.0, 0.0), 0.5),
                              H=0.5, phi=CAP)
        _, report = kg.solve_dirichlet(spec, grid)
        assert report.converged

    @pytest.mark.parametrize("entry", ["residual", "solve_dirichlet", "minimal_initial_graph",
                                       "verify", "height_barrier_certificate",
                                       "boundary_gradient_certificate", "flux_balance"])
    @pytest.mark.parametrize("mismatch", ["chart", "domain"])
    def test_spec_not_of_its_grid_is_an_input_error(self, euclid, curved, mismatch, entry):
        # the grid's distances and cell areas are in its chart's sigma, over
        # its domain: a spec with another chart or domain would use them
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 16, euclid)
        chart, domain = ((curved, grid.domain) if mismatch == "chart"
                         else (euclid, kg.Disk((0.0, 0.0), 0.4)))
        spec = kg.ProblemSpec(chart=chart, domain=domain, H=0.5, phi=0.0)
        u = () if entry in ("solve_dirichlet", "minimal_initial_graph") else (
            np.zeros(grid.num_inside),)
        with pytest.raises(InputError, match="does not match its grid"):
            getattr(kg, entry)(spec, grid, *u)


@pytest.mark.parametrize("bad, message", [
    (lambda n: np.zeros(3), "{} has 3 values, grid has 193 nodes$"),
    (lambda n: np.r_[np.zeros(n - 1), np.nan], r"{} is not finite at node \("),
], ids=["short", "nan"])
@pytest.mark.parametrize("call, name", [
    (lambda spec, grid, u: kg.residual(spec, grid, u), "u"),
    (lambda spec, grid, u: kg.jacobian(spec, grid, u), "u"),
    (lambda spec, grid, u: kg.operator_state(spec, grid, u), "u"),
    (lambda spec, grid, u: kg.area_functional(spec, grid, u), "u"),
    (lambda spec, grid, u: kg.comparison_check(spec, grid, u, np.zeros(grid.num_inside)), "u1"),
    (lambda spec, grid, u: kg.comparison_check(spec, grid, np.zeros(grid.num_inside), u), "u2"),
], ids=["residual", "jacobian", "operator_state", "area_functional", "comparison_u1",
        "comparison_u2"])
def test_bad_field_is_an_input_error(euclid, call, name, bad, message):
    # a field of the wrong length or with a NaN names the field, as
    # solve_dirichlet and verify do, not a numpy shape error or a
    # non-finite residual
    grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 16, euclid)
    spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=1.0, phi=CAP)
    with pytest.raises(InputError, match="^" + message.format(name)):
        call(spec, grid, bad(grid.num_inside))


class TestResidual:
    def test_constant_graph_euclid(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 1.0), 0.125, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=0.0, phi=0.7)
        r = kg.residual(spec, grid, np.full(grid.num_inside, 0.7))
        assert np.abs(r).max() < 1e-12

    def test_cap_closed_form(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 128, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=1.0, phi=CAP)
        r = kg.residual(spec, grid, CAP(grid.points))
        assert np.abs(r).max() <= 1e-3

    def test_heisenberg_zero_graph_minimal(self, heis):
        sups = []
        for h in (1.0 / 32, 1.0 / 64):
            grid = kg.build_grid(kg.Disk((0.0, 0.0), 1.0), h, heis)
            spec = kg.ProblemSpec(chart=heis, domain=grid.domain, H=0.0, phi=0.0)
            r = kg.residual(spec, grid, np.zeros(grid.num_inside))
            sups.append(np.abs(r).max())
        assert sups[1] <= 1e-3
        assert sups[0] / sups[1] > 2.5   # shrinking at second order

    def test_warped_closed_form(self):
        # f = e^{2x}, u = x: Q[u] = -(2 e^{2x} + 1) / (e^{2x} + 1)^{3/2}
        chart = kg.warped("exp(2*x)", ric_lower=-1.0)
        grid = kg.build_grid(kg.Rectangle(-0.5, -0.5, 0.5, 0.5), 1.0 / 64, chart)
        spec = kg.ProblemSpec(chart=chart, domain=grid.domain, H=0.0,
                              phi=lambda P: np.asarray(P)[..., 0])
        r = kg.residual(spec, grid, grid.points[:, 0].copy())
        x = grid.points[:, 0]
        expect = -(2 * np.exp(2 * x) + 1) / (np.exp(2 * x) + 1) ** 1.5
        assert np.abs(r - expect).max() < 1e-3

    def test_vertical_invariance(self, heis):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 1.0), 1.0 / 16, heis)
        rng = np.random.default_rng(5)
        u = smooth_random_field(grid.points, rng)
        op = grid.operator
        phi = smooth_random_field(grid.link_points.reshape(-1, 2), rng)
        H = np.zeros(grid.num_inside)
        r1 = op.residual(u, phi, H)
        r2 = op.residual(u + 0.37, phi + 0.37, H)
        assert np.abs(r1 - r2).max() < 1e-10

    def test_div_vs_nondiv_second_order(self, heis):
        def field(P):
            P = np.asarray(P)
            return 0.3 * np.sin(2 * P[..., 0]) * np.cos(P[..., 1]) \
                + 0.2 * P[..., 0] * P[..., 1]

        sups = []
        for h in (1.0 / 16, 1.0 / 32):
            grid = kg.build_grid(kg.Disk((0.0, 0.0), 1.0), h, heis)
            op = grid.operator
            u = field(grid.points)
            phi = field(grid.link_points)
            H0 = np.zeros(grid.num_inside)
            rdiv = op.residual(u, phi, H0)
            rnd = residual_nondivergence(op, u, phi, H0)
            m = grid.interior_mask & np.isfinite(rnd)
            sups.append(np.abs(rdiv[m] - rnd[m]).max())
        assert 2.5 < sups[0] / sups[1] < 6.0

    def test_gamma_invariance(self, heis):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 1.0), 1.0 / 16, heis)
        op = grid.operator
        rng = np.random.default_rng(6)
        for _ in range(3):
            u = smooth_random_field(grid.points, rng)
            phi = smooth_random_field(grid.link_points, rng)
            H0 = np.zeros(grid.num_inside)
            r_full = residual_nondivergence(op, u, phi, H0, gamma_mode="full")
            r_sym = residual_nondivergence(op, u, phi, H0, gamma_mode="symmetrized")
            m = np.isfinite(r_full)
            assert np.abs(r_full[m] - r_sym[m]).max() <= 1e-12


class TestQuasilinearCoeffs:
    def test_flat_zero_gradient(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 1.0), 0.25, euclid)
        A = linear_state(euclid, grid, 0.0, 0.0).A[nearest(grid, [0.0, 0.0])]
        assert np.allclose(A, np.eye(2), atol=1e-12)

    def test_slope_three_four(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 1.0), 0.25, euclid)
        A = linear_state(euclid, grid, 3.0, 4.0).A[nearest(grid, [0.0, 0.0])]
        assert np.allclose(A, [[17.0, -12.0], [-12.0, 10.0]], atol=1e-10)
        eig = np.linalg.eigvalsh(A)
        assert np.allclose(sorted(eig), [1.0, 26.0], atol=1e-10)

    def test_ellipticity_random_states(self, heis, warp):
        rng = np.random.default_rng(7)
        for chart in (kg.euclidean(), heis, warp):
            pts = rng.uniform(-0.8, 0.8, size=(100, 2))
            siginv = kg.inverse_metric_at(chart, pts)
            sig = chart.metric_at(pts)
            f = chart.f_at(pts)
            up = rng.normal(scale=2.0, size=(100, 2))
            W2 = f + np.einsum("ni,nij,nj->n", up, sig, up)
            A = W2[:, None, None] * siginv - np.einsum("ni,nj->nij", up, up)
            xi = rng.normal(size=(100, 2))
            quad = np.einsum("nij,ni,nj->n", A, xi, xi)
            norm2 = np.einsum("nij,ni,nj->n", siginv, xi, xi)
            ratio = quad / norm2
            assert np.all(ratio >= f * (1 - 1e-10) - 1e-10)
            assert np.all(ratio <= W2 * (1 + 1e-10) + 1e-10)


class TestState:
    def test_state_invariants(self, heis):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 1.0), 1.0 / 16, heis)
        rng = np.random.default_rng(8)
        u = smooth_random_field(grid.points, rng)
        spec = kg.ProblemSpec(chart=heis, domain=grid.domain, H=0.3,
                              phi=lambda P: smooth_random_field(
                                  np.atleast_2d(P), np.random.default_rng(8)))
        c1, c2, up1, up2, W = kg.operator_state(spec, grid, u)
        f = heis.f_at(grid.points)
        assert np.all(W >= np.sqrt(f) - 1e-14)
        # lowering indices is consistent
        sig = heis.metric_at(grid.points)
        down = np.einsum("nij,nj->ni", sig, np.column_stack([up1, up2]))
        assert np.abs(down - np.column_stack([c1, c2])).max() < 1e-12


class TestJacobian:
    def test_flat_linearization_is_laplacian(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 1.0), 0.125, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=0.0, phi=0.0)
        J = kg.jacobian(spec, grid, np.zeros(grid.num_inside)).toarray()
        h2 = grid.h ** 2
        interior = np.nonzero(grid.interior_mask)[0]
        deep = [n for n in interior
                if all(e < grid.num_inside and grid.interior_mask[e]
                       for e in grid.neighbor_ext[n])]
        for n in deep[::5]:
            assert J[n, n] == pytest.approx(-4.0 / h2, rel=1e-12)
            assert abs(J[n].sum()) < 1e-9 / h2
            for e in grid.neighbor_ext[n]:
                assert J[n, e] == pytest.approx(1.0 / h2, rel=1e-12)
                assert J[n, e] == pytest.approx(J[e, n], rel=1e-12)

    def test_directional_derivative(self, euclid):
        # forward difference probe with eps = 1e-7 against the analytic
        # rows; measured away from the boundary ring, where the ghost
        # weights (~1/theta) amplify the curvature of the residual past
        # what fp64 forward differencing can certify
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 8, euclid)
        op = grid.operator
        deep = grid.dist >= 3.5 * grid.h
        H0 = np.zeros(grid.num_inside)
        eps = 1e-7
        for seed in range(5):
            rng = np.random.default_rng(seed)
            u = smooth_random_field(grid.points, rng, scale=0.2)
            phi = smooth_random_field(grid.link_points, rng, scale=0.2)
            v = smooth_random_field(grid.points, rng, scale=0.2)
            J = op.jacobian(u, phi)
            fd = (op.residual(u + eps * v, phi, H0) - op.residual(u, phi, H0)) / eps
            assert np.linalg.norm((fd - J @ v)[deep]) <= 1e-6 * np.linalg.norm(v)

    def test_directional_derivative_central(self, heis, warp):
        # central difference oracle, relative mismatch
        rng = np.random.default_rng(19)
        for chart in (kg.euclidean(), heis, warp):
            grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, chart)
            op = grid.operator
            u = smooth_random_field(grid.points, rng)
            phi = smooth_random_field(grid.link_points, rng)
            v = smooth_random_field(grid.points, rng)
            H0 = np.zeros(grid.num_inside)
            J = op.jacobian(u, phi)
            eps = 1e-6
            fd = (op.residual(u + eps * v, phi, H0)
                  - op.residual(u - eps * v, phi, H0)) / (2 * eps)
            rel = np.linalg.norm(fd - J @ v) / np.linalg.norm(J @ v)
            assert rel <= 1e-6

    def test_colored_fd_matrix_oracle(self, heis):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.4), 1.0 / 16, heis)
        op = grid.operator
        rng = np.random.default_rng(10)
        u = smooth_random_field(grid.points, rng)
        phi = smooth_random_field(grid.link_points, rng)
        J = op.jacobian(u, phi)
        Jfd = jacobian_fd(op, u, phi)
        scale = max(np.abs(J).max(), 1.0)
        assert np.abs((J - Jfd).toarray()).max() <= 1e-6 * scale

    def test_lower_order_terms_match_fd_oracle(self):
        # f varies, so kappa = d f / (2 f) does not vanish; 3.9e-10 as
        # measured, and 2.7e-4 without the lower-order terms
        chart = kg.warped("1 + x^2 / 4")
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, chart)
        op = grid.operator
        assert op._kappa_any
        u, _ = _fields(grid.points)
        phi = CAP(grid.link_points)
        J = op.jacobian(u, phi).toarray()
        Jfd = jacobian_fd(op, u, phi).toarray()
        assert np.linalg.norm(J - Jfd) <= 1e-8 * np.linalg.norm(J)

    @pytest.mark.parametrize("chart_name", ["euclid", "heis"])
    def test_vanishing_lower_order_term_is_skipped_exactly(self, request, chart_name):
        # f is constant, so kappa is zero at every node and the residual
        # and its linearization skip the lower-order term: with it forced
        # back in, every result is bitwise the same
        chart = request.getfixturevalue(chart_name)
        grid = kg.build_grid(kg.Disk((0.013, -0.02), 0.5), 1.0 / 40, chart)
        op = grid.operator
        assert not op._kappa_any
        u, v = _fields(grid.points)
        phi, H = CAP(grid.link_points), np.ones(grid.num_inside)

        def evaluate():
            J = op.jacobian(u, phi)
            return [op.residual(u, phi, H), J.data, J.indices, J.indptr,
                    op.jacobian_action(u, phi) @ v]

        skipped = evaluate()
        op._kappa_any = True
        try:
            kept = evaluate()
        finally:
            op._kappa_any = False
        for a, b in zip(skipped, kept):
            assert np.array_equal(a, b)

    def test_translation_invariance_rows(self, euclid):
        # rows without boundary coupling annihilate constants when the
        # chart has no tilt and f is constant
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 1.0), 0.125, euclid)
        rng = np.random.default_rng(11)
        u = smooth_random_field(grid.points, rng)
        phi = smooth_random_field(grid.link_points, rng)
        op = grid.operator
        J = op.jacobian(u, phi)
        ones = np.ones(grid.num_inside)
        Jv = J @ ones
        # nodes at least three cells from the boundary see no ghost column
        deep = grid.dist >= 3.5 * grid.h
        assert np.abs(Jv[deep]).max() < 1e-9


class TestJacobianAction:
    """The matrix-free action shares `jacobian`'s coefficients, so it is
    the assembled product up to the order of the sums."""

    @pytest.mark.parametrize("case", sorted(OPERATOR_CASES) + ["curved_exp48", "warped32"])
    def test_matches_assembled_product(self, curved, case):
        if case == "curved_exp48":
            chart, domain, h, phi = curved, kg.Disk((0.0, 0.0), 0.5), 1.0 / 48, CAP
        elif case == "warped32":
            # f varies: the lower-order terms are applied too
            chart, domain, h, phi = kg.warped("1 + x^2 / 4"), kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, CAP
        else:
            factory, domain, h, _, phi = OPERATOR_CASES[case]
            chart = factory()
        grid = kg.build_grid(domain, h, chart)
        op = grid.operator
        assert op._kappa_any == (case == "warped32")
        u, v = _fields(grid.points)
        phi_vals = phi(grid.link_points)
        action = op.jacobian_action(u, phi_vals)
        assert action.shape == (grid.num_inside,) * 2 and action.dtype == float
        ref = op.jacobian(u, phi_vals) @ v
        got = action @ v
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestOperatorMemo:
    def test_same_object_per_grid(self, euclid, heis):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 16, euclid)
        op = grid.operator
        assert grid.operator is op
        # the grid's operator is its chart's: another chart is an input error
        heis_spec = kg.ProblemSpec(chart=heis, domain=grid.domain, H=1.0, phi=CAP)
        with pytest.raises(kg.InputError, match="does not match its grid"):
            kg.residual(heis_spec, grid, np.zeros(grid.num_inside))
        other = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 16, euclid)
        assert other.operator is not op
        assert grid.operator is op

    def test_operator_freed_with_grid(self, euclid):
        # no cycle: the grid owns the operator, which refers back weakly
        import weakref

        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 16, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=1.0, phi=CAP)
        kg.residual(spec, grid, np.zeros(grid.num_inside))
        ref = weakref.ref(grid.operator)
        assert ref() is not None
        del grid
        assert ref() is None


class TestFlatChart:
    """A chart declared flat is solved from the constants sigma = I, and its
    metric callable is never evaluated."""

    OPERATOR_ARRAYS = ("P", "B", "Gx", "Gy", "Mn", "Mt", "Div", "face_sig_nt",
                       "face_sqrt_det", "face_f", "face_tilt", "node_siginv",
                       "node_sqrt_det", "node_f", "node_tilt", "node_kappa")

    def test_metric_never_called(self, euclid):
        def metric(P):
            raise AssertionError("a flat chart's metric was evaluated")

        chart = dataclasses.replace(euclid, metric=metric, name="flat-raising")
        runs = []
        for c in (chart, euclid):
            spec = kg.ProblemSpec(chart=c, domain=kg.Disk((0.0, 0.0), 0.5), H=1.0, phi=CAP)
            grid = kg.build_grid(spec.domain, 1.0 / 32, c)
            u, report = kg.solve_dirichlet(spec, grid)
            assert report.converged
            result = kg.verify(spec, grid, u)
            assert result.passed and not result.items["riccati"].get("skipped")
            runs.append((grid, u))
        (grid, u), (grid_e, u_e) = runs
        assert np.array_equal(u, u_e)
        assert np.array_equal(grid.dist, grid_e.dist)
        assert np.array_equal(grid.cell_area, grid_e.cell_area)

    def test_same_operator_when_evaluated(self, euclid):
        # the identity's fields, evaluated, equal the flat constants bit for bit
        evaluated = dataclasses.replace(euclid, flat_metric=False, name="identity")
        cases = []
        for c in (euclid, evaluated):
            grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 48, c)
            spec = kg.ProblemSpec(chart=c, domain=grid.domain, H=1.0, phi=CAP)
            phi_vals = spec.phi_links(grid)
            u = CAP(grid.points) + 0.01 * np.sin(3 * grid.points[:, 0])
            op = grid.operator
            A, rhs = op._laplace_system(phi_vals)
            cases.append(dict(
                grid=grid, op=op, A=A.toarray(), rhs=rhs,
                residual=op.residual(u, phi_vals, spec.H_nodes(grid)),
                jacobian=op.jacobian(u, phi_vals).toarray()))
        flat, full = cases
        assert np.array_equal(flat["grid"].cell_area, full["grid"].cell_area)
        for name in self.OPERATOR_ARRAYS:
            a, b = getattr(flat["op"], name), getattr(full["op"], name)
            if hasattr(a, "toarray"):
                a, b = a.toarray(), b.toarray()
            assert a.shape == b.shape and np.array_equal(a, b), name
        for key in ("residual", "jacobian", "A", "rhs"):
            assert np.array_equal(flat[key], full[key]), key


class TestAreaFunctional:
    def test_flat_square(self, euclid):
        grid = kg.build_grid(kg.Rectangle(0, 0, 1, 1), 1.0 / 16, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=0.0, phi=0.0)
        assert kg.area_functional(spec, grid, np.zeros(grid.num_inside)) \
            == pytest.approx(1.0, abs=1e-10)

    def test_flat_disk(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 1.0), 1.0 / 64, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=0.0, phi=0.0)
        assert kg.area_functional(spec, grid, np.zeros(grid.num_inside)) \
            == pytest.approx(np.pi, abs=5e-3)

    def test_lower_bound(self, warp):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 16, warp)
        rng = np.random.default_rng(12)
        u = smooth_random_field(grid.points, rng)
        phi_vals = smooth_random_field(grid.link_points, rng)
        op = grid.operator
        val = op.functional(u, phi_vals)
        floor = kg.integrate(grid, np.sqrt(warp.f_at(grid.points)))
        assert val >= floor - 1e-12

    def test_variational_consistency_flat_fiber(self, heis):
        # discrete gradient of the functional tracks -(H=0 residual)
        # weighted by sqrt(sigma) h^2 when f is constant
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.6), 1.0 / 16, heis)
        op = grid.operator
        rng = np.random.default_rng(13)
        u = smooth_random_field(grid.points, rng)
        phi = smooth_random_field(grid.link_points, rng)
        r = op.residual(u, phi, np.zeros(grid.num_inside))
        deep = np.nonzero(grid.dist >= 3.5 * grid.h)[0]
        pick = deep[rng.choice(len(deep), size=30, replace=False)]
        eps = 1e-6
        fd = np.empty(len(pick))
        for k, n in enumerate(pick):
            up = u.copy(); up[n] += eps
            um = u.copy(); um[n] -= eps
            fd[k] = (op.functional(up, phi) - op.functional(um, phi)) / (2 * eps)
        target = -r[pick] * grid.h ** 2    # sqrt(sigma) = 1 on this chart
        corr = np.corrcoef(fd, target)[0, 1]
        assert corr > 0.99

    def test_variational_consistency_weighted(self, warp):
        # with varying f the fiber-weighted functional is the one whose
        # gradient matches the H = 0 residual
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.6), 1.0 / 16, warp)
        op = grid.operator
        rng = np.random.default_rng(14)
        u = smooth_random_field(grid.points, rng)
        phi = smooth_random_field(grid.link_points, rng)
        r = op.residual(u, phi, np.zeros(grid.num_inside))
        fvals = warp.f_at(grid.points)
        deep = np.nonzero(grid.dist >= 3.5 * grid.h)[0]
        pick = deep[rng.choice(len(deep), size=30, replace=False)]
        eps = 1e-6
        fd = np.empty(len(pick))
        for k, n in enumerate(pick):
            up = u.copy(); up[n] += eps
            um = u.copy(); um[n] -= eps
            fd[k] = (op.functional(up, phi, fiber_weighted=True)
                     - op.functional(um, phi, fiber_weighted=True)) / (2 * eps)
        target = -r[pick] / np.sqrt(fvals[pick]) * grid.h ** 2
        corr = np.corrcoef(fd, target)[0, 1]
        assert corr > 0.99
