"""Newton continuation solver, comparison checks, reports."""

import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import kgraph as kg
import kgraph.operator as kop
import kgraph.solver as ksolver
from kgraph.errors import ContinuationStalled, SingularJacobian
from kgraph.operator import _Factorization, _get_operator
from kgraph.solver import newton_solve
from conftest import cap_trace, curved_exp_H, curved_exp_u, saddle, smooth_random_field
from test_equivalence import _strip

CAP = cap_trace()


class TestTrivialProblem:
    def test_zero_solution_one_step(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=0.0, phi=0.0)
        u, report = kg.solve_dirichlet(spec, grid)
        assert np.abs(u).max() < 1e-12
        assert report.sigma_path == [1.0]
        assert report.newton_iters[0] <= 2
        assert report.converged

    def test_vertical_invariance_of_solves(self, heis):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 1.0), 1.0 / 32, heis)
        spec1 = kg.ProblemSpec(chart=heis, domain=grid.domain, H=0.0, phi=saddle)
        spec2 = kg.ProblemSpec(chart=heis, domain=grid.domain, H=0.0,
                               phi=lambda P: saddle(P) + 0.3)
        cfg = kg.SolveConfig(scale_phi=False)   # shift must survive unscaled
        u1, _ = kg.solve_dirichlet(spec1, grid, cfg)
        u2, _ = kg.solve_dirichlet(spec2, grid, cfg)
        assert np.abs(u2 - (u1 + 0.3)).max() < 1e-10


class TestCapReproduction:
    def test_error_and_rate(self, cap_64, cap_128):
        u64 = cap_64.u
        u128 = cap_128.u
        e64 = np.abs(u64 - CAP(cap_64.grid.points)).max()
        e128 = np.abs(u128 - CAP(cap_128.grid.points)).max()
        assert e128 <= 1e-3
        assert 3.0 <= e64 / e128 <= 5.0

    def test_final_newton_contraction(self, euclid):
        # undamped quadratic convergence near the solution
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 64, euclid)
        op = _get_operator(euclid, grid, 2)
        phi = CAP(grid.link_points)
        H = np.ones(grid.num_inside)
        cfg = kg.SolveConfig()
        lift = op.laplace_lift(phi)
        u, iters, history = newton_solve(op, lift, phi, H, cfg)
        assert history[-1] <= cfg.newton_tol
        assert history[-1] / history[-2] < 0.1

    def test_accepted_steps_monotone(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, euclid)
        op = _get_operator(euclid, grid, 2)
        phi = CAP(grid.link_points)
        H = np.ones(grid.num_inside)
        lift = op.laplace_lift(phi)
        _, _, history = newton_solve(op, lift, phi, H, kg.SolveConfig())
        assert all(b < a for a, b in zip(history, history[1:]))


class TestHeisenbergGraphs:
    def test_minimal_zero(self, heis_min_64):
        assert np.abs(heis_min_64.u).max() <= 1e-3

    def test_saddle(self, heis_saddle_64):
        err = np.abs(heis_saddle_64.u - saddle(heis_saddle_64.grid.points)).max()
        assert err <= 1e-3


class TestMinimalInitialGraph:
    def test_euclid_flat(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.7), 1.0 / 32, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=0.0, phi=0.0)
        u = kg.minimal_initial_graph(spec, grid)
        assert np.abs(u).max() < 1e-12
        area = kg.area_functional(spec, grid, u)
        sigma_area = kg.integrate(grid, np.ones(grid.num_inside), euclid)
        assert area == pytest.approx(sigma_area, abs=1e-12)

    def test_heisenberg_near_zero(self, heis):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 1.0), 1.0 / 64, heis)
        spec = kg.ProblemSpec(chart=heis, domain=grid.domain, H=0.0, phi=0.0)
        u = kg.minimal_initial_graph(spec, grid)
        assert np.abs(u).max() <= 1e-3

    def test_functional_descent(self, heis):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 1.0), 1.0 / 32, heis)
        spec = kg.ProblemSpec(chart=heis, domain=grid.domain, H=0.0, phi=0.0)
        op = _get_operator(heis, grid, 2)
        u = kg.minimal_initial_graph(spec, grid)
        zeros = np.zeros(grid.num_links)
        final = op.functional(u, zeros, fiber_weighted=True)
        start = op.functional(np.zeros(grid.num_inside), zeros, fiber_weighted=True)
        assert final <= start + 1e-9 * (1 + abs(start))


class TestContinuation:
    def test_path_steps_bounded(self, euclid):
        # successive sigma solutions differ by O(dsigma)
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=1.0, phi=CAP)
        cfg = kg.SolveConfig(try_direct=False, record_fields=True)
        u, report = kg.solve_dirichlet(spec, grid, cfg)
        assert report.converged
        assert len(report.fields) >= 2
        sigmas = np.array(report.sigma_path)
        rates = []
        prev = np.zeros(grid.num_inside)
        prev_sigma = 0.0
        for sig, field in zip(sigmas, report.fields):
            rates.append(np.abs(field - prev).max() / (sig - prev_sigma))
            prev, prev_sigma = field, sig
        assert max(rates) <= 5.0

    def test_scale_phi_only_H_mode(self, euclid):
        # alternate mode: continuation scales only H
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=1.0, phi=CAP)
        cfg = kg.SolveConfig(scale_phi=False)
        u, report = kg.solve_dirichlet(spec, grid, cfg)
        assert report.converged
        assert np.abs(u - CAP(grid.points)).max() <= 5e-3

    def test_stall_beyond_threshold(self, euclid):
        # H far above inf H_cyl: the path must stall near the cap
        # existence threshold sigma H = 1/rho, reported with the verdict
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 24, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=10.0, phi=0.0)
        with pytest.raises(ContinuationStalled) as err:
            kg.solve_dirichlet(spec, grid)
        assert 0.1 < err.value.sigma < 0.35
        assert err.value.hypothesis["passed"] is False
        assert err.value.report is not None

    def test_fd_jacobian_flag(self, euclid):
        # the colored finite-difference Jacobian drives Newton to the
        # same solution as the analytic one
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 16, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=1.0, phi=CAP)
        u_ref, _ = kg.solve_dirichlet(spec, grid)
        u_fd, rep = kg.solve_dirichlet(spec, grid, kg.SolveConfig(fd_jacobian=True))
        assert rep.converged
        assert np.abs(u_fd - u_ref).max() <= 1e-8

    def test_off_lattice_alignment(self, euclid):
        # irrational-ish centers produce boundary crossings arbitrarily
        # close to nodes; the tiny-theta elimination keeps Newton able to
        # reach the tolerance there
        rng = np.random.default_rng(31)
        for _ in range(4):
            cx, cy = rng.uniform(-0.015, 0.015, size=2)
            rho = 0.49 + rng.uniform(0, 0.009)
            dom = kg.Disk((cx, cy), rho)
            grid = kg.build_grid(dom, 1.0 / 48, euclid)
            spec = kg.ProblemSpec(chart=euclid, domain=dom, H=1.0, phi=CAP)
            u, rep = kg.solve_dirichlet(spec, grid)
            assert rep.converged
            assert rep.residual_final <= 1e-10
            assert np.abs(u - CAP(grid.points)).max() <= 2e-4

    def test_diverged_iterates_guard(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 16, euclid)
        op = _get_operator(euclid, grid, 2)
        cfg = kg.SolveConfig(diverge_sup=0.5)
        u0 = np.ones(grid.num_inside)   # already beyond the guard
        with pytest.raises(kg.DivergedIterates):
            newton_solve(op, u0, np.zeros(grid.num_links),
                         np.ones(grid.num_inside), cfg)

    def test_uniqueness_probe(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=1.0, phi=CAP)
        rng = np.random.default_rng(21)
        sols = []
        for _ in range(3):
            u0 = smooth_random_field(grid.points, rng)
            u, report = kg.solve_dirichlet(spec, grid, u0=u0)
            assert report.converged
            sols.append(u)
        for a in sols[1:]:
            assert np.abs(a - sols[0]).max() <= 1e-8


def _wave(P):
    return 0.2 * np.sin(2 * np.asarray(P)[..., 1])


LINEAR_CASES = {   # chart fixture, disk radius, h, H, phi
    "euclid-cap-64": ("euclid", 0.5, 1.0 / 64, 1.0, CAP),
    "heis-saddle-48": ("heis", 1.0, 1.0 / 48, 0.0, saddle),
    "curved-exp-64": ("curved", 0.5, 1.0 / 64, 0.0, _wave),
    # about 4x the condition number of the 1/64 cases, where the float32
    # LU leaves refinement the least margin within the suite
    "euclid-cap-128": ("euclid", 0.5, 1.0 / 128, 1.0, CAP),
    "curved-exp-128": ("curved", 0.5, 1.0 / 128, 0.0, _wave),
}


def _at_lift(request, case):
    """(grid, op, J, rhs, phi): the Newton system at the harmonic lift; the
    grid comes along because the operator lives only as long as it."""
    chart_name, radius, h, H, phi = LINEAR_CASES[case]
    chart = request.getfixturevalue(chart_name)
    grid = kg.build_grid(kg.Disk((0.0, 0.0), radius), h, chart)
    op = _get_operator(chart, grid, 2)
    phi_vals = phi(grid.link_points)
    lift = op.laplace_lift(phi_vals)
    J = op.jacobian(lift, phi_vals)
    rhs = -op.residual(lift, phi_vals, np.full(grid.num_inside, float(H)))
    return grid, op, J, rhs, phi_vals


def _rel(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


def nd_order_recursive(ij):
    """Nested dissection one part at a time, as `_nd_order` once did:
    halves first (low, then high), then the separator line."""
    order = []

    def split(idx):
        if len(idx) <= kop.ND_LEAF:
            order.append(idx)
            return
        part = ij[idx]
        lo, hi = part.min(axis=0), part.max(axis=0)
        axis = int(np.argmax(hi - lo))
        c = part[:, axis]
        mid = (lo[axis] + hi[axis]) // 2
        split(idx[c < mid])
        split(idx[c > mid])
        order.append(idx[c == mid])

    split(np.arange(len(ij)))
    return np.concatenate(order)


ND_CASES = {   # domain, h
    **{f"cap-{n}": (kg.Disk((0.0, 0.0), 0.5), 1.0 / n) for n in (64, 128, 192, 256)},
    "offcentre-disk-48": (kg.Disk((0.0137, -0.0219), 0.5), 1.0 / 48),
    "rectangle-64": (kg.Rectangle(-0.3, -0.2, 0.4, 0.3), 1.0 / 64),
    **{f"strip{rows}": (_strip(rows, 0.5), 1.0 / 48) for rows in (1, 2, 3)},
    # one row with more lattice columns than nodes, split along x only
    "wide-strip": (kg.Rectangle(-0.5, 0.1, 0.5, 0.1 + 1.5 / 48), 1.0 / 48),
}


@pytest.mark.parametrize("case", sorted(ND_CASES))
def test_nd_order_matches_recursive_dissection(case, euclid):
    grid = kg.build_grid(*ND_CASES[case], euclid)
    order = kop.GraphOperator._nd_order.func(SimpleNamespace(grid=grid))
    assert np.array_equal(order, nd_order_recursive(grid.inside_ij))


class TestLinearSolve:
    """Every sparse LU goes through `GraphOperator._solve`, which factors
    in one nested-dissection order per operator, in float32, and refines
    the answer to float64 accuracy."""

    @pytest.mark.parametrize("case", sorted(LINEAR_CASES))
    def test_ordered_solve_matches_spsolve(self, request, case):
        grid, op, J, rhs, _ = _at_lift(request, case)
        assert _rel(op._solve(J, rhs), spla.spsolve(J.tocsc(), rhs)) <= 1e-10

    @pytest.mark.parametrize("case", sorted(LINEAR_CASES))
    def test_lift_matches_spsolve(self, request, case):
        grid, op, _, _, phi_vals = _at_lift(request, case)
        rhs = -(op._lap_T @ (op.B @ phi_vals))
        ref = spla.spsolve(op._lap_A.tocsc(), rhs)
        assert _rel(op.laplace_lift(phi_vals), ref) <= 1e-10

    @pytest.mark.parametrize("scale", [1e-42, 1e60])
    def test_lift_of_data_outside_float32_range(self, euclid, scale):
        # the float32 LU sees every right-hand side scaled by a power of two
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, euclid)
        op = _get_operator(euclid, grid, 2)
        phi = CAP(grid.link_points)
        assert _rel(op.laplace_lift(scale * phi) / scale, op.laplace_lift(phi)) <= 1e-10

    def test_order_is_built_once_per_operator(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, euclid)
        op = _get_operator(euclid, grid, 2)
        phi = CAP(grid.link_points)
        H = np.ones(grid.num_inside)
        newton_solve(op, op.laplace_lift(phi), phi, H, kg.SolveConfig())
        order = op._nd_order
        assert np.array_equal(np.sort(order), np.arange(grid.num_inside))
        newton_solve(op, np.zeros(grid.num_inside), phi, H, kg.SolveConfig())
        assert op._nd_order is order
        # the top-level separator, the middle lattice column of the
        # square bounding box, comes last
        ix = grid.inside_ij[:, 0]
        mid = (ix.min() + ix.max()) // 2
        last = order[-int(np.sum(ix == mid)):]
        assert np.all(ix[last] == mid)

    def test_order_fills_less_than_colamd(self, request):
        grid, op, J, _, _ = _at_lift(request, "euclid-cap-64")
        p = op._nd_order
        nd = spla.splu(J[p][:, p].tocsc(), permc_spec="NATURAL")
        colamd = spla.splu(J.tocsc())
        assert nd.L.nnz + nd.U.nnz < colamd.L.nnz + colamd.U.nnz

    def test_zeroed_row_is_singular(self, request, monkeypatch):
        grid, op, J, rhs, phi_vals = _at_lift(request, "euclid-cap-64")
        keep = np.ones(J.shape[0])
        keep[J.shape[0] // 2] = 0.0
        J0 = (sp.diags(keep) @ J).tocsr()
        with pytest.raises(SingularJacobian, match="factorization failed"):
            op._solve(J0, rhs)
        # newton_solve lets it through to the continuation
        monkeypatch.setattr(op, "jacobian", lambda u, phi: J0)
        with pytest.raises(SingularJacobian):
            newton_solve(op, np.zeros(J.shape[0]), phi_vals,
                         np.ones(J.shape[0]), kg.SolveConfig())

    def test_non_finite_rhs_is_singular(self, request):
        grid, op, J, rhs, _ = _at_lift(request, "euclid-cap-64")
        rhs[7] = np.nan
        with pytest.raises(SingularJacobian, match="non-finite"):
            op._solve(J, rhs)

    def test_linear_tol_is_read(self, euclid):
        # healthy solves reach ~1e-14, so a 1e-20 bound must refuse them
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, euclid)
        op = _get_operator(euclid, grid, 2)
        phi = CAP(grid.link_points)
        with pytest.raises(SingularJacobian, match="relative residual"):
            newton_solve(op, op.laplace_lift(phi), phi, np.ones(grid.num_inside),
                         kg.SolveConfig(linear_tol=1e-20))


class _Broken:
    """A preconditioner whose solve is not linear (it adds 1e-3 |v| to
    every entry) or not finite."""

    def __init__(self, lu, kind):
        self.lu, self.kind = lu, kind

    def solve(self, v):
        if self.kind == "not finite":
            return np.full_like(v, np.nan)
        return self.lu.solve(v) + 1e-3 * np.linalg.norm(v)


REUSE_CASES = {   # chart fixture, H, phi, sparse factorizations at h = 1/64
    "euclid-cap": ("euclid", 1.0, CAP, 1),
    "curved-exp": ("curved", curved_exp_H, curved_exp_u, 2),
}


@pytest.fixture
def splu_calls(monkeypatch):
    """Counts every sparse factorization kgraph makes."""
    calls = []
    splu = spla.splu
    monkeypatch.setattr(kop.spla, "splu", lambda *a, **k: calls.append(1) or splu(*a, **k))
    return calls


def _reuse_problem(request, case):
    chart_name, H, phi, _ = REUSE_CASES[case]
    chart = request.getfixturevalue(chart_name)
    grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 64, chart)
    return kg.ProblemSpec(chart=chart, domain=grid.domain, H=H, phi=phi), grid


class TestFactorizationReuse:
    """One LU per solve: Newton steps run GMRES preconditioned by the
    factorization the solve carries, and refactor only on a miss."""

    @pytest.mark.parametrize("case", sorted(REUSE_CASES))
    def test_factorizations_per_solve(self, request, case, splu_calls):
        spec, grid = _reuse_problem(request, case)
        _, report = kg.solve_dirichlet(spec, grid)
        assert report.converged
        assert len(splu_calls) == REUSE_CASES[case][3]

    @pytest.mark.parametrize("case", sorted(REUSE_CASES))
    def test_every_step_meets_linear_tol(self, request, case, monkeypatch):
        # against the assembled Jacobian, not the action GMRES used
        spec, grid = _reuse_problem(request, case)
        steps = []
        step = ksolver._newton_step

        def recording(op, u, phi_vals, r, cfg, lu_slot):
            s = step(op, u, phi_vals, r, cfg, lu_slot)
            steps.append((op, u.copy(), phi_vals, r, s))
            return s

        monkeypatch.setattr(ksolver, "_newton_step", recording)
        cfg = kg.SolveConfig()
        kg.solve_dirichlet(spec, grid, cfg)
        assert len(steps) >= 3
        for op, u, phi_vals, r, s in steps:
            J = op.jacobian(u, phi_vals)
            assert np.linalg.norm(J @ s + r) <= cfg.linear_tol * np.linalg.norm(r)

    @pytest.mark.parametrize("kind", ["identity", "not finite"])
    def test_wrong_preconditioner_refactors(self, request, splu_calls, kind):
        # the identity leaves GMRES short of the tolerance; a non-finite
        # one breaks it down
        grid, op, J, rhs, phi_vals = _at_lift(request, "euclid-cap-64")
        slot = {"lu": None}
        lift = op.laplace_lift(phi_vals, _lu_slot=slot)
        if kind == "identity":
            wrong = _Factorization(sp.identity(J.shape[0], format="csr"), op._nd_order)
        else:
            wrong = _Broken(slot["lu"], kind)
        slot["lu"] = wrong
        splu_calls.clear()
        s = ksolver._newton_step(op, lift, phi_vals, -rhs, kg.SolveConfig(), slot)
        assert len(splu_calls) == 1
        assert isinstance(slot["lu"], _Factorization) and slot["lu"] is not wrong
        assert _rel(s, spla.spsolve(J.tocsc(), rhs)) <= 1e-10

    def test_nonlinear_preconditioner_needs_no_refactor(self, request, splu_calls):
        # flexible GMRES applies J to the vectors M returned, so its
        # residual estimate stays exact for an M that is not linear
        grid, op, J, rhs, phi_vals = _at_lift(request, "euclid-cap-64")
        slot = {"lu": None}
        lift = op.laplace_lift(phi_vals, _lu_slot=slot)
        slot["lu"] = wrong = _Broken(slot["lu"], "not linear")
        splu_calls.clear()
        cfg = kg.SolveConfig()
        s = ksolver._newton_step(op, lift, phi_vals, -rhs, cfg, slot)
        assert not splu_calls and slot["lu"] is wrong
        assert np.linalg.norm(J @ s - rhs) <= cfg.linear_tol * np.linalg.norm(rhs)

    def test_inexact_krylov_answer_refactors(self, request, splu_calls, monkeypatch):
        # the true-residual check, not GMRES's estimate, decides
        grid, op, J, rhs, phi_vals = _at_lift(request, "euclid-cap-64")
        slot = {"lu": None}
        lift = op.laplace_lift(phi_vals, _lu_slot=slot)
        old = slot["lu"]
        gmres = ksolver._gmres

        def off(*args):
            x = gmres(*args)
            return None if x is None else x * (1.0 + 1e-3)

        monkeypatch.setattr(ksolver, "_gmres", off)
        splu_calls.clear()
        s = ksolver._newton_step(op, lift, phi_vals, -rhs, kg.SolveConfig(), slot)
        assert len(splu_calls) == 1
        assert isinstance(slot["lu"], _Factorization) and slot["lu"] is not old
        assert _rel(s, spla.spsolve(J.tocsc(), rhs)) <= 1e-10

    def test_solve_carries_a_float32_lu(self, request, monkeypatch):
        # half the memory of a float64 LU with the same fill
        spec, grid = _reuse_problem(request, "euclid-cap")
        dtypes = []
        init = _Factorization.__init__

        def recording(self, *args):
            init(self, *args)
            dtypes.append((self._lu.L.dtype, self._lu.U.dtype))

        monkeypatch.setattr(_Factorization, "__init__", recording)
        _, report = kg.solve_dirichlet(spec, grid)
        assert report.converged
        assert dtypes == [(np.float32, np.float32)] * REUSE_CASES["euclid-cap"][3]

    def test_fd_jacobian_factors_every_step(self, euclid, splu_calls, monkeypatch):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 16, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=1.0, phi=CAP)
        op = _get_operator(euclid, grid, 2)
        fd_calls = []
        jacobian_fd = op.jacobian_fd
        monkeypatch.setattr(op, "jacobian_fd",
                            lambda *a: fd_calls.append(1) or jacobian_fd(*a))
        _, report = kg.solve_dirichlet(spec, grid, kg.SolveConfig(fd_jacobian=True))
        assert report.converged
        assert len(fd_calls) == sum(report.newton_iters) >= 3
        assert len(splu_calls) == len(fd_calls) + 1   # and the lift's

    @pytest.mark.parametrize("H", [1.0, 10.0])
    def test_no_factorization_outlives_the_solve(self, euclid, monkeypatch, H):
        # H = 10 stalls; the exception then keeps the solve's frames alive
        refs, alive_at_birth = [], []
        init = _Factorization.__init__

        def tracked(self, *args):
            alive_at_birth.append(sum(ref() is not None for ref in refs))
            init(self, *args)
            refs.append(weakref.ref(self))

        monkeypatch.setattr(_Factorization, "__init__", tracked)
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 24, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=H, phi=CAP)
        if H > 1.0:
            with pytest.raises(ContinuationStalled) as err:
                kg.solve_dirichlet(spec, grid)
            assert err.value.report is not None
        else:
            kg.solve_dirichlet(spec, grid)
        assert refs
        assert max(alive_at_birth) == 0   # never two at once
        assert all(ref() is None for ref in refs)


class TestReport:
    def test_json_schema(self, cap_64):
        payload = cap_64.report.to_json_dict()
        assert payload["schema"] == 1
        for key in ("sigma_path", "newton_iters", "residual_final", "hypothesis",
                    "geometry", "domain", "h", "converged"):
            assert key in payload
        assert set(payload["hypothesis"]) >= {"sup_H", "inf_Hcyl", "ric_ok"}
        assert payload["residual_final"] <= 1e-10

    def test_slope_history(self, cap_64):
        # the recorded sup|Du| diagnostic matches the solved graph tilt:
        # sup of r/sqrt(1 - r^2) over the disk of radius 1/2 is 3^-1/2
        rep = cap_64.report
        assert len(rep.sup_du) == len(rep.sigma_path)
        assert rep.sup_du[-1] == pytest.approx(1.0 / np.sqrt(3.0), abs=5e-3)
        assert len(rep.sup_u) == len(rep.sigma_path)


class TestComparison:
    def test_vertical_translation(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=0.0, phi=0.0)
        u2, _ = kg.solve_dirichlet(spec, grid)
        u1 = u2 - 0.1
        res = kg.comparison_check(spec, grid, u1, u2,
                                  phi1=-0.1, phi2=0.0, margin=-1e-9)
        assert res.premise and res.conclusion

    def test_ordered_caps(self, euclid):
        # caps of different curvature with aligned boundary data
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, euclid)
        c1 = cap_trace(1.0)
        shift = np.sqrt(4.0 - 0.25) - np.sqrt(1.0 - 0.25)
        c2 = cap_trace(2.0, shift)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=0.0, phi=0.0)
        res = kg.comparison_check(spec, grid, c1(grid.points), c2(grid.points),
                                  phi1=c1, phi2=c2, margin=0.5)
        assert res.premise
        assert res.conclusion

    def test_witness_on_violation(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=0.0, phi=0.0)
        u2 = np.zeros(grid.num_inside)
        u1 = u2.copy()
        u1[10] = 0.5   # sticks above u2
        res = kg.comparison_check(spec, grid, u1, u2)
        assert not res.conclusion
        assert res.witness_node == 10
        assert res.witness_gap == pytest.approx(0.5)

    def test_randomized_implication(self, euclid, cap_64):
        # Q-ordering implies pointwise ordering, as an implication, on
        # random nonnegative bumps vanishing at the boundary
        case = cap_64
        grid, spec = case.grid, case.spec
        op = _get_operator(spec.chart, grid, spec.n)
        rng = np.random.default_rng(23)
        d = grid.dist
        for _ in range(50):
            c = rng.uniform(0.1, 0.4)
            amp = rng.uniform(0.01, 0.05)
            bump = amp * np.maximum(0.0, d - c) ** 2
            res = kg.comparison_check(spec, grid, case.u + bump, case.u,
                                      margin=1e-8, tol=1e-6)
            assert res.holds   # premise -> conclusion; vacuous when unordered

    def test_solved_ordering_via_H(self, euclid):
        # larger constant H pulls the graph down: solve two problems and
        # check the order the comparison principle predicts
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, euclid)
        spec1 = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=0.8, phi=0.0)
        spec2 = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=0.3, phi=0.0)
        ua, _ = kg.solve_dirichlet(spec1, grid)
        ub, _ = kg.solve_dirichlet(spec2, grid)
        res = kg.comparison_check(spec1, grid, ua, ub, margin=0.9)
        assert res.premise and res.conclusion
