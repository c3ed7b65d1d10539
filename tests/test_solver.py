"""Newton continuation solver, comparison checks, reports."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import kgraph as kg
import kgraph.operator as kop
import kgraph.solver as ksolver
from kgraph.errors import ContinuationStalled, KGraphError, SingularJacobian
from kgraph.operator import _Multigrid
from kgraph.solver import newton_solve
from conftest import cap_trace, curved_exp_H, curved_exp_u, saddle, smooth_random_field
from oracles import area_functional, comparison, graph_area, interpolation_by_sort, jacobian_fd
from test_equivalence import _strip

CAP = cap_trace()


def fd_newton_step(op, u, phi_vals, r, state, lu_slot, eta):
    """`ksolver._newton_step` on the colored finite-difference Jacobian
    (`oracles.jacobian_fd`): a fresh solve to LIFT_TOL at every step,
    whatever its forcing term eta, with no hierarchy carried to the next."""
    lu_slot["lu"] = None
    return op._solve(jacobian_fd(op, u, phi_vals), -r, kop.LIFT_TOL)


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
        u1, _ = kg.solve_dirichlet(spec1, grid)
        u2, _ = kg.solve_dirichlet(spec2, grid)
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
        op = grid.operator
        phi = CAP(grid.link_points)
        H = np.ones(grid.num_inside)
        cfg = kg.SolveConfig()
        lift = op.laplace_lift(phi)
        u, iters, history = newton_solve(op, lift, phi, H, cfg)
        assert history[-1] <= cfg.newton_tol
        assert history[-1] / history[-2] < 0.1

    def test_accepted_steps_monotone(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, euclid)
        op = grid.operator
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

    @pytest.mark.parametrize("case", ["heis_saddle_32", "heis_saddle_64"])
    def test_saddle_in_one_newton_step(self, request, case):
        # the harmonic lift is the discrete saddle up to the lift's own
        # accuracy, so Newton starts at the answer; with the lift stopped
        # at LINEAR_TOL it takes 2 steps at both spacings, which is why
        # the lift solves to LIFT_TOL
        report = request.getfixturevalue(case).report
        assert report.sigma_path == [1.0]
        assert report.newton_iters == [1]


class TestMinimalInitialGraph:
    def test_euclid_flat(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.7), 1.0 / 32, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=0.0, phi=0.0)
        u = kg.minimal_initial_graph(spec, grid)
        assert np.abs(u).max() < 1e-12
        area = area_functional(grid.operator, u, spec.phi_links(grid))
        sigma_area = kg.integrate(grid, np.ones(grid.num_inside))
        assert area == pytest.approx(sigma_area, abs=1e-12)

    def test_heisenberg_near_zero(self, heis):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 1.0), 1.0 / 64, heis)
        spec = kg.ProblemSpec(chart=heis, domain=grid.domain, H=0.0, phi=0.0)
        u = kg.minimal_initial_graph(spec, grid)
        assert np.abs(u).max() <= 1e-3

    def test_functional_descent(self, heis):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 1.0), 1.0 / 32, heis)
        spec = kg.ProblemSpec(chart=heis, domain=grid.domain, H=0.0, phi=0.0)
        op = grid.operator
        u = kg.minimal_initial_graph(spec, grid)
        zeros = np.zeros(grid.num_links)
        final = graph_area(op, u, zeros)
        start = graph_area(op, np.zeros(grid.num_inside), zeros)
        assert final <= start + 1e-9 * (1 + abs(start))

    def test_heisenberg_one_newton_step(self, heis, monkeypatch):
        # u = 0 is the exact minimal graph; its discrete residual, 5.3e-7,
        # is one plain Newton step from the tolerance
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 1.0), 1.0 / 32, heis)
        spec = kg.ProblemSpec(chart=heis, domain=grid.domain, H=0.0, phi=0.0)
        iters = []
        solve = ksolver.newton_solve

        def recording(*args, **kwargs):
            result = solve(*args, **kwargs)
            iters.append(result[1])
            return result

        monkeypatch.setattr(ksolver, "newton_solve", recording)
        kg.minimal_initial_graph(spec, grid)
        assert iters == [1]

    def test_failed_start_is_a_sigma_zero_stall(self, euclid, monkeypatch):
        # the continuation loop counts a singular Jacobian as a failed
        # attempt; the minimal-graph start must too
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 16, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=0.0, phi=0.0)

        def singular(*args, **kwargs):
            raise SingularJacobian("singular on purpose")

        monkeypatch.setattr(ksolver, "newton_solve", singular)
        with pytest.raises(ContinuationStalled) as err:
            kg.solve_dirichlet(spec, grid)
        assert err.value.sigma == 0
        assert err.value.report.stalled_at == 0.0


class TestLineSearch:
    @staticmethod
    def _solve_with_failing_first_trial(euclid, monkeypatch, exc):
        """newton_solve on the cap from u = 0, with op.residual raising `exc`
        on its second call, the first trial; returns the residual history
        and the iterates the residual was called at."""
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 16, euclid)
        op = grid.operator
        calls, residual = [], op.residual

        def patched(u, *args, **kwargs):
            calls.append(np.array(u))
            if len(calls) == 2:
                raise exc
            return residual(u, *args, **kwargs)

        monkeypatch.setattr(op, "residual", patched)
        _, _, history = newton_solve(op, np.zeros(grid.num_inside), CAP(grid.link_points),
                                     np.ones(grid.num_inside), kg.SolveConfig())
        return history, calls

    def test_failed_trial_halves_the_step(self, euclid, monkeypatch):
        history, calls = self._solve_with_failing_first_trial(
            euclid, monkeypatch, KGraphError("not finite"))
        assert history[-1] <= kg.SolveConfig().newton_tol
        # from u = 0, the second trial is the first one's step at half the length
        assert np.array_equal(calls[2], 0.5 * calls[1])

    def test_programming_error_propagates(self, euclid, monkeypatch):
        with pytest.raises(TypeError, match="a bug"):
            self._solve_with_failing_first_trial(euclid, monkeypatch, TypeError("a bug"))


class TestContinuation:
    def test_path_steps_bounded(self, euclid, monkeypatch):
        # successive sigma solutions differ by O(dsigma); the direct
        # attempt is failed so that the path takes several steps
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=1.0, phi=CAP)
        path = []   # (sigma, solution) of each converged attempt
        solve = ksolver.newton_solve

        def recording(op, u0, phi_vals, H_vals, cfg, **kwargs):
            sigma = float(H_vals.max())   # H = 1, so H_vals = sigma
            if sigma == 1.0 and not path:
                raise ksolver._NewtonFailure("direct attempt failed on purpose")
            result = solve(op, u0, phi_vals, H_vals, cfg, **kwargs)
            if sigma > 0.0:   # not the minimal graph
                path.append((sigma, result[0].copy()))
            return result

        monkeypatch.setattr(ksolver, "newton_solve", recording)
        u, report = kg.solve_dirichlet(spec, grid)
        assert report.converged
        assert len(path) >= 2
        assert report.sigma_path == [sig for sig, _ in path]
        rates = []
        prev = np.zeros(grid.num_inside)
        prev_sigma = 0.0
        for sig, field in path:
            rates.append(np.abs(field - prev).max() / (sig - prev_sigma))
            prev, prev_sigma = field, sig
        assert max(rates) <= 5.0

    def test_stall_beyond_threshold(self, euclid):
        # H far above inf H_cyl: the path must stall near the cap
        # existence threshold sigma H = 1/rho, reported with the verdict
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 24, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=10.0, phi=0.0)
        with pytest.raises(ContinuationStalled) as err:
            kg.solve_dirichlet(spec, grid)
        assert 0.1 < err.value.sigma < 0.35
        assert err.value.report is not None
        assert err.value.report.hypothesis["passed"] is False

    def test_fd_jacobian_flag(self, euclid, monkeypatch):
        # the colored finite-difference Jacobian drives Newton to the
        # same solution as the analytic one
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 16, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=1.0, phi=CAP)
        u_ref, _ = kg.solve_dirichlet(spec, grid)
        monkeypatch.setattr(ksolver, "_newton_step", fd_newton_step)
        u_fd, rep = kg.solve_dirichlet(spec, grid)
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

    def test_diverged_iterates_guard(self, euclid, monkeypatch):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 16, euclid)
        op = grid.operator
        monkeypatch.setattr(ksolver, "DIVERGE_SUP", 0.5)
        u0 = np.ones(grid.num_inside)   # already beyond the guard
        with pytest.raises(kg.DivergedIterates):
            newton_solve(op, u0, np.zeros(grid.num_links),
                         np.ones(grid.num_inside), kg.SolveConfig())

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

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0, True],
                             ids=["nan", "inf", "zero", "negative", "bool"])
    def test_bad_newton_tol_is_an_input_error(self, euclid, tol):
        # the forcing term divides by the previous residual, which is exactly
        # zero on a flat chart's minimal graph, and a tolerance of zero is
        # never met: the solve and verify share the CLI's rule
        message = "^newton_tol must be finite and positive$"
        with pytest.raises(kg.InputError, match=message):
            kg.SolveConfig(newton_tol=tol)
        with pytest.raises(dataclasses.FrozenInstanceError):   # nor set afterwards
            kg.SolveConfig().newton_tol = tol
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 16, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=1.0, phi=CAP)
        with pytest.raises(kg.InputError, match=message):
            kg.verify(spec, grid, CAP(grid.points), newton_tol=tol)

    @pytest.mark.parametrize("bad, message", [
        (lambda n: np.zeros(n - 1), "u0 has 192 values, grid has 193 nodes"),
        (lambda n: np.r_[np.nan, np.zeros(n - 1)], "u0 is not finite at node"),
    ], ids=["short", "nan"])
    def test_bad_start_is_an_input_error(self, euclid, bad, message):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 16, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=1.0, phi=CAP)
        with pytest.raises(kg.InputError, match=message):
            kg.solve_dirichlet(spec, grid, u0=bad(grid.num_inside))


def _wave(P):
    return 0.2 * np.sin(2 * np.asarray(P)[..., 1])


LINEAR_CASES = {   # chart fixture, disk radius, h, H, phi
    "euclid-cap-64": ("euclid", 0.5, 1.0 / 64, 1.0, CAP),
    "heis-saddle-48": ("heis", 1.0, 1.0 / 48, 0.0, saddle),
    "curved-exp-64": ("curved", 0.5, 1.0 / 64, 0.0, _wave),
    # about 4x the condition number of the 1/64 cases, and one more
    # multigrid level
    "euclid-cap-128": ("euclid", 0.5, 1.0 / 128, 1.0, CAP),
    "curved-exp-128": ("curved", 0.5, 1.0 / 128, 0.0, _wave),
}


def _at_lift(request, case):
    """(grid, op, J, rhs, phi): the Newton system at the harmonic lift; the
    grid comes along because the operator lives only as long as it."""
    chart_name, radius, h, H, phi = LINEAR_CASES[case]
    chart = request.getfixturevalue(chart_name)
    grid = kg.build_grid(kg.Disk((0.0, 0.0), radius), h, chart)
    op = grid.operator
    phi_vals = phi(grid.link_points)
    lift = op.laplace_lift(phi_vals)
    J = op.jacobian(lift, phi_vals)
    rhs = -op.residual(lift, phi_vals, np.full(grid.num_inside, float(H)))
    return grid, op, J, rhs, phi_vals


def _rel(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


class TestLinearSolve:
    """Every solve on a fresh hierarchy goes through `GraphOperator._solve`,
    which runs flexible GMRES on a multigrid hierarchy of the matrix to
    the tolerance it is given; at LIFT_TOL, the accuracy of a direct
    solve."""

    @pytest.mark.parametrize("case", sorted(LINEAR_CASES))
    def test_ordered_solve_matches_spsolve(self, request, case):
        grid, op, J, rhs, _ = _at_lift(request, case)
        assert _rel(op._solve(J, rhs, kop.LIFT_TOL), spla.spsolve(J.tocsc(), rhs)) <= 1e-10

    @pytest.mark.parametrize("case", sorted(LINEAR_CASES))
    def test_lift_matches_spsolve(self, request, case):
        grid, op, _, _, phi_vals = _at_lift(request, case)
        A, rhs = op._laplace_system(phi_vals)
        ref = spla.spsolve(A.tocsc(), rhs)
        assert _rel(op.laplace_lift(phi_vals), ref) <= 1e-10

    @pytest.mark.parametrize("centre, h, eliminated", [
        ((0.0, 0.0), 1.0 / 64, 8), ((0.013, -0.021), 1.0 / 48, 3)],
        ids=["cap-64", "offcentre-disk-48"])
    def test_lift_has_the_jacobians_elimination_rows(self, euclid, centre, h, eliminated):
        # the hierarchy built on the lift preconditions Newton, so its
        # matrix carries the Jacobian's constraint rows, and the lift,
        # which solves them, meets them to solve accuracy
        grid = kg.build_grid(kg.Disk(centre, 0.5), h, euclid)
        op = grid.operator
        phi = CAP(grid.link_points)
        n = op.elim_nodes
        assert len(n) == eliminated
        A, _ = op._laplace_system(phi)
        lift = op.laplace_lift(phi)
        J = op.jacobian(lift, phi)
        assert np.array_equal(A[n].toarray(), J[n].toarray())
        r = op.residual(lift, phi, np.ones(grid.num_inside))
        assert np.max(np.abs(r[n])) <= 1e-10 * np.max(np.abs(phi)) / h ** 2

    @pytest.mark.parametrize("scale", [1e-42, 1e60])
    def test_lift_of_data_outside_float32_range(self, euclid, scale):
        # GMRES stores the preconditioned vectors in float32, so it must
        # normalize the right-hand side first
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, euclid)
        op = grid.operator
        phi = CAP(grid.link_points)
        assert _rel(op.laplace_lift(scale * phi) / scale, op.laplace_lift(phi)) <= 1e-10

    def test_zeroed_row_is_singular(self, request, monkeypatch):
        grid, op, J, rhs, phi_vals = _at_lift(request, "euclid-cap-64")
        keep = np.ones(J.shape[0])
        keep[J.shape[0] // 2] = 0.0
        J0 = (sp.diags(keep) @ J).tocsr()
        with pytest.raises(SingularJacobian, match="zero diagonal"):
            op._solve(J0, rhs, kop.LIFT_TOL)
        # newton_solve lets it through to the continuation
        monkeypatch.setattr(op, "jacobian", lambda u, phi, _state=None: J0)
        with pytest.raises(SingularJacobian):
            newton_solve(op, np.zeros(J.shape[0]), phi_vals,
                         np.ones(J.shape[0]), kg.SolveConfig())

    def test_non_finite_rhs_is_singular(self, request):
        grid, op, J, rhs, _ = _at_lift(request, "euclid-cap-64")
        rhs[7] = np.nan
        with pytest.raises(SingularJacobian, match="non-finite"):
            op._solve(J, rhs, kop.LIFT_TOL)

    def test_linear_tol_is_read(self, euclid, monkeypatch):
        # healthy solves reach ~1e-14, so a 1e-20 bound must refuse them
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, euclid)
        op = grid.operator
        phi = CAP(grid.link_points)
        lift = op.laplace_lift(phi)
        for module in (kop, ksolver):
            monkeypatch.setattr(module, "LINEAR_TOL", 1e-20)
        with pytest.raises(SingularJacobian, match="relative residual"):
            newton_solve(op, lift, phi, np.ones(grid.num_inside), kg.SolveConfig())


class _Broken:
    """A preconditioner whose solve is not linear (it adds 1e-3 |v| to
    every entry) or not finite."""

    def __init__(self, lu, kind):
        self.lu, self.kind = lu, kind

    def solve(self, v):
        if self.kind == "not finite":
            return np.full_like(v, np.nan)
        return self.lu.solve(v) + 1e-3 * np.linalg.norm(v)


REUSE_CASES = {   # chart fixture, H, phi, 1/h, hierarchies built
    "euclid-cap": ("euclid", 1.0, CAP, 64, 1),
    "curved-exp": ("curved", curved_exp_H, curved_exp_u, 64, 1),
    # one more multigrid level, and more eliminated nodes, yet the lift's
    # hierarchy still serves every Newton step
    "euclid-cap-128": ("euclid", 1.0, CAP, 128, 1),
    "curved-exp-128": ("curved", curved_exp_H, curved_exp_u, 128, 1),
}


@pytest.fixture
def splu_calls(monkeypatch):
    """Counts every sparse factorization kgraph makes."""
    calls = []
    splu = spla.splu
    monkeypatch.setattr(kop.spla, "splu", lambda *a, **k: calls.append(1) or splu(*a, **k))
    return calls


@pytest.fixture
def builds(monkeypatch):
    """Counts every multigrid hierarchy kgraph builds."""
    calls = []
    init = _Multigrid.__init__
    monkeypatch.setattr(_Multigrid, "__init__",
                        lambda self, *a: calls.append(1) or init(self, *a))
    return calls


def _reuse_problem(request, case):
    chart_name, H, phi, n, _ = REUSE_CASES[case]
    chart = request.getfixturevalue(chart_name)
    grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / n, chart)
    return kg.ProblemSpec(chart=chart, domain=grid.domain, H=H, phi=phi), grid


class TestFactorizationReuse:
    """One multigrid hierarchy per solve: Newton steps run GMRES
    preconditioned by the V-cycle of the hierarchy the solve carries, and
    rebuild it only on a miss."""

    @pytest.mark.parametrize("case", sorted(REUSE_CASES))
    def test_factorizations_per_solve(self, request, case, builds):
        spec, grid = _reuse_problem(request, case)
        _, report = kg.solve_dirichlet(spec, grid)
        assert report.converged
        assert len(builds) == REUSE_CASES[case][4]

    @pytest.mark.parametrize("case", sorted(REUSE_CASES))
    def test_every_step_meets_its_forcing_term(self, request, case, monkeypatch):
        # |J s + r| <= eta |r| against the assembled Jacobian, not the
        # action GMRES used, with each eta recomputed here from the
        # residual norms of its own newton_solve call (Eisenstat-Walker
        # choice 2, safeguarded by LINEAR_TOL, 0.1 and 0.5 newton_tol / |r|)
        spec, grid = _reuse_problem(request, case)
        solves = []
        step, solve = ksolver._newton_step, ksolver.newton_solve

        def recording(op, u, phi_vals, r, state, lu_slot, eta):
            s = step(op, u, phi_vals, r, state, lu_slot, eta)
            solves[-1].append((op, u.copy(), phi_vals, r, s, eta))
            return s

        monkeypatch.setattr(ksolver, "_newton_step", recording)
        monkeypatch.setattr(ksolver, "newton_solve",
                            lambda *a, **k: solves.append([]) or solve(*a, **k))
        kg.solve_dirichlet(spec, grid)
        tol = kg.SolveConfig().newton_tol
        etas = [eta for steps in solves for *_, eta in steps]
        assert len(etas) >= 3 and max(etas) > kop.LINEAR_TOL
        for steps in solves:
            norms = [np.linalg.norm(r) for _, _, _, r, _, _ in steps]
            for k, (op, u, phi_vals, r, s, eta) in enumerate(steps):
                expected = kop.LINEAR_TOL if k == 0 else min(0.1, max(
                    0.9 * (norms[k] / norms[k - 1]) ** 2, kop.LINEAR_TOL, 0.5 * tol / norms[k]))
                assert eta == pytest.approx(expected, rel=1e-12)
                assert kop.LINEAR_TOL <= eta <= 0.1
                J = op.jacobian(u, phi_vals)
                assert np.linalg.norm(J @ s + r) <= eta * norms[k]

    def test_fresh_hierarchy_meets_the_forcing_term(self, euclid, monkeypatch, builds):
        # phi = 0 has no lift, so the first Newton step builds its own
        # hierarchy; it stops at its forcing term, as a step on a reused
        # hierarchy does, not at a direct solve's accuracy. V-cycles over
        # the whole solve: 20 as measured with one or two BLAS threads,
        # against 24 when that step solved to LIFT_TOL
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 128, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=0.9, phi=0.0)
        cycles, steps = [], []
        solve, step = _Multigrid.solve, ksolver._newton_step
        monkeypatch.setattr(_Multigrid, "solve", lambda self, b, level=0:
                            cycles.append(level == 0) or solve(self, b, level))

        def recording(op, u, phi_vals, r, state, lu_slot, eta):
            fresh = lu_slot["lu"] is None
            s = step(op, u, phi_vals, r, state, lu_slot, eta)
            steps.append((fresh, op, u.copy(), phi_vals, r, s, eta))
            return s

        monkeypatch.setattr(ksolver, "_newton_step", recording)
        _, report = kg.solve_dirichlet(spec, grid)
        assert report.converged and len(builds) == 1
        fresh, op, u, phi_vals, r, s, eta = steps[0]
        assert fresh and eta == kop.LINEAR_TOL
        J = op.jacobian(u, phi_vals)
        assert np.linalg.norm(J @ s + r) <= kop.LINEAR_TOL * np.linalg.norm(r)
        assert not any(later[0] for later in steps[1:])
        assert sum(cycles) <= 22

    @pytest.mark.parametrize("kind", ["identity", "not finite"])
    def test_wrong_preconditioner_refactors(self, request, builds, kind):
        # the identity's hierarchy leaves GMRES short of the tolerance; a
        # non-finite one breaks it down
        grid, op, J, rhs, phi_vals = _at_lift(request, "euclid-cap-64")
        slot = {"lu": None}
        lift = op.laplace_lift(phi_vals, _lu_slot=slot)
        if kind == "identity":
            wrong = _Multigrid(sp.identity(J.shape[0], format="csr"), grid.inside_ij)
        else:
            wrong = _Broken(slot["lu"], kind)
        slot["lu"] = wrong
        builds.clear()
        s = ksolver._newton_step(op, lift, phi_vals, -rhs, None, slot, kop.LIFT_TOL)
        assert len(builds) == 1
        assert isinstance(slot["lu"], _Multigrid) and slot["lu"] is not wrong
        assert _rel(s, spla.spsolve(J.tocsc(), rhs)) <= 1e-10

    def test_nonlinear_preconditioner_needs_no_refactor(self, request, splu_calls):
        # flexible GMRES applies J to the vectors M returned, so its
        # residual estimate stays exact for an M that is not linear
        grid, op, J, rhs, phi_vals = _at_lift(request, "euclid-cap-64")
        slot = {"lu": None}
        lift = op.laplace_lift(phi_vals, _lu_slot=slot)
        slot["lu"] = wrong = _Broken(slot["lu"], "not linear")
        splu_calls.clear()
        s = ksolver._newton_step(op, lift, phi_vals, -rhs, None, slot, kop.LINEAR_TOL)
        assert not splu_calls and slot["lu"] is wrong
        assert np.linalg.norm(J @ s - rhs) <= kop.LINEAR_TOL * np.linalg.norm(rhs)

    def test_inexact_krylov_answer_refactors(self, request, builds, monkeypatch):
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
        builds.clear()
        s = ksolver._newton_step(op, lift, phi_vals, -rhs, None, slot, kop.LIFT_TOL)
        assert len(builds) == 1
        assert isinstance(slot["lu"], _Multigrid) and slot["lu"] is not old
        assert _rel(s, spla.spsolve(J.tocsc(), rhs)) <= 1e-10

    def test_one_face_state_per_residual(self, euclid, monkeypatch):
        # each Newton step is linearized from the state its iterate's
        # residual left, so no step evaluates the face state again
        calls = {"_face_state": 0, "residual": 0, "step": 0}
        for name in ("_face_state", "residual"):
            method = getattr(kop.GraphOperator, name)
            monkeypatch.setattr(kop.GraphOperator, name,
                                lambda self, *a, _m=method, _n=name, **k:
                                calls.__setitem__(_n, calls[_n] + 1) or _m(self, *a, **k))
        step = ksolver._newton_step
        monkeypatch.setattr(ksolver, "_newton_step",
                            lambda *a: calls.__setitem__("step", calls["step"] + 1) or step(*a))
        _, report = kg.solve_dirichlet(*_cap(euclid, 64))
        assert report.converged and calls["step"] >= 5
        assert calls["_face_state"] == calls["residual"]

    def test_solve_carries_a_hierarchy(self, request, monkeypatch):
        # O(N) memory: only the coarsest level, at most COARSE_MAX unknowns,
        # is factored, and each level has at most a third of the unknowns
        # of the one above
        spec, grid = _reuse_problem(request, "euclid-cap")
        sizes = []
        init = _Multigrid.__init__

        def recording(self, *args):
            init(self, *args)
            sizes.append([A.shape[0] for A in self.A])

        monkeypatch.setattr(_Multigrid, "__init__", recording)
        _, report = kg.solve_dirichlet(spec, grid)
        assert report.converged
        assert len(sizes) == REUSE_CASES["euclid-cap"][4]
        for n in sizes:
            assert len(n) >= 2 and n[0] == grid.num_inside
            assert n[-1] <= kop.COARSE_MAX < n[-2]
            assert all(3 * b <= a for a, b in zip(n, n[1:]))

    def test_fd_jacobian_factors_every_step(self, euclid, splu_calls, monkeypatch):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 16, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=1.0, phi=CAP)
        fd_calls = []
        monkeypatch.setattr(ksolver, "_newton_step",
                            lambda *a: fd_calls.append(1) or fd_newton_step(*a))
        _, report = kg.solve_dirichlet(spec, grid)
        assert report.converged
        assert len(fd_calls) == sum(report.newton_iters) >= 3
        assert len(splu_calls) == len(fd_calls) + 1   # and the lift's

    @pytest.mark.parametrize("H", [1.0, 10.0])
    def test_no_factorization_outlives_the_solve(self, euclid, monkeypatch, H):
        # H = 10 stalls; the exception then keeps the solve's frames alive
        refs, alive_at_birth = [], []
        init = _Multigrid.__init__

        def tracked(self, *args):
            alive_at_birth.append(sum(ref() is not None for ref in refs))
            init(self, *args)
            refs.append(weakref.ref(self))

        monkeypatch.setattr(_Multigrid, "__init__", tracked)
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


def _cap(euclid, n):
    grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / n, euclid)
    return kg.ProblemSpec(chart=euclid, domain=grid.domain, H=1.0, phi=CAP), grid


INTERPOLATION_CASES = {   # domain and 1/h, on the euclidean chart
    "cap-64": (kg.Disk((0.0, 0.0), 0.5), 64),
    "cap-256": (kg.Disk((0.0, 0.0), 0.5), 256),
    "offcentre-disk-96": (kg.Disk((0.013, -0.021), 0.5), 96),
    "unit-square-64": (kg.Rectangle(0.0, 0.0, 1.0, 1.0), 64),
}


class TestMultigrid:
    """What the hierarchy promises beyond the accuracy of the solves:
    storage and work per node that do not grow with 1/h."""

    @pytest.mark.parametrize("case", sorted(INTERPOLATION_CASES))
    def test_interpolation_matches_sort_oracle(self, euclid, case):
        # bit for bit on every level down to a few nodes: P's indptr,
        # indices, data and dtype, and the coarse lattice coords
        domain, n = INTERPOLATION_CASES[case]
        ij = kg.build_grid(domain, 1.0 / n, euclid).inside_ij
        levels = 0
        while len(ij) > 4:
            P, coarse = kop._interpolation(ij)
            P_ref, coarse_ref = interpolation_by_sort(ij)
            for got, ref in ((P.indptr, P_ref.indptr), (P.indices, P_ref.indices),
                             (P.data, P_ref.data), (coarse, coarse_ref)):
                assert got.dtype == ref.dtype and np.array_equal(got, ref)
            assert P.shape == P_ref.shape and P.data.dtype == np.float32
            ij, levels = coarse, levels + 1
        assert levels >= 5

    def test_level_0_owns_its_index_arrays(self, euclid):
        # scipy canonicalizes a matrix in place (sort_indices,
        # sum_duplicates, abs) and the lift's matrix is not canonical, so
        # a level 0 sharing A's index arrays would have them permuted
        # under its data: 9 cycles take GMRES to 4.0e-15 here, and to 0.94
        # on a shared level 0 once A is sorted, where all DIRECT_MAX
        # cycles still leave 0.87
        spec, grid = _cap(euclid, 64)
        A, rhs = grid.operator._laplace_system(spec.phi_links(grid))
        A64 = A.copy()
        assert not A.has_sorted_indices
        mg = _Multigrid(A, grid.inside_ij)

        def solve():
            cycles = []
            x = kop._gmres(A64, lambda b: cycles.append(1) or mg.solve(b), rhs,
                           kop.LIFT_TOL, kop.DIRECT_MAX)
            return len(cycles), x

        cycles, x = solve()
        assert cycles <= 12 and kop._relative_residual(A64, x, rhs) <= kop.LIFT_TOL
        A.sort_indices()
        assert A.has_sorted_indices
        cycles_sorted, x_sorted = solve()
        assert cycles_sorted == cycles and np.array_equal(x_sorted, x)

    def test_storage_per_node_does_not_grow(self, euclid):
        # coarse operators, transfers and the coarsest LU, beyond A itself:
        # 9.6 per node at 1/128 and 7.1 at 1/256 as measured (the coarsest
        # level has 912 and 924 unknowns); the sparse LU of the fine
        # Jacobian held 84 per node at 1/256
        per_node = {}
        for n in (128, 256):
            spec, grid = _cap(euclid, n)
            op = grid.operator
            A, _ = op._laplace_system(spec.phi_links(grid))
            mg = _Multigrid(A, grid.inside_ij)
            stored = sum(M.nnz for M in mg.A[1:] + mg.P) + mg._lu.L.nnz + mg._lu.U.nnz
            per_node[n] = stored / grid.num_inside
        assert per_node[256] <= per_node[128]

    def test_hierarchy_is_float32_under_float64_gmres(self, euclid):
        # the V-cycle runs in float32; flexible GMRES applies the float64
        # matrix to what it returns, so the answer keeps direct accuracy
        spec, grid = _cap(euclid, 128)
        op = grid.operator
        A, rhs = op._laplace_system(spec.phi_links(grid))
        slot = {"lu": None}
        x = op._solve(A, rhs, kop.LIFT_TOL, lu_slot=slot)
        mg = slot["lu"]
        assert len(mg.A) >= 3 and len(mg.R) == len(mg.P) == len(mg.A) - 1
        for M in mg.A + mg.P + mg.R + mg.dinv + [mg._lu.L, mg._lu.U]:
            assert M.dtype == np.float32
        assert mg.solve(rhs).dtype == np.float32
        assert x.dtype == np.float64
        assert np.linalg.norm(A @ x - rhs) <= kop.LIFT_TOL * np.linalg.norm(rhs)

    def test_cycles_per_newton_step_are_mesh_independent(self, euclid, monkeypatch,
                                                         builds):
        # at most 6 per step at 1/64 and 6 at 1/256 as measured, all on the
        # lift's hierarchy
        cycles, steps = [], []
        solve = _Multigrid.solve

        def counting(self, b, level=0):
            cycles.append(level == 0)
            return solve(self, b, level)

        step = ksolver._newton_step

        def recording(*args):
            before = sum(cycles)
            s = step(*args)
            steps.append(sum(cycles) - before)
            return s

        monkeypatch.setattr(_Multigrid, "solve", counting)
        monkeypatch.setattr(ksolver, "_newton_step", recording)
        most = {}
        for n in (64, 256):
            steps.clear()
            builds.clear()
            # the default newton_tol stalls at 1/256 (ROADMAP D1)
            _, report = kg.solve_dirichlet(*_cap(euclid, n), kg.SolveConfig(newton_tol=1e-9))
            assert report.converged and steps
            assert len(builds) == 1
            assert max(steps) < ksolver.KRYLOV_MAX
            most[n] = max(steps)
        assert most[256] <= 2 * most[64]

    def test_forcing_terms_bound_cycles_per_solve(self, euclid, monkeypatch, builds):
        # V-cycles over the whole solve, the lift's included: 29 at 1/128 and
        # 30 at 1/256 as measured, against 42 and 42 with every Newton step
        # solved to LINEAR_TOL
        cycles = []
        solve = _Multigrid.solve
        monkeypatch.setattr(_Multigrid, "solve", lambda self, b, level=0:
                            cycles.append(level == 0) or solve(self, b, level))
        for n in (128, 256):
            cycles.clear()
            builds.clear()
            _, report = kg.solve_dirichlet(*_cap(euclid, n), kg.SolveConfig(newton_tol=1e-9))
            assert report.converged and report.newton_iters == [5]
            assert len(builds) == 1
            assert sum(cycles) <= 34


THREADS_SCRIPT = """
import hashlib
import numpy as np
import kgraph as kg
spec = kg.ProblemSpec(chart=kg.euclidean(), domain=kg.Disk((0.0, 0.0), 0.5), H=1.0,
                      phi=lambda P: -np.sqrt(1.0 - P[..., 0] ** 2 - P[..., 1] ** 2))
grid = kg.build_grid(spec.domain, 1.0 / 128, spec.chart)
u, report = kg.solve_dirichlet(spec, grid)
print(grid.num_inside, report.newton_iters, hashlib.sha256(u.tobytes()).hexdigest())
"""


class TestGmres:
    """Flexible GMRES as `_gmres` runs it: the least-squares answer over
    the vectors M returned, within its two basis buffers, and summed
    without BLAS, so the same bits under any BLAS thread count."""

    def test_matches_dense_least_squares_and_stops_at_tol(self):
        # a nonsymmetric system and an M that is not linear: x is Z y for
        # the y minimizing |A Z y - b| over the float32 vectors Z stored,
        # and the first iterate at tol ends the loop
        rng = np.random.default_rng(5)
        n = 60
        A = np.diag(np.linspace(1.0, 4.0, n)) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
        b = rng.standard_normal(n)
        d = np.diag(A)

        def run(maxiter):
            Z = []

            def M(v):
                Z.append(((v / d) * (1.0 + 0.1 * np.tanh(v))).astype(np.float32))
                return Z[-1]

            return kop._gmres(A, M, b, 1e-8, maxiter), np.array(Z, dtype=float)

        x, Z = run(40)
        k = len(Z)
        assert 3 <= k < 40
        y_ref = np.linalg.lstsq(A @ Z.T, b, rcond=None)[0]
        assert np.linalg.norm(x - Z.T @ y_ref) <= 1e-12 * np.linalg.norm(x)
        assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)
        x_short, _ = run(k - 1)
        assert np.linalg.norm(A @ x_short - b) > 1e-8 * np.linalg.norm(b)

    def test_peak_memory_is_its_basis_buffers(self, euclid):
        # V (float64) and Z (float32) rows for DIRECT_MAX cycles, plus a
        # few N-vectors: 3.4 float64 N-vectors beyond the buffers as
        # measured on this lift (9 cycles), where a float64 copy of the
        # basis for x = y Z took 11.4
        spec, grid = _cap(euclid, 128)
        A, rhs = grid.operator._laplace_system(spec.phi_links(grid))
        mg = _Multigrid(A, grid.inside_ij)
        N, m = len(rhs), kop.DIRECT_MAX
        tracemalloc.start()
        try:
            x = kop._gmres(A, mg.solve, rhs, kop.LIFT_TOL, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kop._relative_residual(A, x, rhs) <= kop.LIFT_TOL
        assert peak <= (m + 1) * N * 8 + m * N * 4 + 6 * N * 8

    def test_same_answer_under_any_blas_thread_count(self):
        # 12,849 nodes, above the size from which OpenBLAS splits a dot
        # product over its threads: every sum in the loop is an einsum
        src = str(Path(kg.__file__).resolve().parents[1])
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            out = subprocess.run([sys.executable, "-c", THREADS_SCRIPT], env=env,
                                 capture_output=True, text=True, check=True)
            runs.append(out.stdout.split("\n")[0])
        assert runs[0].startswith("12849 ")
        assert runs[0] == runs[1]


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

    def test_hypothesis_matches_verify(self, euclid):
        # the solve and verify sample the boundary cylinder alike:
        # inf H_cyl = (n - 1) H_Gamma / n = 1 on the disk of radius 1/2
        # for the planar base, n = 2
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 24, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=0.5, phi=0.0)
        u, report = kg.solve_dirichlet(spec, grid)
        checked = kg.verify(spec, grid, u).items["hypothesis"]
        assert report.converged
        assert report.hypothesis["inf_Hcyl"] == pytest.approx(1.0, rel=1e-4)
        assert report.hypothesis == {k: checked[k] for k in report.hypothesis}


class TestComparison:
    def test_vertical_translation(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=0.0, phi=0.0)
        u2, _ = kg.solve_dirichlet(spec, grid)
        u1 = u2 - 0.1
        phi2 = np.zeros(grid.num_links)
        premise, conclusion = comparison(grid.operator, u1, phi2 - 0.1, u2, phi2, -1e-9)
        assert premise and conclusion

    def test_ordered_caps(self, euclid):
        # caps of different curvature with aligned boundary data
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, euclid)
        c1 = cap_trace(1.0)
        shift = np.sqrt(4.0 - 0.25) - np.sqrt(1.0 - 0.25)
        c2 = cap_trace(2.0, shift)
        premise, conclusion = comparison(grid.operator, c1(grid.points), c1(grid.link_points),
                                         c2(grid.points), c2(grid.link_points), 0.5)
        assert premise
        assert conclusion

    def test_witness_on_violation(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, euclid)
        spec = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=0.0, phi=0.0)
        u2 = np.zeros(grid.num_inside)
        u1 = u2.copy()
        u1[10] = 0.5   # sticks above u2
        phi = spec.phi_links(grid)
        _, conclusion = comparison(grid.operator, u1, phi, u2, phi, 1e-8)
        assert not conclusion

    def test_randomized_implication(self, euclid, cap_64):
        # Q-ordering implies pointwise ordering, as an implication, on
        # random nonnegative bumps vanishing at the boundary
        case = cap_64
        grid, spec = case.grid, case.spec
        op, phi = grid.operator, spec.phi_links(grid)
        rng = np.random.default_rng(23)
        d = grid.dist
        for _ in range(50):
            c = rng.uniform(0.1, 0.4)
            amp = rng.uniform(0.01, 0.05)
            bump = amp * np.maximum(0.0, d - c) ** 2
            premise, conclusion = comparison(op, case.u + bump, phi, case.u, phi, 1e-8)
            assert conclusion or not premise   # vacuous when unordered

    def test_solved_ordering_via_H(self, euclid):
        # larger constant H pulls the graph down: solve two problems and
        # check the order the comparison principle predicts
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.5), 1.0 / 32, euclid)
        spec1 = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=0.8, phi=0.0)
        spec2 = kg.ProblemSpec(chart=euclid, domain=grid.domain, H=0.3, phi=0.0)
        ua, _ = kg.solve_dirichlet(spec1, grid)
        ub, _ = kg.solve_dirichlet(spec2, grid)
        phi = spec1.phi_links(grid)
        premise, conclusion = comparison(grid.operator, ua, phi, ub, phi, 0.9)
        assert premise and conclusion
