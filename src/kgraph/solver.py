"""Damped Newton with continuation for the Dirichlet problem.

The continuation family scales the problem data jointly,
Q[u] = n (sigma H) with boundary values sigma phi for sigma in [0, 1],
starting from the minimal graph of the homogeneous problem.  A direct
Newton attempt at sigma = 1 is tried first; the sigma path is the
fallback when the target problem is out of easy reach.  Stalling below
the minimum step is reported together with the hypothesis verdict,
since the solvability condition sup|H| <= inf H_cyl is sufficient but
not necessary.
"""

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import (ContinuationStalled, DivergedIterates, SingularJacobian)
from .operator import LINEAR_TOL, _eval_data, _get_operator, _relative_residual

SCHEMA_VERSION = 1
KRYLOV_MAX = 12   # GMRES iterations a Newton step spends on a reused LU
                  # before it refactors


@dataclass
class SolveConfig:
    newton_tol: float = 1e-10      # sup-norm residual target
    max_newton: int = 50           # iterations per continuation step
    armijo: float = 1e-4           # sufficient-decrease factor
    min_step: float = 2.0 ** -20   # line search floor
    max_step_sup: float = 2.0      # per-iteration sup-norm step cap
    dsigma_init: float = 0.25
    dsigma_min: float = 2.0 ** -10
    linear_tol: float = LINEAR_TOL  # relative residual required of linear solves
    diverge_sup: float = 1e6       # iterate blow-up guard
    try_direct: bool = True        # attempt sigma = 1 before walking the path
    scale_phi: bool = True         # continuation scales phi together with H
    record_fields: bool = False    # keep the solution after each sigma step
    fd_jacobian: bool = False      # colored finite-difference Jacobian (oracle)


@dataclass
class SolveReport:
    converged: bool = False
    sigma_path: list = field(default_factory=list)
    newton_iters: list = field(default_factory=list)
    residual_final: float = np.inf
    sup_u: list = field(default_factory=list)
    sup_du: list = field(default_factory=list)
    hypothesis: dict = field(default_factory=dict)
    stalled_at: float = None
    h: float = None
    geometry: str = None
    domain: dict = None
    fields: list = field(default_factory=list)

    def to_json_dict(self):
        out = asdict(self)
        out.pop("fields")
        out["schema"] = SCHEMA_VERSION
        return json.loads(json.dumps(out, default=float))


class _NewtonFailure(Exception):
    """Internal: one continuation step did not converge."""


def _gmres(A, M, b, tol, maxiter):
    """x = Z y with |A x - b| <= tol |b|, by flexible GMRES; None on a miss.

    Flexible GMRES (Saad, SIAM J. Sci. Comput. 14, 1993) keeps each
    preconditioned vector Z[k] = M(V[k]) and applies A to that stored
    vector, so A Z = V H holds to rounding whatever M does, and the
    minimized residual is the true one even for the float32 LU, which is
    not linear to float64 precision.  Z is stored in float32: M's values
    have that precision, and A sees exactly what is stored.  The answer
    is y @ Z, with no further application of M.  Classical Gram-Schmidt,
    applied twice, orthogonalizes against all earlier vectors with two
    dense products per pass.  No restarts: at most `maxiter`
    applications of M and of A.
    """
    beta = np.linalg.norm(b)
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
            return y @ Z[:k + 1]
        V[k + 1] = w / H[k + 1, k]
    return None


def _newton_step(op, u, phi_vals, r, cfg, lu_slot):
    """Newton direction s with |J s + r| <= cfg.linear_tol |r|.

    The float32 factorization in `lu_slot["lu"]`, when there is one, is
    reused as the preconditioner of flexible GMRES on the matrix-free
    Jacobian, and the step is accepted only on its true residual, one
    more product with J.  When KRYLOV_MAX iterations miss the tolerance,
    or the true residual does, the assembled Jacobian is factored and
    its LU replaces the old one; that direct solve is refined to float64
    accuracy (`GraphOperator._solve`).  The finite-difference oracle
    Jacobian is factored afresh at every step.
    """
    rhs = -r
    if cfg.fd_jacobian:
        lu_slot["lu"] = None
        return op._solve(op.jacobian_fd(u, phi_vals), rhs, cfg.linear_tol)
    lu = lu_slot["lu"]
    if lu is not None:
        J = op.jacobian_action(u, phi_vals)
        s = _gmres(J, lu.solve, rhs, cfg.linear_tol, KRYLOV_MAX)
        if s is not None and _relative_residual(J, s, rhs) <= cfg.linear_tol:
            return s
    # drop the old LU before the new one is made: one at a time
    lu_slot["lu"] = lu = None
    return op._solve(op.jacobian(u, phi_vals), rhs, cfg.linear_tol, lu_slot=lu_slot)


def newton_solve(op, u0, phi_vals, H_vals, cfg, monitor=None, _lu_slot=None):
    """Damped Newton on the residual; returns (u, iterations, history).

    Accepted steps pass Armijo decrease on the squared 2-norm and,
    whenever attainable, strictly reduce the sup norm as well (on
    nominal warm starts every step does; far-field starts may take
    merit-only steps).  `monitor(u_candidate)` may veto a step (used
    for the functional descent certificate).  `_lu_slot`, a dict, carries
    one factorization in and out under "lu" (see `_newton_step`).
    """
    lu_slot = {"lu": None} if _lu_slot is None else _lu_slot
    u = np.array(u0, dtype=float)
    r = op.residual(u, phi_vals, H_vals)
    history = [float(np.max(np.abs(r)))]
    for it in range(cfg.max_newton):
        rinf = history[-1]
        if rinf <= cfg.newton_tol:
            return u, it, history
        if np.max(np.abs(u)) > cfg.diverge_sup:
            raise DivergedIterates(f"sup|u| exceeded {cfg.diverge_sup:g}")
        s = _newton_step(op, u, phi_vals, r, cfg, lu_slot)
        m0 = float(r @ r)
        accepted = False
        fallback = None
        # cap the step so an overshoot cannot saturate the flux globally
        # (the saturated regime is a Newton plateau: residual insensitive
        # to u, Jacobian rows ~ 1/W^3 nearly zero)
        lam = min(1.0, cfg.max_step_sup / max(np.max(np.abs(s)), 1e-30))
        while lam >= cfg.min_step:
            u_try = u + lam * s
            try:
                r_try = op.residual(u_try, phi_vals, H_vals)
            except Exception:
                lam *= 0.5
                continue
            m_try = float(r_try @ r_try)
            rinf_try = float(np.max(np.abs(r_try)))
            armijo_ok = m_try <= (1.0 - 2.0 * cfg.armijo * lam) * m0
            if armijo_ok and monitor is not None:
                armijo_ok = monitor(u_try)
            if armijo_ok and rinf_try < rinf:
                u, r = u_try, r_try
                history.append(rinf_try)
                accepted = True
                break
            if armijo_ok and fallback is None:
                # progress in the merit norm even if the sup norm rose;
                # taken when no step satisfies both (far-field starts)
                fallback = (u_try, r_try, rinf_try)
            lam *= 0.5
        if not accepted and fallback is not None:
            u, r, rinf_try = fallback
            history.append(rinf_try)
            accepted = True
        if not accepted:
            raise _NewtonFailure("line search stalled")
    if history[-1] <= cfg.newton_tol:
        return u, cfg.max_newton, history
    raise _NewtonFailure(
        f"no convergence in {cfg.max_newton} iterations (residual {history[-1]:.3e})"
    )


def minimal_initial_graph(spec, grid, cfg=None, _lu_slot=None):
    """Minimal graph with zero boundary values: the continuation start.

    Newton on the H = 0 problem from u = 0, with the fiber-weighted
    area functional enforced as a strict descent certificate along
    accepted steps.  `_lu_slot` is handed to `newton_solve`.
    """
    cfg = cfg or SolveConfig()
    op = _get_operator(spec.chart, grid, spec.n)
    zeros_links = np.zeros(grid.num_links)
    zeros_nodes = np.zeros(grid.num_inside)
    best = [op.functional(zeros_nodes, zeros_links, fiber_weighted=True)]

    def descent(u_try):
        val = op.functional(u_try, zeros_links, fiber_weighted=True)
        if val <= best[0] + 1e-12 * (1.0 + abs(best[0])):
            best[0] = val
            return True
        return False

    try:
        u, _, _ = newton_solve(op, zeros_nodes, zeros_links, zeros_nodes, cfg,
                               monitor=descent, _lu_slot=_lu_slot)
    except _NewtonFailure as exc:
        raise ContinuationStalled(
            f"minimal graph solve failed: {exc}", sigma=0.0
        ) from None
    return u


def solve_dirichlet(spec, grid, cfg=None, u0=None):
    """Solve Q[u] = n H with u = phi at the boundary crossings.

    Returns (u, SolveReport).  Raises ContinuationStalled when the
    continuation step size falls below its floor; the exception carries
    the partial report and the hypothesis verdict.
    """
    from .analysis import boundary_geometry, hypothesis_check

    cfg = cfg or SolveConfig()
    op = _get_operator(spec.chart, grid, spec.n)
    H_target = spec.H_nodes(grid)
    phi_target = spec.phi_links(grid)

    bgeom = boundary_geometry(spec.chart, spec.domain,
                              samples=max(64, grid.num_links))
    hypo = hypothesis_check(spec, bgeom, grid=grid).as_dict()

    report = SolveReport(h=grid.h, geometry=spec.chart.name,
                         domain=spec.domain.describe(), hypothesis=hypo)

    # one sparse factorization, reused by every Newton step that can
    lu_slot = {"lu": None}
    try:
        # boundary-compatible predictor: harmonic lift of the data-scale jump
        # keeps Newton iterates out of the saturated-slope regime near the
        # boundary; with unscaled phi the full lift is applied at once.  Its
        # LU is the first the solve carries
        lift = op.laplace_lift(phi_target, _lu_slot=lu_slot) if np.any(phi_target) else None

        if u0 is not None:
            # a supplied start is tapered to zero over a few cells at the
            # boundary: its values there conflict with the Dirichlet data and
            # would push the ghost extrapolation into the saturated regime
            taper = np.clip(grid.dist / (3.0 * grid.h), 0.0, 1.0)
            u = np.asarray(u0, dtype=float) * taper
        else:
            u = minimal_initial_graph(spec, grid, cfg, _lu_slot=lu_slot)
        lift_state = {"applied": 0.0}

        def attempt(u_from, sigma):
            Hs = sigma * H_target
            ps = sigma * phi_target if cfg.scale_phi else phi_target
            u_start = u_from
            if lift is not None:
                data_scale = sigma if cfg.scale_phi else 1.0
                u_start = u_from + (data_scale - lift_state["applied"]) * lift
            result = newton_solve(op, u_start, ps, Hs, cfg, _lu_slot=lu_slot)
            if lift is not None:
                lift_state["applied"] = sigma if cfg.scale_phi else 1.0
            return result, ps

        def book(sigma, u_new, iters, history, ps):
            report.sigma_path.append(float(sigma))
            report.newton_iters.append(int(iters))
            report.residual_final = float(history[-1])
            report.sup_u.append(float(np.max(np.abs(u_new))))
            state = op.state(u_new, ps)
            du = np.sqrt(np.einsum("ni,ni->n", state.u_hat_down, state.u_hat_up))
            report.sup_du.append(float(np.max(du)))
            if cfg.record_fields:
                report.fields.append(u_new.copy())

        if cfg.try_direct:
            try:
                (u_new, iters, history), ps = attempt(u, 1.0)
                book(1.0, u_new, iters, history, ps)
                report.converged = True
                return u_new, report
            except (_NewtonFailure, SingularJacobian, DivergedIterates):
                pass

        sigma = 0.0  # any u0 is treated as a sigma = 0 start
        dsigma = cfg.dsigma_init
        while sigma < 1.0:
            target = min(1.0, sigma + dsigma)
            try:
                (u_new, iters, history), ps = attempt(u, target)
            except (_NewtonFailure, SingularJacobian, DivergedIterates):
                dsigma *= 0.5
                if dsigma < cfg.dsigma_min:
                    report.stalled_at = float(sigma)
                    raise ContinuationStalled(
                        f"continuation stalled at sigma = {sigma:.6g}",
                        sigma=sigma, report=report, hypothesis=hypo,
                    )
                continue
            u = u_new
            sigma = target
            book(sigma, u, iters, history, ps)
            if iters <= 3:
                dsigma = min(2.0 * dsigma, 1.0)
        report.converged = True
        return u, report
    finally:
        # a raised exception keeps this frame alive; the LU must not
        lu_slot["lu"] = None


@dataclass
class ComparisonResult:
    premise: bool            # Q[u1] >= Q[u2] + margin and u1 <= u2 on the boundary
    conclusion: bool         # u1 <= u2 + tol inside
    witness_node: int = None
    witness_point: tuple = None
    witness_gap: float = 0.0

    @property
    def holds(self):
        return (not self.premise) or self.conclusion


def comparison_check(spec, grid, u1, u2, phi1=None, phi2=None,
                     margin=1e-8, tol=1e-6):
    """Order test for the comparison principle.

    If Q[u1] >= Q[u2] + margin at every inside node and u1 <= u2 at the
    boundary crossings, then u1 <= u2 + tol must hold inside; the first
    violating node is returned as a witness.  phi1/phi2 default to the
    spec's boundary data for both fields.
    """
    op = _get_operator(spec.chart, grid, spec.n)
    p_default = spec.phi_links(grid)
    p1 = p_default if phi1 is None else _eval_data(phi1, grid.link_points)
    p2 = p_default if phi2 is None else _eval_data(phi2, grid.link_points)
    q1 = op.q_value(np.asarray(u1, dtype=float), p1)
    q2 = op.q_value(np.asarray(u2, dtype=float), p2)
    premise = bool(np.all(q1 >= q2 + margin) and np.all(p1 <= p2 + 1e-12))
    gap = np.asarray(u1, dtype=float) - np.asarray(u2, dtype=float)
    bad = gap > tol
    if np.any(bad):
        k = int(np.argmax(gap))
        return ComparisonResult(premise=premise, conclusion=False,
                                witness_node=k,
                                witness_point=tuple(grid.points[k]),
                                witness_gap=float(gap[k]))
    return ComparisonResult(premise=premise, conclusion=True)
