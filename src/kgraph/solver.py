"""Damped Newton with continuation for the Dirichlet problem.

The continuation family scales the problem data jointly,
Q[u] = n (sigma H) with boundary values sigma phi for sigma in [0, 1],
starting from the minimal graph of the homogeneous problem.  The first
step goes straight to sigma = 1; a failed step is retried at half the
length, and a step that takes at most 3 Newton iterations doubles the
next.  Stalling below the minimum step is reported together with the
hypothesis verdict, since the solvability condition sup|H| <= inf H_cyl
is sufficient but not necessary.
"""

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .analysis import hypothesis_check
from .errors import ContinuationStalled, DivergedIterates, KGraphError, SingularJacobian
from .geometry import _positive
from .operator import LINEAR_TOL, _gmres, _relative_residual

SCHEMA_VERSION = 1
KRYLOV_MAX = 16           # V-cycles a Newton step spends on a reused hierarchy
                          # before it rebuilds; on the lift's hierarchy, steps
                          # take 2-7 on the cap from h = 1/64 to 1/512
ETA_GAMMA = 0.9           # Eisenstat-Walker choice 2: after the first step,
ETA_MAX = 0.1             # a Newton step's GMRES stops at the relative residual
                          # min(ETA_MAX, max(ETA_GAMMA |r_k|^2 / |r_k-1|^2,
                          # LINEAR_TOL, 0.5 newton_tol / |r_k|)), in 2-norms
MAX_NEWTON = 50           # iterations per continuation step
ARMIJO = 1e-4             # sufficient-decrease factor
MIN_STEP = 2.0 ** -20     # line search floor
MAX_STEP_SUP = 2.0        # per-iteration sup-norm step cap
DSIGMA_MIN = 2.0 ** -10   # continuation step floor
DIVERGE_SUP = 1e6         # iterate blow-up guard


@dataclass(frozen=True)
class SolveConfig:
    newton_tol: float = 1e-10      # sup-norm residual target, finite and positive

    def __post_init__(self):
        _positive(self.newton_tol, "newton_tol")


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

    def to_json_dict(self):
        out = asdict(self)
        out["schema"] = SCHEMA_VERSION
        return json.loads(json.dumps(out, default=float))


class _NewtonFailure(Exception):
    """Internal: one continuation step did not converge."""


def _newton_step(op, u, phi_vals, r, state, lu_slot, eta):
    """Newton direction s with |J s + r| <= eta |r|, eta the forcing term.

    J is linearized from `state`, which the residual r left at u (from u
    when None).  The hierarchy in `lu_slot["lu"]`, when there is one, is
    reused: its V-cycle preconditions flexible GMRES (`_gmres`) on the
    matrix-free J, and the step is accepted only on its true residual.
    When KRYLOV_MAX cycles miss eta, or the true residual does, the
    assembled J gets a hierarchy of its own, which replaces the old one,
    and is solved on it to the same eta (`GraphOperator._solve`).
    """
    rhs = -r
    mg = lu_slot["lu"]
    if mg is not None:
        J = op.jacobian_action(u, phi_vals, _state=state)
        s = _gmres(J, mg.solve, rhs, eta, KRYLOV_MAX)
        if s is not None and _relative_residual(J, s, rhs) <= eta:
            return s
    # drop the old hierarchy before the new one is built: one at a time
    lu_slot["lu"] = mg = None
    return op._solve(op.jacobian(u, phi_vals, _state=state), rhs, eta, lu_slot=lu_slot)


def newton_solve(op, u0, phi_vals, H_vals, cfg, _lu_slot=None):
    """Damped Newton on the residual; returns (u, iterations, history).

    Inexact Newton (Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996;
    Kelley 1995, ch. 6): the first step solves to LINEAR_TOL, and each
    later one only to the forcing term of choice 2 (see ETA_GAMMA), in
    the 2-norm GMRES reduces.  Accepted steps pass Armijo decrease on
    the squared 2-norm and, whenever attainable, strictly reduce the sup
    norm as well (on nominal warm starts every step does; far-field
    starts may take merit-only steps).  `_lu_slot`, a dict, carries one
    multigrid hierarchy in and out under "lu" (see `_newton_step`).
    """
    lu_slot = {"lu": None} if _lu_slot is None else _lu_slot
    u = np.array(u0, dtype=float)
    state = {}
    r = op.residual(u, phi_vals, H_vals, _state=state)
    history = [float(np.max(np.abs(r)))]
    for it in range(MAX_NEWTON):
        rinf = history[-1]
        if rinf <= cfg.newton_tol:
            return u, it, history
        if np.max(np.abs(u)) > DIVERGE_SUP:
            raise DivergedIterates(f"sup|u| exceeded {DIVERGE_SUP:g}")
        m0 = float(np.einsum("n,n->", r, r))    # summed as `_gmres` sums: no BLAS
        eta = LINEAR_TOL if it == 0 else min(ETA_MAX, max(
            ETA_GAMMA * m0 / m_prev, LINEAR_TOL, 0.5 * cfg.newton_tol / np.sqrt(m0)))
        s = _newton_step(op, u, phi_vals, r, state, lu_slot, eta)
        accepted = fallback = None
        # cap the step so an overshoot cannot saturate the flux globally
        # (the saturated regime is a Newton plateau: residual insensitive
        # to u, Jacobian rows ~ 1/W^3 nearly zero)
        lam = min(1.0, MAX_STEP_SUP / max(np.max(np.abs(s)), 1e-30))
        while lam >= MIN_STEP:
            u_try, trial = u + lam * s, {}
            try:
                r_try = op.residual(u_try, phi_vals, H_vals, _state=trial)
            except KGraphError:     # not finite at the trial
                lam *= 0.5
                continue
            rinf_try = float(np.max(np.abs(r_try)))
            if float(np.einsum("n,n->", r_try, r_try)) <= (1.0 - 2.0 * ARMIJO * lam) * m0:
                if rinf_try < rinf:
                    accepted = (u_try, r_try, trial, rinf_try)
                    break
                # progress in the merit norm even if the sup norm rose;
                # taken when no step satisfies both (far-field starts)
                fallback = fallback or (u_try, r_try, trial, rinf_try)
            lam *= 0.5
        if accepted is None and fallback is None:
            raise _NewtonFailure("line search stalled")
        m_prev = m0
        u, r, state, rinf_try = accepted or fallback
        history.append(rinf_try)
    if history[-1] <= cfg.newton_tol:
        return u, MAX_NEWTON, history
    raise _NewtonFailure(
        f"no convergence in {MAX_NEWTON} iterations (residual {history[-1]:.3e})"
    )


def minimal_initial_graph(spec, grid, cfg=None, _lu_slot=None):
    """Minimal graph with zero boundary values: the continuation start.

    Newton on the H = 0 problem from u = 0.  Raises ContinuationStalled
    at sigma = 0 when it does not converge.  `_lu_slot` is handed to
    `newton_solve`.
    """
    cfg = cfg or SolveConfig()
    spec.check_grid(grid)
    op = grid.operator
    zeros_nodes = np.zeros(grid.num_inside)
    try:
        u, _, _ = newton_solve(op, zeros_nodes, np.zeros(grid.num_links), zeros_nodes,
                               cfg, _lu_slot=_lu_slot)
    except (_NewtonFailure, SingularJacobian, DivergedIterates) as exc:
        raise ContinuationStalled(
            f"minimal graph solve failed: {exc}", sigma=0.0
        ) from None
    return u


def solve_dirichlet(spec, grid, cfg=None, u0=None):
    """Solve Q[u] = n H with u = phi at the boundary crossings.

    Continuation in sigma from the minimal graph (or from `u0`, taken
    as a sigma = 0 start): the first step is the direct attempt at
    sigma = 1, and each failed attempt halves the step.  Returns (u,
    SolveReport).  Raises ContinuationStalled when the step falls below
    DSIGMA_MIN, or when the minimal graph fails (at sigma = 0); the
    exception carries the partial report, whose hypothesis holds the
    verdict.
    """
    cfg = cfg or SolveConfig()
    H_target = spec.H_nodes(grid)
    phi_target = spec.phi_links(grid)
    if u0 is not None:
        u0 = grid.check_field(u0, "u0")
    op = grid.operator

    verdict = hypothesis_check(spec, grid.boundary_geometry, grid=grid, _H_vals=H_target)
    report = SolveReport(h=grid.h, geometry=spec.chart.name,
                         domain=spec.domain.describe(), hypothesis=verdict.as_dict())

    # one multigrid hierarchy, reused by every Newton step that can
    lu_slot = {"lu": None}
    try:
        # boundary-compatible predictor: harmonic lift of the data-scale jump
        # keeps Newton iterates out of the saturated-slope regime near the
        # boundary.  Its hierarchy is the first the solve carries
        lift = op.laplace_lift(phi_target, _lu_slot=lu_slot) if np.any(phi_target) else None

        if u0 is not None:
            # a supplied start is tapered to zero over a few cells at the
            # boundary: its values there conflict with the Dirichlet data and
            # would push the ghost extrapolation into the saturated regime
            taper = np.clip(grid.dist / (3.0 * grid.h), 0.0, 1.0)
            u = u0 * taper
        else:
            try:
                u = minimal_initial_graph(spec, grid, cfg, _lu_slot=lu_slot)
            except ContinuationStalled as exc:
                report.stalled_at = exc.sigma
                exc.report = report
                raise

        sigma, dsigma = 0.0, 1.0
        while sigma < 1.0:
            target = min(1.0, sigma + dsigma)
            u_start = u if lift is None else u + (target - sigma) * lift
            phi_s = target * phi_target
            try:
                u_new, iters, history = newton_solve(op, u_start, phi_s, target * H_target,
                                                     cfg, _lu_slot=lu_slot)
            except (_NewtonFailure, SingularJacobian, DivergedIterates):
                dsigma *= 0.5
                if dsigma < DSIGMA_MIN:
                    report.stalled_at = float(sigma)
                    raise ContinuationStalled(
                        f"continuation stalled at sigma = {sigma:.6g}",
                        sigma=sigma, report=report,
                    )
                continue
            u, sigma = u_new, target
            report.sigma_path.append(float(sigma))
            report.newton_iters.append(int(iters))
            report.residual_final = float(history[-1])
            report.sup_u.append(float(np.max(np.abs(u))))
            # hat_u_i hat_u^i directly: sqrt(W^2 - f) cancels where |Du| is small
            c1, c2, up1, up2, _ = op.state(u, phi_s)
            du = np.sqrt(c1 * up1 + c2 * up2)
            report.sup_du.append(float(np.max(du)))
            if iters <= 3:
                dsigma = min(2.0 * dsigma, 1.0)
        report.converged = True
        return u, report
    finally:
        # a raised exception keeps this frame alive; the hierarchy must not
        lu_slot["lu"] = None

