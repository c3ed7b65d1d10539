"""The benchmark's workloads: problem data, one timed operation, and checks.

An operation is one Dirichlet problem taken the way a user takes it:
build the grid and the operator, solve, verify, then compare the
solution with an answer computed apart from kgraph (an exact formula or
a sympy-manufactured solution).  A round is every operation of a
workload once, coarsest spacing first.

kgraph must be importable before this module is imported; `run.prepare`
puts the checkout's `src/` on the path.
"""

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import kgraph as kg

# Below this a nodal error is rounding, not discretization: heis-saddle
# reproduces its exact solution to ~2.5e-16, and a reordered sum can
# double that without anything having got worse.
ERR_FLOOR = 1e-12
HEIS_TOL = 1e-9         # |u - xy/2| allowed on the exact heisenberg saddle
CAP_RATIO = 2.0         # err * h^-2 may stray this far from the round median
MIN_ORDER = 1.8         # observed order required of the manufactured problem


@dataclass(frozen=True)
class Problem:
    """A workload's inputs: everything kgraph receives, plus the reference."""

    chart: object
    domain: object
    H: object
    phi: object
    exact: Callable            # reference solution over points (..., 2)
    spacings: tuple            # 1/h of each operation, coarsest first
    newton_tol: float
    rng_seed: int              # verify's ellipticity test directions
    known_faults: dict         # 1/h -> fault label, operations allowed to fail
    accuracy_check: Callable   # list[Op] -> list of failure reasons or None


@dataclass
class Op:
    """The outcome of one operation."""

    h_inv: int
    nodes: int = 0
    setup_s: float = 0.0
    solve_s: float = 0.0
    verify_s: float = 0.0
    err: float = math.nan
    newton_iters: int = 0
    sigma_steps: int = 0
    reason: str = None         # why the operation failed, None when it passed

    @property
    def certified_s(self):
        return self.setup_s + self.solve_s + self.verify_s


def _xy(P):
    P = np.asarray(P, dtype=float)
    return P[..., 0], P[..., 1]


# ---------------------------------------------------------------------------
# cap-refine: the euclidean lower cap of radius 1 over Disk((0,0), 0.5)

def _cap(P):
    x, y = _xy(P)
    return -np.sqrt(1.0 - x * x - y * y)


def _cap_check(ops):
    """Second order: err * h^-2 within CAP_RATIO of the round's best spacing."""
    c = {op.h_inv: op.err * op.h_inv ** 2 for op in ops if np.isfinite(op.err)}
    best = min(c.values(), default=math.nan)
    return [f"err*h^-2 = {c[op.h_inv]:.4g} is over {CAP_RATIO:g}x the best "
            f"spacing's {best:.4g}"
            if c.get(op.h_inv, 0.0) > CAP_RATIO * best else None for op in ops]


def cap_refine(seed):
    return Problem(
        chart=kg.euclidean(), domain=kg.Disk((0.0, 0.0), 0.5),
        H=1.0, phi=_cap, exact=_cap, spacings=(64, 128, 192, 256),
        # the default 1e-10 sits under the round-off floor of the 1/256
        # residual and ends in a false ContinuationStalled (fault D1)
        newton_tol=1e-9, rng_seed=seed,
        # h = 1/192 puts boundary nodes on the lattice: O(1) truncation
        known_faults={192: "D2"},
        accuracy_check=_cap_check,
    )


# ---------------------------------------------------------------------------
# heis-saddle: the exact minimal graph u = xy/2 in Nil3 over Disk((0,0), 1)

def _saddle(P):
    x, y = _xy(P)
    return 0.5 * x * y


def _exact_check(ops):
    return [f"max |u - xy/2| = {op.err:.3g} > {HEIS_TOL:g}"
            if op.err > HEIS_TOL else None for op in ops]


def heis_saddle(seed):
    return Problem(
        chart=kg.heisenberg(), domain=kg.Disk((0.0, 0.0), 1.0),
        H=0.0, phi=_saddle, exact=_saddle,
        spacings=(128,), newton_tol=1e-10, rng_seed=seed, known_faults={},
        accuracy_check=_exact_check,
    )


# ---------------------------------------------------------------------------
# curved-exp: sigma = diag(e^{2x}, 1), f = 1, delta = 0, manufactured u*

def manufactured_H():
    """u* and H* = Q[u*]/2 for the curved-exp chart, derived with sympy.

    Q[u] = div_sigma(hat_u / W) - (1/W) kappa_i hat_u^i with
    hat_u_i = d_i u + f^{1/2} delta_i, hat_u^j = sigma^{ij} hat_u_i,
    W = sqrt(f + hat_u_i hat_u^i), kappa_i = d_i f / (2 f) and
    div_sigma V = det(sigma)^{-1/2} d_i(det(sigma)^{1/2} V^i).
    Returns numpy callables (u_star, H_star) over points (..., 2).
    """
    import sympy

    x, y = sympy.symbols("x y", real=True)
    u = sympy.sin(2 * y) / 5 + x ** 2 / 10
    sigma = sympy.diag(sympy.exp(2 * x), 1)
    f = sympy.Integer(1)
    delta = sympy.Matrix([0, 0])
    coords = (x, y)

    hat_down = sympy.Matrix([sympy.diff(u, c) for c in coords]) + sympy.sqrt(f) * delta
    hat_up = sigma.inv() * hat_down
    W = sympy.sqrt(f + (hat_down.T * hat_up)[0])
    vol = sympy.sqrt(sigma.det())
    div = sum(sympy.diff(vol * hat_up[i] / W, coords[i]) for i in range(2)) / vol
    kappa = [sympy.diff(f, c) / (2 * f) for c in coords]
    Q = div - sum(kappa[i] * hat_up[i] for i in range(2)) / W
    H = sympy.simplify(Q / 2)

    u_num = sympy.lambdify(coords, u, "numpy")
    H_num = sympy.lambdify(coords, H, "numpy")
    return (lambda P: u_num(*_xy(P))), (lambda P: H_num(*_xy(P)))


def _curved_metric(P):
    x, _ = _xy(P)
    out = np.zeros(x.shape + (2, 2))
    out[..., 0, 0] = np.exp(2.0 * x)
    out[..., 1, 1] = 1.0
    return out


def _order_check(ops):
    """Observed order between the two spacings must reach MIN_ORDER."""
    coarse, fine = ops
    if not (np.isfinite(coarse.err) and np.isfinite(fine.err)):
        return [None, None]
    order = math.log(coarse.err / fine.err) / math.log(fine.h_inv / coarse.h_inv)
    if order >= MIN_ORDER:
        return [None, None]
    reason = f"observed order {order:.3f} < {MIN_ORDER:g}"
    return [reason, reason]


def curved_exp(seed):
    u_star, H_star = manufactured_H()
    chart = kg.SubmersionChart(
        name="curved-exp", metric=_curved_metric,
        f=lambda P: np.ones(np.asarray(P).shape[:-1]),
        delta=lambda P: np.zeros(np.asarray(P).shape[:-1] + (2,)),
        ric_lower=0.0, flat_metric=False)
    return Problem(
        chart=chart, domain=kg.Disk((0.0, 0.0), 0.5),
        H=H_star, phi=u_star, exact=u_star, spacings=(64, 128),
        newton_tol=1e-10, rng_seed=seed, known_faults={},
        accuracy_check=_order_check,
    )


WORKLOADS = {"cap-refine": cap_refine, "heis-saddle": heis_saddle,
             "curved-exp": curved_exp}


# ---------------------------------------------------------------------------
# running

def run_op(problem, h_inv, after=None):
    """One timed operation; kgraph errors fail the operation, not the run.

    `after(spec, grid, u)` runs once the timings are taken.
    """
    op = Op(h_inv=h_inv)
    spec = kg.ProblemSpec(chart=problem.chart, domain=problem.domain,
                          H=problem.H, phi=problem.phi)
    stage = "setup_s"
    t = time.perf_counter()
    try:
        grid = kg.build_grid(problem.domain, 1.0 / h_inv, problem.chart)
        # today the first public call that needs the operator builds it;
        # the solve and verify below reuse it
        kg.residual(spec, grid, np.zeros(grid.num_inside))
        op.setup_s = time.perf_counter() - t
        op.nodes = grid.num_inside

        stage, t = "solve_s", time.perf_counter()
        u, report = kg.solve_dirichlet(
            spec, grid, kg.SolveConfig(newton_tol=problem.newton_tol))
        op.solve_s = time.perf_counter() - t

        stage, t = "verify_s", time.perf_counter()
        result = kg.verify(spec, grid, u, newton_tol=problem.newton_tol,
                           rng_seed=problem.rng_seed)
        op.verify_s = time.perf_counter() - t
    except kg.KGraphError as exc:
        setattr(op, stage, time.perf_counter() - t)
        op.reason = f"{type(exc).__name__}: {exc}"
        return op

    op.err = float(np.max(np.abs(u - problem.exact(grid.points))))
    op.newton_iters = int(sum(report.newton_iters))
    op.sigma_steps = len(report.sigma_path)
    if not report.converged:
        op.reason = "solve_dirichlet did not converge"
    elif not result.passed:
        failed = [k for k, item in result.items.items()
                  if not (item.get("passed") or item.get("skipped") or item.get("advisory"))]
        op.reason = "verify failed: " + ", ".join(failed)
    if after is not None:
        after(spec, grid, u)
    return op


def check_round(problem, ops):
    """Attach the accuracy verdicts to operations that got that far."""
    for op, reason in zip(ops, problem.accuracy_check(ops)):
        if op.reason is None and reason is not None:
            op.reason = reason
    return ops


def run_round(problem, after=None):
    ops = [run_op(problem, h_inv, after) for h_inv in problem.spacings]
    return check_round(problem, ops)


def unexpected(problem, ops):
    """Failed operations that no named fault accounts for."""
    return [op for op in ops
            if op.reason is not None and op.h_inv not in problem.known_faults]
