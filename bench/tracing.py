"""Per-layer timers and counters, installed on kgraph from outside.

`install` replaces the public functions and methods of each layer module
(and `scipy.sparse.linalg.spsolve`, through which kgraph issues every
sparse solve) with wrappers that record spans.  Nothing inside `src/`
changes; the wrappers live only in the traced benchmark process.

A span's inclusive time counts its outermost activations only, so a
recursive call is not counted twice.  Its self time is its duration
minus the part its traced child spans cover.
"""

import dataclasses
import functools
import inspect
import math
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("geometry", "grid", "operator", "solver", "analysis")


class Tracer:
    def __init__(self):
        self.inclusive = Counter()   # span name -> seconds
        self.self_s = Counter()      # span name -> seconds
        self.calls = Counter()       # span name -> activations
        self.counts = Counter()      # counter name -> amount
        self._stack = []             # open spans as [name, child seconds]

    def inside(self, name):
        return any(frame[0] == name for frame in self._stack)

    def wrap(self, name, fn, count=None):
        """`fn` timed as span `name`; `count(tracer, args, result)` runs after."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = not self.inside(name)
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dt
                self.calls[name] += 1
                self.self_s[name] += dt - frame[1]
                if outermost:
                    self.inclusive[name] += dt
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def snapshot(self):
        return {key: Counter(getattr(self, key))
                for key in ("inclusive", "self_s", "calls", "counts")}


def _count_in_newton(counter):
    def count(tracer, args, result):
        if tracer.inside("solver.newton_solve"):
            tracer.counts[counter] += 1
    return count


_count_jacobian_in_newton = _count_in_newton("solver.jacobians_in_newton")


def _count_jacobian(tracer, args, result):
    tracer.counts["operator.jacobian.nnz"] += result.nnz
    _count_jacobian_in_newton(tracer, args, result)


def _count_points(tracer, args, result):
    tracer.counts["geometry.metric.points"] += math.prod(np.shape(args[0])[:-1])


COUNTERS = {
    "operator.GraphOperator.residual": _count_in_newton("solver.residuals_in_newton"),
    "operator.GraphOperator.jacobian": _count_jacobian,
}


def install(tracer):
    """Wrap every public function and method of the layer modules."""
    import scipy.sparse.linalg as spla

    namespaces = [m for n, m in list(sys.modules.items())
                  if n == "kgraph" or n.startswith("kgraph.")]
    for layer in LAYERS:
        module = sys.modules[f"kgraph.{layer}"]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped = tracer.wrap(f"{layer}.{attr}", obj)
                # modules that imported the function by name hold their own
                # reference to it
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            setattr(ns, key, wrapped)
            elif inspect.isclass(obj):
                for name, meth in list(vars(obj).items()):
                    public = not name.startswith("_") or (
                        name == "__init__" and not dataclasses.is_dataclass(obj))
                    if inspect.isfunction(meth) and public:
                        span = f"{layer}.{obj.__name__}.{name}"
                        setattr(obj, name, tracer.wrap(span, meth, COUNTERS.get(span)))
    spla.spsolve = tracer.wrap("solver.spsolve", spla.spsolve)


def traced_chart(tracer, chart):
    """The chart with its own metric callable counted as `geometry.metric`."""
    return dataclasses.replace(
        chart, metric=tracer.wrap("geometry.metric", chart.metric, _count_points))


# ---------------------------------------------------------------------------
# per-layer metrics of one round, from the difference of two snapshots

def _incl(span):
    return lambda d, ops: d["inclusive"][span]


def _calls(span):
    return lambda d, ops: d["calls"][span]


def _self(span):
    return lambda d, ops: d["self_s"][span]


def _count(name):
    return lambda d, ops: d["counts"][name]


def _layer_self(layer):
    return lambda d, ops: sum(v for k, v in d["self_s"].items()
                              if k.startswith(layer + "."))


def _ops(field):
    return lambda d, ops: sum(getattr(op, field) for op in ops)


def _residuals_per_iter(d, ops):
    return (d["counts"]["solver.residuals_in_newton"]
            / max(1, d["counts"]["solver.jacobians_in_newton"]))


OP = "operator.GraphOperator."
PER_LAYER = [   # name, unit, better, value of one round
    ("grid.build_grid.s", "s", "lower", _incl("grid.build_grid")),
    ("grid.distance_field.s", "s", "lower", _incl("grid.distance_field")),
    ("grid.integrate.s", "s", "lower", _incl("grid.integrate")),
    ("grid.integrate.calls", "count", "lower", _calls("grid.integrate")),
    ("grid.nodes", "count", "lower", _ops("nodes")),
    ("grid.self_s", "s", "lower", _layer_self("grid")),
    ("operator.init.s", "s", "lower", _incl(OP + "__init__")),
    ("operator.init.calls", "count", "lower", _calls(OP + "__init__")),
    ("operator.residual.s", "s", "lower", _incl(OP + "residual")),
    ("operator.residual.calls", "count", "lower", _calls(OP + "residual")),
    ("operator.jacobian.s", "s", "lower", _incl(OP + "jacobian")),
    ("operator.jacobian.calls", "count", "lower", _calls(OP + "jacobian")),
    ("operator.jacobian.nnz", "count", "lower", _count("operator.jacobian.nnz")),
    ("operator.laplace_lift.s", "s", "lower", _incl(OP + "laplace_lift")),
    ("operator.laplace_lift.calls", "count", "lower", _calls(OP + "laplace_lift")),
    ("operator.state.s", "s", "lower", _incl(OP + "state")),
    ("operator.state.calls", "count", "lower", _calls(OP + "state")),
    ("operator.functional.s", "s", "lower", _incl(OP + "functional")),
    ("operator.functional.calls", "count", "lower", _calls(OP + "functional")),
    ("operator.self_s", "s", "lower", _layer_self("operator")),
    ("solver.spsolve.s", "s", "lower", _incl("solver.spsolve")),
    ("solver.spsolve.calls", "count", "lower", _calls("solver.spsolve")),
    ("solver.newton_iters", "count", "lower", _ops("newton_iters")),
    ("solver.sigma_steps", "count", "lower", _ops("sigma_steps")),
    ("solver.newton_solve.calls", "count", "lower", _calls("solver.newton_solve")),
    ("solver.residuals_per_iter", "1", "lower", _residuals_per_iter),
    ("solver.newton_solve.self_s", "s", "lower", _self("solver.newton_solve")),
    ("solver.solve_dirichlet.self_s", "s", "lower", _self("solver.solve_dirichlet")),
    ("solver.self_s", "s", "lower", _layer_self("solver")),
    ("analysis.gradient_barrier.s", "s", "lower",
     _incl("analysis.boundary_gradient_certificate")),
    ("analysis.boundary_geometry.s", "s", "lower", _incl("analysis.boundary_geometry")),
    ("analysis.boundary_geometry.calls", "count", "lower",
     _calls("analysis.boundary_geometry")),
    ("analysis.gradient_samples.calls", "count", "lower",
     _calls("analysis.boundary_gradient_samples")),
    ("analysis.hypothesis_check.s", "s", "lower", _incl("analysis.hypothesis_check")),
    ("analysis.height_barrier.s", "s", "lower",
     _incl("analysis.height_barrier_certificate")),
    ("analysis.riccati.s", "s", "lower", _incl("analysis.riccati_evolution")),
    ("analysis.flux.s", "s", "lower", _incl("analysis.flux_balance")),
    ("analysis.theta.calls", "count", "lower", _calls("analysis.theta_field")),
    ("analysis.verify.self_s", "s", "lower", _self("analysis.verify")),
    ("analysis.self_s", "s", "lower", _layer_self("analysis")),
    ("geometry.metric.points", "count", "lower", _count("geometry.metric.points")),
    ("geometry.metric.s", "s", "lower", _incl("geometry.metric")),
    ("geometry.self_s", "s", "lower", _layer_self("geometry")),
]


def round_metrics(before, after, ops):
    """Every per-layer metric of one round, by name."""
    diff = {key: Counter({k: v - before[key][k] for k, v in after[key].items()})
            for key in after}
    return {name: float(value(diff, ops)) for name, _, _, value in PER_LAYER}
