"""kgraph benchmark: time to a certified solution, end to end and per layer.

    python3 bench/run.py --workload cap-refine --seed 7 --seconds 60 --trace 0

Runs whole rounds of the workload's operations (workloads.py) until the
next round would end past --seconds, and always at least one.  Prints
one line per operation, a `detail` line with the per-round figures, and
last one JSON object with the keys correct, attempted, failed, metrics.
With --trace 0 the metrics are end to end; with --trace 1 kgraph's
layers are wrapped in timers (tracing.py) and the metrics are per layer.
Each metric is the median over the run's rounds of its per-round value.
"""

import argparse
import dataclasses
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
THREADS = "2"        # no more threads than the reference box has cores
WARMUP_H_INV = 32    # one untimed operation first, so lazy imports are done

END_TO_END = [       # name, unit
    ("setup_s", "s"), ("solve_s", "s"), ("verify_s", "s"),
    ("certified_s", "s"), ("peak_rss_mb", "MB"), ("err_max", "1"),
]


def prepare():
    """Pin thread pools and put this checkout's kgraph sources on the path."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = THREADS
    if not (SRC / "kgraph" / "__init__.py").is_file():
        sys.exit(f"kgraph sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


def drop_operator_cache():
    """Let the next round start as a fresh process would.

    kgraph keeps every GraphOperator it builds, with its grid, in a
    module-level cache of up to 33 entries, so memory would otherwise grow
    with the number of rounds.  Within a round the cache works as it does
    for any caller.
    """
    import kgraph.operator

    cache = getattr(kgraph.operator, "_OP_CACHE", None)
    if cache is not None:
        cache.clear()
    gc.collect()


def end_to_end(ops, floor):
    finest = max(ops, key=lambda op: op.h_inv)
    return {
        "setup_s": sum(op.setup_s for op in ops),
        "solve_s": sum(op.solve_s for op in ops),
        "verify_s": sum(op.verify_s for op in ops),
        "certified_s": sum(op.certified_s for op in ops),
        "err_max": max(finest.err, floor),
    }


def median_by_name(per_round):
    return {name: statistics.median(r[name] for r in per_round)
            for name in per_round[0]}


def describe(workload, op):
    verdict = "ok" if op.reason is None else f"FAILED {op.reason}"
    return (f"{workload} h=1/{op.h_inv} N={op.nodes} setup={op.setup_s:.4f}s "
            f"solve={op.solve_s:.4f}s verify={op.verify_s:.4f}s "
            f"err={op.err:.4e} newton={op.newton_iters} {verdict}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("cap-refine", "heis-saddle", "curved-exp"))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    prepare()
    import workloads

    problem = workloads.WORKLOADS[args.workload](args.seed)
    tracer = after = None
    if args.trace:
        import kgraph
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        problem = dataclasses.replace(
            problem, chart=tracing.traced_chart(tracer, problem.chart))

        def after(spec, grid, u):   # the sweep alone, apart from build_grid
            kgraph.distance_field(grid, spec.chart)

    workloads.run_op(problem, WARMUP_H_INV)
    drop_operator_cache()

    rounds, per_round = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        before = tracer.snapshot() if tracer else None
        ops = workloads.run_round(problem, after)
        if tracer:
            per_round.append(tracing.round_metrics(before, tracer.snapshot(), ops))
        else:
            per_round.append(end_to_end(ops, workloads.ERR_FLOOR))
        rounds.append(ops)
        for op in ops:
            print(describe(args.workload, op), flush=True)
        drop_operator_cache()
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break

    if tracer:
        units = {name: unit for name, unit, _, _ in tracing.PER_LAYER}
    else:
        units = dict(END_TO_END)
    values = median_by_name(per_round)
    if not tracer:
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    all_ops = [op for ops in rounds for op in ops]
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "per_round": per_round,
        "certified_s": [sum(op.certified_s for op in ops) for ops in rounds],
        "ops": [dataclasses.asdict(op) for op in rounds[0]],
    }
    print("detail " + json.dumps(detail))
    result = {
        "correct": not any(workloads.unexpected(problem, ops) for ops in rounds),
        "attempted": len(all_ops),
        "failed": sum(op.reason is not None for op in all_ops),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if not math.isnan(values[name])},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
