"""Repeat the benchmark over seeds and record every run with its spread.

    python3 bench/record.py --sets 2 --seeds 10 --out spread.json
    python3 bench/record.py --sets 1 --seeds 1 --first-seed 7 --traced \
        --out bench/BENCH_0.json

Each set runs every workload once per seed, workloads interleaved, each
run in its own process exactly as BENCHMARK.json's command does, for its
run_seconds.  Set k uses seeds first_seed + k*seeds ... so no two runs
share a seed.  --traced adds a traced run after each untraced one.

The output holds every run (result line and detail line) and, per set,
workload and metric, the median, quartiles and spread
(q3 - q1) / median, with statistics.quantiles(values, n=4); with two
sets, the shift of the second median against the first.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cap-refine", "heis-saddle", "curved-exp")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2][len("detail "):])
    return {"workload": workload, "seed": seed, "trace": trace,
            "wall_s": time.perf_counter() - t0,
            "result": json.loads(lines[-1]), "detail": detail}


def summarize(runs):
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "min": min(values), "max": max(values)}
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    return {"runs": len(runs), "attempted": attempted, "failed": failed,
            "failed_share": failed / attempted,
            "correct": all(r["result"]["correct"] for r in runs),
            "metrics": out}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                    default=[w["name"] for w in BENCHMARK["workloads"]])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    seconds = BENCHMARK["run_seconds"]

    import numpy
    import scipy
    record = {
        "command": "python3 bench/run.py", "run_seconds": seconds,
        "environment": {"python": platform.python_version(),
                        "numpy": numpy.__version__, "scipy": scipy.__version__,
                        "machine": platform.machine(), "cpus": os.cpu_count()},
        "sets": [],
    }
    for k in range(args.sets):
        runs = []
        for i in range(args.seeds):
            seed = args.first_seed + k * args.seeds + i
            for workload in args.workloads:
                for trace in ((0, 1) if args.traced else (0,)):
                    run = run_once(workload, seed, seconds, trace)
                    runs.append(run)
                    res = run["result"]
                    print(f"set {k + 1} seed {seed} {workload} trace {trace}: "
                          f"{run['wall_s']:.1f}s rounds={run['detail']['rounds']} "
                          f"attempted={res['attempted']} failed={res['failed']} "
                          f"correct={res['correct']}", flush=True)
        summary = {}
        for workload in args.workloads:
            for trace in ((0, 1) if args.traced else (0,)):
                sel = [r for r in runs if r["workload"] == workload and r["trace"] == trace]
                summary.setdefault(workload, {})["traced" if trace else "untraced"] = summarize(sel)
        record["sets"].append({"seeds": [args.first_seed + k * args.seeds + i
                                         for i in range(args.seeds)],
                               "summary": summary, "runs": runs})
    if args.sets >= 2:
        record["shift"] = {
            w: {name: (m["median"] - first[name]["median"]) / first[name]["median"]
                for name, m in record["sets"][1]["summary"][w]["untraced"]["metrics"].items()
                if first[name]["median"]}
            for w in args.workloads
            for first in [record["sets"][0]["summary"][w]["untraced"]["metrics"]]
        }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for k, s in enumerate(record["sets"]):
        for workload, by_mode in s["summary"].items():
            for mode, summ in by_mode.items():
                print(f"set {k + 1} {workload} {mode}: failed {summ['failed']}/{summ['attempted']}")
                for name, m in summ["metrics"].items():
                    print(f"  {name:34s} median {m['median']:.6g}  spread {m['spread']:.4f}")


if __name__ == "__main__":
    main()
