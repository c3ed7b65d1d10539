"""Time np.linalg.norm under one and two OpenBLAS threads, in fresh processes.

    python3 tools/blas_threads.py --procs 10 --busy 2

For each vector length and each OPENBLAS_NUM_THREADS setting, starts
--procs fresh Python processes.  Each maps numpy's and scipy's OpenBLAS
builds (it imports scipy.sparse.linalg, as kgraph does), times 200 calls
of np.linalg.norm and reports its thread count and the median call time.
--busy starts that many spinning processes for the whole run, standing
in for other load on the same cores, and stops them at the end.  A
process counts as slow when its median call exceeds 1 ms; a healthy call
takes microseconds.  Linux only: it reads /proc/self.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time

CHILD = """
import os, statistics, sys, time
import numpy as np
import scipy.sparse.linalg
x = np.random.default_rng(0).standard_normal(int(sys.argv[1]))
ts = []
for _ in range(200):
    t = time.perf_counter()
    np.linalg.norm(x)
    ts.append(time.perf_counter() - t)
libs = sorted({l.split()[-1].rsplit("/", 1)[-1] for l in open("/proc/self/maps") if "openblas" in l})
print(len(os.listdir("/proc/self/task")), statistics.median(ts) * 1e3, ",".join(libs))
"""


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--procs", type=int, default=10)
    ap.add_argument("--busy", type=int, default=0)
    ap.add_argument("--sizes", type=int, nargs="+", default=[12849, 51429])
    args = ap.parse_args()
    busy = [subprocess.Popen([sys.executable, "-c", "while True: pass"])
            for _ in range(args.busy)]
    try:
        time.sleep(0.5)
        for n in args.sizes:
            for threads in ("1", "2"):
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
                rows = [subprocess.run([sys.executable, "-c", CHILD, str(n)], env=env,
                                       capture_output=True, text=True, check=True).stdout.split()
                        for _ in range(args.procs)]
                medians = sorted(float(r[1]) for r in rows)
                print(f"n={n} OPENBLAS_NUM_THREADS={threads} threads={rows[0][0]} "
                      f"libs={rows[0][2]} slow={sum(m > 1.0 for m in medians)}/{args.procs} "
                      f"median_ms={statistics.median(medians):.3f} worst_ms={medians[-1]:.3f}")
    finally:
        for p in busy:
            p.kill()
            p.wait()


if __name__ == "__main__":
    main()
