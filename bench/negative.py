"""Show that the benchmark's checks reject a wrong answer.

    python3 bench/negative.py

For each workload this runs one honest round, then adds an interior bump
of height 1e-3, 1e-3 exp(-(r/0.1)^2) around the domain's centre, to the
solution at the finest spacing.  The corrupted field goes through the
workload's accuracy check in place of the honest one, and through
kgraph's verify.  Exits 1 unless every workload's check rejects it.
"""

import dataclasses
import sys

from run import prepare

BUMP = 1e-3
BUMP_WIDTH = 0.1


def main():
    prepare()
    import numpy as np

    import kgraph as kg
    import workloads

    all_rejected = True
    for name, make in workloads.WORKLOADS.items():
        problem = make(7)
        finest = {}

        def keep(spec, grid, u):
            finest.update(spec=spec, grid=grid, u=u)

        ops = [workloads.run_op(problem, h_inv) for h_inv in problem.spacings[:-1]]
        ops.append(workloads.run_op(problem, problem.spacings[-1], after=keep))
        honest = problem.accuracy_check(ops)

        grid = finest["grid"]
        r = np.linalg.norm(grid.points - np.asarray(problem.domain.center), axis=1)
        bumped = finest["u"] + BUMP * np.exp(-(r / BUMP_WIDTH) ** 2)
        err = float(np.max(np.abs(bumped - problem.exact(grid.points))))
        corrupt = dataclasses.replace(ops[-1], err=err, reason=None)
        verdict = problem.accuracy_check(ops[:-1] + [corrupt])[-1]
        report = kg.verify(finest["spec"], grid, bumped,
                           newton_tol=problem.newton_tol, rng_seed=problem.rng_seed)

        print(f"{name} h=1/{corrupt.h_inv}: honest err {ops[-1].err:.3e} "
              f"check {'passes' if honest[-1] is None else 'FAILS: ' + honest[-1]}")
        print(f"{name} h=1/{corrupt.h_inv}: bumped err {err:.3e} "
              f"check {'PASSES' if verdict is None else 'rejects: ' + verdict}; "
              f"verify {'PASSES' if report.passed else 'rejects'}")
        all_rejected &= verdict is not None
    sys.exit(0 if all_rejected else 1)


if __name__ == "__main__":
    main()
