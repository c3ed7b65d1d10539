"""Past the solvability threshold, and charts from node tables.

The condition sup|H| <= inf H_cyl is sufficient, not necessary; pushed
far beyond it the continuation stalls at the last solvable scale and
says so.  On a disk of radius rho the cap family caps out at
sigma H = 1/rho, so with H = 10 and rho = 0.5 the stall lands near
sigma = 0.2.  The second half builds a chart from a node-table file,
the same format the CLI accepts.
"""

import os
import tempfile

import numpy as np

import kgraph as kg


def main():
    chart = kg.euclidean()
    domain = kg.Disk(center=(0.0, 0.0), radius=0.5)
    grid = kg.build_grid(domain, 1.0 / 24, chart)
    spec = kg.ProblemSpec(chart=chart, domain=domain, H=10.0, phi=0.0)
    try:
        kg.solve_dirichlet(spec, grid)
        print("unexpectedly solvable")
    except kg.ContinuationStalled as stalled:
        print(f"H = 10 on the rho = 0.5 disk: stalled at sigma = "
              f"{stalled.sigma:.4f} (cap family exists up to sigma = "
              f"{1 / (0.5 * 10):.2f})")
        hypo = stalled.report.hypothesis
        print(f"hypothesis verdict at stall: sup|H| = "
              f"{hypo['sup_H']:.1f} vs inf H_cyl = "
              f"{hypo['inf_Hcyl']:.2f} -> "
              f"{'pass' if hypo['passed'] else 'fail'}")

    # a user chart: constant anisotropic metric from a table file
    lines = ["name = stretched", "grid = 2 2 -1.0 -1.0 2.0 2.0"]
    tables = {
        "sigma11": "4.0, 4.0\n4.0, 4.0",
        "sigma12": "0.0, 0.0\n0.0, 0.0",
        "sigma22": "1.0, 1.0\n1.0, 1.0",
        "f": "1.0, 1.0\n1.0, 1.0",
        "delta1": "0.0, 0.0\n0.0, 0.0",
        "delta2": "0.0, 0.0\n0.0, 0.0",
    }
    for key, block in tables.items():
        lines.append(f"[{key}]")
        lines.append(block)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "stretched.geom")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        table_chart = kg.chart_from_file(path)
        grid2 = kg.build_grid(kg.Rectangle(0, 0, 1, 1), 1.0 / 16, table_chart)
        area = kg.integrate(grid2, np.ones(grid2.num_inside))
        print(f"\ntable chart {table_chart.name!r}: sigma = diag(4,1), "
              f"unit square area = {area:.6f} (sqrt(det sigma) = 2)")
        spec2 = kg.ProblemSpec(chart=table_chart, domain=grid2.domain,
                               H=0.0, phi=0.0)
        u2, rep2 = kg.solve_dirichlet(spec2, grid2)
        print(f"minimal graph on the stretched chart: sup|u| = "
              f"{np.abs(u2).max():.1e}, residual {rep2.residual_final:.1e}")


if __name__ == "__main__":
    main()
