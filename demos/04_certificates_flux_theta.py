"""Run every certificate on a solved cap.

Once a graph has converged, the estimate machinery turns into numeric
certificates: exponential height barriers and logarithmic boundary
gradient barriers sandwich the solution pointwise, the flux identity
balances the boundary integral of <Y, nu> against the bulk integral of
n H <Y, N>, and the angle function Theta = <N, Y> attains its minimum
at the boundary.
"""

import numpy as np

import kgraph as kg


def cap(points):
    points = np.asarray(points)
    return -np.sqrt(1.0 - points[..., 0] ** 2 - points[..., 1] ** 2)


def main():
    chart = kg.euclidean()
    domain = kg.Disk(center=(0.0, 0.0), radius=0.5)
    grid = kg.build_grid(domain, 1.0 / 64, chart)
    spec = kg.ProblemSpec(chart=chart, domain=domain, H=1.0, phi=cap)
    u, report = kg.solve_dirichlet(spec, grid)
    print(f"solved: residual {report.residual_final:.2e}, "
          f"sigma path {report.sigma_path}")

    # the grid keeps the boundary geometry the certificates below read
    verdict = kg.hypothesis_check(spec, grid.boundary_geometry, grid=grid)
    print(f"hypotheses: sup|H| = {verdict.sup_H:.3f} <= inf H_cyl = "
          f"{verdict.inf_Hcyl:.3f} -> {'pass' if verdict.passed else 'fail'}")

    hc = kg.height_barrier_certificate(spec, grid, u)
    print(f"height barrier: C = {hc.C}, A = {hc.A:.3f}, "
          f"min margin {np.min(hc.margin):.3e}, crude bound ok: {hc.crude_ok}")

    gc = kg.boundary_gradient_certificate(spec, grid, u)
    print(f"gradient barrier: K = {gc.params.K}, mu = {gc.params.mu:.3f}, "
          f"sup|grad u| on boundary = {gc.sup_grad_boundary:.4f} "
          f"(exact 3^-1/2 = {1 / np.sqrt(3):.4f}), bound {gc.bound:.3f}")

    flux = kg.flux_balance(spec, grid, u)
    print(f"flux identity: boundary {flux.boundary:.6f} vs bulk {flux.bulk:.6f} "
          f"(closed form pi/2 = {np.pi / 2:.6f}), relative imbalance "
          f"{flux.relative:.1e}")

    theta = kg.theta_field(spec, grid, u)
    print(f"angle function: min {theta.min_value:.4f} at {theta.min_point}, "
          f"on the boundary ring: {grid.dist[theta.min_node] <= 1.5 * grid.h}")

    full = kg.verify(spec, grid, u)
    print("\nfull verification suite:")
    for name, item in sorted(full.items.items()):
        status = "skip" if item.get("skipped") else ("pass" if item["passed"] else "FAIL")
        print(f"  {name:18s} {status}")
    print(f"verdict: {'PASS' if full.passed else 'FAIL'}")


if __name__ == "__main__":
    main()
