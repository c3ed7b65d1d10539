"""Grid classification, the operator gradient, distance, quadrature, field I/O."""

import heapq

import numpy as np
import pytest

import kgraph as kg
from kgraph.errors import EmptyDomain, InputError
from kgraph.grid import BOUNDARY_ADJACENT, DIRICHLET_GHOST, INTERIOR
from kgraph.operator import THETA_ELIM, _get_operator, _walk_inward
from test_equivalence import _strip


def aniso_chart():
    def metric(P):
        P = np.asarray(P)
        out = np.zeros(P.shape[:-1] + (2, 2))
        out[..., 0, 0] = 4.0
        out[..., 1, 1] = 1.0
        return out

    return kg.SubmersionChart(
        name="aniso41", metric=metric,
        f=lambda P: np.ones(np.asarray(P).shape[:-1]),
        delta=lambda P: np.zeros(np.asarray(P).shape[:-1] + (2,)),
        ric_lower=0.0, flat_metric=False)


class TestBuild:
    def test_unit_square_coarse(self, euclid):
        grid = kg.build_grid(kg.Rectangle(0, 0, 1, 1), 0.5, euclid)
        assert grid.num_inside == 1
        assert np.allclose(grid.points[0], [0.5, 0.5])
        # its four neighbors are Dirichlet ghost slots, never bare outside
        assert all(e >= grid.num_inside for e in grid.neighbor_ext[0])
        assert np.all(grid.link_theta == 1.0)

    def test_disk_count_matches_brute_force(self, euclid):
        h = 0.25
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 1.0), h, euclid)
        # independent enumeration over the same lattice
        count = 0
        for i in range(-8, 9):
            for j in range(-8, 9):
                if (i * h) ** 2 + (j * h) ** 2 < 1.0:
                    count += 1
        assert grid.num_inside == count

    def test_disk_theta_matches_circle_crossing(self, euclid):
        rho = 1.0
        grid = kg.build_grid(kg.Disk((0.0, 0.0), rho), 0.25, euclid)
        steps = {0: (1, 0), 1: (-1, 0), 2: (0, 1), 3: (0, -1)}
        for k in range(grid.num_links):
            n = grid.link_node[k]
            x, y = grid.points[n]
            sx, sy = steps[int(grid.link_dir[k])]
            # solve |(x,y) + t(sx,sy)| = rho for t in (0, h]: quadratic formula
            b = x * sx + y * sy
            c = x * x + y * y - rho * rho
            t = -b + np.sqrt(b * b - c)
            assert abs(grid.link_theta[k] * grid.h - t) < 1e-10

    def test_interior_has_full_neighborhood(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 1.0), 0.125, euclid)
        for n in np.nonzero(grid.interior_mask)[0]:
            assert all(e < grid.num_inside for e in grid.neighbor_ext[n])
        assert np.all((0 < grid.link_theta) & (grid.link_theta <= 1.0))

    def test_classification_codes(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 1.0), 0.25, euclid)
        assert np.sum(grid.cls == INTERIOR) + np.sum(grid.cls == BOUNDARY_ADJACENT) \
            == grid.num_inside
        assert np.sum(grid.cls == DIRICHLET_GHOST) == grid.num_ghost

    def test_empty_domain(self, euclid):
        with pytest.raises(EmptyDomain):
            kg.build_grid(kg.Disk((0.3, 0.3), 0.05), 0.5, euclid)

    def test_eta_sigma_unit(self, euclid):
        chart = aniso_chart()
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 1.0), 0.2, chart)
        sig = chart.metric_at(grid.link_points)
        norms = np.sqrt(np.einsum("li,lij,lj->l", grid.eta, sig, grid.eta))
        assert np.abs(norms - 1.0).max() < 1e-10
        # inward: stepping along eta decreases the signed distance
        probe = grid.link_points + 1e-6 * grid.eta
        assert np.all(grid.domain.sdf(probe) < 1e-12)


class TestDistance:
    def test_disk_center_and_radial(self, euclid):
        rho = 1.0
        grid = kg.build_grid(kg.Disk((0.0, 0.0), rho), 0.1, euclid)
        k = np.argmin(np.sum(grid.points ** 2, axis=1))
        assert abs(grid.dist[k] - rho) < 1e-12
        k2 = np.argmin(np.sum((grid.points - [0.4, 0.0]) ** 2, axis=1))
        assert abs(grid.dist[k2] - 0.6) < 1e-12

    def test_anisotropic_rectangle(self):
        # sigma = diag(4, 1) doubles x-lengths: 0.3 from the x-edge is 0.6 away
        chart = aniso_chart()
        grid = kg.build_grid(kg.Rectangle(0, 0, 1, 1), 0.05, chart)
        k = np.argmin(np.sum((grid.points - [0.3, 0.5]) ** 2, axis=1))
        assert abs(grid.dist[k] - 0.5) < 0.02      # y-edges are closer: 1 * 0.5
        k2 = np.argmin(np.sum((grid.points - [0.2, 0.45]) ** 2, axis=1))
        assert abs(grid.dist[k2] - 0.4) < 0.02     # 2 * 0.2 beats 1 * 0.45

    def test_anisotropic_vs_dijkstra(self):
        chart = aniso_chart()
        h = 0.1
        grid = kg.build_grid(kg.Rectangle(0, 0, 1, 1), h, chart)
        # independent oracle: Dijkstra over the 8-neighbor graph with local
        # metric edge lengths, seeded at boundary-adjacent nodes
        n = grid.num_inside
        sig = chart.metric_at(grid.points)
        dist = np.full(n, np.inf)
        heap = []
        for k in range(grid.num_links):
            node = int(grid.link_node[k])
            delta = grid.link_points[k] - grid.points[node]
            d0 = np.sqrt(delta @ sig[node] @ delta)
            if d0 < dist[node]:
                dist[node] = d0
                heapq.heappush(heap, (d0, node))
        index = {tuple(ij): k for k, ij in enumerate(map(tuple, grid.inside_ij))}
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            cx, cy = grid.inside_ij[node]
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    j = index.get((cx + dx, cy + dy))
                    if j is None or (dx == 0 and dy == 0):
                        continue
                    step = np.array([dx * h, dy * h])
                    w = np.sqrt(step @ sig[node] @ step)
                    if d + w < dist[j]:
                        dist[j] = d + w
                        heapq.heappush(heap, (dist[j], j))
        mask = np.isfinite(dist)
        # Dijkstra overestimates by direction quantization (< 9 percent)
        assert np.all(grid.dist[mask] <= dist[mask] + 0.02)
        assert np.all(grid.dist[mask] >= dist[mask] * 0.90 - 0.02)

    def test_eikonal_residual(self):
        chart = aniso_chart()
        h = 0.04
        grid = kg.build_grid(kg.Rectangle(0, 0, 1, 1), h, chart)
        siginv = kg.inverse_metric_at(chart, grid.points)
        # stay away from the cut locus: the ridges where two edge fronts
        # meet (sigma = diag(4,1) stretches x-distances by 2)
        x, y = grid.points[:, 0], grid.points[:, 1]
        fronts = np.sort(np.stack([2 * x, 2 * (1 - x), y, 1 - y], axis=1), axis=1)
        unambiguous = fronts[:, 1] - fronts[:, 0] > 4 * h
        band = (grid.dist <= 0.35 * grid.dist.max()) & grid.interior_mask & unambiguous
        # central differences: interior nodes have all four neighbours inside
        d = grid.dist[grid.neighbor_ext[band]]
        g = np.stack([d[:, 0] - d[:, 1], d[:, 2] - d[:, 3]], axis=-1) / (2 * h)
        val = np.sqrt(np.einsum("ni,nij,nj->n", g, siginv[band], g))
        assert np.abs(val - 1.0).max() <= 0.1

    def test_distance_field_function_matches(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.7), 0.1, euclid)
        again = kg.distance_field(grid, euclid)
        assert np.array_equal(again, grid.dist)

    def test_positive_and_small_only_near_boundary(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.7), 0.1, euclid)
        assert np.all(grid.dist > 0.0)
        near = grid.dist <= grid.h
        # every near-zero value belongs to a node with a boundary link
        linked = np.zeros(grid.num_inside, dtype=bool)
        linked[grid.link_node] = True
        assert np.all(linked[near])


class TestStencils:
    """The operator's gradient: central differences over the ghost extension."""

    @staticmethod
    def gradient(chart, grid, field):
        op = _get_operator(chart, grid, 2)
        u_ext = op.extend(field(grid.points), field(grid.link_points))
        return np.stack([op.Gx @ u_ext, op.Gy @ u_ext], axis=-1)

    def test_linear_exactness(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 1.0), 0.125, euclid)
        g = self.gradient(euclid, grid, lambda P: 3.0 * P[..., 0] - 2.0 * P[..., 1])
        for n in np.nonzero(grid.interior_mask)[0][::7]:
            assert np.abs(g[n] - [3.0, -2.0]).max() < 1e-12

    def test_gradient_convergence_ratio(self, euclid):
        errs = []
        for h in (0.1, 0.05):
            grid = kg.build_grid(kg.Disk((0.0, 0.0), 1.0), h, euclid)
            g = self.gradient(euclid, grid, lambda P: np.sin(P[..., 0]) * np.cos(P[..., 1]))
            P = grid.points[grid.interior_mask]
            exact = np.stack([np.cos(P[:, 0]) * np.cos(P[:, 1]),
                              -np.sin(P[:, 0]) * np.sin(P[:, 1])], axis=-1)
            errs.append(np.abs(g[grid.interior_mask] - exact).max())
        assert 3.5 < errs[0] / errs[1] < 4.5

    @pytest.mark.parametrize("domain, h, eligible", [
        (kg.Disk((0.0, 0.0), 1.0), 1.0 / 4, 20),
        (kg.Disk((0.0137, -0.0219), 0.5), 1.0 / 48, 126),
        (kg.Disk((0.0, 0.0), 0.5), 1.0 / 96, 262),
    ], ids=["unit_disk4", "offcentre48", "centred96"])
    def test_exact_on_quadratics_at_the_boundary(self, euclid, domain, h, eligible):
        """At boundary-adjacent nodes whose ghost neighbours are fed only by
        quadratic-exact extrapolations (theta >= THETA_ELIM with a node
        behind, or theta < THETA_ELIM with two).  The nodes left out see a
        ghost extrapolated to first order only, and are off by up to 0.6."""
        grid = kg.build_grid(domain, h, euclid)
        behind = _walk_inward(grid, grid.link_node, grid.link_dir, 2) >= 0
        exact_link = np.where(grid.link_theta >= THETA_ELIM, behind[:, 0], behind[:, 1])
        ghost = grid.neighbor_ext[grid.link_node, grid.link_dir] - grid.num_inside
        exact_ghost = np.ones(grid.num_ghost, dtype=bool)
        np.logical_and.at(exact_ghost, ghost, exact_link)
        N = grid.num_inside
        ext = grid.neighbor_ext
        ok = np.all((ext < N) | exact_ghost[np.maximum(ext - N, 0)], axis=1)
        nodes = np.unique(grid.link_node)
        nodes = nodes[ok[nodes]]
        assert len(nodes) == eligible
        g = self.gradient(euclid, grid, lambda P: P[..., 0] ** 2 - 2.0 * P[..., 1] ** 2
                          + 0.5 * P[..., 0] * P[..., 1] + P[..., 0])
        x, y = grid.points[nodes, 0], grid.points[nodes, 1]
        exact = np.stack([2 * x + 0.5 * y + 1, -4 * y + 0.5 * x], axis=-1)
        assert np.abs(g[nodes] - exact).max() < 1e-11

    def test_quadratic_extrapolation_below_theta_one(self, euclid):
        """Two rows under an edge h / 2 above the top one: each top-row +y
        link has theta = 0.5 and exactly one node behind it, and alone
        feeds its ghost, so the ghost is the quadratic through (-h, 0,
        theta h) evaluated at +h, exact for u quadratic along y."""
        h = 1.0 / 48
        grid = kg.build_grid(_strip(2, 0.5), h, euclid)
        top = np.nonzero(grid.link_dir == 2)[0]
        assert len(top) == len(np.unique(grid.inside_ij[:, 0]))
        assert np.allclose(grid.link_theta[top], 0.5)
        behind = _walk_inward(grid, grid.link_node[top], 2, 2)
        assert np.all((behind[:, 0] >= 0) & (behind[:, 1] < 0))
        ghost = grid.neighbor_ext[grid.link_node[top], 2] - grid.num_inside
        links_per_ghost = np.bincount(
            grid.neighbor_ext[grid.link_node, grid.link_dir] - grid.num_inside)
        assert np.all(links_per_ghost[ghost] == 1)

        def u(P):
            x, y = P[..., 0], P[..., 1]
            return 1.0 + 3.0 * y - 40.0 * y ** 2 + 0.5 * x * y + x ** 2

        u_ext = _get_operator(euclid, grid, 2).extend(u(grid.points), u(grid.link_points))
        assert np.abs(u_ext[grid.num_inside + ghost] - u(grid.ghost_points[ghost])).max() <= 1e-11


class TestIntegrate:
    def test_unit_square(self, euclid):
        grid = kg.build_grid(kg.Rectangle(0, 0, 1, 1), 1.0 / 16, euclid)
        val = kg.integrate(grid, np.ones(grid.num_inside), euclid)
        assert abs(val - 1.0) < 1e-10

    def test_disk_area(self, euclid):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 1.0), 1.0 / 64, euclid)
        val = kg.integrate(grid, np.ones(grid.num_inside), euclid)
        assert abs(val - np.pi) < 5e-3

    def test_disk_area_refines(self, euclid):
        errs = []
        for h in (1.0 / 32, 1.0 / 64):
            grid = kg.build_grid(kg.Disk((0.0, 0.0), 1.0), h, euclid)
            errs.append(abs(kg.integrate(grid, np.ones(grid.num_inside), euclid) - np.pi))
        assert errs[1] < errs[0]

    def test_metric_weight(self):
        chart = aniso_chart()
        grid = kg.build_grid(kg.Rectangle(0, 0, 1, 1), 1.0 / 16, chart)
        val = kg.integrate(grid, np.ones(grid.num_inside), chart)
        assert abs(val - 2.0) < 1e-10


class TestFieldIO:
    def test_round_trip_exact(self, euclid, tmp_path):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.6), 0.1, euclid)
        rng = np.random.default_rng(11)
        vals = rng.normal(size=grid.num_inside) * np.pi
        path = tmp_path / "field.csv"
        kg.write_field_csv(path, grid, vals, name="u")
        back = kg.read_field_csv(path, grid)
        assert np.array_equal(back, vals)

    def test_shape_mismatch(self, euclid, tmp_path):
        g1 = kg.build_grid(kg.Disk((0.0, 0.0), 0.6), 0.1, euclid)
        g2 = kg.build_grid(kg.Disk((0.0, 0.0), 0.6), 0.2, euclid)
        path = tmp_path / "field.csv"
        kg.write_field_csv(path, g1, np.zeros(g1.num_inside))
        with pytest.raises(InputError):
            kg.read_field_csv(path, g2)

    def test_nonfinite_rejected(self, euclid, tmp_path):
        grid = kg.build_grid(kg.Disk((0.0, 0.0), 0.6), 0.2, euclid)
        vals = np.zeros(grid.num_inside)
        vals[3] = np.nan
        with pytest.raises(InputError):
            kg.write_field_csv(tmp_path / "bad.csv", grid, vals)
