"""Prescribed mean curvature Killing graphs over submersion charts.

Library layout:
  geometry   charts (sigma, f, delta) and derived pointwise quantities
  grid       curved-boundary finite differences, distance, quadrature
  operator   the mean curvature operator, its Jacobian, the harmonic lift
  solver     damped Newton with continuation
  analysis   cylinder curvature, barriers, flux identity, angle function
  cli        the `kgraph` command line front end
"""

from .errors import (
    CertificateFailed, ContinuationStalled, DivergedIterates, EmptyDomain,
    InputError, KGraphError, MinPrincipleViolated, NonPositiveDefinite,
    SingularJacobian, StencilUnavailable, TubularWidthExceeded,
)
from .geometry import (
    SubmersionChart, chart_from_file, christoffels_at, euclidean, gamma_at,
    heisenberg, inverse_metric_at, kappa_vector_at, make_builtin, warped,
)
from .grid import (
    Disk, GridDomain, Rectangle, build_grid, distance_field, integrate,
    read_field_csv, write_field_csv,
)
from .operator import GraphOperator, ProblemSpec, jacobian, residual
from .solver import (
    SolveConfig, SolveReport, minimal_initial_graph, newton_solve, solve_dirichlet,
)
from .analysis import (
    BarrierParams, BoundaryGeometry, FluxResult, GradientCertificate,
    HeightCertificate, HypothesisVerdict, RiccatiCurve, ThetaReport,
    VerifyReport, boundary_geometry, boundary_gradient_certificate,
    flux_balance, height_barrier, height_barrier_certificate,
    hypothesis_check, riccati_evolution, theta_field, verify,
)

__version__ = "0.1.0"
