"""Exception types shared across the package."""


class KGraphError(Exception):
    """Base class for all package errors."""


class InputError(KGraphError):
    """Malformed configuration, geometry file, or field file."""


class NonPositiveDefinite(KGraphError):
    """Metric eigenvalue or fiber weight f dropped below the floor at a node."""


class EmptyDomain(KGraphError):
    """Grid spacing too coarse: no node falls inside the domain."""


class StencilUnavailable(KGraphError):
    """A required neighbor is outside the domain with no boundary link."""


class SingularJacobian(KGraphError):
    """Sparse linear solve failed or returned non-finite values."""


class DivergedIterates(KGraphError):
    """Newton iterates left the admissible range (sup|u| too large)."""


class ContinuationStalled(KGraphError):
    """Continuation step size fell below the minimum before reaching sigma = 1.

    Carries the last good sigma and, from `solve_dirichlet`, a partial
    report with the hypothesis verdict.  Stalling past the sufficient
    solvability condition is expected behavior, not a bug.
    """

    def __init__(self, message, sigma=0.0, report=None):
        super().__init__(message)
        self.sigma = sigma
        self.report = report


class CertificateFailed(KGraphError):
    """A barrier certificate could not be established.

    Carries the violating node index and coordinates when available.
    """

    def __init__(self, message, node=None, point=None):
        super().__init__(message)
        self.node = node
        self.point = point


class TubularWidthExceeded(KGraphError):
    """Requested normal-flow depth exceeds the certified tubular band."""


class MinPrincipleViolated(CertificateFailed):
    """Angle function attained its minimum away from the boundary band."""
