"""Exception hierarchy shared across the toolkit."""


class CForbitsError(Exception):
    """Base class for all toolkit errors."""


class DomainError(CForbitsError, ValueError):
    """Phase state outside the admissible domain (|x| = 0, momentum out of range)."""


class DegenerateMomentumError(DomainError):
    """Hessian requested at p = A(t, x), where the radial kinetic Hessian is singular."""


class UnsupportedConfigurationError(CForbitsError, ValueError):
    """Perturbation family incompatible with the spatial dimension."""


class IntegrationError(CForbitsError, RuntimeError):
    """An integration ended before its final time (the step size fell below
    the spacing of the floats, or a collision)."""


class CollisionError(IntegrationError):
    """Trajectory fell below the collision floor on |x|."""


class NoBoundOrbitError(CForbitsError, ValueError):
    """The radial admissibility function has no positive region (zero or one root)."""


class CircularDegenerateError(CForbitsError, ValueError):
    """Turning points collapse to a double root (circular orbit)."""


class QuadratureError(CForbitsError, RuntimeError):
    """Radial quadrature failed to converge to the requested accuracy."""


class TargetOutOfRangeError(CForbitsError, ValueError):
    """Requested apsidal angle outside the attainable range.

    Carries the scanned interval in ``phi_range``.
    """

    def __init__(self, message, phi_range=None):
        super().__init__(message)
        self.phi_range = phi_range


class RootFindError(CForbitsError, RuntimeError):
    """1-D root finding stagnated."""


class UnreliableVerdictError(CForbitsError, RuntimeError):
    """A rank verdict was requested from a matrix with a poor spectral gap
    or an unacceptable symplectic residual."""


class RouteDisagreementError(CForbitsError, RuntimeError):
    """Actions-route and monodromy-route verdicts disagree."""
