"""Numerical toolkit for periodic orbits of generalized central force
problems: closed-orbit construction, KAM-style non-degeneracy verdicts by
two independent routes, and continuation into electromagnetically perturbed
periodic solutions.
"""

from .errors import (
    CForbitsError,
    CircularDegenerateError,
    CollisionError,
    DegenerateMomentumError,
    DomainError,
    IntegrationError,
    NoBoundOrbitError,
    QuadratureError,
    RootFindError,
    RouteDisagreementError,
    TargetOutOfRangeError,
    UnreliableVerdictError,
    UnsupportedConfigurationError,
)
from .model import (
    HamiltonianSystem,
    KineticLaw,
    Perturbation,
    Potential,
    reversor,
)
from .flow import (
    Trajectory,
    integrate,
    integrate_with_variational,
    symplectic_matrix,
)
from .orbit import (
    ManifoldSample,
    PeriodicOrbit,
    RadialProfile,
    find_closed_orbit,
    manifold_samples,
    radial_profile,
    turning_points,
)
from .actions import (
    NondegReport,
    frequencies,
    k0_hessian,
    nondeg_fixed_energy,
    nondeg_fixed_period,
)
from .nondeg import (
    ConsistencyReport,
    KernelReport,
    cross_check,
    kernel_dimension,
)
from .continuation import (
    ContinuationResult,
    ShootingProblem,
    continue_fixed_energy,
    continue_fixed_period,
    distance_to_manifold,
    distinct_results,
    multistart,
)

__version__ = "0.1.0"
