"""Action-angle route to non-degeneracy of the planar unperturbed problem.

The radial profile at a chart point (h, L) carries all the action-angle
data the route reads: the actions (I1, I2) = (action, L), the frequencies
(2 pi/tau, 2 phi/tau), and the chart (h, L) -> (I1, I2), whose Jacobian has
the closed row (0, 1) and dI1/dh = tau/(2 pi), dI1/dL = -phi/pi.  So the
Hessian of the Hamiltonian in action variables is the derivative of the
frequency map through that chart, and the derivative of (tau, phi) in
(h, L) comes from the same quadrature at complex points
(``orbit.radial_jacobian``), with no step to tune.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import KineticLaw, Potential
# turning_points stays bound here: perfbench's tracer test looks it up on
# this module
from .orbit import (  # noqa: F401
    RadialProfile,
    radial_jacobian,
    radial_profile,
    turning_points,
)

__all__ = [
    "NondegReport",
    "DET_THRESHOLD",
    "frequencies",
    "k0_hessian",
    "nondeg_fixed_period",
    "nondeg_fixed_energy",
]

DET_THRESHOLD = 1e-3


def frequencies(profile: RadialProfile):
    """(radial, angular) frequency pair of a radial profile."""
    return 2.0 * math.pi / profile.tau, 2.0 * profile.phi / profile.tau


@dataclass(frozen=True)
class NondegReport:
    """Hessian and gradient of the action-variable Hamiltonian at a radial
    profile, with both non-degeneracy determinants and their scale-normalized
    forms."""

    profile: RadialProfile
    hessian: np.ndarray  # 2x2, as assembled: symmetric up to quadrature error
    gradient: np.ndarray  # frequencies(profile)
    symmetry_defect: float  # |hessian[0, 1] - hessian[1, 0]|
    det_fixed_period: float
    det_fixed_energy: float
    scale_fixed_period: float  # |det| / ||hessian||_F^2
    scale_fixed_energy: float  # |det3| / (||hessian||_F * |grad|^2)


def k0_hessian(law: KineticLaw, V: Potential, h: float, L: float, *,
               profile: RadialProfile | None = None) -> NondegReport:
    """Hessian of the action-variable Hamiltonian at (h, L): the derivative
    of the frequency map (2 pi/tau, 2 phi/tau) through the (h, L) chart,
    with d(tau, phi)/d(h, L) by complex step.  ``profile`` is the radial
    profile at (h, L) when the caller holds it (a found orbit's
    ``profile``); else it is computed here."""
    p = radial_profile(law, V, h, L) if profile is None else profile
    # d(omega)/d(tau, phi) times d(tau, phi)/d(h, L)
    Domega = np.array([[-2.0 * math.pi / p.tau**2, 0.0],
                       [-2.0 * p.phi / p.tau**2, 2.0 / p.tau]]
                      ) @ radial_jacobian(law, V, p)
    # the chart Jacobian d(I1, I2)/d(h, L): det tau/(2 pi), never zero
    DI = np.array([[p.tau / (2.0 * math.pi), -p.phi / math.pi], [0.0, 1.0]])
    H = Domega @ np.linalg.inv(DI)
    defect = float(abs(H[0, 1] - H[1, 0]))
    grad = np.array(frequencies(p))
    det2 = float(np.linalg.det(H))
    B = np.zeros((3, 3))
    B[:2, :2] = H
    B[:2, 2] = grad
    B[2, :2] = grad
    det3 = float(np.linalg.det(B))
    nH = float(np.linalg.norm(H))
    ng = float(np.linalg.norm(grad))
    # a Hessian below this floor is indistinguishable from quadrature noise
    # on a linear K0 (harmonic case); self-normalizing noise would report O(1)
    flat_floor = 1e-6 * ng / max(abs(p.action), abs(p.L), 1e-12)
    if nH <= flat_floor:
        scale2 = 0.0
        scale3 = 0.0
    else:
        scale2 = abs(det2) / nH**2
        scale3 = abs(det3) / (nH * ng**2)
    return NondegReport(
        profile=p, hessian=H, gradient=grad, symmetry_defect=defect,
        det_fixed_period=det2, det_fixed_energy=det3,
        scale_fixed_period=scale2, scale_fixed_energy=scale3,
    )


def nondeg_fixed_period(report: NondegReport) -> str:
    """Verdict on the fixed-period non-degeneracy determinant."""
    return ("nondegenerate" if report.scale_fixed_period > DET_THRESHOLD
            else "degenerate")


def nondeg_fixed_energy(report: NondegReport) -> str:
    """Verdict on the bordered (isoenergetic) determinant."""
    return ("nondegenerate" if report.scale_fixed_energy > DET_THRESHOLD
            else "degenerate")
