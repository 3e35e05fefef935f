"""Action-angle route to non-degeneracy of the planar unperturbed problem.

The radial profile at a chart point (h, L) carries all the action-angle
data the route reads: the actions (I1, I2) = (action, L), the frequencies
(2 pi/tau, 2 phi/tau), and the chart (h, L) -> (I1, I2), whose Jacobian has
the closed row (0, 1) and dI1/dh = tau/(2 pi), dI1/dL = -phi/pi.  So the
Hessian of the Hamiltonian in action variables is assembled from finite
differences of the frequency map alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChartSingularityError
from .model import KineticLaw, Potential
# turning_points stays bound here: perfbench's tracer test looks it up on
# this module
from .orbit import RadialProfile, radial_profile, turning_points  # noqa: F401

__all__ = [
    "NondegReport",
    "DET_THRESHOLD",
    "FD_STEP",
    "frequencies",
    "k0_hessian",
    "nondeg_fixed_period",
    "nondeg_fixed_energy",
]

DET_THRESHOLD = 1e-3
# relative finite-difference step of the frequency map in h and in L
FD_STEP = 1e-5


def frequencies(profile: RadialProfile):
    """(radial, angular) frequency pair of a radial profile."""
    return 2.0 * math.pi / profile.tau, 2.0 * profile.phi / profile.tau


@dataclass(frozen=True)
class NondegReport:
    """Hessian and gradient of the action-variable Hamiltonian at a radial
    profile, with both non-degeneracy determinants and their scale-normalized
    forms."""

    profile: RadialProfile
    hessian: np.ndarray  # 2x2, symmetrized
    gradient: np.ndarray  # frequencies(profile)
    symmetry_defect: float
    det_fixed_period: float
    det_fixed_energy: float
    scale_fixed_period: float  # |det| / ||hessian||_F^2
    scale_fixed_energy: float  # |det3| / (||hessian||_F * |grad|^2)


def _omega(law, V, h, L):
    return np.array(frequencies(radial_profile(law, V, h, L)))


def k0_hessian(law: KineticLaw, V: Potential, h: float, L: float, *,
               profile: RadialProfile | None = None) -> NondegReport:
    """Hessian of the action-variable Hamiltonian at (h, L) by central
    differences of the frequency map through the (h, L) chart.  ``profile``
    is the radial profile at (h, L) when the caller holds it (a found
    orbit's ``profile``); else it is computed here."""
    p = radial_profile(law, V, h, L) if profile is None else profile
    dh = FD_STEP * (1.0 + abs(h))
    dL = FD_STEP * (1.0 + abs(L))
    dom_dh = (_omega(law, V, h + dh, L) - _omega(law, V, h - dh, L)) / (2.0 * dh)
    dom_dL = (_omega(law, V, h, L + dL) - _omega(law, V, h, L - dL)) / (2.0 * dL)
    Domega = np.column_stack([dom_dh, dom_dL])
    # the chart Jacobian d(I1, I2)/d(h, L)
    DI = np.array([[p.tau / (2.0 * math.pi), -p.phi / math.pi], [0.0, 1.0]])
    if abs(np.linalg.det(DI)) < 1e-12:
        raise ChartSingularityError(
            f"chart Jacobian singular at (h, L) = ({h:g}, {L:g})")
    H = Domega @ np.linalg.inv(DI)
    defect = float(abs(H[0, 1] - H[1, 0]))
    H = 0.5 * (H + H.T)
    grad = np.array(frequencies(p))
    det2 = float(np.linalg.det(H))
    B = np.zeros((3, 3))
    B[:2, :2] = H
    B[:2, 2] = grad
    B[2, :2] = grad
    det3 = float(np.linalg.det(B))
    nH = float(np.linalg.norm(H))
    ng = float(np.linalg.norm(grad))
    # a Hessian below this floor is indistinguishable from fd noise on a
    # linear K0 (harmonic case); self-normalizing noise would report O(1)
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
