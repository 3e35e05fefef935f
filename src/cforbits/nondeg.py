"""Monodromy route to non-degeneracy: kernel dimensions of I - P for the
fixed-period problems and of the augmented flow-direction matrix for the
fixed-energy problems, plus cross-checks against the action-angle route.

A planar orbit's manifold of rotated/time-shifted copies is 2-dimensional;
the spatial manifold (rotations in O(3) plus shifts) is 4-dimensional.
Non-degeneracy means the linearization sees exactly those dimensions and
nothing more.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actions import (
    NondegReport,
    k0_hessian,
    nondeg_fixed_energy,
    nondeg_fixed_period,
)
from .errors import RouteDisagreementError, UnreliableVerdictError
from .flow import integrate_with_variational, symplectic_matrix
from .model import HamiltonianSystem, KineticLaw, Perturbation, Potential
from .orbit import PeriodicOrbit, apogee_state

__all__ = [
    "MonodromyReport",
    "FixedEnergyKernelReport",
    "ConsistencyReport",
    "RANK_TOL",
    "MIN_GAP",
    "kernel_dimension",
    "check_planar_fixed_period",
    "check_spatial_fixed_period",
    "check_fixed_energy",
    "cross_check",
]

RANK_TOL = 1e-6
MIN_GAP = 10.0
MAX_SYMPLECTIC_RESIDUAL = 1e-6


def kernel_dimension(M, rank_tol: float = RANK_TOL):
    """Numerical kernel dimension of a square matrix by SVD thresholding.

    Returns (dim, gap, singular_values); gap is the ratio of the smallest
    kept to the largest cut singular value, the audit margin of the rank
    decision.  gap < 10 makes the verdict unreliable.
    """
    M = np.asarray(M, dtype=float)
    sv = np.linalg.svd(M, compute_uv=False)
    smax = sv[0]
    if smax == 0.0:
        return M.shape[0], np.inf, sv
    # absolute floor keeps the all-zero case (I - P with P = I exactly, as
    # for the harmonic oscillator) from passing its own noise as rank
    cut = rank_tol * max(smax, 1.0)
    dim = int(np.count_nonzero(sv < cut))
    if dim == 0:
        return 0, np.inf, sv
    if dim == len(sv):
        return dim, np.inf, sv
    last_kept = sv[len(sv) - dim - 1]   # smallest sv treated as nonzero
    first_cut = sv[len(sv) - dim]       # largest sv treated as zero
    gap = float(last_kept / max(first_cut, 1e-300))
    return dim, gap, sv


@dataclass(frozen=True)
class MonodromyReport:
    """Fixed-period linearization data along one closure period."""

    P: np.ndarray
    singular_values: np.ndarray  # of I - P
    kernel_dim: int
    gap: float
    eigenvalues: np.ndarray  # Floquet multipliers
    symplectic_residual: float
    expected_dim: int
    verdict: str


@dataclass(frozen=True)
class FixedEnergyKernelReport:
    """Kernel data of the augmented matrix [[I-P, -J grad H], [grad H^T, 0]]."""

    augmented_matrix: np.ndarray
    singular_values: np.ndarray
    dim_F: int
    gap: float
    symplectic_residual: float
    expected_dim: int
    verdict: str


def _monodromy_of(orbit: PeriodicOrbit, dim: int, tol: float):
    if dim == orbit.dim:
        sys = orbit.system
        z0 = orbit.z0
    elif dim == 3 and orbit.dim == 2:
        # embed the planar orbit in the x3 = p3 = 0 plane
        sys = HamiltonianSystem(orbit.law, orbit.potential,
                                Perturbation.zero(), 3)
        z0 = apogee_state(orbit.profile, 3)
    else:
        raise ValueError(f"cannot run a d={dim} check on a d={orbit.dim} orbit")
    _, fm = integrate_with_variational(sys, z0, 0.0, orbit.T, tol=tol)
    return sys, z0, fm


def _guard_quality(symp_res: float, gap: float, what: str):
    if symp_res > MAX_SYMPLECTIC_RESIDUAL:
        raise UnreliableVerdictError(
            f"{what}: symplectic residual {symp_res:.3g} above "
            f"{MAX_SYMPLECTIC_RESIDUAL:g}; verdict rejected")
    if gap < MIN_GAP:
        raise UnreliableVerdictError(
            f"{what}: singular-value gap {gap:.3g} below {MIN_GAP:g}; "
            f"rank decision unreliable")


def _fixed_period_report(sys: HamiltonianSystem, fm,
                         rank_tol: float) -> MonodromyReport:
    dim = sys.dim
    P = fm.value
    M = np.eye(2 * dim) - P
    kd, gap, sv = kernel_dimension(M, rank_tol)
    expected = 2 if dim == 2 else 4
    _guard_quality(fm.symplectic_residual, gap, f"fixed-period d={dim}")
    verdict = "nondegenerate" if kd == expected else "degenerate"
    return MonodromyReport(
        P=P, singular_values=sv, kernel_dim=kd, gap=gap,
        eigenvalues=np.linalg.eigvals(P),
        symplectic_residual=fm.symplectic_residual,
        expected_dim=expected, verdict=verdict,
    )


def _fixed_energy_report(sys: HamiltonianSystem, z0, fm,
                         rank_tol: float) -> FixedEnergyKernelReport:
    dim = sys.dim
    P = fm.value
    n = 2 * dim
    J = symplectic_matrix(dim)
    gradH = _grad_hamiltonian(sys, z0)
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = np.eye(n) - P
    A[:n, n] = -(J @ gradH)
    A[n, :n] = gradH
    kd, gap, sv = kernel_dimension(A, rank_tol)
    expected = 2 if dim == 2 else 4
    _guard_quality(fm.symplectic_residual, gap, f"fixed-energy d={dim}")
    verdict = "nondegenerate" if kd == expected else "degenerate"
    return FixedEnergyKernelReport(
        augmented_matrix=A, singular_values=sv, dim_F=kd, gap=gap,
        symplectic_residual=fm.symplectic_residual,
        expected_dim=expected, verdict=verdict,
    )


def check_planar_fixed_period(orbit: PeriodicOrbit, rank_tol: float = RANK_TOL,
                              tol: float = 1e-12) -> MonodromyReport:
    """Kernel of I - P for the 4x4 planar monodromy; nondegenerate iff 2."""
    if orbit.dim != 2:
        raise ValueError("planar check needs a d=2 orbit")
    sys, _, fm = _monodromy_of(orbit, 2, tol)
    return _fixed_period_report(sys, fm, rank_tol)


def check_spatial_fixed_period(orbit: PeriodicOrbit, rank_tol: float = RANK_TOL,
                               tol: float = 1e-12) -> MonodromyReport:
    """Kernel of I - P for the 6x6 spatial monodromy of the embedded orbit;
    nondegenerate iff 4."""
    sys, _, fm = _monodromy_of(orbit, 3, tol)
    return _fixed_period_report(sys, fm, rank_tol)


def check_fixed_energy(orbit: PeriodicOrbit, dim: int = 2,
                       rank_tol: float = RANK_TOL,
                       tol: float = 1e-12) -> FixedEnergyKernelReport:
    """Kernel of the augmented matrix coupling I - P with the flow direction
    and the energy tangency constraint; nondegenerate iff the kernel has the
    manifold dimension (2 planar, 4 spatial)."""
    return _fixed_energy_report(*_monodromy_of(orbit, dim, tol), rank_tol)


def _grad_hamiltonian(sys: HamiltonianSystem, z0):
    z0 = np.asarray(z0, dtype=float)
    # z' = -J grad H and J^2 = -I, so grad H = J z'
    J = symplectic_matrix(sys.dim)
    return J @ sys.vector_field(0.0, z0)


@dataclass(frozen=True)
class ConsistencyReport:
    """Verdict agreement between the determinant and monodromy routes."""

    actions: NondegReport
    planar_fp: MonodromyReport
    planar_fe: FixedEnergyKernelReport
    spatial_fp: MonodromyReport
    spatial_fe: FixedEnergyKernelReport
    fixed_period_verdict: str
    fixed_energy_verdict: str


def cross_check(orbit: PeriodicOrbit, fd_step: float = 1e-5,
                rank_tol: float = RANK_TOL,
                tol: float = 1e-12) -> ConsistencyReport:
    """Run both routes on both problems and demand verdict agreement."""
    rep = k0_hessian(orbit.law, orbit.potential,
                     orbit.profile.h, orbit.profile.L, fd_step=fd_step)
    det_fp = nondeg_fixed_period(rep)
    det_fe = nondeg_fixed_energy(rep)
    # one monodromy per dimension serves both problems
    reports = []
    for dim in (2, 3):
        sys, z0, fm = _monodromy_of(orbit, dim, tol)
        reports += [_fixed_period_report(sys, fm, rank_tol),
                    _fixed_energy_report(sys, z0, fm, rank_tol)]
    pl_fp, pl_fe, sp_fp, sp_fe = reports
    pairs = [
        ("fixed-period planar", det_fp, pl_fp.verdict),
        ("fixed-period spatial", det_fp, sp_fp.verdict),
        ("fixed-energy planar", det_fe, pl_fe.verdict),
        ("fixed-energy spatial", det_fe, sp_fe.verdict),
    ]
    bad = [(w, a, m) for w, a, m in pairs if a != m]
    if bad:
        raise RouteDisagreementError(
            "route verdicts disagree: " + "; ".join(
                f"{w}: actions={a}, monodromy={m}" for w, a, m in bad),
            reports={"actions": rep, "planar_fp": pl_fp, "planar_fe": pl_fe,
                     "spatial_fp": sp_fp, "spatial_fe": sp_fe},
        )
    return ConsistencyReport(
        actions=rep, planar_fp=pl_fp, planar_fe=pl_fe,
        spatial_fp=sp_fp, spatial_fe=sp_fe,
        fixed_period_verdict=det_fp, fixed_energy_verdict=det_fe,
    )
