"""Monodromy route to non-degeneracy: kernel dimensions of I - P for the
fixed-period problems and of the augmented flow-direction matrix for the
fixed-energy problems, plus cross-checks against the action-angle route.

A planar orbit's manifold of rotated/time-shifted copies is 2-dimensional;
the spatial manifold (rotations in O(3) plus shifts) is 4-dimensional.
Non-degeneracy means the linearization sees exactly those dimensions and
nothing more.

Every monodromy comes from one variational solve over one radial period
tau = T/n.  The unperturbed flow commutes with rotations and a k:n orbit
returns to its apogee rotated by 2 pi k/n after each radial period, so with
W = W(tau) and Q the rotation by -2 pi k/n of both x and p, the planar
monodromy is P = (Q W)^n.  Rotating the orbit plane gives two T-periodic
solutions and the coupling blocks vanish at x3 = p3 = 0, so the spatial
monodromy of the embedded orbit is P + I_2 (direct sum).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .actions import (
    NondegReport,
    k0_hessian,
    nondeg_fixed_energy,
    nondeg_fixed_period,
)
from .errors import RouteDisagreementError, UnreliableVerdictError
from .flow import integrate_with_variational, symplectic_matrix, \
    symplectic_residual
from .model import HamiltonianSystem, KineticLaw, Perturbation, Potential
from .orbit import PeriodicOrbit, apogee_state, rotate_plane

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
    """Fixed-period linearization data along one closure period.

    ``radial_defect`` is |z(tau) - Rot(2 pi k/n) z0| at the end of the one
    radial period the monodromy was built from."""

    P: np.ndarray
    singular_values: np.ndarray  # of I - P
    kernel_dim: int
    gap: float
    eigenvalues: np.ndarray  # Floquet multipliers
    symplectic_residual: float
    radial_defect: float
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
    radial_defect: float
    expected_dim: int
    verdict: str


@dataclass(frozen=True)
class _Linearization:
    """Unperturbed system, apogee state and monodromy in one dimension."""

    sys: HamiltonianSystem
    z0: np.ndarray
    P: np.ndarray
    symplectic_residual: float
    radial_defect: float


_PLANE = [0, 1, 3, 4]  # x1, x2, p1, p2 inside (x1, x2, x3, p1, p2, p3)


def _rotated_cycle_power(sys: HamiltonianSystem, z0, tau: float,
                         angle: float, n: int, tol: float):
    """(Rot(-angle) W(tau))^n for the planar flow from z0, with Rot acting on
    both x and p, and the defect |z(tau) - Rot(angle) z0|.

    When z(tau) = Rot(angle) z0, rotation equivariance of the flow makes the
    fundamental matrix at n tau equal to Rot(n angle) times the power."""
    z_tau, fm = integrate_with_variational(sys, z0, 0.0, tau, tol=tol)
    defect = float(np.linalg.norm(z_tau - rotate_plane(z0, angle)))
    # Rot(-angle) W(tau), the columns of W turned back by angle
    QtW = rotate_plane(fm.value.T, -angle).T
    return np.linalg.matrix_power(QtW, n), defect


def _linearizations(orbit: PeriodicOrbit, tol: float):
    """Planar and spatial _Linearization, both from one variational solve
    over one radial period of the planar orbit."""
    law, V, profile = orbit.law, orbit.potential, orbit.profile
    sys2 = HamiltonianSystem(law, V, Perturbation.zero(), 2)
    z0 = apogee_state(profile, 2)
    P, defect = _rotated_cycle_power(sys2, z0, profile.tau,
                                     2.0 * math.pi * orbit.k / orbit.n,
                                     orbit.n, tol)
    P3 = np.eye(6)
    P3[np.ix_(_PLANE, _PLANE)] = P
    sys3 = HamiltonianSystem(law, V, Perturbation.zero(), 3)
    return (_Linearization(sys2, z0, P, symplectic_residual(P), defect),
            _Linearization(sys3, apogee_state(profile, 3), P3,
                           symplectic_residual(P3), defect))


def _require_dim(orbit: PeriodicOrbit, dim: int):
    if dim not in (2, 3) or dim < orbit.dim:
        raise ValueError(
            f"cannot run a d={dim} check on a d={orbit.dim} orbit")


def _guard_quality(symp_res: float, gap: float, what: str):
    if symp_res > MAX_SYMPLECTIC_RESIDUAL:
        raise UnreliableVerdictError(
            f"{what}: symplectic residual {symp_res:.3g} above "
            f"{MAX_SYMPLECTIC_RESIDUAL:g}; verdict rejected")
    if gap < MIN_GAP:
        raise UnreliableVerdictError(
            f"{what}: singular-value gap {gap:.3g} below {MIN_GAP:g}; "
            f"rank decision unreliable")


def _fixed_period_report(lin: _Linearization,
                         rank_tol: float) -> MonodromyReport:
    dim = lin.sys.dim
    P = lin.P
    kd, gap, sv = kernel_dimension(np.eye(2 * dim) - P, rank_tol)
    expected = 2 if dim == 2 else 4
    _guard_quality(lin.symplectic_residual, gap, f"fixed-period d={dim}")
    verdict = "nondegenerate" if kd == expected else "degenerate"
    return MonodromyReport(
        P=P, singular_values=sv, kernel_dim=kd, gap=gap,
        eigenvalues=np.linalg.eigvals(P),
        symplectic_residual=lin.symplectic_residual,
        radial_defect=lin.radial_defect, expected_dim=expected,
        verdict=verdict,
    )


def _fixed_energy_report(lin: _Linearization,
                         rank_tol: float) -> FixedEnergyKernelReport:
    dim = lin.sys.dim
    n = 2 * dim
    J = symplectic_matrix(dim)
    gradH = _grad_hamiltonian(lin.sys, lin.z0)
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = np.eye(n) - lin.P
    A[:n, n] = -(J @ gradH)
    A[n, :n] = gradH
    kd, gap, sv = kernel_dimension(A, rank_tol)
    expected = 2 if dim == 2 else 4
    _guard_quality(lin.symplectic_residual, gap, f"fixed-energy d={dim}")
    verdict = "nondegenerate" if kd == expected else "degenerate"
    return FixedEnergyKernelReport(
        augmented_matrix=A, singular_values=sv, dim_F=kd, gap=gap,
        symplectic_residual=lin.symplectic_residual,
        radial_defect=lin.radial_defect, expected_dim=expected,
        verdict=verdict,
    )


def check_planar_fixed_period(orbit: PeriodicOrbit, rank_tol: float = RANK_TOL,
                              tol: float = 1e-12) -> MonodromyReport:
    """Kernel of I - P for the 4x4 planar monodromy; nondegenerate iff 2."""
    _require_dim(orbit, 2)
    return _fixed_period_report(_linearizations(orbit, tol)[0], rank_tol)


def check_spatial_fixed_period(orbit: PeriodicOrbit, rank_tol: float = RANK_TOL,
                               tol: float = 1e-12) -> MonodromyReport:
    """Kernel of I - P for the 6x6 spatial monodromy of the embedded orbit;
    nondegenerate iff 4."""
    return _fixed_period_report(_linearizations(orbit, tol)[1], rank_tol)


def check_fixed_energy(orbit: PeriodicOrbit, dim: int = 2,
                       rank_tol: float = RANK_TOL,
                       tol: float = 1e-12) -> FixedEnergyKernelReport:
    """Kernel of the augmented matrix coupling I - P with the flow direction
    and the energy tangency constraint; nondegenerate iff the kernel has the
    manifold dimension (2 planar, 4 spatial)."""
    _require_dim(orbit, dim)
    return _fixed_energy_report(_linearizations(orbit, tol)[dim - 2],
                                rank_tol)


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
    # one radial-period solve serves both problems in both dimensions
    reports = []
    for lin in _linearizations(orbit, tol):
        reports += [_fixed_period_report(lin, rank_tol),
                    _fixed_energy_report(lin, rank_tol)]
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
