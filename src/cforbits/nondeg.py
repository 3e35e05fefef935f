"""Monodromy route to non-degeneracy: kernel dimensions of I - P for the
fixed-period problems and of the augmented flow-direction matrix for the
fixed-energy problems, plus cross-checks against the action-angle route.

A planar orbit's manifold of rotated/time-shifted copies is 2-dimensional;
the spatial manifold (rotations in O(3) plus shifts) is 4-dimensional.
Non-degeneracy means the linearization sees exactly those dimensions and
nothing more.

Every monodromy comes from one variational solve over half a radial
period.  The unperturbed flow commutes with rotations and a k:n orbit
returns to its apogee rotated by 2 pi k/n after each radial period tau, so
with W = W(tau) and Q the rotation by -2 pi k/n of both x and p, the planar
monodromy is P = (Q W)^n.  W itself comes from the solve over [0, tau/2]:
the flow is reversible under the time reversal R about every apsis line
(Devaney, Trans. AMS 218 (1976); Lamb & Roberts, Physica D 112 (1998)),
and the apogee z0 lies on the fixed set of R_0, so the radial period is
the half from apogee to perigee followed by its mirror image.  tau/2 is
off the true perigee time by the quadrature error of tau, which the
perigee shear would amplify, so one Newton step on x.p = 0 first moves the
half to the perigee, and a step of the same size moves the mirrored
period back to tau (``_rotated_cycle_power``).  Rotating the orbit plane
gives two T-periodic solutions and the coupling blocks vanish at
x3 = p3 = 0, so the spatial monodromy of the embedded orbit is P + I_2
(direct sum).
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
from .flow import DEFAULT_TOL, integrate_with_variational, \
    symplectic_matrix, symplectic_residual
from .model import HamiltonianSystem, Perturbation
from .orbit import PeriodicOrbit, apogee_state, reflect_apsis, rotate_plane

__all__ = [
    "KernelReport",
    "ConsistencyReport",
    "RANK_TOL",
    "MIN_GAP",
    "kernel_dimension",
    "cross_check",
]

RANK_TOL = 1e-6
MIN_GAP = 10.0
MAX_SYMPLECTIC_RESIDUAL = 1e-6
# |delta| ||A|| above which the second-order term (delta ||A||)^2 / 2 that a
# first-order step of length delta neglects exceeds the integration
# tolerance: derived from DEFAULT_TOL, not a setting of its own
MAX_PERIGEE_STEP = math.sqrt(2.0 * DEFAULT_TOL)


def kernel_dimension(M):
    """Numerical kernel dimension of a square matrix by SVD thresholding at
    ``RANK_TOL``.

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
    cut = RANK_TOL * max(smax, 1.0)
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
class KernelReport:
    """Kernel of one linearization of the orbit at its apogee.

    ``matrix`` is I - P for the fixed-period problem, and the bordered
    matrix [[I - P, z'], [grad H^T, 0]] for the fixed-energy one, with z'
    the flow direction.  ``radial_defect`` is |z(tau) - Rot(2 pi k/n) z0|
    at the end of the one radial period the monodromy P was built from,
    with z(tau) the apogee's mirror image about the perigee, stepped by
    the perigee-time correction."""

    P: np.ndarray
    matrix: np.ndarray
    singular_values: np.ndarray  # of matrix
    kernel_dim: int
    gap: float
    symplectic_residual: float
    radial_defect: float
    expected_dim: int
    verdict: str


_PLANE = [0, 1, 3, 4]  # x1, x2, p1, p2 inside (x1, x2, x3, p1, p2, p3)


def _rotated_cycle_power(sys: HamiltonianSystem, z0, tau: float,
                         angle: float, n: int):
    """(Rot(-angle) W(tau))^n for the flow of the unperturbed system sys
    from the apogee z0, with Rot acting on both x and p, and the defect
    |z(tau) - Rot(angle) z0|.

    When z(tau) = Rot(angle) z0, rotation equivariance of the flow makes the
    fundamental matrix at n tau equal to Rot(n angle) times the power.

    Only [0, tau/2] is integrated.  One Newton step on x.p = 0, of length
    delta, moves z and W from tau/2 to the perigee time t_p = tau/2 + delta
    to first order.  z(t_p) lies on the fixed set of the apsis reversal R
    at its polar angle, and z0 on that of R_0, so the flow's reversibility
    gives W(2 t_p) = R W(t_p)^-1 R W(t_p) and z(2 t_p) = R z0.  A step of
    -2 delta, again to first order, ends at tau.  ``UnreliableVerdictError``
    when |delta| ||A(z(tau/2))||_2 passes ``MAX_PERIGEE_STEP``."""
    z, W = integrate_with_variational(sys, z0, 0.0, 0.5 * tau)
    d = sys.dim
    f = sys.vector_field(0.0, z)
    # d/dt (x.p) = x'.p + x.p'
    delta = -(z[:d] @ z[d:]) / (f[:d] @ z[d:] + z[:d] @ f[d:])
    # A = J^T Hess, the matrix of the variational equation W' = A W
    JT = symplectic_matrix(d).T
    A = JT @ sys.hessian(0.0, z)
    step = abs(delta) * np.linalg.norm(A, 2)
    if step > MAX_PERIGEE_STEP:
        raise UnreliableVerdictError(
            f"tau/2 is {delta:.3g} off the perigee: the first-order step "
            f"|delta| ||A|| = {step:.3g} passes {MAX_PERIGEE_STEP:.3g}")
    z = z + delta * f
    W = W + delta * (A @ W)
    # the rows of reflect_apsis(I, a) are the columns of R
    R = reflect_apsis(np.eye(2 * d), math.atan2(z[1], z[0])).T
    W = R @ np.linalg.solve(W, R @ W)
    z = R @ z0
    eps = -2.0 * delta
    W = W + eps * (JT @ sys.hessian(0.0, z) @ W)
    z = z + eps * sys.vector_field(0.0, z)
    defect = float(np.linalg.norm(z - rotate_plane(z0, angle)))
    # Rot(-angle) W(tau), the columns of W turned back by angle
    QtW = rotate_plane(W.T, -angle).T
    return np.linalg.matrix_power(QtW, n), defect


def _guard_quality(symp_res: float, gap: float, what: str):
    if symp_res > MAX_SYMPLECTIC_RESIDUAL:
        raise UnreliableVerdictError(
            f"{what}: symplectic residual {symp_res:.3g} above "
            f"{MAX_SYMPLECTIC_RESIDUAL:g}; verdict rejected")
    if gap < MIN_GAP:
        raise UnreliableVerdictError(
            f"{what}: singular-value gap {gap:.3g} below {MIN_GAP:g}; "
            f"rank decision unreliable")


def _reports(sys: HamiltonianSystem, z0, P, defect: float):
    """(fixed-period, fixed-energy) KernelReport of the monodromy P of the
    unperturbed system sys at z0; each is nondegenerate iff its kernel has
    the manifold dimension (2 planar, 4 spatial)."""
    dim = sys.dim
    n = 2 * dim
    expected = 2 if dim == 2 else 4
    symp = symplectic_residual(P)
    I_P = np.eye(n) - P
    v = sys.vector_field(0.0, z0)
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = I_P
    A[:n, n] = v
    # z' = -J grad H and J^2 = -I, so grad H = J z'
    A[n, :n] = symplectic_matrix(dim) @ v
    reports = []
    for M, what in ((I_P, "fixed-period"), (A, "fixed-energy")):
        kd, gap, sv = kernel_dimension(M)
        _guard_quality(symp, gap, f"{what} d={dim}")
        reports.append(KernelReport(
            P=P, matrix=M, singular_values=sv, kernel_dim=kd, gap=gap,
            symplectic_residual=symp, radial_defect=defect,
            expected_dim=expected,
            verdict="nondegenerate" if kd == expected else "degenerate"))
    return tuple(reports)


@dataclass(frozen=True)
class ConsistencyReport:
    """Verdict agreement between the determinant and monodromy routes."""

    actions: NondegReport
    planar_fp: KernelReport
    planar_fe: KernelReport
    spatial_fp: KernelReport
    spatial_fe: KernelReport
    fixed_period_verdict: str
    fixed_energy_verdict: str


def cross_check(orbit: PeriodicOrbit) -> ConsistencyReport:
    """Run both routes on both problems, planar and spatial, and demand
    verdict agreement."""
    rep = k0_hessian(orbit.law, orbit.potential, orbit.profile.h,
                     orbit.profile.L, profile=orbit.profile)
    det_fp = nondeg_fixed_period(rep)
    det_fe = nondeg_fixed_energy(rep)
    # one half-radial-period solve serves both problems in both dimensions
    law, V, profile = orbit.law, orbit.potential, orbit.profile
    sys2 = HamiltonianSystem(law, V, Perturbation.zero(), 2)
    z0 = apogee_state(profile, 2)
    P, defect = _rotated_cycle_power(sys2, z0, profile.tau,
                                     2.0 * math.pi * orbit.k / orbit.n,
                                     orbit.n)
    P3 = np.eye(6)
    P3[np.ix_(_PLANE, _PLANE)] = P
    sys3 = HamiltonianSystem(law, V, Perturbation.zero(), 3)
    pl_fp, pl_fe = _reports(sys2, z0, P, defect)
    sp_fp, sp_fe = _reports(sys3, apogee_state(profile, 3), P3, defect)
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
