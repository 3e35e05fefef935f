"""Radial reduction of the planar unperturbed problem.

Turning points; radial period, apsidal angle and radial action from one
quadrature; closed non-circular orbits (k:n resonances) and sampling of the
manifolds of rotated/time-shifted copies of a periodic orbit.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .errors import (
    CircularDegenerateError,
    NoBoundOrbitError,
    QuadratureError,
    RootFindError,
    TargetOutOfRangeError,
)
from .flow import Trajectory, integrate
from .model import HamiltonianSystem, KineticLaw, Perturbation, Potential

__all__ = [
    "RadialProfile",
    "PeriodicOrbit",
    "ManifoldSample",
    "turning_points",
    "radial_profile",
    "find_closed_orbit",
    "manifold_samples",
]

log = logging.getLogger(__name__)

ECCENTRICITY_FLOOR = 1e-4
ANGULAR_MOMENTUM_FLOOR = 1e-6

# the radial scan grid of turning_points, built once
_SCAN = np.geomspace(1e-8, 1e6, 8000)
_SCAN.flags.writeable = False


@dataclass(frozen=True)
class RadialProfile:
    """Radial data of a bound non-circular planar orbit at (h, L)."""

    h: float
    L: float
    r_min: float
    r_max: float
    tau: float  # minimal period of |x|
    phi: float  # apsidal angle, r_min -> r_max
    action: float  # radial action (1/pi) * integral of p_r over [r_min, r_max]

    @property
    def eccentricity(self) -> float:
        return (self.r_max - self.r_min) / self.r_max


def _p2(law: KineticLaw, V: Potential, h: float, L: float, r):
    """Squared radial momentum G^{-1}(h+V)^2 - L^2/r^2, extended smoothly
    through h+V = 0 so root bracketing sees a sign change."""
    r = np.asarray(r, dtype=float)
    q = h + V.V(r)
    kin = 2.0 * law.m * q
    if law.kind == "relativistic":
        kin = kin + (q / law.c) ** 2
    return kin - L**2 / r**2


def turning_points(law: KineticLaw, V: Potential, h: float, L: float):
    """Bracket the two simple roots of the radial admissibility function on
    a fixed log grid over [1e-8, 1e6] and refine them to 1e-12 relative
    accuracy."""
    if L == 0.0:
        raise NoBoundOrbitError("rectilinear limit L = 0 is out of scope")
    rs = _SCAN
    vals = _p2(law, V, h, L, rs)
    pos = vals > 0.0
    if not pos.any():
        i = int(np.argmax(vals))
        lo = rs[max(i - 1, 0)]
        hi = rs[min(i + 1, len(rs) - 1)]
        res = minimize_scalar(lambda r: -_p2(law, V, h, L, r),
                              bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-14})
        if -res.fun > -1e-10 * (1.0 + abs(h)):
            raise CircularDegenerateError(
                f"double root near r = {res.x:.6g} (circular orbit)")
        raise NoBoundOrbitError(
            f"no bound annulus for h = {h:g}, L = {L:g}")
    idx = np.flatnonzero(pos)
    i0, i1 = idx[0], idx[-1]
    if i0 == 0 or i1 == len(rs) - 1:
        raise NoBoundOrbitError(
            "positive radial region touches the scan boundary (unbound or "
            "scan range too small)")
    if not pos[i0:i1 + 1].all():
        # multiple annuli: keep the one containing the global maximum
        j = int(np.argmax(vals))
        i0 = j
        while i0 > 0 and vals[i0 - 1] > 0.0:
            i0 -= 1
        i1 = j
        while i1 < len(rs) - 1 and vals[i1 + 1] > 0.0:
            i1 += 1
    f = lambda r: float(_p2(law, V, h, L, r))
    r_min = brentq(f, rs[i0 - 1], rs[i0], xtol=1e-15, rtol=8.9e-16)
    r_max = brentq(f, rs[i1], rs[i1 + 1], xtol=1e-15, rtol=8.9e-16)
    if r_max - r_min < 1e-10 * r_max:
        raise CircularDegenerateError(
            f"turning points coincide at r = {r_min:.6g}")
    mid = 0.5 * (r_min + r_max)
    if f(mid) <= 0.0:
        raise NoBoundOrbitError("admissibility function not positive between roots")
    return r_min, r_max


@lru_cache(maxsize=32)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _radial_integrals(law, V, h, L, r_min, r_max, n):
    """Half-cycle radial time, swept angle and action integral by
    Gauss-Legendre after the singularity-removing substitution
    r = mid + half*sin(u)."""
    nodes, weights = _leggauss(n)
    u = 0.5 * math.pi * nodes
    w = 0.5 * math.pi * weights
    mid = 0.5 * (r_min + r_max)
    half = 0.5 * (r_max - r_min)
    r = mid + half * np.sin(u)
    p2 = _p2(law, V, h, L, r)
    annulus = (r - r_min) * (r_max - r)
    S = p2 / annulus
    if np.any(S <= 0.0):
        raise QuadratureError("radial admissibility not positive at quadrature nodes")
    sqrtS = np.sqrt(S)
    q = h + V.V(r)
    pmag = law.G_inv(np.maximum(q, 0.0))
    gp = law.f_inv(pmag)  # G'(|p|)
    tau_half = float(np.sum(w * pmag / (gp * sqrtS)))
    phi = float(np.sum(w * L / (r**2 * sqrtS)))
    action = float(half**2 * np.sum(w * np.cos(u) ** 2 * sqrtS) / math.pi)
    return tau_half, phi, action


def _converged_integrals(law, V, h, L, r_min, r_max, rtol=5e-11):
    # endpoint cancellation in the admissibility function floors the
    # attainable accuracy around 1e-11 relative; rtol must sit above it
    prev = None
    for n in (80, 140, 240, 400, 640):
        cur = _radial_integrals(law, V, h, L, r_min, r_max, n)
        if prev is not None:
            err = max(abs(a - b) / (1.0 + abs(a)) for a, b in zip(cur, prev))
            if err <= rtol:
                return cur
        prev = cur
    raise QuadratureError(
        f"radial quadrature did not converge to {rtol:g} at (h, L) = ({h:g}, {L:g})")


def radial_profile(law: KineticLaw, V: Potential, h: float, L: float) -> RadialProfile:
    """Turning points plus radial period, apsidal angle and radial action at
    (h, L), all from one converged quadrature."""
    r_min, r_max = turning_points(law, V, h, L)
    tau_half, phi, action = _converged_integrals(law, V, h, L, r_min, r_max)
    return RadialProfile(h, L, r_min, r_max, 2.0 * tau_half, phi, action)


# --- closed orbits ---

@dataclass(frozen=True)
class PeriodicOrbit:
    """Closed non-circular orbit with apsidal angle k*pi/n and period n*tau.

    Starts at apogee on the positive x1-axis with L > 0; for dim 3 the orbit
    is embedded in the plane x3 = p3 = 0.  Only one radial cycle [0, tau] is
    integrated (``cycle``); the rest of the orbit is that cycle turned by
    multiples of 2 pi k/n, which is exact because the unperturbed flow
    commutes with rotations and z(tau) = Rot(2 pi k/n) z0.
    ``closure_residual`` is the defect |z(tau) - Rot(2 pi k/n) z0| of that
    cycle, equal to |z(T) - z0| of the composed orbit.
    """

    profile: RadialProfile
    k: int
    n: int
    T: float
    z0: np.ndarray
    cycle: Trajectory
    dim: int
    closure_residual: float
    law: KineticLaw
    potential: Potential

    @property
    def system(self) -> HamiltonianSystem:
        return HamiltonianSystem(self.law, self.potential,
                                 Perturbation.zero(), self.dim)

    def states(self, t):
        """Phase states at the times t (a scalar or an array), t reduced
        modulo the period: the radial cycle at t - j tau, turned by
        2 pi k j/n, where j = min(floor(t / tau), n - 1)."""
        t = np.mod(np.asarray(t, dtype=float), self.T)
        tau = self.profile.tau
        j = np.minimum(np.floor(t / tau), self.n - 1)
        return rotate_plane(self.cycle(t - j * tau),
                            2.0 * math.pi * self.k * j / self.n)

    def state_at(self, t: float):
        """Phase state at the time t, reduced modulo the period."""
        return self.states(float(t))


def rotate_plane(z, angle):
    """Rot(angle) acting on both x and p in the x1-x2 plane of the phase
    states z (last axis (x, p)); angle broadcasts against the leading axes.
    Elementwise, so a state gives the same bits alone or in an array."""
    z = np.asarray(z, dtype=float)
    d = z.shape[-1] // 2
    c, s = np.cos(angle), np.sin(angle)
    out = z.copy()
    for i in (0, d):
        out[..., i] = c * z[..., i] - s * z[..., i + 1]
        out[..., i + 1] = s * z[..., i] + c * z[..., i + 1]
    return out


def apogee_state(profile: RadialProfile, dim: int = 2):
    """Initial condition at r = r_max on the positive x1-axis."""
    if dim == 2:
        x = [profile.r_max, 0.0]
        p = [0.0, profile.L / profile.r_max]
    else:
        x = [profile.r_max, 0.0, 0.0]
        p = [0.0, profile.L / profile.r_max, 0.0]
    return np.array(x + p)


def _build_orbit(law, V, profile, k, n, dim, tol):
    if profile.eccentricity < ECCENTRICITY_FLOOR:
        raise CircularDegenerateError(
            f"orbit eccentricity {profile.eccentricity:.3g} below the floor")
    if abs(profile.L) < ANGULAR_MOMENTUM_FLOOR:
        raise NoBoundOrbitError("angular momentum below the non-rectilinear floor")
    z0 = apogee_state(profile, dim)
    sys = HamiltonianSystem(law, V, Perturbation.zero(), dim)
    cycle = integrate(sys, z0, 0.0, profile.tau, tol=tol)
    residual = float(np.linalg.norm(
        cycle(profile.tau) - rotate_plane(z0, 2.0 * math.pi * k / n)))
    return PeriodicOrbit(profile, k, n, n * profile.tau, z0, cycle, dim,
                         residual, law, V)


def _is_feasible(law, V, h, L):
    try:
        turning_points(law, V, h, L)
        return True
    except (NoBoundOrbitError, CircularDegenerateError):
        return False


def _bisect_edge(feasible, good, bad):
    """Last feasible L after at most 60 geometric bisections of [good, bad],
    stopping once the midpoint no longer lies strictly inside: every later
    step would leave both ends as they are."""
    for _ in range(60):
        mid = math.sqrt(bad * good)
        if not min(good, bad) < mid < max(good, bad):
            break
        if feasible(mid):
            good = mid
        else:
            bad = mid
    return good


def _feasible_L_interval(law, V, h):
    """Feasible interval in L (bound non-circular annulus exists) by a coarse
    geometric scan followed by bisection on both endpoints.  Kinetic laws
    without a centrifugal barrier (relativistic Kepler with L below kappa/c,
    steep homogeneous potentials) make small L infeasible, so neither end can
    be assumed."""
    scan = np.geomspace(1e-4, 1e4, 160)
    feas = np.array([_is_feasible(law, V, h, L) for L in scan])
    if not feas.any():
        raise NoBoundOrbitError(
            f"no bound non-circular orbit found at h = {h:g} over the L scan")
    idx = np.flatnonzero(feas)
    i0, i1 = idx[0], idx[-1]
    feasible = lambda L: _is_feasible(law, V, h, L)
    lo = scan[i0] if i0 == 0 else _bisect_edge(feasible, scan[i0], scan[i0 - 1])
    if i1 == len(scan) - 1:
        raise NoBoundOrbitError("feasible L region appears unbounded")
    return lo, _bisect_edge(feasible, scan[i1], scan[i1 + 1])


def find_closed_orbit(law: KineticLaw, V: Potential, k: int, n: int,
                      h_seed: float, search: str = "vary_L",
                      L_seed: float | None = None,
                      phi_tol: float = 1e-11,
                      integrate_tol: float = 1e-12,
                      dim: int = 2) -> PeriodicOrbit:
    """Solve the resonance condition phi(h, L) = k*pi/n by a 1-D root find
    over L at fixed h (or over h at fixed L) and build the closed orbit."""
    if math.gcd(k, n) != 1:
        raise ValueError(f"k = {k} and n = {n} must be coprime")
    target = k * math.pi / n
    # each mode is a scan grid over one unknown x and the map x -> (h, L)
    if search == "vary_L":
        L_lo, L_hi = _feasible_L_interval(law, V, h_seed)
        grid = np.geomspace(max(L_lo * 1.001, ANGULAR_MOMENTUM_FLOOR),
                            0.999 * L_hi, 48)
        point = lambda x: (h_seed, x)
        x_seed, scanned = L_seed, f"L values at h = {h_seed:g}"
    elif search == "vary_h":
        if L_seed is None:
            raise ValueError("vary_h search needs L_seed (the fixed momentum)")
        span = max(1.0, abs(h_seed))
        grid = np.linspace(h_seed - 2 * span, h_seed + 2 * span, 61)
        point = lambda x: (x, L_seed)
        x_seed, scanned = h_seed, f"h values at L = {L_seed:g}"
    else:
        raise ValueError(f"unknown search mode: {search!r}")
    phi_at = lambda x: radial_profile(law, V, *point(x)).phi
    xs, phis = [], []
    for x in grid:
        try:
            phis.append(phi_at(x))
            xs.append(x)
        except (NoBoundOrbitError, CircularDegenerateError, QuadratureError):
            continue
    if len(xs) < 2:
        raise NoBoundOrbitError(f"too few feasible {scanned}")
    xs, phis = np.array(xs), np.array(phis)
    if np.ptp(phis) < 1e-9:
        # apsidal angle constant along the scan (Kepler/harmonic signature):
        # every scanned orbit is closed, or none is
        if abs(phis[0] - target) > 1e-7:
            raise TargetOutOfRangeError(
                f"apsidal angle is constant at {phis[0]:.9g}, target {target:.9g}",
                phi_range=(float(phis.min()), float(phis.max())))
        x_star = x_seed if x_seed is not None else float(xs[len(xs) // 2])
        profile = radial_profile(law, V, *point(x_star))
        return _build_orbit(law, V, profile, k, n, dim, integrate_tol)
    flips = np.flatnonzero(np.diff(np.sign(phis - target)) != 0)
    if flips.size == 0:
        raise TargetOutOfRangeError(
            f"target {target:.9g} outside scanned apsidal range "
            f"[{phis.min():.9g}, {phis.max():.9g}]",
            phi_range=(float(phis.min()), float(phis.max())))
    i = flips[0]
    if flips.size > 1:
        log.warning("%d brackets of the apsidal angle %.9g over the %s; "
                    "using the first, [%.9g, %.9g]", flips.size, target,
                    scanned, xs[i], xs[i + 1])
    try:
        x_star = brentq(lambda x: phi_at(x) - target, xs[i], xs[i + 1],
                        xtol=1e-14, rtol=8.9e-16)
    except Exception as exc:
        raise RootFindError(f"apsidal root find failed: {exc}") from exc
    profile = radial_profile(law, V, *point(x_star))
    if abs(profile.phi - target) > max(phi_tol, 1e-11):
        raise RootFindError(
            f"resonance residual {abs(profile.phi - target):.3g} above tolerance")
    return _build_orbit(law, V, profile, k, n, dim, integrate_tol)


# --- manifold sampling ---

@dataclass(frozen=True)
class ManifoldSample:
    """Deterministic samples of the rotation/time-shift manifold of an orbit.

    ``elements`` holds (M, theta) pairs (M a rotation matrix, or an angle for
    the planar group); ``states`` the corresponding initial phase states.
    """

    base: PeriodicOrbit
    group: str
    elements: tuple
    states: np.ndarray


def _so3_sequence(count: int):
    """Low-discrepancy SO(3) matrices (identity first) via the Shoemake map
    driven by an additive Kronecker sequence."""
    from scipy.spatial.transform import Rotation

    mats = [np.eye(3)]
    # inverse powers of the "plastic" generalization of the golden ratio
    g = 1.2207440846057595
    alphas = np.array([1.0 / g, 1.0 / g**2, 1.0 / g**3])
    for i in range(1, count):
        u1, u2, u3 = (0.5 + i * alphas) % 1.0
        q = np.array([
            math.sqrt(1.0 - u1) * math.sin(2.0 * math.pi * u2),
            math.sqrt(1.0 - u1) * math.cos(2.0 * math.pi * u2),
            math.sqrt(u1) * math.sin(2.0 * math.pi * u3),
            math.sqrt(u1) * math.cos(2.0 * math.pi * u3),
        ])
        mats.append(Rotation.from_quat(q).as_matrix())
    return mats


def _planar_rotation(a: float):
    """Rotation of the plane by the angle a."""
    return np.array([[math.cos(a), -math.sin(a)],
                     [math.sin(a), math.cos(a)]])


def rotate_state(M, z):
    """Apply a spatial rotation to both the position and momentum blocks."""
    z = np.asarray(z, dtype=float)
    d = z.size // 2
    out = np.empty_like(z)
    out[:d] = M @ z[:d]
    out[d:] = M @ z[d:]
    return out


def manifold_samples(orbit: PeriodicOrbit, count_rot: int, count_shift: int,
                     group: str = "SO3") -> ManifoldSample:
    """Sample (rotation, time shift) elements and their initial states."""
    if count_rot < 1 or count_shift < 1:
        raise ValueError("counts must be >= 1")
    tau = orbit.profile.tau
    thetas = np.linspace(0.0, tau, count_shift, endpoint=False)
    shifted = orbit.states(-thetas)
    if group == "planar":
        if orbit.dim != 2:
            raise ValueError("planar group needs a dim-2 orbit")
        angles = np.linspace(0.0, 2.0 * math.pi, count_rot, endpoint=False)
        mats = [_planar_rotation(a) for a in angles]
        elements = tuple((a, th) for a in angles for th in thetas)
        states = np.array([rotate_state(M, z) for M in mats for z in shifted])
        return ManifoldSample(orbit, group, elements, states)
    if group == "SO3":
        mats = _so3_sequence(count_rot)
    elif group == "O3":
        half = (count_rot + 1) // 2
        proper = _so3_sequence(half)
        refl = np.diag([1.0, 1.0, -1.0])
        mats = proper + [M @ refl for M in proper[: count_rot - half]]
    else:
        raise ValueError(f"unknown group: {group!r}")
    elements = tuple((M, th) for M in mats for th in thetas)
    states = np.array([rotate_state(M, _embed3(z))
                       for M in mats for z in shifted])
    return ManifoldSample(orbit, group, elements, states)


def _embed3(z):
    """Planar phase state into the x3 = p3 = 0 plane of the spatial problem."""
    z = np.asarray(z, dtype=float)
    if z.size == 6:
        return z
    return np.array([z[0], z[1], 0.0, z[2], z[3], 0.0])
