"""Radial reduction of the planar unperturbed problem.

Turning points; radial period, apsidal angle and radial action from one
quadrature, and their derivatives in (h, L) from the same quadrature at
complex points; closed non-circular orbits (k:n resonances) and sampling
of the manifolds of rotated/time-shifted copies of a periodic orbit.
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
    "radial_jacobian",
    "find_closed_orbit",
    "manifold_samples",
]

log = logging.getLogger(__name__)

ECCENTRICITY_FLOOR = 1e-4
ANGULAR_MOMENTUM_FLOOR = 1e-6
# largest resonance residual |phi - k pi/n| a found orbit may keep
PHI_TOL = 1e-11

# the radial scan grid of turning_points and its squares, built once
_SCAN = np.geomspace(1e-8, 1e6, 8000)
_SCAN2 = _SCAN**2
_SCAN.flags.writeable = _SCAN2.flags.writeable = False


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
        """(r_max - r_min)/r_max, the radial excursion over the apogee
        radius: 0 on a circle, 2e/(1 + e) on a Kepler ellipse of
        eccentricity e."""
        return (self.r_max - self.r_min) / self.r_max


def _p2(law: KineticLaw, V: Potential, h, L2, r):
    """Squared radial momentum law.p_squared(h + V) - L^2/r^2 at the
    squared angular momentum L2, extended smoothly through h + V = 0 so
    root bracketing sees a sign change.  Elementwise in the radii r, a
    float or an array (h and L2 floats or arrays like r), so a radius gets
    the same bits alone or in an array: p_squared squares by one IEEE
    product on either."""
    r = np.asarray(r, dtype=float)
    return law.p_squared(h + V.V(r)) - L2 / r**2


@lru_cache(maxsize=8)
def _kin_on_scan(law: KineticLaw, V: Potential, h):
    """p_squared(h + V) on the scan grid, read-only, for the last few
    (law, V, h): a root search runs at one energy, so its feasible
    interval, its scan and every turning_points call of it share it."""
    out = law.p_squared(h + V.V(_SCAN))
    out.flags.writeable = False
    return out


# the tolerances of the turning points' root refinement: xtol absolute,
# rtol about 4 ulp
_XTOL, _RTOL = 1e-15, 8.9e-16


def turning_points(law: KineticLaw, V: Potential, h: float, L: float):
    """The turning points r_min < r_max at (h, L): the ends of the annulus
    of _annulus on a fixed log grid over [1e-8, 1e6] (p_squared(h + V)
    from _kin_on_scan, formed once per energy), each refined by brentq at
    xtol = 1e-15, rtol = 8.9e-16 (about 4 ulp) and checked by
    _root_checks.  Where at most one grid value is positive, a bounded
    maximization of _p2 between the grid's neighbours of its maximum
    brackets both roots at the maximizer; a maximum within 1e-10 (1 + |h|)
    of zero is a circular orbit, one below it no bound orbit."""
    L2 = L**2
    vals = _kin_on_scan(law, V, h) - L2 / _SCAN2
    ends = _annulus(L, vals)
    f = lambda r: float(_p2(law, V, h, L2, r))
    if ends is None or ends[0] == ends[1]:
        i = int(np.argmax(vals))
        lo, hi = _SCAN[max(i - 1, 0)], _SCAN[min(i + 1, len(_SCAN) - 1)]
        res = minimize_scalar(lambda r: -f(r), bounds=(lo, hi),
                              method="bounded", options={"xatol": 1e-14})
        band = 1e-10 * (1.0 + abs(h))
        if -res.fun <= -band:
            raise NoBoundOrbitError(
                f"no bound annulus for h = {h:g}, L = {L:g}")
        if -res.fun <= band:
            raise CircularDegenerateError(
                f"double root near r = {res.x:.6g} (circular orbit)")
        brackets = (lo, res.x), (res.x, hi)
    else:
        i0, i1 = ends
        brackets = (_SCAN[i0 - 1], _SCAN[i0]), (_SCAN[i1], _SCAN[i1 + 1])
    r_min, r_max = (brentq(f, a, b, xtol=_XTOL, rtol=_RTOL)
                    for a, b in brackets)
    coincide, hollow = _root_checks(law, V, h, L2, r_min, r_max)
    if coincide:
        raise CircularDegenerateError(
            f"turning points coincide at r = {r_min:.6g}")
    if hollow:
        raise NoBoundOrbitError("admissibility function not positive between roots")
    return r_min, r_max


def _annulus(L, vals):
    """The scan-grid indices (i0, i1) of the first and last positive value
    of the annulus whose ends turning_points refines, from vals, _p2 on the
    scan grid at (h, L): the annulus containing the global maximum where
    there are several.  None where no value is positive; raises
    NoBoundOrbitError at L = 0 and where the positive region touches the
    scan boundary."""
    if L == 0.0:
        raise NoBoundOrbitError("rectilinear limit L = 0 is out of scope")
    pos = vals > 0.0
    i0 = int(pos.argmax())
    if not pos[i0]:
        return None
    last = len(vals) - 1
    i1 = last - int(pos[::-1].argmax())
    if i0 == 0 or i1 == last:
        raise NoBoundOrbitError(
            "positive radial region touches the scan boundary (unbound or "
            "scan range too small)")
    if not pos[i0:i1 + 1].all():
        # multiple annuli: keep the one containing the global maximum,
        # between the non-positive values on either side of it
        gaps = np.flatnonzero(~pos)
        k = int(np.searchsorted(gaps, np.argmax(vals)))
        i0, i1 = int(gaps[k - 1]) + 1, int(gaps[k]) - 1
    return i0, i1


def _root_checks(law, V, h, L2, r_min, r_max):
    """The checks of refined turning points r_min < r_max at the energy h
    and squared momentum L2, elementwise in floats or arrays: whether they
    coincide (closer than 1e-10 r_max: a circular orbit) and, where not,
    whether _p2 fails to be positive midway between them (no bound
    orbit)."""
    coincide = np.less(r_max - r_min, 1e-10 * r_max)
    hollow = ~coincide & (_p2(law, V, h, L2, 0.5 * (r_min + r_max)) <= 0.0)
    return coincide, hollow


def _brentq_rows(f, a, b):
    """scipy.optimize.brentq(f_i, a[i], b[i], xtol=_XTOL, rtol=_RTOL) for
    every row i at once, with brentq's bits: each row takes the steps of
    SciPy's brentq.c (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4) one iteration at a time on arrays, the rows
    still iterating in one batch.  f(i, x) evaluates the objectives of the
    rows i at the points x, elementwise.  As brentq does, it raises
    ValueError where f is NaN or f(a[i]) and f(b[i]) have one sign, and
    RuntimeError where a row does not converge in brentq's default 100
    iterations."""

    def values(i, x):
        fx = f(i, x)
        if np.isnan(fx).any():
            raise ValueError(f"The function value at x={x[np.isnan(fx)][0]} "
                             "is NaN; solver cannot continue.")
        return fx

    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    rows = np.arange(a.size)
    xpre, xcur = a, b
    fpre, fcur = values(rows, xpre), values(rows, xcur)
    # a zero at an end is the root, a at both ends
    root = np.where(fpre == 0.0, xpre, xcur)
    live = (fpre != 0.0) & (fcur != 0.0)
    if np.any(np.signbit(fpre[live]) == np.signbit(fcur[live])):
        raise ValueError("f(a) and f(b) must have different signs")
    rows, xpre, xcur, fpre, fcur = (v[live] for v in (rows, xpre, xcur, fpre, fcur))
    if not rows.size:
        return root
    xblk = fblk = spre = scur = np.zeros(rows.size)
    for _ in range(100):
        # the block end: the last point of the sign opposite to fcur's
        new = (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk, fblk = np.where(new, xpre, xblk), np.where(new, fpre, fblk)
        spre = np.where(new, xcur - xpre, spre)
        scur = np.where(new, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))
        delta = (_XTOL + _RTOL * np.abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        if done.any():
            root[rows[done]] = xcur[done]
            keep = ~done
            (rows, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta,
             sbis) = (v[keep] for v in (rows, xpre, xcur, xblk, fpre, fcur,
                                        fblk, spre, scur, delta, sbis))
            if not rows.size:
                return root
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # the secant step where the block end is the previous point,
            # else inverse quadratic extrapolation
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(
                xpre == xblk, -fcur * (xcur - xpre) / (fcur - fpre),
                -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)))
            bound = np.minimum(np.abs(spre), 3.0 * np.abs(sbis) - delta)
            short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                     & (2.0 * np.abs(stry) < bound))
        # a good short step, else bisection
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur,
                               np.where(sbis > 0.0, delta, -delta))
        fcur = values(rows, xcur)
    raise RuntimeError(f"Failed to converge after 100 iterations, value is "
                       f"{xcur[0]}")


# the node counts of the quadrature ladder, and its stopping rule: a row,
# real or complex step, stops at the first rung within this relative change
# of the rung before
_LADDER = (80, 140, 240, 400, 640)
_LADDER_RTOL = 5e-11
# the ladder's quadrature passes: no row can stop at the first rung, so the
# first two rungs run in one pass, and each later rung in its own
_PASSES = (_LADDER[:2], *((n,) for n in _LADDER[2:]))


@lru_cache(maxsize=len(_LADDER))
def _nodes(ns):
    """The n-point Gauss-Legendre rules (n even) of the node counts ns on
    u in [-pi/2, pi/2], side by side as (2, sum(ns)/2) arrays: in one block
    of n/2 columns per rule, in the order of ns, the nodes below the
    midpoint in the first row and those above in the second.  Per node,
    the weights w, w cos(u)^2, and near = +-(1 - |sin u|) and
    far = +-(1 + |sin u|), + below: a node r = mid + half sin(u) is
    end + half near, end the nearer turning point, and the other turning
    point is r + half far."""

    def rule(n):
        nodes, weights = np.polynomial.legendre.leggauss(n)
        u = 0.5 * math.pi * nodes
        w = 0.5 * math.pi * weights
        s = np.abs(np.sin(u))
        sign = np.where(u < 0.0, 1.0, -1.0)
        return tuple(x.reshape(2, n // 2) for x in (
            w, w * np.cos(u) ** 2, sign * (1.0 - s), sign * (1.0 + s)))

    return tuple(np.concatenate(x, axis=-1) for x in zip(*map(rule, ns)))


def _integrand(law, V, h, r_min, r_max, ns):
    """r^2, e = h + V and S = p_r^2 / ((r - r_min)(r_max - r)) at the
    nodes r of the rules ns (_nodes) of each row, as (rows, 2, sum(ns)/2)
    arrays from (rows, 1, 1) columns.  P(r) = r^2 p^2(e) - L^2 vanishes at
    both ends, so from the nearer end a, S = P[a, r] / (r^2 (far - r))
    with the divided difference P[a, r] = (a + r) p^2(e_r)
    + a^2 p^2[e_a, e_r] V[a, r]: nothing cancels near the ends, and the
    end's own residual is dropped."""
    _, _, near, far = _nodes(ns)
    half = 0.5 * (r_max - r_min)
    a = np.concatenate((r_min, r_max), axis=-2)
    r = a + half * near
    r2 = r**2
    e = h + V.V(r)
    S = (((a + r) * law.p_squared(e)
          + a**2 * law.p_squared_div(h + V.V(a), e) * V.V_div(a, r))
         / (r2 * (half * far)))
    return r2, e, S


def _radial_integrals(law, V, rows, ns):
    """Half-cycle radial time, swept angle and action integral of each row
    by Gauss-Legendre at each node count of ns after the
    singularity-removing substitution r = mid + half*sin(u): for each rung
    of ns, the values as a (rows, 3) list and, for each row, whether its
    integrand fails to be positive at a node of that rung.  rows stacks
    the columns h, L, r_min and r_max, all real, or all complex for the
    rows of radial_jacobian.  The integrand of every rung comes from one
    elementwise pass over the concatenated nodes, and each rung is summed
    over its own nodes copied to a contiguous block, so a sum keeps the
    pairwise order of a pass of that rung alone, which a strided view can
    change: a row gets the same bits in any batch of its type and with any
    rungs beside it."""
    h, L, r_min, r_max = rows
    w, w_cos2, _, _ = _nodes(ns)
    r2, e, S = _integrand(law, V, h, r_min, r_max, ns)
    sqrtS = np.sqrt(S)
    half = 0.5 * (r_max - r_min)[:, 0, 0]
    # dt = |p| dr / (G'(|p|) p_r), and |p|/G'(|p|) = (1/2) d(p^2)/de
    terms = np.stack((w * (0.5 * law.p_squared_div(e, e)) / sqrtS,
                      w * L / (r2 * sqrtS), w_cos2 * sqrtS))
    bad = S.real <= 0.0
    out, start = [], 0
    for n in ns:
        block = slice(start, start + n // 2)
        start = block.stop
        tau, phi, action = np.ascontiguousarray(terms[..., block]).sum(
            axis=(-2, -1))
        out.append((np.array([tau, phi, half**2 * action / math.pi]
                             ).T.tolist(),
                    np.any(bad[..., block], axis=(-2, -1)).tolist()))
    return out


def _converged_integrals(law, V, h, L, r_min, r_max, step=None):
    """(tau/2, phi, action) at each (h[i], L[i]) with turning points
    (r_min[i], r_max[i]), the rows being sequences of floats: each row
    stops at the first rung within _LADDER_RTOL of the rung before.  The
    rungs run in the passes of _PASSES, the first two in one, on the rows
    still on the ladder; a row's values at a rung do not depend on the
    pass, so the result is that of one rung at a time.  Returns a list with
    the values of each row that converges, None on the others, and the
    QuadratureError message of each of those, by row.  With step, the rows
    are complex numbers a step i*step off a real row, and a row's values
    are the imaginary parts over step: the derivatives along the step."""
    rows = np.array([h, L, r_min, r_max],
                    dtype=float if step is None else complex)
    out = [None] * len(h)
    failed = {}
    # the rows of the pass, their columns, and the last values of each row
    todo, block, prev = list(range(len(h))), rows[:, :, None, None], {}
    for ns in _PASSES:
        for cur, bad in _radial_integrals(law, V, block, ns):
            if step is not None:
                cur = [[v.imag / step for v in row] for row in cur]
            for j, i in enumerate(todo):
                if i in failed or out[i] is not None:
                    continue
                if bad[j]:
                    failed[i] = ("radial admissibility not positive at "
                                 "quadrature nodes")
                elif i in prev and max(
                        abs(a - b) / (1.0 + abs(a))
                        for a, b in zip(cur[j], prev[i])) <= _LADDER_RTOL:
                    out[i] = cur[j]
                else:
                    prev[i] = cur[j]
        keep = [j for j, i in enumerate(todo)
                if i not in failed and out[i] is None]
        if not keep:
            return out, failed
        if len(keep) < len(todo):
            block = block[:, keep]
        todo = [todo[j] for j in keep]
    for i in todo:
        failed[i] = (f"radial quadrature did not converge to "
                     f"{_LADDER_RTOL:g} at (h, L) = "
                     f"({h[i].real:g}, {L[i].real:g})")
    return out, failed


def radial_profile(law: KineticLaw, V: Potential, h: float, L: float) -> RadialProfile:
    """Turning points plus radial period, apsidal angle and radial action at
    (h, L), all from one converged quadrature."""
    r_min, r_max = turning_points(law, V, h, L)
    out, failed = _converged_integrals(law, V, [h], [L], [r_min], [r_max])
    if failed:
        raise QuadratureError(failed[0])
    tau_half, phi, action = out[0]
    return RadialProfile(h, L, r_min, r_max, 2.0 * tau_half, phi, action)


# the imaginary step of radial_jacobian: any size works whose square
# vanishes against 1 and whose products do not underflow
_STEP = 1e-30


def radial_jacobian(law: KineticLaw, V: Potential, profile: RadialProfile):
    """d(tau, phi)/d(h, L) at a radial profile, as a 2 x 2 array, by
    complex step (Squire & Trapp, SIAM Rev. 40 (1998)): the quadrature of
    radial_profile at (h + i step, L) and at (h, L + i step), whose
    imaginary parts over step are the derivatives with no difference to
    cancel.  Each turning point r moves by one Newton step on
    P = p_squared(h + V) - L^2/r^2 with the exact slopes
    dP/dr = p_squared'(h + V) V' + 2 L^2/r^3, dP/dh = p_squared'(h + V)
    and dP/dL = -2 L/r^2, so the moved ends are roots of the moved P to
    first order in step."""
    h, L = profile.h, profile.L
    ends = (profile.r_min, profile.r_max)
    dh, dL = [], []  # (dr_min, dr_max) along h and along L
    for r in ends:
        e = h + V.V(r)
        dP_dh = law.p_squared_div(e, e)
        dP_dr = dP_dh * V.dV(r) + 2.0 * L**2 / r**3
        dh.append(-dP_dh / dP_dr)
        dL.append(2.0 * L / (r**2 * dP_dr))
    d = 1j * _STEP
    out, failed = _converged_integrals(
        law, V, [h + d, h], [L, L + d],
        [ends[0] + d * dh[0], ends[0] + d * dL[0]],
        [ends[1] + d * dh[1], ends[1] + d * dL[1]], step=_STEP)
    if failed:
        raise QuadratureError(next(iter(failed.values())))
    (tau_h, phi_h, _), (tau_L, phi_L, _) = out
    return np.array([[2.0 * tau_h, 2.0 * tau_L], [phi_h, phi_L]])


# --- closed orbits ---

@dataclass(frozen=True)
class PeriodicOrbit:
    """Closed non-circular orbit with apsidal angle k*pi/n and period n*tau.

    Starts at apogee on the positive x1-axis with L > 0; for dim 3 the orbit
    is embedded in the plane x3 = p3 = 0.  Only half a radial cycle, apogee
    to perigee over [0, tau/2], is integrated (``cycle``).  The other half
    is its mirror image under the time reversal about the perigee line,
    z(tau - s) = reflect_apsis(z(s), k pi/n), which is exact because the
    unperturbed flow is reversible; the rest of the orbit is that cycle
    turned by multiples of 2 pi k/n, which is exact because the flow
    commutes with rotations.  ``closure_residual`` is the jump
    |z(tau/2) - reflect_apsis(z(tau/2), k pi/n)| at the perigee junction,
    the only discontinuity of the composed orbit: its apogee boundaries
    are continuous up to rounding.  ``cycle`` builds each step's
    interpolant when a time in it is first read, so ``closure_residual``
    costs the last step's only, and a caller that reads no state pays for
    no other.
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
        modulo the period.  With j = min(floor(t / tau), n - 1) and
        s = t - j tau, the radial cycle is the half cycle at s for
        s <= tau/2 and its apsis reflection reflect_apsis(cycle(tau - s),
        k pi/n) beyond; it is turned by 2 pi k j/n.  Elementwise, so a time
        gives the same bits alone or in an array."""
        t = np.mod(np.asarray(t, dtype=float), self.T)
        tau = self.profile.tau
        j = np.minimum(np.floor(t / tau), self.n - 1)
        s = t - j * tau
        mirrored = s > 0.5 * tau
        z = self.cycle(np.where(mirrored, tau - s, s))
        z = np.where(mirrored[..., None],
                     reflect_apsis(z, math.pi * self.k / self.n), z)
        return rotate_plane(z, 2.0 * math.pi * self.k * j / self.n)


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


def reflect_apsis(z, a):
    """Time reversal about the apsis line at the angle a in the x1-x2
    plane, R_a(x, p) = (S_a x, -S_a p) with S_a the reflection that fixes
    that line (and the x3 axis): the flip (x2, p1, p3) -> -(x2, p1, p3), then
    Rot(2a).  Anti-symplectic, and it maps solutions of the unperturbed
    flow to solutions run backwards.  Elementwise like rotate_plane."""
    z = np.array(z, dtype=float)
    d = z.shape[-1] // 2
    z[..., 1] *= -1.0
    z[..., d::2] *= -1.0  # p1, and p3 in space
    return rotate_plane(z, 2.0 * a)


def apogee_state(profile: RadialProfile, dim: int = 2):
    """Initial condition at r = r_max on the positive x1-axis."""
    return _apsis_state(profile.r_max, profile.L, dim)


def _apsis_state(r, L, dim):
    """The state at the apsis r on the positive x1-axis: p = L/r along x2."""
    z = np.zeros(2 * dim)
    z[0], z[dim + 1] = r, L / r
    return z


def _build_orbit(law, V, profile, k, n, dim):
    if profile.eccentricity < ECCENTRICITY_FLOOR:
        raise CircularDegenerateError(
            f"orbit eccentricity {profile.eccentricity:.3g} below the floor")
    if abs(profile.L) < ANGULAR_MOMENTUM_FLOOR:
        raise NoBoundOrbitError("angular momentum below the non-rectilinear floor")
    z0 = apogee_state(profile, dim)
    sys = HamiltonianSystem(law, V, Perturbation.zero(), dim)
    cycle = integrate(sys, z0, 0.0, 0.5 * profile.tau)
    perigee = cycle(cycle.t1)
    residual = float(np.linalg.norm(
        perigee - reflect_apsis(perigee, math.pi * k / n)))
    return PeriodicOrbit(profile, k, n, n * profile.tau, z0, cycle, dim,
                         residual, law, V)


def _feasible_L_interval(law, V, h):
    """The interval in L at which the scan grid of turning_points holds a
    positive value of a bound annulus, in closed form: with
    g(r) = r^2 kin(h + V(r)), max(g[0], g[-1], 0) <= L^2 < max g, for any
    potential.  Small L can be infeasible (no centrifugal barrier for
    relativistic Kepler below kappa/c or steep potentials); the lower edge
    is floored at 1e-4.  Above the upper edge, up to the circular orbit,
    turning_points finds annuli between two grid radii, which the scan
    does not read."""
    g = _SCAN2 * _kin_on_scan(law, V, h)
    lo = max(math.sqrt(max(g[0], g[-1], 0.0)), 1e-4)
    hi = math.sqrt(max(g.max(), 0.0))
    if hi > 1e4:
        raise NoBoundOrbitError("feasible L region appears unbounded")
    if not lo < hi:
        raise NoBoundOrbitError(f"no bound non-circular orbit at h = {h:g}")
    return lo, hi


# the apsidal-angle scans kept for reuse: one per (law, potential, energy
# level), shared by every k:n target at that level
SCAN_CACHE_SIZE = 64


@lru_cache(maxsize=SCAN_CACHE_SIZE)
def _scan(law, V, h):
    """The apsidal angle over 48 L values across the feasible interval at
    the energy h, which knows no target: the L at which radial_profile
    returns, and phi there, as read-only arrays.  One pass over the grid
    gives radial_profile's bits at every L: on the radial grid,
    p_squared(h + V) is formed once; each row's annulus comes from
    _annulus, the turning points of every row from one vectorized brentq
    pass (_brentq_rows, whose objective _p2 is elementwise, with L^2
    squared per row as turning_points squares it) and checked by
    _root_checks, and every row's phi from one run of the ladder.  A row
    with at most one positive value on the grid is dropped, without the
    maximization by which turning_points brackets its roots or names its
    error.  The scan calls no name a caller can rebind, so its cache key is
    just its inputs."""
    L_lo, L_hi = _feasible_L_interval(law, V, h)
    grid = np.geomspace(L_lo * 1.001, 0.999 * L_hi, 48)
    kin = _kin_on_scan(law, V, h)
    kept = []  # (L, L^2, i0, i1) of each row with an annulus
    for L in grid:
        try:
            ends = _annulus(L, kin - L**2 / _SCAN2)
        except NoBoundOrbitError:
            continue
        if ends is not None and ends[0] < ends[1]:
            kept.append((L, L**2, *ends))
    cols = list(zip(*kept)) or [()] * 4
    Ls, L2s = (np.array(c, dtype=float) for c in cols[:2])
    i0, i1 = (np.array(c, dtype=int) for c in cols[2:])
    # the rows' r_min brackets, then their r_max brackets
    L22 = np.tile(L2s, 2)
    roots = _brentq_rows(lambda i, r: _p2(law, V, h, L22[i], r),
                         _SCAN[np.concatenate((i0 - 1, i1))],
                         _SCAN[np.concatenate((i0, i1 + 1))])
    r_min, r_max = roots[:len(Ls)], roots[len(Ls):]
    ok = ~np.logical_or(*_root_checks(law, V, h, L2s, r_min, r_max))
    Ls, r_min, r_max = (v[ok] for v in (Ls, r_min, r_max))
    out, _ = _converged_integrals(law, V, [h] * len(Ls), Ls, r_min, r_max)
    # the rows on which radial_profile raises are left out
    xs = np.array([L for L, v in zip(Ls, out) if v is not None])
    phis = np.array([v[1] for v in out if v is not None])
    xs.flags.writeable = phis.flags.writeable = False
    return xs, phis


def find_closed_orbit(law: KineticLaw, V: Potential, k: int, n: int,
                      h: float, L_seed: float | None = None,
                      dim: int = 2) -> PeriodicOrbit:
    """Solve the resonance condition phi(h, L) = k*pi/n by a 1-D root find
    over L at the energy h and build the closed orbit.  The root is
    bracketed on a scan of phi that depends on (law, V, h) but not on k:n;
    it is computed once and reused by every target at that energy level
    (the SCAN_CACHE_SIZE most recently used scans are kept).  brentq
    starts from the bracket ends, where the scan's phi are radial_profile's
    bits, so a radial_profile runs only at the points after them; the
    found orbit's profile is the one computed at the root, or, where the
    root is a bracket end (phi exactly on target), one computed there.
    Where the apsidal angle is constant along the scan (classical Kepler,
    harmonic), every L closes, and L_seed chooses the one built; elsewhere
    the resonance fixes L, and an L_seed is ignored with a WARNING."""
    if math.gcd(k, n) != 1:
        raise ValueError(f"k = {k} and n = {n} must be coprime")
    target = k * math.pi / n
    xs, phis = _scan(law, V, h)
    if len(xs) < 2:
        raise NoBoundOrbitError(f"too few feasible L values at h = {h:g}")
    if np.ptp(phis) < 1e-9:
        # apsidal angle constant along the scan (Kepler/harmonic signature):
        # every scanned orbit is closed, or none is
        if abs(phis[0] - target) > 1e-7:
            raise TargetOutOfRangeError(
                f"apsidal angle is constant at {phis[0]:.9g}, target {target:.9g}",
                phi_range=(float(phis.min()), float(phis.max())))
        if L_seed is None:
            raise ValueError(
                "apsidal angle is constant over the scanned L values, so every "
                "L gives a closed orbit: pass L_seed to choose one")
        profile = radial_profile(law, V, h, L_seed)
        return _build_orbit(law, V, profile, k, n, dim)
    flips = np.flatnonzero(np.diff(np.sign(phis - target)) != 0)
    if flips.size == 0:
        raise TargetOutOfRangeError(
            f"target {target:.9g} outside scanned apsidal range "
            f"[{phis.min():.9g}, {phis.max():.9g}]",
            phi_range=(float(phis.min()), float(phis.max())))
    i = flips[0]
    if flips.size > 1:
        log.warning("%d brackets of the apsidal angle %.9g over the L values "
                    "at h = %g; using the first, [%.9g, %.9g]", flips.size,
                    target, h, xs[i], xs[i + 1])
    # phi at the bracket ends, where brentq starts, is the scan's: the
    # bits of radial_profile there
    ends = dict(zip(xs[i:i + 2].tolist(), phis[i:i + 2].tolist()))
    profiles = {}  # L -> radial_profile, for each other L the search tries

    def phi_at(L):
        if L in ends:
            return ends[L]
        profiles[L] = radial_profile(law, V, h, L)
        return profiles[L].phi

    try:
        L_star = brentq(lambda L: phi_at(L) - target, xs[i], xs[i + 1],
                        xtol=1e-14, rtol=8.9e-16)
    except Exception as exc:
        raise RootFindError(f"apsidal root find failed: {exc}") from exc
    # brentq returns a point it evaluated; a bracket end (phi exactly on
    # target there) has only the scan's phi, so its profile is made here
    profile = profiles.get(L_star) or radial_profile(law, V, h, L_star)
    if abs(profile.phi - target) > PHI_TOL:
        raise RootFindError(
            f"resonance residual {abs(profile.phi - target):.3g} above tolerance")
    if L_seed is not None:
        log.warning("L_seed %.9g ignored: the resonance %d:%d fixes L = %.9g "
                    "at h = %g", L_seed, k, n, profile.L, h)
    return _build_orbit(law, V, profile, k, n, dim)


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
    """Sample (rotation, time shift) elements and their initial states.

    The apsis samples are built from the radial profile: shift 0 is the
    apogee ``z0``, and shift tau/2 (an even ``count_shift``) the perigee
    (r_min, L/r_min) at the angle (2n - 1) k pi/n, where ``states`` puts
    it, without the error of the perigee junction that ``states`` carries
    there.  So an apsis sample on a reversor's line lies on its fixed set
    to rounding."""
    if count_rot < 1 or count_shift < 1:
        raise ValueError("counts must be >= 1")
    p = orbit.profile
    thetas = np.linspace(0.0, p.tau, count_shift, endpoint=False)
    shifted = orbit.states(-thetas)
    shifted[0] = orbit.z0
    if count_shift % 2 == 0:
        shifted[count_shift // 2] = rotate_plane(
            _apsis_state(p.r_min, p.L, orbit.dim),
            math.pi * orbit.k * (2 * orbit.n - 1) / orbit.n)
    if group == "planar":
        if orbit.dim != 2:
            raise ValueError("planar group needs a dim-2 orbit")
        angles = np.linspace(0.0, 2.0 * math.pi, count_rot, endpoint=False)
        elements = tuple((a, th) for a in angles for th in thetas)
        states = rotate_plane(np.tile(shifted, (count_rot, 1)),
                              np.repeat(angles, count_shift))
        return ManifoldSample(orbit, group, elements, states)
    if group != "SO3":
        raise ValueError(f"unknown group: {group!r}")
    mats = _so3_sequence(count_rot)
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
