"""Shooting continuation of unperturbed periodic orbits into the
electromagnetically perturbed system.

Every family of the catalogue is reversible: with a = ``reversor`` of its
perturbation, R_a = ``orbit.reflect_apsis(., a)`` maps solutions to
solutions run backwards.  An orbit that meets Fix(R_a) at t = 0 and at T/2
is T-periodic, and shooting from Fix(R_a) to Fix(R_a) over half a period
removes the rotation and time-shift freedom that makes the full-period
Jacobian singular at eps = 0 (Devaney, Trans. AMS 218 (1976); Lamb &
Roberts, Physica D 112 (1998)).  At eps = 0 its solutions are the apsis
states of the k:n orbit on the line a: in the plane they are isolated where
the mode's non-degeneracy holds; in space the orbit can still be tilted
about the axis normal to that line in its plane, and the field selects
among the tilts, so the half-system is regular at eps != 0 only.

Every continuation solves that half-period system, and a seed off Fix(R_a)
comes back rejected unshot.  One predictor-corrector loop in eps
(``_continue``) follows the branch from the seed, each step corrected by
Newton and halved where Newton does not contract (``THETA_MAX``).  Each
residual comes from a state-only half-period shot at ``HALF_SHOT_TOL``,
and the variational solve, for the Jacobian, runs only at a point a step
leaves, solved only as accurately as the residual needs
(``_jacobian_tol``): an inexact Newton method whose Jacobian error shrinks
with the residual keeps its rate, and the steps are exact again once
|R| <= ``RESIDUAL_TOL``.  Where the contraction of the last step predicts
that the same Jacobian converges (``_reuse_jacobian``), the next step reuses
it and no variational solve runs.  At fixed period the period is pinned by
the (resonant) time-dependent forcing; at fixed energy it joins the unknowns,
and the system gains an energy row.  Every result ends in the same closing
re-check, an independent full-period integration.

``multistart`` runs one continuation per manifold sample and gives each
result the paper's diagnostics: the gradient of the reduced functional
Gamma (``reduced_functional``) at the sample and its first-order distance
to Gamma's critical set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import CollisionError, IntegrationError
from .flow import (DEFAULT_TOL, endpoint, integrate,
                   integrate_with_variational, symplectic_matrix)
from .model import HamiltonianSystem, reversor
from .orbit import ManifoldSample, reflect_apsis, rotate_plane

__all__ = [
    "ShootingProblem",
    "ContinuationResult",
    "continue_fixed_period",
    "continue_fixed_energy",
    "distance_to_manifold",
    "ReducedPoint",
    "reduced_functional",
    "multistart",
    "distinct_results",
]

RESIDUAL_TOL = 1e-9
ENERGY_TOL = 1e-10
MAX_NEWTON = 25
# the smallest step in eps: a failed step halves until it would fall below it
EPS_START = 1e-4
# a step in eps is accepted where its Newton run converges and its first
# trial contracts, Theta_0 = |J_0^-1 R(v_1)| / |J_0^-1 R(v_0)| < THETA_MAX
# (Deuflhard, *Newton Methods for Nonlinear Problems*, Springer 2004,
# ch. 5); the next step doubles after a Theta_0 below THETA_MAX / 2,
# Deuflhard's target contraction, not a setting of its own
THETA_MAX = 0.5
# a seed lies on the fixed set of the reversor R_a, and is continued, when
# |R_a z - z| <= FIX_TOL (1 + |z|)
FIX_TOL = 1e-12
# Jacobian reuse: a trial stepped with a freshly solved Jacobian J, accepted
# without converging, has the contraction Theta = |J^-1 R(v+)| / |dv|, and
# by the Kantorovich estimate a simplified-Newton step with the same J
# leaves a residual of about 2 Theta |R(v+)| (Deuflhard, *Newton Methods for
# Nonlinear Problems*, Springer 2004, ch. 2).  The next trial reuses J when
# that prediction is within REUSE_RESIDUAL, a quarter of RESIDUAL_TOL: the
# prediction missed the measured residual by 0.80-2.19x over the six
# iterates of the multistart_fp and spatial_fe seeds.  Derived from
# RESIDUAL_TOL, not a setting of its own
REUSE_RESIDUAL = 0.25 * RESIDUAL_TOL
# integration tolerance of the state-only half-period shots, which run in
# Sundman time (``flow.endpoint``): at DEFAULT_TOL the Levi-Civita 7:6
# Larmor periods miss the exact reference by 5.7-8.2e-10 (1.5-1.6e-9 with
# shots in physical time), at 1e-13 by 5.2-8.6e-11 (8.1e-11-1.3e-10)
HALF_SHOT_TOL = 1e-13


@dataclass(frozen=True)
class ShootingProblem:
    """One continuation task: a perturbed system, a mode, and a seed.

    mode "fixed_period" keeps T fixed (the forcing period must divide it);
    mode "fixed_energy" solves for (z0, T) on the level set H = h and
    requires an autonomous perturbation.  The seed must lie on the fixed
    set of the perturbation's reversor to be continued.
    """

    sys: HamiltonianSystem
    mode: str  # fixed_period | fixed_energy
    seed: np.ndarray
    T: float
    h: float | None = None
    seed_id: int = 0

    def __post_init__(self):
        if self.mode not in ("fixed_period", "fixed_energy"):
            raise ValueError(f"unknown mode {self.mode!r}")
        pert = self.sys.perturbation
        if pert.eps == 0.0:
            raise ValueError(
                "refusing eps = 0: the unperturbed shooting Jacobian is "
                "singular along the orbit manifold")
        if self.mode == "fixed_period" and not pert.is_autonomous:
            ratio = self.T / pert.T_forcing
            if abs(ratio - round(ratio)) > 1e-8:
                raise ValueError(
                    "fixed-period shooting needs the forcing period to "
                    f"divide T (T/T_forcing = {ratio:g})")
        if self.mode == "fixed_energy":
            if not pert.is_autonomous:
                raise ValueError(
                    "fixed-energy shooting needs an autonomous perturbation")
            if self.h is None:
                raise ValueError("fixed_energy mode needs the target energy h")


@dataclass(frozen=True)
class ContinuationResult:
    """The outcome of one continuation: accepted or not, with the driver's
    or the re-check's reason, the solution (z0, period) reached, its
    closure ``residual`` and, at fixed energy, ``energy_residual``, and
    what the runs of the driver did.  ``eps`` is the eps of the run that
    ended a rejected result, else the target's."""

    accepted: bool
    reason: str
    z0: np.ndarray
    period: float
    eps: float
    residual: float
    energy_residual: float
    newton_iters: int
    seed_id: int
    trajectory: object = None
    distance: float | None = None
    distance_element: tuple | None = None
    # one (eps, trial residual, accepted) entry per Newton trial; the trial
    # residual is inf when the trial step was not shot
    history: tuple = ()
    # variational solves started, at ``_jacobian_tol``: one per trial that
    # does not reuse its Jacobian, so variational_solves + jacobian_reuses
    # is the number of trials when no solve ends a run
    variational_solves: int = 0
    # trials that reused the Jacobian of the trial before (``_continue``)
    jacobian_reuses: int = 0
    # state-only half-period shots started: one per run of the driver (its
    # first shot) and one per trial shot
    state_shots: int = 0
    # one (eps, first-shot residual) pair per run of the driver, the first
    # at the target eps; the residual is inf when the shot failed
    rung_starts: tuple = ()
    # the contraction Theta = |J^-1 R(v+)| / |dv| of each accepted trial, in
    # the order of ``history``: J the Jacobian the trial stepped with, dv its
    # step and R(v+) the residual it reached
    contractions: tuple = ()
    # condition number of the last half-period Jacobian that the run that
    # converged solved for (a reused one is not solved again); None when
    # that run solved none or none converged
    half_condition: float | None = None
    # a multistart seed's |grad Gamma| and its first-order distance
    # |grad Gamma| / ||Hess Gamma||_2 to Gamma's critical set (see
    # ``reduced_functional``); None outside ``multistart``.  Where
    # |grad Gamma| is within its error estimate, Gamma is flat to first
    # order and the distance a ratio of errors
    reduced_gradient: float | None = None
    reduced_distance: float | None = None


def _jacobian_tol(res):
    """Integration tolerance of the variational solve at a point of
    residual |R| = res: DEFAULT_TOL once res <= RESIDUAL_TOL, looser in
    proportion above it.  The Jacobian only steers the step, and an
    inexact Newton method keeps its rate when the Jacobian's error shrinks
    with the residual (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19
    (1982))."""
    return DEFAULT_TOL * max(1.0, res / RESIDUAL_TOL)


def _reuse_jacobian(theta, res):
    """Whether the trial after an accepted one, at the residual |R| = res
    and with the contraction theta of the Jacobian it stepped with, reuses
    that Jacobian: its predicted simplified-Newton residual
    2 theta |R| is within ``REUSE_RESIDUAL``."""
    return 2.0 * theta * res <= REUSE_RESIDUAL


def _failure(exc: IntegrationError) -> str:
    """Reason word of an integration that ended early."""
    return ("collision" if isinstance(exc, CollisionError)
            else "integration failure")


def _continue(problem: ShootingProblem):
    """Follow the branch of the half-period system of the reversor R_a in
    eps from the seed to the target eps, Newton correcting each step; then
    a closing re-check.

    A seed off Fix(R_a), |R_a z - z| > ``FIX_TOL`` (1 + |z|), comes back
    rejected with no shot, no solve and no trial, its reason naming the
    gap |R_a z - z|.  The system's unknowns v are the R_a-even coordinates
    of z0 in the frame turned by a (and T at fixed energy), its residual
    the R_a-odd coordinates of z(T/2) (and H(z0) - h); its shots run over
    [0, T/2] at ``HALF_SHOT_TOL``.

    The loop starts at the seed, the branch point at eps = 0, with a step
    to the target eps.  Each step runs Newton from the last branch point,
    or once there are two, from the secant through the last two.  A step
    whose run converges is a branch point, and the step doubles when the
    run's first trial contracted by Theta_0 < ``THETA_MAX`` / 2.  A step
    whose run fails halves, and the result is rejected once the step
    would fall below ``EPS_START``.  Every eps tried is the last branch
    point's plus target eps * 2^-j, clipped at the target.

    One run of Newton, at one eps, runs trials from its first shot: a
    plain Newton step from the point's Jacobian, which the variational
    solve gives at each point a step leaves, then a state-only shot at the
    step's end, accepted when it lowers |R|.  Each accepted trial records
    its contraction Theta = |J^-1 R(v+)| / |dv| in ``contractions``, and
    the next trial reuses J, never the run's first, where
    ``_reuse_jacobian`` says so; a fresh J follows a reused trial that
    does not lower |R|.  A trial whose step takes T to a tenth of the
    seed's or below (at fixed energy) is not shot.  A run converges when
    |R| <= ``RESIDUAL_TOL`` and, at fixed energy, the energy row is within
    ``ENERGY_TOL``.  It fails as ``no contraction`` when its first trial
    has Theta_0 >= ``THETA_MAX`` without converging; as ``rejected step``
    at the first trial with a fresh J that does not lower |R|; as
    ``stagnation`` after ``MAX_NEWTON`` trials (one more when the last
    reused J); as ``collision`` or ``integration failure`` when the first
    shot or a variational solve ends early; and as ``singular Jacobian``
    when a step cannot be solved for.

    Never raises on a failed run: it ends in a rejected result whose
    ``reason`` is the last run's failure word at its eps, and whose
    ``residual`` and ``newton_iters`` are the last ones reached (residual
    inf when the run's first shot failed, the residual of its point when a
    variational solve did).
    """
    fe = problem.mode == "fixed_energy"
    target_eps = problem.sys.perturbation.eps
    z0 = np.asarray(problem.seed, dtype=float).copy()
    n, d, h = z0.size, problem.sys.dim, problem.h
    a = reversor(problem.sys.perturbation)
    gap = float(np.linalg.norm(reflect_apsis(z0, a) - z0))
    if gap > FIX_TOL * (1.0 + np.linalg.norm(z0)):
        return ContinuationResult(
            False, f"off the fixed set: |R_a z - z| = {gap:.3g}", z0,
            problem.T, target_eps, np.inf, np.inf, 0, problem.seed_id)
    J = symplectic_matrix(d)
    # rows: the coordinate directions R_0 keeps and flips (its -1 entries),
    # turned by a, so z0 = v @ Be and the residual is Bo @ z(T/2)
    B = rotate_plane(np.eye(n), a)
    odd = np.flatnonzero(np.diag(reflect_apsis(np.eye(n), 0.0)) < 0.0)
    Be, Bo = np.delete(B, odd, axis=0), B[odd]
    history = []  # (eps, trial residual, accepted) per Newton trial
    starts = []  # (eps, first-shot residual) per run of the driver
    contractions = []  # Theta per accepted trial
    solves = shots = reuses = 0
    half_jac = None  # the last Jacobian of the current run

    def point(v):
        # (z0, T) of the unknowns v
        return (v[:-1] @ Be, v[-1]) if fe else (v @ Be, problem.T)

    def shoot(sys, v):
        # the residual at v and the state at T/2
        nonlocal shots
        z, T = point(v)
        shots += 1
        zh = endpoint(sys, z, 0.0, 0.5 * T, tol=HALF_SHOT_TOL)
        R = Bo @ zh
        if fe:
            R = np.append(R, sys.hamiltonian(0.0, z) - h)
        return R, zh

    def jacobian(sys, v, zh, res):
        # the Jacobian at v, where the residual is res
        nonlocal solves, half_jac
        z, T = point(v)
        solves += 1
        W = integrate_with_variational(sys, z, 0.0, 0.5 * T,
                                       tol=_jacobian_tol(res))[1]
        half_jac = Bo @ W @ Be.T
        if fe:
            dT = 0.5 * (Bo @ sys.vector_field(0.5 * T, zh))
            gradH = Be @ (J @ sys.vector_field(0.0, z))
            half_jac = np.vstack([np.column_stack([half_jac, dT]),
                                  np.append(gradH, 0.0)])
        return half_jac

    def converged(R, res):
        # the driver's contract, the re-check's too: |R| <= RESIDUAL_TOL
        # and, at fixed energy, |H(z0) - h| = |R[-1]| <= ENERGY_TOL
        return res <= RESIDUAL_TOL and not (fe and abs(R[-1]) > ENERGY_TOL)

    def newton(sys, v):
        # one run of the driver at the eps of sys from the unknowns v.
        # Returns (v, |R|, why), why None when it converged, else its
        # failure word
        nonlocal half_jac, reuses
        eps, half_jac = sys.perturbation.eps, None
        try:
            R, end = shoot(sys, v)
        except IntegrationError as exc:
            starts.append((eps, math.inf))
            return v, np.inf, _failure(exc)
        res = np.linalg.norm(R)
        starts.append((eps, float(res)))
        jac = None  # the Jacobian the next trial reuses, if any
        trials = 0
        reused = False  # whether the last trial reused its Jacobian
        while not converged(R, res):
            # a reused trial never ends a run
            if trials >= MAX_NEWTON and not reused:
                return v, res, "stagnation"
            reused = jac is not None
            try:
                if not reused:
                    jac = jacobian(sys, v, end, res)
                dv = np.linalg.solve(jac, R)
            except IntegrationError as exc:
                return v, res, _failure(exc)
            except np.linalg.LinAlgError:
                return v, res, "singular Jacobian"
            reuses += reused
            trials += 1
            v_try = v - dv
            res2 = np.inf  # unless the trial is shot
            if not (fe and v_try[-1] <= 0.1 * problem.T):
                try:
                    R2, end2 = shoot(sys, v_try)
                    res2 = np.linalg.norm(R2)
                except IntegrationError:
                    pass
            history.append((eps, float(res2), bool(res2 < res)))
            if not res2 < res:
                if reused:
                    # a fresh Jacobian at the same point
                    jac = None
                    continue
                return v, res, "rejected step"
            theta = float(np.linalg.norm(np.linalg.solve(jac, R2))
                          / np.linalg.norm(dv))
            contractions.append(theta)
            if (trials == 1 and theta >= THETA_MAX
                    and not converged(R2, res2)):
                return v, res, "no contraction"
            v, R, end, res = v_try, R2, end2, res2
            if (reused or trials == 1 or converged(R, res)
                    or not _reuse_jacobian(theta, res)):
                jac = None
        return v, res, None

    def result(ok, reason, v, res, en=np.inf, traj=None):
        # at the eps of the last run, the target's once a run converged
        z, T = point(v)
        return ContinuationResult(
            ok, reason, z, T, starts[-1][0], res, en, len(history),
            problem.seed_id, trajectory=traj, history=tuple(history),
            variational_solves=solves, jacobian_reuses=reuses,
            state_shots=shots, rung_starts=tuple(starts),
            contractions=tuple(contractions), half_condition=cond)

    cond = None  # of the last Jacobian of the run that converged
    # branch points (s, v) at eps = s * target_eps, the seed at s = 0; every
    # s is dyadic, so no eps tried depends on rounding, and a negative
    # target_eps mirrors the positive one bit for bit
    branch = [(0.0, np.append(Be @ z0, problem.T) if fe else Be @ z0)]
    ds = 1.0  # the next step in s
    while True:
        s0, v0 = branch[-1]
        s = min(s0 + ds, 1.0)
        guess = v0
        if len(branch) > 1:  # the secant through the last two points
            s1, v1 = branch[-2]
            guess = v0 + (s - s0) / (s0 - s1) * (v0 - v1)
        first = len(contractions)  # where the run's Theta_0 goes
        v, res, why = newton(problem.sys.with_eps(s * target_eps), guess)
        if why is not None:
            ds = 0.5 * (s - s0)
            if ds * abs(target_eps) < EPS_START:
                return result(False, f"{why} at eps={starts[-1][0]:g}", v,
                              res)
        elif s < 1.0:
            branch.append((s, v))
            grow = (len(contractions) == first
                    or contractions[first] < 0.5 * THETA_MAX)
            ds = (2.0 if grow else 1.0) * (s - s0)
        else:
            break
    if half_jac is not None:
        cond = float(np.linalg.cond(half_jac))
    # closure re-check by a plain dense-output integration at the target
    # eps, which also gives the result its trajectory: an independent
    # full-period integration, where Newton saw only half periods
    sys = problem.sys
    z, T = point(v)
    try:
        traj = integrate(sys, z, 0.0, T)
    except IntegrationError as exc:
        return result(False, f"{_failure(exc)} in re-check at "
                      f"eps={target_eps:g}", v, res)
    close = float(np.linalg.norm(traj(T) - z))
    # the re-check allows ten times the driver's tolerances
    ok = bool(close <= 10.0 * RESIDUAL_TOL)
    reason = f"re-check failed: closure {close:.3g}"
    en = np.inf
    if fe:
        en = abs(float(sys.hamiltonian(0.0, z)) - h)
        # energy conservation along the whole orbit
        ts = np.linspace(0.0, T, 200)
        drift = max(abs(float(sys.hamiltonian(t, zt)) - h)
                    for t, zt in zip(ts, traj(ts)))
        ok = ok and en <= ENERGY_TOL and drift <= 10.0 * ENERGY_TOL
        reason += f", energy {en:.3g}, drift {drift:.3g}"
    return result(ok, "ok" if ok else reason, v, close, en, traj)


def continue_fixed_period(problem: ShootingProblem) -> ContinuationResult:
    """Continue the seed into a T-periodic solution of the perturbed system."""
    return _continue(replace(problem, mode="fixed_period"))


def continue_fixed_energy(problem: ShootingProblem) -> ContinuationResult:
    """Continue the seed into a periodic solution on the energy level h,
    solving for the initial state and the period jointly."""
    return _continue(replace(problem, mode="fixed_energy"))


# --- closeness certification ---

# the certificate compares positions at N_SAMPLES times over one period and
# scans N_SHIFTS time shifts of one radial period before its bounded search
N_SAMPLES = 96
N_SHIFTS = 64


def _fits(X, P):
    """Sup-norms and rotations of the least-squares (Procrustes) fits of
    a stack of base positions onto the positions X (m, d): P (k, m, e), one
    (m, e) slice per time shift, e <= d, padded with zeros to d.  Each
    rotation is kept proper, and each fit is scored by the largest
    distance of a row of X from its fitted base row.  One stacked svd, det
    and matmul serve all k slices, and each gives the bits of its call on
    one slice."""
    Y = np.zeros(P.shape[:2] + X.shape[1:])
    Y[..., :P.shape[2]] = P
    U, _, Vt = np.linalg.svd(X.T @ Y)
    flip = np.linalg.det(U @ Vt) < 0
    U[flip, :, -1] = -U[flip, :, -1]
    M = U @ Vt
    return np.max(np.linalg.norm(X - Y @ np.swapaxes(M, 1, 2), axis=2),
                  axis=1), M


def distance_to_manifold(result: ContinuationResult,
                         samples: ManifoldSample) -> ContinuationResult:
    """Distance of a continued solution to the manifold of rotated and
    time-shifted copies of the base orbit, as a sup-norm over positions.

    For a time shift theta the rotation is the least-squares (Procrustes)
    fit of the base positions at t - theta onto the solution's, kept
    proper, and theta is scored by the sup-norm at that rotation.  theta
    is minimised over one radial period tau, first on a grid and then by a
    bounded scalar search: shifting the base orbit by tau rotates it by
    2 pi k/n, which every group contains.  The result is an
    upper bound on the distance, deterministic, and the same for copies of
    the solution turned by a rotation of the group.
    """
    traj = result.trajectory
    if traj is None:
        raise ValueError("result carries no trajectory")
    orbit = samples.base
    dim = np.asarray(result.z0).size // 2
    ts = np.linspace(0.0, result.period, N_SAMPLES)
    X = traj(ts)[:, :dim]

    def fit(theta):
        d, M = _fits(X, orbit.states(ts - theta)[None, :, :orbit.dim])
        return float(d[0]), M[0]

    # the grid in one evaluation: states is elementwise, so each shift's
    # slice has the bits of its own call
    step = orbit.profile.tau / N_SHIFTS
    shifts = step * np.arange(N_SHIFTS)
    grid = orbit.states((ts - shifts[:, None]).ravel())
    scores = _fits(X, grid.reshape(N_SHIFTS, N_SAMPLES, -1)[..., :orbit.dim])[0]
    th0 = step * int(np.argmin(scores))
    best = minimize_scalar(lambda s: fit(th0 + s)[0], bounds=(-step, step),
                           method="bounded", options={"xatol": 1e-12})
    theta = th0 + best.x if best.fun < scores.min() else th0
    d, M = fit(theta)
    return replace(result, distance=d, distance_element=(M, theta))


# --- the reduced functional ---

# periodic-trapezoid nodes per radial period of the reduced functional's
# moments; the error estimate compares them with half as many
MOMENT_NODES = 512


@dataclass(frozen=True)
class ReducedPoint:
    """The reduced functional at one element of the manifold, in the
    coordinates (psi, phi) of that element: the rotation generators (one in
    the plane, three in space), then the radial phase phi = 2 pi theta/tau,
    all in radians.  ``gradient_error`` is the error estimate of
    ``gradient``: its change from half the nodes plus bounds of the sums'
    rounding and of the base orbit's own error."""

    value: float
    gradient: np.ndarray
    hessian: np.ndarray
    gradient_error: float

    @property
    def distance(self) -> float:
        """First-order distance |grad| / ||Hess||_2 to the critical set."""
        g = float(np.linalg.norm(self.gradient))
        h = float(np.linalg.norm(self.hessian, 2))
        return g / h if h > 0.0 else (math.inf if g > 0.0 else 0.0)


def _generators(dim):
    """Basis of the rotation generators: G_i x = e_i x x in space, the
    quarter turn in the plane."""
    if dim == 2:
        return np.array([[[0.0, -1.0], [1.0, 0.0]]])
    return np.array([np.cross(e, np.eye(3)).T for e in np.eye(3)])


def _field_moments(orbit, omega, nodes):
    """The moments of the orbit that a field linear in x sees over one
    period, by the periodic trapezoid rule on ``nodes`` equally spaced times
    of ``orbit.states``: (C, S, P, size_x, size_xv, z_min) with
    C = int cos(omega t) x dt, S = int sin(omega t) x dt and
    P = int x v^T dt, v = dH0/dp the velocity, the sizes int |x| dt and
    int |x| |v| dt of the integrands, and the smallest |z| at a node."""
    t = orbit.T * np.arange(nodes) / nodes
    z = orbit.states(t)
    x, p = z[:, :orbit.dim], z[:, orbit.dim:]
    s = np.linalg.norm(p, axis=1)
    v = (orbit.law.f_inv(s) / s)[:, None] * p
    r = np.linalg.norm(x, axis=1)
    w = orbit.T / nodes
    return (w * (np.cos(omega * t) @ x), w * (np.sin(omega * t) @ x),
            w * (x.T @ v), w * float(np.sum(r)),
            w * float(np.sum(r * np.linalg.norm(v, axis=1))),
            float(np.min(np.linalg.norm(z, axis=1))))


def reduced_functional(orbit, perturbation, group: str, elements):
    """The paper's reduced functional Gamma(g) = int_0^T [U1(t, g.x) +
    <A1(g.x), g.x'>] dt on the manifold of rotated (M) and time-shifted
    (theta) copies g.x(t) = M x(t - theta) of the unperturbed orbit, with
    U1 = g(t) e.x and A1 = DA1 x the first-order fields of the
    perturbation (Ambrosetti, Coti Zelati & Ekeland, JDE 67 (1987);
    Weinstein, Math. Z. 159 (1978)); one ``ReducedPoint`` per element (M,
    theta) of ``elements`` (an angle for M in the ``planar`` group).

    Both fields are linear in x, so with C, S and P the moments of the
    orbit (``_field_moments``) at the forcing frequency omega,
    Gamma = e^T M c(theta) + tr(DA1 M P M^T) with c(theta) =
    cos(omega theta) C - sin(omega theta) S, and its derivatives along
    exp(sum psi_i G_i) M and theta are closed forms in the same moments.
    They are computed once per call, at MOMENT_NODES and at half as many
    nodes per radial period."""
    dim = 2 if group == "planar" else 3
    eps = perturbation.eps
    e = np.zeros(dim)
    DA = np.zeros((dim, dim))
    if perturbation._e is not None:
        e = np.array(perturbation._e[:dim])
    if perturbation._DA is not None:
        if eps == 0.0:
            raise ValueError("refusing eps = 0: A1 = DA x / eps")
        DA = np.array(perturbation._DA).reshape(3, 3)[:dim, :dim] / eps
    omega = (0.0 if perturbation.is_autonomous
             else 2.0 * math.pi / perturbation.T_forcing)
    dphi = orbit.profile.tau / (2.0 * math.pi)  # d theta / d phi
    G = _generators(dim)
    r = len(G)

    def moments(nodes):
        C, S, P, *sizes = _field_moments(orbit, omega, nodes)
        pad = dim - orbit.dim
        C, S = np.pad(C, (0, pad)), np.pad(S, (0, pad))
        return (C, S, np.pad(P, (0, pad)), *sizes)

    def derivatives(M, theta, C, S, P):
        # Gamma, its gradient and its Hessian at (M, theta)
        cw, sw = math.cos(omega * theta), math.sin(omega * theta)
        c = cw * C - sw * S
        c1 = -omega * (sw * C + cw * S) * dphi  # dc/dphi
        c2 = -omega**2 * c * dphi**2

        def quad(A, B):
            # int <DA1 A x, B v> dt = <DA1^T, A P B^T>
            return np.sum(DA.T * (A @ P @ np.swapaxes(B, -1, -2)),
                          axis=(-2, -1))

        def form(A, B):
            # the part of quad symmetric in A and B
            return quad(A, B) + quad(B, A)

        dN = G @ M  # (r, dim, dim)
        d2N = 0.5 * (G[:, None] @ G[None, :] + G[None, :] @ G[:, None]) @ M
        grad = np.empty(r + 1)
        hess = np.empty((r + 1, r + 1))
        grad[:r] = dN @ c @ e + form(dN, M)
        grad[r] = e @ M @ c1
        hess[:r, :r] = (d2N @ c @ e + form(d2N, M)
                        + form(dN[:, None], dN[None, :]))
        hess[:r, r] = hess[r, :r] = dN @ c1 @ e
        hess[r, r] = e @ M @ c2
        return e @ M @ c + quad(M, M), grad, hess

    nodes = orbit.n * MOMENT_NODES
    fine, coarse = moments(nodes), moments(nodes // 2)
    # the sums' rounding, bounded by the number of terms times the size of
    # what they add up, and the base orbit's own error: its closure
    # residual over the smallest |z| is a relative error of the states it
    # reads, in x and in v alike.  Where Gamma is flat at first order only
    # because the orbit closes (rotating_frame on the 3:2 orbit of alpha =
    # 1.5, whose turn by 2 pi k/n = 3 pi averages nothing), the gradient is
    # that error, 8.8e-12 against a rounding bound of 3.5e-12
    rel = orbit.closure_residual / fine[5]
    rounding = (nodes * np.finfo(float).eps + 2.0 * rel) * (
        np.linalg.norm(e) * (1.0 + omega * dphi) * fine[3]
        + 2.0 * np.linalg.norm(DA) * fine[4])
    points = []
    for M, theta in elements:
        if group == "planar":
            M = np.array([[math.cos(M), -math.sin(M)],
                          [math.sin(M), math.cos(M)]])
        value, grad, hess = derivatives(M, theta, *fine[:3])
        _, grad_coarse, _ = derivatives(M, theta, *coarse[:3])
        err = float(np.linalg.norm(grad - grad_coarse)) + rounding
        points.append(ReducedPoint(float(value), grad, hess, err))
    return points


# --- multi-start ---

def multistart(problem_template: ShootingProblem, samples: ManifoldSample):
    """Run one continuation per manifold sample; returns all results in
    sample order.

    Every sample runs ``continue_fixed_period`` or ``continue_fixed_energy``
    as the template's mode says, which continues it if it lies on the
    reversor's fixed set and else rejects it unshot.  The paper continues
    an orbit only from the critical points of the reduced functional Gamma
    on its manifold (``reduced_functional``), and an apsis copy on the
    reversor's line is one by symmetry (Palais, CMP 69 (1979)).  So every
    result carries the sample's |grad Gamma| and its first-order distance
    delta = |grad Gamma| / ||Hess Gamma||_2 to Gamma's critical set
    (``reduced_gradient``, ``reduced_distance``), as diagnostics: a
    constant electric field on an orbit with n >= 2, ``rotating_frame`` in
    the plane and the zero field have Gamma constant at first order, where
    |grad Gamma| is within its error estimate and delta a ratio of
    errors."""
    runner = (continue_fixed_period if problem_template.mode == "fixed_period"
              else continue_fixed_energy)
    points = reduced_functional(samples.base, problem_template.sys.perturbation,
                                samples.group, samples.elements)
    return [replace(runner(replace(problem_template,
                                   seed=np.asarray(seed, dtype=float),
                                   seed_id=i)),
                    reduced_gradient=float(np.linalg.norm(point.gradient)),
                    reduced_distance=point.distance)
            for i, (seed, point) in enumerate(zip(samples.states, points))]


# distinct_results compares position curves at N_CURVE times over one period
N_CURVE = 64


def distinct_results(results):
    """Deduplicate accepted results by pairwise trajectory sup-distance.

    Two solutions count as the same when their position curves stay within
    10x the residual scale of each other.
    """
    accepted = [r for r in results if r.accepted and r.trajectory is not None]
    if not accepted:
        return []
    scale = max(10.0 * max(r.residual for r in accepted), 1e-7)
    reps = []
    for r in accepted:
        dim = np.asarray(r.z0).size // 2
        curve = r.trajectory(np.linspace(0.0, r.period, N_CURVE))[:, :dim]
        dup = False
        for _, c in reps:
            if c.shape == curve.shape and np.max(np.linalg.norm(c - curve, axis=1)) <= scale:
                dup = True
                break
        if not dup:
            reps.append((r, curve))
    return [r for r, _ in reps]
