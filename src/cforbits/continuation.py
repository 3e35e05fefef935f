"""Shooting continuation of unperturbed periodic orbits into the
electromagnetically perturbed system.

Fixed-period: damped Gauss-Newton on the time-T return map mismatch, period
pinned by the (resonant) time-dependent forcing.  Fixed-energy: the period
joins the unknowns; the system gains an energy row and a phase row that
removes time-translation freedom, and is solved in the least-squares sense.
The unperturbed shooting Jacobian is singular along the manifold of rotated
and time-shifted copies, so the continuation starts at a small positive
epsilon and grows it geometrically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import CollisionError
from .flow import integrate, integrate_with_variational, symplectic_matrix
from .model import HamiltonianSystem
from .orbit import ManifoldSample

__all__ = [
    "ShootingProblem",
    "ContinuationResult",
    "eps_path",
    "continue_fixed_period",
    "continue_fixed_energy",
    "distance_to_manifold",
    "multistart",
    "distinct_results",
]

RESIDUAL_TOL = 1e-9
ENERGY_TOL = 1e-10
DEFAULT_MAX_NEWTON = 25
# a rung stalls once its residual has not fallen by STALL_FACTOR over its
# last STALL_STEPS accepted steps; converging paths fall far faster
STALL_STEPS = 3
STALL_FACTOR = 2.0


@dataclass(frozen=True)
class ShootingProblem:
    """One continuation task: a perturbed system, a mode, and a seed.

    mode "fixed_period" keeps T fixed (the forcing period must divide it);
    mode "fixed_energy" solves for (z0, T) on the level set H = h and
    requires an autonomous perturbation.
    """

    sys: HamiltonianSystem
    mode: str  # fixed_period | fixed_energy
    seed: np.ndarray
    T: float
    h: float | None = None
    phase_anchor: np.ndarray | None = None
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
    accepted: bool
    reason: str
    z0: np.ndarray
    period: float
    eps: float
    residual: float
    energy_residual: float
    phase_residual: float
    newton_iters: int
    seed_id: int
    trajectory: object = None
    distance: float | None = None
    distance_element: tuple | None = None
    # one (eps, lam, trial residual, accepted) entry per Newton trial; the
    # trial residual is inf when the trial step was not shot
    history: tuple = ()


def eps_path(eps_target: float, eps_start: float = 1e-4,
             factor: float = math.sqrt(10.0)):
    """Geometric epsilon ladder from eps_start up to eps_target."""
    if eps_target <= 0:
        raise ValueError("eps_target must be positive")
    if eps_target <= eps_start:
        return [eps_target]
    path = [eps_start]
    while path[-1] * factor < eps_target * 0.999:
        path.append(path[-1] * factor)
    path.append(eps_target)
    return path


def _lm_step(Jac, R, lam):
    # least-squares Levenberg-Marquardt step for (possibly) rectangular Jac
    m, n = Jac.shape
    A = np.vstack([Jac, math.sqrt(lam) * np.eye(n)])
    b = np.concatenate([-R, np.zeros(n)])
    step, *_ = np.linalg.lstsq(A, b, rcond=None)
    return step


def _stalled(first, trials):
    """Whether a rung's residual, from its first shot through its accepted
    trials, failed to fall by STALL_FACTOR over the last STALL_STEPS
    accepted steps."""
    path = [first] + [r for _, _, r, ok in trials if ok]
    return (len(path) > STALL_STEPS
            and path[-1] > path[-1 - STALL_STEPS] / STALL_FACTOR)


def _continue(problem: ShootingProblem, eps_ladder, max_newton, tol):
    """One damped Gauss-Newton ladder over the unknowns u = z0 (fixed
    period) or u = (z0, T) (fixed energy), then an independent re-check.

    Never raises on stagnation, the damping floor or a collision: each ends
    in a rejected result whose ``reason`` names it and whose ``residual``
    and ``newton_iters`` are the last ones reached (residual inf when the
    rung's first shot collided).  A rung that has not converged ends as
    stagnation after ``max_newton`` trials, or as soon as an accepted step
    leaves it stalled (``_stalled``); a converged rung is never stalled.
    """
    fe = problem.mode == "fixed_energy"
    target_eps = problem.sys.perturbation.eps
    ladder = list(eps_ladder) if eps_ladder is not None else eps_path(target_eps)
    z0 = np.asarray(problem.seed, dtype=float).copy()
    n = z0.size
    u = np.append(z0, problem.T) if fe else z0
    h = problem.h
    anchor = (np.asarray(problem.phase_anchor, dtype=float)
              if problem.phase_anchor is not None else z0.copy())
    J = symplectic_matrix(problem.sys.dim)
    res = np.inf
    history = []  # (eps, lam, trial residual, accepted) per Newton trial
    scale = 1.0 + np.linalg.norm(z0)

    def period(u):
        return u[n] if fe else problem.T

    def shoot(sys, u):
        z, T = u[:n], period(u)
        zT, fm = integrate_with_variational(sys, z, 0.0, T, tol=tol)
        R = zT - z
        Jac = fm.value - np.eye(n)
        if fe:
            # energy row, and a phase row: step orthogonal to the flow
            # direction at the anchor; T joins the unknowns
            vstar = sys.vector_field(0.0, anchor)
            R = np.concatenate([R, [sys.hamiltonian(0.0, z) - h,
                                    float(vstar @ (z - anchor))]])
            gradH = J @ sys.vector_field(0.0, z)
            Jac = np.vstack([np.column_stack([Jac, sys.vector_field(T, zT)]),
                             np.append(gradH, 0.0), np.append(vstar, 0.0)])
        return R, Jac

    def reject(why, eps, res):
        return ContinuationResult(
            False, f"{why} at eps={eps:g}", u[:n], period(u), eps, res,
            np.inf, np.inf if fe else 0.0, len(history), problem.seed_id,
            history=tuple(history))

    for eps in ladder:
        sys = problem.sys.with_eps(eps)
        lam = 1e-8
        try:
            R, Jac = shoot(sys, u)
        except CollisionError:
            return reject("collision", eps, np.inf)
        res = np.linalg.norm(R)
        first, rung = res, len(history)
        for _ in range(max_newton):
            if res <= RESIDUAL_TOL * scale:
                break
            u_try = u + _lm_step(Jac, R, lam)
            if fe and u_try[n] <= 0.1 * problem.T:
                history.append((eps, lam, np.inf, False))
                lam *= 10.0
                continue
            try:
                R2, Jac2 = shoot(sys, u_try)
            except CollisionError:
                history.append((eps, lam, np.inf, False))
                lam *= 10.0
                continue
            res2 = np.linalg.norm(R2)
            history.append((eps, lam, float(res2), bool(res2 < res)))
            if res2 < res:
                u, R, Jac, res = u_try, R2, Jac2, res2
                lam = max(lam / 10.0, 1e-12)
                if (res > RESIDUAL_TOL * scale
                        and _stalled(first, history[rung:])):
                    return reject("stagnation", eps, res)
            else:
                lam *= 10.0
                if lam > 1e8:
                    return reject("damping floor", eps, res)
        if res > RESIDUAL_TOL * scale:
            return reject("stagnation", eps, res)
    # independent closure re-check at tighter tolerance
    sys = problem.sys.with_eps(target_eps)
    z0, T = u[:n], period(u)
    try:
        traj = integrate(sys, z0, 0.0, T, tol=1e-12)
    except CollisionError:
        return reject("collision in re-check", target_eps, res)
    close = float(np.linalg.norm(traj(T) - z0))
    ok = bool(close <= 10.0 * RESIDUAL_TOL * scale)
    reason = f"re-check failed: closure {close:.3g}"
    en, ph = np.inf, 0.0
    if fe:
        en = abs(float(sys.hamiltonian(0.0, z0)) - h)
        # energy conservation along the whole orbit
        ts = np.linspace(0.0, T, 200)
        drift = max(abs(float(sys.hamiltonian(t, z)) - h)
                    for t, z in zip(ts, traj(ts)))
        vstar = sys.vector_field(0.0, anchor)
        ph = abs(float(vstar @ (z0 - anchor)))
        ok = ok and en <= ENERGY_TOL and drift <= 1e-9
        reason += f", energy {en:.3g}, drift {drift:.3g}"
    return ContinuationResult(
        ok, "ok" if ok else reason, z0, T, target_eps, close, en, ph,
        len(history), problem.seed_id, trajectory=traj,
        history=tuple(history))


def continue_fixed_period(problem: ShootingProblem, eps_ladder=None,
                          max_newton: int = DEFAULT_MAX_NEWTON,
                          tol: float = 1e-12) -> ContinuationResult:
    """Continue the seed into a T-periodic solution of the perturbed system."""
    return _continue(replace(problem, mode="fixed_period"), eps_ladder,
                     max_newton, tol)


def continue_fixed_energy(problem: ShootingProblem, eps_ladder=None,
                          max_newton: int = DEFAULT_MAX_NEWTON,
                          tol: float = 1e-12) -> ContinuationResult:
    """Continue the seed into a periodic solution on the energy level h,
    solving for the initial state and the period jointly."""
    return _continue(replace(problem, mode="fixed_energy"), eps_ladder,
                     max_newton, tol)


# --- closeness certification ---

# the certificate compares positions at N_SAMPLES times over one period and
# scans N_SHIFTS time shifts of one radial period before its bounded search
N_SAMPLES = 96
N_SHIFTS = 64


def distance_to_manifold(result: ContinuationResult,
                         samples: ManifoldSample) -> ContinuationResult:
    """Distance of a continued solution to the manifold of rotated and
    time-shifted copies of the base orbit, as a sup-norm over positions.

    For a time shift theta the rotation is the least-squares (Procrustes)
    fit of the base positions at t - theta onto the solution's, kept proper
    except in the O3 group, and theta is scored by the sup-norm at that
    rotation.  theta is minimised over one radial period tau, first on a
    grid and then by a bounded scalar search: shifting the base orbit by tau
    rotates it by 2 pi k/n, which every group contains.  The result is an
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
    proper = samples.group != "O3"

    def fit(theta):
        Y = np.zeros_like(X)
        Y[:, :orbit.dim] = orbit.states(ts - theta)[:, :orbit.dim]
        U, _, Vt = np.linalg.svd(X.T @ Y)
        if proper and np.linalg.det(U @ Vt) < 0:
            U[:, -1] = -U[:, -1]
        M = U @ Vt
        return float(np.max(np.linalg.norm(X - Y @ M.T, axis=1))), M

    step = orbit.profile.tau / N_SHIFTS
    scores = [fit(step * i)[0] for i in range(N_SHIFTS)]
    th0 = step * int(np.argmin(scores))
    best = minimize_scalar(lambda s: fit(th0 + s)[0], bounds=(-step, step),
                           method="bounded", options={"xatol": 1e-12})
    theta = th0 + best.x if best.fun < min(scores) else th0
    d, M = fit(theta)
    return replace(result, distance=d, distance_element=(M, theta))


# --- multi-start ---

def multistart(problem_template: ShootingProblem, samples: ManifoldSample,
               eps_ladder=None, max_newton: int = DEFAULT_MAX_NEWTON,
               tol: float = 1e-12):
    """Run one continuation per manifold sample; returns all results in
    sample order."""
    runner = (continue_fixed_period if problem_template.mode == "fixed_period"
              else continue_fixed_energy)
    return [runner(replace(problem_template, seed=np.asarray(seed, dtype=float),
                           seed_id=i), eps_ladder, max_newton, tol)
            for i, seed in enumerate(samples.states)]


def distinct_results(results, scale: float | None = None, n_t: int = 64):
    """Deduplicate accepted results by pairwise trajectory sup-distance.

    Two solutions count as the same when their position curves stay within
    10x the residual scale of each other.
    """
    accepted = [r for r in results if r.accepted and r.trajectory is not None]
    if not accepted:
        return []
    if scale is None:
        scale = max(10.0 * max(r.residual for r in accepted), 1e-7)
    reps = []
    for r in accepted:
        dim = np.asarray(r.z0).size // 2
        curve = r.trajectory(np.linspace(0.0, r.period, n_t))[:, :dim]
        dup = False
        for _, c in reps:
            if c.shape == curve.shape and np.max(np.linalg.norm(c - curve, axis=1)) <= scale:
                dup = True
                break
        if not dup:
            reps.append((r, curve))
    return [r for r, _ in reps]
