"""Time integration of the Hamiltonian systems and their variational
(linearized) equations.

Uses an explicit adaptive Runge-Kutta scheme of order 8(5,3) (DOP853)
rather than a symplectic fixed-step method: monodromy accuracy needs tight
local error control and variational-equation coupling, and the symplectic
residual is monitored instead of enforced.  Plain trajectories carry DOP853's
dense output.  ``endpoint`` and variational solves return only their end
point, since the interpolant costs three more right-hand-side evaluations per
step.  A shooting trial needs only the state from ``endpoint``; the
variational solve (2d + 4d^2 components) runs only where a Newton step uses
the Jacobian.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import CollisionError
from .model import HamiltonianSystem

__all__ = [
    "Trajectory",
    "symplectic_matrix",
    "symplectic_residual",
    "integrate",
    "endpoint",
    "integrate_with_variational",
]

DEFAULT_TOL = 1e-12
COLLISION_FLOOR = 1e-8


def symplectic_matrix(d: int):
    """Standard symplectic matrix J = [[0, -I], [I, 0]] for d degrees of freedom."""
    J = np.zeros((2 * d, 2 * d))
    J[:d, d:] = -np.eye(d)
    J[d:, :d] = np.eye(d)
    return J


def symplectic_residual(W) -> float:
    """Frobenius norm of W^T J W - J; zero for a symplectic matrix."""
    J = symplectic_matrix(W.shape[0] // 2)
    return float(np.linalg.norm(W.T @ J @ W - J))


@dataclass(frozen=True)
class Trajectory:
    """Dense solution over [t0, t1]; calling it evaluates the interpolant."""

    times: np.ndarray
    t0: float
    t1: float
    _sol: object = None

    def __call__(self, t):
        y = np.asarray(self._sol(t))
        return y if y.ndim == 1 else y.T


def _solve(sys: HamiltonianSystem, rhs, y0, t0, t1, tol, collision_floor,
           dense_output):
    d = sys.dim

    def collision(t, y):
        return np.linalg.norm(y[:d]) - collision_floor

    collision.terminal = True
    collision.direction = -1

    res = solve_ivp(
        rhs, (t0, t1), y0, method="DOP853",
        rtol=tol, atol=tol, dense_output=dense_output, events=collision,
    )
    if res.status == 1:
        raise CollisionError(
            f"|x| fell below the collision floor {collision_floor:g} "
            f"at t = {res.t_events[0][0]:.6g}"
        )
    if not res.success:
        raise RuntimeError(f"integration failed: {res.message}")
    return res


def integrate(sys: HamiltonianSystem, z0, t0: float, t1: float,
              tol: float = DEFAULT_TOL,
              collision_floor: float = COLLISION_FLOOR) -> Trajectory:
    """Integrate the phase flow from z0 over [t0, t1]."""
    z0 = np.asarray(z0, dtype=float)
    res = _solve(sys, sys.vector_field, z0, t0, t1, tol, collision_floor, True)
    return Trajectory(res.t, t0, t1, res.sol)


def endpoint(sys: HamiltonianSystem, z0, t0: float, t1: float) -> np.ndarray:
    """State z(t1) of the phase flow from z0; no dense output is built."""
    z0 = np.asarray(z0, dtype=float)
    res = _solve(sys, sys.vector_field, z0, t0, t1, DEFAULT_TOL,
                 COLLISION_FLOOR, False)
    return res.y[:, -1].copy()


def integrate_with_variational(sys: HamiltonianSystem, z0, t0: float, t1: float,
                               tol: float = DEFAULT_TOL,
                               collision_floor: float = COLLISION_FLOOR):
    """Jointly integrate the state and the 2d x 2d fundamental matrix W,
    the solution of W' = J^{-1} Hess(z(t)) W with W(t0) = I.

    Returns ``(z(t1), W(t1))``; no dense output is built.
    """
    z0 = np.asarray(z0, dtype=float)
    n = z0.size
    d = sys.dim

    HW = np.empty((n, n))  # scratch for Hess W, reused by every evaluation

    def rhs(t, y):
        z = y[:n]
        out = np.empty(n + n * n)
        out[:n] = sys.vector_field(t, z)
        # J w' = Hess w  =>  w' = -J Hess w, i.e. the p-rows of Hess W on
        # top and the negated x-rows below
        np.matmul(sys.hessian(t, z), y[n:].reshape(n, n), out=HW)
        dW = out[n:].reshape(n, n)
        dW[:d] = HW[d:]
        np.negative(HW[:d], out=dW[d:])
        return out

    y0 = np.concatenate([z0, np.eye(n).ravel()])
    res = _solve(sys, rhs, y0, t0, t1, tol, collision_floor, False)
    return res.y[:n, -1].copy(), res.y[n:, -1].reshape(n, n)
