"""Time integration of the Hamiltonian systems and their variational
(linearized) equations.

Uses an explicit adaptive Runge-Kutta scheme of order 8(5,3) (DOP853)
rather than a symplectic fixed-step method: monodromy accuracy needs tight
local error control and variational-equation coupling, and the symplectic
residual is monitored instead of enforced.  Every solve goes through
``solve_ivp`` with ``_DOP853``: SciPy's DOP853 step arithmetic, in SciPy's
order, on the raw right-hand side, so steps, states and interpolants are
SciPy's bit for bit.  The collision floor is checked at the end of every
accepted step, and ``CollisionError`` reports the end of the step that
crossed it, not an event time found by root-finding.  Any other early end
(a step size below the spacing of the floats) raises its base class
``IntegrationError``.  Plain trajectories carry DOP853's dense output, but
each step's interpolant, which costs three more right-hand-side evaluations,
is built by SciPy's own method the first time a time in that step is read:
a step nobody reads costs nothing, and ``nfev`` counts only the calls made
during the solve.  A ``Trajectory`` keeps the coefficients of the steps it
has built stacked, and evaluates all the times of a call in one vectorized
pass over them, with SciPy's choice of step and SciPy's Horner order, so
each value is that of SciPy's ``OdeSolution`` bit for bit.  ``endpoint``
and variational solves return only their end point.  A shooting trial needs
only the state from ``endpoint``, which integrates (z, t) in Sundman's time
s of dt/ds = |x| (Sundman, Acta Math. 36 (1912); Hairer, Lubich & Wanner,
*Geometric Numerical Integration*, VIII.2), where the steps that t crowds
around perigee spread out: a half-period shot of an eccentric orbit takes
about a quarter fewer right-hand-side calls at the same accuracy.  The
solver stops it on the step where t passes t1, at the root of t(s) = t1
on that step's interpolant, as SciPy ends a solve on a terminal event, so
the shot is SciPy's DOP853 on the system in s bit for bit.  Dense and
variational solves stay in t: in s a variational solve was no faster and
less accurate, and dense half cycles less accurate on eccentric orbits.
The variational solve (2d + 4d^2 components) runs only where a Newton
step uses a new Jacobian.  Every solve
runs at ``DEFAULT_TOL`` unless its caller says otherwise: ``integrate``
takes a tighter ``tol`` for reference solutions, ``endpoint`` a tighter one
for the half-period shots of the symmetric shooting path, and
``integrate_with_variational`` a looser one for a Jacobian that only steers
a Newton step far from convergence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import DOP853, solve_ivp
from scipy.integrate._ivp.base import ConstantDenseOutput
from scipy.integrate._ivp.ivp import solve_event_equation
from scipy.integrate._ivp.rk import MAX_FACTOR, MIN_FACTOR, SAFETY

from .errors import CollisionError, IntegrationError
from .model import HamiltonianSystem

__all__ = [
    "Trajectory",
    "symplectic_matrix",
    "symplectic_residual",
    "variational_matrix",
    "integrate",
    "endpoint",
    "integrate_with_variational",
]

DEFAULT_TOL = 1e-12
COLLISION_FLOOR = 1e-8


def symplectic_matrix(d: int):
    """Standard symplectic matrix J = [[0, -I], [I, 0]] for d degrees of freedom."""
    I, O = np.eye(d), np.zeros((d, d))
    return np.block([[O, -I], [I, O]])


# J^T per dimension, made once; read-only, as every call shares it
_JT = {d: symplectic_matrix(d).T.copy() for d in (2, 3)}
for _M in _JT.values():
    _M.flags.writeable = False


def variational_matrix(sys: HamiltonianSystem, t: float, z):
    """J^T Hess(t, z), the matrix A of the variational equation W' = A W:
    J w' = Hess w, and J^-1 = J^T."""
    return _JT[sys.dim] @ sys.hessian(t, z)


def symplectic_residual(W) -> float:
    """Frobenius norm of W^T J W - J; zero for a symplectic matrix."""
    J = symplectic_matrix(W.shape[0] // 2)
    return float(np.linalg.norm(W.T @ J @ W - J))


@dataclass(frozen=True)
class Trajectory:
    """Dense solution over [t0, t1]; calling it evaluates the interpolant.

    A time t gives a state of shape (n,), an array of m times an (m, n)
    array.  Every call is one pass over all its times: the step of each is
    found as SciPy's ``OdeSolution`` finds it (the earlier step at a step
    boundary, the first or last step outside [t0, t1]), and each step's
    DOP853 polynomial is evaluated in SciPy's Horner order from the stacked
    coefficients of ``_steps``, so the values are SciPy's bit for bit.
    """

    t0: float
    t1: float
    _sol: object = None  # the solve's OdeSolution: steps and snapshots
    _steps: "_StepStack" = field(default=None, init=False, repr=False,
                                 compare=False)

    def __call__(self, t):
        t = np.asarray(t)
        ts = t.reshape(-1)  # a scalar is a batch of one
        sol = self._sol
        seg = np.searchsorted(sol.ts_sorted, ts, side=sol.side) - 1
        np.clip(seg, 0, sol.n_segments - 1, out=seg)
        if not sol.ascending:
            seg = sol.n_segments - 1 - seg
        first = sol.interpolants[0]
        if isinstance(first, ConstantDenseOutput):
            # a solve over an empty interval: SciPy's constant interpolant
            y = np.tile(first.value, (ts.size, 1))
        else:
            if self._steps is None:
                object.__setattr__(self, "_steps",
                                   _StepStack(sol.interpolants))
            F, t_old, h, y_old = self._steps.rows(seg)
            # Dop853DenseOutput._call_impl, for every time at once
            x = ((ts - t_old) / h)[:, None]
            y = np.zeros(y_old.shape)
            for i, f in enumerate(reversed(F)):
                y += f
                if i % 2 == 0:
                    y *= x
                else:
                    y *= 1 - x
            y += y_old
        return y[0] if t.ndim == 0 else y


class _StepStack:
    """The DOP853 interpolants of a solve's steps, stacked: F[:, j], t_old[j],
    h[j] and y_old[j] are step j's coefficients, start, length and start
    state (SciPy's ``Dop853DenseOutput``), made by SciPy's
    ``DOP853._dense_output_impl`` from the snapshot ``interpolants[j]``
    when a time in step j is first read; the snapshot is then dropped
    from that list, the ``OdeSolution``'s."""

    def __init__(self, interpolants):
        m = len(interpolants)
        self.interpolants = interpolants
        self.t_old, self.h = np.empty(m), np.empty(m)
        self.built = np.zeros(m, dtype=bool)
        self.F = self.y_old = None  # sized at the first step built

    def rows(self, seg):
        """(F, t_old, h, y_old) of the steps ``seg``, one row per entry,
        after building the interpolants of those not built yet."""
        new = seg[~self.built[seg]]
        if new.size:
            for j in np.unique(new):
                dense = DOP853._dense_output_impl(self.interpolants[j])
                self.interpolants[j] = None
                if self.F is None:
                    m, n = self.built.size, dense.y_old.size
                    self.F = np.empty((dense.F.shape[0], m, n))
                    self.y_old = np.empty((m, n))
                self.F[:, j], self.y_old[j] = dense.F, dense.y_old
                self.t_old[j], self.h[j] = dense.t_old, dense.h
                self.built[j] = True
        return self.F[:, seg], self.t_old[seg], self.h[seg], self.y_old[seg]


# message prefix of a solve that ended on the collision floor
COLLIDED = "|x| fell below the collision floor"


class _DOP853(DOP853):
    """SciPy's DOP853 stepped on the raw right-hand side.

    ``_step_impl`` repeats the arithmetic of ``scipy.integrate.DOP853`` in
    its order (Hairer, Norsett & Wanner, *Solving ODEs I*, II.10), so a
    solve takes SciPy's steps and gives its states bit for bit.  It calls
    the right-hand side without SciPy's two wrapper layers and counts
    ``nfev`` itself, and keeps t, h and the error norms as Python floats.
    No caller bounds the step, so ``max_step`` is not read.  Dense output
    is SciPy's own, built from the state ``_step_impl`` leaves, but only
    when it is first read (``_DeferredDenseOutput``, ``_StepStack``).

    ``dim`` leading components are the position x.  At the end of every
    accepted step, g = |x| - COLLISION_FLOOR is compared with its value at
    the previous step end (at t0 for the first): g_old >= 0 and g_new <= 0,
    the sign rule of a terminal event of direction -1, ends the solve as
    failed with a ``COLLIDED`` message that names the step's end time.

    With ``t_stop``, the last component is the time t of a solve in
    Sundman's s (``endpoint``): the step whose end passes t = t_stop ends
    the solve as finished, at the root of t(s) = t_stop on the step's
    interpolant, which SciPy's own method builds (its three RHS calls
    count in ``nfev``) and SciPy's event root search solves, as for a
    terminal event; a collision message names t, not s.
    """

    def __init__(self, fun, t0, y0, t_bound, dim, t_stop=None, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self._rhs = fun
        self._dim = dim
        self._t_stop = t_stop
        self._g = self._gap(self.y)
        self.h_abs = float(self.h_abs)
        self.direction = float(self.direction)
        K = self.K_extended
        # (s, K[:s].T, A[s, :s], C[s]) per stage after the first: the views
        # SciPy slices at every stage, made once per solve
        self._stages = [(s, K[:s].T, self.A[s, :s], float(self.C[s]))
                        for s in range(1, self.n_stages)]
        self._KB = K[:self.n_stages].T  # K[:-1].T of SciPy's rk_step
        self._KE = self.K.T  # the stages the error estimate reads

    def _gap(self, y):
        x = y[:self._dim]
        return math.sqrt(x @ x) - COLLISION_FLOOR

    def _step_impl(self):
        t, y, f, rhs, K = self.t, self.y, self.f, self._rhs, self.K
        rtol, atol, direction = self.rtol, self.atol, self.direction
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP
            t_new = t + h_abs * direction
            if direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = abs(h)

            K[0] = f
            for s, Ks, a, c in self._stages:
                K[s] = rhs(t + c * h, y + np.dot(Ks, a) * h)
            y_new = y + h * np.dot(self._KB, self.B)
            f_new = rhs(t + h, y_new)
            K[-1] = f_new
            self.nfev += self.n_stages

            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = np.dot(self._KE, self.E5) / scale
            err3 = np.dot(self._KE, self.E3) / scale
            # np.linalg.norm(v)**2, which is sqrt(v @ v)**2
            err5_norm_2 = math.sqrt(err5 @ err5) ** 2
            err3_norm_2 = math.sqrt(err3 @ err3) ** 2
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                denom = err5_norm_2 + 0.01 * err3_norm_2
                error_norm = h_abs * err5_norm_2 / math.sqrt(denom * self.n)

            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR,
                                 SAFETY * error_norm ** self.error_exponent)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** self.error_exponent)
            rejected = True

        self.h_previous = h
        self.y_old = y
        self.t = t_new
        self.y = y_new
        self.h_abs = h_abs
        self.f = f_new
        stop = self._t_stop
        g = self._gap(y_new)
        if self._g >= 0 and g <= 0:
            end = t_new if stop is None else y_new[-1]
            return False, (f"{COLLIDED} {COLLISION_FLOOR:g} in the step "
                           f"ending at t = {end:.6g}")
        self._g = g
        if stop is not None and direction * (y_new[-1] - stop) >= 0:
            # the step passed t = t_stop: end the solve at the root of
            # t(s) = t_stop on the step's own interpolant, as SciPy ends one
            # on a terminal event
            self.t_old = t
            sol = DOP853._dense_output_impl(self)
            s = solve_event_equation(lambda s, y: y[-1] - stop, sol, t, t_new)
            self.t = self.t_bound = s
            self.y = sol(s)
        return True, None

    def _dense_output_impl(self):
        return _DeferredDenseOutput(self)


class _DeferredDenseOutput:
    """The state of one accepted step that SciPy's
    ``DOP853._dense_output_impl`` reads (the stages K[0..12], h, t_old, t,
    y_old, y and f), held in the solve's ``OdeSolution`` in the place of
    the step's interpolant.  ``_StepStack`` runs that method with it in the
    solver's place when a time in the step is first read, so the three
    extra stages and the interpolant are SciPy's bit for bit."""

    A_EXTRA, C_EXTRA, D = DOP853.A_EXTRA, DOP853.C_EXTRA, DOP853.D
    n_stages = DOP853.n_stages

    def __init__(self, solver):
        self.t_old, self.t = solver.t_old, solver.t
        # SciPy's method writes the extra stages into rows 13-15
        self.K_extended = solver.K_extended.copy()
        self.h_previous = solver.h_previous
        # a step makes y and f anew, but y_old of the first step may be the
        # caller's initial state
        self.y_old = solver.y_old.copy()
        self.y, self.f = solver.y, solver.f
        self.fun = solver._rhs
        self.n = solver.n


def _solve(sys: HamiltonianSystem, rhs, y0, t0, t1, tol, dense_output,
           **options):
    res = solve_ivp(rhs, (t0, t1), y0, method=_DOP853, rtol=tol, atol=tol,
                    dense_output=dense_output, dim=sys.dim, **options)
    if not res.success:
        if res.message.startswith(COLLIDED):
            raise CollisionError(res.message)
        raise IntegrationError(f"integration failed: {res.message}")
    return res


def integrate(sys: HamiltonianSystem, z0, t0: float, t1: float,
              tol: float = DEFAULT_TOL) -> Trajectory:
    """Integrate the phase flow from z0 over [t0, t1]."""
    res = _solve(sys, sys.vector_field, z0, t0, t1, tol, True)
    return Trajectory(t0, t1, res.sol)


def endpoint(sys: HamiltonianSystem, z0, t0: float, t1: float, *,
             tol: float = DEFAULT_TOL) -> np.ndarray:
    """State z(t1) of the phase flow from z0 at ``rtol = atol = tol``; no
    dense output is built.

    The solve runs in Sundman's time s of dt/ds = |x|, on the state (z, t)
    of ``sys.vector_field(t, z, sundman=True)``, over s in
    [0, (t1 - t0) / COLLISION_FLOOR]: while |x| stays above the floor, t
    passes t1 before s reaches that bound.  It ends on the step where t
    passes t1, at the root of t(s) = t1 on that step's interpolant.
    """
    field = sys.vector_field
    res = _solve(sys, lambda s, y: field(y[-1], y[:-1], True),
                 np.append(z0, t0), 0.0, (t1 - t0) / COLLISION_FLOOR, tol,
                 False, t_stop=t1)
    return res.y[:-1, -1].copy()


def integrate_with_variational(sys: HamiltonianSystem, z0, t0: float,
                               t1: float, *, tol: float = DEFAULT_TOL):
    """Jointly integrate the state and the 2d x 2d fundamental matrix W,
    the solution of W' = J^T Hess(t, z(t)) W with W(t0) = I (the generator
    is ``variational_matrix``), at ``rtol = atol = tol``.

    Returns ``(z(t1), W(t1))``; no dense output is built.
    """
    n = np.size(z0)

    def rhs(t, y):
        z, W = y[:n], y[n:].reshape(n, n)
        return np.concatenate((sys.vector_field(t, z),
                               (variational_matrix(sys, t, z) @ W).ravel()))

    y0 = np.concatenate([z0, np.eye(n).ravel()])
    res = _solve(sys, rhs, y0, t0, t1, tol, False)
    return res.y[:n, -1].copy(), res.y[n:, -1].reshape(n, n)
