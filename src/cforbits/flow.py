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
``IntegrationError``.

``integrate`` and ``endpoint`` integrate (z, t) in Sundman's time s of
dt/ds = |x| (Sundman, Acta Math. 36 (1912); Hairer, Lubich & Wanner,
*Geometric Numerical Integration*, VIII.2), where the steps that t crowds
around perigee spread out: the half radial cycles of the resonance survey
take 40% fewer right-hand-side calls, and a half-period shot a quarter
fewer, at the same accuracy.  The solver stops on the step where t passes
t1, at the root of t(s) = t1 on that step's interpolant, as SciPy ends a
solve on a terminal event, so each is SciPy's DOP853 on the system in s
bit for bit; ``endpoint`` is ``integrate`` without dense output, and
returns its end state.
``integrate`` returns a ``Trajectory``, read at physical times: it finds
each time's step from the values of t at the step ends and solves
t(s) = t on that step's interpolant.  It builds each step's interpolant,
which costs three more right-hand-side evaluations, by SciPy's own method
the first time a time in that step is read (the stop step's is built by
the solve): a step nobody reads costs nothing, and ``nfev`` counts only
the calls made during the solve.  It keeps the coefficients of the steps
it has built stacked, and evaluates all the times of a call in one
vectorized pass over them in SciPy's Horner order, so each value is
SciPy's ``OdeSolution``'s at its s bit for bit.  The variational solve
stays in t (in s it was no faster and less accurate) and returns only its
end point; it integrates 2d + 4d^2 components and runs only where a
Newton step uses a new Jacobian.  Every solve runs at ``DEFAULT_TOL``
unless its caller says otherwise: ``integrate`` takes a tighter ``tol``
for reference solutions, ``endpoint`` a tighter one for the half-period
shots of the symmetric shooting path, and ``integrate_with_variational`` a
looser one for a Jacobian that only steers a Newton step far from
convergence.
"""
from __future__ import annotations

import math

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
# a Trajectory read's root of t(s) = t: each time's Newton iteration stops
# after a step below the square root of the float spacing at 1 in x (the
# error after it is of order its square), or after ROOT_STEPS steps
ROOT_STEPS = 8
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


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


class Trajectory:
    """Dense solution over [t0, t1] of a solve in Sundman's time s;
    calling it at physical times evaluates the interpolant.

    A time t gives a state of shape (n,), an array of m times an (m, n)
    array.  Every call is one pass over all its times.  The step of each
    is found from the values of t at the step ends as SciPy's
    ``OdeSolution`` finds a step from its ends (the earlier step at a step
    boundary, the first or last step outside [t0, t1]).  On that step, s
    solves t(s) = t on the step's own DOP853 polynomial (``_sundman_times``:
    Newton's method, to a few ulps of t; t1 itself reads the solve's stop
    root), and the state at s is evaluated on the step ``OdeSolution``
    reads at s (the same one, unless s rounds across the step's end) in
    SciPy's Horner order, so the values are SciPy's ``OdeSolution``'s at s
    bit for bit.  The steps' interpolants are stacked: ``_F[:, j]``,
    ``_t_old[j]``, ``_h[j]`` and ``_y_old[j]`` are step j's coefficients,
    start, length (in s) and start state (SciPy's ``Dop853DenseOutput``, t
    the last component), made by SciPy's ``DOP853._dense_output_impl``
    from the snapshot ``_sol.interpolants[j]`` when a time in step j is
    first read; the snapshot is then dropped from that list.  The stop
    step's interpolant is built during the solve, as SciPy builds it for a
    terminal event.
    """

    def __init__(self, t0: float, t1: float, sol, t_ends):
        self.t0, self.t1 = t0, t1
        self._sol = sol  # the solve's OdeSolution in s: steps and snapshots
        m = sol.n_segments
        # t at the step ends, sorted as the solve sorts its ends in s: t
        # runs the way s does
        self._t_sorted = t_ends if sol.ascending else t_ends[::-1]
        self._t_old, self._h = np.empty(m), np.empty(m)
        self._built = np.zeros(m, dtype=bool)
        self._F = self._y_old = None  # sized at the first step built

    def _build(self, seg):
        built = self._built[seg]
        if built.all():
            return
        snapshots = self._sol.interpolants
        for j in np.unique(seg[~built]):
            dense = snapshots[j]
            if isinstance(dense, _DeferredDenseOutput):
                dense = DOP853._dense_output_impl(dense)
            snapshots[j] = None
            if self._F is None:
                m, n = self._built.size, dense.y_old.size
                self._F = np.empty((dense.F.shape[0], m, n))
                self._y_old = np.empty((m, n))
            self._F[:, j], self._y_old[j] = dense.F, dense.y_old
            self._t_old[j], self._h[j] = dense.t_old, dense.h
            self._built[j] = True

    def _sundman_times(self, ts, seg):
        """The Sundman time s of each time t on its step seg: the root of
        t(s) = t on the step's DOP853 polynomial, by Newton's method from
        the cubic Hermite guess of x(t) (x = (s - t_old)/h) through the
        polynomial's ends and slopes (see ROOT_STEPS for where it stops).
        t1 takes the solve's stop root."""
        stop = ts == self.t1
        if stop.all():
            return np.full(ts.size, self._sol.ts[-1])
        F = self._F[:, seg, -1]
        # t(x) - t = d + P(x), P(0) = 0; P(1) = F[0], dP/dx = h f at the
        # step's ends, F[0] + F[1] and F[0] - F[1] - F[2]
        d = self._y_old[seg, -1] - ts
        m0, m1 = F[0] / (F[0] + F[1]), F[0] / (F[0] - F[1] - F[2])
        u = -d / F[0]
        x = u * (m0 + u * (3.0 - 2.0 * m0 - m1 + u * (m0 + m1 - 2.0)))
        # each time stops on its own test, so it gets the same bits alone
        # or in an array
        active = np.ones(ts.size, dtype=bool)
        for _ in range(ROOT_STEPS):
            # P and dP/dx in Dop853DenseOutput's Horner order
            p = dp = 0.0
            w = 1.0 - x
            for i, f in enumerate(reversed(F)):
                p = p + f
                if i % 2 == 0:
                    dp = dp * x + p
                    p = p * x
                else:
                    dp = dp * w - p
                    p = p * w
            dx = (d + p) / dp
            x = np.where(active, x - dx, x)
            active &= np.abs(dx) > _SQRT_EPS
            if not active.any():
                break
        return np.where(stop, self._sol.ts[-1],
                        self._t_old[seg] + x * self._h[seg])

    def _locate(self, ts):
        """The Sundman time s of each time in ts, solved on the step that
        its t falls in, and the step SciPy's ``OdeSolution`` reads at s
        (the same step but where s rounds across a step boundary),
        building the steps not built yet."""
        s = self._sundman_times(ts, self._steps(self._t_sorted, ts))
        return self._steps(self._sol.ts_sorted, s), s

    def _steps(self, ends, ts):
        """The step of each of the times ts, on a solve whose sorted step
        ends are ``ends``, as SciPy's ``OdeSolution`` chooses it for
        DOP853: the earlier step at a step boundary, the first or last
        step outside the solve; each is built if it is not yet."""
        sol, m = self._sol, self._sol.n_segments
        seg = np.searchsorted(ends, ts, side=sol.side) - 1
        np.clip(seg, 0, m - 1, out=seg)
        if not sol.ascending:
            seg = m - 1 - seg
        self._build(seg)
        return seg

    def __call__(self, t):
        t = np.asarray(t)
        ts = t.reshape(-1)  # a scalar is a batch of one
        snapshots = self._sol.interpolants
        if isinstance(snapshots[0], ConstantDenseOutput):
            # a solve over an empty interval: SciPy's constant interpolant
            y = np.tile(snapshots[0].value[:-1], (ts.size, 1))
            return y[0] if t.ndim == 0 else y
        seg, s = self._locate(ts)
        # Dop853DenseOutput._call_impl, for every time at once
        F, y_old = self._F[:, seg], self._y_old[seg]
        x = ((s - self._t_old[seg]) / self._h[seg])[:, None]
        y = np.zeros(y_old.shape)
        for i, f in enumerate(reversed(F)):
            y += f
            if i % 2 == 0:
                y *= x
            else:
                y *= 1 - x
        y += y_old
        y = y[:, :-1]
        return y[0] if t.ndim == 0 else y


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
    when it is first read (``_DeferredDenseOutput``, ``Trajectory``), but
    for the stop step's (below).

    ``dim`` leading components are the position x.  At the end of every
    accepted step, g = |x| - COLLISION_FLOOR is compared with its value at
    the previous step end (at t0 for the first): g_old >= 0 and g_new <= 0,
    the sign rule of a terminal event of direction -1, ends the solve as
    failed with a ``COLLIDED`` message that names the step's end time.

    With ``t_stop``, the last component is the time t of a solve in
    Sundman's s (``integrate``, ``endpoint``): the step whose end passes
    t = t_stop ends the solve as finished, at the root of t(s) = t_stop on
    the step's full-step interpolant, which SciPy's own method builds (its
    three RHS calls count in ``nfev``) and SciPy's event root search
    solves, as for a terminal event.  That interpolant is the stop step's
    dense output, as in SciPy's stock solve; it is kept before ``t`` and
    ``y`` move to the root.  A collision message names t, not s.
    """

    def __init__(self, fun, t0, y0, t_bound, dim, t_stop=None, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self._rhs = fun
        self._dim = dim
        self._t_stop = t_stop
        self._stop_output = None  # the stop step's interpolant
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
            # t(s) = t_stop on the step's own full-step interpolant, which
            # it keeps as its dense output, as SciPy ends one on a terminal
            # event
            self.t_old = t
            sol = self._stop_output = DOP853._dense_output_impl(self)
            s = solve_event_equation(lambda s, y: y[-1] - stop, sol, t, t_new)
            self.t = self.t_bound = s
            self.y = sol(s)
        return True, None

    def dense_output(self):
        # the stop step's interpolant, even where the root is the step's
        # start (SciPy's stock solve keeps it there too)
        if self._stop_output is not None:
            return self._stop_output
        return super().dense_output()

    def _dense_output_impl(self):
        return _DeferredDenseOutput(self)


class _DeferredDenseOutput:
    """The state of one accepted step that SciPy's
    ``DOP853._dense_output_impl`` reads (the stages K[0..12], h, t_old, t,
    y_old, y and f), held in the solve's ``OdeSolution`` in the place of
    the step's interpolant.  ``Trajectory`` runs that method with it in the
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


def _sundman_solve(sys: HamiltonianSystem, z0, t0, t1, tol, dense_output):
    """The solve of the flow from z0 over [t0, t1] in Sundman's time s of
    dt/ds = |x|, on the state (z, t) of ``sys.vector_field(t, z,
    sundman=True)``, over s in [0, (t1 - t0) / COLLISION_FLOOR]: while |x|
    stays above the floor, t passes t1 before s reaches that bound.  It
    ends on the step where t passes t1, at the root of t(s) = t1 on that
    step's interpolant."""
    field = sys.vector_field
    return _solve(sys, lambda s, y: field(y[-1], y[:-1], True),
                  np.append(z0, t0), 0.0, (t1 - t0) / COLLISION_FLOOR, tol,
                  dense_output, t_stop=t1)


def integrate(sys: HamiltonianSystem, z0, t0: float, t1: float,
              tol: float = DEFAULT_TOL) -> Trajectory:
    """Integrate the phase flow from z0 over [t0, t1] in Sundman's time,
    with dense output read at physical times (``Trajectory``)."""
    res = _sundman_solve(sys, z0, t0, t1, tol, True)
    return Trajectory(t0, t1, res.sol, res.y[-1])


def endpoint(sys: HamiltonianSystem, z0, t0: float, t1: float, *,
             tol: float = DEFAULT_TOL) -> np.ndarray:
    """State z(t1) of the phase flow from z0 at ``rtol = atol = tol``: the
    solve of ``integrate`` without dense output, so its end state is
    ``integrate(...)(t1)`` bit for bit."""
    return _sundman_solve(sys, z0, t0, t1, tol, False).y[:-1, -1].copy()


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
