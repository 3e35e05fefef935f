import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st
from scipy.integrate import solve_ivp

from cforbits import flow
from cforbits.errors import CollisionError
from cforbits.flow import (
    integrate,
    endpoint,
    integrate_with_variational,
    symplectic_matrix,
    symplectic_residual,
    variational_matrix,
)
from cforbits.model import (
    HamiltonianSystem,
    KineticLaw,
    Perturbation,
    Potential,
)
from cforbits.orbit import find_closed_orbit
from test_model import max_drift, vector_potential
from test_model_properties import (PROPERTY, coords, laws, perturbed_systems,
                                   potentials, vectors)


def harmonic_system(dim=2):
    # V = -r^2/2, H = p^2/2 + r^2/2: every orbit has period 2 pi
    return HamiltonianSystem(KineticLaw.classical(), Potential.harmonic(),
                             Perturbation.zero(), dim)


def kepler_system(dim=2):
    return HamiltonianSystem(KineticLaw.classical(), Potential.kepler(),
                             Perturbation.zero(), dim)


def step_times(traj):
    """Times of the accepted steps of a trajectory: the physical times t at
    the breakpoints of its piecewise interpolant, from t0 to t1."""
    ends = traj._t_sorted
    return ends if traj._sol.ascending else ends[::-1]


def physical_time_solve(sys, z0, t0, t1, tol):
    """SciPy's stock DOP853 in physical time t at rtol = atol = tol, with
    dense output and the collision floor as a terminal event: the reference
    for the solves in Sundman time."""
    return stock_solve_ivp(sys.vector_field, (t0, t1), z0, None, sys.dim,
                           rtol=tol, atol=tol, dense_output=True)


class TestSymplecticMatrix:
    def test_structure(self):
        J = symplectic_matrix(2)
        assert np.allclose(J @ J, -np.eye(4))
        assert np.allclose(J.T, -J)


class TestIntegrate:
    def test_harmonic_closed_form(self):
        sys = harmonic_system()
        z0 = np.array([1.0, 0.0, 0.0, 1.0])
        traj = integrate(sys, z0, 0.0, 2 * math.pi)
        for t in np.linspace(0.0, 2 * math.pi, 17):
            z = traj(t)
            assert np.allclose(z, [math.cos(t), math.sin(t),
                                   -math.sin(t), math.cos(t)], atol=1e-10)

    def test_vectorized_evaluation(self):
        sys = harmonic_system()
        traj = integrate(sys, [1.0, 0.0, 0.0, 1.0], 0.0, 1.0)
        ts = np.linspace(0.0, 1.0, 5)
        out = traj(ts)
        assert out.shape == (5, 4)

    def test_array_evaluation_matches_pointwise(self):
        # callers sample a trajectory once on a whole time grid; the dense
        # output is elementwise, so each row equals the call at its time
        sys = kepler_system()
        traj = integrate(sys, [2.0, 0.0, 0.0, 0.5], 0.0, 30.0)
        ts = np.concatenate([np.linspace(0.0, 30.0, 401), step_times(traj)])
        for t, z in zip(ts, traj(ts)):
            assert np.array_equal(z, traj(t))

    def test_collision_detected(self):
        sys = kepler_system()
        # radial infall: L = 0
        z0 = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(CollisionError):
            integrate(sys, z0, 0.0, 5.0)

    # SciPy raises an rtol below 100 machine epsilons to that floor
    @pytest.mark.filterwarnings("ignore:At least one element of `rtol`")
    def test_endpoint_is_the_trajectory_end(self):
        # the shot is the dense solve in Sundman time without its dense
        # output: the same steps and the same stop, so the same end bit for
        # bit.  It misses a tol-1e-14 solve in physical time by 4.5e-12
        sys = kepler_system()
        z0 = np.array([2.0, 0.0, 0.0, 0.5])
        z1 = endpoint(sys, z0, 0.0, 4.0)
        assert same_bits(z1, integrate(sys, z0, 0.0, 4.0)(4.0))
        ref = physical_time_solve(sys, z0, 0.0, 4.0, 1e-14)
        assert np.max(np.abs(z1 - ref.y[:, -1])) <= 5e-11
        zv, _ = integrate_with_variational(sys, z0, 0.0, 4.0)
        assert np.max(np.abs(z1 - zv)) <= 1e-10
        with pytest.raises(CollisionError):
            endpoint(sys, np.array([1.0, 0.0, 0.0, 0.0]), 0.0, 5.0)

    def test_invariant_drift_over_ten_periods(self):
        sys = kepler_system()
        z0 = np.array([2.0, 0.0, 0.0, 0.5])  # h = -3/8, L = 1
        T = 2 * math.pi * 0.75 ** -1.5
        traj = integrate(sys, z0, 0.0, 10 * T)
        energy, mom = max_drift(sys, traj)
        assert energy <= 1e-10
        assert np.all(mom <= 1e-10)


class TestVariational:
    def test_harmonic_monodromy_is_identity(self):
        sys = harmonic_system()
        z0 = np.array([1.0, 0.0, 0.0, 1.2])
        _, W = integrate_with_variational(sys, z0, 0.0, 2 * math.pi)
        assert np.allclose(W, np.eye(4), atol=1e-9)
        assert symplectic_residual(W) <= 1e-8

    def test_fundamental_matrix_vs_flow_differences(self):
        sys = kepler_system()
        z0 = np.array([2.0, 0.0, 0.0, 0.5])
        t1 = 3.0
        _, W = integrate_with_variational(sys, z0, 0.0, t1)
        d = 1e-6
        W_fd = np.zeros((4, 4))
        for i in range(4):
            e = np.zeros(4)
            e[i] = d
            zp = integrate(sys, z0 + e, 0.0, t1)(t1)
            zm = integrate(sys, z0 - e, 0.0, t1)(t1)
            W_fd[:, i] = (zp - zm) / (2 * d)
        assert np.max(np.abs(W - W_fd)) <= 1e-4

    def test_symplectic_residual_small(self):
        sys = kepler_system()
        z0 = np.array([2.0, 0.0, 0.0, 0.5])
        _, W = integrate_with_variational(sys, z0, 0.0, 20.0)
        assert symplectic_residual(W) <= 1e-8

    def test_perturbed_nonautonomous_variational(self):
        pert = Perturbation.uniform_electric((1.0, 0.0), 1e-3,
                                             profile="cosine", T_forcing=2.0)
        sys = HamiltonianSystem(KineticLaw.classical(), Potential.kepler(),
                                pert, 2)
        z0 = np.array([2.0, 0.0, 0.0, 0.5])
        _, W = integrate_with_variational(sys, z0, 0.0, 2.0)
        assert symplectic_residual(W) <= 1e-8

    def test_trajectory_endpoints(self):
        sys = kepler_system()
        z0 = np.array([2.0, 0.0, 0.0, 0.5])
        traj = integrate(sys, z0, 0.0, 4.0)
        assert np.allclose(traj(0.0), z0, atol=1e-12)
        assert traj.t0 == 0.0 and traj.t1 == 4.0


def reference_variational(sys, z0, t1, tol=1e-12):
    """Textbook joint RHS [z', (-J Hess W)] with a full 2d x 2d product and
    dense output, the end state read from the interpolant."""
    n = z0.size
    J = symplectic_matrix(sys.dim)

    def rhs(t, y):
        z, W = y[:n], y[n:].reshape(n, n)
        return np.concatenate([sys.vector_field(t, z),
                               (-J @ (sys.hessian(t, z) @ W)).ravel()])

    res = solve_ivp(rhs, (0.0, t1), np.concatenate([z0, np.eye(n).ravel()]),
                    method="DOP853", rtol=tol, atol=tol, dense_output=True)
    assert res.success
    return res.sol(t1)[:n], res.y[n:, -1].reshape(n, n)


LAWS = [KineticLaw.classical(), KineticLaw.relativistic(m=1.0, c=3.0)]
PERTURBED = [
    (Perturbation.zero(), np.array([2.0, 0.0, 0.0, 0.5])),
    (Perturbation.uniform_electric((0.3, -0.2), 1e-2, profile="cosine",
                                   T_forcing=2.0),
     np.array([2.0, 0.0, 0.0, 0.5])),
    (Perturbation.uniform_magnetic((0.2, -0.4, 1.0), 1e-2),
     np.array([2.0, 0.0, 0.3, 0.0, 0.5, 0.1])),
    (Perturbation.rotating_frame(1e-2), np.array([2.0, 0.0, 0.0, 0.5])),
]


class TestVariationalAgainstReference:
    @pytest.mark.parametrize("law", LAWS, ids=["classical", "relativistic"])
    @pytest.mark.parametrize("pert,z0", PERTURBED,
                             ids=["zero", "cosine_electric", "magnetic_3d",
                                  "rotating_frame"])
    def test_end_state_and_fundamental_matrix(self, law, pert, z0):
        sys = HamiltonianSystem(law, Potential.homogeneous(1.0, 0.5), pert,
                                z0.size // 2)
        t1 = 6.0
        z_ref, W_ref = reference_variational(sys, z0, t1)
        z1, W = integrate_with_variational(sys, z0, 0.0, t1)
        assert np.max(np.abs(z1 - z_ref)) <= 1e-10
        assert np.max(np.abs(W - W_ref)) <= 1e-10


# --- the variational generator J^T Hess ---

def shuffled_variational_rhs(sys, n):
    """The variational right-hand side as flow wrote it before
    ``variational_matrix``: Hess W into a scratch buffer, then its p-rows
    on top and its negated x-rows below (J w' = Hess w, so w' = -J Hess w).
    The reference that the one product A W must give bit for bit."""
    d = sys.dim
    HW = np.empty((n, n))

    def rhs(t, y):
        z = y[:n]
        out = np.empty(n + n * n)
        out[:n] = sys.vector_field(t, z)
        np.matmul(sys.hessian(t, z), y[n:].reshape(n, n), out=HW)
        dW = out[n:].reshape(n, n)
        dW[:d] = HW[d:]
        np.negative(HW[:d], out=dW[d:])
        return out

    return rhs


def variational_rhs(sys, z0):
    """The right-hand side that integrate_with_variational hands to
    ``flow.solve_ivp``, taken from a solve over an empty interval."""
    handed = []

    def recorder(fun, *args, **kwargs):
        handed.append(fun)
        return solve_ivp(fun, *args, **kwargs)

    with mock.patch.object(flow, "solve_ivp", recorder):
        integrate_with_variational(sys, z0, 0.0, 0.0)
    return handed[0]


def draw_state(data, pert, d, r_min, w_min, p_entries=coords):
    """x and p with |x| >= r_min and |p - A(x)| >= w_min, else reject."""
    x = data.draw(vectors(d))
    p = data.draw(vectors(d, p_entries))
    if (np.linalg.norm(x) < r_min
            or np.linalg.norm(p - vector_potential(pert, x)) < w_min):
        reject()
    return np.concatenate([x, p])


@settings(PROPERTY, max_examples=300)
@given(law=laws, V=potentials, d=st.sampled_from([2, 3]),
       t=st.floats(0.0, 10.0), data=st.data())
def test_variational_rhs_is_the_row_shuffle_bit_for_bit(law, V, d, t, data):
    # every kinetic law, potential kind, perturbation family and dimension,
    # at W = I (a solve's first call) and at a random W
    pert = data.draw(perturbed_systems(d))
    z = draw_state(data, pert, d, 0.1, 0.1)
    n = 2 * d
    W = data.draw(st.one_of(st.just(np.eye(n).ravel()), vectors(n * n)))
    sys = HamiltonianSystem(law, V, pert, d)
    y = np.concatenate([z, W])
    got = variational_rhs(sys, z)(t, y)
    want = shuffled_variational_rhs(sys, n)(t, y)
    # up to the sign of an exact zero, which adding +0 clears: where every
    # product of a row is zero, the product A W can sum to +0 where the
    # shuffle negates a +0 to -0.  A solve never sees it (below)
    assert same_bits(got + 0.0, want + 0.0)


def assert_solve_is_the_row_shuffles(sys, z0, t1):
    n = z0.size
    z1, W1 = integrate_with_variational(sys, z0, 0.0, t1)
    y0 = np.concatenate([z0, np.eye(n).ravel()])
    res = flow._solve(sys, shuffled_variational_rhs(sys, n), y0, 0.0, t1,
                      flow.DEFAULT_TOL, False)
    assert same_bits(z1, res.y[:n, -1])
    assert same_bits(W1, res.y[n:, -1].reshape(n, n))
    return W1


@settings(PROPERTY, max_examples=30)
@given(law=laws, V=potentials, d=st.sampled_from([2, 3]),
       t1=st.floats(0.05, 1.0), data=st.data())
def test_variational_solve_is_the_row_shuffles_bit_for_bit(law, V, d, t1,
                                                           data):
    # the draws of test_short_time_fundamental_matrix_is_symplectic, over
    # every perturbation family: no collision within t1
    pert = data.draw(perturbed_systems(d))
    z0 = draw_state(data, pert, d, 1.5, 1e-3, st.floats(-0.3, 0.3))
    if np.linalg.norm(z0[:d]) > 3.0:
        reject()
    assert_solve_is_the_row_shuffles(HamiltonianSystem(law, V, pert, d),
                                     z0, t1)


def test_exact_zero_blocks_keep_their_bits():
    # an orbit in the x1-x2 plane under a field along x3, as the spatial
    # continuation shoots it: the coupling blocks of W between (x1, x2, p1,
    # p2) and (x3, p3) stay exactly zero, where the signs of zero in the
    # right-hand side differ, and the solve still gives the shuffle's bits
    sys = HamiltonianSystem(KineticLaw.relativistic(m=1.0, c=3.0),
                            Potential.homogeneous(1.0, 0.5),
                            Perturbation.uniform_magnetic((0.0, 0.0, 1.0),
                                                          1e-2), 3)
    z0 = np.array([2.0, 0.0, 0.0, 0.0, 0.5, 0.0])
    W = assert_solve_is_the_row_shuffles(sys, z0, 6.0)
    plane, normal = [0, 1, 3, 4], [2, 5]
    assert same_bits(W[np.ix_(plane, normal)], np.zeros((4, 2)))
    assert same_bits(W[np.ix_(normal, plane)], np.zeros((2, 4)))


# central differences of step FD_STEP err by about FD_STEP^2 |f'''| / 6
# (truncation) plus 1e-16 |f| / FD_STEP (rounding); at |x| >= 0.5 and
# |p - A| >= 0.3 the largest error seen over 2,000 draws was 8.9e-10
# relative, a tenth of FD_TOL
FD_STEP = 1e-5
FD_TOL = 1e-8


@settings(PROPERTY, max_examples=200)
@given(law=laws, V=potentials, d=st.sampled_from([2, 3]),
       t=st.floats(0.0, 10.0), data=st.data())
def test_variational_matrix_is_the_derivative_of_the_vector_field(
        law, V, d, t, data):
    # the one test of the sign convention that flow's variational solve and
    # nondeg's perigee steps share: A = J^T Hess is Df, with f = J^T grad H
    pert = data.draw(perturbed_systems(d))
    z = draw_state(data, pert, d, 0.5, 0.3)
    delta = data.draw(vectors(2 * d, st.floats(-1.0, 1.0)))
    sys = HamiltonianSystem(law, V, pert, d)
    A = variational_matrix(sys, t, z)
    fd = (sys.vector_field(t, z + FD_STEP * delta)
          - sys.vector_field(t, z - FD_STEP * delta)) / (2.0 * FD_STEP)
    Ad = A @ delta
    assert np.max(np.abs(Ad - fd)) <= FD_TOL * (1.0 + np.max(np.abs(Ad)))


def test_variational_matrix_shares_one_read_only_J_transpose():
    for d in (2, 3):
        sys = harmonic_system(d)
        z = np.arange(1.0, 2 * d + 1.0)
        JT = flow._JT[d]
        assert not JT.flags.writeable
        assert np.array_equal(JT, symplectic_matrix(d).T)
        assert same_bits(variational_matrix(sys, 0.0, z),
                         JT @ sys.hessian(0.0, z))


# --- the shot in Sundman time ---

@settings(PROPERTY, max_examples=100)
@given(law=laws, V=potentials, d=st.sampled_from([2, 3]),
       t=st.floats(-5.0, 5.0), data=st.data())
def test_sundman_field_is_the_scaled_vector_field(law, V, d, t, data):
    # |x| f(t, z) and |x|, with r = |x| as the kernel forms it and each
    # product on the plain field's floats
    pert = data.draw(perturbed_systems(d))
    z = draw_state(data, pert, d, 0.1, 0.0)
    sys = HamiltonianSystem(law, V, pert, d)
    r = math.hypot(*z[:d])
    expected = np.append(r * sys.vector_field(t, z), r)
    assert same_bits(sys.vector_field(t, z, True), expected)


# the shot in s against a tol-1e-14 stock solve in t: at most 2.0 times
# farther from it than the stock solve in t at the shot's tol (or than tol
# itself, where that solve is closer) over this test's draws, and 26 times
# over 500 draws
# of the same strategies at tol 1e-12; the solve in t is the closer one on
# most draws (median 3.7e-14 against 2.5e-15 relative at tol 1e-12)
SUNDMAN_ERROR_RATIO = 100.0
# a shot in s that meets the collision floor where the solves in t step
# past it (7 of those 500 draws): the reference comes within 2.9e-5 of the
# centre at 20,001 times
NEAR_COLLISION = 1e-3


@settings(PROPERTY, max_examples=60)
@given(law=laws, V=potentials, d=st.sampled_from([2, 3]),
       t0=st.floats(-2.0, 2.0), span=st.floats(-3.0, 3.0),
       tol=st.sampled_from([flow.DEFAULT_TOL, 1e-13]), data=st.data())
def test_endpoint_against_a_physical_time_reference(law, V, d, t0, span, tol,
                                                    data):
    pert = data.draw(perturbed_systems(d))
    x = data.draw(vectors(d))
    p = data.draw(vectors(d, st.floats(-1.0, 1.0)))
    if (np.linalg.norm(x) < 0.5
            or np.linalg.norm(p - vector_potential(pert, x)) < 0.1):
        reject()
    sys = HamiltonianSystem(law, V, pert, d)
    z0, t1 = np.concatenate([x, p]), t0 + span
    ref = physical_time_solve(sys, z0, t0, t1, 1e-14)
    if ref.status != 0:
        # the shot fails too: a collision, or the step size in t
        with pytest.raises(RuntimeError):
            endpoint(sys, z0, t0, t1, tol=tol)
        return
    try:
        z1 = endpoint(sys, z0, t0, t1, tol=tol)
    except CollisionError:
        ts = np.linspace(t0, t1, 20001)
        assert np.min(np.linalg.norm(ref.sol(ts)[:d], axis=0)) <= NEAR_COLLISION
        return
    end = ref.y[:, -1]
    scale = 1.0 + np.max(np.abs(end))
    same_tol = physical_time_solve(sys, z0, t0, t1, tol)
    assert same_tol.status == 0
    in_t = np.max(np.abs(same_tol.y[:, -1] - end))
    assert np.max(np.abs(z1 - end)) <= SUNDMAN_ERROR_RATIO * max(
        in_t, tol * scale)


# --- flow's DOP853 subclass against SciPy's stock DOP853 ---

def stock_solve_ivp(fun, t_span, y0, method, dim, t_stop=None, **options):
    """The stock path: SciPy's own DOP853 through solve_ivp, with the
    collision floor as a terminal event of direction -1 and, for a shot in
    Sundman time, the stop at t(s) = ``t_stop`` (its last component) as a
    terminal event of either direction; ``method`` is flow's subclass and
    is set aside."""
    def collision(t, y):
        return np.linalg.norm(y[:dim]) - flow.COLLISION_FLOOR

    collision.terminal = True
    collision.direction = -1
    events = [collision]
    if t_stop is not None:
        def stop(s, y):
            return y[-1] - t_stop

        stop.terminal = True
        events.append(stop)
    return solve_ivp(fun, t_span, y0, method="DOP853", events=events,
                     **options)


def collided(stock):
    """Whether a stock solve ended on its collision event."""
    return stock.status == 1 and stock.t_events[0].size > 0


def through(solver, call):
    """``call()`` with ``flow.solve_ivp`` replaced by ``solver``; returns
    its value (or the CollisionError or other RuntimeError it raised) and
    every solve result.  A stock solve that ends on its collision event
    raises CollisionError."""
    results = []

    def recorder(*args, **kwargs):
        res = solver(*args, **kwargs)
        results.append(res)
        if collided(res):
            raise CollisionError("collision event")
        return res

    with mock.patch.object(flow, "solve_ivp", recorder):
        try:
            out = call()
        except RuntimeError as exc:
            out = exc
    return out, results


def assert_same_solve(new, stock, dense=False):
    """The same solve bit for bit: a finished one, or one that failed on
    the step size, takes the same steps and ends with the same message; one
    that collided stops on the step the stock event fired in, which is not
    in ``new.t``; a solve in Sundman time finishes at the stock stop
    event's root, with its state.  The RHS counts differ by exactly the
    three calls of each interpolant the stock path builds during the solve
    and flow's does not: with ``dense`` output, of every step but the stop
    step, whose interpolants flow builds only when they are read, and
    otherwise of the collision step, where the stock path builds one for
    its root search (both paths build the stop step's).  A solve over an
    empty interval takes one step of length 0, whose interpolant is a
    constant that costs no RHS call on either path."""
    assert len(new) == len(stock) == 1
    new, stock = new[0], stock[0]
    steps = np.count_nonzero(np.diff(stock.t))
    stopped = steps > 0 and stock.status == 1 and not collided(stock)
    built = steps - stopped if dense else int(collided(stock))
    assert new.nfev == stock.nfev - 3 * built
    if collided(stock):
        assert new.status == -1 and new.message.startswith(flow.COLLIDED)
        assert np.array_equal(new.t, stock.t[:-1])
        return
    if stock.status == 1:  # the stop
        assert new.status == 0
    else:
        assert new.status == stock.status
        assert new.message == stock.message
    assert np.array_equal(new.t, stock.t)
    assert np.array_equal(new.y, stock.y)


def assert_same_outcome(new, stock):
    if isinstance(stock, Exception):
        # a collision's message names the event or the step end
        assert type(new) is type(stock)
        assert isinstance(new, CollisionError) or str(new) == str(stock)
        return
    for a, b in zip(new if isinstance(new, tuple) else (new,),
                    stock if isinstance(stock, tuple) else (stock,)):
        assert np.array_equal(a, b)


# a read's root of t(s) = t, against the stock interpolant's t at that s:
# within READ_ULPS ulps of t (or of the step's start) plus dt/ds = |x|
# times READ_ULPS ulps of s, the float s's own resolution in t
READ_ULPS = 8


def stock_reads(traj, stock, ts):
    """The stock solve's states at the Sundman times s that ``traj``
    solves for at the times ts, from SciPy's ``OdeSolution``.  For the
    times in [t0, t1], t(s) is t within READ_ULPS ulps, but at t1, which
    reads the stop's root (SciPy's event root, within 4 machine epsilons
    (1 + |s|) in s).  A solve over an empty interval has SciPy's constant
    interpolant."""
    sol = stock.sol
    if traj.t0 == traj.t1:
        return sol(ts).T[:, :-1]
    seg, s = traj._locate(ts)
    y = sol(s).T
    inside = ((ts >= min(traj.t0, traj.t1)) & (ts <= max(traj.t0, traj.t1))
              & (ts != traj.t1))
    start = stock.y[-1, seg]
    r = np.linalg.norm(y[:, :(y.shape[1] - 1) // 2], axis=1)
    ulps = (np.spacing(np.maximum(np.abs(ts), np.abs(start)))
            + r * np.spacing(np.abs(s)))
    assert np.all(np.abs(y[:, -1] - ts)[inside] <= READ_ULPS * ulps[inside])
    return y[:, :-1]


def compare_to_stock(sys, z0, t0, t1):
    for call, dense in (
            (lambda: flow.endpoint(sys, z0, t0, t1), False),
            (lambda: flow.endpoint(sys, z0, t0, t1, tol=1e-13), False),
            (lambda: flow.integrate_with_variational(sys, z0, t0, t1), False),
            (lambda: flow.integrate(sys, z0, t0, t1), True)):
        out, new = through(solve_ivp, call)
        ref, stock = through(stock_solve_ivp, call)
        assert_same_solve(new, stock, dense)
        if dense and not isinstance(ref, Exception):
            # step ends in s and in t, and the interpolant on a grid, past
            # both ends too, against the stock solve at the trajectory's s
            stock = stock[0]
            assert np.array_equal(out._sol.ts, stock.sol.ts)
            assert np.array_equal(step_times(out), stock.y[-1])
            ts = np.linspace(t0 - 0.1 * (t1 - t0), t1 + 0.1 * (t1 - t0), 257)
            assert same_bits(out(ts), stock_reads(out, stock, ts))
            # the end is the stop's, which the shot returns
            assert same_bits(out(t1), stock.y[:-1, -1])
            assert same_bits(out(t1), flow.endpoint(sys, z0, t0, t1))
        else:
            assert_same_outcome(out, ref)


@settings(PROPERTY, max_examples=40)
@given(law=laws, V=potentials, d=st.sampled_from([2, 3]),
       t0=st.floats(-2.0, 2.0), span=st.floats(-3.0, 3.0), data=st.data())
def test_steps_are_stock_dop853_bit_for_bit(law, V, d, t0, span, data):
    # every kinetic law, potential kind, perturbation family and dimension,
    # forward and backward in time
    pert = data.draw(perturbed_systems(d))
    x = data.draw(vectors(d))
    p = data.draw(vectors(d, st.floats(-1.0, 1.0)))
    if (np.linalg.norm(x) < 0.5
            or np.linalg.norm(p - vector_potential(pert, x)) < 0.1):
        reject()
    compare_to_stock(HamiltonianSystem(law, V, pert, d),
                     np.concatenate([x, p]), t0, t0 + span)


def same_bits(a, b):
    """Equal arrays, down to the sign of each zero."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


@settings(PROPERTY, max_examples=40)
@given(law=laws, V=potentials, d=st.sampled_from([2, 3]),
       t0=st.floats(-2.0, 2.0), span=st.floats(-3.0, 3.0), data=st.data())
def test_one_pass_evaluation_is_scipys_bit_for_bit(law, V, d, t0, span,
                                                   data):
    # every kinetic law, potential kind, perturbation family and dimension,
    # forward and backward in time: a trajectory evaluated in one pass
    # equals the stock solve at the Sundman times it solves for, at random
    # times in and beyond [t0, t1], at every step boundary, and time by
    # time; so does a fresh one read time by time from the start, each
    # read building at most one step
    pert = data.draw(perturbed_systems(d))
    x = data.draw(vectors(d))
    p = data.draw(vectors(d, st.floats(-1.0, 1.0)))
    if (np.linalg.norm(x) < 0.5
            or np.linalg.norm(p - vector_potential(pert, x)) < 0.1):
        reject()
    sys = HamiltonianSystem(law, V, pert, d)
    z0, t1 = np.concatenate([x, p]), t0 + span
    for end in (t1, t0):  # the solve, and one over the empty interval
        call = lambda: flow.integrate(sys, z0, t0, end)
        try:
            traj = call()
        except RuntimeError:
            continue  # a collision or a step-size failure
        _, (stock,) = through(stock_solve_ivp, call)
        lo, hi = min(t0, end), max(t0, end)
        times = data.draw(st.lists(st.floats(lo - 1.0, hi + 1.0),
                                   min_size=1, max_size=40))
        ts = np.concatenate([times, step_times(traj), [t0, end]])
        fresh = call()  # the same solve, no step built yet
        want = stock_reads(call(), stock, ts)
        for t, row in zip(ts, want):
            assert same_bits(fresh(t), row)
        y = traj(ts)
        assert same_bits(y, want)
        for t, row in zip(ts, y):
            assert same_bits(traj(t), row)


@pytest.mark.parametrize("d", [2, 3])
def test_radial_infall_collides_on_the_event_step(d):
    # L = 0, falling inward from r = 1 (p != 0, where the Hessian is
    # defined): the fall reaches the centre before t = pi/2^1.5
    sys = kepler_system(d)
    z0 = np.zeros(2 * d)
    z0[0], z0[d] = 1.0, -0.1
    for call, dense in ((lambda: flow.endpoint(sys, z0, 0.0, 5.0), False),
                        (lambda: flow.integrate(sys, z0, 0.0, 5.0), True),
                        (lambda: flow.integrate_with_variational(sys, z0, 0.0, 5.0),
                         False)):
        out, new = through(solve_ivp, call)
        assert isinstance(out, CollisionError)
        assert "in the step ending at t = " in str(out)
        _, stock = through(stock_solve_ivp, call)
        assert collided(stock[0])
        assert_same_solve(new, stock, dense)


def test_step_size_failure_is_the_stock_one():
    # backward in time this is a radial fall, and in t the Levi-Civita
    # force (1/r^3 at the centre) shrinks the variational solve's step
    # below the spacing of the floats before |x| reaches the collision
    # floor; in Sundman's s, where dt/ds = |x| slows the fall, the dense
    # solve and the shot reach the floor
    sys = HamiltonianSystem(KineticLaw.classical(),
                            Potential.levi_civita(1.0, 0.1),
                            Perturbation.zero(), 2)
    z0 = np.array([1.0, 0.0, 1.0, 0.0])
    with pytest.raises(RuntimeError, match="step size"):
        integrate_with_variational(sys, z0, 0.0, -1.0)
    for solve in (integrate, endpoint):
        with pytest.raises(CollisionError):
            solve(sys, z0, 0.0, -1.0)
    compare_to_stock(sys, z0, 0.0, -1.0)


def test_one_solve_ivp_call_per_integration_with_honest_counts():
    # perfbench counts flow.nfev and flow.steps from what flow.solve_ivp
    # returns: every integration must pass through it exactly once, with
    # nfev the RHS calls made and len(t) - 1 the steps accepted.  Each step
    # makes 12 calls per attempt; the dense solve and the shot, in Sundman
    # time, make every call on the Sundman field, and the step that passes
    # t1 three more, for the interpolant its stop reads (the root on it
    # calls none), which the dense solve keeps
    pert = Perturbation.uniform_electric((0.3, -0.2), 1e-2, profile="cosine",
                                         T_forcing=2.0)
    sys = HamiltonianSystem(KineticLaw.classical(), Potential.kepler(), pert, 2)
    z0 = np.array([2.0, 0.0, 0.0, 0.5])
    calls, per_step = [], []
    field, step = HamiltonianSystem.vector_field, flow._DOP853.step

    def counted_field(self, t, z, *sundman):
        calls.append(sundman == (True,))
        return field(self, t, z, *sundman)

    def counted_step(self):
        before = len(calls)
        message = step(self)
        if self.status != "failed":
            per_step.append(len(calls) - before)
        return message

    for call, shot in ((lambda: flow.endpoint(sys, z0, 0.0, 6.0), True),
                       (lambda: flow.integrate(sys, z0, 0.0, 6.0), True),
                       (lambda: flow.integrate_with_variational(sys, z0, 0.0,
                                                                6.0), False)):
        calls.clear()
        per_step.clear()
        with mock.patch.object(HamiltonianSystem, "vector_field", counted_field), \
                mock.patch.object(flow._DOP853, "step", counted_step):
            out, results = through(solve_ivp, call)
        assert len(results) == 1
        res = results[0]
        assert res.nfev == len(calls) > 0
        assert len(res.t) - 1 == len(per_step) > 1
        assert calls == [shot] * len(calls)
        assert all(k % 12 == 0 for k in per_step[:-1])
        assert per_step[-1] % 12 == (3 if shot else 0)
        if shot:
            # the solve ended at t(s) = 6, on the stop step's interpolant
            assert res.y[-1, -1] == pytest.approx(6.0, abs=1e-15)
            end = out(6.0) if isinstance(out, flow.Trajectory) else out
            assert np.array_equal(end, res.y[:-1, -1])


def test_interpolants_are_built_once_when_first_read():
    # a closed orbit's half cycle: the solve builds only the stop step's
    # interpolant, which its closure_residual reads at the apogee, a read
    # at every step builds each of the others once, and a second read
    # calls nothing
    counts = {"rhs": 0}
    field = HamiltonianSystem.vector_field

    def counted_field(self, t, z, *sundman):
        counts["rhs"] += 1
        return field(self, t, z, *sundman)

    with mock.patch.object(HamiltonianSystem, "vector_field", counted_field):
        orbit, (res,) = through(solve_ivp, lambda: find_closed_orbit(
            KineticLaw.classical(), Potential.homogeneous(1.0, 0.5), 4, 5,
            -1.9))
        assert counts["rhs"] == res.nfev
        steps = step_times(orbit.cycle)
        assert len(steps) - 1 == len(res.t) - 1 > 1
        ts = np.concatenate([np.linspace(0.0, orbit.T, 401),
                             0.5 * (steps[1:] + steps[:-1])])
        counts["rhs"] = 0
        first = orbit.states(ts)
        assert counts["rhs"] == 3 * (len(steps) - 2)
        counts["rhs"] = 0
        assert np.array_equal(orbit.states(ts), first)
        assert counts["rhs"] == 0
