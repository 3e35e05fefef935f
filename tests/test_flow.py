import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cforbits.errors import CollisionError
from cforbits.flow import (
    integrate,
    endpoint,
    integrate_with_variational,
    symplectic_matrix,
    symplectic_residual,
)
from cforbits.model import (
    HamiltonianSystem,
    KineticLaw,
    Perturbation,
    Potential,
)


def harmonic_system(dim=2):
    # V = -r^2/2, H = p^2/2 + r^2/2: every orbit has period 2 pi
    return HamiltonianSystem(KineticLaw.classical(), Potential.harmonic(),
                             Perturbation.zero(), dim)


def kepler_system(dim=2):
    return HamiltonianSystem(KineticLaw.classical(), Potential.kepler(),
                             Perturbation.zero(), dim)


def max_drift(sys, traj, n_samples=400):
    """Largest change of the energy and of each angular momentum component
    from their values at t0, over evenly spaced times of a trajectory."""
    ts = np.linspace(traj.t0, traj.t1, n_samples)
    values = [sys.first_integrals(t, z) for t, z in zip(ts, traj(ts))]
    energy = np.array([e for e, _ in values])
    mom = np.array([np.atleast_1d(m) for _, m in values])
    return np.max(np.abs(energy - energy[0])), np.max(np.abs(mom - mom[0]), axis=0)


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
        ts = np.concatenate([np.linspace(0.0, 30.0, 401), traj.times])
        for t, z in zip(ts, traj(ts)):
            assert np.array_equal(z, traj(t))

    def test_collision_detected(self):
        sys = kepler_system()
        # radial infall: L = 0
        z0 = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(CollisionError):
            integrate(sys, z0, 0.0, 5.0)

    def test_endpoint_is_the_trajectory_end(self):
        # the state-only shot takes the same DOP853 steps as the dense
        # trajectory; only the interpolant is left out
        sys = kepler_system()
        z0 = np.array([2.0, 0.0, 0.0, 0.5])
        z1 = endpoint(sys, z0, 0.0, 4.0)
        assert np.max(np.abs(z1 - integrate(sys, z0, 0.0, 4.0)(4.0))) <= 1e-14
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
