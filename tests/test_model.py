import math
from dataclasses import replace

import numpy as np
import pytest

from cforbits.errors import (
    DegenerateMomentumError,
    DomainError,
    UnsupportedConfigurationError,
)
from cforbits.model import (
    HamiltonianSystem,
    KineticLaw,
    Perturbation,
    Potential,
)

RNG = np.random.default_rng(7)


def momentum_of_speed(law, s):
    """The law's momentum magnitude f(s) at speed s, in closed form."""
    s = np.asarray(s, dtype=float)
    if law.kind == "classical":
        return law.m * s
    return law.m * s / np.sqrt(1.0 - (s / law.c) ** 2)


def energy_of_speed(law, s):
    """The law's kinetic energy F(s) at speed s, in closed form."""
    s = np.asarray(s, dtype=float)
    if law.kind == "classical":
        return 0.5 * law.m * s**2
    return law.m * law.c**2 * (1.0 - np.sqrt(1.0 - (s / law.c) ** 2))


def family_field(pert, t, d):
    """(DA, grad U) of a perturbation in d dimensions, built from the
    family's own parameters: A = eps/2 B0 x x for the magnetic family,
    A = eps (x2, 0) for the rotating frame, U = eps g(t) e.x for the
    electric one, and none for the zero family."""
    DA, grad_U = np.zeros((d, d)), np.zeros(d)
    if pert.family == "uniform_magnetic":
        b0, b1, b2 = pert.B0
        DA = 0.5 * pert.eps * np.array(
            [[0.0, -b2, b1], [b2, 0.0, -b0], [-b1, b0, 0.0]])
    elif pert.family == "rotating_frame":
        DA[0, 1] = pert.eps
    elif pert.family == "uniform_electric":
        g = (math.cos(2.0 * math.pi * t / pert.T_forcing)
             if pert.profile == "cosine" else 1.0)
        grad_U = pert.eps * g * np.array(pert.e_vec, dtype=float)
    return DA, grad_U


def vector_potential(pert, x):
    """A(x) = DA x of family_field, summed in the kernels' order, so that
    p = A(x) gives p - A = 0 exactly."""
    x = np.asarray(x, dtype=float).tolist()
    DA, _ = family_field(pert, 0.0, len(x))
    return np.array([sum(a * xi for a, xi in zip(row, x))
                     for row in DA.tolist()])


def field_jacobian(sys, z):
    """DA as the kernels use it, read off the Hessian at z: its p-x block
    is -K DA, with K its p-p block."""
    d = sys.dim
    H = sys.hessian(0.0, z)
    return -np.linalg.solve(H[d:, d:], H[d:, :d])


def first_integrals(sys, t, z):
    """Energy and angular momentum (scalar for dim 2, vector for dim 3)."""
    z = np.asarray(z, dtype=float)
    x, p = z[: sys.dim], z[sys.dim:]
    energy = sys.hamiltonian(t, z)
    if sys.dim == 2:
        mom = float(x[0] * p[1] - x[1] * p[0])
    else:
        mom = np.cross(x, p)
    return energy, mom


def max_drift(sys, traj, n_samples=400):
    """Largest change of the energy and of each angular momentum component
    from their values at t0, over evenly spaced times of a trajectory."""
    ts = np.linspace(traj.t0, traj.t1, n_samples)
    values = [first_integrals(sys, t, z) for t, z in zip(ts, traj(ts))]
    energy = np.array([e for e, _ in values])
    mom = np.array([np.atleast_1d(m) for _, m in values])
    return np.max(np.abs(energy - energy[0])), np.max(np.abs(mom - mom[0]), axis=0)


def curl(DA):
    """B = curl A of a linear A = DA x: a vector for dim 3, the scalar curl
    for dim 2."""
    if len(DA) == 3:
        return np.array([DA[2, 1] - DA[1, 2], DA[0, 2] - DA[2, 0],
                         DA[1, 0] - DA[0, 1]])
    return DA[1, 0] - DA[0, 1]


class TestKineticLaw:
    def test_classical_formulas(self):
        law = KineticLaw.classical(m=2.0)
        assert law.G(4.0) == pytest.approx(4.0)  # s^2 / (2m)
        assert law.f_inv(6.0) == pytest.approx(3.0)

    def test_relativistic_closed_forms(self):
        m, c = 1.5, 3.0
        law = KineticLaw.relativistic(m=m, c=c)
        s = 1.2
        assert law.f_inv(m * s / math.sqrt(1 - s**2 / c**2)) == pytest.approx(s)
        p = 2.7
        assert law.G(p) == pytest.approx(
            m * c**2 * (math.sqrt(1 + p**2 / (m * c) ** 2) - 1))

    @pytest.mark.parametrize("law", [
        KineticLaw.classical(m=1.3),
        KineticLaw.relativistic(m=0.8, c=2.5),
    ])
    def test_inverse_round_trips(self, law):
        s = np.linspace(0.1, 2.0, 7)
        assert np.allclose(law.f_inv(momentum_of_speed(law, s)), s, rtol=1e-13)
        e = np.linspace(0.01, 5.0, 7)
        assert np.allclose(law.G(np.sqrt(law.p_squared(e))), e, rtol=1e-12)

    @pytest.mark.parametrize("law", [
        KineticLaw.classical(m=1.3),
        KineticLaw.relativistic(m=0.8, c=2.5),
    ])
    def test_legendre_identity(self, law):
        # G(s) = f_inv(s) * s - F(f_inv(s))
        for s in (0.3, 1.1, 4.0):
            v = float(law.f_inv(s))
            assert float(law.G(s)) == pytest.approx(
                v * s - float(energy_of_speed(law, v)), rel=1e-12)

    @pytest.mark.parametrize("law", [
        KineticLaw.classical(),
        KineticLaw.relativistic(m=2.0, c=4.0),
    ])
    def test_derivatives_match_finite_differences(self, law):
        d = 1e-6
        for s in (0.5, 1.7):
            fd = (law.f_inv(s + d) - law.f_inv(s - d)) / (2 * d)
            assert float(law.f_inv_prime(s)) == pytest.approx(float(fd), rel=1e-8)
            fd = (law.G(s + d) - law.G(s - d)) / (2 * d)
            assert float(law.f_inv(s)) == pytest.approx(float(fd), rel=1e-8)

    def test_nonrelativistic_limit(self):
        classical = KineticLaw.classical()
        prev = None
        for c in (5.0, 10.0, 20.0):
            law = KineticLaw.relativistic(m=1.0, c=c)
            err = abs(float(law.G(1.0)) - float(classical.G(1.0)))
            if prev is not None:
                assert err < prev / 3.0  # roughly O(1/c^2)
            prev = err

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            KineticLaw("nonsense")
        with pytest.raises(ValueError):
            KineticLaw.classical(m=-1.0)
        with pytest.raises(ValueError):
            KineticLaw.relativistic(c=0.0)


class TestPotential:
    @pytest.mark.parametrize("alpha", [-2.0, -1.0, 0.5, 1.0, 1.5])
    def test_homogeneous_derivatives(self, alpha):
        V = Potential.homogeneous(1.3, alpha)
        d = 1e-6
        for r in (0.5, 1.0, 2.5):
            fd1 = (V.V(r + d) - V.V(r - d)) / (2 * d)
            fd2 = (V.V(r + d) - 2 * V.V(r) + V.V(r - d)) / d**2
            assert float(V.dV(r)) == pytest.approx(float(fd1), rel=1e-7)
            # second difference carries ~1e-4 roundoff noise at this step
            assert abs(float(V.d2V(r)) - float(fd2)) < 1e-3 * (1 + abs(float(fd2)))

    def test_homogeneous_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            Potential.homogeneous(1.0, 2.5)
        with pytest.raises(ValueError):
            Potential.homogeneous(1.0, 0.0)
        with pytest.raises(ValueError):
            Potential.homogeneous(-1.0, 1.0)

    def test_kepler_and_harmonic_aliases(self):
        kep = Potential.kepler(2.0)
        assert float(kep.V(0.5)) == pytest.approx(4.0)
        har = Potential.harmonic(4.0)
        # V = kappa / (-2) * r^2
        assert float(har.V(3.0)) == pytest.approx(-18.0)

    def test_levi_civita(self):
        V = Potential.levi_civita(1.0, 0.5)
        r = 1.7
        assert float(V.V(r)) == pytest.approx(1 / r + 0.5 / r**2)
        d = 1e-6
        fd = (V.V(r + d) - V.V(r - d)) / (2 * d)
        assert float(V.dV(r)) == pytest.approx(float(fd), rel=1e-8)


class TestPerturbation:
    # each family is checked through the kernels of a classical Kepler
    # system, against the same system without the field
    LAW, V = KineticLaw.classical(), Potential.kepler()

    def _systems(self, pert, dim=2):
        return (HamiltonianSystem(self.LAW, self.V, pert, dim),
                HamiltonianSystem(self.LAW, self.V, Perturbation.zero(), dim))

    def test_zero_is_autonomous_and_null(self):
        p = Perturbation.zero()
        assert p.is_autonomous
        sys, _ = self._systems(p)
        z = np.array([1.0, 2.0, 0.3, -0.4])
        r = math.sqrt(5.0)
        # H = |p|^2/2 - 1/r and dp/dt = V'(r) x/r: no field
        assert sys.hamiltonian(0.3, z) == pytest.approx(0.125 - 1.0 / r)
        assert np.allclose(sys.vector_field(0.3, z),
                           [0.3, -0.4, -1.0 / r**3, -2.0 / r**3], rtol=1e-14)

    def test_electric_potential_and_gradient(self):
        sys, free = self._systems(Perturbation.uniform_electric((1.0, 2.0), 0.1))
        z = np.array([3.0, -1.0, 0.2, 0.5])
        # H = G - V - U with U = eps e.x, and dp/dt gains grad U = eps e
        assert free.hamiltonian(0.0, z) - sys.hamiltonian(0.0, z) == \
            pytest.approx(0.1 * (3.0 - 2.0))
        f, f0 = sys.vector_field(0.0, z), free.vector_field(0.0, z)
        assert np.array_equal(f[:2], f0[:2])
        assert np.allclose(f[2:] - f0[2:], [0.1, 0.2], rtol=1e-14)

    def test_cosine_profile_periodicity(self):
        p = Perturbation.uniform_electric((1.0, 0.0), 1.0, profile="cosine",
                                          T_forcing=2.0)
        sys, free = self._systems(p)
        z = np.array([1.0, 0.0, 0.0, 0.8])
        assert sys.hamiltonian(0.0, z) == pytest.approx(
            sys.hamiltonian(2.0, z), abs=1e-14)
        # g(T/4) = 0: the field is off a quarter period in
        assert sys.hamiltonian(0.5, z) == pytest.approx(
            free.hamiltonian(0.5, z), abs=1e-15)
        assert not p.is_autonomous

    def test_cosine_needs_finite_period(self):
        with pytest.raises(ValueError):
            Perturbation.uniform_electric((1.0, 0.0), 1.0, profile="cosine")

    def test_magnetic_field_identity(self):
        # (DA)^T y - (DA) y = y x curl A for every y, with the DA the
        # kernels use
        p = Perturbation.uniform_magnetic((0.3, -1.2, 0.7), 0.05)
        sys, _ = self._systems(p, 3)
        DA = field_jacobian(sys, np.array([1.0, 2.0, -0.5, 0.3, 0.1, 0.4]))
        B = curl(DA)
        for _ in range(5):
            y = RNG.normal(size=3)
            lhs = DA.T @ y - DA @ y
            assert np.allclose(lhs, np.cross(y, B), atol=1e-10)

    def test_magnetic_curl_is_eps_B0(self):
        B0 = (0.0, 0.0, 2.0)
        sys, _ = self._systems(Perturbation.uniform_magnetic(B0, 0.25), 3)
        DA = field_jacobian(sys, np.array([1.0, 1.0, 1.0, 0.2, -0.3, 0.1]))
        assert np.allclose(curl(DA), 0.25 * np.asarray(B0))

    def test_rotating_frame_planar_curl(self):
        sys, _ = self._systems(Perturbation.rotating_frame(0.3))
        DA = field_jacobian(sys, np.array([0.4, -0.9, 0.5, 0.2]))
        # A = eps (x2, 0): scalar curl dA2/dx1 - dA1/dx2 = -eps
        assert curl(DA) == pytest.approx(-0.3)

    def test_dimension_restrictions(self):
        with pytest.raises(UnsupportedConfigurationError):
            Perturbation.rotating_frame(0.1).check_dim(3)
        with pytest.raises(UnsupportedConfigurationError):
            Perturbation.uniform_magnetic((0, 0, 1), 0.1).check_dim(2)
        with pytest.raises(UnsupportedConfigurationError):
            Perturbation.uniform_electric((1, 0, 0), 0.1).check_dim(2)

    @pytest.mark.parametrize("pert,dim", [
        (Perturbation.zero(), None),
        (Perturbation.rotating_frame(0.1), 2),
        (Perturbation.uniform_magnetic((0, 0, 1), 0.1), 3),
        (Perturbation.uniform_electric((1, 0), 0.1), 2),
        (Perturbation.uniform_electric((1, 0, 0), 0.1, profile="cosine",
                                       T_forcing=2.0), 3),
    ], ids=["zero", "rotating_frame", "uniform_magnetic", "electric_2",
            "electric_3"])
    def test_dim_is_the_dimension_the_field_fixes(self, pert, dim):
        # the system takes the field in that dimension alone, the zero field
        # in both, and refuses every other pairing
        assert pert.dim == dim
        for d in (2, 3):
            if dim in (None, d):
                assert HamiltonianSystem(KineticLaw.classical(),
                                         Potential.kepler(), pert, d).dim == d
            else:
                with pytest.raises(UnsupportedConfigurationError):
                    HamiltonianSystem(KineticLaw.classical(),
                                      Potential.kepler(), pert, d)

    @pytest.mark.parametrize("e_vec", [(), (1.0,), (1.0, 0.0, 0.0, 0.0)],
                             ids=["electric_0", "electric_1", "electric_4"])
    def test_electric_direction_not_2_or_3_long_is_refused(self, e_vec):
        # no system takes a field whose direction has neither 2 nor 3
        # components, so it is refused when it is built, with eps = 0 too
        for eps in (0.1, 0.0):
            with pytest.raises(ValueError, match="e_vec needs 2 or 3"):
                Perturbation.uniform_electric(e_vec, eps)

    @pytest.mark.parametrize("B0", [(), (0.0, 1.0), (0.0, 0.0, 1.0, 0.0)],
                             ids=["magnetic_0", "magnetic_2", "magnetic_4"])
    def test_magnetic_axis_not_3_long_is_refused(self, B0):
        # a magnetic field is spatial: its axis B0 has 3 components
        for eps in (0.1, 0.0):
            with pytest.raises(ValueError, match="B0 needs 3 components"):
                Perturbation.uniform_magnetic(B0, eps)

    def test_scaled_changes_only_eps(self):
        p = replace(Perturbation.uniform_magnetic((0, 0, 1), 0.1), eps=0.2)
        assert p.eps == 0.2
        assert p.family == "uniform_magnetic"
        # the cached derivatives are rebuilt for the new size
        assert p._DA == Perturbation.uniform_magnetic((0, 0, 1), 0.2)._DA
        e = replace(Perturbation.uniform_electric((1.0, 2.0), 0.1), eps=0.3)
        assert e._e == (1.0, 2.0, 0.0) and e._DA is None
        sys, free = self._systems(e)
        z = np.array([1.0, 1.0, 0.1, 0.2])
        assert free.hamiltonian(0.0, z) - sys.hamiltonian(0.0, z) == \
            pytest.approx(0.3 * 1.0 + 0.3 * 2.0)


class TestHamiltonianSystem:
    def _system(self, dim=2, pert=None):
        return HamiltonianSystem(
            KineticLaw.classical(), Potential.kepler(),
            pert or Perturbation.zero(), dim)

    def test_kepler_hamiltonian_value(self):
        sys = self._system()
        z = np.array([2.0, 0.0, 0.0, 0.5])
        # p^2/2 - 1/r
        assert sys.hamiltonian(0.0, z) == pytest.approx(0.125 - 0.5)

    def test_vector_field_is_symplectic_gradient(self):
        # z' = -J grad H, tested by central differences of H
        for pert in (
            Perturbation.zero(),
            Perturbation.uniform_electric((0.3, -0.2), 0.05),
            Perturbation.rotating_frame(0.04),
        ):
            sys = self._system(pert=pert)
            z = np.array([1.1, 0.4, -0.3, 0.8])
            f = sys.vector_field(0.2, z)
            grad = np.zeros(4)
            d = 1e-6
            for i in range(4):
                e = np.zeros(4)
                e[i] = d
                grad[i] = (sys.hamiltonian(0.2, z + e)
                           - sys.hamiltonian(0.2, z - e)) / (2 * d)
            J = np.zeros((4, 4))
            J[:2, 2:] = -np.eye(2)
            J[2:, :2] = np.eye(2)
            assert np.allclose(f, -J @ grad, atol=1e-8)

    def test_vector_field_gradient_second_order(self):
        sys = self._system(pert=Perturbation.uniform_electric((0.3, -0.2), 0.05))
        z = np.array([1.1, 0.4, -0.3, 0.8])
        J = np.zeros((4, 4))
        J[:2, 2:] = -np.eye(2)
        J[2:, :2] = np.eye(2)
        f = sys.vector_field(0.2, z)
        errs = []
        for d in (1e-3, 5e-4, 2.5e-4):
            grad = np.zeros(4)
            for i in range(4):
                e = np.zeros(4)
                e[i] = d
                grad[i] = (sys.hamiltonian(0.2, z + e)
                           - sys.hamiltonian(0.2, z - e)) / (2 * d)
            errs.append(np.linalg.norm(f + J @ grad))
        order = np.polyfit(np.log([1e-3, 5e-4, 2.5e-4]), np.log(errs), 1)[0]
        assert order == pytest.approx(2.0, abs=0.3)

    @pytest.mark.parametrize("dim,pert", [
        (2, Perturbation.zero()),
        (2, Perturbation.rotating_frame(0.07)),
        (3, Perturbation.uniform_magnetic((0.1, 0.2, 0.9), 0.05)),
    ])
    def test_hessian_matches_vector_field_differences(self, dim, pert):
        sys = HamiltonianSystem(KineticLaw.relativistic(m=1.0, c=10.0),
                                Potential.kepler(), pert, dim)
        n = 2 * dim
        z = np.concatenate([[1.2, 0.3, -0.2][:dim], [0.1, 0.7, 0.4][:dim]])
        H = sys.hessian(0.0, z)
        assert np.allclose(H, H.T, atol=1e-12)
        J = np.zeros((n, n))
        J[:dim, dim:] = -np.eye(dim)
        J[dim:, :dim] = np.eye(dim)
        d = 1e-6
        Df = np.zeros((n, n))
        for i in range(n):
            e = np.zeros(n)
            e[i] = d
            Df[:, i] = (sys.vector_field(0.0, z + e)
                        - sys.vector_field(0.0, z - e)) / (2 * d)
        assert np.allclose(-J @ H, Df, atol=1e-6)

    def test_hessian_degenerate_at_zero_momentum(self):
        sys = self._system()
        with pytest.raises(DegenerateMomentumError):
            sys.hessian(0.0, np.array([1.0, 0.0, 0.0, 0.0]))

    def test_domain_errors(self):
        sys = self._system()
        with pytest.raises(DomainError):
            sys.hamiltonian(0.0, np.array([0.0, 0.0, 0.1, 0.1]))
        with pytest.raises(DomainError):
            sys.vector_field(0.0, np.array([1.0, 0.0, 0.1]))

    @pytest.mark.parametrize("dim,pert", [
        (2, Perturbation.zero()),
        (2, Perturbation.rotating_frame(0.07)),
        (3, Perturbation.uniform_electric((0.3, -0.2, 0.1), 0.05)),
        (3, Perturbation.uniform_magnetic((0.1, 0.2, 0.9), 0.05)),
    ])
    def test_kernel_error_contract(self, dim, pert):
        sys = HamiltonianSystem(KineticLaw.relativistic(m=1.0, c=10.0),
                                Potential.kepler(), pert, dim)
        x = np.array([1.2, 0.3, -0.2][:dim])
        for kernel in (sys.vector_field, sys.hessian):
            with pytest.raises(DomainError):
                kernel(0.0, np.ones(2 * dim + 1))
            with pytest.raises(DomainError):
                kernel(0.0, np.concatenate([np.zeros(dim), np.ones(dim)]))
        # at p = A(t, x) the velocity is zero and the Hessian undefined
        z = np.concatenate([x, vector_potential(pert, x)])
        f = sys.vector_field(0.0, z)
        assert np.all(f[:dim] == 0.0)
        assert np.all(np.isfinite(f))
        with pytest.raises(DegenerateMomentumError):
            sys.hessian(0.0, z)
        # a plain list is a state too
        z = [1.2, 0.3, -0.2][:dim] + [0.1, 0.7, 0.4][:dim]
        assert np.array_equal(sys.vector_field(0.0, z),
                              sys.vector_field(0.0, np.array(z)))
        assert np.array_equal(sys.hessian(0.0, z), sys.hessian(0.0, np.array(z)))

    def test_first_integrals(self):
        sys = self._system()
        z = np.array([2.0, 0.0, 0.0, 0.5])
        e, ell = first_integrals(sys, 0.0, z)
        assert ell == pytest.approx(1.0)
        sys3 = self._system(dim=3)
        z3 = np.array([2.0, 0.0, 0.0, 0.0, 0.5, 0.0])
        _, ell3 = first_integrals(sys3, 0.0, z3)
        assert np.allclose(ell3, [0.0, 0.0, 1.0])

    def test_with_eps(self):
        sys = self._system(pert=Perturbation.uniform_electric((1.0, 0.0), 0.1))
        assert sys.with_eps(0.5).perturbation.eps == 0.5
