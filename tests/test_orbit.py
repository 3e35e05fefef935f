import logging
import math
from types import SimpleNamespace

import numpy as np
import pytest

import cforbits.orbit as orbit_module

from cforbits.errors import (
    CircularDegenerateError,
    NoBoundOrbitError,
    TargetOutOfRangeError,
)
from cforbits.flow import integrate
from cforbits.model import KineticLaw, Potential
from cforbits.orbit import (
    _embed3,
    _planar_rotation,
    apogee_state,
    find_closed_orbit,
    manifold_samples,
    radial_profile,
    rotate_state,
    turning_points,
)
from test_nondeg import POOL

CLASSICAL = KineticLaw.classical()
KEPLER = Potential.kepler()
HARMONIC = Potential.harmonic()


class TestTurningPoints:
    def test_kepler_closed_form(self):
        # p_r^2 = 2(h + 1/r) - 1/r^2 at h=-3/8, L=1: roots 2/3 and 2
        r_min, r_max = turning_points(CLASSICAL, KEPLER, -0.375, 1.0)
        assert r_min == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert r_max == pytest.approx(2.0, rel=1e-12)

    def test_harmonic_closed_form(self):
        # r^2 in {0.5, 2} at h=1.25, L=1, kappa=1
        r_min, r_max = turning_points(CLASSICAL, HARMONIC, 1.25, 1.0)
        assert r_min == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert r_max == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_circular_orbit_rejected(self):
        # Kepler circular: h = -1/(2 L^2)
        with pytest.raises(CircularDegenerateError):
            turning_points(CLASSICAL, KEPLER, -0.5, 1.0)

    def test_unbound_rejected(self):
        with pytest.raises(NoBoundOrbitError):
            turning_points(CLASSICAL, KEPLER, 0.5, 1.0)

    def test_zero_momentum_rejected(self):
        with pytest.raises(NoBoundOrbitError):
            turning_points(CLASSICAL, KEPLER, -0.375, 0.0)


class TestRadialIntegrals:
    def test_kepler_period(self):
        h = -0.375
        p = radial_profile(CLASSICAL, KEPLER, h, 1.0)
        assert p.tau == pytest.approx(2 * math.pi * (-2 * h) ** -1.5, rel=1e-9)

    def test_kepler_apsidal_angle(self):
        p = radial_profile(CLASSICAL, KEPLER, -0.375, 1.0)
        assert p.phi == pytest.approx(math.pi, abs=1e-7)

    def test_kepler_action(self):
        h, L = -0.375, 1.0
        p = radial_profile(CLASSICAL, KEPLER, h, L)
        assert p.action == pytest.approx((-2 * h) ** -0.5 - L, abs=1e-8)

    def test_harmonic_quantities(self):
        h, L = 1.25, 1.0
        p = radial_profile(CLASSICAL, HARMONIC, h, L)
        assert p.tau == pytest.approx(math.pi, rel=1e-9)
        assert p.phi == pytest.approx(math.pi / 2, abs=1e-7)
        assert p.action == pytest.approx(h / 2 - L / 2, abs=1e-8)

    def test_harmonic_isochrony(self):
        # tau independent of (h, L) across a 5x5 grid
        taus = []
        for h in np.linspace(1.0, 3.0, 5):
            for L in np.linspace(0.3, 0.9, 5):
                p = radial_profile(CLASSICAL, HARMONIC, h, L)
                taus.append(p.tau)
        assert max(taus) - min(taus) <= 1e-8

    def test_relativistic_kepler_apsidal_closed_form(self):
        law = KineticLaw.relativistic(m=1.0, c=1.0)
        for h, L in ((-0.2, 1.5), (-0.1, 1.3)):
            p = radial_profile(law, KEPLER, h, L)
            assert p.phi == pytest.approx(math.pi / math.sqrt(1 - 1 / L**2),
                                          rel=1e-9)

    @pytest.mark.parametrize("alpha", [-1.0, 0.5, 1.5])
    def test_near_circular_apsidal_limit(self, alpha):
        V = Potential.homogeneous(1.0, alpha)
        h = 1.0 if alpha < 0 else -0.5
        # walk toward the circular boundary and compare with pi/sqrt(2-alpha)
        from cforbits.orbit import _feasible_L_interval
        lo, hi = _feasible_L_interval(CLASSICAL, V, h)
        p = radial_profile(CLASSICAL, V, h, 0.99 * hi)
        assert p.phi == pytest.approx(math.pi / math.sqrt(2 - alpha), rel=5e-3)


class TestFindClosedOrbit:
    def test_requires_coprime(self):
        with pytest.raises(ValueError):
            find_closed_orbit(CLASSICAL, KEPLER, 2, 4, -0.375)

    def test_kepler_one_one(self):
        orb = find_closed_orbit(CLASSICAL, KEPLER, 1, 1, -0.375, L_seed=1.0)
        assert orb.closure_residual <= 1e-8
        assert orb.T == pytest.approx(orb.profile.tau)

    def test_harmonic_one_two(self):
        orb = find_closed_orbit(CLASSICAL, HARMONIC, 1, 2, 1.25, L_seed=1.0)
        assert orb.closure_residual <= 1e-8
        assert orb.T == pytest.approx(2 * math.pi, rel=1e-10)

    def test_alpha_half_three_four(self):
        V = Potential.homogeneous(1.0, 0.5)
        orb = find_closed_orbit(CLASSICAL, V, 3, 4, -1.5)
        assert abs(orb.profile.phi - 3 * math.pi / 4) <= 1e-11
        assert orb.closure_residual <= 1e-8
        # resonance ties the frequencies: omega2/omega1 = k/n
        assert (orb.profile.phi / math.pi) == pytest.approx(3 / 4, abs=1e-11)

    def test_unreachable_target(self):
        # alpha=0.5 apsidal angles live in (2pi/3, pi/sqrt(1.5)); pi/2 is out
        V = Potential.homogeneous(1.0, 0.5)
        with pytest.raises(TargetOutOfRangeError) as exc:
            find_closed_orbit(CLASSICAL, V, 1, 2, -1.5)
        assert exc.value.phi_range is not None

    def test_vary_h_search(self):
        V = Potential.homogeneous(1.0, 0.5)
        orb = find_closed_orbit(CLASSICAL, V, 3, 4, -1.5, search="vary_h",
                                L_seed=0.3)
        assert abs(orb.profile.phi - 3 * math.pi / 4) <= 1e-11
        assert orb.profile.L == pytest.approx(0.3)

    @pytest.mark.parametrize("V, k, n, h", [(HARMONIC, 1, 2, 1.25),
                                            (KEPLER, 1, 1, -0.375)],
                             ids=["harmonic", "kepler"])
    def test_search_modes_agree_on_constant_apsidal_angle(self, V, k, n, h):
        by_L = find_closed_orbit(CLASSICAL, V, k, n, h, L_seed=1.0)
        by_h = find_closed_orbit(CLASSICAL, V, k, n, h, search="vary_h",
                                 L_seed=1.0)
        assert by_h.profile == by_L.profile

    def test_spatial_embedding(self):
        orb = find_closed_orbit(CLASSICAL, KEPLER, 1, 1, -0.375, L_seed=1.0,
                                dim=3)
        assert orb.z0.size == 6
        assert orb.closure_residual <= 1e-8

    def test_extra_brackets_are_logged(self, monkeypatch, caplog):
        # an apsidal angle that crosses the target several times over the
        # feasible L interval of alpha = 0.5 at h = -1.5
        target = 3 * math.pi / 4
        monkeypatch.setattr(
            orbit_module, "radial_profile",
            lambda law, V, h, L: SimpleNamespace(phi=target + math.sin(20 * L)))
        monkeypatch.setattr(orbit_module, "_build_orbit",
                            lambda law, V, profile, *rest: profile)
        V = Potential.homogeneous(1.0, 0.5)
        with caplog.at_level(logging.WARNING, logger="cforbits.orbit"):
            profile = find_closed_orbit(CLASSICAL, V, 3, 4, -1.5)
        assert abs(profile.phi - target) <= 1e-11
        (record,) = caplog.records
        assert "brackets of the apsidal angle" in record.getMessage()
        assert "using the first" in record.getMessage()


class TestApogeeState:
    def test_position_and_momentum(self):
        p = radial_profile(CLASSICAL, KEPLER, -0.375, 1.0)
        z = apogee_state(p)
        assert z[0] == pytest.approx(2.0, rel=1e-10)
        assert z[1] == 0.0
        assert z[2] == 0.0  # radial momentum vanishes at apogee
        assert z[3] == pytest.approx(0.5, rel=1e-10)  # L / r_max


@pytest.fixture(scope="module")
def orbit():
    return find_closed_orbit(CLASSICAL, KEPLER, 1, 1, -0.375, L_seed=1.0)


class TestManifoldSamples:
    def test_rotate_state_blocks(self):
        a = math.pi / 3
        M = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        z = np.array([1.0, 0.0, 0.0, 0.5])
        out = rotate_state(M, z)
        assert np.allclose(out[:2], M @ z[:2])
        assert np.allclose(out[2:], M @ z[2:])

    def test_planar_counts_and_identity_first(self, orbit):
        s = manifold_samples(orbit, 3, 4, group="planar")
        assert len(s.elements) == 12
        assert s.states.shape == (12, 4)
        assert s.elements[0][0] == 0.0 and s.elements[0][1] == 0.0
        assert np.allclose(s.states[0], orbit.z0, atol=1e-10)

    def test_so3_deterministic_and_orthogonal(self, orbit):
        s1 = manifold_samples(orbit, 8, 4, group="SO3")
        s2 = manifold_samples(orbit, 8, 4, group="SO3")
        assert np.array_equal(s1.states, s2.states)
        assert len(s1.elements) == 32
        assert s1.states.shape == (32, 6)
        for M, _ in s1.elements:
            assert np.allclose(M @ M.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(M) == pytest.approx(1.0)
        assert np.allclose(s1.elements[0][0], np.eye(3))

    def test_o3_contains_reflections(self, orbit):
        s = manifold_samples(orbit, 8, 2, group="O3")
        dets = {round(float(np.linalg.det(M))) for M, _ in s.elements}
        assert dets == {1, -1}

    def test_states_lie_on_manifold(self, orbit):
        # every sampled state reproduces the base orbit energy
        from cforbits.model import HamiltonianSystem, Perturbation
        s = manifold_samples(orbit, 4, 3, group="SO3")
        sys3 = HamiltonianSystem(CLASSICAL, KEPLER, Perturbation.zero(), 3)
        for z in s.states:
            assert sys3.hamiltonian(0.0, z) == pytest.approx(
                orbit.profile.h, abs=1e-9)

    def test_rejects_bad_counts(self, orbit):
        with pytest.raises(ValueError):
            manifold_samples(orbit, 0, 1)

    @pytest.mark.parametrize("group", ["planar", "SO3", "O3"])
    def test_states_match_pointwise_loop(self, group):
        # one states() call over all shifts gives the bits of one
        # state_at() call per sample
        V = Potential.homogeneous(1.0, 0.5)
        orb = find_closed_orbit(CLASSICAL, V, 3, 4, -1.5)
        s = manifold_samples(orb, 3, 5, group=group)
        if group == "planar":
            loop = [rotate_state(_planar_rotation(a), orb.state_at(-th))
                    for a, th in s.elements]
        else:
            loop = [rotate_state(M, _embed3(orb.state_at(-th)))
                    for M, th in s.elements]
        assert np.array_equal(s.states, np.array(loop))


# --- one radial cycle against a full-period reference ---

REFERENCE_TOL = 1e-14
REFERENCE_ROWS = [
    (name, law, Potential.homogeneous(1.0, alpha), k, n, h, L_seed)
    for name, law, alpha, k, n, h, L_seed in POOL
] + [
    # perigee speed 3.2e3: a full-period integration at the default
    # tolerance drifts by 3e-5 here
    ("levi_civita_13_7", CLASSICAL, Potential.levi_civita(1.0, 0.1), 13, 7,
     -0.55, None),
]


@pytest.fixture(scope="module", params=REFERENCE_ROWS,
                ids=[row[0] for row in REFERENCE_ROWS])
def pool_orbit(request):
    _, law, V, k, n, h, L_seed = request.param
    return find_closed_orbit(law, V, k, n, h, L_seed=L_seed)


class TestComposedOrbit:
    # SciPy raises an rtol below 100 machine epsilons to that floor
    @pytest.mark.filterwarnings("ignore:At least one element of `rtol`")
    def test_states_match_full_period_reference(self, pool_orbit):
        orb = pool_orbit
        ref = integrate(orb.system, orb.z0, 0.0, orb.T, tol=REFERENCE_TOL)
        assert np.linalg.norm(ref(orb.T) - orb.z0) <= 1e-8
        ts = np.linspace(0.0, orb.T, 4001)
        z_ref = ref(ts)
        err = np.max(np.abs(orb.states(ts) - z_ref))
        assert err <= 1e-8 * np.max(np.abs(z_ref))

    def test_state_at_is_states_of_a_scalar(self, pool_orbit):
        orb = pool_orbit
        tau = orb.profile.tau
        for t in (0.0, 0.37 * tau, tau, 1.5 * tau, orb.T - 1e-3 * tau,
                  orb.T, 2.3 * orb.T, -0.4 * tau):
            assert np.array_equal(orb.state_at(t), orb.states(np.array([t]))[0])

    def test_states_continuous_across_cycle_boundaries(self, pool_orbit):
        orb = pool_orbit
        dt = 1e-9 * orb.T
        for j in range(1, orb.n + 1):
            t = j * orb.profile.tau
            assert np.max(np.abs(orb.states(t - dt) - orb.states(t + dt))) <= 1e-6

    def test_only_one_cycle_is_kept(self, pool_orbit):
        assert not hasattr(pool_orbit, "trajectory")
        assert pool_orbit.cycle.t1 == pool_orbit.profile.tau
