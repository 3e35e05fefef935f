import logging
import math
from dataclasses import astuple
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
    _scan,
    apogee_state,
    find_closed_orbit,
    manifold_samples,
    radial_profile,
    reflect_apsis,
    rotate_plane,
    rotate_state,
    turning_points,
)
from test_nondeg import REFERENCE_ROWS, REFERENCE_TOL

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

    @pytest.mark.parametrize("fraction, eccentricity",
                             [(0.0, 1.1512e-3), (0.25, 9.970e-4),
                              (0.9, 3.642e-4)])
    def test_near_circular_above_the_scans_edge(self, fraction, eccentricity):
        # alpha = 0.5 at h = -1.5 is circular at L = 1, r = 1; the scan
        # grid's feasible edge hi = 0.99999975 is below it, and from hi up
        # at most one grid radius lies inside the annulus.  Its orbits are
        # found, above ECCENTRICITY_FLOOR, with the radial period of the
        # circular limit 2 pi/sqrt(2 - alpha)
        V = Potential.homogeneous(1.0, 0.5)
        _, hi = orbit_module._feasible_L_interval(CLASSICAL, V, -1.5)
        p = radial_profile(CLASSICAL, V, -1.5, hi + fraction * (1.0 - hi))
        assert p.r_min < 1.0 < p.r_max
        assert p.eccentricity == pytest.approx(eccentricity, rel=1e-3)
        assert p.tau == pytest.approx(2.0 * math.pi / math.sqrt(1.5), rel=1e-7)
        with pytest.raises(CircularDegenerateError):
            turning_points(CLASSICAL, V, -1.5, 1.0)

    def test_unbound_rejected(self):
        with pytest.raises(NoBoundOrbitError):
            turning_points(CLASSICAL, KEPLER, 0.5, 1.0)

    def test_zero_momentum_rejected(self):
        with pytest.raises(NoBoundOrbitError):
            turning_points(CLASSICAL, KEPLER, -0.375, 0.0)

    def test_of_several_annuli_the_one_with_the_global_maximum(self):
        # a Kepler well and a Gaussian bump at r = 10: at h = -0.15, L = 1
        # p_r^2 is positive on an inner annulus (0.56, 6.1) and on one
        # around the bump, which holds the largest value on the grid
        V = Potential("two_well",
                      lambda r: 1.0 / r + 0.6 * np.exp(-((r - 10.0) / 0.5)**2),
                      None, None, None)
        h, L2 = -0.15, 1.0
        p2 = lambda r: orbit_module._p2(CLASSICAL, V, h, L2, r)
        assert np.count_nonzero(np.diff(p2(orbit_module._SCAN) > 0.0)) == 4
        r_min, r_max = turning_points(CLASSICAL, V, h, math.sqrt(L2))
        assert r_min == pytest.approx(9.2029, abs=1e-4)
        assert r_max == pytest.approx(10.7551, abs=1e-4)
        # each a root of p_r^2 to rounding: a sign change within 1e-14
        # relative
        for r, outward in ((r_min, 1.0), (r_max, -1.0)):
            assert p2(r * (1.0 - 1e-14)) * outward < 0.0
            assert p2(r * (1.0 + 1e-14)) * outward > 0.0


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
        assert p.tau == pytest.approx(math.pi, abs=1e-14)
        assert p.phi == pytest.approx(math.pi / 2, abs=1e-14)
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
        # walk toward the circular boundary and compare with pi/sqrt(2-alpha);
        # at 0.999 hi (eccentricity 0.05-0.12) the integrand still has no
        # cancellation near the turning points to stop the ladder
        from cforbits.orbit import _feasible_L_interval
        lo, hi = _feasible_L_interval(CLASSICAL, V, h)
        for fraction in (0.99, 0.999):
            p = radial_profile(CLASSICAL, V, h, fraction * hi)
            assert p.phi == pytest.approx(math.pi / math.sqrt(2 - alpha),
                                          rel=5e-3)


# pool targets of the benchmark's survey on the kinds whose r^2 p^2 is a
# quadratic, with the closed-form root of phi = k pi / n:
# relativistic Kepler (m = kappa = c = 1) phi = pi / sqrt(1 - 1/L^2), and
# classical Levi-Civita (m = kappa = 1) phi = pi L / sqrt(L^2 - 2 lam)
LC_TARGETS = ("2:1 3:2 4:3 5:3 5:4 7:4 6:5 7:5 8:5 9:5 7:6 11:6 8:7 9:7 10:7 "
              "11:7 12:7 13:7")
CLOSED_FORM_ROWS = [
    ("lc_l0.1_h-0.5", CLASSICAL, Potential.levi_civita(1.0, 0.1), -0.5,
     LC_TARGETS, math.sqrt(2.0 * 0.1)),
    ("relkep_c1_h-0.2", KineticLaw.relativistic(c=1.0), KEPLER, -0.2,
     "2:1 3:2 4:3 5:3 7:4 7:5 8:5 9:5 11:6 9:7 10:7 11:7 12:7 13:7", 1.0),
    ("relkep_c1_h-0.18", KineticLaw.relativistic(c=1.0), KEPLER, -0.18,
     "2:1 3:2 4:3 5:3 5:4 7:4 7:5 8:5 9:5 11:6 9:7 10:7 11:7 12:7 13:7", 1.0),
    ("relkep_c1_h-0.22", KineticLaw.relativistic(c=1.0), KEPLER, -0.22,
     "2:1 3:2 4:3 5:3 7:4 7:5 8:5 9:5 11:6 9:7 10:7 11:7 12:7 13:7", 1.0),
]


class TestFindClosedOrbit:
    @pytest.mark.parametrize("law, V, h, targets, L_scale",
                             [row[1:] for row in CLOSED_FORM_ROWS],
                             ids=[row[0] for row in CLOSED_FORM_ROWS])
    def test_quadratic_kinds_match_closed_form(self, law, V, h, targets,
                                               L_scale):
        # L* = L_scale / sqrt(1 - (n/k)^2) for both kinds
        off = []
        for kn in targets.split():
            k, n = map(int, kn.split(":"))
            L = find_closed_orbit(law, V, k, n, h).profile.L
            L_star = L_scale / math.sqrt(1.0 - (n / k) ** 2)
            if abs(L - L_star) > 1e-13 * L_star:
                off.append((kn, L, L_star))
        assert off == []

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

    def test_root_profile_comes_from_the_root_search(self, monkeypatch):
        # the profile at the root is the one brentq computed there, not a
        # second quadrature at the same point
        made = []

        def recorded(*args):
            made.append(radial_profile(*args))
            return made[-1]

        monkeypatch.setattr(orbit_module, "radial_profile", recorded)
        V = Potential.homogeneous(1.0, 0.5)
        orb = find_closed_orbit(CLASSICAL, V, 3, 4, -1.5)
        at_root = [p for p in made
                   if (p.h, p.L) == (orb.profile.h, orb.profile.L)]
        assert len(at_root) == 1 and at_root[0] is orb.profile

    @staticmethod
    def _apsidal_brentq(monkeypatch, search):
        """Patch orbit's brentq so that the apsidal root search (not the
        turning points' refinement) runs search(f, a, b, **kw) instead."""
        real = orbit_module.brentq
        monkeypatch.setattr(
            orbit_module, "brentq",
            lambda f, a, b, **kw: (real if kw["xtol"] == orbit_module._XTOL
                                   else search)(f, a, b, **kw))
        return real

    def test_root_search_starts_from_the_scan_values(self, monkeypatch):
        # brentq's first two objective values are the bracket ends, where
        # the scan holds radial_profile's phi, so only the points after
        # them make a profile
        tried, made = [], []

        def counted(f, a, b, **kw):
            return real(lambda x: tried.append(x) or f(x), a, b, **kw)

        real = self._apsidal_brentq(monkeypatch, counted)
        monkeypatch.setattr(orbit_module, "radial_profile",
                            lambda *args: made.append(args)
                            or radial_profile(*args))
        V = Potential.homogeneous(1.0, 0.5)
        orb = find_closed_orbit(CLASSICAL, V, 3, 4, -1.5)
        assert len(tried) >= 3
        assert len(made) == len(tried) - 2
        fresh = radial_profile(CLASSICAL, V, orb.profile.h, orb.profile.L)
        assert ([float(v).hex() for v in astuple(orb.profile)]
                == [float(v).hex() for v in astuple(fresh)])

    @pytest.mark.parametrize("end", [0, 1])
    def test_a_bracket_end_root_gets_its_full_profile(self, monkeypatch, end):
        # brentq returns a bracket end only where phi is exactly on target,
        # which no real case reaches: a stand-in returns one, and the
        # residual tolerance is lifted so that the orbit is built there
        ends = []

        def at_end(f, a, b, **kw):
            f(a), f(b)
            ends.append((a, b)[end])
            return ends[-1]

        self._apsidal_brentq(monkeypatch, at_end)
        monkeypatch.setattr(orbit_module, "PHI_TOL", math.inf)
        V = Potential.homogeneous(1.0, 0.5)
        orb = find_closed_orbit(CLASSICAL, V, 3, 4, -1.5)
        assert ([float(v).hex() for v in astuple(orb.profile)]
                == [float(v).hex() for v in
                    astuple(radial_profile(CLASSICAL, V, -1.5, ends[0]))])

    def test_unreachable_target(self):
        # alpha=0.5 apsidal angles live in (2pi/3, pi/sqrt(1.5)); pi/2 is out
        V = Potential.homogeneous(1.0, 0.5)
        with pytest.raises(TargetOutOfRangeError) as exc:
            find_closed_orbit(CLASSICAL, V, 1, 2, -1.5)
        assert exc.value.phi_range is not None

    @pytest.mark.parametrize("V, k, n, h", [(HARMONIC, 1, 2, 1.25),
                                            (KEPLER, 1, 1, -0.375)],
                             ids=["harmonic", "kepler"])
    def test_constant_apsidal_angle_builds_at_L_seed(self, V, k, n, h):
        # every scanned L closes, and the orbit built is the profile at
        # L_seed, bit for bit
        orb = find_closed_orbit(CLASSICAL, V, k, n, h, L_seed=0.9)
        assert ([float(v).hex() for v in astuple(orb.profile)]
                == [float(v).hex() for v in
                    astuple(radial_profile(CLASSICAL, V, h, 0.9))])

    @pytest.mark.parametrize("V, k, n, h, miss", [
        (KEPLER, 1, 1, -0.375, (2, 1)),
        (HARMONIC, 1, 2, 1.25, (1, 1)),
    ], ids=["kepler", "harmonic"])
    def test_constant_apsidal_angle_needs_L_seed(self, V, k, n, h, miss):
        # every L of the scan closes, so no L is the answer
        with pytest.raises(ValueError, match="L_seed"):
            find_closed_orbit(CLASSICAL, V, k, n, h)
        # a target the constant angle misses is out of range, as before
        with pytest.raises(TargetOutOfRangeError):
            find_closed_orbit(CLASSICAL, V, *miss, h)

    def test_spatial_embedding(self):
        orb = find_closed_orbit(CLASSICAL, KEPLER, 1, 1, -0.375, L_seed=1.0,
                                dim=3)
        assert orb.z0.size == 6
        assert orb.closure_residual <= 1e-8

    def test_an_ignored_L_seed_is_logged(self, caplog):
        # the resonance fixes L where phi varies along the scan
        V = Potential.homogeneous(1.0, 0.5)
        with caplog.at_level(logging.WARNING, logger="cforbits.orbit"):
            orb = find_closed_orbit(CLASSICAL, V, 3, 4, -1.5, L_seed=0.3)
        assert orb.profile.L == find_closed_orbit(CLASSICAL, V, 3, 4,
                                                  -1.5).profile.L
        (record,) = caplog.records
        assert record.getMessage().startswith(
            f"L_seed 0.3 ignored: the resonance 3:4 fixes L = "
            f"{orb.profile.L:.9g}")
        # Kepler's phi is constant, so L_seed chooses the orbit built
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="cforbits.orbit"):
            find_closed_orbit(CLASSICAL, KEPLER, 1, 1, -0.375, L_seed=1.0)
        assert caplog.records == []

    def test_extra_brackets_are_logged(self, monkeypatch, caplog):
        # an apsidal angle that crosses the target several times over the
        # feasible L interval of alpha = 0.5 at h = -1.5, on the scan grid
        # and in the root search
        target = 3 * math.pi / 4
        phi = lambda L: target + np.sin(20 * L)
        V = Potential.homogeneous(1.0, 0.5)
        xs, _ = _scan(CLASSICAL, V, -1.5)
        monkeypatch.setattr(orbit_module, "_scan", lambda *key: (xs, phi(xs)))
        monkeypatch.setattr(
            orbit_module, "radial_profile",
            lambda law, V, h, L: SimpleNamespace(phi=phi(L)))
        monkeypatch.setattr(orbit_module, "_build_orbit",
                            lambda law, V, profile, *rest: profile)
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

    @pytest.mark.parametrize("group", ["planar", "SO3"])
    def test_states_match_pointwise_loop(self, group):
        # one states() call over all shifts gives the bits of one
        # states() call per sample
        V = Potential.homogeneous(1.0, 0.5)
        orb = find_closed_orbit(CLASSICAL, V, 3, 4, -1.5)
        s = manifold_samples(orb, 3, 5, group=group)
        if group == "planar":
            loop = [rotate_plane(orb.states(-th), a) for a, th in s.elements]
        else:
            loop = [rotate_state(M, _embed3(orb.states(-th)))
                    for M, th in s.elements]
        assert np.array_equal(s.states, np.array(loop))

    @pytest.mark.parametrize("group", ["planar", "SO3"])
    def test_apsis_samples_from_the_profile(self, group):
        # shift 0 is the apogee z0, which states(0) gives bit for bit, so
        # those samples are the states() loop's; shift tau/2 is the exact
        # perigee (r_min, L/r_min) where states() puts it, at the angle
        # 7 k pi/4 on the 3:4 orbit, off states() by the perigee junction's
        # error (measured 7.0e-12 to 9.5e-12 here, closure residual 2.0e-11)
        V = Potential.homogeneous(1.0, 0.5)
        orb = find_closed_orbit(CLASSICAL, V, 3, 4, -1.5,
                                dim=2 if group == "planar" else 3)
        assert np.array_equal(orb.states(0.0), orb.z0)
        p, d = orb.profile, orb.dim
        perigee = np.zeros(2 * d)
        perigee[0], perigee[d + 1] = p.r_min, p.L / p.r_min
        perigee = rotate_plane(perigee, math.pi * 3 * 7 / 4)
        s = manifold_samples(orb, 3, 4, group=group)
        for i, (M, th) in enumerate(s.elements):
            def turn(z):
                if group == "planar":
                    return rotate_plane(z, M)
                return rotate_state(M, _embed3(z))
            old = turn(orb.states(-th))
            if i % 4 == 0:
                assert np.array_equal(s.states[i], old)
            elif i % 4 == 2:
                assert th == 0.5 * p.tau
                assert np.array_equal(s.states[i], turn(perigee))
                assert 0.0 < np.max(np.abs(s.states[i] - old)) <= 1e-10
            else:
                assert np.array_equal(s.states[i], old)


# --- half a radial cycle against full-period and full-cycle references ---

# levi_civita_13_7 has a perigee speed of 3.2e3: a full-period integration
# drifts by 3e-5 there at the default tolerance and by 1.7e-7 at
# REFERENCE_TOL, so the closed form below is the reference for that row
def _levi_civita_states(orb, ts):
    """Closed-form phase states of a classical Levi-Civita orbit started at
    apogee: r(t) is the Kepler radial motion at L_eff^2 = L^2 - 2 m lam, and
    the polar angle is L / L_eff times the Kepler true anomaly."""
    m, (kappa, lam) = orb.law.m, orb.potential.params
    h, L = orb.profile.h, orb.profile.L
    L_eff = math.sqrt(L**2 - 2.0 * m * lam)
    a = kappa / (-2.0 * h)
    e = math.sqrt(1.0 + 2.0 * h * L_eff**2 / (m * kappa**2))
    mean_motion = math.sqrt(kappa / (m * a**3))
    M = math.pi + mean_motion * ts
    E = M + 0.85 * e * np.sign(np.sin(M))
    for _ in range(50):  # Newton on Kepler's equation E - e sin E = M
        E = E - (E - e * np.sin(E) - M) / (1.0 - e * np.cos(E))
    r = a * (1.0 - e * np.cos(E))
    beta = e / (1.0 + math.sqrt(1.0 - e**2))
    nu = E + 2.0 * np.arctan2(beta * np.sin(E), 1.0 - beta * np.cos(E))
    theta = L / L_eff * (nu - math.pi)
    p_r = m * a * e * np.sin(E) * mean_motion / (1.0 - e * np.cos(E))
    p_t = L / r
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([r * c, r * s, p_r * c - p_t * s, p_r * s + p_t * c], axis=1)


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
        z_ref = (_levi_civita_states(orb, ts)
                 if orb.potential.kind == "levi_civita" else ref(ts))
        err = np.max(np.abs(orb.states(ts) - z_ref))
        assert err <= 1e-8 * np.max(np.abs(z_ref))

    def test_state_at_is_states_of_a_scalar(self, pool_orbit):
        orb = pool_orbit
        tau = orb.profile.tau
        for t in (0.0, 0.37 * tau, tau, 1.5 * tau, orb.T - 1e-3 * tau,
                  orb.T, 2.3 * orb.T, -0.4 * tau):
            assert np.array_equal(orb.states(t), orb.states(np.array([t]))[0])

    def test_states_continuous_across_cycle_boundaries(self, pool_orbit):
        orb = pool_orbit
        dt = 1e-9 * orb.T
        for j in range(1, orb.n + 1):
            t = j * orb.profile.tau
            assert np.max(np.abs(orb.states(t - dt) - orb.states(t + dt))) <= 1e-6

    def test_only_one_cycle_is_kept(self, pool_orbit):
        assert not hasattr(pool_orbit, "trajectory")
        assert pool_orbit.cycle.t1 == 0.5 * pool_orbit.profile.tau

    def test_states_match_full_cycle_composition(self, pool_orbit):
        # one integrated radial cycle [0, tau] turned by 2 pi k j/n, the
        # composition before the apsis mirror
        orb = pool_orbit
        tau = orb.profile.tau
        full = integrate(orb.system, orb.z0, 0.0, tau)
        ts = np.linspace(0.0, orb.T, 4001)
        j = np.minimum(np.floor(ts / tau), orb.n - 1)
        ref = rotate_plane(full(ts - j * tau),
                           2.0 * math.pi * orb.k * j / orb.n)
        err = np.max(np.abs(orb.states(ts) - ref))
        assert err <= 1e-9 * np.max(np.abs(ref))

    def test_second_half_cycle_is_the_apsis_mirror(self, pool_orbit):
        # states(j tau + tau - s) = Rot(2 pi k j/n) R(states(s)), with s
        # the time states() mirrors
        orb = pool_orbit
        tau = orb.profile.tau
        a = math.pi * orb.k / orb.n
        for j in range(orb.n):
            for u in (0.5000001, 0.61, 0.83, 0.9999999):
                t = j * tau + u * tau
                s = tau - (t - j * tau)
                want = rotate_plane(reflect_apsis(orb.states(s), a),
                                    2.0 * math.pi * orb.k * j / orb.n)
                assert np.array_equal(orb.states(t), want)

    def test_perigee_jump_is_the_closure_residual(self, pool_orbit):
        # a few ulps either side of each perigee: the jump differs from the
        # closure residual by at most the motion over those ulps
        orb = pool_orbit
        tau = orb.profile.tau
        perigee = orb.cycle(0.5 * tau)
        speed = np.linalg.norm(orb.system.vector_field(0.0, perigee))
        dt = 4 * math.ulp(orb.T)
        slack = 4 * dt * speed + 1e-14 * np.max(np.abs(perigee))
        for j in range(orb.n):
            t = j * tau + 0.5 * tau
            jump = np.linalg.norm(orb.states(t + dt) - orb.states(t - dt))
            assert abs(jump - orb.closure_residual) <= slack
            assert jump <= 1e-6

    def test_spatial_states_embed_the_planar_ones(self, pool_orbit):
        # the same profile built as a dim-3 orbit; its steps differ from the
        # planar ones (the error norm counts six components), not its states
        orb = pool_orbit
        spatial = orbit_module._build_orbit(orb.law, orb.potential,
                                            orb.profile, orb.k, orb.n, 3)
        ts = np.linspace(0.0, orb.T, 1001)
        z2, z3 = orb.states(ts), spatial.states(ts)
        assert np.all(z3[:, [2, 5]] == 0.0)
        err = np.max(np.abs(z3 - np.array([_embed3(z) for z in z2])))
        assert err <= 1e-9 * np.max(np.abs(z2))
